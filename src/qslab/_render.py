"""Text and Markdown renderings of every command's payload.

Each command line subcommand, ``verify-paper`` included, computes one
payload: the dict that ``--format json`` prints.  The text and Markdown of
a command are rendered here from that payload alone, never from a group,
table or structure, so the three formats show one set of values.  A payload
read back from its own JSON renders to the same bytes.  ``render`` is the
one entry point; ``qslab.cli.main`` and ``qslab.verify.render_report`` both
call it.  ``json`` is imported only where JSON is written, so text and
Markdown of the commands that print no JSON value never load it.
"""

from __future__ import annotations

from collections import Counter


def render(command: str, payload: dict, fmt: str) -> str:
    """``payload`` of ``command`` as ``fmt`` (text, json or md), with no
    final newline."""
    if fmt == "json":
        import json

        return json.dumps(payload, sort_keys=True, indent=2)
    if fmt not in ("text", "md"):
        raise ValueError(f"unknown report format {fmt!r}")
    return RENDERERS[command](payload, fmt == "md")


# -- shared pieces -------------------------------------------------------


def _md(title: str, *blocks: str) -> str:
    """A level-1 title followed by blocks, separated by blank lines."""
    return "\n\n".join((f"# {title}",) + blocks)


def _bullets(*lines: str) -> str:
    return "\n".join(f"- {line}" for line in lines)


def _md_table(headers, rows) -> str:
    """A pipe table; an empty header cell prints as ``| |``."""
    head = ("| " + " | ".join(headers) + " |").replace("|  |", "| |")
    body = ["| " + " | ".join(map(str, row)) + " |" for row in rows]
    return "\n".join([head, "|" + " --- |" * len(headers), *body])


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _pass_fail(flag: bool) -> str:
    return "PASS" if flag else "FAIL"


def _compact(value) -> str:
    import json

    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# -- one renderer per command: its text, or with md its Markdown ---------


def _info(p, md):
    lines = [
        f"group {p['group']}: order {p['order']}, exponent "
        f"{p['exponent']}, {p['class_count']} conjugacy classes",
        "generators: "
        + ", ".join(f"{g['name']} (order {g['order']})" for g in p["generators"]),
        f"center: order {p['center_order']}, elements " + ", ".join(p["center"]),
        f"minimal generating sets have size {p['minimal_generator_count']}",
    ]
    for entry in p["structures"]:
        if "type" in entry:
            detail = "type (" + ", ".join(map(str, entry["type"])) + ")"
        else:
            detail = "invalid: " + entry["invalid"]
        lines.append(
            f"structure {entry['name']}: {detail}; entries "
            + ", ".join(entry["entries"])
        )
    for entry in p["subgroups"]:
        normality = "normal" if entry["normal"] else "not normal"
        lines.append(
            f"subgroup {entry['name']}: order {entry['order']}, {normality}, "
            "generated by " + ", ".join(entry["generators"])
        )
    return _md(p["group"], _bullets(*lines)) if md else "\n".join(lines)


def _classes(p, md):
    rows = p["classes"]
    if md:
        return _md(
            f"Conjugacy classes of {p['group']} ({p['order']})",
            _md_table(
                ["#", "representative", "size", "element order", "members"],
                [
                    [r["index"], r["representative"], r["size"], r["element_order"],
                     ", ".join(r["members"])]
                    for r in rows
                ],
            ),
        )
    lines = [f"{len(rows)} conjugacy classes of {p['group']} ({p['order']})"]
    for r in rows:
        lines.append(
            f"{r['index']:3d}: rep {r['representative']}, size {r['size']}, "
            f"element order {r['element_order']}; members " + ", ".join(r["members"])
        )
    return "\n".join(lines)


def _chartable(p, md):
    # one grid for both formats: the header row, then a labelled row per character
    grid = [["", *(c["representative"] for c in p["classes"])]]
    grid += [[row["label"], *map(str, row["values"])] for row in p["rows"]]
    if md:
        return _md(f"Character table of {p['group']} ({p['order']})", _md_table(grid[0], grid[1:]))
    widths = [max(map(len, column)) for column in zip(*grid)]
    lines = [f"character table of {p['group']} ({p['order']})"]
    for label, *values in grid:
        lines.append(
            "  ".join([label.ljust(widths[0]), *map(str.rjust, values, widths[1:])])
        )
    return "\n".join(lines)


def _sigma(p, md):
    if md:
        return _md(
            f"Stabilizer set of {p['structure']}",
            f"{p['size']} elements:",
            _bullets(*p["elements"]),
        )
    return f"stabilizer set of {p['structure']}: {p['size']} elements\n" + ", ".join(
        p["elements"]
    )


def _disjoint(p, md):
    (a, b), (size_a, size_b) = p["structures"], p["sizes"]
    common, verdict = ", ".join(p["common"]), _yes_no(p["disjoint"])
    if md:
        return _md(
            f"Stabilizer overlap of {a} and {b}",
            _bullets(
                f"sizes: {size_a} and {size_b}",
                f"common elements: {common}",
                f"disjoint away from the identity: {verdict}",
            ),
        )
    return (
        f"stabilizer sets of {a} ({size_a} elements) and "
        f"{b} ({size_b} elements) share only: {common}"
        f"\ndisjoint away from the identity: {verdict}"
    )


def _fixed_points(p, md):
    rows = p["classes"]
    if md:
        return _md(
            f"Fixed points on the curve of {p['structure']}",
            f"Genus {p['genus']}; classes in {p['order']}.",
            _md_table(
                ["class representative", "fixed points"],
                [[r["representative"], r["fixed_points"]] for r in rows],
            ),
        )
    lines = [
        f"fixed points on the genus {p['genus']} curve of {p['structure']} "
        f"({p['order']})"
    ]
    width = max(len(r["representative"]) for r in rows)
    for r in rows:
        lines.append(f"  {r['representative'].ljust(width)}  {r['fixed_points']}")
    return "\n".join(lines)


def _canonical(p, md):
    # terms in row order, chi7 before chi11, which JSON's sorted keys lose
    terms = sorted(p["decomposition"].items(), key=lambda t: int(t[0].removeprefix("chi")))
    decomposition = (
        " + ".join(label if m == 1 else f"{m}*{label}" for label, m in terms)
        or "0"  # the empty sum of a genus-0 curve
    )
    values = list(map(str, p["values"]))
    if md:
        return _md(
            f"Canonical character of the curve of {p['structure']}",
            _bullets(
                f"genus: {p['genus']}",
                f"values ({p['order']}): " + ", ".join(values),
                "decomposition: " + decomposition,
            ),
        )
    return (
        f"canonical character of the genus {p['genus']} curve of {p['structure']} "
        f"({p['order']}):\n"
        + "  ".join(values)
        + "\ndecomposition: "
        + decomposition
    )


def _quotient_genus(p, md):
    subgroup = f"{p['subgroup']} (order {p['subgroup_order']})"
    if md:
        return _md(
            "Quotient genus",
            _bullets(
                f"structure: {p['structure']}",
                f"subgroup: {subgroup}",
                f"genus: {p['genus']}",
            ),
        )
    return f"quotient of the {p['structure']} curve by {subgroup}: genus {p['genus']}"


def _fiber_orbits(p, md):
    shape = Counter((orbit["size"], orbit["stabilizer_order"]) for orbit in p["orbits"])
    shape_text = ", ".join(
        f"{count} x (size {size}, stabilizer order {stab})"
        for (size, stab), count in sorted(shape.items())
    )
    subgroup = f"{p['subgroup']} (order {p['subgroup_order']})"
    if md:
        return _md(
            f"Fiber orbits at branch point {p['branch']} of {p['structure']}",
            _bullets(
                f"branch entry: {p['entry']} (order {p['entry_order']})",
                f"fiber size: {p['fiber_size']}",
                f"subgroup: {subgroup}",
                f"orbits: {shape_text}",
                f"acts freely: {_yes_no(p['acts_freely'])}",
            ),
        )
    return (
        f"fiber over branch point {p['branch']} of {p['structure']} "
        f"(entry {p['entry']}, order {p['entry_order']}): {p['fiber_size']} points\n"
        f"orbits under {subgroup}: {shape_text}\n"
        f"acts freely: {_yes_no(p['acts_freely'])}"
    )


def _search(p, md):
    (a, b), flat = p["structures"], p["euler_flat_pairs"]
    summary = [
        f"every pair admits an admissible twist: {_yes_no(p['all_pairs_admit_twist'])}",
        "trivial twist admissible somewhere: "
        + _yes_no(p["trivial_twist_admissible_somewhere"]),
        "euler-flat pairs: "
        + (", ".join(f"({x}, {y})" for x, y in flat) if flat else "none"),
    ]
    if md:
        return _md(
            f"Twist search on {p['group']}",
            _bullets(f"structures: {a} and {b}", *summary),
            _md_table(
                ["A", "B", "admissible twists", "euler flat"],
                [
                    [q["a"], q["b"], ", ".join(q["admissible"]), _yes_no(q["euler_flat"])]
                    for q in p["pairs"]
                ],
            ),
        )
    lines = [
        f"twist search on {p['group']} with {a} and {b}: "
        f"{p['pair_count']} pairs of degree-2 twists",
        *summary,
    ]
    for q in p["pairs"]:
        lines.append(f"  A={q['a']} B={q['b']}: admissible " + ", ".join(q["admissible"]))
    return "\n".join(lines)


def _verify_paper(p, md):
    checks, verdict = p["checks"], _pass_fail(p["passed"])
    if md:
        return _md(
            f"Verification report: {verdict}",
            _md_table(
                ["check", "anchor", "expected", "computed", "status"],
                [
                    [c["name"], c["anchor"], f"`{_compact(c['expected'])}`",
                     f"`{_compact(c['computed'])}`", _pass_fail(c["passed"])]
                    for c in checks
                ],
            ),
        )
    lines = [
        f"verification {verdict}: "
        f"{sum(c['passed'] for c in checks)}/{len(checks)} checks passed"
    ]
    for c in checks:
        lines.append(f"[{_pass_fail(c['passed'])}] {c['name']} ({c['anchor']})")
        if not c["passed"]:
            lines.append(f"  expected: {_compact(c['expected'])}")
            lines.append(f"  computed: {_compact(c['computed'])}")
    return "\n".join(lines)


RENDERERS = {
    "info": _info,
    "classes": _classes,
    "chartable": _chartable,
    "sigma": _sigma,
    "disjoint": _disjoint,
    "fixed-points": _fixed_points,
    "canonical": _canonical,
    "quotient-genus": _quotient_genus,
    "fiber-orbits": _fiber_orbits,
    "search": _search,
    "verify-paper": _verify_paper,
}
