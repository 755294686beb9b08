"""Command line front end.

``main`` loads a model file (by default the packaged model that
``qslab.builtin`` parsed at import) and resolves the group and the
subcommand's declared number of structures once; the subcommand resolves
any subgroup, computes what it needs (character tables included) and
prints it in text, JSON, or Markdown.  All numeric output is exact:
every value (character values included) is an integer, never a float.

Each command loads only the modules it runs: ``qslab.verify`` (which
imports ``qslab.search``) is loaded for ``verify-paper`` alone and
``qslab.search`` for ``search``, so no other subcommand imports either.

Exit codes: 0 on success, 1 when ``verify-paper`` finds a mismatch,
2 for usage errors and unparseable or unresolvable input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import alg, builtin
from .characters import (
    AlignmentError,
    CharacterTable,
    align_to_reference,
    compute_character_table,
    decompose,
    load_reference_table,
    reference_column_map,
)
from .groups import (
    FiniteGroup,
    GroupSpecError,
    GroupTooLargeError,
    build_group,
)
from .ramification import (
    WHOLE_CURVE,
    SphericalSystemError,
    canonical_character,
    curve_genus,
    fiber_orbit_structure,
    fixed_point_table,
    is_disjoint,
    quotient_genus,
    stabilizer_set,
    validate_spherical,
)


class CliError(Exception):
    """Usage or resolution failure; rendered to stderr with exit code 2."""


# -- model and group resolution -----------------------------------------


def _load_model(path: str | None) -> alg.SessionModel:
    if path is None:
        return builtin.MODEL
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")
    try:
        return alg.parse_model(text)
    except alg.ParseError as exc:
        raise CliError(f"{path}: {exc}")


def _resolve_group(model: alg.SessionModel, name: str | None) -> tuple[str, FiniteGroup]:
    names = model.group_names()
    if not names:
        raise CliError("input declares no groups")
    if name is None:
        if len(names) > 1:
            raise CliError(
                "input declares several groups; name one of: " + ", ".join(names)
            )
        name = names[0]
    try:
        spec = model.group_spec(name)
    except KeyError:
        raise CliError(f"unknown group {name!r}; input declares: " + ", ".join(names))
    try:
        return name, build_group(spec)
    except (GroupSpecError, GroupTooLargeError) as exc:
        raise CliError(f"group {name}: {exc}")


def _resolve_structure(model, group_name, group, sname):
    try:
        decl = model.structure(sname)
    except KeyError:
        available = [d.name for d in model.structures_on(group_name)]
        hint = "; declared: " + ", ".join(available) if available else ""
        raise CliError(f"unknown structure {sname!r}{hint}")
    if decl.group_name != group_name:
        raise CliError(f"structure {sname} is declared on group {decl.group_name}")
    try:
        return _structure_system(group, decl)
    except SphericalSystemError as exc:
        raise CliError(f"structure {sname}: {exc}")


def _structure_system(group, decl):
    """The spherical system of a structure declared on ``group``."""
    return validate_spherical(group, map(group.evaluate_word, decl.words))


def _resolve_subgroup(model, group_name, group, text):
    """A declared subgroup name, or an inline generator list like ``g2*g5, g4``."""
    try:
        decl = model.subgroup(text)
    except KeyError:
        try:
            words = alg.parse_word_list_fragment(text, group.spec)
        except alg.ParseError as exc:
            raise CliError(f"--subgroup {text!r}: {exc}")
        label = ", ".join("*".join(w) if w else "1" for w in words) or "1"
    else:
        if decl.group_name != group_name:
            raise CliError(f"subgroup {text} is declared on group {decl.group_name}")
        words, label = decl.words, text
    return group.subgroup_closure(group.evaluate_word(w) for w in words), label


def _resolve_structures(model, group_name, group, args):
    """(name, system) per --structure; ``search`` defaults to the declared ones."""
    names, count = args.structure or [], args.structure_count
    if args.command == "search":
        names = names or [d.name for d in model.structures_on(group_name)]
        wanted = "structures (via --structure twice, or a model declaring exactly two);"
    else:
        wanted = "--structure structure," if count == 1 else "--structure structures,"
    if len(names) != count:
        raise CliError(f"{args.command} needs exactly {count} {wanted} got {len(names)}")
    return [(name, _resolve_structure(model, group_name, group, name)) for name in names]


# -- published-order display --------------------------------------------


def _is_reference_group(group: FiniteGroup) -> bool:
    return group.spec == builtin.G32_27_SPEC


def _column_layout(group: FiniteGroup) -> tuple[tuple[int, ...], bool]:
    """Class display order: the published one when this is the bundled group."""
    if _is_reference_group(group):
        try:
            return reference_column_map(group, load_reference_table()), True
        except AlignmentError:
            pass
    return tuple(range(len(group._partition))), False


def _table_layout(table: CharacterTable):
    """(row order, column order, published?) for rendering a table."""
    if _is_reference_group(table.group):
        try:
            row_perm, col_perm = align_to_reference(table, load_reference_table())
            return row_perm, col_perm, True
        except AlignmentError:
            pass
    k = len(table.group._partition)
    return tuple(range(len(table.rows))), tuple(range(k)), False


def _row_labels(row_perm: tuple[int, ...]) -> dict[int, str]:
    """Map canonical row index to its display label (chi1, chi2, ...)."""
    return {canonical: f"chi{i + 1}" for i, canonical in enumerate(row_perm)}


def _order_note(published: bool) -> str:
    return "published order" if published else "canonical order"


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


# -- Markdown -----------------------------------------------------------


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


# -- subcommands: each returns (payload, text, markdown) ----------------


def _cmd_info(model, args, group_name, group, structures):
    classes = group.conjugacy_classes()
    center = group.center()
    whole = group.subgroup_closure(group.basis_generators())
    rank = len(group.minimal_generators(whole))
    payload = {
        "group": group_name,
        "order": group.order,
        "exponent": group.exponent(),
        "generators": [
            {"name": name, "order": group.generator(name).order()}
            for name, _ in group.spec.generator_names
        ],
        "class_count": len(classes),
        "center_order": center.order,
        "center": [g.word() for g in center.elements],
        "minimal_generator_count": rank,
        "structures": [],
        "subgroups": [],
    }
    for decl in model.structures_on(group_name):
        entry = {"name": decl.name, "entries": ["*".join(w) for w in decl.words]}
        try:
            entry["type"] = list(_structure_system(group, decl).signature)
        except SphericalSystemError as exc:
            entry["invalid"] = str(exc)
        payload["structures"].append(entry)
    for decl in model.subgroups:
        if decl.group_name != group_name:
            continue
        sub = group.subgroup_closure(group.evaluate_word(w) for w in decl.words)
        payload["subgroups"].append(
            {
                "name": decl.name,
                "order": sub.order,
                "generators": ["*".join(w) for w in decl.words],
                "normal": group.is_normal(sub),
            }
        )

    lines = [
        f"group {group_name}: order {payload['order']}, exponent "
        f"{payload['exponent']}, {payload['class_count']} conjugacy classes",
        "generators: "
        + ", ".join(f"{g['name']} (order {g['order']})" for g in payload["generators"]),
        f"center: order {payload['center_order']}, elements "
        + ", ".join(payload["center"]),
        f"minimal generating sets have size {rank}",
    ]
    for entry in payload["structures"]:
        if "type" in entry:
            detail = "type (" + ", ".join(map(str, entry["type"])) + ")"
        else:
            detail = "invalid: " + entry["invalid"]
        lines.append(
            f"structure {entry['name']}: {detail}; entries "
            + ", ".join(entry["entries"])
        )
    for entry in payload["subgroups"]:
        normality = "normal" if entry["normal"] else "not normal"
        lines.append(
            f"subgroup {entry['name']}: order {entry['order']}, {normality}, "
            "generated by " + ", ".join(entry["generators"])
        )
    return payload, "\n".join(lines), _md(group_name, _bullets(*lines))


def _cmd_classes(model, args, group_name, group, structures):
    classes = group.conjugacy_classes()
    order, published = _column_layout(group)
    rows = []
    for display, c_index in enumerate(order, start=1):
        cls = classes[c_index]
        rows.append(
            {
                "index": display,
                "representative": cls.representative.word(),
                "size": cls.size,
                "element_order": cls.representative.order(),
                "members": [g.word() for g in cls.elements],
            }
        )
    payload = {"group": group_name, "order": _order_note(published), "classes": rows}
    lines = [f"{len(rows)} conjugacy classes of {group_name} ({_order_note(published)})"]
    for r in rows:
        lines.append(
            f"{r['index']:3d}: rep {r['representative']}, size {r['size']}, "
            f"element order {r['element_order']}; members " + ", ".join(r["members"])
        )
    md = _md(
        f"Conjugacy classes of {group_name} ({_order_note(published)})",
        _md_table(
            ["#", "representative", "size", "element order", "members"],
            [
                [r["index"], r["representative"], r["size"], r["element_order"],
                 ", ".join(r["members"])]
                for r in rows
            ],
        ),
    )
    return payload, "\n".join(lines), md


def _cmd_chartable(model, args, group_name, group, structures):
    table = compute_character_table(group)
    row_perm, col_perm, published = _table_layout(table)
    classes = group.conjugacy_classes()
    headers = [classes[c].representative.word() for c in col_perm]
    sizes = [classes[c].size for c in col_perm]
    matrix = [
        [str(table.rows[r].values[c]) for c in col_perm] for r in row_perm
    ]
    payload = {
        "group": group_name,
        "order": _order_note(published),
        "classes": [
            {"representative": h, "size": s} for h, s in zip(headers, sizes)
        ],
        "rows": [
            {
                "label": f"chi{i + 1}",
                "degree": table.rows[r].at_identity(),
                "values": [table.rows[r].values[c] for c in col_perm],
            }
            for i, r in enumerate(row_perm)
        ],
    }
    labels = [row["label"] for row in payload["rows"]]
    label_w = max(map(len, labels))
    widths = [
        max(len(headers[j]), max(len(row[j]) for row in matrix))
        for j in range(len(headers))
    ]
    lines = [f"character table of {group_name} ({_order_note(published)})"]
    lines.append(
        " " * label_w
        + "  "
        + "  ".join(h.rjust(widths[j]) for j, h in enumerate(headers))
    )
    for label, row in zip(labels, matrix):
        lines.append(
            label.ljust(label_w)
            + "  "
            + "  ".join(v.rjust(widths[j]) for j, v in enumerate(row))
        )
    md = _md(
        f"Character table of {group_name} ({_order_note(published)})",
        _md_table(["", *headers], [[label, *row] for label, row in zip(labels, matrix)]),
    )
    return payload, "\n".join(lines), md


def _cmd_sigma(model, args, group_name, group, structures):
    ((sname, system),) = structures
    members = sorted(stabilizer_set(system), key=group.index)
    payload = {
        "group": group_name,
        "structure": sname,
        "size": len(members),
        "elements": [g.word() for g in members],
    }
    text = (
        f"stabilizer set of {sname}: {len(members)} elements\n"
        + ", ".join(payload["elements"])
    )
    md = _md(
        f"Stabilizer set of {sname}",
        f"{len(members)} elements:",
        _bullets(*payload["elements"]),
    )
    return payload, text, md


def _cmd_disjoint(model, args, group_name, group, structures):
    names, systems = map(list, zip(*structures))
    sets = [stabilizer_set(s) for s in systems]
    common = sorted(sets[0] & sets[1], key=group.index)
    payload = {
        "group": group_name,
        "structures": names,
        "sizes": [len(s) for s in sets],
        "common": [g.word() for g in common],
        "disjoint": is_disjoint(*systems),
    }
    verdict = _yes_no(payload["disjoint"])
    text = (
        f"stabilizer sets of {names[0]} ({len(sets[0])} elements) and "
        f"{names[1]} ({len(sets[1])} elements) share only: "
        + ", ".join(payload["common"])
        + f"\ndisjoint away from the identity: {verdict}"
    )
    md = _md(
        f"Stabilizer overlap of {names[0]} and {names[1]}",
        _bullets(
            f"sizes: {len(sets[0])} and {len(sets[1])}",
            f"common elements: {', '.join(payload['common'])}",
            f"disjoint away from the identity: {verdict}",
        ),
    )
    return payload, text, md


def _cmd_fixed_points(model, args, group_name, group, structures):
    ((sname, system),) = structures
    genus = curve_genus(system)
    counts = fixed_point_table(system)
    order, published = _column_layout(group)
    classes = group.conjugacy_classes()
    rows = [
        {
            "representative": classes[c].representative.word(),
            "fixed_points": WHOLE_CURVE if counts[c] is None else counts[c],
        }
        for c in order
    ]
    payload = {
        "group": group_name,
        "structure": sname,
        "genus": genus,
        "order": _order_note(published),
        "classes": rows,
    }
    lines = [
        f"fixed points on the genus {genus} curve of {sname} "
        f"({_order_note(published)})"
    ]
    width = max(len(r["representative"]) for r in rows)
    for r in rows:
        lines.append(f"  {r['representative'].ljust(width)}  {r['fixed_points']}")
    md = _md(
        f"Fixed points on the curve of {sname}",
        f"Genus {genus}; classes in {_order_note(published)}.",
        _md_table(
            ["class representative", "fixed points"],
            [[r["representative"], r["fixed_points"]] for r in rows],
        ),
    )
    return payload, "\n".join(lines), md


def _cmd_canonical(model, args, group_name, group, structures):
    ((sname, system),) = structures
    table = compute_character_table(group)
    canonical = canonical_character(system, table)
    row_perm, col_perm, published = _table_layout(table)
    labels = _row_labels(row_perm)
    mults = decompose(canonical, table)
    terms = []
    for r in row_perm:
        m = mults[r]
        if m == 1:
            terms.append(labels[r])
        elif m != 0:
            terms.append(f"{m}*{labels[r]}")
    payload = {
        "group": group_name,
        "structure": sname,
        "genus": curve_genus(system),
        "order": _order_note(published),
        "values": [canonical.values[c] for c in col_perm],
        "decomposition": {
            labels[r]: mults[r] for r in row_perm if mults[r] != 0
        },
    }
    values = [str(canonical.values[c]) for c in col_perm]
    decomposition = " + ".join(terms) or "0"  # the empty sum of a genus-0 curve
    text = (
        f"canonical character of the genus {payload['genus']} curve of {sname} "
        f"({_order_note(published)}):\n"
        + "  ".join(values)
        + "\ndecomposition: "
        + decomposition
    )
    md = _md(
        f"Canonical character of the curve of {sname}",
        _bullets(
            f"genus: {payload['genus']}",
            f"values ({_order_note(published)}): " + ", ".join(values),
            "decomposition: " + decomposition,
        ),
    )
    return payload, text, md


def _cmd_quotient_genus(model, args, group_name, group, structures):
    ((sname, system),) = structures
    sub, label = _resolve_subgroup(model, group_name, group, args.subgroup)
    genus = quotient_genus(system, sub)
    payload = {
        "group": group_name,
        "structure": sname,
        "subgroup": label,
        "subgroup_order": sub.order,
        "genus": genus,
    }
    text = (
        f"quotient of the {sname} curve by {label} "
        f"(order {sub.order}): genus {genus}"
    )
    md = _md(
        "Quotient genus",
        _bullets(
            f"structure: {sname}",
            f"subgroup: {label} (order {sub.order})",
            f"genus: {genus}",
        ),
    )
    return payload, text, md


def _cmd_fiber_orbits(model, args, group_name, group, structures):
    ((sname, system),) = structures
    sub, label = _resolve_subgroup(model, group_name, group, args.subgroup)
    try:
        fiber = fiber_orbit_structure(system, args.branch, sub)
    except (IndexError, ValueError) as exc:
        raise CliError(f"--branch {args.branch}: {exc}")
    entry = system.entries[args.branch - 1]
    shape: dict[tuple[int, int], int] = {}
    for orbit in fiber.orbits:
        shape[orbit] = shape.get(orbit, 0) + 1
    payload = {
        "group": group_name,
        "structure": sname,
        "branch": args.branch,
        "entry": entry.word(),
        "entry_order": entry.order(),
        "subgroup": label,
        "subgroup_order": sub.order,
        "fiber_size": fiber.fiber_size,
        "orbits": [
            {"size": size, "stabilizer_order": stab} for size, stab in fiber.orbits
        ],
        "acts_freely": fiber.acts_freely,
    }
    shape_text = ", ".join(
        f"{count} x (size {size}, stabilizer order {stab})"
        for (size, stab), count in sorted(shape.items())
    )
    text = (
        f"fiber over branch point {args.branch} of {sname} "
        f"(entry {payload['entry']}, order {payload['entry_order']}): "
        f"{fiber.fiber_size} points\n"
        f"orbits under {label} (order {sub.order}): {shape_text}\n"
        f"acts freely: {_yes_no(fiber.acts_freely)}"
    )
    md = _md(
        f"Fiber orbits at branch point {args.branch} of {sname}",
        _bullets(
            f"branch entry: {payload['entry']} (order {payload['entry_order']})",
            f"fiber size: {fiber.fiber_size}",
            f"subgroup: {label} (order {sub.order})",
            f"orbits: {shape_text}",
            f"acts freely: {_yes_no(fiber.acts_freely)}",
        ),
    )
    return payload, text, md


def _cmd_search(model, args, group_name, group, structures):
    from .search import search_all_pairs

    names, systems = map(list, zip(*structures))
    table = compute_character_table(group)
    report = search_all_pairs(table, *(canonical_character(s, table) for s in systems))
    row_perm, _, _ = _table_layout(table)
    labels = _row_labels(row_perm)
    position = {r: i for i, r in enumerate(row_perm)}

    def ordered(indices):
        return [labels[r] for r in sorted(indices, key=position.__getitem__)]

    pairs = []
    for pair in sorted(
        report.pairs, key=lambda p: (position[p.a_index], position[p.b_index])
    ):
        pairs.append(
            {
                "a": labels[pair.a_index],
                "b": labels[pair.b_index],
                "admissible": ordered(pair.admissible),
                "euler_flat": pair.euler_flat,
            }
        )
    flat = [(p["a"], p["b"]) for p in pairs if p["euler_flat"]]
    payload = {
        "group": group_name,
        "structures": names,
        "pair_count": len(pairs),
        "all_pairs_admit_twist": report.theorem_holds,
        "trivial_twist_admissible_somewhere": report.trivial_admissible_anywhere,
        "euler_flat_pairs": [list(p) for p in flat],
        "pairs": pairs,
    }
    summary = [
        f"every pair admits an admissible twist: {_yes_no(report.theorem_holds)}",
        "trivial twist admissible somewhere: "
        + _yes_no(report.trivial_admissible_anywhere),
        "euler-flat pairs: "
        + (", ".join(f"({a}, {b})" for a, b in flat) if flat else "none"),
    ]
    lines = [
        f"twist search on {group_name} with {names[0]} and {names[1]}: "
        f"{len(pairs)} pairs of degree-2 twists",
        *summary,
    ]
    for p in pairs:
        lines.append(
            f"  A={p['a']} B={p['b']}: admissible " + ", ".join(p["admissible"])
        )
    md = _md(
        f"Twist search on {group_name}",
        _bullets(f"structures: {names[0]} and {names[1]}", *summary),
        _md_table(
            ["A", "B", "admissible twists", "euler flat"],
            [
                [p["a"], p["b"], ", ".join(p["admissible"]), _yes_no(p["euler_flat"])]
                for p in pairs
            ],
        ),
    )
    return payload, "\n".join(lines), md


# -- entry point --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--input",
        metavar="FILE",
        default=None,
        help="model file to load (default: the packaged one)",
    )
    shared.add_argument(
        "--format",
        choices=("text", "json", "md"),
        default="text",
        help="output format (default: text)",
    )
    shared.add_argument(
        "group",
        nargs="?",
        default=None,
        help="group name (optional when the model declares exactly one)",
    )

    parser = argparse.ArgumentParser(
        prog="qslab",
        description="Exact group, character, and ramification computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, structures=0, subgroup=False, **structure_kw):
        """A subcommand taking ``structures`` --structure flags and maybe --subgroup."""
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.set_defaults(func=func, structure_count=structures, structure=None)
        if structures:
            structure_kw = structure_kw or {"required": True}
            p.add_argument("--structure", action="append", **structure_kw)
        if subgroup:
            p.add_argument(
                "--subgroup", required=True, help="declared name or generator list"
            )
        return p

    add("info", _cmd_info, "summarize a group and its declared data")
    add("classes", _cmd_classes, "list conjugacy classes")
    add("chartable", _cmd_chartable, "print the character table")
    add("sigma", _cmd_sigma, "elements with fixed points on a curve", 1)
    add("disjoint", _cmd_disjoint, "compare two stabilizer sets", 2)
    add("fixed-points", _cmd_fixed_points, "fixed point counts per class", 1)
    add("canonical", _cmd_canonical, "canonical character of a curve", 1)
    add("quotient-genus", _cmd_quotient_genus, "genus of a quotient curve", 1, subgroup=True)
    p = add(
        "fiber-orbits", _cmd_fiber_orbits, "subgroup orbits on a branch fiber", 1, subgroup=True
    )
    p.add_argument("--branch", type=int, required=True, help="branch point, 1-based")
    add("search", _cmd_search, "run the admissible twist search", 2,
        help="structure pair (default: the model's two declared structures)")
    p = add("verify-paper", None, "re-derive and certify every published reference value")
    p.add_argument(
        "--reference",
        metavar="FILE",
        default=None,
        help="published fixture (class list, sizes, center, degrees and table "
        "values) to certify against (default: packaged)",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        model = _load_model(args.input)
        group_name, group = _resolve_group(model, args.group)
        if args.command == "verify-paper":
            from .verify import render_report, verify_paper

            report = verify_paper(spec=group.spec, reference_path=args.reference)
            sys.stdout.write(render_report(report, args.format))
            return 0 if report.passed else 1
        structures = _resolve_structures(model, group_name, group, args)
        payload, text, md = args.func(model, args, group_name, group, structures)
    except (CliError, RuntimeError) as exc:
        print(f"qslab: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif args.format == "md":
        print(md)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
