"""Command line front end.

``main`` loads a model file (by default the packaged model that
``qslab.builtin`` parsed at import) and resolves the group and the
subcommand's declared number of structures once.  Each subcommand,
``verify-paper`` included, resolves any subgroup, computes what it needs
and returns its payload only: the dict that ``--format json`` prints.
``main`` then makes one render call; text and Markdown are rendered from
that payload alone (``qslab._render``).  All numeric output is exact:
every value (character values included) is an integer, never a float.

Each command loads only the modules it runs: ``qslab.verify`` (which
imports ``qslab.search``) is loaded for ``verify-paper`` alone,
``qslab.search`` for ``search``, and ``qslab.characters`` only by the
commands that show a table or the published order (``_layout``), so
``info``, ``sigma``, ``disjoint``, ``quotient-genus`` and ``fiber-orbits``
load neither it nor, in text format, ``json``.

Exit codes: 0 on success, 1 when a payload says it has not ``passed``
(a ``verify-paper`` mismatch), 2 for usage errors and unparseable or
unresolvable input.
"""

from __future__ import annotations

import argparse
import sys

from ._render import render
from .alg import ParseError, SessionModel, parse_model, parse_word_list_fragment
from .builtin import G32_27_SPEC, MODEL
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


def __getattr__(name):
    # qslab.cli.compute_character_table (read by perfbench's tracer test) is
    # looked up on access (PEP 562), so importing this module does not load
    # qslab.characters.
    if name != "compute_character_table":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .characters import compute_character_table

    return compute_character_table


class CliError(Exception):
    """Usage or resolution failure; rendered to stderr with exit code 2."""


# -- model and group resolution -----------------------------------------


def _load_model(path: str | None) -> SessionModel:
    if path is None:
        return MODEL
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")
    try:
        return parse_model(text)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}")


def _resolve_group(model: SessionModel, name: str | None) -> tuple[str, FiniteGroup]:
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
            words = parse_word_list_fragment(text, group.spec)
        except ParseError as exc:
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


def _layout(group: FiniteGroup, table: CharacterTable | None = None):
    """(row order, class order, order note) for display: the published order
    when this is the bundled group, else the canonical one.  Rows are
    aligned only when ``table`` is given."""
    if group.spec == G32_27_SPEC:
        from .characters import (
            AlignmentError, align_to_reference, load_reference_table, reference_column_map
        )

        try:
            ref = load_reference_table()
            if table is None:
                return (), reference_column_map(group, ref), "published order"
            return (*align_to_reference(table, ref), "published order")
        except AlignmentError:
            pass
    identity = tuple(range(len(group._partition)))  # one row per class
    return identity, identity, "canonical order"


def _row_labels(row_perm: tuple[int, ...]) -> dict[int, str]:
    """Map canonical row index to its display label (chi1, chi2, ...)."""
    return {canonical: f"chi{i + 1}" for i, canonical in enumerate(row_perm)}


# -- subcommands: each returns its payload, which _render renders ----------


def _cmd_info(model, args, group_name, group, structures):
    classes = group.conjugacy_classes()
    center = group.center()
    whole = group.subgroup_closure(group.basis_generators())
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
        "minimal_generator_count": len(group.minimal_generators(whole)),
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
    return payload


def _cmd_classes(model, args, group_name, group, structures):
    classes = group.conjugacy_classes()
    _, order, note = _layout(group)
    rows = [
        {
            "index": display,
            "representative": cls.representative.word(),
            "size": cls.size,
            "element_order": cls.representative.order(),
            "members": [g.word() for g in cls.elements],
        }
        for display, cls in enumerate((classes[c] for c in order), start=1)
    ]
    return {"group": group_name, "order": note, "classes": rows}


def _cmd_chartable(model, args, group_name, group, structures):
    from .characters import compute_character_table

    table = compute_character_table(group)
    row_perm, col_perm, note = _layout(group, table)
    classes = group.conjugacy_classes()
    return {
        "group": group_name,
        "order": note,
        "classes": [
            {"representative": classes[c].representative.word(), "size": classes[c].size}
            for c in col_perm
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


def _cmd_sigma(model, args, group_name, group, structures):
    ((sname, system),) = structures
    members = sorted(stabilizer_set(system), key=group.index)
    return {
        "group": group_name,
        "structure": sname,
        "size": len(members),
        "elements": [g.word() for g in members],
    }


def _cmd_disjoint(model, args, group_name, group, structures):
    names, systems = map(list, zip(*structures))
    sets = [stabilizer_set(s) for s in systems]
    common = sorted(sets[0] & sets[1], key=group.index)
    return {
        "group": group_name,
        "structures": names,
        "sizes": [len(s) for s in sets],
        "common": [g.word() for g in common],
        "disjoint": is_disjoint(*systems),
    }


def _cmd_fixed_points(model, args, group_name, group, structures):
    ((sname, system),) = structures
    counts = fixed_point_table(system)
    _, order, note = _layout(group)
    classes = group.conjugacy_classes()
    return {
        "group": group_name,
        "structure": sname,
        "genus": curve_genus(system),
        "order": note,
        "classes": [
            {
                "representative": classes[c].representative.word(),
                "fixed_points": WHOLE_CURVE if counts[c] is None else counts[c],
            }
            for c in order
        ],
    }


def _cmd_canonical(model, args, group_name, group, structures):
    from .characters import compute_character_table, decompose

    ((sname, system),) = structures
    table = compute_character_table(group)
    canonical = canonical_character(system)
    row_perm, col_perm, note = _layout(group, table)
    labels = _row_labels(row_perm)
    mults = decompose(canonical, table)
    return {
        "group": group_name,
        "structure": sname,
        "genus": curve_genus(system),
        "order": note,
        "values": [canonical.values[c] for c in col_perm],
        "decomposition": {
            labels[r]: mults[r] for r in row_perm if mults[r] != 0
        },
    }


def _cmd_quotient_genus(model, args, group_name, group, structures):
    ((sname, system),) = structures
    sub, label = _resolve_subgroup(model, group_name, group, args.subgroup)
    return {
        "group": group_name,
        "structure": sname,
        "subgroup": label,
        "subgroup_order": sub.order,
        "genus": quotient_genus(system, sub),
    }


def _cmd_fiber_orbits(model, args, group_name, group, structures):
    ((sname, system),) = structures
    sub, label = _resolve_subgroup(model, group_name, group, args.subgroup)
    try:
        fiber = fiber_orbit_structure(system, args.branch, sub)
    except (IndexError, ValueError) as exc:
        raise CliError(f"--branch {args.branch}: {exc}")
    entry = system.entries[args.branch - 1]
    return {
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


def _cmd_search(model, args, group_name, group, structures):
    from .characters import compute_character_table
    from .search import search_all_pairs

    names, systems = map(list, zip(*structures))
    table = compute_character_table(group)
    report = search_all_pairs(table, *map(canonical_character, systems))
    row_perm, _, _ = _layout(group, table)
    labels = _row_labels(row_perm)
    position = {r: i for i, r in enumerate(row_perm)}
    pairs = [
        {
            "a": labels[pair.a_index],
            "b": labels[pair.b_index],
            "admissible": [labels[r] for r in sorted(pair.admissible, key=position.get)],
            "euler_flat": pair.euler_flat,
        }
        for pair in sorted(
            report.pairs, key=lambda p: (position[p.a_index], position[p.b_index])
        )
    ]
    return {
        "group": group_name,
        "structures": names,
        "pair_count": len(pairs),
        "all_pairs_admit_twist": report.theorem_holds,
        "trivial_twist_admissible_somewhere": report.trivial_admissible_anywhere,
        "euler_flat_pairs": [[p["a"], p["b"]] for p in pairs if p["euler_flat"]],
        "pairs": pairs,
    }


def _cmd_verify_paper(model, args, group_name, group, structures):
    from .verify import verify_paper

    return verify_paper(spec=group.spec, reference_path=args.reference).to_dict()


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
    p = add(
        "verify-paper", _cmd_verify_paper, "re-derive and certify every published reference value"
    )
    p.add_argument(
        "--reference",
        metavar="FILE",
        default=None,
        help="published record (class list, table and every other published "
        "value) to certify against (default: packaged)",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        model = _load_model(args.input)
        group_name, group = _resolve_group(model, args.group)
        structures = _resolve_structures(model, group_name, group, args)
        payload = args.func(model, args, group_name, group, structures)
    except (CliError, RuntimeError) as exc:
        print(f"qslab: error: {exc}", file=sys.stderr)
        return 2
    print(render(args.command, payload, args.format))
    return 0 if payload.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
