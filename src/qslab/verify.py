"""Certification battery for the bundled order-32 model.

Every published value the toolkit is built to reproduce is re-derived
from first principles here and compared against the published record,
``data/g32_27_published.json``, the one copy of those values.  This module
holds only how each value is computed.  Each comparison becomes one report
check carrying the published anchor it certifies.  ``render_report``
renders ``report.to_dict()`` through the renderer every ``qslab`` command
uses, so identical inputs give identical reports in every format.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from functools import cache, partial

from ._render import render
from .builtin import G32_27_SPEC, SUBGROUP_WORDS, T1_WORDS, T2_WORDS, named_subgroup
from .characters import (
    _check_keys,
    _match_rows,
    _split_word,
    compute_character_table,
    decompose,
    load_reference_table,
    reference_column_map,
)
from .groups import GroupSpec, _Frozen, build_group
from .ramification import (
    WHOLE_CURVE,
    canonical_character,
    curve_genus,
    fixed_point_count,
    fixed_point_count_by_membership,
    fixed_point_table,
    is_disjoint,
    quotient_genus,
    quotient_genus_by_character,
    fiber_orbit_structure,
    validate_spherical,
)
from .search import search_all_pairs

SCHEMA_VERSION = "qslab-report/1"

# Check parameters; every value the checks compare against is read from the
# published record (``data/g32_27_published.json`` by default).

# (structure, subgroup label, generator words) of each published quotient genus
QUOTIENT_GENUS_SUBGROUPS = (
    ("T1", "<g5>", (("g5",),)),
    ("T1", "H", SUBGROUP_WORDS["H"]),
    ("T2", "H1", SUBGROUP_WORDS["H1"]),
    ("T2", "H2", SUBGROUP_WORDS["H2"]),
    ("T2", "H4", SUBGROUP_WORDS["H4"]),
)

# (structure, branch index, subgroup) of each published fiber orbit shape
FIBER_ORBIT_BRANCHES = (
    ("T1", 4, "H"),
    ("T2", 1, "H1"),
    ("T2", 2, "H1"),
    ("T2", 3, "H1"),
    ("T2", 4, "H1"),
)

# Checks whose expected value is worked out from the record's class list and
# table, or (the count) from its normal subgroup list; ``published`` holds a
# value for every other check, under the check's name.
DERIVED_CHECKS = frozenset({
    "class-count", "class-sizes", "class-membership", "center",
    "normal-subgroup-count", "character-degrees", "character-table-reference",
})


class VerificationCheck(_Frozen):
    """One comparison; ``expected`` and ``computed`` hold their JSON form."""

    _fields = ("name", "anchor", "expected", "computed", "passed")

    def __init__(self, name: str, anchor: str, expected: object, computed: object, passed: bool):
        self.__dict__.update(
            name=name, anchor=anchor, expected=expected, computed=computed, passed=passed
        )


class VerificationReport(_Frozen):
    _fields = ("checks",)

    def __init__(self, checks: tuple[VerificationCheck, ...]):
        self.__dict__.update(checks=checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "passed": self.passed,
            "checks": [dict(vars(c)) for c in self.checks],
        }


def render_report(report: VerificationReport, fmt: str) -> str:
    """The report as ``verify-paper --format`` prints it: ``fmt`` is text,
    json, or markdown (also md), rendered from ``report.to_dict()`` alone."""
    return render("verify-paper", report.to_dict(), "md" if fmt == "markdown" else fmt) + "\n"


def _run_checks(pending, expected: dict | str) -> VerificationReport:
    """Run each (name, anchor, compute) and compare with ``expected[name]``.

    A string ``expected`` is the error that kept the expected values from
    being read; every check then fails and shows it.
    """
    failed = isinstance(expected, str)
    checks = []
    for name, anchor, compute in pending:
        try:
            computed = json.loads(json.dumps(compute()))
        except Exception as exc:  # a failed build keeps later checks running
            computed = f"error: {exc}"
        value = expected if failed else expected[name]
        passed = not failed and _same(value, computed)
        checks.append(VerificationCheck(name, anchor, value, computed, passed))
    return VerificationReport(checks=tuple(checks))


def _same(a, b) -> bool:
    """JSON equality that also tells true from 1 and 1.0 from 1."""
    if type(a) is list:
        return type(b) is list and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def verify_paper(
    spec: GroupSpec | None = None, reference_path=None
) -> VerificationReport:
    """Re-derive everything and compare against the published record.

    ``spec`` and ``reference_path`` default to the bundled group and the
    packaged record; both can be overridden to probe how the battery
    reports a corrupted input.  The record is the one copy of every
    published value: its class list and table, and under ``published`` a
    value for each check that is not derived from them.  It is read once;
    when it cannot be read, or its ``published`` keys differ from the
    battery's, every check fails with that error.  Every published word is
    read in the group, so a group without the names g1..g5 gets a failing
    report, not an error.
    """
    pending: list[tuple[str, str, Callable[[], object]]] = []

    def run(name: str, anchor: str, compute: Callable[[], object]):
        pending.append((name, anchor, compute))

    group = build_group(spec if spec is not None else G32_27_SPEC)

    word = group.evaluate_word

    def conjugate_by_g1(name):
        g1 = word(("g1",))
        return (g1.inverse() * word((name,)) * g1).word()

    def parse(w):
        return word(_split_word(w))

    def sorted_words(indices):
        return sorted(group._words[x] for x in indices)

    table = cache(lambda: compute_character_table(group))
    try:
        record, unread = load_reference_table(reference_path), None
    except Exception as exc:  # every check reports it; nothing is raised
        record, unread = None, str(exc)

    def ref():
        if record is None:
            raise ValueError(unread)
        return record

    col_perm = cache(lambda: reference_column_map(group, ref()))
    row_perm = cache(lambda: _match_rows(table(), ref(), col_perm()))
    run("relation-g2-conjugate", "published presentation", lambda: conjugate_by_g1("g2"))
    run("relation-g3-conjugate", "published presentation", lambda: conjugate_by_g1("g3"))
    run("group-order", "published presentation", lambda: group.order)
    run("class-count", "published conjugacy class list", lambda: len(group._partition))
    run(
        "class-sizes",
        "published conjugacy class list",
        lambda: tuple(map(len, group._partition)),
    )
    run(
        "class-membership",
        "published conjugacy class list",
        lambda: sorted(map(sorted_words, group._partition)),
    )
    run(
        "center",
        "published conjugacy class list",
        lambda: sorted_words(group.center().indices),
    )

    normals = cache(group.enumerate_normal_subgroups)
    run("normal-subgroup-count", "published normal subgroup list", lambda: len(normals()))
    run(
        "normal-subgroup-list",
        "published normal subgroup list",
        lambda: sorted(sorted_words(sub.indices) for sub in normals()),
    )
    run("character-degrees", "published character table", lambda: sorted(table().degrees))
    run(
        "character-orthogonality",
        "published character table",
        lambda: table().verify_orthogonality(),
    )

    def aligned_matrix():
        rows, cols = row_perm(), col_perm()
        return [
            [table().rows[rows[i]].values[cols[j]] for j in range(len(cols))]
            for i in range(len(rows))
        ]

    run("character-table-reference", "published character table", aligned_matrix)

    t1 = cache(lambda: validate_spherical(group, [word(w) for w in T1_WORDS]))
    t2 = cache(lambda: validate_spherical(group, [word(w) for w in T2_WORDS]))
    run("structure-type-t1", "published generating systems", lambda: t1().signature)
    run("structure-type-t2", "published generating systems", lambda: t2().signature)
    run(
        "stabilizer-sets-disjoint",
        "published freeness argument",
        lambda: is_disjoint(t1(), t2()),
    )
    run(
        "fixed-point-products-vanish",
        "published freeness argument",
        lambda: all(
            fixed_point_count(t1(), g) * fixed_point_count(t2(), g) == 0
            for g in group.elements
            if not g.is_identity()
        ),
    )

    def fixed_row(system):
        counts = fixed_point_table(system())
        return tuple(WHOLE_CURVE if counts[c] is None else counts[c] for c in col_perm())

    run("fixed-points-t1", "published fixed point table (first curve)", partial(fixed_row, t1))
    run("fixed-points-t2", "published fixed point table (second curve)", partial(fixed_row, t2))
    run(
        "fixed-point-routes-agree",
        "published fixed point tables",
        lambda: all(
            fixed_point_count(system, g) == fixed_point_count_by_membership(system, g)
            for system in (t1(), t2())
            for g in group.elements
            if not g.is_identity()
        ),
    )
    run("genus-first-curve", "published curve invariants", lambda: curve_genus(t1()))
    run("genus-second-curve", "published curve invariants", lambda: curve_genus(t2()))

    kc = cache(lambda: canonical_character(t1()))
    kd = cache(lambda: canonical_character(t2()))
    run(
        "canonical-character-first",
        "published canonical character (first curve)",
        lambda: tuple(kc().values[c] for c in col_perm()),
    )
    run(
        "canonical-character-second",
        "published canonical character (second curve)",
        lambda: tuple(kd().values[c] for c in col_perm()),
    )

    def decomposition_rows(canonical):
        rows = row_perm()
        mults = decompose(canonical(), table())
        out = []
        for ref_row in range(len(rows)):
            m = mults[rows[ref_row]]
            if m == 1:
                out.append(ref_row + 1)
            elif m != 0:
                out.append((ref_row + 1, m))
        return tuple(out)

    run(
        "canonical-decomposition-first",
        "published canonical character (first curve)",
        partial(decomposition_rows, kc),
    )
    run(
        "canonical-decomposition-second",
        "published canonical character (second curve)",
        partial(decomposition_rows, kd),
    )
    run(
        "elliptic-quotient-degree",
        "published elliptic quotient",
        lambda: fixed_point_count(t1(), word(("g5",))),
    )

    systems = {"T1": t1, "T2": t2}

    def quotient_row(system_name, gens):
        sub = group.subgroup_closure(word(w) for w in gens)
        return quotient_genus(systems[system_name](), sub)

    for system_name, label, gens in QUOTIENT_GENUS_SUBGROUPS:
        run(
            f"quotient-genus-{system_name.lower()}-{label.strip('<>').replace('*', '')}",
            "published quotient genera",
            partial(quotient_row, system_name, gens),
        )

    subgroups = cache(group.enumerate_subgroups)
    run(
        "quotient-genus-bridge",
        "published quotient genera",
        lambda: all(
            quotient_genus(system, sub) == quotient_genus_by_character(system, sub)
            for system in (t1(), t2())
            for sub in subgroups()
        ),
    )

    def fiber_row(system_name, branch, sub_name):
        sub = named_subgroup(group, sub_name)
        return fiber_orbit_structure(systems[system_name](), branch, sub).orbits

    for system_name, branch, sub_name in FIBER_ORBIT_BRANCHES:
        run(
            f"fiber-orbits-{system_name.lower()}-branch{branch}-{sub_name.lower()}",
            "published fiber orbit shapes",
            partial(fiber_row, system_name, branch, sub_name),
        )

    report = cache(lambda: search_all_pairs(table(), kc(), kd()))
    run("twist-pair-count", "published twist search", lambda: len(report().pairs))
    run("twist-search-nonempty", "published twist search", lambda: report().theorem_holds)
    run(
        "twist-trivial-never-admissible",
        "published twist search",
        lambda: report().trivial_admissible_anywhere,
    )
    run(
        "twist-euler-additivity",
        "published twist search",
        lambda: all(
            dims[0] - dims[1] + dims[2] == euler
            for pair in report().pairs
            for (_, dims), (_, euler) in zip(pair.dims, pair.eulers)
        ),
    )

    def expected_values():
        """The record's published values, which must be exactly those of
        the checks not derived, and the derived ones, with every word read
        in the group and shown as its element word, as computed values are."""
        r = ref()
        names = {name for name, _, _ in pending}
        _check_keys("reference record 'published'", r.published, names - DERIVED_CHECKS)
        normals = r.published["normal-subgroup-list"]
        return {
            **r.published,
            "class-count": len(r.class_members),
            "class-sizes": list(r.class_sizes),
            "class-membership": sorted(
                sorted(parse(w).word() for w in members) for members in r.class_members
            ),
            "center": sorted(
                parse(w).word()
                for members, size in zip(r.class_members, r.class_sizes)
                if size == 1
                for w in members
            ),
            "normal-subgroup-count": len(normals),
            "normal-subgroup-list": sorted(
                sorted_words(group.subgroup_closure(map(parse, gens)).indices)
                for gens in normals
            ),
            "character-degrees": sorted(row[r.class_reps.index("1")] for row in r.matrix),
            "character-table-reference": [list(row) for row in r.matrix],
        }

    try:
        expected = expected_values()
    except Exception as exc:  # every check reports it; nothing is raised
        expected = f"error: {exc}"
    return _run_checks(pending, expected)
