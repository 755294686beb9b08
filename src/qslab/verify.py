"""Certification battery for the bundled order-32 model.

Every published value the toolkit is built to reproduce is re-derived
from first principles here and compared against the stored reference
data.  Each comparison becomes one report check carrying the published
anchor it certifies; rendering is deterministic so identical inputs give
identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from typing import Callable

from . import builtin
from .characters import (
    _match_rows,
    _split_word,
    compute_character_table,
    decompose,
    load_reference_table,
    reference_column_map,
)
from .groups import GroupSpec, build_group
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

# Published reference data for the bundled group that the character-table
# fixture does not hold; class lists and table values are read from it.

EXPECTED_NORMAL_SUBGROUPS = (
    ("g1", "g2", "g3", "g4", "g5"),
    ("g1", "g3", "g4", "g5"),
    ("g1", "g2*g3", "g4", "g5"),
    ("g1", "g2", "g4", "g5"),
    ("g2", "g3", "g4", "g5"),
    ("g1*g2*g4", "g3", "g4", "g5"),
    ("g1*g3*g5", "g2", "g4", "g5"),
    ("g1*g2*g4", "g2*g3*g4*g5", "g4", "g5"),
    ("g3", "g4", "g5"),
    ("g1*g3*g5", "g4", "g5"),
    ("g2*g3", "g4", "g5"),
    ("g1*g2*g3*g4*g5", "g4", "g5"),
    ("g2", "g4", "g5"),
    ("g1*g2*g4", "g4", "g5"),
    ("g1", "g4", "g5"),
    ("g2", "g4"),
    ("g2*g5", "g4"),
    ("g4", "g5"),
    ("g3", "g5"),
    ("g3*g4", "g5"),
    ("g2*g3", "g4*g5"),
    ("g2*g3*g4", "g4*g5"),
    ("g5",),
    ("g4*g5",),
    ("g4",),
    (),
)

EXPECTED_T1_TYPE = (2, 2, 2, 4)
EXPECTED_T2_TYPE = (2, 2, 4, 4)

EXPECTED_T1_FIXED = (WHOLE_CURVE, 8, 0, 0, 0, 0, 8, 0, 8, 0, 4, 0, 0, 4)
EXPECTED_T2_FIXED = (WHOLE_CURVE, 0, 8, 8, 8, 8, 0, 0, 0, 0, 0, 4, 4, 0)

EXPECTED_GENUS_FIRST = 5
EXPECTED_GENUS_SECOND = 9

EXPECTED_CANONICAL_FIRST = (5, -3, 1, 1, 1, 1, -3, 1, -3, 1, -1, 1, 1, -1)
EXPECTED_CANONICAL_SECOND = (9, 1, -3, -3, -3, -3, 1, 1, 1, 1, 1, -1, -1, 1)

EXPECTED_DECOMPOSITION_FIRST = (7, 9, 11)
EXPECTED_DECOMPOSITION_SECOND = (4, 10, 12, 13, 14)

EXPECTED_ELLIPTIC_DEGREE = 8

# (structure, subgroup label, generator words, expected quotient genus)
EXPECTED_QUOTIENT_GENERA = (
    ("T1", "<g5>", (("g5",),), 1),
    ("T1", "H", builtin.SUBGROUP_WORDS["H"], 0),
    ("T2", "H1", builtin.SUBGROUP_WORDS["H1"], 0),
    ("T2", "H2", builtin.SUBGROUP_WORDS["H2"], 0),
    ("T2", "H4", builtin.SUBGROUP_WORDS["H4"], 1),
)

# (structure, branch index, subgroup, expected (orbit size, stab order) list)
EXPECTED_FIBER_ORBITS = (
    ("T1", 4, "H", ((4, 1), (4, 1))),
    ("T2", 1, "H1", ((8, 1), (8, 1))),
    ("T2", 2, "H1", ((8, 1), (8, 1))),
    ("T2", 3, "H1", ((4, 2), (4, 2))),
    ("T2", 4, "H1", ((2, 4), (2, 4), (2, 4), (2, 4))),
)


@dataclass(frozen=True)
class VerificationCheck:
    """One comparison; ``expected`` and ``computed`` hold their JSON form."""

    name: str
    anchor: str
    expected: object
    computed: object
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[VerificationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "anchor": c.anchor,
                    "expected": c.expected,
                    "computed": c.computed,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


class _Battery:
    def __init__(self):
        self.checks: list[VerificationCheck] = []

    def run(self, name: str, anchor: str, expected, compute: Callable[[], object]):
        # a callable ``expected`` reads published data that may fail to load
        expected_failed = False
        try:
            expected_value = json.loads(
                json.dumps(expected() if callable(expected) else expected)
            )
        except Exception as exc:
            expected_value = f"error: {exc}"
            expected_failed = True
        try:
            computed = json.loads(json.dumps(compute()))
        except Exception as exc:  # a failed build keeps later checks running
            computed = f"error: {exc}"
        passed = not expected_failed and expected_value == computed
        self.checks.append(VerificationCheck(name, anchor, expected_value, computed, passed))


def verify_paper(
    spec: GroupSpec | None = None, reference_path=None
) -> VerificationReport:
    """Re-derive everything and compare against the published reference data.

    ``spec`` and ``reference_path`` default to the bundled group and the
    packaged character-table fixture; both can be overridden to probe how
    the battery reports a corrupted input.  The fixture is the one copy of
    the class count, sizes, members, center (its size-1 classes), degrees
    (its identity column) and table values; the ``EXPECTED_*`` constants
    hold the rest.  Every published word is read inside its check, so a
    group without the names g1..g5 gets a failing report, not an error.
    """
    battery = _Battery()
    run = battery.run
    group = build_group(spec if spec is not None else builtin.G32_27_SPEC)

    def word(names):
        return group.evaluate_word(names)

    def parse(w):
        return word(_split_word(w))

    def sorted_words(indices):
        return sorted(group._words[x] for x in indices)

    def conjugate_by_g1(name):
        g1 = word(("g1",))
        return (g1.inverse() * word((name,)) * g1).word()

    table = cache(lambda: compute_character_table(group))
    ref = cache(lambda: load_reference_table(reference_path))
    col_perm = cache(lambda: reference_column_map(group, ref()))
    row_perm = cache(lambda: _match_rows(table(), ref(), col_perm()))
    run(
        "relation-g2-conjugate",
        "published presentation",
        "g2*g4",
        lambda: conjugate_by_g1("g2"),
    )
    run(
        "relation-g3-conjugate",
        "published presentation",
        "g3*g5",
        lambda: conjugate_by_g1("g3"),
    )
    run("group-order", "published presentation", 32, lambda: group.order)
    run(
        "class-count",
        "published conjugacy class list",
        lambda: len(ref().class_members),
        lambda: len(group._partition),
    )
    run(
        "class-sizes",
        "published conjugacy class list",
        lambda: ref().class_sizes,
        lambda: tuple(map(len, group._partition)),
    )
    run(
        "class-membership",
        "published conjugacy class list",
        lambda: sorted(
            sorted(parse(w).word() for w in members) for members in ref().class_members
        ),
        lambda: sorted(map(sorted_words, group._partition)),
    )
    run(
        "center",
        "published conjugacy class list",
        lambda: sorted(
            parse(w).word()
            for members, size in zip(ref().class_members, ref().class_sizes)
            if size == 1
            for w in members
        ),
        lambda: sorted_words(group.center().indices),
    )

    normals = cache(group.enumerate_normal_subgroups)
    run(
        "normal-subgroup-count",
        "published normal subgroup list",
        len(EXPECTED_NORMAL_SUBGROUPS),
        lambda: len(normals()),
    )
    run(
        "normal-subgroup-list",
        "published normal subgroup list",
        lambda: sorted(
            sorted_words(group.subgroup_closure(parse(w) for w in gens).indices)
            for gens in EXPECTED_NORMAL_SUBGROUPS
        ),
        lambda: sorted(sorted_words(sub.indices) for sub in normals()),
    )
    run(
        "character-degrees",
        "published character table",
        lambda: sorted(row[ref().class_reps.index("1")] for row in ref().matrix),
        lambda: sorted(table().degrees),
    )
    run(
        "character-orthogonality",
        "published character table",
        True,
        lambda: table().verify_orthogonality(),
    )

    def aligned_matrix():
        rows, cols = row_perm(), col_perm()
        return [
            [table().rows[rows[i]].values[cols[j]] for j in range(len(cols))]
            for i in range(len(rows))
        ]

    run(
        "character-table-reference",
        "published character table",
        lambda: ref().matrix,
        aligned_matrix,
    )

    t1 = cache(lambda: validate_spherical(group, [word(w) for w in builtin.T1_WORDS]))
    t2 = cache(lambda: validate_spherical(group, [word(w) for w in builtin.T2_WORDS]))
    run("structure-type-t1", "published generating systems", EXPECTED_T1_TYPE, lambda: t1().signature)
    run("structure-type-t2", "published generating systems", EXPECTED_T2_TYPE, lambda: t2().signature)
    run(
        "stabilizer-sets-disjoint",
        "published freeness argument",
        True,
        lambda: is_disjoint(t1(), t2()),
    )
    run(
        "fixed-point-products-vanish",
        "published freeness argument",
        True,
        lambda: all(
            fixed_point_count(t1(), g) * fixed_point_count(t2(), g) == 0
            for g in group.elements
            if not g.is_identity()
        ),
    )

    def fixed_row(system):
        def compute():
            counts = fixed_point_table(system())
            return tuple(
                WHOLE_CURVE if counts[c] is None else counts[c] for c in col_perm()
            )

        return compute

    run(
        "fixed-points-t1",
        "published fixed point table (first curve)",
        EXPECTED_T1_FIXED,
        fixed_row(t1),
    )
    run(
        "fixed-points-t2",
        "published fixed point table (second curve)",
        EXPECTED_T2_FIXED,
        fixed_row(t2),
    )
    run(
        "fixed-point-routes-agree",
        "published fixed point tables",
        True,
        lambda: all(
            fixed_point_count(system, g) == fixed_point_count_by_membership(system, g)
            for system in (t1(), t2())
            for g in group.elements
            if not g.is_identity()
        ),
    )
    run("genus-first-curve", "published curve invariants", EXPECTED_GENUS_FIRST, lambda: curve_genus(t1()))
    run("genus-second-curve", "published curve invariants", EXPECTED_GENUS_SECOND, lambda: curve_genus(t2()))

    kc = cache(lambda: canonical_character(t1(), table()))
    kd = cache(lambda: canonical_character(t2(), table()))
    run(
        "canonical-character-first",
        "published canonical character (first curve)",
        EXPECTED_CANONICAL_FIRST,
        lambda: tuple(kc().values[c] for c in col_perm()),
    )
    run(
        "canonical-character-second",
        "published canonical character (second curve)",
        EXPECTED_CANONICAL_SECOND,
        lambda: tuple(kd().values[c] for c in col_perm()),
    )

    def decomposition_rows(canonical):
        def compute():
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

        return compute

    run(
        "canonical-decomposition-first",
        "published canonical character (first curve)",
        EXPECTED_DECOMPOSITION_FIRST,
        decomposition_rows(kc),
    )
    run(
        "canonical-decomposition-second",
        "published canonical character (second curve)",
        EXPECTED_DECOMPOSITION_SECOND,
        decomposition_rows(kd),
    )
    run(
        "elliptic-quotient-degree",
        "published elliptic quotient",
        EXPECTED_ELLIPTIC_DEGREE,
        lambda: fixed_point_count(t1(), word(("g5",))),
    )

    systems = {"T1": t1, "T2": t2}

    def quotient_row(system_name, gens):
        def compute():
            sub = group.subgroup_closure(word(w) for w in gens)
            return quotient_genus(systems[system_name](), sub)

        return compute

    for system_name, label, gens, expected in EXPECTED_QUOTIENT_GENERA:
        run(
            f"quotient-genus-{system_name.lower()}-{label.strip('<>').replace('*', '')}",
            "published quotient genera",
            expected,
            quotient_row(system_name, gens),
        )

    subgroups = cache(group.enumerate_subgroups)
    run(
        "quotient-genus-bridge",
        "published quotient genera",
        True,
        lambda: all(
            quotient_genus(system, sub)
            == quotient_genus_by_character(system, sub, table())
            for system in (t1(), t2())
            for sub in subgroups()
        ),
    )

    def fiber_row(system_name, branch, sub_name):
        def compute():
            sub = builtin.named_subgroup(group, sub_name)
            return fiber_orbit_structure(systems[system_name](), branch, sub).orbits

        return compute

    for system_name, branch, sub_name, expected in EXPECTED_FIBER_ORBITS:
        run(
            f"fiber-orbits-{system_name.lower()}-branch{branch}-{sub_name.lower()}",
            "published fiber orbit shapes",
            expected,
            fiber_row(system_name, branch, sub_name),
        )

    report = cache(lambda: search_all_pairs(table(), kc(), kd()))
    run("twist-pair-count", "published twist search", 36, lambda: len(report().pairs))
    run(
        "twist-search-nonempty",
        "published twist search",
        True,
        lambda: report().theorem_holds,
    )
    run(
        "twist-trivial-never-admissible",
        "published twist search",
        False,
        lambda: report().trivial_admissible_anywhere,
    )
    run(
        "twist-euler-additivity",
        "published twist search",
        True,
        lambda: all(
            dims[0] - dims[1] + dims[2] == euler
            for pair in report().pairs
            for (_, dims), (_, euler) in zip(pair.dims, pair.eulers)
        ),
    )

    return VerificationReport(checks=tuple(battery.checks))


# -- rendering ----------------------------------------------------------


def render_report(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if fmt in ("markdown", "md"):
        return _render_markdown(report)
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _render_text(report: VerificationReport) -> str:
    lines = []
    passed = sum(1 for c in report.checks if c.passed)
    lines.append(
        f"verification {'PASS' if report.passed else 'FAIL'}: "
        f"{passed}/{len(report.checks)} checks passed"
    )
    for c in report.checks:
        lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name} ({c.anchor})")
        if not c.passed:
            lines.append(f"  expected: {_compact(c.expected)}")
            lines.append(f"  computed: {_compact(c.computed)}")
    return "\n".join(lines) + "\n"


def _render_markdown(report: VerificationReport) -> str:
    lines = [
        f"# Verification report: {'PASS' if report.passed else 'FAIL'}",
        "",
        "| check | anchor | expected | computed | status |",
        "| --- | --- | --- | --- | --- |",
    ]
    for c in report.checks:
        lines.append(
            f"| {c.name} | {c.anchor} | `{_compact(c.expected)}` "
            f"| `{_compact(c.computed)}` | {'PASS' if c.passed else 'FAIL'} |"
        )
    return "\n".join(lines) + "\n"


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
