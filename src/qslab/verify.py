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
from typing import Callable

from . import builtin
from .characters import (
    _split_word,
    align_to_reference,
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

# Published reference data for the bundled group, in published class order.

EXPECTED_CLASSES = (
    ("1",),
    ("g5",),
    ("g4",),
    ("g4*g5",),
    ("g2*g3*g4", "g2*g3*g5"),
    ("g2", "g2*g4"),
    ("g2*g3", "g2*g3*g4*g5"),
    ("g3*g4", "g3*g4*g5"),
    ("g2*g5", "g2*g4*g5"),
    ("g3", "g3*g5"),
    ("g1", "g1*g4", "g1*g5", "g1*g4*g5"),
    ("g1*g2*g3", "g1*g2*g3*g4", "g1*g2*g3*g5", "g1*g2*g3*g4*g5"),
    ("g1*g2", "g1*g2*g4", "g1*g2*g5", "g1*g2*g4*g5"),
    ("g1*g3", "g1*g3*g4", "g1*g3*g5", "g1*g3*g4*g5"),
)

EXPECTED_CENTER = ("1", "g4", "g5", "g4*g5")

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
                    "expected": _jsonable(c.expected),
                    "computed": _jsonable(c.computed),
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, frozenset):
        return sorted(_jsonable(v) for v in value)
    return value


class _Battery:
    def __init__(self):
        self.checks: list[VerificationCheck] = []

    def run(self, name: str, anchor: str, expected, compute: Callable[[], object]):
        expected_failed = False
        try:
            expected_value = expected() if callable(expected) else expected
        except Exception as exc:
            expected_value = f"error: {exc}"
            expected_failed = True
        try:
            computed = compute()
        except Exception as exc:  # a failed build keeps later checks running
            computed = f"error: {exc}"
        passed = not expected_failed and _jsonable(expected_value) == _jsonable(computed)
        self.checks.append(
            VerificationCheck(
                name=name,
                anchor=anchor,
                expected=expected_value,
                computed=computed,
                passed=passed,
            )
        )


def _lazy(fn: Callable[[], object]) -> Callable[[], object]:
    """Memoize a prerequisite so each dependent check sees the same result.

    Errors are memoized too: a prerequisite that fails to build makes every
    check that needs it fail with the same message instead of aborting the
    battery.
    """
    memo: dict[str, object] = {}

    def get():
        if not memo:
            try:
                memo["value"] = fn()
            except Exception as exc:
                memo["error"] = exc
        if "error" in memo:
            raise memo["error"]
        return memo["value"]

    return get


def verify_paper(
    spec: GroupSpec | None = None, reference_path=None
) -> VerificationReport:
    """Re-derive everything and compare against the published reference data.

    ``spec`` and ``reference_path`` default to the bundled group and the
    packaged character-table fixture; both can be overridden to probe how
    the battery reports a corrupted input.
    """
    battery = _Battery()
    run = battery.run
    group = build_group(spec if spec is not None else builtin.G32_27_SPEC)

    def word(names):
        return group.evaluate_word(names)

    g1 = word(("g1",))
    run(
        "relation-g2-conjugate",
        "published presentation",
        "g2*g4",
        lambda: (g1.inverse() * word(("g2",)) * g1).word(),
    )
    run(
        "relation-g3-conjugate",
        "published presentation",
        "g3*g5",
        lambda: (g1.inverse() * word(("g3",)) * g1).word(),
    )
    run("group-order", "published presentation", 32, lambda: group.order)
    run(
        "class-count",
        "published conjugacy class list",
        14,
        lambda: len(group.conjugacy_classes()),
    )
    run(
        "class-sizes",
        "published conjugacy class list",
        tuple(len(c) for c in EXPECTED_CLASSES),
        lambda: tuple(c.size for c in group.conjugacy_classes()),
    )

    def class_partition():
        return sorted(
            sorted(x.word() for x in cls.elements) for cls in group.conjugacy_classes()
        )

    expected_partition = sorted(
        sorted(word(_split_word(w)).word() for w in members) for members in EXPECTED_CLASSES
    )
    run(
        "class-membership",
        "published conjugacy class list",
        expected_partition,
        class_partition,
    )
    run(
        "center",
        "published conjugacy class list",
        sorted(word(_split_word(w)).word() for w in EXPECTED_CENTER),
        lambda: sorted(g.word() for g in group.center().elements),
    )

    expected_normals = sorted(
        sorted(
            x.word()
            for x in group.subgroup_closure(word(_split_word(w)) for w in gens).elements
        )
        for gens in EXPECTED_NORMAL_SUBGROUPS
    )
    normals = _lazy(group.enumerate_normal_subgroups)
    run(
        "normal-subgroup-count",
        "published normal subgroup list",
        26,
        lambda: len(normals()),
    )
    run(
        "normal-subgroup-list",
        "published normal subgroup list",
        expected_normals,
        lambda: sorted(sorted(x.word() for x in sub.elements) for sub in normals()),
    )

    table = _lazy(lambda: compute_character_table(group))
    ref = _lazy(lambda: load_reference_table(reference_path))
    alignment = _lazy(lambda: align_to_reference(table(), ref()))
    col_perm = _lazy(lambda: reference_column_map(group, ref()))
    run(
        "character-degrees",
        "published character table",
        [1] * 8 + [2] * 6,
        lambda: sorted(table().degrees),
    )
    run(
        "character-orthogonality",
        "published character table",
        True,
        lambda: table().verify_orthogonality(),
    )

    def aligned_matrix():
        rows, cols = alignment()
        return [
            [table().rows[rows[i]].values[cols[j]].to_json() for j in range(len(cols))]
            for i in range(len(rows))
        ]

    run(
        "character-table-reference",
        "published character table",
        lambda: [[v.to_json() for v in row] for row in ref().matrix],
        aligned_matrix,
    )

    t1 = _lazy(lambda: validate_spherical(group, [word(w) for w in builtin.T1_WORDS]))
    t2 = _lazy(lambda: validate_spherical(group, [word(w) for w in builtin.T2_WORDS]))
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

    kc = _lazy(lambda: canonical_character(t1(), table()))
    kd = _lazy(lambda: canonical_character(t2(), table()))
    run(
        "canonical-character-first",
        "published canonical character (first curve)",
        EXPECTED_CANONICAL_FIRST,
        lambda: tuple(kc().values[c].to_json() for c in col_perm()),
    )
    run(
        "canonical-character-second",
        "published canonical character (second curve)",
        EXPECTED_CANONICAL_SECOND,
        lambda: tuple(kd().values[c].to_json() for c in col_perm()),
    )

    def decomposition_rows(canonical):
        def compute():
            row_perm, _ = alignment()
            mults = decompose(canonical(), table())
            out = []
            for ref_row in range(len(row_perm)):
                m = mults[row_perm[ref_row]]
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

    subgroups = _lazy(group.enumerate_subgroups)
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

    report = _lazy(lambda: search_all_pairs(table(), kc(), kd()))
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
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))
