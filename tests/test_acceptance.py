"""Acceptance gate: one check per published claim, one status line each.

Status lines are written straight to the real stdout so they stay
visible under pytest's capture; each test also asserts, so a regression
fails the suite loudly.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qslab
from qslab.builtin import named_subgroup
from qslab.characters import align_to_reference, decompose
from qslab.ramification import (
    canonical_character,
    fiber_orbit_structure,
    fixed_point_count,
    fixed_point_count_by_membership,
    genus_from_type,
    is_disjoint,
    quotient_genus,
    quotient_genus_by_character,
)
from qslab.search import search_all_pairs

CLASS_SIZES = (1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4)
T1_ROW = (8, 0, 0, 0, 0, 8, 0, 8, 0, 4, 0, 0, 4)
T2_ROW = (0, 8, 8, 8, 8, 0, 0, 0, 0, 0, 4, 4, 0)
T1_CANONICAL = (5, -3, 1, 1, 1, 1, -3, 1, -3, 1, -1, 1, 1, -1)
T2_CANONICAL = (9, 1, -3, -3, -3, -3, 1, 1, 1, 1, 1, -1, -1, 1)
T1_DECOMP = [7, 9, 11]
T2_DECOMP = [4, 10, 12, 13, 14]

NORMAL_SUBGROUP_GENERATORS = (
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


@pytest.fixture
def check(request):
    """Emit one status line per criterion past pytest's output capture."""
    capture = request.config.pluginmanager.getplugin("capturemanager")

    def _check(number, description, ok):
        status = "PASS" if ok else "FAIL"
        with capture.global_and_fixture_disabled():
            sys.stdout.write(f"\n[criterion {number}] {status}: {description}\n")
            sys.stdout.flush()
        assert ok, f"criterion {number} failed: {description}"

    return _check


def resolve(g32, word):
    return g32.evaluate_word(() if word == "1" else tuple(word.split("*")))


def test_criterion_1_conjugacy_data(check, g32, ref):
    classes = g32.conjugacy_classes()
    ok = len(classes) == 14
    ok = ok and tuple(sorted(c.size for c in classes)) == CLASS_SIZES
    published = [
        frozenset(resolve(g32, w) for w in members) for members in ref.class_members
    ]
    computed = [frozenset(c.elements) for c in classes]
    ok = ok and sorted(published, key=min_index(g32)) == sorted(
        computed, key=min_index(g32)
    )
    check(1, "14 conjugacy classes with the published sizes and members", ok)


def min_index(g32):
    return lambda s: min(g32.index(x) for x in s)


def test_criterion_2_normal_subgroups(check, g32):
    normals = g32.enumerate_normal_subgroups()
    published = {
        frozenset(
            g32.index(x)
            for x in g32.subgroup_closure(
                resolve(g32, w) for w in gens
            ).elements
        )
        for gens in NORMAL_SUBGROUP_GENERATORS
    }
    computed = {s.indices for s in normals}
    ok = len(normals) == 26 and len(published) == 26 and published == computed
    check(2, "exactly the 26 published normal subgroups", ok)


def test_criterion_3_character_table(check, table, ref):
    ok = sorted(table.degrees) == [1] * 8 + [2] * 6
    ok = ok and table.verify_orthogonality()
    try:
        row_perm, col_perm = align_to_reference(table, ref)
    except ValueError:
        ok = False
    else:
        for i in range(14):
            for j in range(14):
                if table.rows[row_perm[i]].values[col_perm[j]] != ref.matrix[i][j]:
                    ok = False
    check(3, "character table equals the published grid, orthogonality exact", ok)


def test_criterion_4_fixed_points(check, g32, t1, t2, col_map):
    classes = g32.conjugacy_classes()
    nontrivial = [c for c in col_map if not classes[c].representative.is_identity()]
    ok = True
    for system, expected in ((t1, T1_ROW), (t2, T2_ROW)):
        got = tuple(
            fixed_point_count(system, classes[c].representative) for c in nontrivial
        )
        ok = ok and got == expected
    for system in (t1, t2):
        for g in g32.elements:
            if g.is_identity():
                continue
            if fixed_point_count(system, g) != fixed_point_count_by_membership(
                system, g
            ):
                ok = False
    check(4, "published fixed point rows, both counting routes agreeing", ok)


def test_criterion_5_canonical_characters(check, t1, t2, table, col_map, perms):
    row_perm, _ = perms
    position = {canonical: i + 1 for i, canonical in enumerate(row_perm)}
    ok = genus_from_type(32, (2, 2, 2, 4)) == 5
    ok = ok and genus_from_type(32, (2, 2, 4, 4)) == 9
    for system, expected_vals, expected_rows in (
        (t1, T1_CANONICAL, T1_DECOMP),
        (t2, T2_CANONICAL, T2_DECOMP),
    ):
        chi = canonical_character(system)
        got = tuple(int(chi.values[c]) for c in col_map)
        ok = ok and got == expected_vals
        rows = sorted(
            position[i] for i, m in enumerate(decompose(chi, table)) if m
        )
        ok = ok and rows == expected_rows
    check(5, "published canonical characters, decompositions, and genera", ok)


def test_criterion_6_ramification_structure(check, g32, t1, t2):
    ok = t1.signature == (2, 2, 2, 4)
    ok = ok and t2.signature == (2, 2, 4, 4)
    ok = ok and is_disjoint(t1, t2)
    for g in g32.elements:
        if g.is_identity():
            continue
        if fixed_point_count(t1, g) * fixed_point_count(t2, g) != 0:
            ok = False
    check(6, "valid generating systems of the published types, acting freely", ok)


def test_criterion_7_quotient_geometry(check, g32, t1, t2):
    g5 = g32.subgroup_closure([g32.generator("g5")])
    h = named_subgroup(g32, "H")
    h1 = named_subgroup(g32, "H1")
    h2 = named_subgroup(g32, "H2")
    h4 = g32.subgroup_closure([g32.generator("g4"), g32.generator("g5")])
    ok = quotient_genus(t1, g5) == 1
    ok = ok and quotient_genus(t1, h) == 0
    ok = ok and quotient_genus(t2, h1) == 0
    ok = ok and quotient_genus(t2, h2) == 0
    ok = ok and quotient_genus(t2, h4) == 1
    ok = ok and fiber_orbit_structure(t1, 4, h).acts_freely
    ok = ok and fiber_orbit_structure(t2, 1, h1).acts_freely
    ok = ok and fiber_orbit_structure(t2, 2, h1).acts_freely
    ok = ok and {s for _, s in fiber_orbit_structure(t2, 3, h1).orbits} == {2}
    ok = ok and {s for _, s in fiber_orbit_structure(t2, 4, h1).orbits} == {4}
    for system in (t1, t2):
        for sub in g32.enumerate_subgroups():
            if quotient_genus(system, sub) != quotient_genus_by_character(system, sub):
                ok = False
    check(7, "published quotient genera, fiber actions, and character bridge", ok)


def test_criterion_8_twist_search(check, t1, t2, table):
    kc = canonical_character(t1)
    kd = canonical_character(t2)
    report = search_all_pairs(table, kc, kd)
    ok = len(report.pairs) == 36
    trivial = table.trivial_index()
    for pair in report.pairs:
        ok = ok and len(pair.admissible) > 0
        ok = ok and trivial not in pair.admissible
        eulers = dict(pair.eulers)
        for t, (h0, h1, h2) in pair.dims:
            ok = ok and h0 - h1 + h2 == eulers[t]
    ok = ok and report.theorem_holds
    ok = ok and not report.trivial_admissible_anywhere
    check(8, "admissible twists exist for all 36 pairs, never the trivial one", ok)


def test_criterion_9_property_suites_standalone(check):
    suite = Path(__file__).with_name("test_properties.py")
    # the child imports the same qslab as this process
    paths = [str(Path(qslab.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", str(suite)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    ok = result.returncode == 0
    check(9, "property suites pass standalone", ok)
