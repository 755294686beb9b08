import gc
import weakref
from collections import Counter

import pytest

from qslab import ramification
from qslab.builtin import T1_WORDS, T2_WORDS, build_g32_27, named_subgroup
from qslab.characters import ExactScalar, compute_character_table, decompose
from qslab.groups import FiniteGroup
from qslab.ramification import (
    IdentityFixedPoints,
    SphericalSystemError,
    canonical_character,
    curve_genus,
    fiber_orbit_structure,
    fixed_point_count,
    fixed_point_count_by_membership,
    fixed_point_table,
    genus_from_type,
    is_disjoint,
    quotient_genus,
    quotient_genus_by_character,
    stabilizer_set,
    validate_spherical,
)

from members import basis_system, class3, n5q1, n5q1_conjugated, transversal_witness
from oracles import fiber_orbits_oracle, fixed_point_oracle, quotient_genus_oracle

T1_FIXED = (8, 0, 0, 0, 0, 8, 0, 8, 0, 4, 0, 0, 4)
T2_FIXED = (0, 8, 8, 8, 8, 0, 0, 0, 0, 0, 4, 4, 0)
T1_CANONICAL = (5, -3, 1, 1, 1, 1, -3, 1, -3, 1, -1, 1, 1, -1)
T2_CANONICAL = (9, 1, -3, -3, -3, -3, 1, 1, 1, 1, 1, -1, -1, 1)


# -- spherical system validation ----------------------------------------


def test_validate_rejects_empty(g32):
    with pytest.raises(SphericalSystemError, match="empty system"):
        validate_spherical(g32, [])


def test_validate_rejects_identity_entry(g32):
    g2 = g32.generator("g2")
    with pytest.raises(SphericalSystemError, match="identity entry"):
        validate_spherical(g32, [g2, g32.identity(), g2])


def test_validate_rejects_bad_product(g32):
    g2, g3 = g32.generator("g2"), g32.generator("g3")
    with pytest.raises(SphericalSystemError, match="multiply to g2\\*g3"):
        validate_spherical(g32, [g2, g3])


def test_validate_rejects_non_generating(g32):
    g2 = g32.generator("g2")
    with pytest.raises(SphericalSystemError, match="non-generating"):
        validate_spherical(g32, [g2, g2])


def test_signatures(t1, t2):
    assert t1.signature == (2, 2, 2, 4)
    assert t2.signature == (2, 2, 4, 4)


# -- Riemann-Hurwitz ----------------------------------------------------


def test_genus_from_type_values():
    assert genus_from_type(32, (2, 2, 2, 4)) == 5
    assert genus_from_type(32, (2, 2, 4, 4)) == 9
    assert genus_from_type(2, (2, 2, 2, 2)) == 1
    assert genus_from_type(8, (2, 2, 2, 2, 2)) == 3


def test_genus_from_type_errors():
    with pytest.raises(ValueError, match="not an integer"):
        genus_from_type(32, (2, 2, 2, 3))
    with pytest.raises(ValueError, match="odd"):
        genus_from_type(2, (2, 2, 2))
    with pytest.raises(ValueError, match="negative"):
        genus_from_type(32, (2, 2))
    with pytest.raises(ValueError, match=">= 2"):
        genus_from_type(32, (1, 2))
    with pytest.raises(ValueError, match="positive"):
        genus_from_type(0, (2, 2))


def test_curve_genera(t1, t2):
    assert curve_genus(t1) == 5
    assert curve_genus(t2) == 9


# -- stabilizer sets ----------------------------------------------------


def test_stabilizer_sets(g32, t1, t2):
    s1, s2 = stabilizer_set(t1), stabilizer_set(t2)
    assert len(s1) == 14
    assert len(s2) == 15
    assert g32.identity() in s1 and g32.identity() in s2
    assert s1 & s2 == {g32.identity()}
    assert is_disjoint(t1, t2)
    assert not is_disjoint(t1, t1)


def test_stabilizer_set_is_conjugation_closed(g32, t1):
    s1 = stabilizer_set(t1)
    for g in s1:
        for h in g32.elements:
            assert h.inverse() * g * h in s1


# -- fixed point counts -------------------------------------------------


def test_fixed_point_rows(g32, t1, t2, col_map):
    classes = g32.conjugacy_classes()
    for system, expected in ((t1, T1_FIXED), (t2, T2_FIXED)):
        got = tuple(
            fixed_point_count(system, classes[c].representative)
            for c in col_map
            if not classes[c].representative.is_identity()
        )
        assert got == expected


def test_fixed_point_identity_rejected(g32, t1):
    with pytest.raises(IdentityFixedPoints):
        fixed_point_count(t1, g32.identity())


def test_fixed_point_table_layout(g32, t1):
    counts = fixed_point_table(t1)
    assert len(counts) == 14
    for i, cls in enumerate(g32.conjugacy_classes()):
        if cls.representative.is_identity():
            assert counts[i] is None
        else:
            assert counts[i] == fixed_point_count(t1, cls.representative)


def assert_fixed_point_routes_agree(system):
    """Both routes, the class table and the coset oracle agree at every g != 1."""
    group, fixed = system.group, fixed_point_table(system)
    oracle = fixed_point_oracle(system)
    for g in group.elements[1:]:
        fix = oracle[g.index]
        assert fixed_point_count(system, g) == fixed_point_count_by_membership(system, g) == fix
        assert fixed[group.class_index_of(g)] == fix


def test_fixed_point_routes_agree(t1, t2):
    for system in (t1, t2):
        assert_fixed_point_routes_agree(system)


def test_fixed_points_constant_on_classes(g32, t1):
    for cls in g32.conjugacy_classes():
        if cls.representative.is_identity():
            continue
        counts = {fixed_point_count(t1, g) for g in cls.elements}
        assert len(counts) == 1


def test_cross_products_vanish(g32, t1, t2):
    for g in g32.elements:
        if g.is_identity():
            continue
        assert fixed_point_count(t1, g) * fixed_point_count(t2, g) == 0


# -- canonical characters -----------------------------------------------


def test_canonical_characters(t1, t2, col_map):
    for system, expected in ((t1, T1_CANONICAL), (t2, T2_CANONICAL)):
        chi = canonical_character(system)
        got = tuple(chi.values[c] for c in col_map)
        assert got == expected
        assert all(type(v) is ExactScalar for v in chi.values)


def test_canonical_decompositions(t1, t2, table, perms):
    row_perm, _ = perms
    ref_position = {canonical: i + 1 for i, canonical in enumerate(row_perm)}
    chi1 = canonical_character(t1)
    rows1 = sorted(
        ref_position[i] for i, m in enumerate(decompose(chi1, table)) if m
    )
    assert rows1 == [7, 9, 11]
    chi2 = canonical_character(t2)
    rows2 = sorted(
        ref_position[i] for i, m in enumerate(decompose(chi2, table)) if m
    )
    assert rows2 == [4, 10, 12, 13, 14]
    assert all(m in (0, 1) for m in decompose(chi1, table))
    assert all(m in (0, 1) for m in decompose(chi2, table))


def test_lefschetz_identity(g32, t1):
    chi = canonical_character(t1)
    for g in g32.elements:
        if g.is_identity():
            continue
        # the values are rational integers, so chi(g) + conj(chi(g)) = 2 chi(g)
        c = g32.class_index_of(g)
        assert 2 * chi.values[c] == 2 - fixed_point_count(t1, g)


def test_covering_curve_bundle(t1, t2, table):
    # the canonical character of a spherical covering has the genus at the
    # identity and no invariants (the quotient is the projective line)
    for system, genus in ((t1, 5), (t2, 9)):
        canonical = canonical_character(system)
        assert curve_genus(system) == genus
        assert canonical.at_identity() == genus
        assert decompose(canonical, table)[table.trivial_index()] == 0


def test_elliptic_quotient_degree(g32, t1):
    assert fixed_point_count(t1, g32.generator("g5")) == 8


# -- quotient genus -----------------------------------------------------


def test_quotient_genus_values(g32, t1, t2):
    g5 = g32.subgroup_closure([g32.generator("g5")])
    assert quotient_genus(t1, g5) == 1
    assert quotient_genus(t1, named_subgroup(g32, "H")) == 0
    assert quotient_genus(t2, named_subgroup(g32, "H1")) == 0
    assert quotient_genus(t2, named_subgroup(g32, "H2")) == 0
    assert quotient_genus(t2, named_subgroup(g32, "H4")) == 1


def test_quotient_genus_extremes(g32, t1, t2):
    trivial = g32.subgroup_closure([])
    whole = g32.subgroup_closure(g32.basis_generators())
    for system in (t1, t2):
        assert quotient_genus(system, trivial) == curve_genus(system)
        assert quotient_genus(system, whole) == 0


def assert_quotient_genus_routes_agree(system, sub):
    """Both quotient-genus routes and the Riemann-Hurwitz coset oracle agree."""
    genus = quotient_genus(system, sub)
    assert genus == quotient_genus_by_character(system, sub)
    assert genus == quotient_genus_oracle(system, sub)


def test_quotient_genus_character_route(g32, t1, t2):
    for system in (t1, t2):
        for sub in g32.enumerate_subgroups():
            assert_quotient_genus_routes_agree(system, sub)


def test_bridge_builds_each_fixed_point_table_once(g32, monkeypatch):
    # fresh systems, so no earlier test has filled their cached properties
    systems = [
        validate_spherical(g32, [g32.evaluate_word(w) for w in words])
        for words in (T1_WORDS, T2_WORDS)
    ]
    assert not any("_fixed_points" in vars(system) for system in systems)
    calls = Counter()
    count = ramification.fixed_point_count

    def counting(system, g):
        calls[id(system)] += 1
        return count(system, g)

    monkeypatch.setattr(ramification, "fixed_point_count", counting)
    subgroups = g32.enumerate_subgroups()
    assert len(subgroups) == 106
    for system in systems:
        for sub in subgroups:
            assert quotient_genus_by_character(system, sub) == quotient_genus(system, sub)
    classes = len(g32.conjugacy_classes())
    assert calls == {id(system): classes - 1 for system in systems}
    for system in systems:
        assert canonical_character(system) is canonical_character(system)


def test_fixed_point_routes_agree_on_order_64_after_memo(monkeypatch):
    group = n5q1()
    assert group.order == 64
    system = basis_system(group)
    fixed_point_table(system)  # builds the cyclic subgroups and their cosets

    transversals = Counter()
    right_cosets = FiniteGroup._right_cosets

    def counting(self, sub):
        transversals[sub.indices] += 1
        return right_cosets(self, sub)

    monkeypatch.setattr(FiniteGroup, "_right_cosets", counting)
    assert_fixed_point_routes_agree(system)
    assert not transversals


# -- fiber orbits -------------------------------------------------------


def test_fiber_orbit_shapes(g32, t1, t2):
    h = named_subgroup(g32, "H")
    h1 = named_subgroup(g32, "H1")
    assert fiber_orbit_structure(t1, 4, h).orbits == ((4, 1), (4, 1))
    assert fiber_orbit_structure(t2, 1, h1).orbits == ((8, 1), (8, 1))
    assert fiber_orbit_structure(t2, 2, h1).orbits == ((8, 1), (8, 1))
    assert fiber_orbit_structure(t2, 3, h1).orbits == ((4, 2), (4, 2))
    assert fiber_orbit_structure(t2, 4, h1).orbits == ((2, 4),) * 4


def test_fiber_freeness_flags(g32, t1, t2):
    h = named_subgroup(g32, "H")
    h1 = named_subgroup(g32, "H1")
    assert fiber_orbit_structure(t1, 4, h).acts_freely
    assert fiber_orbit_structure(t2, 1, h1).acts_freely
    assert fiber_orbit_structure(t2, 2, h1).acts_freely
    assert not fiber_orbit_structure(t2, 3, h1).acts_freely
    assert not fiber_orbit_structure(t2, 4, h1).acts_freely


def test_fiber_orbit_accounting(g32, t1, t2):
    for system in (t1, t2):
        for branch, entry in enumerate(system.entries, start=1):
            fiber = fiber_orbit_structure(system, branch, named_subgroup(g32, "H1"))
            assert fiber.fiber_size == 32 // entry.order()
            assert sum(size for size, _ in fiber.orbits) == fiber.fiber_size
            sub_order = named_subgroup(g32, "H1").order
            for size, stab in fiber.orbits:
                assert size * stab == sub_order


def test_fiber_branch_bounds(g32, t1):
    h = named_subgroup(g32, "H")
    with pytest.raises(ValueError, match="out of range"):
        fiber_orbit_structure(t1, 0, h)
    with pytest.raises(ValueError, match="out of range"):
        fiber_orbit_structure(t1, 5, h)


# -- an order-64 member off the bundled model ---------------------------


@pytest.mark.parametrize("build", [build_g32_27, pytest.param(class3, id="build1")])
def test_group_is_freed_without_the_collector(build):
    enabled = gc.isenabled()
    gc.disable()
    try:
        group = build()
        classes = group.conjugacy_classes()
        table = compute_character_table(group)
        subgroups = group.enumerate_subgroups()
        normals = group.enumerate_normal_subgroups()
        system = basis_system(group)
        assert quotient_genus(system, subgroups[1]) == quotient_genus_by_character(
            system, subgroups[1]
        )
        assert fiber_orbit_structure(system, 1, normals[-1]).fiber_size > 0
        assert stabilizer_set(system)
        alive = weakref.ref(group)
        del group, classes, table, subgroups, normals, system
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "build", [n5q1, n5q1_conjugated, class3], ids=["plain", "conjugated", "class-3"]
)
def test_routes_agree_on_order_64_member(build):
    group = build()
    assert group.order == 64
    mul, elements = group._mul, range(group.order)
    assert any(mul[x][x] > x for x in elements) == (build is n5q1_conjugated)
    squares = {mul[x][x] for x in elements}
    central = all(mul[s][y] == mul[y][s] for s in squares for y in elements)
    assert central == (build is not class3)
    system = basis_system(group)
    assert_fixed_point_routes_agree(system)

    subgroups = group.enumerate_subgroups()
    for sub in subgroups:
        assert quotient_genus(system, sub) == quotient_genus_by_character(system, sub)

    for sub in subgroups[:: len(subgroups) // 32] + (subgroups[-1],):
        assert quotient_genus(system, sub) == quotient_genus_oracle(system, sub)
        for branch in range(1, len(system.entries) + 1):
            fiber = fiber_orbit_structure(system, branch, sub)
            assert (fiber.fiber_size, fiber.orbits) == fiber_orbits_oracle(
                system, branch, sub
            )


def test_fixed_point_routes_match_the_coset_oracle_on_the_transversal_witness():
    # The transversal route must conjugate t g t^-1: with t^-1 g t, element 9
    # of this system gets 2 fixed points instead of 4.
    group = transversal_witness()
    system = basis_system(group, group.element(13))
    assert system.signature == (4, 2, 2, 2, 2, 2, 2, 4)
    assert_fixed_point_routes_agree(system)
