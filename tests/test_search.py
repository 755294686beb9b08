"""The twist search against a brute-force oracle over the reference grid.

The oracle (``oracles._oracle_search``) works in plain integer arithmetic
straight from the fixture matrix, so it shares no scalar or class-function
code with the library.
"""

import random
from fractions import Fraction

import pytest

from qslab.characters import (
    ClassFunction,
    _pack,
    _unpack,
    compute_character_table,
    decompose,
)
from qslab.search import (
    BundleCohomology,
    _lane_invariants,
    _twist_lanes,
    cohomology_dims,
    search_all_pairs,
)
from qslab.ramification import canonical_character

from members import n4q2
from oracles import _add, _fixture_grid, _ip, _mul, _oracle_search

# reference row numbers (1-based): canonical characters of the two curves
KC_ROWS = (7, 9, 11)
KD_ROWS = (4, 10, 12, 13, 14)

# admissible twist rows depend only on the B parameter
ADMISSIBLE_BY_B = {
    9: {3, 4, 7, 8},
    10: {2, 3, 4, 5, 7, 8},
    11: {2, 4, 5, 7},
    12: {2, 3, 4, 5, 7, 8},
    13: {2, 5},
    14: {3, 8},
}

EULER_FLAT_PAIRS = {(9, 14), (11, 13)}


@pytest.fixture(scope="module")
def report(table, t1, t2):
    kc = canonical_character(t1, table)
    kd = canonical_character(t2, table)
    return search_all_pairs(table, kc, kd)


@pytest.fixture(scope="module")
def ref_numbering(perms):
    """canonical row index -> published row number (1-based)."""
    row_perm, _ = perms
    return {canonical: i + 1 for i, canonical in enumerate(row_perm)}


def test_search_matches_oracle(report, ref, ref_numbering):
    oracle = _oracle_search(ref, KC_ROWS, KD_ROWS)
    assert len(report.pairs) == 36
    assert {len(dims) for _, _, dims in oracle.values()} == {8}
    seen = set()
    for pair in report.pairs:
        a = ref_numbering[pair.a_index]
        b = ref_numbering[pair.b_index]
        seen.add((a, b))
        admissible, eulers, dims = oracle[(a, b)]
        assert {ref_numbering[t] for t in pair.admissible} == admissible
        got_eulers = {
            ref_numbering[t]: e for t, e in pair.eulers
        }
        assert got_eulers == eulers
        assert {ref_numbering[t]: d for t, d in pair.dims} == dims
        assert pair.euler_flat == all(e == 0 for e in eulers.values())
    assert seen == set(oracle)


def test_frozen_admissible_sets(report, ref_numbering):
    for pair in report.pairs:
        b = ref_numbering[pair.b_index]
        assert {ref_numbering[t] for t in pair.admissible} == ADMISSIBLE_BY_B[b]


def test_theorem_flags(report):
    assert report.theorem_holds
    assert not report.trivial_admissible_anywhere
    for pair in report.pairs:
        assert pair.admissible


def test_euler_flat_pairs(report, ref_numbering):
    flat = {
        (ref_numbering[p.a_index], ref_numbering[p.b_index])
        for p in report.pairs
        if p.euler_flat
    }
    assert flat == EULER_FLAT_PAIRS


def test_dims_additivity(report):
    for pair in report.pairs:
        eulers = dict(pair.eulers)
        for t, (h0, h1, h2) in pair.dims:
            assert h0 - h1 + h2 == eulers[t]
            assert h0 >= 0 and h1 >= 0 and h2 >= 0


# -- building blocks ----------------------------------------------------


def test_invariant_dimension(table):
    # the invariant dimension of a character is its trivial multiplicity
    trivial = table.trivial_index()
    assert decompose(table.trivial(), table)[trivial] == 1
    for i in table.indices_of_degree(2):
        assert decompose(table.rows[i], table)[trivial] == 0
    regular = ClassFunction(table.group, (32,) + (0,) * 13)
    assert decompose(regular, table) == table.degrees


def test_invariant_dimension_rejects_non_integral(g32, table, t1):
    # the search's invariant sums refuse a second factor that is not a
    # virtual character
    delta = ClassFunction(g32, tuple(1 if i == 0 else 0 for i in range(14)))
    with pytest.raises(ValueError, match="not integral"):
        search_all_pairs(table, canonical_character(t1, table), delta)


def test_invariant_dimension_rejects_non_integer_values(g32):
    # a factor with a value outside Z never reaches the search: the class
    # function refuses it when it is built
    values = [0] * 14
    values[1] = Fraction(1, 2)
    with pytest.raises(ValueError, match="is not a rational integer"):
        ClassFunction(g32, tuple(values))


def test_bundle_cohomology_validation(table):
    with pytest.raises(ValueError, match="not a dimension"):
        BundleCohomology(h0=table.trivial() * -1, h1=table.trivial())


def test_search_refuses_a_negative_dimension(table, t1, t2):
    kc, kd = canonical_character(t1, table), canonical_character(t2, table)
    # a first factor whose h1 would have dimension -5 at the identity
    with pytest.raises(ValueError, match="h1 identity value -5 is not a dimension"):
        search_all_pairs(table, kc * -1, kd)
    # second factors whose h1 is -3 chi4 plus a degree-2 row: dimension -1
    with pytest.raises(ValueError, match="h1 identity value -1 is not a dimension"):
        search_all_pairs(table, kc, kd * -3)


def test_kunneth_euler_hand_values(report, perms, ref):
    # With A = B the second factor's Euler character is trivial - chi4 (the
    # linear part of the canonical character of T2 is chi4), and the first
    # factor's is trivial - K_C.
    row_perm, _ = perms
    trivial, chi4 = row_perm[0], row_perm[3]
    diagonal = [p for p in report.pairs if p.a_index == p.b_index]
    assert len(diagonal) == 6
    for pair in diagonal:
        eulers = dict(pair.eulers)
        assert eulers[trivial] == 1
        assert eulers[chi4] == -1
    # the same numbers straight from the fixture grid
    rows, sizes = _fixture_grid(ref)
    vc = [a - b for a, b in zip(rows[0], _add(*(rows[r - 1] for r in KC_ROWS)))]
    vd = [a - b for a, b in zip(rows[0], rows[3])]
    assert _ip(_mul(vc, vd), rows[0], sizes) == 1
    assert _ip(_mul(vc, vd), rows[3], sizes) == -1


def test_cohomology_dims_consistency(table, t1, t2):
    kc = canonical_character(t1, table)
    kd = canonical_character(t2, table)
    factor_c = BundleCohomology(h0=table.trivial(), h1=kc)
    a = table.indices_of_degree(2)[0]
    h0_d = [x + y for x, y in zip(table.trivial().values, table.rows[a].values)]
    factor_d = BundleCohomology(h0=ClassFunction(table.group, tuple(h0_d)), h1=kd)
    sizes = [cls.size for cls in table.group.conjugacy_classes()]
    euler_c = [x - y for x, y in zip(table.trivial().values, kc.values)]
    euler_d = [x - y for x, y in zip(h0_d, kd.values)]
    for t in table.linear_indices():
        h0, h1, h2 = cohomology_dims(factor_c, factor_d, table.rows[t])
        e = _ip(_mul(euler_c, euler_d), table.rows[t].values, sizes)
        assert h0 - h1 + h2 == e
    assert kd.at_identity() == 9


# -- all twists in one packed sum ----------------------------------------


def per_twist_search(table, kc, kd):
    """(a, b) -> ((t, dims), ...), ((t, euler), ...), one twist at a time.

    The dimensions come from ``cohomology_dims``, the per-twist kernel, and
    each Euler characteristic from its own plain integer sum.
    """
    group = table.group
    sizes = [cls.size for cls in group.conjugacy_classes()]
    rows = [row.values for row in table.rows]
    linear = table.linear_indices()
    mults = decompose(kd, table)
    base_d = [sum(mults[i] * rows[i][c] for i in linear) for c in range(len(sizes))]
    c0, c1 = table.trivial().values, kc.values
    factor_c = BundleCohomology(h0=table.trivial(), h1=kc)
    results = {}
    for a in table.indices_of_degree(2):
        d0 = [x + y for x, y in zip(c0, rows[a])]
        for b in table.indices_of_degree(2):
            d1 = [x + y for x, y in zip(base_d, rows[b])]
            factor_d = BundleCohomology(
                h0=ClassFunction(group, tuple(d0)), h1=ClassFunction(group, tuple(d1))
            )
            dims, eulers = [], []
            for t in linear:
                dims.append((t, cohomology_dims(factor_c, factor_d, table.rows[t])))
                total = sum(
                    s * (w - x) * (y - z) * u
                    for s, w, x, y, z, u in zip(sizes, c0, c1, d0, d1, rows[t])
                )
                assert total % group.order == 0
                eulers.append((t, total // group.order))
            results[(a, b)] = (tuple(dims), tuple(eulers))
    return results


def assert_matches_per_twist(table, kc, kd):
    report = search_all_pairs(table, kc, kd)
    expected = per_twist_search(table, kc, kd)
    assert [(p.a_index, p.b_index) for p in report.pairs] == list(expected)
    trivial = table.trivial_index()
    for pair in report.pairs:
        dims, eulers = expected[(pair.a_index, pair.b_index)]
        assert pair.dims == dims
        assert pair.eulers == eulers
        assert pair.admissible == tuple(t for t, (h0, _, h2) in dims if h0 == h2 == 0)
        assert pair.euler_flat == all(e == 0 for _, e in eulers)
    assert report.theorem_holds == all(p.admissible for p in report.pairs)
    assert report.trivial_admissible_anywhere == any(
        trivial in p.admissible for p in report.pairs
    )
    return report


def seeded_virtual(table, rng, bound):
    """A seeded integer combination of the rows, coefficients in [-bound, bound]."""
    coeffs = [rng.randint(-bound, bound) for _ in table.rows]
    return [
        sum(n * row.values[c] for n, row in zip(coeffs, table.rows))
        for c in range(len(table.rows))
    ]


def test_packed_search_matches_per_twist_kernel(table, t1, t2):
    report = assert_matches_per_twist(
        table, canonical_character(t1, table), canonical_character(t2, table)
    )
    assert len(report.pairs) == 36 and all(len(p.dims) == 8 for p in report.pairs)


@pytest.mark.parametrize("bound", [3, 10**9])
@pytest.mark.parametrize("seed", range(3))
def test_packed_search_on_seeded_virtual_characters(seed, bound):
    # Both factors are virtual characters with coefficients of both signs,
    # up to 10^9, so lanes are wide and many are negative.  The trivial
    # coefficient is raised just enough that the identity values are
    # dimensions.
    rng = random.Random(f"search:{seed}:{bound}")
    group = n4q2()
    table = compute_character_table(group)
    assert len(table.linear_indices()) == 16 and len(table.indices_of_degree(2)) == 8
    trivial = table.trivial()
    kc = seeded_virtual(table, rng, bound)
    kc = ClassFunction(group, tuple(x + max(0, -kc[0]) for x in kc))
    kd = seeded_virtual(table, rng, bound)
    mults = decompose(ClassFunction(group, tuple(kd)), table)
    linear_at_identity = sum(mults[i] for i in table.linear_indices())
    kd = ClassFunction(group, tuple(x + max(0, -linear_at_identity) for x in kd))
    assert trivial.values == (1,) * len(kd.values)
    report = assert_matches_per_twist(table, kc, kd)
    lanes = [x for p in report.pairs for _, dims in p.dims for x in dims]
    lanes += [e for p in report.pairs for _, e in p.eulers]
    assert min(lanes) < 0 < max(lanes)
    if bound > 3:
        assert max(map(abs, lanes)) > 10**9


def test_packed_search_refuses_a_non_virtual_first_factor(table, t1, t2):
    # (t + t')/2 for two linear rows is integer valued but not a virtual
    # character; only the lanes of the sums with h1 of the first factor see it
    linear = table.linear_indices()
    t, u = (table.rows[i].values for i in linear[1:3])
    half = ClassFunction(table.group, tuple((x + y) // 2 for x, y in zip(t, u)))
    kd = canonical_character(t2, table)
    with pytest.raises(ValueError, match="invariant multiplicity .* is not integral"):
        search_all_pairs(table, half, kd)
    with pytest.raises(ValueError, match="not integral"):
        per_twist_search(table, half, kd)


@pytest.mark.parametrize(
    "f, lanes, message",
    [
        ((-4, 8), [1, -3], None),
        ((3, 1), None, "invariant multiplicity 1/2 is not integral"),  # lanes 4, 2
        ((2, 0), None, "1/2 is not integral"),  # lanes 2, 2: their sum is a multiple of 4
        ((2, 4), None, "3/2 is not integral"),  # lanes 6, -2: likewise
    ],
)
def test_lane_invariants_check_every_lane(f, lanes, message):
    packed, width = _twist_lanes((1, 1), [(1, 1), (1, -1)], [8, 8])
    if message is None:
        assert _lane_invariants(f, packed, width, 2, 4) == lanes
    else:
        with pytest.raises(ValueError, match=message):
            _lane_invariants(f, packed, width, 2, 4)


@pytest.mark.parametrize("seed", range(4))
def test_lane_width_holds_lanes_at_the_bound(table, seed):
    # f = +-magnitude * t_j puts lane j exactly at the bound
    # sum_K |K| magnitude[K] max|t|, the largest value the width must hold
    rng = random.Random(f"lanes:{seed}")
    sizes = tuple(cls.size for cls in table.group.conjugacy_classes())
    twists = [table.rows[t].values for t in table.linear_indices()]
    magnitude = [rng.randint(0, 10**9) for _ in sizes]
    packed, width = _twist_lanes(sizes, twists, magnitude)
    bound = sum(s * m for s, m in zip(sizes, magnitude))
    for j, t in enumerate(twists):
        for sign in (1, -1):
            f = [sign * m * x for m, x in zip(magnitude, t)]
            got = _lane_invariants(f, packed, width, len(twists), 1)
            assert got[j] == sign * bound
            assert got == [sum(s * y * x for s, y, x in zip(sizes, f, u)) for u in twists]


@pytest.mark.parametrize("width", [1, 2, 5, 31, 64])
def test_unpack_inverts_pack_on_extreme_lanes(width):
    top = (1 << (width - 1)) - 1
    rng = random.Random(width)
    for lanes in ([top, -top, 0, top], [-top] * 5, [rng.randint(-top, top) for _ in range(9)], []):
        assert _unpack(_pack(lanes, width), width, len(lanes)) == lanes
