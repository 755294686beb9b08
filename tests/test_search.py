"""The twist search against a brute-force oracle over the reference grid.

The oracle works in plain integer arithmetic straight from the fixture
matrix, so it shares no scalar or class-function code with the library.
"""

from fractions import Fraction

import pytest

from qslab.characters import ClassFunction, ExactScalar, decompose
from qslab.search import BundleCohomology, cohomology_dims, search_all_pairs
from qslab.ramification import canonical_character

GROUP_ORDER = 32

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


# -- oracle over fixture integers ---------------------------------------


def _fixture_grid(ref):
    rows = [[v.as_integer() for v in row] for row in ref.matrix]
    return rows, list(ref.class_sizes)


def _ip(f, h, sizes):
    total = sum(sz * a * b for sz, a, b in zip(sizes, f, h))
    assert total % GROUP_ORDER == 0
    return total // GROUP_ORDER


def _add(*fs):
    return [sum(vals) for vals in zip(*fs)]


def _mul(f, h):
    return [a * b for a, b in zip(f, h)]


def _oracle_search(ref):
    rows, sizes = _fixture_grid(ref)
    triv = rows[0]
    deg1 = [r for r in range(14) if rows[r][0] == 1]
    deg2 = [r for r in range(14) if rows[r][0] == 2]
    assert len(deg1) == 8 and len(deg2) == 6
    kc = _add(*(rows[r - 1] for r in KC_ROWS))
    kd = _add(*(rows[r - 1] for r in KD_ROWS))
    kd_linear = [0] * 14
    for r in deg1:
        m = _ip(kd, rows[r], sizes)
        kd_linear = _add(kd_linear, [m * v for v in rows[r]])
    results = {}
    for a in deg2:
        for b in deg2:
            d0 = _add(triv, rows[a])
            d1 = _add(kd_linear, rows[b])
            admissible = set()
            eulers = {}
            dims = {}
            for t in deg1:
                twist = rows[t]
                h0 = _ip(_mul(_mul(triv, d0), twist), triv, sizes)
                h1 = _ip(_mul(_add(_mul(triv, d1), _mul(kc, d0)), twist), triv, sizes)
                h2 = _ip(_mul(_mul(kc, d1), twist), triv, sizes)
                if h0 == 0 and h2 == 0:
                    admissible.add(t + 1)
                eulers[t + 1] = h0 - h1 + h2
                dims[t + 1] = (h0, h1, h2)
            results[(a + 1, b + 1)] = (admissible, eulers, dims)
    return results


def test_search_matches_oracle(report, ref, ref_numbering):
    oracle = _oracle_search(ref)
    assert len(report.pairs) == 36
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
    regular = ClassFunction(
        table.group, (ExactScalar(32),) + (ExactScalar(0),) * 13
    )
    assert decompose(regular, table) == table.degrees


def test_invariant_dimension_rejects_non_integral(g32, table, t1):
    # the search's invariant sums refuse a second factor that is not a
    # virtual character
    delta = ClassFunction(
        g32, tuple(ExactScalar(1 if i == 0 else 0) for i in range(14))
    )
    with pytest.raises(ValueError, match="not integral"):
        search_all_pairs(table, canonical_character(t1, table), delta)


def test_invariant_dimension_rejects_non_integer_values(g32, table, t1):
    values = [ExactScalar(0)] * 14
    values[1] = ExactScalar(Fraction(1, 2))
    half = ClassFunction(g32, tuple(values))
    with pytest.raises(ValueError, match="is not a rational integer"):
        search_all_pairs(table, canonical_character(t1, table), half)
    with pytest.raises(ValueError, match="is not a rational integer"):
        search_all_pairs(table, half, canonical_character(t1, table))


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


def _ints(f):
    return [v.as_integer() for v in f.values]


def test_cohomology_dims_consistency(table, t1, t2):
    kc = canonical_character(t1, table)
    kd = canonical_character(t2, table)
    factor_c = BundleCohomology(h0=table.trivial(), h1=kc)
    a = table.indices_of_degree(2)[0]
    h0_d = [x + y for x, y in zip(_ints(table.trivial()), _ints(table.rows[a]))]
    factor_d = BundleCohomology(
        h0=ClassFunction(table.group, tuple(ExactScalar(x) for x in h0_d)), h1=kd
    )
    sizes = [cls.size for cls in table.group.conjugacy_classes()]
    euler_c = [x - y for x, y in zip(_ints(table.trivial()), _ints(kc))]
    euler_d = [x - y for x, y in zip(h0_d, _ints(kd))]
    for t in table.linear_indices():
        h0, h1, h2 = cohomology_dims(factor_c, factor_d, table.rows[t])
        e = _ip(_mul(euler_c, euler_d), _ints(table.rows[t]), sizes)
        assert h0 - h1 + h2 == e
    assert kd.at_identity() == ExactScalar(9)
