"""The twist search against a brute-force oracle over the reference grid.

The oracle works in plain integer arithmetic straight from the fixture
matrix, so it shares no scalar or class-function code with the library.
"""

from fractions import Fraction

import pytest

from qslab.characters import ClassFunction, ExactScalar
from qslab.search import (
    BundleCohomology,
    cohomology_dims,
    invariant_dimension,
    kunneth_euler,
    search_all_pairs,
    structure_sheaf,
)
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


def test_pair_lookup(report):
    first = report.pairs[0]
    assert report.pair(first.a_index, first.b_index) is first
    with pytest.raises(KeyError):
        report.pair(-1, -1)


# -- building blocks ----------------------------------------------------


def test_structure_sheaf_shape(table, t1):
    kc = canonical_character(t1, table)
    sheaf = structure_sheaf(table, kc)
    assert sheaf.h0 == table.trivial()
    assert sheaf.h1.at_identity() == ExactScalar(5)
    assert sheaf.euler().at_identity() == ExactScalar(-4)


def test_invariant_dimension(table):
    assert invariant_dimension(table.trivial()) == 1
    for i in table.indices_of_degree(2):
        assert invariant_dimension(table.rows[i]) == 0
    regular = table.trivial() * 0
    for d, chi in zip(table.degrees, table.rows):
        regular = regular + chi * d
    assert invariant_dimension(regular) == 1


def test_invariant_dimension_rejects_non_integral(g32):
    delta = ClassFunction(
        g32, tuple(ExactScalar(1 if i == 0 else 0) for i in range(14))
    )
    with pytest.raises(ValueError, match="not integral"):
        invariant_dimension(delta)


def test_invariant_dimension_rejects_non_integer_values(g32):
    values = [ExactScalar(0)] * 14
    values[1] = ExactScalar(Fraction(1, 2))
    half = ClassFunction(g32, tuple(values))
    with pytest.raises(ValueError):
        invariant_dimension(half)


def test_bundle_cohomology_validation(table):
    with pytest.raises(ValueError, match="not a dimension"):
        BundleCohomology(h0=-table.trivial(), h1=table.trivial())


def test_kunneth_euler_hand_values(table, t1, perms, ref):
    row_perm, _ = perms
    kc = canonical_character(t1, table)
    trivial = table.trivial()
    chi4 = table.rows[row_perm[3]]
    virtual_c = trivial - kc
    virtual_d = trivial - chi4
    assert kunneth_euler(virtual_c, virtual_d, trivial) == 1
    assert kunneth_euler(virtual_c, virtual_d, chi4) == -1
    # the same numbers straight from the fixture grid
    rows, sizes = _fixture_grid(ref)
    vc = [a - b for a, b in zip(rows[0], _add(*(rows[r - 1] for r in KC_ROWS)))]
    vd = [a - b for a, b in zip(rows[0], rows[3])]
    assert _ip(_mul(vc, vd), rows[0], sizes) == 1
    assert _ip(_mul(vc, vd), rows[3], sizes) == -1


def test_cohomology_dims_consistency(table, t1, t2):
    kc = canonical_character(t1, table)
    kd = canonical_character(t2, table)
    factor_c = structure_sheaf(table, kc)
    a = table.indices_of_degree(2)[0]
    factor_d = BundleCohomology(
        h0=table.trivial() + table.rows[a],
        h1=canonical_character(t2, table).conjugate(),
    )
    for t in table.linear_indices():
        h0, h1, h2 = cohomology_dims(factor_c, factor_d, table.rows[t])
        e = kunneth_euler(factor_c.euler(), factor_d.euler(), table.rows[t])
        assert h0 - h1 + h2 == e
    assert kd.at_identity() == ExactScalar(9)
