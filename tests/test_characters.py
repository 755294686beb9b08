from fractions import Fraction

import pytest

from qslab.builtin import build_g32_27
from qslab.characters import (
    AlignmentError,
    CharacterTable,
    ClassFunction,
    ExactScalar,
    ReferenceTable,
    align_to_reference,
    compute_character_table,
    decompose,
    inner_product,
    linear_combination,
    load_reference_table,
    reference_column_map,
    table_from_cache_dict,
    table_to_cache_dict,
)
from qslab.groups import GroupSpec, _mat_identity, _mat_mul, build_group

I = ExactScalar(0, 1)


def cyclic2():
    return build_group(
        GroupSpec(n_rank=1, q_rank=0, action=(), generator_names=(("a", ((1,), ())),))
    )


def d4():
    # Z2^2 twisted by the swap matrix
    return build_group(
        GroupSpec(
            n_rank=2,
            q_rank=1,
            action=(((0, 1), (1, 0)),),
            generator_names=(("r", ((1, 0), (0,))), ("s", ((0, 0), (1,)))),
        )
    )


# A basis change of F2^4 and its inverse.
BASIS = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))
BASIS_INV = ((1, 1, 1, 1), (0, 1, 1, 1), (0, 0, 1, 1), (0, 0, 0, 1))


def family_member(k, m, basis=None, basis_inv=None):
    """action_j = I + E_{(j+m) mod k, j}, optionally conjugated by a basis change."""
    action = []
    for j in range(m):
        a = [list(row) for row in _mat_identity(k)]
        a[(j + m) % k][j] ^= 1
        a = tuple(tuple(row) for row in a)
        if basis is not None:
            a = _mat_mul(_mat_mul(basis, a), basis_inv)
        action.append(a)
    names = tuple(
        (f"n{i}", (tuple(int(t == i) for t in range(k)), (0,) * m)) for i in range(k)
    ) + tuple((f"q{j}", ((0,) * k, tuple(int(t == j) for t in range(m)))) for j in range(m))
    return build_group(GroupSpec(k, m, tuple(action), names))


def abelianization_order(group):
    """|G:G'| with G' closed from all commutators a^-1 b^-1 a b."""
    elems = group.elements
    commutators = {a.inverse() * b.inverse() * a * b for a in elems for b in elems}
    return group.order // group.subgroup_closure(commutators).order


# -- scalars ------------------------------------------------------------


def test_scalar_arithmetic():
    assert ExactScalar(2) + ExactScalar(3) == ExactScalar(5)
    assert ExactScalar(2) - 5 == ExactScalar(-3)
    assert 5 - ExactScalar(2) == ExactScalar(3)
    assert I * I == ExactScalar(-1)
    assert (ExactScalar(1, 1) * ExactScalar(1, -1)) == ExactScalar(2)
    assert ExactScalar(1, 1) / ExactScalar(1, -1) == I
    assert ExactScalar(Fraction(1, 2)) * 2 == ExactScalar(1)
    assert -ExactScalar(1, -2) == ExactScalar(-1, 2)
    assert ExactScalar(3, 4).conjugate() == ExactScalar(3, -4)


def test_scalar_predicates():
    assert ExactScalar(0).is_zero()
    assert ExactScalar(3).is_real() and ExactScalar(3).is_integer()
    assert not I.is_real()
    assert not ExactScalar(Fraction(1, 2)).is_integer()
    assert ExactScalar(-7).as_integer() == -7
    with pytest.raises(ValueError):
        ExactScalar(Fraction(1, 2)).as_integer()


def test_scalar_rendering():
    cases = {
        ExactScalar(3): "3",
        ExactScalar(Fraction(-1, 2)): "-1/2",
        ExactScalar(0): "0",
        I: "i",
        ExactScalar(0, 2): "2i",
        ExactScalar(1, 1): "1+i",
        ExactScalar(1, -1): "1-i",
        ExactScalar(-2, -3): "-2-3i",
    }
    for scalar, text in cases.items():
        assert str(scalar) == text


def test_scalar_json_roundtrip():
    samples = [
        ExactScalar(0),
        ExactScalar(5),
        ExactScalar(-2),
        ExactScalar(Fraction(3, 4)),
        I,
        -I,
        ExactScalar(1, 1),
        ExactScalar(Fraction(-1, 2), Fraction(5, 3)),
    ]
    for s in samples:
        assert ExactScalar.from_json(s.to_json()) == s
    # integral values serialize as plain ints
    assert ExactScalar(7).to_json() == 7
    assert ExactScalar(-1).to_json() == -1
    with pytest.raises(ValueError):
        ExactScalar.from_json("spam")


# -- class functions ----------------------------------------------------


def test_class_function_algebra(g32, table):
    trivial = table.trivial()
    chi = table.rows[table.indices_of_degree(2)[0]]
    assert (trivial + chi).at_identity() == ExactScalar(3)
    assert (chi - chi).values == tuple(ExactScalar(0) for _ in chi.values)
    assert (chi * 2).at_identity() == ExactScalar(4)
    assert (2 * chi) == chi * 2
    assert (-chi).at_identity() == ExactScalar(-2)
    assert chi.conjugate() == chi  # the table is real
    assert chi.value_at(g32.identity()) == chi.at_identity()


def test_class_function_rejects_mismatched_groups(g32, table):
    other = cyclic2()
    f = ClassFunction(other, (ExactScalar(1), ExactScalar(1)))
    with pytest.raises(ValueError):
        table.trivial() + f
    with pytest.raises(ValueError):
        ClassFunction(g32, (ExactScalar(1),))


def test_row_orthonormality(table):
    for i, chi in enumerate(table.rows):
        for j, psi in enumerate(table.rows):
            expected = ExactScalar(1 if i == j else 0)
            assert inner_product(chi, psi) == expected
    assert table.verify_orthogonality()


# -- table computation --------------------------------------------------


def test_basis_change_conjugates_the_action():
    assert _mat_mul(BASIS, BASIS_INV) == _mat_identity(4)
    assert (
        family_member(4, 1, BASIS, BASIS_INV).spec.action
        != family_member(4, 1).spec.action
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: family_member(3, 0),
        d4,
        build_g32_27,
        lambda: family_member(4, 2),
        lambda: family_member(4, 1, BASIS, BASIS_INV),
        lambda: family_member(5, 2),
    ],
    ids=["q-rank-0", "d4", "g32-27", "n4q2", "n4q1-conjugated", "n5q2-order-128"],
)
def test_little_group_table_invariants(make):
    g = make()
    table = compute_character_table(g)
    assert len(table.rows) == len(g.conjugacy_classes())
    assert sum(d * d for d in table.degrees) == g.order
    assert all(v.is_integer() for row in table.rows for v in row.values)
    assert len(table.linear_indices()) == abelianization_order(g)
    assert table.verify_orthogonality()


def test_n4q2_has_degree_four_rows():
    assert compute_character_table(family_member(4, 2)).indices_of_degree(4)


def test_d4_grid_is_pinned():
    g = d4()
    assert [c.size for c in g.conjugacy_classes()] == [1, 1, 2, 2, 2]
    grid = [[v.to_json() for v in row.values] for row in compute_character_table(g).rows]
    assert grid == [
        [1, 1, -1, -1, 1],
        [1, 1, -1, 1, -1],
        [1, 1, 1, -1, -1],
        [1, 1, 1, 1, 1],
        [2, -2, 0, 0, 0],
    ]


def _with_row(table, i, row):
    rows = list(table.rows)
    rows[i] = row
    return CharacterTable(group=table.group, rows=tuple(rows))


def test_orthogonality_rejects_a_sign_flip(table):
    row = table.rows[0]
    flipped = ClassFunction(table.group, row.values[:-1] + (-row.values[-1],))
    assert not _with_row(table, 0, flipped).verify_orthogonality()


def test_orthogonality_rejects_a_halved_row(table):
    assert not _with_row(table, 3, table.rows[3] * Fraction(1, 2)).verify_orthogonality()


def test_orthogonality_rejects_a_dropped_row(table):
    short = CharacterTable(group=table.group, rows=table.rows[:-1])
    assert not short.verify_orthogonality()


def test_table_shape(table):
    assert sorted(table.degrees) == [1] * 8 + [2] * 6
    assert sum(d * d for d in table.degrees) == 32
    assert table.is_real()
    assert len(table.linear_indices()) == 8
    assert len(table.indices_of_degree(2)) == 6
    assert table.rows[table.trivial_index()].values == tuple(
        ExactScalar(1) for _ in range(14)
    )


def test_table_memoized(g32):
    assert compute_character_table(g32) is compute_character_table(g32)


def test_cyclic_table():
    table = compute_character_table(cyclic2())
    grid = [[v.to_json() for v in row.values] for row in table.rows]
    # canonical row order sorts by values, so the sign row precedes the
    # all-ones trivial row
    assert grid == [[1, -1], [1, 1]]
    assert table.trivial_index() == 1


def test_elementary_abelian_cube_table():
    g = build_group(
        GroupSpec(
            n_rank=3,
            q_rank=0,
            action=(),
            generator_names=(
                ("a", ((1, 0, 0), ())),
                ("b", ((0, 1, 0), ())),
                ("c", ((0, 0, 1), ())),
            ),
        )
    )
    table = compute_character_table(g)
    assert table.degrees == (1,) * 8
    assert table.verify_orthogonality()
    for row in table.rows:
        assert all(v.to_json() in (1, -1) for v in row.values)


def test_quaternion_like_twist_table():
    # a nonabelian order-8 check: Z4 acting is out of scope, but D4 fits
    g = d4()
    assert g.order == 8
    table = compute_character_table(g)
    assert sorted(table.degrees) == [1, 1, 1, 1, 2]
    assert table.verify_orthogonality()


# -- decomposition ------------------------------------------------------


def test_decompose_rows_are_unit_vectors(table):
    for i, chi in enumerate(table.rows):
        mults = decompose(chi, table)
        assert mults == tuple(1 if j == i else 0 for j in range(14))


def test_linear_combination_roundtrip(table):
    mults = tuple(range(14))
    f = linear_combination(table, mults)
    assert decompose(f, table) == mults


def test_decompose_rejects_non_characters(g32, table):
    delta = ClassFunction(
        g32,
        tuple(ExactScalar(1 if i == 0 else 0) for i in range(14)),
    )
    with pytest.raises(ValueError, match="not integral"):
        decompose(delta, table)


# -- reference fixture and alignment ------------------------------------


def test_reference_fixture_shape(ref):
    assert len(ref.class_reps) == 14
    assert len(ref.matrix) == 14
    assert all(len(row) == 14 for row in ref.matrix)
    assert ref.class_sizes == (1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4)
    for rep, members in zip(ref.class_reps, ref.class_members):
        assert rep in members


def test_reference_column_map(g32, ref):
    col = reference_column_map(g32, ref)
    assert sorted(col) == list(range(14))
    classes = g32.conjugacy_classes()
    for j, members in enumerate(ref.class_members):
        resolved = {
            g32.evaluate_word(() if w == "1" else tuple(w.split("*")))
            for w in members
        }
        assert resolved == set(classes[col[j]].elements)


def test_alignment_is_exact(table, ref, perms):
    row_perm, col_perm = perms
    assert sorted(row_perm) == list(range(14))
    assert sorted(col_perm) == list(range(14))
    for i in range(14):
        for j in range(14):
            assert table.rows[row_perm[i]].values[col_perm[j]] == ref.matrix[i][j]
    # the published table leads with the trivial character
    assert row_perm[0] == table.trivial_index()


def test_alignment_failure_is_detected(table, ref):
    bad_matrix = [list(row) for row in ref.matrix]
    bad_matrix[5][3] = ExactScalar(7)
    bad = ReferenceTable(
        group_name=ref.group_name,
        class_reps=ref.class_reps,
        class_members=ref.class_members,
        class_sizes=ref.class_sizes,
        matrix=tuple(tuple(row) for row in bad_matrix),
    )
    with pytest.raises(AlignmentError):
        align_to_reference(table, bad)


def test_reference_loader_default_matches_packaged(ref):
    again = load_reference_table()
    assert again.matrix == ref.matrix
    assert again.class_members == ref.class_members


# -- cache serialization ------------------------------------------------


def test_cache_roundtrip(g32, table):
    payload = table_to_cache_dict(table)
    assert payload["spec_hash"] == g32.spec.content_hash()
    loaded = table_from_cache_dict(g32, payload)
    assert loaded.rows == table.rows
    assert loaded.verify_orthogonality()


def test_cache_rejects_wrong_group(g32, table):
    payload = table_to_cache_dict(table)
    payload["spec_hash"] = "0" * 64
    with pytest.raises(ValueError, match="different group spec"):
        table_from_cache_dict(g32, payload)


def test_cache_rejects_malformed_payload(g32):
    with pytest.raises(ValueError, match="unsupported cache format"):
        table_from_cache_dict(g32, {"format": "nonsense"})
