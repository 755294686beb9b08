import json
import random
from fractions import Fraction

import pytest

from qslab.builtin import build_g32_27
from qslab.characters import (
    CACHE_FORMAT,
    AlignmentError,
    CharacterTable,
    ClassFunction,
    ExactScalar,
    ReferenceTable,
    align_to_reference,
    compute_character_table,
    decompose,
    inner_product,
    load_reference_table,
    reference_column_map,
    table_from_cache_dict,
    _is_diagonal_gram,
    _lane_width,
    _pack,
)

from members import bidiagonal_basis, d4, elementary_abelian, twisted_member
from oracles import _mat_identity, _mat_mul, abelianization_order, gram_oracle


# -- scalars ------------------------------------------------------------


def test_scalar_arithmetic():
    # products are plain ints; a class function re-wraps them on scaling
    assert ExactScalar(-1) * ExactScalar(-1) == 1
    assert type(ExactScalar(3) * 2) is int and ExactScalar(3) * 2 == 6
    assert ExactScalar(3) * Fraction(1, 2) == Fraction(3, 2)


def test_scalar_predicates():
    x = ExactScalar(-7)
    assert x == -7 and isinstance(x, int)
    # re and im: the reading kept for callers written against a + bi values
    assert (x.re, x.im) == (-7, 0) and type(x.re) is int
    with pytest.raises(ValueError, match="is not a rational integer"):
        ExactScalar(Fraction(1, 2))


def test_scalar_rendering():
    for n in (3, 0, -2):
        assert str(ExactScalar(n)) == repr(ExactScalar(n)) == str(n)


def test_scalar_json_roundtrip():
    samples = [ExactScalar(n) for n in (0, 5, -2)]
    assert json.loads(json.dumps(samples)) == samples
    assert json.dumps(samples, indent=1) == json.dumps([0, 5, -2], indent=1)
    for s in samples:
        assert int(s) == s and type(int(s)) is int


# -- class functions ----------------------------------------------------


def test_class_function_algebra(g32, table):
    chi = table.rows[table.indices_of_degree(2)[0]]
    assert (chi * 2).at_identity() == 4
    assert (chi * -1).values == tuple(-v for v in chi.values)
    assert all(type(v) is ExactScalar for v in (chi * -1).values)
    assert chi * 1 == chi and chi * 2 != chi


def test_class_function_rejects_mismatched_groups(g32, table):
    other = elementary_abelian(1)
    f = ClassFunction(other, (1, 1))
    with pytest.raises(ValueError):
        inner_product(table.rows[table.trivial_index()], f)
    with pytest.raises(ValueError):
        decompose(f, table)
    with pytest.raises(ValueError):
        ClassFunction(g32, (1,))


def test_row_orthonormality(table):
    for i, chi in enumerate(table.rows):
        for j, psi in enumerate(table.rows):
            assert inner_product(chi, psi) == (1 if i == j else 0)
    assert table.verify_orthogonality()


def test_inner_product_is_an_exact_integer():
    # <f, h> = (1/|G|) sum |K| f(K) h(K); conjugation fixes integer values
    g = elementary_abelian(1)
    f = ClassFunction(g, (3, 1))
    assert inner_product(f, ClassFunction(g, (1, 1))) == 2
    assert inner_product(f, ClassFunction(g, (1, -1))) == 1
    with pytest.raises(ValueError, match="inner product 3/2 is not integral"):
        inner_product(f, ClassFunction(g, (1, 0)))


# -- table computation --------------------------------------------------


def test_basis_change_conjugates_the_action():
    for k in (4, 5):
        assert _mat_mul(*bidiagonal_basis(k)) == _mat_identity(k)
    conjugated = twisted_member(4, 1, bidiagonal_basis(4))
    assert conjugated.spec.action != twisted_member(4, 1).spec.action


@pytest.mark.parametrize(
    "make",
    [
        lambda: twisted_member(3, 0),
        d4,
        build_g32_27,
        lambda: twisted_member(4, 2),
        lambda: twisted_member(4, 1, bidiagonal_basis(4)),
        lambda: twisted_member(5, 2),
    ],
    ids=["q-rank-0", "d4", "g32-27", "n4q2", "n4q1-conjugated", "n5q2-order-128"],
)
def test_little_group_table_invariants(make):
    g = make()
    table = compute_character_table(g)
    assert len(table.rows) == len(g.conjugacy_classes())
    assert sum(d * d for d in table.degrees) == g.order
    assert all(type(v) is ExactScalar for row in table.rows for v in row.values)
    assert len(table.linear_indices()) == abelianization_order(g)
    assert table.verify_orthogonality()


def test_n4q2_has_degree_four_rows():
    assert compute_character_table(twisted_member(4, 2)).indices_of_degree(4)


def test_d4_grid_is_pinned():
    g = d4()
    assert [c.size for c in g.conjugacy_classes()] == [1, 1, 2, 2, 2]
    grid = [list(row.values) for row in compute_character_table(g).rows]
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
    flipped = ClassFunction(table.group, row.values[:-1] + (row.values[-1] * -1,))
    assert not _with_row(table, 0, flipped).verify_orthogonality()


def test_orthogonality_rejects_a_halved_row(table):
    # a halved row cannot be built; a doubled one fails the check
    with pytest.raises(ValueError, match="is not a rational integer"):
        table.rows[3] * Fraction(1, 2)
    assert not _with_row(table, 3, table.rows[3] * 2).verify_orthogonality()


def test_orthogonality_rejects_a_dropped_row(table):
    short = CharacterTable(group=table.group, rows=table.rows[:-1])
    assert not short.verify_orthogonality()


# -- packed certification -----------------------------------------------


def relations(table):
    """(vectors, weights, diagonal) of the row and the column relation."""
    group = table.group
    sizes = [cls.size for cls in group.conjugacy_classes()]
    rows = [list(row.values) for row in table.rows]
    return [
        (rows, sizes, [group.order] * len(rows)),
        (
            [list(col) for col in zip(*rows)],
            [1] * len(rows),
            [group.order // s for s in sizes],
        ),
    ]


def integer_table(table, grid):
    return CharacterTable(
        group=table.group,
        rows=tuple(ClassFunction(table.group, tuple(row)) for row in grid),
    )


def perturbed(rng, vectors, weights, diagonal):
    vectors = [list(v) for v in vectors]
    diagonal = list(diagonal)
    i = rng.randrange(len(vectors))
    kind = rng.randrange(5)
    if kind == 0:  # one entry edited
        vectors[i][rng.randrange(len(vectors[i]))] += rng.choice([-3, -1, 1, 2])
    elif kind == 1:  # one vector scaled, with or without its diagonal
        c = rng.choice([-2, 2, 3])
        vectors[i] = [c * x for x in vectors[i]]
        diagonal[i] *= c * c if rng.randrange(2) else 1
    elif kind == 2:  # one diagonal entry moved
        diagonal[i] += rng.choice([-1, 1, 1 << rng.randrange(12)])
    elif kind == 3:  # one vector replaced by another's
        vectors[i] = list(vectors[rng.randrange(len(vectors))])
    return vectors, weights, diagonal  # kind 4: unchanged


@pytest.mark.parametrize(
    "make",
    [d4, build_g32_27, lambda: twisted_member(4, 2), lambda: twisted_member(5, 1)],
    ids=["d4", "g32-27", "n4q2", "n5q1"],
)
def test_packed_gram_matches_oracle(make):
    table = compute_character_table(make())
    rng = random.Random(f"gram:{table.group.order}:{len(table.rows)}")
    for vectors, weights, diagonal in relations(table):
        assert _is_diagonal_gram(vectors, weights, diagonal)
        for _ in range(40):
            case = perturbed(rng, vectors, weights, diagonal)
            assert _is_diagonal_gram(*case) == gram_oracle(*case)


def test_packed_gram_matches_oracle_on_random_matrices():
    rng = random.Random("gram:random")
    for _ in range(2000):
        n, length, top = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 5)
        vectors = [[rng.randint(-top, top) for _ in range(length)] for _ in range(n)]
        weights = [rng.randint(1, 4) for _ in range(length)]
        diagonal = [
            sum(w * x * x for w, x in zip(weights, v)) + rng.choice([0, 0, 1, -1])
            for v in vectors
        ]
        diagonal = [max(d, 0) for d in diagonal]
        assert _is_diagonal_gram(vectors, weights, diagonal) == gram_oracle(
            vectors, weights, diagonal
        )


def hadamard(size):
    h = [[1]]
    while len(h) < size:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def test_values_at_the_lane_bound_pass():
    # c * H8 with unit weights: every diagonal Gram entry is 8 c^2, which
    # is the bound sum_t w_t max|x|^2 itself
    c = 1000
    vectors = [[c * x for x in row] for row in hadamard(8)]
    weights, diagonal = [1] * 8, [8 * c * c] * 8
    width = _lane_width(vectors, weights, diagonal)
    assert 2 ** (width - 1) <= 8 * c * c < 2**width
    assert _is_diagonal_gram(vectors, weights, diagonal)
    diagonal[5] -= 1
    assert not _is_diagonal_gram(vectors, weights, diagonal)


def test_a_lane_one_bit_narrower_aliases():
    # Row i of the packed check compares the lanes c_j = G_ij - d_i delta_ij
    # with 0, and |c_j| can reach the bound L; B is the least width with
    # 2^B > L.  In B - 1 bits a lane at the bound carries into the next
    # lane, and the nonzero lanes (2^(B-1), -1) pack to 0.
    vectors = [[1, 1, 1, 1], [1, 1, 1, 1]]
    bound = 4  # sum_t w_t max|x|^2, reached by every Gram entry
    width = _lane_width(vectors, [1] * 4, [bound] * 2)
    assert 2 ** (width - 1) <= bound < 2**width
    lanes = [2 ** (width - 1), -1]
    assert max(map(abs, lanes)) <= bound
    assert _pack(lanes, width - 1) == 0
    assert _pack(lanes, width) != 0
    assert not _is_diagonal_gram(vectors, [1] * 4, [bound] * 2)


def test_orthogonality_rejects_an_imaginary_part(table):
    # i * chi satisfies both relations over Z[i]; it cannot be built
    with pytest.raises(ValueError, match="is not a rational integer"):
        table.rows[2] * 1j


def test_orthogonality_rejects_every_single_edit(table):
    grid = [list(row.values) for row in table.rows]
    assert integer_table(table, grid).verify_orthogonality()
    edits = 0
    for i, row in enumerate(grid):
        for j, x in enumerate(row):
            for y in {-x, x - 1, x + 1} - {x}:
                edited = [list(r) for r in grid]
                edited[i][j] = y
                assert not integer_table(table, edited).verify_orthogonality(), (i, j, y)
                edits += 1
    assert edits == 3 * 14 * 14 - sum(1 for row in grid for x in row if x == 0)


def test_table_shape(table):
    assert sorted(table.degrees) == [1] * 8 + [2] * 6
    assert sum(d * d for d in table.degrees) == 32
    assert len(table.linear_indices()) == 8
    assert len(table.indices_of_degree(2)) == 6
    assert table.rows[table.trivial_index()].values == (1,) * 14


def test_table_values_are_certified_once_per_group(monkeypatch):
    group = build_g32_27()
    calls = []
    verify = CharacterTable.verify_orthogonality

    def counted(self):
        calls.append(None)
        return verify(self)

    monkeypatch.setattr(CharacterTable, "verify_orthogonality", counted)
    first = compute_character_table(group)
    second = compute_character_table(group)
    # a new table object over the same certified values
    assert second is not first and second.group is first.group is group
    assert second.rows == first.rows
    assert all(
        x is y for a, b in zip(first.rows, second.rows) for x, y in zip(a.values, b.values)
    )
    assert len(calls) == 1
    compute_character_table(build_g32_27())
    assert len(calls) == 2


def test_cyclic_table():
    table = compute_character_table(elementary_abelian(1))
    grid = [list(row.values) for row in table.rows]
    # canonical row order sorts by values, so the sign row precedes the
    # all-ones trivial row
    assert grid == [[1, -1], [1, 1]]
    assert table.trivial_index() == 1


def test_elementary_abelian_cube_table():
    table = compute_character_table(elementary_abelian(3))
    assert table.degrees == (1,) * 8
    assert table.verify_orthogonality()
    for row in table.rows:
        assert all(v in (1, -1) for v in row.values)


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
    values = [
        sum(m * row.values[c] for m, row in zip(mults, table.rows))
        for c in range(14)
    ]
    f = ClassFunction(table.group, tuple(values))
    assert decompose(f, table) == mults


def test_decompose_rejects_non_characters(g32, table):
    delta = ClassFunction(g32, tuple(1 if i == 0 else 0 for i in range(14)))
    with pytest.raises(ValueError, match="not integral"):
        decompose(delta, table)


@pytest.mark.parametrize(
    "value", [Fraction(1, 2), 1j, 0.5, True, "1"], ids=["half", "i", "float", "bool", "str"]
)
def test_decompose_rejects_non_integer_values(g32, table, value):
    # a row with one value replaced: the class function refuses a value
    # outside Z when it is built, before any multiplicity is summed
    values = list(table.rows[3].values)
    values[-1] = value
    with pytest.raises(ValueError, match="is not a rational integer"):
        decompose(ClassFunction(g32, tuple(values)), table)


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
    bad_matrix[5][3] = 7
    bad = ReferenceTable(
        ref.group_name,
        ref.class_reps,
        ref.class_members,
        ref.class_sizes,
        tuple(tuple(row) for row in bad_matrix),
        ref.published,
    )
    with pytest.raises(AlignmentError):
        align_to_reference(table, bad)


def test_reference_loader_default_matches_packaged(ref):
    again = load_reference_table()
    assert again.matrix == ref.matrix
    assert again.class_members == ref.class_members
    assert all(type(v) is int for row in again.matrix for v in row)


@pytest.mark.parametrize("value", ["1+i", "1/2", True], ids=["gaussian", "half", "bool"])
def test_reference_loader_accepts_json_ints_only(tmp_path, value, published_record):
    published_record["rows"][2][5] = value
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(published_record))
    message = r"^reference row 2, column 5: .+ is not a rational integer$"
    with pytest.raises(ValueError, match=message):
        load_reference_table(path)


@pytest.mark.parametrize("size", [2.9, "2", True], ids=["float", "str", "bool"])
def test_reference_loader_refuses_non_int_sizes(tmp_path, size, published_record):
    published_record["classes"][4]["size"] = size
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(published_record))
    with pytest.raises(ValueError, match="is not a JSON integer"):
        load_reference_table(path)


# -- cache serialization ------------------------------------------------


@pytest.fixture
def payload(g32, table):
    """The bundled table as a cache payload: format, spec hash and value rows."""
    rows = [list(row.values) for row in table.rows]
    return {"format": CACHE_FORMAT, "spec_hash": g32.spec.content_hash(), "rows": rows}


def test_cache_roundtrip(g32, table, payload):
    loaded = table_from_cache_dict(g32, payload)
    assert loaded.rows == table.rows
    assert loaded.verify_orthogonality()


def test_cache_rejects_wrong_group(g32, payload):
    payload["spec_hash"] = "0" * 64
    with pytest.raises(ValueError, match="different group spec"):
        table_from_cache_dict(g32, payload)


def test_cache_rejects_malformed_payload(g32):
    with pytest.raises(ValueError, match="unsupported cache format"):
        table_from_cache_dict(g32, {"format": "nonsense"})


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: [p],
        lambda p: {k: v for k, v in p.items() if k != "rows"},
        lambda p: {**p, "rows": 5},
        lambda p: {**p, "rows": [5] * len(p["rows"])},
        lambda p: {**p, "rows": p["rows"][:-1]},
        lambda p: {**p, "rows": [row[:-1] for row in p["rows"]]},
        lambda p: {**p, "rows": [[1.0] + p["rows"][0][1:]] + p["rows"][1:]},
        lambda p: {**p, "rows": [["1+i"] + p["rows"][0][1:]] + p["rows"][1:]},
        lambda p: {**p, "rows": [["1/2"] + p["rows"][0][1:]] + p["rows"][1:]},
        lambda p: {**p, "rows": [[True] + p["rows"][0][1:]] + p["rows"][1:]},
    ],
    ids=[
        "list", "no-rows", "rows-int", "row-int", "row-count", "row-length", "float",
        "gaussian", "half", "bool",
    ],
)
def test_cache_malformed_payload_raises_value_error(g32, payload, corrupt):
    with pytest.raises(ValueError):
        table_from_cache_dict(g32, corrupt(payload))
