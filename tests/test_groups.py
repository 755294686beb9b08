import json
import random
from functools import partial
from itertools import product
from pathlib import Path

import pytest

import qslab.groups
from qslab.builtin import G32_27_SPEC, SUBGROUP_WORDS, build_g32_27, named_subgroup
from qslab.groups import (
    FiniteGroup,
    GroupElement,
    GroupSpec,
    GroupSpecError,
    GroupTooLargeError,
    Subgroup,
    _apply,
    _columns,
    build_group,
)

from members import (
    class3,
    d4,
    elementary_abelian,
    family_shape,
    n4q1_conjugated,
    n4q2,
    n5q1,
    n5q1_conjugated,
    n5q1_named,
    random_basis_change,
    seeded_member,
    transversal_witness,
    unit_coords,
    unit_plus,
)
from oracles import (
    _mat_apply,
    _mat_identity,
    _mat_mul,
    conjugacy_partition,
    coset_marking_walk,
    first_spec_refusal,
    index_bits_word,
    squaring_closure,
    squaring_walk,
    tuple_oracle,
)


GOLDEN = Path(__file__).parent / "golden"


def words(text):
    return () if text == "1" else tuple(text.split("*"))


# Pinned IDs, so test names do not follow the catalogue's names.
ORDER_64 = pytest.param(n5q1_named, id="order_64_member")
CONJUGATED = pytest.param(n4q1_conjugated, id="conjugated_member")


# (n_rank, q_rank, naming): orders 8 to 256, q_rank 0 and 3 included.
SEEDED_SHAPES = [
    (3, 0, "all"), (1, 2, "partial"), (2, 1, "none"), (3, 2, "all"),
    (4, 2, "partial"), (5, 2, "none"), (6, 2, "all"), (5, 3, "partial"), (8, 0, "none"),
]
SEEDED_MEMBERS = [
    pytest.param(partial(seeded_member, k, m, naming, seed), id=f"n{k}q{m}-{naming}-{seed}")
    for seed in range(2)
    for k, m, naming in SEEDED_SHAPES
]

# Every seeded member of order <= 64, and the four ``family`` shapes.
LATTICE_MEMBERS = [p for p in SEEDED_MEMBERS if sum(p.values[0].args[:2]) <= 6] + [
    pytest.param(partial(family_shape, k, m, twisted, 0), id=f"family-n{k}q{m}-{twisted}")
    for k, m, twisted in [(4, 1, True), (4, 1, False), (4, 2, True), (5, 1, True)]
]


# -- spec validation ----------------------------------------------------

SHEAR = ((1, 1), (0, 1))


def test_spec_validates():
    G32_27_SPEC.validate()
    assert build_group(G32_27_SPEC).order == 32


def test_spec_rejects_bad_ranks():
    with pytest.raises(GroupSpecError, match="n_rank"):
        GroupSpec(n_rank=0, q_rank=0, action=(), generator_names=()).validate()
    with pytest.raises(GroupSpecError, match="q_rank"):
        GroupSpec(n_rank=1, q_rank=-1, action=(), generator_names=()).validate()


def test_spec_rejects_wrong_matrix_count():
    with pytest.raises(GroupSpecError, match="matrices"):
        GroupSpec(2, 1, (), (("a", ((1, 0), (0,))),)).validate()
    # a malformed action is refused by field, not with a TypeError
    with pytest.raises(GroupSpecError, match="^action must be a sequence"):
        GroupSpec(1, 0, None, ()).validate()
    with pytest.raises(GroupSpecError, match="^action matrix 0 must be a sequence"):
        GroupSpec(1, 1, (5,), ()).validate()


def test_spec_rejects_non_involution():
    # the shear [[1,1],[0,1]] squares to the identity over F2, so use a
    # genuinely non-involutive matrix
    with pytest.raises(GroupSpecError, match="involution"):
        GroupSpec(2, 1, (((1, 1), (1, 0)),), (("a", ((1, 0), (0,))),)).validate()


def test_spec_rejects_non_commuting_matrices():
    swap = ((0, 1), (1, 0))
    with pytest.raises(GroupSpecError, match="commute"):
        GroupSpec(2, 2, (swap, SHEAR), (("a", ((1, 0), (0, 0))),)).validate()


def test_spec_rejects_bad_names():
    with pytest.raises(GroupSpecError, match="identifier"):
        GroupSpec(1, 0, (), (("not a name", ((1,), ())),)).validate()
    with pytest.raises(GroupSpecError, match="duplicate"):
        GroupSpec(1, 0, (), (("a", ((1,), ())), ("a", ((1,), ())))).validate()
    # malformed generator entries are refused by field, not with another error
    with pytest.raises(GroupSpecError, match="^generator name 5 is not an identifier"):
        GroupSpec(1, 0, (), ((5, ((0,), ())),)).validate()
    with pytest.raises(GroupSpecError, match=r"^generator_names entry \('a',\) is not"):
        GroupSpec(1, 0, (), (("a",),)).validate()
    with pytest.raises(GroupSpecError, match="^generator_names must be a sequence"):
        GroupSpec(1, 0, (), None).validate()


def same_spec(a, b):
    return a == b and hash(a) == hash(b) and a.content_hash() == b.content_hash()


def test_generator_bits_are_read_as_validated():
    # each bit is read with int(), so True and 1.0 name bit 1, and the spec
    # keeps the int spelling
    names = (("a", ((True, 0), (0,))), ("b", ((0, 1.0), (0,))), ("c", ((0, 0), (1,))))
    spec = GroupSpec(2, 1, (_mat_identity(2),), names)
    ints = (("a", ((1, 0), (0,))), ("b", ((0, 1), (0,))), ("c", ((0, 0), (1,))))
    assert same_spec(spec, GroupSpec(2, 1, (_mat_identity(2),), ints))
    assert spec.generator_names == ints and type(spec.generator_names[0][1][0][0]) is int
    group = build_group(spec)
    assert [group.generator(n).index for n in "abc"] == [0b10_0, 0b01_0, 0b00_1]
    assert group.generator("a").word() == "a"


@pytest.mark.parametrize("one", [1.0, "1", True])
def test_action_entries_are_read_as_validated(one):
    # an action entry follows the int() rule of a generator bit
    GroupSpec(1, 1, (((one,),),), ()).validate()
    names = (("a", ((1, 0), (0,))), ("b", ((0, 1), (0,))), ("c", ((0, 0), (1,))))
    loose = tuple(tuple(one if b else 0 for b in row) for row in SHEAR)
    assert same_spec(GroupSpec(2, 1, (loose,), names), GroupSpec(2, 1, (SHEAR,), names))
    strict, lax = (
        [[x.index for x in c.elements] for c in build_group(spec).conjugacy_classes()]
        for spec in (GroupSpec(2, 1, (SHEAR,), names), GroupSpec(2, 1, (loose,), names))
    )
    assert strict == lax and len(strict) == 5


def test_list_coordinates_give_the_tuple_spec():
    tight = GroupSpec(1, 0, (), (("a", ((1,), ())),))
    spec = GroupSpec(1, 0, (), (("a", ([1], ())),))
    assert same_spec(spec, tight) and spec.generator_names == (("a", ((1,), ())),)
    assert build_group(spec).generator("a").index == 1
    lists = GroupSpec(2, 1, [[[1, 1], [0, 1]]], [["a", [[1, 0], [0]]]])
    assert same_spec(lists, GroupSpec(2, 1, (SHEAR,), (("a", ((1, 0), (0,))),)))


# Named regressions: a string or bytes in place of a sequence is refused by
# field.  Read a character at a time, it escaped from the build as a
# TypeError, or built a group whose spec differs from its int spelling.
STRING_SEQUENCES = [
    pytest.param((1, 0, (), (("a", (b"\x01", ())),)), "generator a n-part", id="bytes-coordinate"),
    pytest.param((1, 0, (), (("a", ("1", ())),)), "generator a n-part", id="str-coordinate"),
    pytest.param((2, 1, (SHEAR,), (("a", ((1, 0), "0")),)), "generator a q-part", id="str-q-part"),
    pytest.param((2, 1, (("11", "01"),), ()), "action matrix 0 row", id="str-action-row"),
    pytest.param((1, 1, ("1",), ()), "action matrix 0", id="str-action-matrix"),
    pytest.param((1, 0, "", ()), "action", id="str-action"),
    pytest.param((1, 0, (), b""), "generator_names", id="bytes-generator-names"),
]


@pytest.mark.parametrize("args, field", STRING_SEQUENCES)
def test_spec_refuses_a_string_for_a_sequence(args, field):
    with pytest.raises(GroupSpecError, match=f"^{field} must "):
        build_group(GroupSpec(*args))


# int() truncates, so 0.7 and 1.5 must be refused rather than read as bits,
# and int(inf) raises OverflowError
@pytest.mark.parametrize("bad", [2, "x", None, 0.7, 1.5, float("inf")])
def test_spec_rejects_non_bit_action_entries(bad):
    with pytest.raises(GroupSpecError, match="action matrix 0 row"):
        GroupSpec(2, 1, (((1, bad), (0, 1)),), ()).validate()
    with pytest.raises(GroupSpecError, match="generator a n-part"):
        GroupSpec(2, 1, (SHEAR,), (("a", ((bad, 0), (0,))),)).validate()


# Values an edit puts in place of a rank, a bit or a whole container.
FUZZ_VALUES = [
    0, 1, 2, -1, 0.7, 1.0, True, "1", "0", "x", None, float("inf"), b"1", "", "11", (), [], {0},
]


def thaw(value):
    """``value`` with every tuple made a list, so that an edit can change it in place."""
    return [thaw(v) for v in value] if isinstance(value, tuple) else value


def fuzz_edit(rng, fields):
    """One seeded edit of the nested lists ``fields``: a rank, bit or container
    replaced, a bit spelled another way, or a container shortened, lengthened
    or spelled as a tuple or string."""
    slots, stack = [], [fields]
    while stack:
        node = stack.pop()
        slots += [(node, i) for i in range(len(node))]
        stack += [v for v in node if isinstance(v, list)]
    node, i = rng.choice(slots)
    value = node[i]
    edits = [lambda: rng.choice(FUZZ_VALUES)]
    if type(value) is int:
        edits.append(lambda: value + rng.choice((-1, 1)))
        edits += [lambda: rng.choice((float(value), bool(value), str(value)))] * 3
    if isinstance(value, list):
        edits += [
            lambda: value[:-1],
            lambda: value + value[-1:],
            lambda: tuple(value),
            lambda: "".join(map(str, value)),
        ]
    node[i] = rng.choice(edits)()


def fields_of(spec):
    return spec.n_rank, spec.q_rank, spec.action, spec.generator_names


def tuples_of_bits(value):
    if isinstance(value, tuple):
        return all(map(tuples_of_bits, value))
    return type(value) is int and value in (0, 1)


def test_edited_specs_build_or_are_refused():
    bases = [G32_27_SPEC] + [
        build().spec
        for build in (
            d4, class3, transversal_witness, partial(elementary_abelian, 3),
            partial(seeded_member, 3, 2, "partial", 0), partial(seeded_member, 2, 1, "none", 1),
        )
    ]
    rng = random.Random("spec-fuzz")
    outcomes = []
    for case in range(400):
        fields = thaw(fields_of(bases[case % len(bases)]))
        for _ in range(rng.randint(1, 2)):
            fuzz_edit(rng, fields)
        try:
            spec = GroupSpec(*fields)
            group = build_group(spec)
        except (GroupSpecError, GroupTooLargeError):
            outcomes.append(False)
            continue
        outcomes.append(True)
        assert same_spec(GroupSpec(*fields_of(spec)), spec)
        assert tuples_of_bits(spec.action) and type(spec.generator_names) is tuple
        assert all(
            type(e) is tuple and type(e[0]) is str and tuples_of_bits(e[1])
            for e in spec.generator_names
        )
        assert group.order == 1 << (spec.n_rank + spec.q_rank)
    assert min(outcomes.count(True), outcomes.count(False)) > 100


def bits_of(vec, k):
    return tuple(int(b) for b in format(vec, f"0{k}b"))


def seeded_involutions(rng, k):
    """Six involutions of F2^k: two groups of three, B (I + N) B^-1 with one
    basis B and one support R x C (R and C disjoint) per group, so each N N' is
    0 and the three commute."""
    out = []
    for _ in range(2):
        b, b_inv = random_basis_change(rng, k)
        coords = rng.sample(range(k), k)
        cut = rng.randrange(1, k) if k > 1 else 1
        for _ in range(3):
            cells = {(r, c) for r in coords[:cut] for c in coords[cut:] if rng.randrange(2)}
            out.append(_mat_mul(_mat_mul(b, unit_plus(k, cells)), b_inv))
    return out


@pytest.mark.parametrize("k", range(1, 7))
def test_column_helpers_match_the_bit_tuple_product(k):
    rng = random.Random(f"f2-apply:{k}")
    for _ in range(4):
        mat = tuple(tuple(rng.randrange(2) for _ in range(k)) for _ in range(k))
        cols = _columns(mat)
        for vec in range(1 << k):
            assert bits_of(_apply(cols, vec), k) == _mat_apply(mat, bits_of(vec, k))


def refusal(*action):
    try:
        GroupSpec(len(action[0]), len(action), action, ())
    except GroupSpecError as exc:
        return str(exc)
    return None


def test_involution_and_commutation_refusals_match_matrix_products():
    seen = set()
    for k in range(1, 7):
        for seed in range(4):
            rng = random.Random(f"f2-refusals:{k}:{seed}")
            involutions = seeded_involutions(rng, k)
            flipped = []
            for mat in involutions:
                r, c = rng.randrange(k), rng.randrange(k)
                rows = [list(row) for row in mat]
                rows[r][c] ^= 1
                flipped.append(tuple(map(tuple, rows)))
            noise = [tuple(tuple(rng.randrange(2) for _ in range(k)) for _ in range(k))]
            for mat in involutions + flipped + noise:
                square = _mat_mul(mat, mat) != _mat_identity(k)
                assert (refusal(mat) == "action matrix 0 is not an involution") == square
                seen.add(("involution", square))
            for i, a in enumerate(involutions):
                for b in involutions[i:]:
                    differ = _mat_mul(a, b) != _mat_mul(b, a)
                    assert (refusal(a, b) == "action matrices 0 and 1 do not commute") == differ
                    seen.add(("commute", differ))
    assert len(seen) == 4


def test_refusals_name_the_first_failing_matrix_or_pair():
    # lists drawn from the 22 involutions of F2^3 (the identity among them),
    # with repeats, and now and then any 3x3 matrix
    every = [tuple(zip(*[iter(bits)] * 3)) for bits in product((0, 1), repeat=9)]
    involutions = [mat for mat in every if _mat_mul(mat, mat) == _mat_identity(3)]
    assert len(involutions) == 22
    rng = random.Random("f2-first-pair")
    outcomes = set()
    for _ in range(3000):
        action = [rng.choice(involutions) for _ in range(rng.randint(1, 8))]
        if rng.randrange(8) == 0:
            action[rng.randrange(len(action))] = rng.choice(every)
        want = first_spec_refusal(action)
        assert refusal(*action) == want, action
        outcomes.add(want.split()[1] if want else None)
    assert outcomes == {None, "matrix", "matrices"}


def test_copies_of_one_matrix_are_checked_once(monkeypatch):
    # 2000 copies of the swap matrix: one involution check of two columns
    # and no commutation check (each pair once would be about 8 million)
    calls = []

    def counted(cols, vec):
        calls.append(vec)
        return _apply(cols, vec)

    monkeypatch.setattr(qslab.groups, "_apply", counted)
    swap, shear = ((0, 1), (1, 0)), ((1, 0), (1, 1))
    spec = GroupSpec(2, 2000, [swap] * 2000, ())
    assert spec.action == (swap,) * 2000
    assert len(calls) <= 2
    calls.clear()
    assert refusal(*[swap] * 2000, shear) == "action matrices 0 and 2000 do not commute"
    # two involution checks, then the one distinct pair, both ways round
    assert len(calls) <= 2 + 2 + 2 * 2


def test_build_rejects_huge_groups():
    with pytest.raises(GroupTooLargeError):
        elementary_abelian(11)
    for rank in (20000, 10**18):  # refused from the ranks: 2^rank is never formed
        with pytest.raises(GroupTooLargeError, match=rf"^group order 2\^{rank} exceeds"):
            build_group(GroupSpec(rank, 0, (), ()))


# -- element arithmetic -------------------------------------------------


def test_generator_indices(g32):
    # element index packs the coordinate bits, n-part high to low then q-part
    assert g32.index(g32.generator("g1")) == 1
    assert g32.index(g32.generator("g5")) == 2
    assert g32.index(g32.generator("g4")) == 4
    assert g32.index(g32.generator("g3")) == 8
    assert g32.index(g32.generator("g2")) == 16


def test_semidirect_twist(g32):
    g1 = g32.generator("g1")
    g2 = g32.generator("g2")
    prod = g1 * g2
    # (0, f1)(e1, 0) = (Phi_f1(e1), f1) = ((1, 0, 1, 0), (1,))
    assert prod.index == 0b1010_1 and prod.word() == "g2*g4*g1"
    assert prod.order() == 4
    # the defining relations: conjugation by g1 shifts g2 and g3
    g3, g4, g5 = (g32.generator(n) for n in ("g3", "g4", "g5"))
    assert g1.inverse() * g2 * g1 == g2 * g4
    assert g1.inverse() * g3 * g1 == g3 * g5
    for central in (g4, g5):
        for gen in (g1, g2, g3):
            assert central * gen == gen * central


def test_inverse_and_identity(g32):
    e = g32.identity()
    assert e.is_identity() and e.order() == 1
    for g in g32.elements:
        assert g * g.inverse() == e
        assert g.inverse() * g == e
        assert (g * e) == g and (e * g) == g


def test_element_orders(g32):
    assert g32.exponent() == 4
    counts = {}
    for g in g32.elements:
        counts[g.order()] = counts.get(g.order(), 0) + 1
    # 19 involutions: 15 in the normal part plus the 4 twisted elements
    # whose n-part the action fixes
    assert counts == {1: 1, 2: 19, 4: 12}
    # every order is read off the square; compare with repeated multiplication
    for param in SEEDED_MEMBERS:
        group = param.values[0]()
        mul = group._mul
        for a in range(group.order):
            acc, o = a, 1
            while acc != 0:
                acc = mul[acc][a]
                o += 1
            assert group._orders[a] == o


def test_word_roundtrip(g32):
    for g in g32.elements:
        assert g32.evaluate_word(words(g.word())) == g
    assert g32.identity().word() == "1"
    with pytest.raises(KeyError):
        g32.evaluate_word(("g9",))


def test_foreign_elements_rejected(g32):
    other = elementary_abelian(1)
    with pytest.raises(ValueError, match="different group"):
        g32.index(other.identity())
    with pytest.raises(ValueError, match="different group"):
        g32.generator("g2") * other.identity()
    # a second build of the same spec is interchangeable
    twin = build_group(G32_27_SPEC)
    assert g32.index(twin.generator("g2")) == 16
    product = g32.generator("g2") * twin.generator("g4")
    assert product.group is g32 and product.word() == "g2*g4"


def test_element_is_its_index(g32):
    for i, g in enumerate(g32.elements):
        assert vars(g) == {"group": g32, "index": i}
        assert g.index == g32.index(g) == i
        assert g == GroupElement(g32, i) and hash(g) == hash(GroupElement(g32, i))
        assert g.is_identity() == (i == 0)
    assert GroupElement(g32, 3) != GroupElement(g32, 5)


@pytest.mark.parametrize("build", [build_g32_27, ORDER_64, *SEEDED_MEMBERS])
def test_multiplication_table_matches_tuple_formula(build):
    group = build()
    coords, index, phi = tuple_oracle(group)
    image = {(n, q): _mat_apply(phi[q], n) for n, q in coords}
    for a, (n1, q1) in enumerate(coords):
        for b, (n2, q2) in enumerate(coords):
            n3 = tuple(x ^ y for x, y in zip(n1, image[(n2, q1)]))
            q3 = tuple(x ^ y for x, y in zip(q1, q2))
            assert group._mul[a][b] == index[(n3, q3)]
        assert group._inv[a] == index[(image[(n1, q1)], q1)]


@pytest.mark.parametrize("build", SEEDED_MEMBERS)
def test_basis_and_words_match_tuple_oracle(build):
    group = build()
    spec = group.spec
    _, index, _ = tuple_oracle(group)
    basis = group.basis_generators()
    assert [g.index for g in basis] == [index[c] for c in unit_coords(spec.n_rank, spec.q_rank)]
    assert group.subgroup_closure(basis).order == group.order
    for name, coord in spec.generator_names:
        assert group.generator(name).index == index[coord]
    assert [g.word() for g in group.elements] == [
        index_bits_word(group, i) for i in range(group.order)
    ]
    for g in group.elements:
        if "(" not in g.word():
            assert group.evaluate_word(words(g.word())) == g


@pytest.mark.parametrize(
    "build",
    [
        build_g32_27,
        ORDER_64,
        CONJUGATED,
        partial(seeded_member, 3, 2, "all", 0),
        partial(seeded_member, 4, 2, "partial", 1),
    ],
)
def test_every_word_is_built_from_its_index_bits(build):
    group = build()
    assert "_words" not in vars(group)
    assert [g.word() for g in group.elements] == [
        index_bits_word(group, i) for i in range(group.order)
    ]
    table = group._words
    assert group.element(group.order - 1).word() and group._words is table


def test_twin_builds_give_the_same_words(g32):
    # a second build of the same spec is interchangeable, and so is a build
    # of G(32,27) spelled with list rows and string bits
    spec = G32_27_SPEC
    spelled = GroupSpec(
        spec.n_rank,
        spec.q_rank,
        [[list(map(str, row)) for row in mat] for mat in spec.action],
        [[name, [list(map(str, n)), list(map(str, q))]] for name, (n, q) in spec.generator_names],
    )
    for twin in (build_g32_27(), build_group(spelled)):
        assert twin.element(0b10100).word() == g32.element(0b10100).word() == "g2*g4"
        assert [g.word() for g in twin.elements] == [g.word() for g in g32.elements]
        assert g32.index(twin.generator("g2")) == 16


@pytest.mark.parametrize("index", [-1, -32, 32, 10**6])
def test_element_refuses_indices_out_of_range(g32, index):
    # the constructor itself refuses, so no element outside the group exists
    for build in (g32.element, partial(GroupElement, g32)):
        with pytest.raises(IndexError, match=rf"^element index {index} is outside 0\.\.31$"):
            build(index)
    assert g32.element(31).index == GroupElement(g32, 31).index == 31


def test_unnamed_words_are_pinned():
    assert n4q1_conjugated().element(0b0010_1).word() == "(0010|1)"
    assert seeded_member(3, 2, "none", 0).element(0b101_10).word() == "(101|10)"
    assert seeded_member(3, 0, "none", 0).element(0b101).word() == "(101|)"
    # one basis name missing: every word falls back to the bit form
    names = (("a", ((1, 0), (0,))), ("c", ((0, 0), (1,))))
    partly_named = GroupSpec(2, 1, (_mat_identity(2),), names)
    assert build_group(partly_named).element(0b11_1).word() == "(11|1)"
    names = (("a", ((1,), (0,))), ("b", ((1,), (0,))), ("c", ((0,), (1,))))
    shared = GroupSpec(1, 1, (_mat_identity(1),), names)
    assert [g.word() for g in build_group(shared).elements] == ["1", "c", "b", "b*c"]


# -- conjugacy classes --------------------------------------------------


def test_class_structure(g32):
    classes = g32.conjugacy_classes()
    assert len(classes) == 14
    assert sorted(c.size for c in classes) == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4]
    assert sum(c.size for c in classes) == 32
    reps = [c.representative.word() for c in classes]
    assert reps == [
        "1", "g5", "g4", "g4*g5", "g3", "g3*g4", "g2", "g2*g5",
        "g2*g3", "g2*g3*g5", "g1", "g3*g1", "g2*g1", "g2*g3*g1",
    ]
    for i, cls in enumerate(classes):
        assert cls.index == i
        assert cls.representative in cls.elements
        for g in cls.elements:
            assert g32.class_index_of(g) == i
            assert g.order() == cls.representative.order()


def test_classes_closed_under_conjugation(g32):
    for cls in g32.conjugacy_classes():
        members = set(cls.elements)
        for g in cls.elements:
            for h in g32.elements:
                assert h.inverse() * g * h in members


# Every named member of the catalogue, then the seeded and ``family`` ones.
CATALOGUE = [
    pytest.param(build, id=name)
    for name, build in [
        ("g32_27", build_g32_27),
        ("c2_cubed", partial(elementary_abelian, 3)),
        ("d4", d4),
        ("n5q1", n5q1),
        ("n5q1_named", n5q1_named),
        ("n5q1_conjugated", n5q1_conjugated),
        ("n4q1_conjugated", n4q1_conjugated),
        ("n4q2", n4q2),
        ("class3", class3),
        ("transversal_witness", transversal_witness),
    ]
] + LATTICE_MEMBERS


@pytest.mark.parametrize("build", CATALOGUE)
def test_classes_match_the_conjugation_oracle(build):
    group = build()
    classes = group._partition
    assert {frozenset(c) for c in classes} == conjugacy_partition(group)
    assert all(list(c) == sorted(c) for c in classes)
    # canonical order: representative order, then size, then least index
    keys = [(group.element(c[0]).order(), len(c), c[0]) for c in classes]
    assert keys == sorted(keys)


@pytest.mark.parametrize("build", [build_g32_27, ORDER_64])
def test_class_of_is_built_on_first_read(build):
    # read before anything else: the partition is built for it
    group = build()
    assert "_partition" not in vars(group)
    class_of = group._class_of
    assert group._class_of is class_of
    for ci, members in enumerate(group._partition):
        assert {class_of[x] for x in members} == {ci}
    assert len(class_of) == group.order


# -- subgroups ----------------------------------------------------------


def test_subgroup_closure(g32):
    g2 = g32.generator("g2")
    sub = g32.subgroup_closure([g2])
    assert sub.order == 2
    assert g2 in sub and g32.identity() in sub
    whole = g32.subgroup_closure(g32.basis_generators())
    assert whole.order == 32
    h = named_subgroup(g32, "H")
    assert h.order == 4
    assert sorted(g.word() for g in h.elements) == ["1", "g2*g4*g5", "g2*g5", "g4"]


def test_right_transversal(g32):
    h = named_subgroup(g32, "H1")
    reps = g32.right_transversal(h)
    assert len(reps) == 32 // h.order
    assert reps[0].is_identity()
    seen = set()
    for r in reps:
        coset = frozenset(g32.index(x * r) for x in h.elements)
        assert coset not in seen
        seen.add(coset)
    assert len(seen) == len(reps)


def test_right_cosets_are_labelled_once_per_subgroup(g32):
    h = named_subgroup(g32, "H1")
    assert "_cosets" not in vars(h)
    labels = h._cosets
    assert h._cosets is labels and labels == g32._right_cosets(h)
    assert g32.right_transversal(h) == tuple(g32.element(e) for e in labels[0])
    again = g32.subgroup_closure(h.elements)
    assert again == h and again._cosets == labels and again._cosets is not labels


def test_center(g32):
    center = g32.center()
    assert sorted(g.word() for g in center.elements) == ["1", "g4", "g4*g5", "g5"]
    assert g32.is_normal(center)


def test_normality(g32):
    assert not g32.is_normal(g32.subgroup_closure([g32.generator("g2")]))
    for name in SUBGROUP_WORDS:
        sub = named_subgroup(g32, name)
        conj_closed = all(
            h.inverse() * x * h in sub for x in sub.elements for h in g32.elements
        )
        assert g32.is_normal(sub) == conj_closed


def test_minimal_generators(g32):
    whole = g32.subgroup_closure(g32.basis_generators())
    assert len(g32.minimal_generators(whole)) == 3
    assert len(g32.minimal_generators(g32.center())) == 2
    assert len(g32.minimal_generators(g32.subgroup_closure([g32.generator("g5")]))) == 1
    gens = g32.minimal_generators(whole)
    assert g32.subgroup_closure(gens).order == 32


@pytest.mark.parametrize("build", [build_g32_27, ORDER_64])
def test_closure_matches_squaring_oracle(build):
    group = build()
    rng = random.Random(f"closure:{group.order}")
    for _ in range(200):
        seed = rng.sample(range(group.order), rng.randrange(0, 5))
        assert group._closure(seed) == squaring_closure(group, seed)


@pytest.mark.parametrize("build", [build_g32_27, ORDER_64])
def test_coset_walk_matches_squaring_oracle(build):
    # <s, x> walked out from a random subgroup s, stepping by s's seed plus
    # x, and from a normal s stepping by x alone
    group = build()
    rng = random.Random(f"coset-walk:{group.order}")
    normals = [s.indices for s in group.enumerate_normal_subgroups()]
    for _ in range(200):
        seed = tuple(rng.sample(range(group.order), rng.randrange(0, 4)))
        s = group._closure(seed)
        x = rng.randrange(group.order)
        rows = [group._mul[h] for h in s]
        assert group._extend(s, rows, seed + (x,)) == squaring_closure(group, s | {x})
        n = rng.choice(normals)
        rows = [group._mul[h] for h in n]
        assert group._extend(n, rows, (x,)) == squaring_closure(group, n | {x})


@pytest.mark.parametrize("build", [build_g32_27, CONJUGATED])
def test_lattices_match_reference_walks(build):
    # the same breadth-first walks, closing whole sets by squaring
    group = build()
    witness = squaring_walk(group, [(x, {x}) for x in range(1, group.order)])
    subs = group.enumerate_subgroups()
    assert {s.indices: tuple(group.index(g) for g in s.generators) for s in subs} == witness
    classes = [(c.index, {x.index for x in c.elements}) for c in group.conjugacy_classes()]
    normals = group.enumerate_normal_subgroups()
    assert {s.indices for s in normals} == set(squaring_walk(group, classes))
    for s in normals:
        assert squaring_closure(group, map(group.index, s.generators)) == s.indices
    # the two facts the single walk and its pruning rest on
    for s in subs + normals:
        gens = [g.index for g in s.generators]
        assert all(a < b for a, b in zip(gens, gens[1:]))
        assert s.generators == group.minimal_generators(s)


@pytest.mark.parametrize("build", LATTICE_MEMBERS)
def test_lattice_walk_matches_coset_marking_oracle(build, monkeypatch):
    group = build()
    calls = []
    extend = FiniteGroup._extend

    def recorded(self, sub, rows, gens):
        calls.append((sub, gens))
        return extend(self, sub, rows, gens)

    monkeypatch.setattr(FiniteGroup, "_extend", recorded)
    expected = coset_marking_walk(group)
    expected_calls = calls.copy()
    calls.clear()
    lattice = group._lattice
    assert list(lattice) == expected
    # the same extensions (s, witness of s plus x), in the same order
    assert calls == expected_calls
    # s is offered the least element of each right coset above its witness
    offered = {}
    for sub, gens in calls:
        offered.setdefault(sub, []).append(gens[-1])
    for s, w in random.Random(0).sample(lattice, min(40, len(lattice))):
        reps, _ = Subgroup(group, s, ())._cosets
        assert offered.get(s, []) == [x for x in reps if x > (w[-1] if w else 0)]


@pytest.mark.parametrize("build", LATTICE_MEMBERS)
def test_normality_matches_conjugation_by_every_element(build):
    group = build()
    mul, inv = group._mul, group._inv
    subs = group.enumerate_subgroups()
    normal = [
        s.indices
        for s in subs
        if all(mul[mul[g][h]][inv[g]] in s.indices for g in range(group.order) for h in s.indices)
    ]
    assert [s.indices for s in group.enumerate_normal_subgroups()] == normal
    normal = set(normal)
    for s in subs:
        # built by hand, with no generators: is_normal reads every element
        assert group.is_normal(Subgroup(group, s.indices, ())) == (s.indices in normal)


def test_lattice_walk_runs_once_per_group(monkeypatch):
    group = n5q1_named()
    calls = []
    extend = FiniteGroup._extend

    def counted(self, *args):
        calls.append(None)
        return extend(self, *args)

    monkeypatch.setattr(FiniteGroup, "_extend", counted)
    subs = group.enumerate_subgroups()
    walked = len(calls)
    normals = group.enumerate_normal_subgroups()
    assert walked > 0 and len(calls) == walked
    # the group keeps the walk after every subgroup built from it is gone
    del subs, normals
    subs = group.enumerate_subgroups()
    normals = group.enumerate_normal_subgroups()
    assert len(calls) == walked
    assert subs == n5q1_named().enumerate_subgroups()
    assert len(calls) == 2 * walked


def test_frattini_is_generated_by_squares(g32):
    mul, inv = g32._mul, g32._inv
    for sub in g32.enumerate_subgroups():
        hidx = sorted(sub.indices)
        squares = {mul[x][x] for x in hidx}
        commutators = {mul[mul[inv[a]][inv[b]]][mul[a][b]] for a in hidx for b in hidx}
        assert g32._closure(squares) == squaring_closure(g32, squares | commutators)


def test_enumerate_normal_subgroups(g32):
    normals = g32.enumerate_normal_subgroups()
    assert len(normals) == 26
    orders = sorted(s.order for s in normals)
    assert orders[0] == 1 and orders[-1] == 32
    g2_only = frozenset({0, 16})
    assert all(s.indices != g2_only for s in normals)
    for s in normals:
        assert g32.is_normal(s)
        assert g32.subgroup_closure(s.generators).indices == s.indices


def test_enumerate_subgroups(g32):
    subs = g32.enumerate_subgroups()
    assert len(subs) == 106
    by_order = {}
    for s in subs:
        by_order[s.order] = by_order.get(s.order, 0) + 1
    # one order-2 subgroup per involution
    involutions = sum(1 for g in g32.elements if g.order() == 2)
    assert by_order[2] == involutions == 19
    assert by_order[1] == 1 and by_order[32] == 1
    assert len({s.indices for s in subs}) == len(subs)
    normal_count = sum(1 for s in subs if g32.is_normal(s))
    assert normal_count == 26


def test_enumeration_bound():
    big = elementary_abelian(7)
    assert big.order == 128
    with pytest.raises(GroupTooLargeError):
        big.enumerate_subgroups()
    with pytest.raises(GroupTooLargeError):
        big.enumerate_normal_subgroups()


def test_plain_elementary_abelian():
    g = elementary_abelian(2)
    assert g.order == 4
    assert g.exponent() == 2
    assert len(g.conjugacy_classes()) == 4
    assert len(g.enumerate_subgroups()) == 5


# -- lattice goldens ----------------------------------------------------


def lattice_lines(group):
    """One JSON line per subgroup: lattice, sorted indices, witness words."""
    lines = []
    for kind, subs in (
        ("subgroups", group.enumerate_subgroups()),
        ("normal", group.enumerate_normal_subgroups()),
    ):
        for s in subs:
            record = [kind, sorted(s.indices), [g.word() for g in s.generators]]
            lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    return "".join(lines)


@pytest.mark.parametrize(
    "name, build",
    [("g32_27", build_g32_27), pytest.param("n5q1", n5q1_named, id="n5q1-order_64_member")],
)
def test_lattice_matches_golden(name, build):
    golden = (GOLDEN / f"lattice_{name}.jsonl").read_bytes()
    assert lattice_lines(build()).encode() == golden
