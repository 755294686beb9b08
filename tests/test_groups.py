import json
import random
from pathlib import Path

import pytest

from qslab.builtin import G32_27_SPEC, SUBGROUP_WORDS, build_g32_27, named_subgroup
from qslab.groups import (
    GroupSpec,
    GroupSpecError,
    GroupTooLargeError,
    _mat_apply,
    _mat_mul,
    build_group,
)


GOLDEN = Path(__file__).parent / "golden"


def words(text):
    return () if text == "1" else tuple(text.split("*"))


def order_64_member():
    """N rank 5, Q rank 1, action I + E_{1,0}, basis elements named n1..n5, q1."""
    action = tuple(
        tuple(int(i == j or (i, j) == (1, 0)) for j in range(5)) for i in range(5)
    )
    names = tuple(
        (f"n{i + 1}", (tuple(int(t == i) for t in range(5)), (0,))) for i in range(5)
    ) + (("q1", ((0,) * 5, (1,))),)
    return build_group(GroupSpec(5, 1, (action,), names))


def conjugated_member():
    """N rank 4, Q rank 1: the action I + E_{1,0} after a basis change.

    Unlike the other test groups, its action is not triangular in the
    index bits, so an element's square need not have a smaller index.
    """
    basis = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))
    basis_inv = ((1, 1, 1, 1), (0, 1, 1, 1), (0, 0, 1, 1), (0, 0, 0, 1))
    action = tuple(
        tuple(int(i == j or (i, j) == (1, 0)) for j in range(4)) for i in range(4)
    )
    action = _mat_mul(_mat_mul(basis, action), basis_inv)
    return build_group(GroupSpec(4, 1, (action,), ()))


def squaring_closure(group, seed):
    """Reference closure: multiply the set by itself until it is stable."""
    s = {0} | set(seed)
    while True:
        new = {group._mul[a][b] for a in s for b in s}
        if new <= s:
            return frozenset(s)
        s |= new


# -- spec validation ----------------------------------------------------


def test_spec_validates():
    G32_27_SPEC.validate()
    assert G32_27_SPEC.order() == 32


def test_spec_rejects_bad_ranks():
    with pytest.raises(GroupSpecError, match="n_rank"):
        GroupSpec(n_rank=0, q_rank=0, action=(), generator_names=()).validate()
    with pytest.raises(GroupSpecError, match="q_rank"):
        GroupSpec(n_rank=1, q_rank=-1, action=(), generator_names=()).validate()


def test_spec_rejects_wrong_matrix_count():
    spec = GroupSpec(
        n_rank=2,
        q_rank=1,
        action=(),
        generator_names=(("a", ((1, 0), (0,))),),
    )
    with pytest.raises(GroupSpecError, match="matrices"):
        spec.validate()


def test_spec_rejects_non_involution():
    # the shear [[1,1],[0,1]] squares to the identity over F2, so use a
    # genuinely non-involutive matrix
    spec = GroupSpec(
        n_rank=2,
        q_rank=1,
        action=(((1, 1), (1, 0)),),
        generator_names=(("a", ((1, 0), (0,))),),
    )
    with pytest.raises(GroupSpecError, match="involution"):
        spec.validate()


def test_spec_rejects_non_commuting_matrices():
    swap = ((0, 1), (1, 0))
    shear = ((1, 1), (0, 1))
    spec = GroupSpec(
        n_rank=2,
        q_rank=2,
        action=(swap, shear),
        generator_names=(("a", ((1, 0), (0, 0))),),
    )
    with pytest.raises(GroupSpecError, match="commute"):
        spec.validate()


def test_spec_rejects_bad_names():
    spec = GroupSpec(
        n_rank=1,
        q_rank=0,
        action=(),
        generator_names=(("not a name", ((1,), ())),),
    )
    with pytest.raises(GroupSpecError, match="identifier"):
        spec.validate()
    spec = GroupSpec(
        n_rank=1,
        q_rank=0,
        action=(),
        generator_names=(("a", ((1,), ())), ("a", ((1,), ()))),
    )
    with pytest.raises(GroupSpecError, match="duplicate"):
        spec.validate()


def test_build_rejects_huge_groups():
    spec = GroupSpec(
        n_rank=11,
        q_rank=0,
        action=(),
        generator_names=(("a", ((1,) + (0,) * 10, ())),),
    )
    with pytest.raises(GroupTooLargeError):
        build_group(spec)


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
    assert prod.n == (1, 0, 1, 0) and prod.q == (1,)
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


def test_word_roundtrip(g32):
    for g in g32.elements:
        assert g32.evaluate_word(words(g.word())) == g
    assert g32.identity().word() == "1"
    with pytest.raises(KeyError):
        g32.evaluate_word(("g9",))


def test_foreign_elements_rejected(g32):
    other = build_group(
        GroupSpec(
            n_rank=1, q_rank=0, action=(), generator_names=(("a", ((1,), ())),)
        )
    )
    with pytest.raises(ValueError, match="different group"):
        g32.index(other.identity())
    # a second build of the same spec is interchangeable
    twin = build_group(G32_27_SPEC)
    assert g32.index(twin.generator("g2")) == 16


@pytest.mark.parametrize("build", [build_g32_27, order_64_member])
def test_multiplication_table_matches_tuple_formula(build):
    group = build()
    coords, index = group._coords, group._index
    for a, (n1, q1) in enumerate(coords):
        image = group._phi_by_q[q1]
        for b, (n2, q2) in enumerate(coords):
            n3 = tuple(x ^ y for x, y in zip(n1, _mat_apply(image, n2)))
            q3 = tuple(x ^ y for x, y in zip(q1, q2))
            assert group._mul[a][b] == index[(n3, q3)]
        assert group._inv[a] == index[(_mat_apply(image, n1), q1)]


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


@pytest.mark.parametrize("build", [build_g32_27, order_64_member])
def test_closure_matches_squaring_oracle(build):
    group = build()
    rng = random.Random(f"closure:{group.order}")
    for _ in range(200):
        seed = rng.sample(range(group.order), rng.randrange(0, 5))
        assert group._closure(seed) == squaring_closure(group, seed)


@pytest.mark.parametrize("build", [build_g32_27, conjugated_member])
def test_lattices_match_reference_walks(build):
    # the same breadth-first walks, closing whole sets by squaring
    group = build()
    witness = {frozenset({0}): ()}
    frontier = [frozenset({0})]
    while frontier:
        nxt = []
        for s in frontier:
            for x in range(1, group.order):
                c = squaring_closure(group, s | {x})
                if c not in witness:
                    witness[c] = witness[s] + (x,)
                    nxt.append(c)
        frontier = nxt
    subs = group.enumerate_subgroups()
    assert {s.indices: tuple(group.index(g) for g in s.generators) for s in subs} == witness
    classes = [{group.index(x) for x in cls.elements} for cls in group.conjugacy_classes()]
    normal = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        nxt = []
        for s in frontier:
            for cs in classes:
                c = squaring_closure(group, s | cs)
                if c not in normal:
                    normal.add(c)
                    nxt.append(c)
        frontier = nxt
    normals = group.enumerate_normal_subgroups()
    assert {s.indices for s in normals} == normal
    for s in normals:
        assert squaring_closure(group, map(group.index, s.generators)) == s.indices


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
    spec = GroupSpec(
        n_rank=7,
        q_rank=0,
        action=(),
        generator_names=(("a", ((1,) + (0,) * 6, ())),),
    )
    big = build_group(spec)
    assert big.order == 128
    with pytest.raises(GroupTooLargeError):
        big.enumerate_subgroups()
    with pytest.raises(GroupTooLargeError):
        big.enumerate_normal_subgroups()


def test_plain_elementary_abelian():
    spec = GroupSpec(
        n_rank=2,
        q_rank=0,
        action=(),
        generator_names=(("a", ((1, 0), ())), ("b", ((0, 1), ()))),
    )
    g = build_group(spec)
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
    "name, build", [("g32_27", build_g32_27), ("n5q1", order_64_member)]
)
def test_lattice_matches_golden(name, build):
    golden = (GOLDEN / f"lattice_{name}.jsonl").read_bytes()
    assert lattice_lines(build()).encode() == golden
