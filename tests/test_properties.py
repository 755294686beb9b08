"""Structural invariants checked exhaustively over the built-in group.

Each suite below stands on its own: the only shared state is the
built-in group and things derived from it inside this module, so the
file can run in isolation.  The group has 32 elements, which makes
whole-group sweeps cheaper and stronger than sampled properties.
"""

import random
from functools import lru_cache

from qslab.alg import parse_word_list_fragment
from qslab.builtin import SUBGROUP_WORDS, build_g32_27
from qslab.characters import (
    ClassFunction,
    compute_character_table,
    decompose,
    inner_product,
)


@lru_cache(maxsize=1)
def the_group():
    return build_g32_27()


@lru_cache(maxsize=1)
def the_table():
    return compute_character_table(the_group())


class TestGroupAxioms:
    def test_associativity_exhaustive(self):
        g = the_group()
        for a in g.elements:
            for b in g.elements:
                ab = a * b
                for c in g.elements:
                    assert (ab) * c == a * (b * c)

    def test_inverses_and_identity(self):
        g = the_group()
        e = g.identity()
        for a in g.elements:
            assert a * a.inverse() == e
            assert a.inverse().inverse() == a
            assert (a * e) == a == (e * a)

    def test_order_divides_exponent(self):
        g = the_group()
        e = g.identity()
        for a in g.elements:
            n = a.order()
            power = e
            for _ in range(n):
                power = power * a
            assert power == e
            assert g.exponent() % n == 0


class TestOrthogonality:
    def test_rows_orthonormal(self):
        table = the_table()
        for i, a in enumerate(table.rows):
            for j, b in enumerate(table.rows):
                assert inner_product(a, b) == (1 if i == j else 0)

    def test_columns_orthogonal(self):
        table = the_table()
        g = the_group()
        classes = g.conjugacy_classes()
        # every value is a rational integer, so conjugation is the identity
        grid = [row.values for row in table.rows]
        for i in range(len(classes)):
            for j in range(len(classes)):
                total = sum(row[i] * row[j] for row in grid)
                assert total == (g.order // classes[i].size if i == j else 0)

    def test_degree_squares_sum_to_order(self):
        table = the_table()
        assert sum(d * d for d in table.degrees) == the_group().order

    def test_linear_rows_multiplicative(self):
        table = the_table()
        g = the_group()
        for i in table.linear_indices():
            chi = table.rows[i].values
            value = {a: chi[g.class_index_of(a)] for a in g.elements}
            for a in g.elements:
                for b in g.elements:
                    assert value[a * b] == value[a] * value[b]


class TestClassEquation:
    def test_sizes_partition_the_group(self):
        g = the_group()
        classes = g.conjugacy_classes()
        assert sum(c.size for c in classes) == g.order
        seen = set()
        for c in classes:
            for x in c.elements:
                idx = g.index(x)
                assert idx not in seen
                seen.add(idx)
        assert len(seen) == g.order

    def test_sizes_divide_group_order(self):
        g = the_group()
        for c in g.conjugacy_classes():
            assert g.order % c.size == 0

    def test_singletons_are_the_center(self):
        g = the_group()
        central = {
            g.index(c.representative)
            for c in g.conjugacy_classes()
            if c.size == 1
        }
        assert central == {g.index(x) for x in g.center().elements}


class TestLagrange:
    def test_subgroup_orders_divide(self):
        g = the_group()
        for sub in g.enumerate_subgroups():
            assert g.order % sub.order == 0

    def test_transversals_partition(self):
        g = the_group()
        for sub in g.enumerate_subgroups():
            reps = g.right_transversal(sub)
            assert len(reps) == g.order // sub.order
            covered = set()
            for r in reps:
                for h in sub.elements:
                    covered.add(g.index(h * r))
            assert len(covered) == g.order


class TestClosureIdempotence:
    def test_closure_of_subgroup_is_itself(self):
        g = the_group()
        for sub in g.enumerate_subgroups():
            again = g.subgroup_closure(sub.elements)
            assert again.indices == sub.indices

    def test_witness_generators_close_back(self):
        g = the_group()
        for sub in g.enumerate_subgroups():
            assert g.subgroup_closure(sub.generators).indices == sub.indices

    def test_normal_iff_union_of_classes(self):
        g = the_group()
        class_of = {
            g.index(x): cls.index
            for cls in g.conjugacy_classes()
            for x in cls.elements
        }
        for sub in g.enumerate_subgroups():
            classes_met = {class_of[i] for i in sub.indices}
            is_union = sum(
                g.conjugacy_classes()[c].size for c in classes_met
            ) == sub.order
            assert g.is_normal(sub) == is_union


class TestDecomposeRecompose:
    def vectors(self):
        rng = random.Random(2025)
        fixed = [
            tuple(1 if j == i else 0 for j in range(14))
            for i in range(14)
        ]
        fixed.append(tuple([1] * 14))
        fixed.append(tuple(range(14)))
        fixed.append(tuple((-1) ** i * i for i in range(14)))
        for _ in range(20):
            fixed.append(tuple(rng.randint(-9, 9) for _ in range(14)))
        return fixed

    def combination(self, table, mults):
        """sum_i mults[i] * chi_i as a class function, summed on ints."""
        grid = [row.values for row in table.rows]
        values = tuple(sum(m * row[c] for m, row in zip(mults, grid)) for c in range(14))
        return ClassFunction(table.group, values)

    def test_roundtrip(self):
        table = the_table()
        for mults in self.vectors():
            f = self.combination(table, mults)
            assert decompose(f, table) == mults

    def test_identity_value_matches_virtual_degree(self):
        table = the_table()
        for mults in self.vectors():
            f = self.combination(table, mults)
            expected = sum(m * d for m, d in zip(mults, table.degrees))
            assert f.at_identity() == expected


class TestParserRoundTrip:
    def test_word_fragments_roundtrip(self):
        g = the_group()
        for words in SUBGROUP_WORDS.values():
            text = ", ".join("*".join(w) for w in words)
            assert parse_word_list_fragment(text, g.spec) == words
