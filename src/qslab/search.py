"""Admissible twist search over equivariant line bundles on a product.

Cohomology of a sheaf on the product modulo the diagonal action is
computed by the Kunneth formula at the level of characters: each factor
contributes a pair (h0 character, h1 character) and the twist contributes
a linear character.  The dimension of the diagonal invariants of a
product of class functions f_1, ..., f_r is the exact integer sum

    sum over classes K of |K| * f_1(K) * ... * f_r(K), divided by |G|.

Every character of the supported family is integer valued (Serre, Linear
Representations of Finite Groups, 8.2, Prop. 25), so these sums run on
plain ints.  A twist is admissible for a pair of degree-2 bundle
parameters when the h0 and h2 invariants both vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from operator import add, sub

from .characters import CharacterTable, ClassFunction
from .groups import FiniteGroup


@dataclass(frozen=True)
class BundleCohomology:
    """Characters of the two cohomology spaces of a line bundle on a curve."""

    h0: ClassFunction
    h1: ClassFunction

    def __post_init__(self) -> None:
        self.h0._check_same_group(self.h1)
        for name, char in (("h0", self.h0), ("h1", self.h1)):
            value = char.at_identity()
            if not value.is_integer() or value.as_integer() < 0:
                raise ValueError(f"{name} identity value {value} is not a dimension")


def _integers(f: ClassFunction) -> tuple[int, ...]:
    """Class values as ints; raises ValueError on any non-integer value."""
    return tuple(v.as_integer() for v in f.values)


def _class_sizes(group: FiniteGroup) -> tuple[int, ...]:
    return tuple(cls.size for cls in group.conjugacy_classes())


def _invariants(sizes: tuple[int, ...], order: int, *factors: tuple[int, ...]) -> int:
    """sum_K |K| * prod_i f_i(K) / |G| for int-valued class functions f_i.

    This is the multiplicity of the trivial character in the pointwise
    product; raises when the sum is not divisible by the group order.
    """
    total = sum(map(prod, zip(sizes, *factors)))
    m, rem = divmod(total, order)
    if rem:
        raise ValueError(f"invariant multiplicity {Fraction(total, order)} is not integral")
    return m


def _dims(sizes, order, c0, c1, d0, d1, twist) -> tuple[int, int, int]:
    """(h0, h1, h2) invariants of (c0 + c1) x (d0 + d1) twisted, on int tuples."""
    mixed = tuple(a * d + b * c for a, b, c, d in zip(c0, c1, d0, d1))
    return (
        _invariants(sizes, order, c0, d0, twist),
        _invariants(sizes, order, mixed, twist),
        _invariants(sizes, order, c1, d1, twist),
    )


def _check_dimension(name: str, values: tuple[int, ...]) -> None:
    if values[0] < 0:
        raise ValueError(f"{name} identity value {values[0]} is not a dimension")


def cohomology_dims(
    factor_c: BundleCohomology,
    factor_d: BundleCohomology,
    twist: ClassFunction,
) -> tuple[int, int, int]:
    """Kunneth invariant dimensions (h0, h1, h2) of the twisted product bundle."""
    factor_c.h0._check_same_group(factor_d.h0)
    factor_c.h0._check_same_group(twist)
    return _dims(
        _class_sizes(twist.group),
        twist.group.order,
        _integers(factor_c.h0),
        _integers(factor_c.h1),
        _integers(factor_d.h0),
        _integers(factor_d.h1),
        _integers(twist),
    )


@dataclass(frozen=True)
class PairResult:
    """Search outcome for one (A, B) pair of degree-2 parameters."""

    a_index: int
    b_index: int
    admissible: tuple[int, ...]
    dims: tuple[tuple[int, tuple[int, int, int]], ...]  # (twist row, (h0, h1, h2))
    eulers: tuple[tuple[int, int], ...]  # (twist row, euler characteristic)
    euler_flat: bool  # Euler characteristic vanishes for every twist


@dataclass(frozen=True)
class SearchReport:
    table: CharacterTable = field(repr=False)
    pairs: tuple[PairResult, ...]
    theorem_holds: bool
    trivial_admissible_anywhere: bool


def search_all_pairs(
    table: CharacterTable,
    canonical_c: ClassFunction,
    canonical_d: ClassFunction,
) -> SearchReport:
    """Run the admissible twist search over all degree-2 parameter pairs.

    The first factor carries its structure sheaf: constants in h0 and the
    (real) canonical character in h1.  The second factor ranges over
    bundles whose h0 is trivial plus a degree-2 row A and whose h1 is the
    linear part of the canonical character plus a degree-2 row B; twists
    range over all linear rows.  Characters are int tuples throughout.
    """
    group = table.group
    order = group.order
    sizes = _class_sizes(group)
    rows = [_integers(row) for row in table.rows]
    two_dim = table.indices_of_degree(2)
    linear = table.linear_indices()
    trivial_index = table.trivial_index()

    for canonical in (canonical_c, canonical_d):
        table.rows[0]._check_same_group(canonical)
    c0, c1 = rows[trivial_index], _integers(canonical_c)
    _check_dimension("h1", c1)
    euler_c = tuple(map(sub, c0, c1))
    # Linear part of the canonical character; every multiplicity must be
    # integral, or canonical_d is not a virtual character.
    kd = _integers(canonical_d)
    mults = [_invariants(sizes, order, kd, row) for row in rows]
    base_d = tuple(sum(mults[i] * rows[i][c] for i in linear) for c in range(len(kd)))

    results = []
    trivial_anywhere = False
    for a in two_dim:
        d0 = tuple(map(add, c0, rows[a]))
        for b in two_dim:
            d1 = tuple(map(add, base_d, rows[b]))
            _check_dimension("h0", d0)
            _check_dimension("h1", d1)
            euler_d = tuple(map(sub, d0, d1))
            admissible = []
            dims = []
            eulers = []
            for t in linear:
                twist = rows[t]
                h0, h1, h2 = _dims(sizes, order, c0, c1, d0, d1, twist)
                dims.append((t, (h0, h1, h2)))
                eulers.append((t, _invariants(sizes, order, euler_c, euler_d, twist)))
                if h0 == 0 and h2 == 0:
                    admissible.append(t)
                    if t == trivial_index:
                        trivial_anywhere = True
            results.append(
                PairResult(
                    a_index=a,
                    b_index=b,
                    admissible=tuple(admissible),
                    dims=tuple(dims),
                    eulers=tuple(eulers),
                    euler_flat=all(e == 0 for _, e in eulers),
                )
            )
    return SearchReport(
        table=table,
        pairs=tuple(results),
        theorem_holds=all(r.admissible for r in results),
        trivial_admissible_anywhere=trivial_anywhere,
    )
