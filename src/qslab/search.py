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

``cohomology_dims`` takes these sums one twist at a time.  The search
over all pairs takes each sum against every linear twist at once: the
twist values at class K are packed into one int, Y_K = sum_j |K| t_j(K)
2^(B j), so sum_K f(K) Y_K carries the sum of f * t_j in signed lane j
(Kronecker substitution, as in ``characters._is_diagonal_gram``).  The
lane width B comes from an explicit bound on every lane (``_twist_lanes``).
h0 depends only on the parameter A and h2 only on B, so each is summed
once per parameter; only h1 and the Euler characteristic take a sum per
pair.
"""

from __future__ import annotations

from math import prod
from operator import add, mul, sub

from .characters import CharacterTable, ClassFunction, _pack, _unpack, decompose
from .groups import FiniteGroup, _Frozen


class BundleCohomology(_Frozen):
    """Characters of the two cohomology spaces of a line bundle on a curve."""

    _fields = ("h0", "h1")

    def __init__(self, h0: ClassFunction, h1: ClassFunction):
        h0._check_same_group(h1)
        _check_dimension("h0", h0.values)
        _check_dimension("h1", h1.values)
        self.__dict__.update(h0=h0, h1=h1)


def _class_sizes(group: FiniteGroup) -> tuple[int, ...]:
    return tuple(map(len, group._partition))


def _invariants(sizes: tuple[int, ...], order: int, *factors: tuple[int, ...]) -> int:
    """sum_K |K| * prod_i f_i(K) / |G| for int-valued class functions f_i.

    This is the multiplicity of the trivial character in the pointwise
    product; raises when the sum is not divisible by the group order.
    """
    total = sum(map(prod, zip(sizes, *factors)))
    m, rem = divmod(total, order)
    if rem:
        raise _not_integral(total, order)
    return m


def _not_integral(total: int, order: int) -> ValueError:
    from fractions import Fraction

    return ValueError(f"invariant multiplicity {Fraction(total, order)} is not integral")


def _twist_lanes(
    sizes: tuple[int, ...], twists: list[tuple[int, ...]], magnitude: list[int]
) -> tuple[list[int], int]:
    """Every twist packed into one int per class: (Y, B), Y_K = sum_j |K| t_j(K) 2^(B j).

    Let f be a class function with |f(K)| <= magnitude[K] at every class.
    Then sum_K f(K) Y_K = sum_j c_j 2^(B j) with lanes

        c_j = sum_K |K| f(K) t_j(K),   |c_j| <= sum_K |K| magnitude[K] max|t|,

    and B is chosen so that this bound is below 2^(B - 1).  Every lane is
    then a signed digit that ``_unpack`` reads back exactly: no lane
    carries into or borrows from the next.
    """
    top = max((abs(x) for t in twists for x in t), default=0)
    width = (sum(map(mul, sizes, magnitude)) * top).bit_length() + 1
    packed = [_pack([size * t[k] for t in twists], width) for k, size in enumerate(sizes)]
    return packed, width


def _lane_invariants(f, packed: list[int], width: int, count: int, order: int) -> list[int]:
    """Invariant dimension of f * t_j for each of the ``count`` twists in ``packed``.

    Floor division leaves remainders in [0, |G|), so they are all zero
    exactly when the quotients times |G| sum to the sum of the lanes.
    """
    totals = _unpack(sum(map(mul, f, packed)), width, count)
    dims = [total // order for total in totals]
    if sum(dims) * order != sum(totals):
        raise _not_integral(next(t for t in totals if t % order), order)
    return dims


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
        factor_c.h0.values,
        factor_c.h1.values,
        factor_d.h0.values,
        factor_d.h1.values,
        twist.values,
    )


class PairResult(_Frozen):
    """Search outcome for one (A, B) pair of degree-2 parameters."""

    _fields = ("a_index", "b_index", "admissible", "dims", "eulers", "euler_flat")

    def __init__(
        self,
        a_index: int,
        b_index: int,
        admissible: tuple[int, ...],
        dims: tuple[tuple[int, tuple[int, int, int]], ...],  # (twist row, (h0, h1, h2))
        eulers: tuple[tuple[int, int], ...],  # (twist row, euler characteristic)
        euler_flat: bool,  # Euler characteristic vanishes for every twist
    ):
        self.__dict__.update(
            a_index=a_index,
            b_index=b_index,
            admissible=admissible,
            dims=dims,
            eulers=eulers,
            euler_flat=euler_flat,
        )


class SearchReport(_Frozen):
    _fields = ("pairs", "theorem_holds", "trivial_admissible_anywhere")

    def __init__(
        self,
        pairs: tuple[PairResult, ...],
        theorem_holds: bool,
        trivial_admissible_anywhere: bool,
    ):
        self.__dict__.update(
            pairs=pairs,
            theorem_holds=theorem_holds,
            trivial_admissible_anywhere=trivial_admissible_anywhere,
        )


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
    range over all linear rows.  Characters are int tuples throughout, and
    each invariant sum covers all twists at once (``_twist_lanes``).
    """
    group = table.group
    order = group.order
    sizes = _class_sizes(group)
    rows = [row.values for row in table.rows]
    two_dim = table.indices_of_degree(2)
    linear = table.linear_indices()
    trivial_index = table.trivial_index()

    for canonical in (canonical_c, canonical_d):
        table.rows[0]._check_same_group(canonical)
    c0, c1 = rows[trivial_index], canonical_c.values
    _check_dimension("h1", c1)
    euler_c = tuple(map(sub, c0, c1))
    # Linear part of the canonical character; every multiplicity must be
    # integral, or canonical_d is not a virtual character.
    kd = canonical_d.values
    mults = decompose(canonical_d, table)
    base_d = tuple(sum(mults[i] * rows[i][c] for i in linear) for c in range(len(kd)))

    d0s = {a: tuple(map(add, c0, rows[a])) for a in two_dim}
    d1s = {b: tuple(map(add, base_d, rows[b])) for b in two_dim}
    # In the (A, B) order of the pairs, so the first failure reported is
    # the first a pair-by-pair walk meets.
    for a in two_dim:
        _check_dimension("h0", d0s[a])
        for b in two_dim:
            _check_dimension("h1", d1s[b])

    # Each integrand below (c0 d0, c1 d1, c0 d1 + c1 d0 and
    # (c0 - c1)(d0 - d1)) is at most (|c0| + |c1|)(|d0| + |d1|) in absolute
    # value, and |d0| + |d1| <= 2 max|d| over every d0 and d1.
    top_d = [max(map(abs, column)) for column in zip(*d0s.values(), *d1s.values())]
    magnitude = [2 * (abs(x) + abs(y)) * m for x, y, m in zip(c0, c1, top_d)]
    packed, width = _twist_lanes(sizes, [rows[t] for t in linear], magnitude)

    def invariants(f) -> list[int]:
        return _lane_invariants(f, packed, width, len(linear), order)

    h0_by_a = {a: invariants(map(mul, c0, d0)) for a, d0 in d0s.items()}
    h2_by_b = {b: invariants(map(mul, c1, d1)) for b, d1 in d1s.items()}
    results = []
    for a in two_dim:
        d0, h0s = d0s[a], h0_by_a[a]
        for b in two_dim:
            d1, h2s = d1s[b], h2_by_b[b]
            h1s = invariants(map(add, map(mul, c0, d1), map(mul, c1, d0)))
            eulers = tuple(zip(linear, invariants(map(mul, euler_c, map(sub, d0, d1)))))
            results.append(
                PairResult(
                    a_index=a,
                    b_index=b,
                    admissible=tuple(t for t, x, z in zip(linear, h0s, h2s) if x == 0 and z == 0),
                    dims=tuple(zip(linear, zip(h0s, h1s, h2s))),
                    eulers=eulers,
                    euler_flat=all(e == 0 for _, e in eulers),
                )
            )
    return SearchReport(
        pairs=tuple(results),
        theorem_holds=all(r.admissible for r in results),
        trivial_admissible_anywhere=any(trivial_index in r.admissible for r in results),
    )
