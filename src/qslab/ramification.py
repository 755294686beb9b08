"""Spherical generating systems and the covering curves they define.

A spherical system on G is a tuple of nontrivial elements that generates
G and multiplies to the identity.  It encodes a Galois covering of the
projective line branched over one point per entry, with cyclic local
monodromy generated by that entry.  Everything downstream (fixed point
counts, quotient genera, fiber orbit shapes, the canonical-bundle
character) is derived from that combinatorial datum alone.

Fixed points, coset actions and fiber orbits are walked on element
indices through the group's multiplication and inverse tables; subgroups
enter as their index sets.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .groups import FiniteGroup, GroupElement, Subgroup, _Frozen


# What fixed_point_table's None (the identity class) stands for in reports.
WHOLE_CURVE = "whole curve"


class SphericalSystemError(ValueError):
    """A tuple of elements fails one of the spherical system conditions."""


class IdentityFixedPoints(ValueError):
    """Fixed points of the identity requested; it fixes the whole curve."""


class SphericalSystem(_Frozen):
    # Systems compare by group and entries.  Derived data are cached
    # properties, computed on first read and kept by the system.
    group: FiniteGroup
    entries: tuple[GroupElement, ...]

    @property
    def signature(self) -> tuple[int, ...]:
        """Entry orders, in entry order."""
        return tuple(t.order() for t in self.entries)

    @cached_property
    def _entry_indices(self) -> tuple[int, ...]:
        return tuple(self.group.index(t) for t in self.entries)

    @cached_property
    def _cyclic(self) -> tuple[Subgroup, ...]:
        """The cyclic subgroup of each entry; each keeps its right cosets."""
        return tuple(self.group.subgroup_closure([t]) for t in self.entries)

    @cached_property
    def _fixed_points(self) -> tuple[int | None, ...]:
        group = self.group
        return tuple(
            None if members[0] == 0 else fixed_point_count(self, group.element(members[0]))
            for members in group._partition
        )

    @cached_property
    def _canonical(self) -> ClassFunction:
        from .characters import ClassFunction  # only this property needs the module

        genus = curve_genus(self)
        values = []
        for fix in self._fixed_points:
            if fix is None:
                values.append(genus)
                continue
            if fix % 2:
                raise RuntimeError(
                    f"odd fixed point count {fix} contradicts a real-valued action"
                )
            values.append((2 - fix) // 2)
        return ClassFunction(self.group, tuple(values))

    def __repr__(self) -> str:
        words = ", ".join(t.word() for t in self.entries)
        return f"SphericalSystem([{words}])"


def validate_spherical(group: FiniteGroup, entries) -> SphericalSystem:
    """Check the spherical system conditions, naming the one that fails."""
    entries = tuple(entries)
    if not entries:
        raise SphericalSystemError("empty system: at least one entry is required")
    for t in entries:
        group.index(t)
        if t.is_identity():
            raise SphericalSystemError("identity entry: every entry must be nontrivial")
    product = group.identity()
    for t in entries:
        product = product * t
    if not product.is_identity():
        raise SphericalSystemError(
            f"product-not-identity: entries multiply to {product.word()}"
        )
    if group.subgroup_closure(entries).order != group.order:
        raise SphericalSystemError("non-generating: entries span a proper subgroup")
    return SphericalSystem(group, entries)


def stabilizer_set(system: SphericalSystem) -> frozenset[GroupElement]:
    """Union of all conjugates of all powers of the entries (identity included)."""
    group = system.group
    members, class_of, mul = group._partition, group._class_of, group._mul
    out: set[int] = set()
    for t in system._entry_indices:
        power = 0
        for _ in range(group._orders[t]):
            out.update(members[class_of[power]])
            power = mul[power][t]
    return frozenset(map(group.element, out))


def is_disjoint(a: SphericalSystem, b: SphericalSystem) -> bool:
    """True when the stabilizer sets meet only in the identity."""
    if a.group is not b.group and a.group.spec != b.group.spec:
        raise ValueError("systems live on different groups")
    return stabilizer_set(a) & stabilizer_set(b) == {a.group.identity()}


def genus_from_type(group_order: int, signature) -> int:
    """Genus of the covering curve from the Riemann-Hurwitz relation.

    2g - 2 = n(-2 + sum(1 - 1/m)) over the signature entries m, computed
    as an integer multiple of 1/L with L the lcm of the entries.
    """
    signature = tuple(signature)
    if group_order < 1:
        raise ValueError(f"group order must be positive, got {group_order}")
    for m in signature:
        if not isinstance(m, int) or m < 2:
            raise ValueError(f"signature entries must be integers >= 2, got {m!r}")
    denominator = lcm(*signature)
    numerator = group_order * (
        sum(denominator - denominator // m for m in signature) - 2 * denominator
    )
    rhs, rem = divmod(numerator, denominator)
    if rem:
        from fractions import Fraction

        rhs = Fraction(numerator, denominator)
        raise ValueError(f"Riemann-Hurwitz value 2g-2 = {rhs} is not an integer")
    if rhs % 2:
        raise ValueError(f"Riemann-Hurwitz value 2g-2 = {rhs} is odd")
    genus = (rhs + 2) // 2
    if genus < 0:
        raise ValueError(f"Riemann-Hurwitz genus {genus} is negative")
    return genus


def curve_genus(system: SphericalSystem) -> int:
    return genus_from_type(system.group.order, system.signature)


def fixed_point_count(system: SphericalSystem, g: GroupElement) -> int:
    """Fixed points of g on the covering curve, for nontrivial g.

    Counts pairs (entry i, right coset <t_i>t) with g in t^-1 <t_i> t,
    walking a right transversal of each cyclic entry subgroup; the
    conjugate t g t^-1 is read from the index tables.  Any element of a
    coset may stand for it: for H = <t_i> and h in H, (hx) g (hx)^-1 =
    h (x g x^-1) h^-1 lies in H exactly when x g x^-1 does.  The wrong-way
    conjugate x^-1 g x lacks this property, and
    ``test_fixed_point_routes_match_the_coset_oracle_on_the_transversal_witness``
    pins a system on which it miscounts.
    """
    group = system.group
    if g.is_identity():
        raise IdentityFixedPoints("the identity fixes the whole curve")
    gi = group.index(g)
    mul, inv = group._mul, group._inv
    count = 0
    for sub in system._cyclic:
        members = sub.indices
        for t in sub._cosets[0]:
            if mul[mul[t][gi]][inv[t]] in members:
                count += 1
    return count


def fixed_point_count_by_membership(system: SphericalSystem, g: GroupElement) -> int:
    """Independent route: count all x with x g x^-1 in <t_i>, then divide.

    The membership predicate is constant on each right coset <t_i>x, so
    dividing the whole-group count by the subgroup order counts cosets.
    The conjugates x g x^-1 of g are listed once, over every element index.
    """
    group = system.group
    if g.is_identity():
        raise IdentityFixedPoints("the identity fixes the whole curve")
    gi = group.index(g)
    mul, inv = group._mul, group._inv
    conjugates = [mul[mul[x][gi]][inv[x]] for x in range(group.order)]
    count = 0
    for sub in system._cyclic:
        members = sub.indices
        hits = sum(1 for c in conjugates if c in members)
        if hits % sub.order:
            raise RuntimeError("conjugation count not constant on cosets")
        count += hits // sub.order
    return count


def fixed_point_table(system: SphericalSystem) -> tuple[int | None, ...]:
    """Per-class fixed point counts in canonical class order; None marks
    the identity class (whole curve).  Computed once per system."""
    return system._fixed_points


def canonical_character(system: SphericalSystem) -> ClassFunction:
    """Character of the canonical representation on holomorphic 1-forms.

    Every character of the family is integer valued, so the Lefschetz
    relation fix(g) = 2 - 2 chi(g) inverts to exact integer values, with
    chi(1) the curve genus.  The values come from the fixed points alone,
    and are computed once per system.
    """
    return system._canonical


def quotient_genus(system: SphericalSystem, sub: Subgroup) -> int:
    """Genus of the quotient of the covering curve by a subgroup.

    2g - 2 = -2[G:H] + sum over entries and orbits O of <t_i> on H\\G of
    (|O| - 1); the orbits of one entry contribute [G:H] minus their number.
    Each entry permutes the coset labels, and its cycles are walked.
    """
    group = system.group
    group._check_subgroup(sub)
    reps, coset_of = sub._cosets
    index = len(reps)
    mul = group._mul
    correction = 0
    for ti in system._entry_indices:
        step = [coset_of[mul[r][ti]] for r in reps]
        seen = [False] * index
        orbits = 0
        for start in range(index):
            if seen[start]:
                continue
            orbits += 1
            label = start
            while not seen[label]:
                seen[label] = True
                label = step[label]
        correction += index - orbits
    rhs = -2 * index + correction
    if rhs % 2:
        raise RuntimeError(f"quotient Riemann-Hurwitz value {rhs} is odd")
    genus = (rhs + 2) // 2
    if genus < 0:
        raise RuntimeError(f"quotient genus {genus} is negative")
    return genus


def quotient_genus_by_character(system: SphericalSystem, sub: Subgroup) -> int:
    """Independent route: average the canonical character over the subgroup."""
    group = system.group
    values = canonical_character(system).values
    class_of = group._class_of
    total = sum(values[class_of[h]] for h in sub.indices)
    genus, rem = divmod(total, sub.order)
    if rem or genus < 0:
        from fractions import Fraction

        raise RuntimeError(
            f"canonical character average {Fraction(total, sub.order)} is not a genus"
        )
    return genus


class FiberOrbits(_Frozen):
    """Orbit shape of a subgroup acting on one branch fiber; ``orbits``
    holds sorted (orbit size, stabilizer order) pairs."""

    branch_index: int
    fiber_size: int
    orbits: tuple[tuple[int, int], ...]

    @property
    def acts_freely(self) -> bool:
        return all(stab == 1 for _, stab in self.orbits)


def fiber_orbit_structure(
    system: SphericalSystem, branch_index: int, sub: Subgroup
) -> FiberOrbits:
    """Orbits of a subgroup on the fiber over one branch point.

    Fiber points are right cosets <t_i>x; the subgroup acts by right
    multiplication and the stabilizer of <t_i>x is H meet x^-1 <t_i> x.
    Orbits and stabilizers are walked on element indices.
    """
    group = system.group
    group._check_subgroup(sub)
    if not 1 <= branch_index <= len(system.entries):
        raise ValueError(
            f"branch index {branch_index} out of range 1..{len(system.entries)}"
        )
    cyclic = system._cyclic[branch_index - 1]
    reps, coset_of = cyclic._cosets
    mul, inv = group._mul, group._inv
    hidx, members = sub.indices, cyclic.indices
    seen = [False] * len(reps)
    orbits = []
    for start in range(len(reps)):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            label = frontier.pop()
            seen[label] = True
            for h in hidx:
                nxt = coset_of[mul[reps[label]][h]]
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        x = reps[start]
        stab = sum(1 for h in hidx if mul[mul[x][h]][inv[x]] in members)
        if len(orbit) * stab != sub.order:
            raise RuntimeError("orbit-stabilizer mismatch on a branch fiber")
        orbits.append((len(orbit), stab))
    orbits.sort()
    return FiberOrbits(branch_index, len(reps), tuple(orbits))
