"""Finite groups of shape N x| Q with N and Q elementary abelian 2-groups.

Elements are pairs (n, q) of bit vectors multiplied by

    (n1, q1) * (n2, q2) = (n1 + Phi_q1(n2), q1 + q2),

where Phi is a commuting family of involutive F2 matrices indexed by the
basis of Q and Phi_q is the product of the matrices selected by the set
bits of q.  All objects are immutable after construction and safe for
concurrent reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import lcm
from typing import Iterable, Sequence

BitVector = tuple[int, ...]
BitMatrix = tuple[BitVector, ...]

# Building the full multiplication table is quadratic in the order (about
# a million entries at 1024); family members are measured up to this bound.
MAX_BUILD_ORDER = 1024

DEFAULT_ENUMERATION_BOUND = 64


class GroupSpecError(ValueError):
    """A group specification violates a structural requirement."""


class GroupTooLargeError(ValueError):
    """An operation exceeds its configured group-order bound."""


def _as_bits(values: Iterable[int], length: int, what: str) -> BitVector:
    vec = tuple(int(v) for v in values)
    if len(vec) != length:
        raise GroupSpecError(f"{what} must have length {length}, got {len(vec)}")
    if any(b not in (0, 1) for b in vec):
        raise GroupSpecError(f"{what} must consist of bits, got {vec}")
    return vec


def _mat_apply(mat: BitMatrix, vec: BitVector) -> BitVector:
    return tuple(sum(row[c] & vec[c] for c in range(len(vec))) & 1 for row in mat)


def _mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    size = len(a)
    return tuple(
        tuple(sum(a[i][t] & b[t][j] for t in range(size)) & 1 for j in range(size))
        for i in range(size)
    )


def _mat_identity(size: int) -> BitMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))


@dataclass(frozen=True)
class GroupSpec:
    """Defining data for one group of the supported family.

    ``action`` holds one n_rank x n_rank bit matrix per Q basis vector,
    acting on column vectors.  ``generator_names`` maps presentation
    generator labels to (n, q) coordinate pairs; the labels are the
    vocabulary of every word appearing in input files and reports.
    """

    n_rank: int
    q_rank: int
    action: tuple[BitMatrix, ...]
    generator_names: tuple[tuple[str, tuple[BitVector, BitVector]], ...]

    def validate(self) -> None:
        if not isinstance(self.n_rank, int) or self.n_rank < 1:
            raise GroupSpecError(f"n_rank must be a positive integer, got {self.n_rank!r}")
        if not isinstance(self.q_rank, int) or self.q_rank < 0:
            raise GroupSpecError(f"q_rank must be a nonnegative integer, got {self.q_rank!r}")
        if len(self.action) != self.q_rank:
            raise GroupSpecError(
                f"expected {self.q_rank} action matrices, got {len(self.action)}"
            )
        k = self.n_rank
        for j, mat in enumerate(self.action):
            if len(mat) != k or any(len(row) != k for row in mat):
                raise GroupSpecError(f"action matrix {j} is not {k}x{k}")
            for row in mat:
                _as_bits(row, k, f"action matrix {j} row")
            if _mat_mul(mat, mat) != _mat_identity(k):
                raise GroupSpecError(f"action matrix {j} is not an involution")
        for i, a in enumerate(self.action):
            for j in range(i + 1, self.q_rank):
                b = self.action[j]
                if _mat_mul(a, b) != _mat_mul(b, a):
                    raise GroupSpecError(f"action matrices {i} and {j} do not commute")
        seen: set[str] = set()
        for name, (nvec, qvec) in self.generator_names:
            if not name.isidentifier():
                raise GroupSpecError(f"generator name {name!r} is not an identifier")
            if name in seen:
                raise GroupSpecError(f"duplicate generator name {name!r}")
            seen.add(name)
            _as_bits(nvec, self.n_rank, f"generator {name} n-part")
            _as_bits(qvec, self.q_rank, f"generator {name} q-part")

    def order(self) -> int:
        return 1 << (self.n_rank + self.q_rank)

    def to_dict(self) -> dict:
        return {
            "n_rank": self.n_rank,
            "q_rank": self.q_rank,
            "action": [[list(row) for row in mat] for mat in self.action],
            "generators": [
                {"name": name, "n": list(nvec), "q": list(qvec)}
                for name, (nvec, qvec) in self.generator_names
            ],
        }

    def content_hash(self) -> str:
        """Hash of the defining data, stable across processes."""
        import hashlib  # deferred: nothing else in the package needs it

        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()


@dataclass(frozen=True, eq=False)
class GroupElement:
    group: "FiniteGroup" = field(repr=False)
    n: BitVector
    q: BitVector

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (
            self.n == other.n
            and self.q == other.q
            and (self.group is other.group or self.group.spec == other.group.spec)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.q))

    def __mul__(self, other: GroupElement) -> GroupElement:
        return self.group.multiply(self, other)

    def inverse(self) -> GroupElement:
        return self.group.inverse(self)

    def order(self) -> int:
        return self.group.element_order(self)

    def is_identity(self) -> bool:
        return not any(self.n) and not any(self.q)

    def word(self) -> str:
        return self.group.element_to_word(self)

    def __str__(self) -> str:
        return self.word()

    def __repr__(self) -> str:
        return f"GroupElement({self.word()!r})"


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup held as an index set inside its parent group."""

    parent: "FiniteGroup" = field(repr=False)
    indices: frozenset[int]
    generators: tuple[GroupElement, ...]
    # Right-coset labels, set by FiniteGroup._right_cosets on first use.
    # They die with this object; held by the group, they would wait for
    # the cyclic collector with it (GroupElement.group <-> elements).
    _cosets: tuple[tuple[int, ...], tuple[int, ...]] | None = field(
        default=None, init=False, repr=False
    )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.indices == other.indices and (
            self.parent is other.parent or self.parent.spec == other.parent.spec
        )

    def __hash__(self) -> int:
        return hash(self.indices)

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(self.parent.element(i) for i in sorted(self.indices))

    def __contains__(self, g: GroupElement) -> bool:
        return self.parent.index(g) in self.indices

    def __repr__(self) -> str:
        gens = ", ".join(g.word() for g in self.generators) or "1"
        return f"Subgroup(<{gens}>, order={self.order})"


@dataclass(frozen=True)
class ConjugacyClass:
    index: int
    representative: GroupElement
    elements: tuple[GroupElement, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


class FiniteGroup:
    """A fully enumerated group with index-based internal tables.

    Canonical element order is lexicographic on the concatenated bit
    string (n followed by q, first coordinate most significant), so the
    identity always has index 0.  Canonical conjugacy class order sorts
    by (representative order, class size, smallest element index).
    """

    def __init__(self, spec: GroupSpec):
        spec.validate()
        if spec.order() > MAX_BUILD_ORDER:
            raise GroupTooLargeError(
                f"group order {spec.order()} exceeds the build bound {MAX_BUILD_ORDER}"
            )
        self.spec = spec
        k, m = spec.n_rank, spec.q_rank
        total = k + m
        self._n = 1 << total
        coords: list[tuple[BitVector, BitVector]] = []
        for idx in range(self._n):
            bits = tuple((idx >> (total - 1 - p)) & 1 for p in range(total))
            coords.append((bits[:k], bits[k:]))
        self._coords = coords
        self._index: dict[tuple[BitVector, BitVector], int] = {
            c: i for i, c in enumerate(coords)
        }
        self.elements: tuple[GroupElement, ...] = tuple(
            GroupElement(self, nvec, qvec) for nvec, qvec in coords
        )

        phi_by_q: dict[BitVector, BitMatrix] = {}
        for qvec in sorted({q for _, q in coords}):
            mat = _mat_identity(k)
            for j, bit in enumerate(qvec):
                if bit:
                    mat = _mat_mul(mat, spec.action[j])
            phi_by_q[qvec] = mat
        self._phi_by_q = phi_by_q

        # Element index = (n_int << m) | q_int, both first coordinate most
        # significant; image[q_int][n_int] is Phi_q(n) as an integer, built
        # by linearity from the columns of Phi_q.
        image = []
        for q_int in range(1 << m):
            mat = phi_by_q[coords[q_int][1]]
            cols = [sum(mat[r][c] << (k - 1 - r) for r in range(k)) for c in range(k)]
            img = [0] * (1 << k)
            for n_int in range(1, 1 << k):
                low = n_int & -n_int
                img[n_int] = img[n_int ^ low] ^ cols[k - low.bit_length()]
            image.append(img)
        qmask, qs = (1 << m) - 1, range(1 << m)
        mul = []
        inv = []
        for a in range(self._n):
            n1, q1 = a >> m, a & qmask
            mul.append([((n1 ^ n2) << m) | (q1 ^ q2) for n2 in image[q1] for q2 in qs])
            inv.append((image[q1][n1] << m) | q1)
        self._mul = mul
        self._inv = inv
        orders = [0] * self._n
        for a in range(self._n):
            acc, o = a, 1
            while acc != 0:
                acc = mul[acc][a]
                o += 1
            orders[a] = o
        self._orders = orders

        names: dict[str, int] = {}
        for name, (nvec, qvec) in spec.generator_names:
            names[name] = self._index[(nvec, qvec)]
        self._gen_index = names
        self._basis_names = self._match_basis_names()
        self._classes: tuple[ConjugacyClass, ...] | None = None
        self._class_of: list[int] | None = None
        self._char_table_cache = None

    # -- basic structure ------------------------------------------------

    @property
    def order(self) -> int:
        return self._n

    def identity(self) -> GroupElement:
        return self.elements[0]

    def element(self, index: int) -> GroupElement:
        return self.elements[index]

    def index(self, g: GroupElement) -> int:
        if g.group is not self and g.group.spec != self.spec:
            raise ValueError("element belongs to a different group")
        return self._index[(g.n, g.q)]

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.elements[self._mul[self.index(a)][self.index(b)]]

    def inverse(self, a: GroupElement) -> GroupElement:
        return self.elements[self._inv[self.index(a)]]

    def element_order(self, a: GroupElement) -> int:
        return self._orders[self.index(a)]

    def exponent(self) -> int:
        return lcm(*self._orders)

    def basis_generators(self) -> tuple[GroupElement, ...]:
        """The elements (e_i, 0) and (0, f_j); always a generating set."""
        k, m = self.spec.n_rank, self.spec.q_rank
        out = []
        for i in range(k):
            nvec = tuple(1 if p == i else 0 for p in range(k))
            out.append(self.elements[self._index[(nvec, (0,) * m)]])
        for j in range(m):
            qvec = tuple(1 if p == j else 0 for p in range(m))
            out.append(self.elements[self._index[((0,) * k, qvec)]])
        return tuple(out)

    # -- words ----------------------------------------------------------

    def generator(self, name: str) -> GroupElement:
        if name not in self._gen_index:
            raise KeyError(f"unknown generator {name!r}")
        return self.elements[self._gen_index[name]]

    def evaluate_word(self, names: Sequence[str]) -> GroupElement:
        """Multiply named generators left to right; empty word is the identity."""
        acc = 0
        for name in names:
            if name not in self._gen_index:
                raise KeyError(f"unknown generator {name!r}")
            acc = self._mul[acc][self._gen_index[name]]
        return self.elements[acc]

    def _match_basis_names(self) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
        """Names for the basis elements, if the spec labels all of them."""
        k, m = self.spec.n_rank, self.spec.q_rank
        by_coord = {coord: name for name, coord in self.spec.generator_names}
        n_names, q_names = [], []
        for i in range(k):
            nvec = tuple(1 if p == i else 0 for p in range(k))
            name = by_coord.get((nvec, (0,) * m))
            if name is None:
                return None
            n_names.append(name)
        for j in range(m):
            qvec = tuple(1 if p == j else 0 for p in range(m))
            name = by_coord.get(((0,) * k, qvec))
            if name is None:
                return None
            q_names.append(name)
        return tuple(n_names), tuple(q_names)

    def element_to_word(self, g: GroupElement) -> str:
        """Normal form: n-part basis names in index order, then q-part."""
        if g.is_identity():
            return "1"
        if self._basis_names is None:
            nbits = "".join(str(b) for b in g.n)
            qbits = "".join(str(b) for b in g.q)
            return f"({nbits}|{qbits})"
        n_names, q_names = self._basis_names
        parts = [n_names[i] for i, b in enumerate(g.n) if b]
        parts += [q_names[j] for j, b in enumerate(g.q) if b]
        return "*".join(parts)

    # -- conjugacy ------------------------------------------------------

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        if self._classes is None:
            self._compute_classes()
        return self._classes

    def class_index_of(self, g: GroupElement) -> int:
        if self._class_of is None:
            self._compute_classes()
        return self._class_of[self.index(g)]

    def class_of(self, g: GroupElement) -> ConjugacyClass:
        return self.conjugacy_classes()[self.class_index_of(g)]

    def _compute_classes(self) -> None:
        mul, inv = self._mul, self._inv
        assigned = [-1] * self._n
        raw: list[list[int]] = []
        for e in range(self._n):
            if assigned[e] >= 0:
                continue
            orbit = sorted({mul[mul[c][e]][inv[c]] for c in range(self._n)})
            label = len(raw)
            for x in orbit:
                assigned[x] = label
            raw.append(orbit)
        raw.sort(key=lambda orb: (self._orders[orb[0]], len(orb), orb[0]))
        classes = []
        class_of = [0] * self._n
        for ci, orbit in enumerate(raw):
            for x in orbit:
                class_of[x] = ci
            classes.append(
                ConjugacyClass(
                    index=ci,
                    representative=self.elements[orbit[0]],
                    elements=tuple(self.elements[x] for x in orbit),
                )
            )
        self._classes = tuple(classes)
        self._class_of = class_of

    # -- subgroups ------------------------------------------------------

    def _closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Subgroup generated by ``seed``: the coset walk from the trivial subgroup."""
        return self._extend(frozenset({0}), [self._mul[0]], tuple({x for x in seed if x}))

    def _extend(
        self, sub: frozenset[int], rows: list[list[int]], gens: tuple[int, ...]
    ) -> frozenset[int]:
        """<sub, gens> for a subgroup ``sub``, closed one right coset at a time.

        The orbit of the coset sub*1 under right multiplication by ``gens``
        is every right coset of sub in <sub, gens> when ``gens`` alone
        generate that subgroup, or when each element of ``gens`` normalises
        sub (then sub*<gens> is already a group).  Each new representative z
        adds sub*z in one set update and is then stepped by ``gens``, so the
        walk costs O(|result|) inserts plus O([result : sub] * |gens|)
        lookups.  From the trivial subgroup it is the breadth-first orbit of
        the identity.  ``rows`` holds the multiplication-table row of each
        element of sub, so a caller extending one sub many times builds
        them once.
        """
        mul = self._mul
        c = set(sub)
        reps = [0]
        for z in reps:
            row = mul[z]
            for g in gens:
                y = row[g]
                if y not in c:
                    c.update([r[y] for r in rows])
                    reps.append(y)
        return frozenset(c)

    def subgroup_closure(self, gens: Iterable[GroupElement]) -> Subgroup:
        """Smallest subgroup containing ``gens``; empty input gives <1>."""
        gens = tuple(gens)
        idxs = self._closure(self.index(g) for g in gens)
        return Subgroup(parent=self, indices=idxs, generators=gens)

    def right_transversal(self, sub: Subgroup) -> tuple[GroupElement, ...]:
        """One representative per right coset H*g, identity coset first."""
        self._check_subgroup(sub)
        reps, _ = self._right_cosets(sub)
        return tuple(self.elements[e] for e in reps)

    def _right_cosets(self, sub: Subgroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Right-coset labels for H\\G: (representative indices, label of each index).

        Cosets are labelled in the order of their smallest element index, so
        the identity coset is label 0; each representative is that smallest
        index.  Right multiplication by g sends label c to
        labels[mul[reps[c]][g]].  Each subgroup is labelled once, on first
        use, and keeps its labels.
        """
        if sub._cosets is None:
            mul = self._mul
            members = sub.indices
            labels = [-1] * self._n
            reps = []
            for e in range(self._n):
                if labels[e] < 0:
                    label = len(reps)
                    reps.append(e)
                    for h in members:
                        labels[mul[h][e]] = label
            object.__setattr__(sub, "_cosets", (tuple(reps), tuple(labels)))
        return sub._cosets

    def _check_subgroup(self, sub: Subgroup) -> None:
        if sub.parent is not self and sub.parent.spec != self.spec:
            raise ValueError("subgroup belongs to a different group")

    def is_normal(self, sub: Subgroup) -> bool:
        self._check_subgroup(sub)
        mul, inv = self._mul, self._inv
        for g in self.basis_generators():
            gi = self.index(g)
            for h in sub.indices:
                if mul[mul[gi][h]][inv[gi]] not in sub.indices:
                    return False
        return True

    def center(self) -> Subgroup:
        idxs = frozenset(
            self.index(cls.representative)
            for cls in self.conjugacy_classes()
            if cls.size == 1
        )
        sub = Subgroup(parent=self, indices=idxs, generators=())
        return Subgroup(parent=self, indices=idxs, generators=self.minimal_generators(sub))

    def minimal_generators(self, sub: Subgroup) -> tuple[GroupElement, ...]:
        """A generating set of minimum size, via the Frattini quotient.

        For a 2-group the Frattini subgroup is generated by squares and
        commutators, and a set generates iff it generates modulo it.  The
        commutators add nothing: [a, b] = a^-2 (a b^-1)^2 b^2 in any group,
        so the squares alone generate the Frattini subgroup.
        """
        self._check_subgroup(sub)
        return tuple(self.elements[x] for x in self._minimal_generators(sub.indices))

    def _minimal_generators(self, indices: frozenset[int]) -> tuple[int, ...]:
        if len(indices) == 1:
            return ()
        mul = self._mul
        hidx = sorted(indices)
        squares = tuple({mul[x][x] for x in hidx})
        picked: list[int] = []
        span = self._closure(squares)
        for x in hidx:
            if len(span) == len(indices):
                break
            if x not in span:
                # span contains the Frattini subgroup, so x normalises it.
                picked.append(x)
                span = self._extend(span, [mul[h] for h in span], (x,))
        if self._closure(picked) != indices:
            raise RuntimeError("minimal generating set search failed")
        return tuple(picked)

    def enumerate_subgroups(self) -> tuple[Subgroup, ...]:
        """All subgroups, by breadth-first closure over one-element extensions.

        Each subgroup s is extended by every x outside it, in index order:
        <s, x> is walked out from s one right coset at a time, stepping by
        the witness generators of s plus x.  Once x is tried, the rest of
        the coset s*x is skipped: <s, h*x> = <s, x> for h in s, and the
        smallest x of a coset comes first, so the witnesses are unchanged.
        """
        if self._n > DEFAULT_ENUMERATION_BOUND:
            raise GroupTooLargeError(
                "subgroup enumeration requires group order <= "
                f"{DEFAULT_ENUMERATION_BOUND}, got {self._n}"
            )
        mul = self._mul
        trivial = frozenset({0})
        witness: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
        frontier = [trivial]
        while frontier:
            nxt = []
            for s in frontier:
                base = witness[s]
                rows = [mul[h] for h in s]
                tried = set(s)
                for x in range(1, self._n):
                    if x in tried:
                        continue
                    tried.update([r[x] for r in rows])
                    c = self._extend(s, rows, base + (x,))
                    if c not in witness:
                        witness[c] = base + (x,)
                        nxt.append(c)
            frontier = nxt
        subs = sorted(witness, key=lambda s: (len(s), sorted(s)))
        return tuple(
            Subgroup(
                parent=self,
                indices=s,
                generators=tuple(self.elements[x] for x in witness[s]),
            )
            for s in subs
        )

    def enumerate_normal_subgroups(self) -> tuple[Subgroup, ...]:
        """All normal subgroups, with minimal generating witnesses.

        Breadth-first closure again, but extensions add a whole conjugacy
        class at a time; a subgroup generated by full classes is normal,
        and every normal subgroup arises this way.  An extension of s by a
        new class C is walked out from s one right coset at a time, stepping
        by C alone (s is normal); the classes inside the cosets s*x, x in C,
        are then skipped, since each of them generates the same subgroup
        together with s.
        """
        if self._n > DEFAULT_ENUMERATION_BOUND:
            raise GroupTooLargeError(
                "normal subgroup enumeration requires group order <= "
                f"{DEFAULT_ENUMERATION_BOUND}, got {self._n}"
            )
        mul = self._mul
        class_sets = [
            tuple(self.index(x) for x in cls.elements)
            for cls in self.conjugacy_classes()
        ]
        trivial = frozenset({0})
        gens: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
        frontier = [trivial]
        while frontier:
            nxt = []
            for s in frontier:
                rows = [mul[h] for h in s]
                tried = set(s)
                for cs in class_sets:
                    if cs[0] in tried:
                        continue
                    tried.update([r[x] for r in rows for x in cs])
                    c = self._extend(s, rows, cs)
                    if c not in gens:
                        gens[c] = self._minimal_generators(c)
                        nxt.append(c)
            frontier = nxt
        return tuple(
            Subgroup(
                parent=self,
                indices=s,
                generators=tuple(self.elements[x] for x in gens[s]),
            )
            for s in sorted(gens, key=lambda s: (len(s), sorted(s)))
        )


def build_group(spec: GroupSpec) -> FiniteGroup:
    """Validate ``spec`` and fully enumerate the group it defines."""
    return FiniteGroup(spec)
