"""Finite groups of shape N x| Q with N and Q elementary abelian 2-groups.

Elements are pairs (n, q) of bit vectors multiplied by

    (n1, q1) * (n2, q2) = (n1 + Phi_q1(n2), q1 + q2),

where Phi is a commuting family of involutive F2 matrices indexed by the
basis of Q and Phi_q is the product of the matrices selected by the set
bits of q.  An element is encoded by one integer, its index
(n_int << q_rank) | q_int, each vector read first coordinate most
significant; bit vectors appear only in a ``GroupSpec``, which is checked
and normalised when it is made.  F2 matrices act as int columns (``_apply``).

Ownership: a ``FiniteGroup`` stores only ints and strings (its tables, the
class partition, the element words, the certified character values and
the subgroup lattice walk), so nothing it holds points back at it and a
dropped group is freed by reference counting alone.  Element, class,
subgroup and character-table objects point at their group, and are built
when an API call asks for one.  Derived tables (the class partition and
class index of each element, the element words, the lattice walk and a
subgroup's right cosets) are cached properties: computed on first read
and kept by their owner.  All objects are immutable after construction,
apart from those caches, and safe for concurrent reads.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property, reduce
from math import lcm
from operator import or_

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


class _Frozen:
    """Base of qslab's immutable classes.

    Assigning or deleting any attribute raises AttributeError, so
    ``__init__`` puts each field into ``__dict__`` directly, once.
    Equality, hash and ``repr`` follow the fields named in ``_fields``, in
    constructor order; a class that compares otherwise overrides all three.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


def _sequence(value, what: str) -> Sequence:
    """``value``, if it is a sequence but not a string or bytes (read a character at a time)."""
    if isinstance(value, (str, bytes)):
        raise GroupSpecError(f"{what} must not be a string, got {value!r}")
    if not isinstance(value, Sequence):
        raise GroupSpecError(f"{what} must be a sequence, got {value!r}")
    return value


def _as_bits(values: Sequence, length: int, what: str) -> BitVector:
    """``values`` as a tuple of 0s and 1s, each read with ``int()``, which must not round."""
    try:
        raw = tuple(_sequence(values, what))
        vec = tuple(int(v) for v in raw)
    except (TypeError, ValueError, OverflowError):  # _sequence's GroupSpecError too
        raise GroupSpecError(f"{what} must consist of bits, got {values!r}") from None
    if any(not isinstance(v, str) and v != b for v, b in zip(raw, vec)):
        raise GroupSpecError(f"{what} must consist of bits, got {raw!r}")
    if len(vec) != length:
        raise GroupSpecError(f"{what} must have length {length}, got {len(vec)}")
    if any(b not in (0, 1) for b in vec):
        raise GroupSpecError(f"{what} must consist of bits, got {vec}")
    return vec


def _bits_to_int(bits: BitVector) -> int:
    """``bits`` read as binary digits, first most significant."""
    acc = 0
    for b in bits:
        acc = (acc << 1) | b
    return acc


def _columns(mat: BitMatrix) -> tuple[int, ...]:
    """The columns of ``mat``, each read as a vector by ``_bits_to_int``."""
    return tuple(map(_bits_to_int, zip(*mat)))


def _apply(cols: tuple[int, ...], vec: int) -> int:
    """M vec for the matrix M with columns ``cols``, vectors read as by ``_bits_to_int``."""
    acc = 0
    for col in reversed(cols):
        if vec & 1:
            acc ^= col
        vec >>= 1
    return acc


class GroupSpec(_Frozen):
    """Defining data for one group of the supported family, checked when made.

    ``action`` holds one n_rank x n_rank bit matrix per Q basis vector,
    acting on column vectors.  ``generator_names`` maps presentation
    generator labels to (n, q) coordinate pairs; the labels are the
    vocabulary of every word appearing in input files and reports.

    Any sequence but a string or bytes may hold the matrices, rows and
    coordinates, and each bit is read with ``int()``.  The fields hold one
    normal form, tuples of the ints 0 and 1, so two spellings of one group
    give equal specs and equal ``content_hash`` values.
    """

    _fields = ("n_rank", "q_rank", "action", "generator_names")

    def __init__(
        self,
        n_rank: int,
        q_rank: int,
        action: Sequence[Sequence[Sequence[int]]],
        generator_names: Sequence[tuple[str, tuple[Sequence[int], Sequence[int]]]],
    ):
        if not isinstance(n_rank, int) or n_rank < 1:
            raise GroupSpecError(f"n_rank must be a positive integer, got {n_rank!r}")
        if not isinstance(q_rank, int) or q_rank < 0:
            raise GroupSpecError(f"q_rank must be a nonnegative integer, got {q_rank!r}")
        action = _sequence(action, "action")
        if len(action) != q_rank:
            raise GroupSpecError(f"expected {q_rank} action matrices, got {len(action)}")
        k = n_rank
        mats, cols = [], []
        for j, mat in enumerate(action):
            what = f"action matrix {j}"
            rows = [_sequence(row, f"{what} row") for row in _sequence(mat, what)]
            if len(rows) != k or any(len(row) != k for row in rows):
                raise GroupSpecError(f"{what} is not {k}x{k}")
            mats.append(tuple(_as_bits(row, k, f"{what} row") for row in rows))
            cols.append(_columns(mats[j]))
            if any(_apply(cols[j], x) != 1 << (k - 1 - c) for c, x in enumerate(cols[j])):
                raise GroupSpecError(f"{what} is not an involution")
        for i, a in enumerate(cols):
            for j, b in enumerate(cols[i + 1 :], i + 1):
                if [_apply(a, x) for x in b] != [_apply(b, x) for x in a]:
                    raise GroupSpecError(f"action matrices {i} and {j} do not commute")
        seen: dict[str, tuple[BitVector, BitVector]] = {}
        for entry in _sequence(generator_names, "generator_names"):
            try:
                name, (nvec, qvec) = entry
            except (TypeError, ValueError):
                raise GroupSpecError(
                    f"generator_names entry {entry!r} is not (name, (n-part, q-part))"
                ) from None
            if not isinstance(name, str) or not name.isidentifier():
                raise GroupSpecError(f"generator name {name!r} is not an identifier")
            if name in seen:
                raise GroupSpecError(f"duplicate generator name {name!r}")
            seen[name] = (
                _as_bits(nvec, n_rank, f"generator {name} n-part"),
                _as_bits(qvec, q_rank, f"generator {name} q-part"),
            )
        names = tuple(seen.items())
        self.__dict__.update(
            n_rank=int(n_rank), q_rank=int(q_rank), action=tuple(mats), generator_names=names
        )

    def validate(self) -> None:
        """Does nothing: a spec is checked when it is made (kept for callers of 0.8)."""

    def content_hash(self) -> str:
        """Hash of the defining data, stable across processes."""
        import hashlib  # deferred: nothing else in the module needs hashlib or json
        import json

        data = {
            "n_rank": self.n_rank,
            "q_rank": self.q_rank,
            "action": self.action,
            "generators": [
                {"name": name, "n": nvec, "q": qvec} for name, (nvec, qvec) in self.generator_names
            ],
        }
        blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()


class GroupElement(_Frozen):
    """An element of ``group``, held as its index (see ``FiniteGroup``)."""

    def __init__(self, group: FiniteGroup, index: int):
        if not 0 <= index < group._n:
            raise IndexError(f"element index {index} is outside 0..{group._n - 1}")
        self.__dict__.update(group=group, index=index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.index == other.index and (
            self.group is other.group or self.group.spec == other.group.spec
        )

    def __hash__(self) -> int:
        return hash(self.index)

    def __mul__(self, other: GroupElement) -> GroupElement:
        group = self.group
        return GroupElement(group, group._mul[self.index][group.index(other)])

    def inverse(self) -> GroupElement:
        return GroupElement(self.group, self.group._inv[self.index])

    def order(self) -> int:
        return self.group._orders[self.index]

    def is_identity(self) -> bool:
        return self.index == 0

    def word(self) -> str:
        """Basis names in coordinate order, or ``(n-bits|q-bits)`` if one is unnamed."""
        return self.group._words[self.index]

    def __str__(self) -> str:
        return self.word()

    def __repr__(self) -> str:
        return f"GroupElement({self.word()!r})"


class Subgroup(_Frozen):
    """A subgroup held as an index set inside its parent group."""

    def __init__(
        self, parent: FiniteGroup, indices: frozenset[int], generators: tuple[GroupElement, ...]
    ):
        self.__dict__.update(parent=parent, indices=indices, generators=generators)

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

    @cached_property
    def _cosets(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Right-coset labels, see ``FiniteGroup._right_cosets``."""
        return self.parent._right_cosets(self)

    def __repr__(self) -> str:
        gens = ", ".join(g.word() for g in self.generators) or "1"
        return f"Subgroup(<{gens}>, order={self.order})"


class ConjugacyClass(_Frozen):
    _fields = ("index", "representative", "elements")

    def __init__(
        self, index: int, representative: GroupElement, elements: tuple[GroupElement, ...]
    ):
        self.__dict__.update(index=index, representative=representative, elements=elements)

    @property
    def size(self) -> int:
        return len(self.elements)


class FiniteGroup:
    """A fully enumerated group with index-based internal tables.

    An element's index, (n_int << q_rank) | q_int, is its one encoding, so
    canonical element order is lexicographic on the bit string n then q and
    the identity has index 0.  Canonical conjugacy class order sorts by
    (representative order, class size, smallest element index).
    """

    def __init__(self, spec: GroupSpec):
        k, m = spec.n_rank, spec.q_rank
        # Compared by exponent: the order of a huge rank is never formed.
        if k + m >= MAX_BUILD_ORDER.bit_length():
            raise GroupTooLargeError(
                f"group order 2^{k + m} exceeds the build bound {MAX_BUILD_ORDER}"
            )
        self.spec = spec
        self._n = 1 << (k + m)

        # image[q_int][n_int] is Phi_q(n) as an integer; Phi_q composes the
        # matrices of the set bits of q (coordinate j of q is bit m - 1 - j).
        basis_images = [
            [_apply(cols, n_int) for n_int in range(1 << k)] for cols in map(_columns, spec.action)
        ]
        image = [list(range(1 << k))]
        for q_int in range(1, 1 << m):
            low = q_int & -q_int
            step = basis_images[m - low.bit_length()]
            image.append([step[x] for x in image[q_int ^ low]])
        self._image = image
        qmask, qs = (1 << m) - 1, range(1 << m)
        mul = []
        inv = []
        for a in range(self._n):
            n1, q1 = a >> m, a & qmask
            mul.append([((n1 ^ n2) << m) | (q1 ^ q2) for n2 in image[q1] for q2 in qs])
            inv.append((image[q1][n1] << m) | q1)
        self._mul = mul
        self._inv = inv
        # (n, q)^2 = (n + Phi_q(n), 0) lies in N, whose elements square to 1,
        # so every order is 1, 2 or 4.
        self._orders = [1] + [2 if mul[a][a] == 0 else 4 for a in range(1, self._n)]

        self._gen_index = {name: _bits_to_int(n + q) for name, (n, q) in spec.generator_names}
        # Rows of character values, set by characters.compute_character_table
        # once they are certified.
        self._char_grid: tuple[tuple[int, ...], ...] | None = None

    # -- basic structure ------------------------------------------------

    @property
    def order(self) -> int:
        return self._n

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        """Every element in index order, built on each access."""
        return tuple(GroupElement(self, i) for i in range(self._n))

    def identity(self) -> GroupElement:
        return GroupElement(self, 0)

    def element(self, index: int) -> GroupElement:
        return GroupElement(self, index)

    def index(self, g: GroupElement) -> int:
        if g.group is not self and g.group.spec != self.spec:
            raise ValueError("element belongs to a different group")
        return g.index

    def exponent(self) -> int:
        return lcm(*self._orders)

    def basis_generators(self) -> tuple[GroupElement, ...]:
        """The elements (e_i, 0) and (0, f_j); always a generating set."""
        total = self.spec.n_rank + self.spec.q_rank
        return tuple(GroupElement(self, 1 << (total - 1 - p)) for p in range(total))

    # -- words ----------------------------------------------------------

    def generator(self, name: str) -> GroupElement:
        if name not in self._gen_index:
            raise KeyError(f"unknown generator {name!r}")
        return GroupElement(self, self._gen_index[name])

    def evaluate_word(self, names: Sequence[str]) -> GroupElement:
        """Multiply named generators left to right; empty word is the identity."""
        acc = 0
        for name in names:
            if name not in self._gen_index:
                raise KeyError(f"unknown generator {name!r}")
            acc = self._mul[acc][self._gen_index[name]]
        return GroupElement(self, acc)

    @cached_property
    def _words(self) -> tuple[str, ...]:
        """The word of every element index; a later name of a basis element wins."""
        k, m = self.spec.n_rank, self.spec.q_rank
        by_index = {i: name for name, i in self._gen_index.items()}
        names = [by_index.get(1 << p) for p in reversed(range(k + m))]
        bits = [format(i, f"0{k + m}b") for i in range(self._n)]
        if None in names:
            words = [f"({b[:k]}|{b[k:]})" for b in bits]
        else:
            words = ["*".join(name for name, bit in zip(names, b) if bit == "1") for b in bits]
        words[0] = "1"
        return tuple(words)

    # -- conjugacy ------------------------------------------------------

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        """The classes in canonical order, built from the partition on each call."""
        return tuple(map(self._conjugacy_class, range(len(self._partition))))

    def class_index_of(self, g: GroupElement) -> int:
        return self._class_of[self.index(g)]

    def _conjugacy_class(self, ci: int) -> ConjugacyClass:
        elements = tuple(GroupElement(self, x) for x in self._partition[ci])
        return ConjugacyClass(index=ci, representative=elements[0], elements=elements)

    @cached_property
    def _partition(self) -> tuple[tuple[int, ...], ...]:
        """Sorted member indices of each class in canonical order."""
        mul, inv = self._mul, self._inv
        seen = [False] * self._n
        raw: list[tuple[int, ...]] = []
        for e in range(self._n):
            if not seen[e]:
                orbit = tuple(sorted({mul[mul[c][e]][inv[c]] for c in range(self._n)}))
                for x in orbit:
                    seen[x] = True
                raw.append(orbit)
        raw.sort(key=lambda orb: (self._orders[orb[0]], len(orb), orb[0]))
        return tuple(raw)

    @cached_property
    def _class_of(self) -> tuple[int, ...]:
        """The canonical class index of each element index."""
        class_of = [0] * self._n
        for ci, members in enumerate(self._partition):
            for x in members:
                class_of[x] = ci
        return tuple(class_of)

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
        return tuple(GroupElement(self, e) for e in sub._cosets[0])

    def _right_cosets(self, sub: Subgroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Right-coset labels for H\\G: (representative indices, label of each index).

        Cosets are labelled in the order of their smallest element index, so
        the identity coset is label 0; each representative is that smallest
        index.  Right multiplication by g sends label c to
        labels[mul[reps[c]][g]].  Each subgroup keeps its labels as
        ``Subgroup._cosets``.
        """
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
        return tuple(reps), tuple(labels)

    def _check_subgroup(self, sub: Subgroup) -> None:
        if sub.parent is not self and sub.parent.spec != self.spec:
            raise ValueError("subgroup belongs to a different group")

    def is_normal(self, sub: Subgroup) -> bool:
        """Whether ``sub`` is a union of conjugacy classes."""
        self._check_subgroup(sub)
        return self._class_closed(sub.indices, sub.indices)

    def _class_closed(self, sub: frozenset[int], elems: Iterable[int]) -> bool:
        """Whether ``sub`` holds the conjugacy class of each of ``elems``.

        When ``elems`` generate the subgroup ``sub`` this is normality:
        g*sub*g^-1 is generated by the conjugates g*x*g^-1 of ``elems``.
        """
        members, class_of = self._partition, self._class_of
        return all(y in sub for x in elems for y in members[class_of[x]])

    def center(self) -> Subgroup:
        idxs = frozenset(members[0] for members in self._partition if len(members) == 1)
        gens = tuple(GroupElement(self, x) for x in self._minimal_generators(idxs))
        return Subgroup(parent=self, indices=idxs, generators=gens)

    def minimal_generators(self, sub: Subgroup) -> tuple[GroupElement, ...]:
        """A generating set of minimum size, via the Frattini quotient.

        For a 2-group the Frattini subgroup is generated by squares and
        commutators, and a set generates iff it generates modulo it.  The
        commutators add nothing: [a, b] = a^-2 (a b^-1)^2 b^2 in any group,
        so the squares alone generate the Frattini subgroup.
        """
        self._check_subgroup(sub)
        return tuple(GroupElement(self, x) for x in self._minimal_generators(sub.indices))

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

    @cached_property
    def _lattice(self) -> tuple[tuple[frozenset[int], tuple[int, ...]], ...]:
        """Every subgroup with its witness, sorted by (order, sorted indices).

        Breadth first: each subgroup s is extended, in index order, by the
        least element x of a right coset s*x (<s, h*x> = <s, x> for h in s);
        <s, x> is walked out from s one right coset at a time, stepping by
        the witness of s plus x, which becomes the witness of a new subgroup.
        The level of s is d(s), and within a level subgroups are found in
        lexicographic order of their witnesses, so a witness is the least
        generating tuple of length d(s): a basis modulo the Frattini
        subgroup, hence the greedy choice of ``_minimal_generators``.  Being
        least, a witness is strictly increasing, its prefix is the witness of
        the subgroup s it generates, and its last element is the least of its
        coset of s (else a smaller tuple would do); so s is only extended by
        cosets whose least element exceeds witness[s][-1].  x is least in
        s*x iff no h in s has h*x < x: bit x of descent[h] marks h*x < x, so
        the candidates of s are the zero bits of the OR of descent[h] over
        h in s, above witness[s][-1] and in ascending order.  The masks cost
        one pass over the multiplication table per walk, which runs once
        per group.
        """
        mul = self._mul
        descent = [sum(1 << x for x, y in enumerate(row) if y < x) for row in mul]
        everything = (1 << self._n) - 1
        trivial = frozenset({0})
        witness: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
        frontier = [trivial]
        while frontier:
            nxt = []
            for s in frontier:
                base = witness[s]
                rows = [mul[h] for h in s]
                floor = base[-1] if base else 0
                free = ~reduce(or_, [descent[h] for h in s]) & everything & -(2 << floor)
                while free:
                    bit = free & -free
                    free ^= bit
                    x = bit.bit_length() - 1
                    c = self._extend(s, rows, base + (x,))
                    if c not in witness:
                        witness[c] = base + (x,)
                        nxt.append(c)
            frontier = nxt
        return tuple(sorted(witness.items(), key=lambda p: (len(p[0]), sorted(p[0]))))

    def enumerate_subgroups(self) -> tuple[Subgroup, ...]:
        """All subgroups; each witness is its ``minimal_generators`` (see ``_lattice``)."""
        if self._n > DEFAULT_ENUMERATION_BOUND:
            raise GroupTooLargeError(
                "subgroup enumeration requires group order <= "
                f"{DEFAULT_ENUMERATION_BOUND}, got {self._n}"
            )
        elements = self.elements
        return tuple(
            Subgroup(self, s, tuple(elements[x] for x in w)) for s, w in self._lattice
        )

    def enumerate_normal_subgroups(self) -> tuple[Subgroup, ...]:
        """The normal part of ``enumerate_subgroups``, same order and witnesses.

        s is normal iff it holds the conjugacy class of each element of its
        witness: the witness generates s, so each g*s*g^-1 is generated by
        conjugates of witness elements (see ``_class_closed``).
        """
        if self._n > DEFAULT_ENUMERATION_BOUND:
            raise GroupTooLargeError(
                "normal subgroup enumeration requires group order <= "
                f"{DEFAULT_ENUMERATION_BOUND}, got {self._n}"
            )
        elements = self.elements
        return tuple(
            Subgroup(self, s, tuple(elements[x] for x in w))
            for s, w in self._lattice
            if self._class_closed(s, w)
        )


def build_group(spec: GroupSpec) -> FiniteGroup:
    """Fully enumerate the group that ``spec`` defines."""
    return FiniteGroup(spec)
