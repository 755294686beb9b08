"""Exact character tables for the supported 2-group family.

Every group of the family is N x| Q with N and Q elementary abelian, so
each irreducible character is induced from a linear character of a
little group N x| Q_v (the Wigner-Mackey construction).  The values are
rational integers computed on integer bitmasks, and the table is certified
by checking both orthogonality relations as exact integer identities.
Each row of a Gram matrix is computed as one sum of Python ints whose
fixed-width lanes hold its entries (Kronecker substitution; the lane width
comes from an explicit bound, see ``_is_diagonal_gram``).

Every value is a rational integer, held as an ``ExactScalar`` (an
``int``); a class function refuses any other value at construction.
"""

from __future__ import annotations

import json
import os
from operator import index, mul

from .groups import FiniteGroup, _Frozen

REFERENCE_FORMAT = "qslab-published/1"
CACHE_FORMAT = "qslab-chartable-cache/1"


class CharacterTableError(RuntimeError):
    """A character table failed its exact certification or lacks the trivial row."""


class AlignmentError(ValueError):
    """A computed table cannot be matched to a reference fixture."""


class ExactScalar(int):
    """A class-function value: a rational integer.

    A ``bool`` and anything ``operator.index`` refuses (a ``Fraction``, a
    float, a complex number, a string) raise ValueError.

    ``re`` (the value) and ``im`` (0) are kept for the one reader written
    against the earlier Gaussian-rational values, the ``family`` certificate
    of the benchmark (``perfbench/workloads.py``).  ``int(x)`` gives the
    plain ``int``.
    """

    __slots__ = ()
    im = 0
    re = property(int)

    def __new__(cls, value: int) -> "ExactScalar":
        if not isinstance(value, bool):
            try:
                return super().__new__(cls, index(value))
            except TypeError:
                pass
        raise ValueError(f"{value!r} is not a rational integer")


class ClassFunction(_Frozen):
    """A function constant on conjugacy classes, in canonical class order.

    Every value is a rational integer; any other value is refused here.
    The only arithmetic is scaling by an integer.
    """

    def __init__(self, group: FiniteGroup, values: tuple[ExactScalar, ...]):
        k = len(group._partition)
        # Values that already are ExactScalar pass through, so a table keeps
        # one object per distinct value.
        vals = tuple(v if type(v) is ExactScalar else ExactScalar(v) for v in values)
        if len(vals) != k:
            raise ValueError(f"expected {k} class values, got {len(vals)}")
        self.__dict__.update(group=group, values=vals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.values == other.values and self.group.spec == other.group.spec

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"ClassFunction(values={self.values!r})"

    def _check_same_group(self, other: "ClassFunction") -> None:
        if self.group is not other.group and self.group.spec != other.group.spec:
            raise ValueError("class functions on different groups")

    def __mul__(self, other: int) -> "ClassFunction":
        return ClassFunction(self.group, tuple(a * other for a in self.values))

    def at_identity(self) -> ExactScalar:
        return self.values[0]


def inner_product(f: ClassFunction, h: ClassFunction) -> int:
    """<f, h> = (1/|G|) sum over classes of |K| f(K) h(K), an exact integer.

    Conjugation fixes rational integers, so no conjugate is taken.  Raises
    ValueError when |G| does not divide the sum.
    """
    f._check_same_group(h)
    total = sum(
        len(members) * a * b
        for members, a, b in zip(f.group._partition, f.values, h.values)
    )
    value, rem = divmod(total, f.group.order)
    if rem:
        from fractions import Fraction

        raise ValueError(f"inner product {Fraction(total, f.group.order)} is not integral")
    return value


class CharacterTable(_Frozen):
    """Irreducible characters in canonical row order (degree, then values);
    tables compare and hash by identity."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, group: FiniteGroup, rows: tuple[ClassFunction, ...]):
        self.__dict__.update(group=group, rows=rows)

    def __repr__(self) -> str:
        return f"CharacterTable(rows={self.rows!r})"

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(row.at_identity() for row in self.rows)

    def trivial_index(self) -> int:
        for i, row in enumerate(self.rows):
            if all(v == 1 for v in row.values):
                return i
        raise CharacterTableError("table has no trivial character row")

    def linear_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degrees) if d == 1)

    def indices_of_degree(self, d: int) -> tuple[int, ...]:
        return tuple(i for i, deg in enumerate(self.degrees) if deg == d)

    def verify_orthogonality(self) -> bool:
        """Both orthogonality relations, as exact identities over Z.

        Rows: sum over classes of |K| a(K) b(K) = |G| delta(a, b).
        Columns: sum over rows of chi(c) chi(d) = |G|/|K_c| delta(c, d).
        Every value is a rational integer, fixed by complex conjugation, so
        the relations need no conjugate.
        """
        order = self.group.order
        sizes = list(map(len, self.group._partition))
        rows = [row.values for row in self.rows]
        return _is_diagonal_gram(rows, sizes, [order] * len(rows)) and _is_diagonal_gram(
            [[row[c] for row in rows] for c in range(len(sizes))],
            [1] * len(rows),
            [order // s for s in sizes],
        )


def _lane_width(
    vectors: list[list[int]], weights: list[int], diagonal: list[int]
) -> int:
    """Bits per lane B: 2^B exceeds sum_t w_t max|x|^2 and every diagonal entry."""
    top = max((abs(x) for vector in vectors for x in vector), default=0)
    return max([sum(weights) * top * top, *diagonal]).bit_length()


def _pack(lanes: list[int], width: int) -> int:
    """sum_j lanes[j] * 2^(width * j): signed lanes, one Python int."""
    return sum(x << (width * j) for j, x in enumerate(lanes) if x)


def _unpack(packed: int, width: int, count: int) -> list[int]:
    """The lanes x_j of ``_pack``, given every |x_j| < 2^(width - 1).

    Adding 2^(width - 1) to each lane makes it a digit in [0, 2^width), so
    no lane borrows from the next and each is read off by shift and mask.
    The bias sum_j 2^(width - 1) 2^(width j) is 2^(width - 1) times the
    repunit (2^(width count) - 1) / (2^width - 1).
    """
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    biased = packed + half * (((1 << (width * count)) - 1) // mask)
    return [((biased >> (width * j)) & mask) - half for j in range(count)]


def _is_diagonal_gram(
    vectors: list[list[int]], weights: list[int], diagonal: list[int]
) -> bool:
    """Whether G_ij = sum_t w_t x_it x_jt equals diagonal[i] * delta(i, j).

    Weights and diagonal entries are nonnegative integers.  Coordinate t
    of every vector is packed into one int Y_t = sum_j x_jt 2^(B j), so
    row i of the Gram matrix is the single sum S_i = sum_t (w_t x_it) Y_t
    = sum_j G_ij 2^(B j) (Kronecker substitution), to be compared with
    diagonal[i] 2^(B i).  The lanes of S_i - diagonal[i] 2^(B i) are
    c_j = G_ij - diagonal[i] delta(i, j), and

        |G_ij| <= sum_t w_t |x_it| |x_jt| <= sum_t w_t max|x|^2,

    while 0 <= G_ii, so every |c_j| < 2^B for B = ``_lane_width``.  If the
    packed ints are equal but some c_j is not 0, the lowest such c_j is a
    multiple of 2^B, which is impossible: equality of the packed ints
    implies equality of every lane.
    """
    width = _lane_width(vectors, weights, diagonal)
    packed = [_pack(column, width) for column in zip(*vectors)]
    for i, (x, d) in enumerate(zip(vectors, diagonal)):
        if sum(map(mul, map(mul, weights, x), packed)) != d << (width * i):
            return False
    return True


def compute_character_table(group: FiniteGroup) -> CharacterTable:
    """The full irreducible character table, computed and certified exactly.

    Little-group construction (Serre, Linear Representations of Finite
    Groups, 8.2, Prop. 25).  The characters of N are psi_v(n) = (-1)^(v.n),
    and q sends psi_v to psi_w with w = Phi_q^T v.  For each Q-orbit O of
    v, with stabilizer Q_v, and each linear character rho of Q_v, the
    induced character takes the value rho(q) * sum_{w in O} (-1)^(w.n) at
    (n, q) when q lies in Q_v, and 0 otherwise.  Vectors are the integer
    bitmasks of the element index, so v.n is the parity of (v & n).

    The values are certified once per group and kept on it; each call
    returns a new table object over them.
    """
    if group._char_grid is not None:
        return _table(group, group._char_grid)

    k, m = group.spec.n_rank, group.spec.q_rank
    # Column p of Phi_q is the image of the basis vector 1 << p, and bit p
    # of Phi_q^T v is the parity of v & (column p).
    columns = [[img[1 << p] for p in range(k)] for img in group._image]
    # (n_int, q_int) of each class representative's index.
    reps = [divmod(members[0], 1 << m) for members in group._partition]
    grid = []
    seen: set[int] = set()
    for v in range(1 << k):
        if v in seen:
            continue
        images = [
            sum(((v & col).bit_count() & 1) << p for p, col in enumerate(cols))
            for cols in columns
        ]
        orbit = set(images)
        seen |= orbit
        stabilizer = [q for q, w in enumerate(images) if w == v]
        orbit_sums = [sum((-1) ** (w & n).bit_count() for w in orbit) for n, _ in reps]
        # rho_u(q) = (-1)^(u.q): the linear characters of Q, restricted to Q_v.
        restrictions = {
            tuple((-1) ** (u & q).bit_count() for q in stabilizer) for u in range(1 << m)
        }
        for signs in restrictions:
            rho = dict(zip(stabilizer, signs))
            grid.append(tuple(rho.get(q, 0) * t for (_, q), t in zip(reps, orbit_sums)))

    grid.sort(key=lambda values: (values[0], values))
    scalars = {x: ExactScalar(x) for x in {x for values in grid for x in values}}
    grid = tuple(tuple(scalars[x] for x in values) for values in grid)
    table = _table(group, grid)
    if sum(d * d for d in table.degrees) != group.order:
        raise CharacterTableError("degree squares do not sum to the group order")
    if not table.verify_orthogonality():
        raise CharacterTableError("induced table fails orthogonality")
    group._char_grid = grid
    return table


def _table(group: FiniteGroup, grid: tuple[tuple[ExactScalar, ...], ...]) -> CharacterTable:
    return CharacterTable(group, tuple(ClassFunction(group, values) for values in grid))


def decompose(f: ClassFunction, table: CharacterTable) -> tuple[int, ...]:
    """Multiplicities of ``f`` against the irreducible rows.

    Each multiplicity is the integer sum over classes of |K| f(K) chi(K),
    divided exactly by |G| (conjugation fixes rational integers).  Raises
    ValueError if a sum is not divisible by |G|, which means ``f`` is not
    a virtual character.
    """
    group = table.group
    f._check_same_group(table.rows[0])
    weighted = [len(members) * v for members, v in zip(group._partition, f.values)]
    mults = []
    for row in table.rows:
        total = sum(map(mul, weighted, row.values))
        m, rem = divmod(total, group.order)
        if rem:
            from fractions import Fraction

            raise ValueError(
                f"multiplicity {Fraction(total, group.order)} against "
                f"degree-{row.at_identity()} row is not integral"
            )
        mults.append(m)
    return tuple(mults)


# -- reference fixtures and alignment ----------------------------------


class ReferenceTable(_Frozen):
    """A published record: class words, sizes, a value grid, and the
    remaining published values keyed by the verify check that reads each."""

    _fields = (
        "group_name", "class_reps", "class_members", "class_sizes", "matrix", "published"
    )

    def __init__(
        self,
        group_name: str,
        class_reps: tuple[str, ...],
        class_members: tuple[tuple[str, ...], ...],
        class_sizes: tuple[int, ...],
        matrix: tuple[tuple[int, ...], ...],
        published: dict[str, object],
    ):
        self.__dict__.update(
            group_name=group_name,
            class_reps=class_reps,
            class_members=class_members,
            class_sizes=class_sizes,
            matrix=matrix,
            published=published,
        )


_RECORD_KEYS = frozenset({"format", "group", "classes", "rows", "published"})
_CLASS_KEYS = frozenset({"rep", "size", "members"})


def _split_word(word: str) -> tuple[str, ...]:
    word = word.strip()
    if word == "1":
        return ()
    return tuple(part.strip() for part in word.split("*"))


def _check_keys(where: str, obj, keys) -> None:
    """Raise ValueError unless ``obj`` is a JSON object with exactly ``keys``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    found = [
        f"{what} keys {sorted(names)}"
        for what, names in (("missing", keys - obj.keys()), ("unexpected", obj.keys() - keys))
        if names
    ]
    if found:
        raise ValueError(f"{where}: {', '.join(found)}")


def load_reference_table(path: str | os.PathLike | None = None) -> ReferenceTable:
    """Load a published record; the packaged G(32,27) record is the default.

    The record is read strictly: exactly its five top-level keys and the
    three keys of each class, a string ``rep``, a non-empty list of string
    ``members``, JSON-integer sizes, and ``rows`` a list of lists, one per
    class, each holding one JSON-integer value per class.  Each refusal is a
    ValueError naming the class and key, the row count, or the row and
    column.  ``published`` is read as it stands; ``verify_paper`` checks its
    keys against its own checks.
    """
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "g32_27_published.json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != REFERENCE_FORMAT:
        raise ValueError(f"unsupported reference fixture format {fmt!r}")
    _check_keys("reference record", data, _RECORD_KEYS)
    classes, rows = data["classes"], data["rows"]
    if type(classes) is not list:
        raise ValueError("reference record: 'classes' is not a list")
    for j, c in enumerate(classes):
        where = f"reference class {j}"
        _check_keys(where, c, _CLASS_KEYS)
        if type(c["rep"]) is not str:
            raise ValueError(f"{where}: 'rep' {c['rep']!r} is not a string")
        members = c["members"]
        if not (type(members) is list and members and all(type(w) is str for w in members)):
            raise ValueError(f"{where}: 'members' {members!r} is not a non-empty list of strings")
        if type(c["size"]) is not int:
            raise ValueError(f"{where}: 'size' {c['size']!r} is not a JSON integer")
    k = len(classes)
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ValueError("reference record: 'rows' is not a list of lists")
    if len(rows) != k:
        raise ValueError(f"reference record: {len(rows)} rows for {k} classes")
    for i, row in enumerate(rows):
        if len(row) != k:
            raise ValueError(f"reference row {i}: {len(row)} values for {k} classes")
        for j, value in enumerate(row):
            if type(value) is not int:
                raise ValueError(
                    f"reference row {i}, column {j}: {value!r} is not a rational integer"
                )
    return ReferenceTable(
        group_name=data["group"],
        class_reps=tuple(c["rep"] for c in classes),
        class_members=tuple(tuple(c["members"]) for c in classes),
        class_sizes=tuple(c["size"] for c in classes),
        matrix=tuple(map(tuple, rows)),
        published=data["published"],
    )


def reference_column_map(group: FiniteGroup, ref: ReferenceTable) -> tuple[int, ...]:
    """Canonical class index shown at each reference column.

    Resolves every listed member word and checks that each reference
    class is exactly one full computed class.
    """
    classes = group._partition
    k = len(classes)
    if len(ref.class_members) != k:
        raise AlignmentError(
            f"reference lists {len(ref.class_members)} classes, computed {k}"
        )
    col_perm = []
    for j, members in enumerate(ref.class_members):
        elems = [group.evaluate_word(_split_word(w)) for w in members]
        indices = {group.class_index_of(g) for g in elems}
        if len(indices) != 1:
            raise AlignmentError(f"reference class {j} words span several classes")
        ci = indices.pop()
        size = len(classes[ci])
        if len(set(elems)) != size or len(members) != ref.class_sizes[j]:
            raise AlignmentError(
                f"reference class {j} lists {len(members)} members, computed size is "
                f"{size}"
            )
        col_perm.append(ci)
    if len(set(col_perm)) != k:
        raise AlignmentError("reference classes do not cover every computed class")
    return tuple(col_perm)


def align_to_reference(
    table: CharacterTable, ref: ReferenceTable
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Match a computed table to a reference fixture.

    Returns (row_perm, col_perm) with
    ``table.rows[row_perm[i]].values[col_perm[j]] == ref.matrix[i][j]``.
    Raises AlignmentError when class resolution or row matching fails.
    """
    col_perm = reference_column_map(table.group, ref)
    return _match_rows(table, ref, col_perm), col_perm


def _match_rows(
    table: CharacterTable, ref: ReferenceTable, col_perm: tuple[int, ...]
) -> tuple[int, ...]:
    """The row of ``table`` matching each reference row under ``col_perm``."""
    if len(ref.matrix) != len(table.rows):
        raise AlignmentError(
            f"reference has {len(ref.matrix)} rows, computed table {len(table.rows)}"
        )
    k = len(table.group._partition)
    used: set[int] = set()
    row_perm = []
    for i, ref_row in enumerate(ref.matrix):
        target = [0] * k
        for j, value in enumerate(ref_row):
            target[col_perm[j]] = value
        matches = [
            r
            for r, row in enumerate(table.rows)
            if r not in used and list(row.values) == target
        ]
        if len(matches) != 1:
            raise AlignmentError(
                f"no aligning permutation: reference row {i} has {len(matches)} matches"
            )
        used.add(matches[0])
        row_perm.append(matches[0])
    return tuple(row_perm)


# -- cache serialization ------------------------------------------------
# Nothing in the package reads or writes a table cache any more; the reader
# stays while the benchmark's characters.cache_load_s layer wraps
# table_from_cache_dict by name.


def table_from_cache_dict(group: FiniteGroup, data: dict) -> CharacterTable:
    """Rebuild a cached table; the caller must revalidate orthogonality.

    Raises ValueError for every malformed payload.
    """
    if not isinstance(data, dict):
        raise ValueError(f"cache payload is a {type(data).__name__}, not an object")
    if data.get("format") != CACHE_FORMAT:
        raise ValueError(f"unsupported cache format {data.get('format')!r}")
    if data.get("spec_hash") != group.spec.content_hash():
        raise ValueError("cached table belongs to a different group spec")
    rows = data.get("rows")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("cached rows are not a list of lists")
    k = len(group._partition)
    if len(rows) != k:
        raise ValueError(f"cached table has {len(rows)} rows, expected {k}")
    return CharacterTable(
        group=group,
        rows=tuple(ClassFunction(group, tuple(row)) for row in rows),
    )
