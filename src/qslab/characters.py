"""Exact character tables for the supported 2-group family.

Every group of the family is N x| Q with N and Q elementary abelian, so
each irreducible character is induced from a linear character of a
little group N x| Q_v (the Wigner-Mackey construction).  The values are
rational integers computed in bit arithmetic, and the table is certified
by checking both orthogonality relations as exact integer identities.

Values are still held as Gaussian rationals (``ExactScalar``) so that
class functions and the reference fixture share one scalar type; a table
passes certification only if every value is a Gaussian integer.  Every
consumer reads the values as rational integers (``as_integer``), so
scalars carry no arithmetic beyond multiplication.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from itertools import product
from operator import mul
from pathlib import Path

from .groups import BitVector, FiniteGroup, _mat_apply

REFERENCE_FORMAT = "qslab-chartable-ref/1"
CACHE_FORMAT = "qslab-chartable-cache/1"

_SCALAR_PATTERN = re.compile(
    r"^(?P<re>[+-]?\d+(?:/\d+)?)?"
    r"(?:(?P<sign>[+-]?)(?P<im>\d+(?:/\d+)?)?i)?$"
)


class CharacterTableError(RuntimeError):
    """A character table failed its exact certification or lacks the trivial row."""


class AlignmentError(ValueError):
    """A computed table cannot be matched to a reference fixture."""


def _coerce(value: "ExactScalar | Fraction | int") -> "ExactScalar":
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactScalar(Fraction(value), Fraction(0))
    raise TypeError(f"cannot coerce {type(value).__name__} to ExactScalar")


@dataclass(frozen=True)
class ExactScalar:
    """An exact element re + im*i of the Gaussian rationals."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __mul__(self, other: "ExactScalar | Fraction | int") -> "ExactScalar":
        o = _coerce(other)
        return ExactScalar(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    def is_real(self) -> bool:
        return self.im == 0

    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not a rational integer")
        return self.re.numerator

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{imag}"

    def to_json(self) -> int | str:
        if self.is_integer():
            return self.re.numerator
        return str(self)

    @classmethod
    def from_json(cls, data: int | str) -> "ExactScalar":
        if isinstance(data, bool) or not isinstance(data, (int, str)):
            raise ValueError(f"cannot parse scalar from {data!r}")
        if isinstance(data, int):
            return cls(Fraction(data), Fraction(0))
        text = data.strip()
        match = _SCALAR_PATTERN.match(text)
        if not match or not text:
            raise ValueError(f"cannot parse scalar from {data!r}")
        re_part, sign, im_part = match.group("re"), match.group("sign"), match.group("im")
        has_i = text.endswith("i")
        if not has_i:
            if re_part is None:
                raise ValueError(f"cannot parse scalar from {data!r}")
            return cls(Fraction(re_part), Fraction(0))
        if re_part is not None and sign == "" and im_part is None:
            # A bare form like "3i": the regex puts the digits in re_part.
            return cls(Fraction(0), Fraction(re_part))
        imag = Fraction(im_part) if im_part else Fraction(1)
        if sign == "-":
            imag = -imag
        real = Fraction(re_part) if re_part is not None else Fraction(0)
        return cls(real, imag)


ZERO = ExactScalar()
ONE = ExactScalar(Fraction(1))


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """A function constant on conjugacy classes, in canonical class order.

    The only arithmetic is scaling by an exact scalar.  Sums and products
    of characters are taken on their integer values (``as_integer``);
    ``inner_product`` works on the real and imaginary parts.
    """

    group: FiniteGroup = field(repr=False)
    values: tuple[ExactScalar, ...]

    def __post_init__(self) -> None:
        k = len(self.group.conjugacy_classes())
        vals = tuple(_coerce(v) for v in self.values)
        if len(vals) != k:
            raise ValueError(f"expected {k} class values, got {len(vals)}")
        object.__setattr__(self, "values", vals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.values == other.values and self.group.spec == other.group.spec

    def __hash__(self) -> int:
        return hash(self.values)

    def _check_same_group(self, other: "ClassFunction") -> None:
        if self.group is not other.group and self.group.spec != other.group.spec:
            raise ValueError("class functions on different groups")

    def __mul__(self, other: "ExactScalar | Fraction | int") -> "ClassFunction":
        c = _coerce(other)
        return ClassFunction(self.group, tuple(a * c for a in self.values))

    def at_identity(self) -> ExactScalar:
        return self.values[0]

    def is_real(self) -> bool:
        return all(v.is_real() for v in self.values)


def inner_product(f: ClassFunction, h: ClassFunction) -> ExactScalar:
    """<f, h> = (1/|G|) sum over classes of |K| f(K) conj(h(K))."""
    f._check_same_group(h)
    re = im = 0
    for cls, a, b in zip(f.group.conjugacy_classes(), f.values, h.values):
        # a * conj(b) = (a.re b.re + a.im b.im) + (a.im b.re - a.re b.im) i
        re += cls.size * (a.re * b.re + a.im * b.im)
        im += cls.size * (a.im * b.re - a.re * b.im)
    return ExactScalar(Fraction(re, f.group.order), Fraction(im, f.group.order))


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Irreducible characters in canonical row order (degree, then values)."""

    group: FiniteGroup = field(repr=False)
    rows: tuple[ClassFunction, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(row.at_identity().as_integer() for row in self.rows)

    def trivial_index(self) -> int:
        for i, row in enumerate(self.rows):
            if all(v == ONE for v in row.values):
                return i
        raise CharacterTableError("table has no trivial character row")

    def trivial(self) -> ClassFunction:
        return self.rows[self.trivial_index()]

    def is_real(self) -> bool:
        return all(row.is_real() for row in self.rows)

    def linear_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degrees) if d == 1)

    def indices_of_degree(self, d: int) -> tuple[int, ...]:
        return tuple(i for i, deg in enumerate(self.degrees) if deg == d)

    def verify_orthogonality(self) -> bool:
        """Both orthogonality relations, as exact identities over Z[i].

        Rows: sum over classes of |K| a(K) conj(b(K)) = |G| delta(a, b).
        Columns: sum over rows of chi(c) conj(chi(d)) = |G|/|K_c| delta(c, d).
        False if any value is not a Gaussian integer.
        """
        values = [v for row in self.rows for v in row.values]
        if any(v.re.denominator != 1 or v.im.denominator != 1 for v in values):
            return False
        order = self.group.order
        sizes = [cls.size for cls in self.group.conjugacy_classes()]
        xs = [[v.re.numerator for v in row.values] for row in self.rows]
        ys = [[v.im.numerator for v in row.values] for row in self.rows]
        columns = range(len(sizes))
        return _is_diagonal_gram(xs, ys, sizes, [order] * len(xs)) and _is_diagonal_gram(
            [[row[c] for row in xs] for c in columns],
            [[row[c] for row in ys] for c in columns],
            [1] * len(xs),
            [order // s for s in sizes],
        )


def _is_diagonal_gram(
    xs: list[list[int]], ys: list[list[int]], weights: list[int], diagonal: list[int]
) -> bool:
    """Whether sum_t w_t a_t conj(b_t) = diagonal[i] * delta(i, j) for all i, j.

    Vector i has Gaussian-integer entries xs[i][t] + ys[i][t] * i.
    """
    wxs = [list(map(mul, weights, x)) for x in xs]
    wys = [list(map(mul, weights, y)) for y in ys]
    for i, (wx, wy) in enumerate(zip(wxs, wys)):
        for j, (x, y) in enumerate(zip(xs, ys)):
            real = sum(map(mul, wx, x)) + sum(map(mul, wy, y))
            imag = sum(map(mul, wy, x)) - sum(map(mul, wx, y))
            if real != (diagonal[i] if i == j else 0) or imag != 0:
                return False
    return True


def _dot(u: BitVector, v: BitVector) -> int:
    return sum(a & b for a, b in zip(u, v)) & 1


def compute_character_table(group: FiniteGroup) -> CharacterTable:
    """The full irreducible character table, computed and certified exactly.

    Little-group construction (Serre, Linear Representations of Finite
    Groups, 8.2, Prop. 25).  The characters of N are psi_v(n) = (-1)^(v.n),
    and q sends psi_v to psi_w with w = Phi_q^T v.  For each Q-orbit O of
    v, with stabilizer Q_v, and each linear character rho of Q_v, the
    induced character takes the value rho(q) * sum_{w in O} (-1)^(w.n) at
    (n, q) when q lies in Q_v, and 0 otherwise.
    """
    if group._char_table_cache is not None:
        return group._char_table_cache

    dual = {q: tuple(zip(*phi)) for q, phi in group._phi_by_q.items()}
    reps = [cls.representative for cls in group.conjugacy_classes()]
    grid = []
    seen: set[BitVector] = set()
    for v in product((0, 1), repeat=group.spec.n_rank):
        if v in seen:
            continue
        orbit = {_mat_apply(t, v) for t in dual.values()}
        seen |= orbit
        stabilizer = [q for q, t in dual.items() if _mat_apply(t, v) == v]
        orbit_sums = [sum(1 - 2 * _dot(w, g.n) for w in orbit) for g in reps]
        restrictions = {
            tuple(_dot(u, q) for q in stabilizer)
            for u in product((0, 1), repeat=group.spec.q_rank)
        }
        for signs in restrictions:
            rho = {q: 1 - 2 * s for q, s in zip(stabilizer, signs)}
            grid.append(
                tuple(
                    rho[g.q] * total if g.q in rho else 0
                    for g, total in zip(reps, orbit_sums)
                )
            )

    grid.sort(key=lambda values: (values[0], values))
    scalars = {x: ExactScalar(x) for x in {x for values in grid for x in values}}
    rows = tuple(ClassFunction(group, tuple(scalars[x] for x in values)) for values in grid)
    table = CharacterTable(group=group, rows=rows)
    if sum(d * d for d in table.degrees) != group.order:
        raise CharacterTableError("degree squares do not sum to the group order")
    if not table.verify_orthogonality():
        raise CharacterTableError("induced table fails orthogonality")
    group._char_table_cache = table
    return table


def decompose(f: ClassFunction, table: CharacterTable) -> tuple[int, ...]:
    """Multiplicities of ``f`` against the irreducible rows.

    Each multiplicity is the integer sum over classes of |K| f(K) chi(K),
    divided exactly by |G| (conjugation fixes rational integers).  Raises
    if a value of ``f`` or of the table is not a rational integer, or if a
    sum is not divisible by |G|, which means ``f`` is not a virtual
    character.
    """
    group = table.group
    f._check_same_group(table.rows[0])
    weighted = [
        cls.size * v.as_integer() for cls, v in zip(group.conjugacy_classes(), f.values)
    ]
    mults = []
    for row in table.rows:
        total = sum(w * v.as_integer() for w, v in zip(weighted, row.values))
        m, rem = divmod(total, group.order)
        if rem:
            raise ValueError(
                f"multiplicity {Fraction(total, group.order)} against "
                f"degree-{row.at_identity()} row is not integral"
            )
        mults.append(m)
    return tuple(mults)


# -- reference fixtures and alignment ----------------------------------


@dataclass(frozen=True)
class ReferenceTable:
    """A published character table: class words, sizes, and a value grid."""

    group_name: str
    class_reps: tuple[str, ...]
    class_members: tuple[tuple[str, ...], ...]
    class_sizes: tuple[int, ...]
    matrix: tuple[tuple[ExactScalar, ...], ...]


def _split_word(word: str) -> tuple[str, ...]:
    word = word.strip()
    if word == "1":
        return ()
    return tuple(part.strip() for part in word.split("*"))


def load_reference_table(path: str | Path | None = None) -> ReferenceTable:
    """Load a reference fixture; the packaged table is the default."""
    if path is None:
        text = (resources.files("qslab") / "data" / "g32_27_chartable.json").read_text()
    else:
        text = Path(path).read_text()
    data = json.loads(text)
    if data.get("format") != REFERENCE_FORMAT:
        raise ValueError(f"unsupported reference fixture format {data.get('format')!r}")
    classes = data["classes"]
    return ReferenceTable(
        group_name=data["group"],
        class_reps=tuple(c["rep"] for c in classes),
        class_members=tuple(tuple(c["members"]) for c in classes),
        class_sizes=tuple(int(c["size"]) for c in classes),
        matrix=tuple(
            tuple(ExactScalar.from_json(v) for v in row) for row in data["rows"]
        ),
    )


def reference_column_map(group: FiniteGroup, ref: ReferenceTable) -> tuple[int, ...]:
    """Canonical class index shown at each reference column.

    Resolves every listed member word and checks that each reference
    class is exactly one full computed class.
    """
    classes = group.conjugacy_classes()
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
        if len(set(elems)) != classes[ci].size or len(members) != ref.class_sizes[j]:
            raise AlignmentError(
                f"reference class {j} lists {len(members)} members, computed size is "
                f"{classes[ci].size}"
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
    group = table.group
    k = len(group.conjugacy_classes())
    if len(ref.matrix) != len(table.rows):
        raise AlignmentError(
            f"reference has {len(ref.matrix)} rows, computed table {len(table.rows)}"
        )
    col_perm = reference_column_map(group, ref)

    used: set[int] = set()
    row_perm = []
    for i, ref_row in enumerate(ref.matrix):
        target = [ZERO] * k
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
    return tuple(row_perm), tuple(col_perm)


# -- cache serialization ------------------------------------------------
# Nothing in the package reads or writes a table cache any more; these two
# stay while the benchmark's characters.cache_load_s layer wraps
# table_from_cache_dict by name.


def table_to_cache_dict(table: CharacterTable) -> dict:
    return {
        "format": CACHE_FORMAT,
        "spec_hash": table.group.spec.content_hash(),
        "rows": [[v.to_json() for v in row.values] for row in table.rows],
    }


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
    k = len(group.conjugacy_classes())
    if len(rows) != k:
        raise ValueError(f"cached table has {len(rows)} rows, expected {k}")
    return CharacterTable(
        group=group,
        rows=tuple(
            ClassFunction(group, tuple(ExactScalar.from_json(v) for v in row))
            for row in rows
        ),
    )
