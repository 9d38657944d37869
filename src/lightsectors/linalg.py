"""Exact dense linear algebra over the rationals.

Everything downstream (pairings, transport operators, block quotients) reduces
to exact zero tests, so this module never touches floating point.  Scalars are
``fractions.Fraction`` (always lowest terms, positive denominator), and
subspaces are stored in a canonical reduced-echelon basis so that structural
equality *is* subspace equality.

A ``Matrix`` is an ``int`` grid ``num`` over one positive denominator
``den``, reduced to lowest terms on construction, so dataclass equality and
hashing are value equality.  Sums, products, transposes, zero and skew tests
and elimination run on the integers, as with FLINT's ``fmpq_mat_mul_cleared``
and ``fmpz_mat_rref``: ``rref`` is fraction-free, and a ``Subspace`` basis is
a ``Matrix``.  Fractions appear only at the boundaries: the ``entries`` view,
built on request, and ``vector``.  Rational input has one reader, ``cleared``:
a row of cells (``int``, ``Fraction`` or canonical text) as integers over the
lcm of their denominators, with no ``Fraction`` made; a ``str`` is refused as
a row, not read one character at a time.  ``Matrix.from_rows``,
``apply``, ``pairing.pair``, ``Subspace.contains`` and the scenario reader's
non-integer rows read through it; ``vector`` is its ``Fraction`` view.
Rational text has one writer, ``format_ratio``; ``format_cells`` applies it
to a matrix's int rows.

A product A·B is the plain exact product: entry (i, j) is the integer dot
product of row i of A with column j of B, over den_A·den_B.  No pipeline stage
multiplies matrices; ``transport_word`` and ``selftest`` do.

``Slots`` packs the commutator cross-check (``transport``), a Kronecker
substitution: a row x becomes one ``int`` Σ_j x_j·2^(w·j).  It picks the
slot width w from a bound on every entry it packs or reads back (its bit
length plus a sign bit, rounded up to 1, 2, 4 or 8 bytes, or to whole bytes
past 8), packs a row into one signed ``int``, and unpacks many packed rows
in one ``memoryview`` cast.  Both routes to the commutators of rank-one
transports return packed rows: the dense route's are sums of packed
operator rows, the closed form's combinations of two packed Gram images, and
``block_commutator_check`` compares the two as packed ints, never unpacked.

Pivoting is deterministic (leftmost nonzero in scan order); identical inputs
produce bit-identical outputs regardless of platform or scheduling.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count, repeat
from math import gcd, lcm
from operator import mul
from typing import Collection, Iterable, Iterator, Sequence

Vector = tuple[Fraction, ...]

# A vector v as integers over one denominator: (ints, den), v[i] == ints[i] / den.
Cleared = tuple[tuple[int, ...], int]


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class InvariantError(ValueError):
    """An internal invariant failed: a bug in the package, not bad input."""


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_parts(text: str) -> tuple[int, int]:
    """The canonical text form, optional '-', integer, optional '/posint', as
    (numerator, denominator), unreduced: ``2/4`` gives (2, 4).  Signs in the
    denominator (``1/-2``), floats, and whitespace are rejected.
    """
    m = _RATIONAL_RE.fullmatch(text)
    if not m:
        raise ValueError(f"malformed rational {text!r}")
    if m[2] is None:
        return int(m[1]), 1
    den = int(m[2])
    if den == 0:
        raise ValueError(f"zero denominator in rational {text!r}")
    return int(m[1]), den


def parse_rational(text: str) -> Fraction:
    """The canonical text form as a Fraction; ``2/4`` is accepted and reduced."""
    return Fraction(*rational_parts(text))


def format_ratio(num: int, den: int) -> str:
    """num/den (den positive) in canonical lowest-terms text, exact at any size."""
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        # Past the interpreter's int-to-str digit limit; Decimal prints an
        # integer's every digit without that limit.
        text = str(Decimal(num))
        return text if den == 1 else f"{text}/{Decimal(den)}"


def format_rational(q: Fraction) -> str:
    """Canonical text form, e.g. '-3/7', '0', '5', exact at any size."""
    return format_ratio(q.numerator, q.denominator)


def _cell(x: object) -> tuple[int, int]:
    """An int, a Fraction or canonical text as (numerator, denominator)."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, str):
        return rational_parts(x)
    if isinstance(x, Fraction):  # last: an ABC check, slow on a miss
        return x.as_integer_ratio()
    raise TypeError(f"cannot interpret {x!r} as a rational")


def _row(v: Iterable[object]) -> Iterable[object]:
    """v itself; a str is one cell's text, never a row of its characters."""
    if isinstance(v, str):
        raise TypeError(f"cannot interpret {v!r} as a row of rationals")
    return v


def vector(entries: Iterable[object]) -> Vector:
    """Each cell read as cleared reads it, as a Fraction; a Fraction as it is."""
    return tuple([x if isinstance(x, Fraction) else Fraction(*_cell(x)) for x in _row(entries)])


def cleared(v: Iterable[object]) -> Cleared:
    """A row of ints, Fractions or their text as integers over the least
    common multiple of its denominators, with no Fraction made.  A str is
    refused as a row."""
    nums, dens = tuple(zip(*map(_cell, _row(v)))) or ((), ())
    den = lcm(*dens)
    return (nums if den == 1 else tuple([n * (den // d) for n, d in zip(nums, dens)])), den


@dataclass(frozen=True)
class Matrix:
    """Immutable dense rational matrix: entry (i, j) is num[i][j] / den."""

    rows: int
    cols: int
    num: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.num) != self.rows:
            raise ValueError("row count does not match entries")
        if any(map(self.cols.__ne__, map(len, self.num))):
            k, n = next((k, n) for k, n in enumerate(map(len, self.num), 1) if n != self.cols)
            raise DimensionMismatchError(f"vector {k} has {n} entries, expected {self.cols}")
        if self.den < 1:
            raise ValueError("matrix denominator must be positive")
        if self.den == 1:
            return
        g = gcd(self.den, *chain.from_iterable(self.num))
        if g != 1:
            num = tuple([tuple([x // g for x in row]) for row in self.num])
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", self.den // g)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[object]], cols: int | None = None) -> "Matrix":
        """Rows of cells, each read by cleared and cols long (with no cols,
        as long as the first); the constructor's length check names the first
        row of another length, 1-based, as "vector k"."""
        grid = list(map(cleared, rows))
        if cols is None:
            cols = len(grid[0][0]) if grid else 0
        den = lcm(*[d for _, d in grid])
        num = tuple([row if d == den else tuple([x * (den // d) for x in row]) for row, d in grid])
        return cls(len(grid), cols, num, den)

    @classmethod
    def from_columns(cls, columns: Iterable[Iterable[object]], rows: int | None = None) -> "Matrix":
        return cls.from_rows(columns, cols=rows).transpose()

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, ((0,) * cols,) * rows)

    @cached_property
    def entries(self) -> tuple[Vector, ...]:
        """The entries as Fractions, row-major."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    def transpose(self) -> "Matrix":
        num = tuple(zip(*self.num)) if self.rows else ((),) * self.cols
        return Matrix(self.cols, self.rows, num, self.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other over the least common denominator."""
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        grid = tuple(
            tuple(s * x + t * y for x, y in zip(a, b)) for a, b in zip(self.num, other.num)
        )
        return Matrix(self.rows, self.cols, grid, den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(tuple(-x for x in r) for r in self.num), self.den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        columns = other.transpose().num
        grid = tuple([tuple([sum(map(mul, row, col)) for col in columns]) for row in self.num])
        return Matrix(self.rows, other.cols, grid, self.den * other.den)

    def apply(self, v: Sequence[object]) -> Vector:
        """Matrix-vector product, v treated as a column vector."""
        if len(v) != self.cols:
            raise DimensionMismatchError(
                f"vector of length {len(v)} does not fit {self.rows}x{self.cols}"
            )
        ints, den = cleared(v)
        den *= self.den
        return tuple(Fraction(sum(map(mul, row, ints)), den) for row in self.num)


def format_cells(m: Matrix) -> list[list[str]]:
    """Each entry of m as format_ratio text, from its integer rows over m.den."""
    den = m.den
    return [[format_ratio(x, den) for x in row] for row in m.num]


# Native signed array typecodes by item size in bytes; which C type has which
# size is the platform's choice.
_TYPECODES = {array(t).itemsize: t for t in "bhilq"}


def abs_max(rows: Collection[Sequence[int]]) -> int:
    """The largest absolute entry of nonempty int rows, from each row's max and
    min: no abs() per entry."""
    return max(max(map(max, rows)), -min(map(min, rows)))


class Slots:
    """Rows of cols ints, each of absolute value at most bound, as one signed
    int per row: row x packs to Σ_j x_j·2^(8·width·j), with the width the
    module docstring gives.  Sums of multiples of packed rows are packed
    rows, and unpack reads them back while every slot stays within the bound;
    while they do, two packed rows are equal ints exactly when the rows are
    equal, so they compare without an unpack.

    A row of slots is bytes in native order: for 1, 2, 4 and 8 bytes an
    ``array`` packs one and a ``memoryview`` unpacks many at once in C;
    wider slots go through ``int.to_bytes`` and ``int.from_bytes`` one slot
    at a time.
    """

    __slots__ = ("width", "code", "cols", "tops")

    def __init__(self, bound: int, cols: int):
        need = bound.bit_length() // 8 + 1  # one sign bit
        # Round up to a power of two for an array type; past 8 bytes no type fits.
        width = 1 << (need - 1).bit_length()
        self.code = _TYPECODES.get(width)
        self.width = width if self.code else need
        self.cols = cols
        order = sys.byteorder
        # The top bit of every slot.
        self.tops = int.from_bytes(
            (1 << (8 * self.width - 1)).to_bytes(self.width, order) * cols, order)

    def pack(self, rows: Iterable[Sequence[int]]) -> list[int]:
        """Each row as one signed int."""
        width, code, tops, order = self.width, self.code, self.tops, sys.byteorder
        if code:
            data = (array(code, row).tobytes() for row in rows)
        else:
            data = (b"".join([x.to_bytes(width, order, signed=True) for x in row])
                    for row in rows)
        # Read as one unsigned int, a row of two's-complement slots is 2^w too
        # large at each negative entry, the slots whose top bit is set.
        return [u - ((u & tops) << 1) for u in map(int.from_bytes, data, repeat(order))]

    def unpack(self, packed: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """The rows of the packed ints, each a tuple of cols ints."""
        width, code, tops, cols, order = self.width, self.code, self.tops, self.cols, sys.byteorder
        if not cols:
            return repeat((), len(packed))
        # Adding tops lifts every slot into [0, 2^w) with no carry between
        # slots; clearing the top bits again leaves each slot in two's complement.
        data = b"".join([((v + tops) ^ tops).to_bytes(width * cols, order) for v in packed])
        if code:
            values = memoryview(data).cast(code).tolist()
        else:
            values = [int.from_bytes(data[i:i + width], order, signed=True)
                      for i in range(0, len(data), width)]
        return zip(*[iter(values)] * cols)


def first_skew_violation(m: Matrix) -> tuple[int, int] | None:
    """First (i, j) with i <= j in row-major scan where m[i][j] != -m[j][i],
    or None when the square matrix m is skew with zero diagonal."""
    grid = m.num
    for i, row in enumerate(grid):
        for j in range(i, m.rows):
            if row[j] != -grid[j][i]:
                return i, j
    return None


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank, via deterministic leftmost pivoting.

    Fraction-free Gauss-Jordan on the integer rows (Bareiss): for a pivot p
    after a pivot d, every other row becomes (p*row - row[col]*pivot_row) / d.
    After k pivots every entry is a minor of m.num, so the division is exact,
    and every pivot equals the last one; the form is the grid over it.
    """
    grid = list(m.num)
    d, rk = 1, 0
    for col in range(m.cols):
        pivot = next((i for i in range(rk, m.rows) if grid[i][col]), None)
        if pivot is None:
            continue
        top = grid[pivot]
        grid[pivot], grid[rk] = grid[rk], top
        p = top[col]
        for i, row in enumerate(grid):
            a = row[col]
            if i == rk or not a and p == d:
                continue
            grid[i] = [(p * x - a * y) // d for x, y in zip(row, top)]
        d, rk = p, rk + 1
        if rk == m.rows:
            break
    if d < 0:
        grid, d = [[-x for x in row] for row in grid], -d
    return Matrix(m.rows, m.cols, tuple([tuple(row) for row in grid]), d), rk


def rank(m: Matrix) -> int:
    return rref(m)[1]


@dataclass(frozen=True)
class Subspace:
    """A subspace of QQ^n in canonical reduced-echelon basis.

    The basis is the rk x n Matrix of the nonzero rows of the reduced
    row-echelon form of any spanning set, pivots in ascending coordinate
    order: integer rows over one denominator, each leading entry equal to
    it.  That form is unique per subspace and Matrix equality is value
    equality, so dataclass equality coincides with equality of subspaces.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self) -> None:
        if self.ambient_dim < 0:
            raise ValueError(f"negative ambient dimension {self.ambient_dim}")
        if not isinstance(self.basis, Matrix):
            raise TypeError(f"subspace basis must be a Matrix, not {type(self.basis).__name__}")
        if self.basis.cols != self.ambient_dim:
            raise DimensionMismatchError("basis vector has wrong length")
        if not Subspace._is_canonical(self.basis):
            raise ValueError("basis is not in canonical reduced-echelon form")

    @staticmethod
    def _is_canonical(basis: Matrix) -> bool:
        """Whether the rows are a reduced row-echelon form without zero rows,
        i.e. exactly what rref makes of them."""
        leads, rest, last = set(), [], -1
        for row in basis.num:
            support = list(compress(count(), row))
            if not support or support[0] <= last or row[support[0]] != basis.den:
                return False
            last = support[0]
            leads.add(last)
            rest.extend(support[1:])
        # Entries left of a row's lead are zero, so the pivot columns are clear
        # outside their own rows iff no non-leading entry falls on a lead.
        return leads.isdisjoint(rest)

    @classmethod
    def spanned_by(cls, vectors: Iterable[Iterable[object]], ambient_dim: int) -> "Subspace":
        return _row_space(Matrix.from_rows(vectors, cols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix(0, ambient_dim, ()))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, v: Sequence[object]) -> bool:
        ints, _ = cleared(v)
        if len(ints) != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector of length {len(ints)} in ambient dimension {self.ambient_dim}"
            )
        # v is in the span iff v equals the sum of the rows, each times v's
        # entry at the row's pivot; over the two denominators, in integers.
        residual = [self.basis.den * x for x in ints]
        for row in self.basis.num:
            c = ints[next(compress(count(), row))]
            if c:
                residual = [x - c * y for x, y in zip(residual, row)]
        return not any(residual)


def _row_space(m: Matrix) -> Subspace:
    """The span of the rows of m; no elimination runs when there are none."""
    if not m.rows:
        return Subspace.zero(m.cols)
    reduced, rk = rref(m)
    return Subspace(m.cols, Matrix(rk, m.cols, reduced.num[:rk], reduced.den))


def column_space(m: Matrix) -> Subspace:
    """Canonical subspace spanned by the columns of m."""
    return _row_space(m.transpose())


def kernel(m: Matrix) -> Subspace:
    """Canonical subspace of all v with m v = 0 (rank-nullity holds exactly).

    Each free column f gives the generator with den at f and minus the
    reduced rows' integers at the pivots: the usual one, scaled by den.
    """
    reduced, rk = rref(m)
    rows = reduced.num[:rk]
    pivots = [next(compress(count(), row)) for row in rows]
    generators = []
    for f in sorted(set(range(m.cols)).difference(pivots)):
        v = [0] * m.cols
        v[f] = reduced.den
        for p, row in zip(pivots, rows):
            v[p] = -row[f]
        generators.append(tuple(v))
    return _row_space(Matrix(len(generators), m.cols, tuple(generators)))


def quotient_dim(ambient: int, sub: Subspace) -> int:
    """Dimension of QQ^ambient modulo the given subspace."""
    if sub.ambient_dim != ambient:
        raise DimensionMismatchError(
            f"subspace lives in dimension {sub.ambient_dim}, not {ambient}"
        )
    return ambient - sub.dim
