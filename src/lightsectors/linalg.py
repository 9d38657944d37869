"""Exact dense linear algebra over the rationals.

Everything downstream (pairings, transport operators, block quotients) reduces
to exact zero tests, so this module never touches floating point.  Scalars are
``fractions.Fraction`` (always lowest terms, positive denominator), matrices
are immutable row-major grids, and subspaces are stored in a canonical
reduced-echelon basis so that structural equality *is* subspace equality.

Pivoting is deterministic (leftmost nonzero in scan order); identical inputs
produce bit-identical outputs regardless of platform or scheduling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

# The scalar field.  Fraction already guarantees lowest terms and a
# positive denominator, which is exactly the canonical form we need.
Rational = Fraction

Vector = tuple[Fraction, ...]


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class InvariantError(ValueError):
    """An internal invariant failed: a bug in the package, not bad input."""


_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical text form: optional '-', integer, optional '/posint'.

    Non-canonical but well-formed inputs like ``2/4`` are accepted and
    reduced; signs in the denominator (``1/-2``), floats, and whitespace
    are rejected.
    """
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}")
    if "/" in text and int(text.split("/", 1)[1]) == 0:
        raise ValueError(f"zero denominator in rational {text!r}")
    return Fraction(text)


def format_rational(q: Fraction) -> str:
    """Canonical text form, e.g. '-3/7', '0', '5'."""
    return str(q)


def _q(x: object) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def vector(entries: Iterable[object]) -> Vector:
    """Build an immutable rational vector from ints, Fractions, or strings."""
    return tuple(_q(x) for x in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def basis_vector(n: int, k: int) -> Vector:
    """Standard basis vector e_k (0-based) in dimension n."""
    if not 0 <= k < n:
        raise IndexError(f"basis index {k} out of range for dimension {n}")
    return tuple(Fraction(1 if i == k else 0) for i in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def is_zero_vector(a: Vector) -> bool:
    return all(x == 0 for x in a)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of Fractions, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]], cols: int | None = None) -> "Matrix":
        grid = tuple(tuple(_q(x) for x in row) for row in rows)
        n_rows = len(grid)
        if n_rows == 0:
            if cols is None:
                cols = 0
            return cls(0, cols, ())
        n_cols = len(grid[0])
        return cls(n_rows, n_cols, grid)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[object]], rows: int | None = None) -> "Matrix":
        cols = [vector(c) for c in columns]
        if not cols:
            return cls(rows if rows is not None else 0, 0, tuple(() for _ in range(rows or 0)))
        n_rows = len(cols[0])
        grid = tuple(tuple(c[i] for c in cols) for i in range(n_rows))
        return cls(n_rows, len(cols), grid)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(basis_vector(n, i) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, tuple(zero_vector(cols) for _ in range(rows)))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> tuple[Vector, ...]:
        return tuple(self.column(j) for j in range(self.cols))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(self.column(j) for j in range(self.cols)))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        grid = tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries))
        return Matrix(self.rows, self.cols, grid)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        grid = tuple(vec_sub(a, b) for a, b in zip(self.entries, other.entries))
        return Matrix(self.rows, self.cols, grid)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(vec_scale(Fraction(-1), r) for r in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        zero = Fraction(0)
        out = [[zero] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.entries):
            acc = out[i]
            for k, a in enumerate(row):
                if a:
                    for j, b in enumerate(other.entries[k]):
                        if b:
                            acc[j] = acc[j] + a * b
        return Matrix(self.rows, other.cols, tuple(tuple(r) for r in out))

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product, v treated as a column vector."""
        if len(v) != self.cols:
            raise DimensionMismatchError(
                f"vector of length {len(v)} does not fit {self.rows}x{self.cols}"
            )
        zero = Fraction(0)
        out = []
        for row in self.entries:
            acc = zero
            for a, b in zip(row, v):
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def _require_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def first_skew_violation(m: Matrix) -> tuple[int, int] | None:
    """First (i, j) with i <= j in row-major scan where m[i][j] != -m[j][i],
    or None when the square matrix m is skew with zero diagonal."""
    grid = m.entries
    for i in range(m.rows):
        for j in range(i, m.rows):
            if grid[i][j] != -grid[j][i]:
                return i, j
    return None


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank, via deterministic leftmost pivoting."""
    grid = [list(row) for row in m.entries]
    pivot_row = 0
    for col in range(m.cols):
        pivot = None
        for i in range(pivot_row, m.rows):
            if grid[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        grid[pivot_row], grid[pivot] = grid[pivot], grid[pivot_row]
        inv = 1 / grid[pivot_row][col]
        grid[pivot_row] = [x * inv for x in grid[pivot_row]]
        for i in range(m.rows):
            if i != pivot_row and grid[i][col] != 0:
                factor = grid[i][col]
                grid[i] = [x - factor * y for x, y in zip(grid[i], grid[pivot_row])]
        pivot_row += 1
        if pivot_row == m.rows:
            break
    reduced = Matrix(m.rows, m.cols, tuple(tuple(row) for row in grid))
    return reduced, pivot_row


def rank(m: Matrix) -> int:
    return rref(m)[1]


@dataclass(frozen=True)
class Subspace:
    """A subspace of QQ^n in canonical reduced-echelon basis.

    The basis rows are the nonzero rows of the reduced row-echelon form of
    any spanning set, with pivots in ascending coordinate order.  That form
    is unique per subspace, so dataclass equality coincides with equality
    of subspaces.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self) -> None:
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise DimensionMismatchError("basis vector has wrong length")
        if not Subspace._is_canonical(self.basis):
            raise ValueError("basis is not in canonical reduced-echelon form")

    @staticmethod
    def _is_canonical(rows: Sequence[Vector]) -> bool:
        """Whether rows are a reduced row-echelon form without zero rows,
        i.e. exactly what _canonical_basis makes of them."""
        pivots: list[int] = []
        for row in rows:
            lead = next((j for j, x in enumerate(row) if x != 0), None)
            if lead is None or row[lead] != 1 or (pivots and lead <= pivots[-1]):
                return False
            pivots.append(lead)
        return all(
            row[p] == 0 for i, row in enumerate(rows) for k, p in enumerate(pivots) if i != k
        )

    @staticmethod
    def _canonical_basis(vectors: Sequence[Vector], ambient_dim: int) -> tuple[Vector, ...]:
        if not vectors:
            return ()
        reduced, rk = rref(Matrix.from_rows(vectors, cols=ambient_dim))
        return reduced.entries[:rk]

    @classmethod
    def spanned_by(cls, vectors: Sequence[Sequence[object]], ambient_dim: int) -> "Subspace":
        vecs = [vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatchError(
                    f"spanning vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        return cls(ambient_dim, cls._canonical_basis(vecs, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(basis_vector(ambient_dim, i) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, v: Sequence[object]) -> bool:
        vec = vector(v)
        if len(vec) != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector of length {len(vec)} in ambient dimension {self.ambient_dim}"
            )
        residual = list(vec)
        for row in self.basis:
            pivot = next(i for i, x in enumerate(row) if x != 0)
            coeff = residual[pivot]
            if coeff != 0:
                for i in range(self.ambient_dim):
                    residual[i] -= coeff * row[i]
        return all(x == 0 for x in residual)


def column_space(m: Matrix) -> Subspace:
    """Canonical subspace spanned by the columns of m."""
    return Subspace.spanned_by(m.columns(), m.rows)


def kernel(m: Matrix) -> Subspace:
    """Canonical subspace of all v with m v = 0 (rank-nullity holds exactly)."""
    reduced, rk = rref(m)
    pivot_cols: list[int] = []
    col = 0
    for i in range(rk):
        while reduced.entries[i][col] == 0:
            col += 1
        pivot_cols.append(col)
        col += 1
    free_cols = [j for j in range(m.cols) if j not in pivot_cols]
    generators = []
    for f in free_cols:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivot_cols):
            v[p] = -reduced.entries[i][f]
        generators.append(tuple(v))
    return Subspace.spanned_by(generators, m.cols)


def quotient_dim(ambient: int, sub: Subspace) -> int:
    """Dimension of QQ^ambient modulo the given subspace."""
    if sub.ambient_dim != ambient:
        raise DimensionMismatchError(
            f"subspace lives in dimension {sub.ambient_dim}, not {ambient}"
        )
    return ambient - sub.dim
