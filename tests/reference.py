"""Entrywise Fraction arithmetic: the test oracle for the integer product kernel.

These are the plain loops the package used before its dense products moved
to cleared integers (``linalg.cleared``).  Every one multiplies and adds
Fractions entry by entry, so a test can require the kernel's results to
equal them exactly, entry by entry.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from lightsectors.linalg import DimensionMismatchError, Matrix, Vector
from lightsectors.pairing import PairingSpace


def matmul(left: Matrix, right: Matrix) -> Matrix:
    if left.cols != right.rows:
        raise DimensionMismatchError(
            f"cannot multiply {left.rows}x{left.cols} by {right.rows}x{right.cols}"
        )
    zero = Fraction(0)
    out = [[zero] * right.cols for _ in range(left.rows)]
    for i, row in enumerate(left.entries):
        acc = out[i]
        for k, a in enumerate(row):
            if a:
                for j, b in enumerate(right.entries[k]):
                    if b:
                        acc[j] = acc[j] + a * b
    return Matrix(left.rows, right.cols, tuple(tuple(r) for r in out))


def apply(m: Matrix, v: Vector) -> Vector:
    if len(v) != m.cols:
        raise DimensionMismatchError(
            f"vector of length {len(v)} does not fit {m.rows}x{m.cols}"
        )
    zero = Fraction(0)
    out = []
    for row in m.entries:
        acc = zero
        for a, b in zip(row, v):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return tuple(out)


def pair(space: PairingSpace, a: Vector, b: Vector) -> Fraction:
    gb = apply(space.gram, b)
    return sum((x * y for x, y in zip(a, gb)), Fraction(0))


def interaction_grid(space: PairingSpace, cycles: Sequence[Vector]) -> Matrix:
    zero = Fraction(0)
    weighted = [apply(space.gram, b) for b in cycles]
    grid = []
    for a in cycles:
        row = []
        for w in weighted:
            acc = zero
            for x, y in zip(a, w):
                if x and y:
                    acc = acc + x * y
            row.append(acc)
        grid.append(tuple(row))
    return Matrix(len(cycles), len(cycles), tuple(grid))


def n_matrix(delta: Vector, weights: Vector) -> Matrix:
    grid = tuple(tuple(w * d for w in weights) for d in delta)
    return Matrix(len(delta), len(delta), grid)


def commutator_closed_form(space: PairingSpace, delta_a: Vector, delta_b: Vector) -> Matrix:
    lam_ab = pair(space, delta_a, delta_b)
    lam_ba = -lam_ab
    wa = apply(space.gram, delta_a)
    wb = apply(space.gram, delta_b)
    n = space.dim
    grid = tuple(
        tuple(wb[k] * lam_ba * delta_a[j] - wa[k] * lam_ab * delta_b[j] for k in range(n))
        for j in range(n)
    )
    return Matrix(n, n, grid)
