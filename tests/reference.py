"""Test oracles: entrywise Fraction arithmetic and eager verification records.

The arithmetic functions are plain loops over ``Matrix.entries``, the
Fraction view of a matrix the package stores as integers over one
denominator.  Every one adds, negates and multiplies Fractions entry by
entry and builds its result with ``Matrix.from_rows``, so a test can require
the integer kernel's results to equal them exactly, entry by entry.  ``rref``,
``canonical_basis``, ``is_canonical``, ``contains`` and ``kernel`` are the
Fraction elimination the package ran before it eliminated on integer rows;
a subspace here is its canonical basis, a tuple of Fraction vectors.

``dense_grid`` reads an interaction matrix one node entry at a time, and
``commutes_all``, ``atom_splitting`` and ``block_consistency_checks`` read it
through ``dense_grid``, so they do not depend on its class form;
the report ``atom_splitting`` returns holds the edges it found, so comparing
a package report with it compares the package's expanded edges with them.

The ``*_checks`` functions are the verification builders the package used
before its reports kept only a count and their failures: they record every
comparison, passing or not, as an ``EagerCheck``.  They call the package's
arithmetic through the ``blocks`` module, so a fault patched in there reaches
both sides; the dense commutators are the exception, formed here by
``commutator`` over ``n_matrix`` so that the oracle does not share the
product under test.  The package's two commutator routes return packed rows
(``linalg.Slots``) and a denominator; ``commutator_grids`` and
``closed_form_grid`` read them back as unreduced integer grids.  The oracle
packs its commutator's value over the closed form's denominator and compares
packed rows, as the package does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from lightsectors import blocks, transport
from lightsectors.atoms import AtomSplittingReport
from lightsectors.linalg import (DimensionMismatchError, Matrix, Slots, Vector, format_rational,
                                 quotient_dim)
from lightsectors.package import LightSectorPackage
from lightsectors.pairing import CycleConfiguration, PairingSpace
from lightsectors.transport import InteractionMatrix


def add(left: Matrix, right: Matrix) -> Matrix:
    _require_same_shape(left, right)
    grid = [[x + y for x, y in zip(a, b)] for a, b in zip(left.entries, right.entries)]
    return Matrix.from_rows(grid, cols=left.cols)


def sub(left: Matrix, right: Matrix) -> Matrix:
    _require_same_shape(left, right)
    grid = [[x - y for x, y in zip(a, b)] for a, b in zip(left.entries, right.entries)]
    return Matrix.from_rows(grid, cols=left.cols)


def neg(m: Matrix) -> Matrix:
    return Matrix.from_rows([[-x for x in row] for row in m.entries], cols=m.cols)


def transpose(m: Matrix) -> Matrix:
    grid = [[m.entries[i][j] for i in range(m.rows)] for j in range(m.cols)]
    return Matrix.from_rows(grid, cols=m.rows)


def _require_same_shape(left: Matrix, right: Matrix) -> None:
    if (left.rows, left.cols) != (right.rows, right.cols):
        raise DimensionMismatchError(
            f"shape mismatch: {left.rows}x{left.cols} vs {right.rows}x{right.cols}"
        )


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
    return Matrix.from_rows(out, cols=right.cols)


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
    return Matrix.from_rows(grid, cols=len(cycles))


def n_matrix(delta: Vector, weights: Vector) -> Matrix:
    grid = tuple(tuple(w * d for w in weights) for d in delta)
    return Matrix.from_rows(grid, cols=len(delta))


def commutator(n_a: Matrix, n_b: Matrix) -> Matrix:
    """N_a N_b - N_b N_a of two dense matrices."""
    return sub(matmul(n_a, n_b), matmul(n_b, n_a))


def commutator_grids(ops: Sequence[transport.TransportOperator],
                     slots: Slots | None = None) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """The package's dense commutators of ops, (grid, den) per pair i < j:
    each pair's packed rows read back from slots, by default slots that
    hold transport.commutator_bound(ops)."""
    if slots is None:
        slots = Slots(transport.commutator_bound(ops), ops[0].dim if ops else 0)
    return [(tuple(slots.unpack(rows)), den) for rows, den in transport.commutator(ops, slots)]


def closed_form_grid(cfg: CycleConfiguration, a: int, b: int,
                     slots: Slots | None = None) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The package's closed form of cycles a and b as (grid, den): its
    packed rows read back from slots, by default slots that hold
    transport.closed_form_bound(cfg)."""
    if slots is None:
        slots = Slots(transport.closed_form_bound(cfg), cfg.space.dim)
    rows, den = blocks.commutator_closed_form(cfg, a, b, slots)
    return tuple(slots.unpack(rows)), den


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
    return Matrix.from_rows(grid, cols=n)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Gauss-Jordan on the Fraction entries, leftmost pivot first: the
    reduced row-echelon form, zero rows kept, and the rank."""
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
    return Matrix.from_rows(grid, cols=m.cols), pivot_row


def canonical_basis(vectors: Sequence[Vector], ambient_dim: int) -> tuple[Vector, ...]:
    """The nonzero rows of the reduced row-echelon form of the vectors."""
    if not vectors:
        return ()
    reduced, rk = rref(Matrix.from_rows(vectors, cols=ambient_dim))
    return reduced.entries[:rk]


def is_canonical(rows: Sequence[Vector], ambient_dim: int) -> bool:
    """Whether rows are already their own canonical basis."""
    return canonical_basis(rows, ambient_dim) == tuple(map(tuple, rows))


def contains(basis: Sequence[Vector], v: Vector) -> bool:
    """Whether v lies in the span of a canonical basis: subtract from it each
    row times v's entry at that row's pivot."""
    residual = list(v)
    for row in basis:
        pivot = next(i for i, x in enumerate(row) if x != 0)
        coeff = residual[pivot]
        if coeff != 0:
            residual = [x - coeff * y for x, y in zip(residual, row)]
    return all(x == 0 for x in residual)


def kernel(m: Matrix) -> tuple[Vector, ...]:
    """The canonical basis of {v : m v = 0}: one generator per free column,
    then reduced."""
    reduced, rk = rref(m)
    pivot_cols: list[int] = []
    col = 0
    for i in range(rk):
        while reduced.entries[i][col] == 0:
            col += 1
        pivot_cols.append(col)
        col += 1
    generators = []
    for f in (j for j in range(m.cols) if j not in pivot_cols):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivot_cols):
            v[p] = -reduced.entries[i][f]
        generators.append(tuple(v))
    return canonical_basis(generators, m.cols)


def first_skew_violation(m: Matrix) -> tuple[int, int] | None:
    for i in range(m.rows):
        for j in range(i, m.rows):
            if m.entries[i][j] != -m.entries[j][i]:
                return i, j
    return None


def dense_grid(pairings: Matrix, node_class: Sequence[int]) -> Matrix:
    """The r x r matrix a class form stands for, one lookup per entry."""
    r = len(node_class)
    grid = tuple(
        tuple(pairings.entries[node_class[i]][node_class[j]] for j in range(r))
        for i in range(r)
    )
    return Matrix.from_rows(grid, cols=r)


def commutes_all(lam: InteractionMatrix) -> bool:
    grid = dense_grid(lam.pairings, lam.node_class).entries
    return all(grid[i][j] == 0 for i in range(lam.r) for j in range(lam.r) if i != j)


def atom_splitting(lam: InteractionMatrix) -> AtomSplittingReport:
    """Every nonzero entry (i, j), i < j, is an edge; union-find over nodes."""
    grid = dense_grid(lam.pairings, lam.node_class).entries
    parent = list(range(lam.r))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    edges = []
    for i in range(lam.r):
        for j in range(i + 1, lam.r):
            if grid[i][j] != 0:
                edges.append((i, j))
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for k in range(lam.r):
        groups.setdefault(find(k), []).append(k)
    clusters = tuple(tuple(groups[root]) for root in sorted(groups))
    # One class per node, each run its node's neighbours in ascending order.
    partners: list[list[int]] = [[] for _ in range(lam.r)]
    for i, j in edges:
        partners[i].append(j)
        partners[j].append(i)
    report = AtomSplittingReport(lam.r, not edges, clusters, tuple(range(lam.r)),
                                 tuple(map(tuple, partners)))
    # The expected edges are the ones found here, not expanded from the runs.
    vars(report)["mixing_edges"] = tuple(edges)
    return report


class EagerCheck(NamedTuple):
    name: str
    expected: str
    actual: str
    passed: bool


def block_consistency_checks(
    lam: InteractionMatrix, bc: blocks.BlockClasses, lam_blk: InteractionMatrix
) -> list[EagerCheck]:
    part = bc.decomposition
    owner = [0] * part.r
    for b, block in enumerate(part.blocks):
        for k in block:
            owner[k] = b
    grid = dense_grid(lam.pairings, lam.node_class).entries
    mu = dense_grid(lam_blk.pairings, lam_blk.node_class).entries
    checks = []
    for i in range(part.r):
        for j in range(part.r):
            if i == j:
                continue
            expected = mu[owner[i]][owner[j]]
            actual = grid[i][j]
            tag = " [intra-block]" if owner[i] == owner[j] else ""
            checks.append(
                EagerCheck(
                    name=f"lambda({i + 1},{j + 1}){tag}",
                    expected=format_rational(expected),
                    actual=format_rational(actual),
                    passed=expected == actual,
                )
            )
    return checks


def block_commutator_checks(bc: blocks.BlockClasses, lam_blk: InteractionMatrix) -> list[EagerCheck]:
    b = bc.decomposition.count
    block_cfg = CycleConfiguration.from_vectors(bc.classes.space, bc.classes.matrix.entries)
    gram = bc.classes.space.gram
    ns = [n_matrix(d, apply(gram, d)) for d in bc.classes.matrix.entries]
    slots = Slots(transport.closed_form_bound(block_cfg), gram.rows)
    checks = []
    all_zero = True
    for i in range(b):
        for j in range(i + 1, b):
            dense = commutator(ns[i], ns[j])
            rows, den = blocks.commutator_closed_form(block_cfg, i, j, slots)
            # Compared as packed rows in one Slots, as the package compares
            # them: the reference value over the closed form's denominator
            # is within the closed form's bound, so equal ints are equal
            # values, and a faulty closed form is judged by its ints alone.
            scaled = [[x * den for x in row] for row in dense.entries]
            agree = (all(x.denominator == 1 for row in scaled for x in row)
                     and slots.pack([[int(x) for x in row] for row in scaled]) == rows)
            checks.append(
                EagerCheck(
                    name=f"commutator closed form ({i + 1},{j + 1})",
                    expected="matrix and closed form agree",
                    actual="agree" if agree else "disagree",
                    passed=agree,
                )
            )
            if not dense.is_zero():
                all_zero = False
    off_diag_zero = commutes_all(lam_blk)
    checks.append(
        EagerCheck(
            name="commutation criterion",
            expected="commute iff off-diagonal reduced entries vanish",
            actual=(
                f"commutators {'all zero' if all_zero else 'nonzero'}; "
                f"off-diagonal {'zero' if off_diag_zero else 'nonzero'}"
            ),
            passed=all_zero == off_diag_zero,
        )
    )
    return checks


def block_structure_checks(pkg: LightSectorPackage) -> list[EagerCheck]:
    """Every comparison of ``verify_block_structure`` on a separated package."""
    part = pkg.partition
    b = part.count
    qdim = quotient_dim(pkg.r, blocks.relation_lattice_from_blocks(part))
    checks = [
        EagerCheck("relation lattice quotient dimension", str(b), str(qdim), qdim == b),
        EagerCheck("surviving dimension equals block count", str(b), str(part.count),
                   part.count == b),
    ]
    if pkg.incidence is not None:
        realized_dim = pkg.realized.v_geom.dim
        checks.append(EagerCheck("realized dimension equals block count", str(b),
                                 str(realized_dim), realized_dim == b))
    checks += block_consistency_checks(pkg.interaction, pkg.block_classes, pkg.reduced)
    checks += block_commutator_checks(pkg.block_classes, pkg.reduced)
    agree = pkg.atom.is_split == pkg.blockwise.is_split
    checks.append(EagerCheck("atom verdict agreement (full vs reduced)", "agree",
                             "agree" if agree else "disagree", agree))
    return checks
