"""Random block-separated model configurations.

Used by the property suites, the CLI selftest, and the experiment scripts:
draw a partition of up to max_nodes nodes, one random class vector per block
in a standard symplectic space, duplicate it across the block, and attach
the matching indicator incidence.  Every configuration produced here
satisfies block separation by construction, so the block-structure checks
must pass on all of them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .linalg import Matrix
from .pairing import standard_symplectic
from .scenarios import ScenarioFile


def random_block_scenario(
    rng: random.Random,
    max_nodes: int = 12,
    max_genus: int = 6,
    name: str = "random_block_model",
) -> ScenarioFile:
    r = rng.randint(1, max_nodes)
    g = rng.randint(1, max_genus)
    dim = 2 * g
    gram = standard_symplectic(g).gram

    b = rng.randint(1, r)
    owners = list(range(b)) + [rng.randrange(b) for _ in range(r - b)]
    rng.shuffle(owners)
    members: dict[int, list[int]] = {}
    for node, owner in enumerate(owners):
        members.setdefault(owner, []).append(node)
    blocks = sorted((tuple(sorted(ns)) for ns in members.values()), key=lambda t: t[0])

    classes = [
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))
        for _ in blocks
    ]
    owner_of = {node: bi for bi, block in enumerate(blocks) for node in block}
    cycles = tuple(classes[owner_of[k]] for k in range(r))

    # Row k of the indicator incidence is 1 in the column of node k's block.
    indicator_rows = tuple(
        tuple(int(owner_of[k] == bi) for bi in range(len(blocks))) for k in range(r)
    )
    incidence = Matrix(r, len(blocks), indicator_rows)
    partition = tuple(tuple(k + 1 for k in block) for block in blocks)

    corrected = None
    if rng.random() < 0.5:
        # Constant on blocks, hence inside the realized indicator span.
        coeffs = [Fraction(0)] * r
        for bi, block in enumerate(blocks):
            value = Fraction(rng.randint(-3, 3))
            for k in block:
                coeffs[k] = value
        corrected = tuple(coeffs)

    return ScenarioFile(
        name=name,
        dim=dim,
        gram=gram,
        cycles=cycles,
        incidence=incidence,
        partition=partition,
        corrected_class=corrected,
    )
