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

from .blocks import BlockDecomposition
from .pairing import standard_symplectic
from .scenarios import ScenarioFile, block_fields


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
    part = BlockDecomposition.from_blocks(r, list(members.values()))

    classes = [
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))
        for _ in part.blocks
    ]

    corrected = None
    if rng.random() < 0.5:
        # Constant on blocks, hence inside the realized indicator span.
        values = [Fraction(rng.randint(-3, 3)) for _ in part.blocks]
        corrected = tuple(values[bi] for bi in part.owner)

    return ScenarioFile(
        name=name,
        dim=dim,
        gram=gram,
        cycles=tuple(classes[bi] for bi in part.owner),
        corrected_class=corrected,
        **block_fields(part),
    )
