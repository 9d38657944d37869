"""Every name the benchmark tracer wraps must still exist in the package,
and the package must still reach the code through those names.

perfbench/tracing.py replaces module attributes by name when a run asks for
--trace 1; a name dropped from the package would only surface there.  A
rewrite that calls a private helper instead of ``linalg.rref`` or
``Matrix.__matmul__`` would leave the names bound but never called: the
exact counts would read 0 on both sides of a comparison and the per-layer
metrics would go blind without an error.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from lightsectors import package, scenarios  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "mod, attr", [(mod, attr) for mod, attr, _ in tracing.WRAPPED],
    ids=[f"{mod.__name__}.{attr}" for mod, attr, _ in tracing.WRAPPED],
)
def test_traced_name_resolves(mod, attr):
    assert callable(getattr(mod, attr))



def test_tracer_sees_the_counted_and_traced_calls():
    # Two blocks (one pair) and quintic_orbits' five blocks (ten pairs).
    texts = [(DATA / "four_node_blocks.scenario").read_text(),
             scenarios.serialize_scenario(scenarios.builtin_scenario("quintic_orbits"))]
    for text in texts:
        tracer = tracing.Tracer()
        with tracer.installed():
            pkg = scenarios.to_package(scenarios.parse_scenario(text))
            assert package.verify_block_structure(pkg).overall
        assert tracer.counts["linalg.matmul.calls"] > 0
        assert tracer.counts["linalg.rref.calls"] > 0
        spans = {name for name, *_ in tracer.spans}
        assert {"transport.commutator", "transport.commutator_closed_form",
                "transport.interaction_matrix"} <= spans
        # The dense commutators still go through the counted product.
        assert any(name == "linalg.matmul" and parent >= 0
                   and tracer.spans[parent][0] == "transport.commutator"
                   for name, _, _, parent, _ in tracer.spans)


def test_verify_makes_one_counted_product_under_the_commutator():
    """The interaction matrices are dot products with the shared Gram images,
    so the verify path's one matrix product is the dense commutator's."""
    texts = [(DATA / "four_node_blocks.scenario").read_text(),
             scenarios.serialize_scenario(scenarios.builtin_scenario("quintic_orbits"))]
    for text in texts:
        tracer = tracing.Tracer()
        with tracer.installed():
            pkg = scenarios.to_package(scenarios.parse_scenario(text))
            assert package.verify_block_structure(pkg).overall
        assert tracer.counts["linalg.matmul.calls"] == 1
        products = [parent for name, _, _, parent, _ in tracer.spans if name == "linalg.matmul"]
        assert [tracer.spans[p][0] for p in products] == ["transport.commutator"]
