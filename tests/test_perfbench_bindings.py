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
from lightsectors import package, report, scenarios  # noqa: E402

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
        assert tracer.counts["linalg.rref.calls"] > 0
        spans = {name for name, *_ in tracer.spans}
        assert {"transport.commutator", "transport.commutator_closed_form",
                "transport.interaction_matrix"} <= spans


def test_verify_makes_no_counted_product_and_nests_the_commutator_spans():
    """The interaction matrices are dot products with the shared Gram images
    and both commutator routes compare packed rows, so the verify path makes
    no counted matrix product; the dense route, the closed form and the
    block operators are still reached through the names the tracer wraps,
    under the commutator check.  The analysis document and both renders
    make none either, so no pipeline path multiplies matrices."""
    texts = [(DATA / "four_node_blocks.scenario").read_text(),
             scenarios.serialize_scenario(scenarios.builtin_scenario("quintic_orbits"))]
    for text in texts:
        tracer = tracing.Tracer()
        with tracer.installed():
            sc = scenarios.parse_scenario(text)
            pkg = scenarios.to_package(sc)
            assert package.verify_block_structure(pkg).overall
        assert tracer.counts["linalg.matmul.calls"] == 0
        assert not any(name == "linalg.matmul" for name, *_ in tracer.spans)
        routes = ("transport.commutator", "transport.commutator_closed_form",
                  "transport.pl_operator")
        parents = {name: {tracer.spans[parent][0] for n, _, _, parent, _ in tracer.spans
                          if n == name} for name in routes}
        assert parents == dict.fromkeys(routes, {"blocks.block_commutator_check"})
        with tracer.installed():
            doc = report.analysis_document(pkg, sc.name)
            assert report.render_report(doc, "text") and report.render_report(doc, "machine")
        assert tracer.counts["report.bytes_out"] > 0
        assert tracer.counts["linalg.matmul.calls"] == 0
