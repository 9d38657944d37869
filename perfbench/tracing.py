"""Spans and counts at the package's layer boundaries, recorded from outside.

Inside a `with tracer.installed():` block the tracer replaces the names each
caller module binds for the public functions of the layer it calls
(``package.pl_operator``, ``report.verify_block_structure``, ``linalg.rref``,
``Matrix.__matmul__`` and so on) with wrappers that record a span (name, start,
end, parent, case id) in memory; it restores them on exit.  Nothing in the
package itself is changed.  Self time is a span's duration minus the durations
of its direct children; calls nest and run on one thread, so children never
overlap.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from lightsectors import blocks, gluing, linalg, package, report, scenarios

# (module, attribute bound there, span name).  The span name is the layer
# (module) that defines the function, then the function.
WRAPPED = (
    (scenarios, "parse_scenario", "scenarios.parse"),
    (scenarios, "to_package", "scenarios.to_package"),
    (scenarios, "assemble", "package.assemble"),
    (package, "pl_operator", "transport.pl_operator"),
    (package, "interaction_matrix", "transport.interaction_matrix"),
    (package, "atom_splitting", "atoms.atom_splitting"),
    (package, "blockwise_atom_splitting", "atoms.atom_splitting"),
    (package, "realized_space", "gluing.realized_space"),
    (package, "blocks_from_indicator_basis", "blocks.blocks_from_indicator_basis"),
    (package, "check_block_separation", "blocks.check_block_separation"),
    (package, "reduced_matrix", "blocks.reduced_matrix"),
    (package, "check_membership", "gluing.check_membership"),
    (package, "relation_lattice_from_blocks", "blocks.relation_lattice"),
    (package, "verify_block_consistency", "blocks.verify_block_consistency"),
    (package, "block_commutator_check", "blocks.block_commutator_check"),
    (package, "verify_block_structure", "package.verify_block_structure"),
    (blocks, "pl_operator", "transport.pl_operator"),
    (blocks, "interaction_matrix", "transport.interaction_matrix"),
    (blocks, "commutator", "transport.commutator"),
    (blocks, "commutator_closed_form", "transport.commutator_closed_form"),
    (gluing, "column_space", "linalg.column_space"),
    (report, "classify", "package.classify"),
    (report, "verify_block_structure", "package.verify_block_structure"),
    (report, "analysis_document", "report.document"),
    (report, "verification_document", "report.document"),
)

LAYERS = ("scenarios", "package", "transport", "linalg", "gluing", "blocks", "atoms", "report")

# Operation counts that must repeat exactly for the same inputs.
EXACT_COUNTS = ("linalg.matmul.calls", "linalg.matmul.mults", "linalg.rref.calls",
                "linalg.rref.cells", "blocks.checks_built")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, case id]
        self.counts: Counter[str] = Counter()
        self.case_id = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.case_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def installed(self):
        counts = self.counts
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        matmul, rref = linalg.Matrix.__matmul__, linalg.rref
        render, check_init = report.render_report, blocks.Check.__init__
        traced_matmul = self._wrap(matmul, "linalg.matmul")
        traced_rref = self._wrap(rref, "linalg.rref")
        traced_render = {"text": self._wrap(render, "report.render_text"),
                         "machine": self._wrap(render, "report.render_machine")}

        def counted_matmul(a, b):
            counts["linalg.matmul.calls"] += 1
            counts["linalg.matmul.mults"] += a.rows * a.cols * b.cols
            return traced_matmul(a, b)

        def counted_rref(m):
            counts["linalg.rref.calls"] += 1
            counts["linalg.rref.cells"] += m.rows * m.cols
            return traced_rref(m)

        def counted_render(doc, format="text"):
            out = traced_render[format](doc, format)
            counts["report.bytes_out"] += len(out)
            return out

        def counted_check_init(check, *args, **kwargs):
            counts["blocks.checks_built"] += 1
            check_init(check, *args, **kwargs)

        try:
            for (mod, attr, name), (_, _, fn) in zip(WRAPPED, saved):
                setattr(mod, attr, self._wrap(fn, name))
            linalg.Matrix.__matmul__ = counted_matmul
            linalg.rref = counted_rref
            report.render_report = counted_render
            blocks.Check.__init__ = counted_check_init
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            linalg.Matrix.__matmul__ = matmul
            linalg.rref = rref
            report.render_report = render
            blocks.Check.__init__ = check_init

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, inner):
            totals[name] += end - start - child
        return dict(totals)
