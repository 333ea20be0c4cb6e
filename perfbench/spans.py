"""Span recording around calls into torsionlab's layers, from outside.

Each layer is timed by wrapping the public functions the calling module
imported (``torsionlab.cli.build_ring``, ``torsionlab.noether.spec_partition``
and so on), so calls inside a module stay unwrapped and count toward the
caller.  Per-element methods (``add_elem``, ``leq``, ``SubmoduleLattice.sum``)
run millions of times on a size-16 ring and are never wrapped; instead the
lattice arithmetic a theorem suite fills is staged from outside before the
suite runs (see ``Tracer.stage_suite``).

Spans are kept in memory as ``[name, start_ns, end_ns, parent, spec]``
lists; all spans of one spec share the spec number.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter_ns

# Span name -> the (module, attribute) bindings whose calls it covers.
LAYER_BINDINGS = {
    "rings.build": [("cli", "build_ring")],
    "rings.lattice": [
        ("cli", "enumerate_ideals"), ("cli", "prime_spectrum"), ("cli", "local_decomposition"),
        ("noether", "ideal_lattice"), ("noether", "prime_spectrum"),
        ("noether", "local_decomposition"),
        ("filters", "enumerate_ideals"), ("filters", "ideal_lattice"),
        ("filters", "prime_spectrum"),
        ("modules", "ideal_lattice"),
    ],
    "modules.lattice": [
        ("cli", "free_module"), ("noether", "free_module"),
        ("noether", "submodule_lattice"), ("filters", "submodule_lattice"),
    ],
    "filters.census": [("cli", "enumerate_gabriel_filters")],
    "filters.query": [
        ("cli", "gabriel_closure"), ("cli", "filter_from_mult_set"),
        ("cli", "filter_from_prime"), ("cli", "lambda_filter"), ("cli", "trivial_filter"),
        ("cli", "improper_filter"), ("cli", "spec_partition"),
        # the closure runner imports these from torsionlab.filters at call time
        ("filters", "closure"), ("filters", "is_closed"), ("filters", "is_dense"),
        ("noether", "filter_from_prime"), ("noether", "ideal_closure"),
        ("noether", "induced_filter"), ("noether", "jansian_status"),
        ("noether", "meet_decomposition_check"), ("noether", "spec_partition"),
    ],
    "noether.suite": [("cli", "theorem_suite")],
    "noether.certify": [("cli", "tfg_certificate"), ("cli", "verify_certificate")],
    "monomial.decide": [("cli", "s_finite_decide")],
    "monomial.scan": [
        ("cli", "saturation"), ("cli", "in_filter"), ("cli", "cohen_scan"),
        ("cli", "almost_jansian_principal"),
    ],
    "cli.validate": [("cli", "validate_spec")],
}

# Every layer a traced pass reports, in report order.
LAYERS = (
    "rings.build", "rings.lattice", "modules.lattice", "modules.order", "modules.arith",
    "filters.census", "filters.query", "noether.suite", "noether.certify",
    "monomial.decide", "monomial.scan", "cli.validate", "cli.render",
)

COUNTS = (
    "rings.ideals", "modules.submodules", "modules.incl_pairs", "modules.chains",
    "filters.gabriel_filters", "noether.instances", "monomial.ops", "cli.report_bytes",
)


class Tracer:
    """In-memory span recorder plus the deterministic counters of a pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.spec = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self.rings: list = []  # rings built by the current spec
        self.a2_lattices: dict[int, object] = {}  # staged A^2 lattices by id
        self.chains: dict[int, int] = {}

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.spec])
        self.stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    # -- staging ---------------------------------------------------------------

    def stage_suite(self, ring) -> None:
        """Fill, from outside, the memo a theorem suite on ``ring`` reads.

        Builds the lattices of A and A^2, then their order, then the colon
        rows, pair colons and sums over every index pair: exactly the
        arithmetic the suite would otherwise do inline, so the suite span
        afterwards holds only the suite's own work.
        """
        from torsionlab import noether

        lattices = [noether.submodule_lattice(noether.free_module(ring, k)) for k in (1, 2)]
        idx = self.enter("modules.order")
        for lat in lattices:
            lat.inclusion_pairs()
            lat.covers()
        self.exit(idx)
        idx = self.enter("modules.arith")
        for lat in lattices:
            n = lat.n
            for i in range(n):
                lat.colon_row(i)
            for i in range(n):
                for j in range(n):
                    lat.pair_colon(i, j)
                for j in range(i, n):
                    lat.sum(i, j)
        self.exit(idx)
        a2 = lattices[1]
        if id(a2) not in self.a2_lattices:
            self.a2_lattices[id(a2)] = a2
            self.counts["modules.submodules"] += a2.n
            self.counts["modules.incl_pairs"] += len(a2.inclusion_pairs())

    # -- per-spec counters -----------------------------------------------------

    def end_spec(self, report: dict | None, rendered: str | None) -> None:
        """Fold one spec's rings and report into the counters; runs outside
        the timed region."""
        from torsionlab.rings import enumerate_ideals

        self.counts["rings.ideals"] += sum(len(enumerate_ideals(r)) for r in self.rings)
        self.rings = []
        if rendered is not None:
            self.counts["cli.report_bytes"] += len(rendered.encode("utf-8"))
        if report is not None and report["results"]["kind"] == "suite":
            self.counts["noether.instances"] += sum(
                t["instances_checked"]
                for rep in report["results"]["reports"]
                for t in rep["theorems"]
            )

    def record_chains(self, args, chains) -> None:
        lat = args[0]
        if id(lat) in self.a2_lattices:
            self.chains[id(lat)] = len(chains)

    def finish_counts(self) -> dict:
        counts = dict(self.counts)
        counts["modules.chains"] = sum(self.chains.values())
        return counts


@contextmanager
def installed(tracer: Tracer):
    """Swap the layer bindings for traced wrappers; restore them on exit."""
    mods = {name: importlib.import_module(f"torsionlab.{name}")
            for name in ("cli", "filters", "modules", "noether")}
    saved: list[tuple[object, str, object]] = []

    def swap(owner, attr: str, replacement) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def count(key: str, size=len):
        def hook(args, result):
            tracer.counts[key] += size(result)
        return hook

    hooks = {
        ("cli", "build_ring"): lambda args, ring: tracer.rings.append(ring),
        ("cli", "enumerate_gabriel_filters"): count("filters.gabriel_filters"),
    }
    for layer in ("monomial.decide", "monomial.scan"):
        for binding in LAYER_BINDINGS[layer]:
            hooks[binding] = count("monomial.ops", size=lambda result: 1)
    try:
        for name, bindings in LAYER_BINDINGS.items():
            for mod, attr in bindings:
                fn = getattr(mods[mod], attr)
                if name == "noether.suite":
                    swap(mods[mod], attr, _staged_suite(tracer, fn))
                else:
                    swap(mods[mod], attr, tracer.wrap(name, fn, hooks.get((mod, attr))))
        # called a few dozen times per suite, so wrapping them measures the
        # work, not the wrapper
        lattice = mods["modules"].SubmoduleLattice
        swap(lattice, "inclusion_pairs", tracer.wrap("modules.order", lattice.inclusion_pairs))
        swap(lattice, "maximal_chains",
             tracer.wrap("modules.order", lattice.maximal_chains, tracer.record_chains))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _staged_suite(tracer: Tracer, suite):
    """Stage the suite's lattice arithmetic in sibling spans, then run the
    suite in its own span."""
    traced = tracer.wrap("noether.suite", suite)

    @functools.wraps(suite)
    def run(ring, sigma):
        tracer.stage_suite(ring)
        return traced(ring, sigma)

    return run


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its child spans cover, in ns."""
    child = [0] * len(spans)
    for name, start, end, parent, spec in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Summed self time per layer, in ms."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        if span[0] in totals:
            totals[span[0]] += own / 1e6
    return totals
