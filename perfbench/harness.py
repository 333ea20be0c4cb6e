"""Closed-loop workload runner: one client, one fresh interpreter per pass.

The next spec starts only after the previous report is rendered, so the
program never has more than one spec in flight.  A pass executes every spec
of the workload once, in a worker process of its own (this file run as a
script); a run repeats passes until its time budget is spent.  Because each
pass starts from a fresh interpreter, nothing the program keeps between
``execute`` calls (a module-level memo, say) survives from one pass into
the next: a spec that is cold in a one-spec CLI process is cold in every
pass, and only state shared between the specs of one pass can help.

The latency of a spec covers ``torsionlab.cli.execute`` plus
``render_json``, or the rejection of an invalid spec; starting the worker,
parsing the document, collecting garbage and checking the report happen
outside the timed region.

Timed passes scale each latency by the host's speed at the time, measured
with a fixed reference kernel (see calib.py), and a spec's figure is the
median of its calibrated latencies over the run's passes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calib
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REPORT_SCHEMA = Path("torsionlab") / "schemas" / "workbench-report.v1.json"

# A pass of the declared workloads takes a few seconds; this only stops a
# hung worker.
PASS_TIMEOUT_S = 150


@dataclass
class PassResult:
    latencies_ms: list[float] = field(default_factory=list)
    calibrated_ms: list[float] | None = None  # timed passes only
    wall_s: float = 0.0
    failed: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    spans: list[list] | None = None  # traced passes only
    counts: dict | None = None  # traced passes only


class Runner:
    """Runs passes over one spec list, each in a fresh worker process, and
    checks every report.

    A spec's report is checked in full the first time it is seen; on later
    passes a byte-identical rendering inherits that verdict, and anything
    else is checked again.
    """

    def __init__(self, specs: list[tuple[str, dict]], src: Path = SRC):
        self.specs = specs
        self.src = Path(src)
        self.verdicts: dict[str, list] = {}  # spec number -> [outcome sha256, problems]

    def run_pass(self, trace: bool = False, calibrate: bool = False) -> PassResult:
        job = {"src": str(self.src), "trace": trace, "calibrate": calibrate,
               "specs": self.specs, "verdicts": self.verdicts}
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve())],
            input=json.dumps(job), capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"pass worker failed (exit {proc.returncode}): "
                               f"{proc.stderr.strip()[-800:]}")
        out = json.loads(lines[-1])
        self.verdicts.update(out.pop("verdicts"))
        return PassResult(**out)


def _render(cli, report: dict, tracer: spans.Tracer | None) -> str:
    if tracer is None:
        return cli.render_json(report)
    idx = tracer.enter("cli.render")
    try:
        return cli.render_json(report)
    finally:
        tracer.exit(idx)


def _worker() -> None:
    """One pass, in this fresh interpreter: read the job from stdin, print
    the result as the last line of stdout."""
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    from torsionlab import cli

    from oracle import Checker

    checker = Checker(Path(job["src"]) / REPORT_SCHEMA)
    known = job["verdicts"]
    verdicts: dict[str, list] = {}
    out = PassResult()
    digest = hashlib.sha256()
    tracer = spans.Tracer() if job["trace"] else None
    calibrator = calib.Calibrator() if job["calibrate"] else None
    timed: list[tuple[float, float]] = []
    # Every spec starts from a collected heap, as a fresh CLI process
    # would; freezing what set-up left alive makes each collection cheap.
    gc.collect()
    gc.freeze()
    with (spans.installed(tracer) if tracer is not None else nullcontext(),
          calibrator if calibrator is not None else nullcontext()):
        for number, (text, expect) in enumerate(job["specs"]):
            doc = json.loads(text)
            gc.collect()
            report = code = rendered = error = None
            if tracer is not None:
                tracer.spec = number
                root = tracer.enter("cli.execute")
            started = perf_counter()
            try:
                report, code = cli.execute(doc)
                rendered = _render(cli, report, tracer)
            except Exception as exc:  # checked below: expected or a bug
                error = exc
            finished = perf_counter()
            timed.append((started, finished))
            if tracer is not None:
                tracer.exit(root)
                tracer.end_spec(report, rendered)
            outcome = rendered if error is None else f"error {type(error).__name__}: {error}\n"
            outcome = outcome.encode("utf-8")
            digest.update(outcome)
            sha = hashlib.sha256(outcome).hexdigest()
            seen = known.get(str(number))
            if seen is not None and seen[0] == sha:
                problems = seen[1]
            else:
                problems = checker.check(text, expect, report, code, error)
                verdicts[str(number)] = [sha, problems]
            if problems:
                out.failed += 1
                out.problems.append(f"spec {number}: " + "; ".join(problems))
    if calibrator is None:
        out.latencies_ms = [(end - start) * 1000.0 for start, end in timed]
    else:
        measured = calib.calibrated(calibrator.samples, timed)
        out.latencies_ms = [raw * 1000.0 for raw, _ in measured]
        out.calibrated_ms = [scaled * 1000.0 for _, scaled in measured]
    out.wall_s = sum(out.latencies_ms) / 1000.0
    out.digest = digest.hexdigest()
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    if tracer is not None:
        out.spans = tracer.spans
        out.counts = tracer.finish_counts()
    print(json.dumps({**out.__dict__, "verdicts": verdicts}))


def tail_percentile(samples: list[float], q: float = 0.99) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def best_latencies(passes: list[PassResult]) -> list[float]:
    """Each spec's best latency over the passes, in ms."""
    return [min(per_spec) for per_spec in zip(*(p.latencies_ms for p in passes))]


def median_calibrated(passes: list[PassResult]) -> list[float]:
    """Each spec's median calibrated latency over the passes, in ms."""
    return [statistics.median(per_spec)
            for per_spec in zip(*(p.calibrated_ms for p in passes))]


def _passes_until(runner: Runner, seconds: float, traced: bool) -> list[PassResult]:
    """Passes until the budget is spent, alternating untraced and traced
    ones when ``traced``, calibrated ones otherwise: at least one of each
    kind, and none started that the last pass's length says would overrun."""
    passes: list[PassResult] = []
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        passes.append(runner.run_pass(trace=traced and len(passes) % 2 == 1,
                                      calibrate=not traced))
        if len(passes) >= 1 + traced and perf_counter() + (perf_counter() - started) > deadline:
            return passes


def run_timed(runner: Runner, seconds: float) -> dict:
    """Calibrated passes; the end-to-end metrics from each spec's median
    calibrated latency."""
    passes = _passes_until(runner, seconds, traced=False)
    latency = median_calibrated(passes)
    return {
        "passes": passes,
        "metrics": {
            "wall_s": sum(latency) / 1000.0,
            "spec_p50_ms": statistics.median(latency),
            "spec_p99_ms": tail_percentile(latency),
            "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        },
        "samples": len(latency),
        "samples_beyond_p99": sum(1 for x in latency if x > tail_percentile(latency)),
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    """Alternating untraced and traced passes.

    A layer's time is the least, over traced passes, of its summed self
    time; ``trace.overhead_pct`` compares the summed best latencies of the
    traced and the untraced passes.
    """
    passes = _passes_until(runner, seconds, traced=True)
    plain, traced = passes[0::2], passes[1::2]
    per_pass = [spans.layer_totals(p.spans) for p in traced]
    metrics = {
        f"{layer}_ms": min(totals[layer] for totals in per_pass) for layer in spans.LAYERS
    }
    plain_wall = sum(best_latencies(plain))
    traced_wall = sum(best_latencies(traced))
    metrics["trace.overhead_pct"] = (traced_wall - plain_wall) / plain_wall * 100.0
    metrics.update(traced[0].counts)
    return {"passes": passes, "metrics": metrics, "spans": traced[-1].spans}


if __name__ == "__main__":
    _worker()
