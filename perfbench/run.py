"""Benchmark entry point; run it from the repository root:

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it measures set-up time in fresh interpreters, then runs
untraced passes of the workload, each in a fresh worker process, and prints
the end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record of the run (environment, digests, per-pass figures,
failures) goes to ``.bench_out/<workload>-seed<seed>-trace<t>.json``, and a
traced run also writes its last traced pass's spans beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calib
import specgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fresh interpreters per run for setup_s, half before and half after the
# workload so that the median spans the run; the median is reported.
SETUP_PROBES = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "spec_p50_ms": "ms",
    "spec_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    import spans

    units = {f"{layer}_ms": "ms" for layer in spans.LAYERS}
    units["trace.overhead_pct"] = "%"
    units.update(dict.fromkeys(spans.COUNTS, "count"))
    units["cli.report_bytes"] = "bytes"
    units["fail_ratio"] = "ratio"
    return units


def measure_setup(probes: int) -> list[float]:
    """Calibrated seconds from spawning a fresh interpreter to its "ready"
    line, each probe scaled by kernel samples taken just before and after
    it (see calib.py)."""
    times = []
    for _ in range(probes):
        before = calib.time_kernel()
        started = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - started
            _, err = proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
        times.append(ready * calib.scale(before, calib.time_kernel()))
    return times


def source_identity() -> dict:
    """The git commit when there is one, and a digest of src/ either way."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=specgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminated(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # worker of the pass in flight.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)
    if not (SRC / "torsionlab" / "cli.py").is_file():
        print(f"error: no torsionlab sources under {SRC}", file=sys.stderr)
        return 2
    setup = [] if args.trace else measure_setup(SETUP_PROBES // 2)
    import harness

    specs = specgen.make_specs(args.workload, args.seed)
    runner = harness.Runner(specs)
    if args.trace:
        result = harness.run_traced(runner, args.seconds)
        units = per_layer_units()
    else:
        result = harness.run_timed(runner, args.seconds)
        setup += measure_setup(SETUP_PROBES - len(setup))
        result["metrics"]["setup_s"] = statistics.median(setup)
        units = END_TO_END_UNITS
    passes = result["passes"]
    attempted = len(specs) * len(passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        result["metrics"]["fail_ratio"] = failed / attempted
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **source_identity(),
        "spec_count": len(specs),
        "spec_sha256": specgen.spec_digest(specs),
        "report_sha256": passes[0].digest,
        "report_digest_stable": len({p.digest for p in passes}) == 1,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_calibrated_s": [sum(p.calibrated_ms) / 1000.0 for p in passes
                              if p.calibrated_ms is not None],
        "pass_peak_rss_mb": [p.peak_rss_mb for p in passes],
        "latency_samples": result.get("samples"),
        "samples_beyond_p99": result.get("samples_beyond_p99"),
        "setup_samples_s": setup,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": sorted({q for p in passes for q in p.problems})[:50],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        fields = ("name", "start_ns", "end_ns", "parent", "spec")
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in result["spans"]:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} specs, "
          f"{failed} failed, {result.get('samples') or attempted} latency samples, "
          f"report sha256 {passes[0].digest[:16]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
