"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import specgen  # noqa: E402
from torsionlab import cli  # noqa: E402


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class PlantedSource:
    """A throwaway copy of ``src/`` whose ``torsionlab.cli`` ends with
    ``code``, which may rebind the names the CLI calls."""

    def __init__(self, code: str):
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="planted-", dir=out))
        self.src = self.dir / "src"
        shutil.copytree(ROOT / "src", self.src, ignore=shutil.ignore_patterns("__pycache__"))
        with open(self.src / "torsionlab" / "cli.py", "a", encoding="utf-8") as handle:
            handle.write("\n" + textwrap.dedent(code))

    def __enter__(self) -> Path:
        return self.src

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir)


class SmokeRuns(unittest.TestCase):
    def test_each_workload_at_minimal_size(self):
        for workload in specgen.WORKLOADS:
            with self.subTest(workload=workload):
                runner = harness.Runner(specgen.make_specs(workload, 3, smoke=True))
                plain = runner.run_pass()
                self.assertEqual(plain.failed, 0, plain.problems)
                traced = runner.run_pass(trace=True)
                self.assertEqual(traced.failed, 0, traced.problems)
                self.assertEqual(traced.digest, plain.digest)

    def test_same_seed_same_specs(self):
        for workload in specgen.WORKLOADS:
            first = specgen.spec_digest(specgen.make_specs(workload, 7))
            self.assertEqual(first, specgen.spec_digest(specgen.make_specs(workload, 7)))
        self.assertNotEqual(
            specgen.spec_digest(specgen.make_specs("query-mix", 7)),
            specgen.spec_digest(specgen.make_specs("query-mix", 8)),
        )

    def test_report_digest_ignores_hash_seed(self):
        code = (
            "import sys; sys.path[:0] = ['perfbench', 'src']; import harness, specgen; "
            "print(harness.Runner(specgen.make_specs('query-mix', 5, smoke=True)).run_pass().digest)"
        )
        digests = {
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                           env={**os.environ, "PYTHONHASHSEED": seed}, check=True).stdout
            for seed in ("0", "12345")
        }
        self.assertEqual(len(digests), 1)


class OutputMatchesDeclaration(unittest.TestCase):
    def test_names_and_units(self):
        declared = _declared()
        self.assertEqual([w["name"] for w in declared["workloads"]], list(specgen.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]},
                         run.per_layer_units())

    def test_result_line(self):
        declared = _declared()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                out = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "2",
                     "--seconds", "0", "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
                ).stdout
                line = json.loads(out.strip().splitlines()[-1])
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(line["correct"])
                self.assertEqual(set(line["metrics"]), {m["name"] for m in declared[key]})


class PlantedDefects(unittest.TestCase):
    def _failed(self, specs, src=harness.SRC) -> int:
        return harness.Runner(specs, src).run_pass().failed

    def test_wrong_known_answer_fails(self):
        text, expect = specgen.ring_spec(random.Random(0), "enumerate", {"zmod": 12})
        wrong = {**expect, "facts": {**expect["facts"], "ideals": 5}}  # Z/12 has 6
        self.assertEqual(self._failed([(text, expect)]), 0)
        self.assertEqual(self._failed([(text, wrong)]), 1)

    def test_defective_program_fails(self):
        specs = specgen.make_specs("query-mix", 3, smoke=True)
        specs.append(specgen.ring_spec(random.Random(0), "enumerate", {"zmod": 12}))
        self.assertEqual(self._failed(specs), 0)
        with PlantedSource("""
            _enumerate_ideals = enumerate_ideals
            def enumerate_ideals(ring):
                return _enumerate_ideals(ring)[:-1]
        """) as src:
            self.assertGreater(self._failed(specs, src), 0)
        # the monomial goldens are in every query-mix list
        with PlantedSource("""
            from torsionlab.monomial import Decision
            def s_finite_decide(ideal, mult, budget):
                return Decision("exhausted", budget=budget)
        """) as src:
            self.assertGreater(self._failed(specs, src), 0)

    def test_unexpected_acceptance_of_invalid_spec_fails(self):
        text = json.dumps({"task": "census", "ring": {"zmod": 12}})
        self.assertEqual(self._failed([(text, {"check": "reject", "error": "SizeCapExceeded"})]), 1)


class FreshInterpreterPerPass(unittest.TestCase):
    def test_memo_does_not_survive_into_the_next_pass(self):
        """A module-level memo of whole reports helps a repeat within a pass
        and never a later pass, so a cross-call cache cannot pass for a
        speedup on a workload without repeats."""
        sweep = specgen.make_specs("sweep10", 1, smoke=True)
        with PlantedSource("""
            _memo = {}
            _execute = execute
            def execute(doc, *args, **kwargs):
                key = json.dumps(doc, sort_keys=True)
                if key not in _memo:
                    _memo[key] = _execute(doc, *args, **kwargs)
                return _memo[key]
        """) as src:
            runner = harness.Runner(sweep * 2, src)
            first, second = runner.run_pass(), runner.run_pass()
        self.assertEqual(first.failed + second.failed, 0)
        cold = first.latencies_ms[0]
        self.assertLess(first.latencies_ms[1] * 10, cold)  # the memo works within a pass
        self.assertGreater(second.latencies_ms[0] * 2, cold)  # and is gone in the next


class Calibration(unittest.TestCase):
    def test_kernel_answer(self):
        self.assertEqual(calib.kernel(), calib.KERNEL_ANSWER)

    def test_stretches_scale_by_the_samples_at_their_ends(self):
        nominal = calib.NOMINAL_S
        samples = [(0.0, nominal), (1.0, 1.0 + nominal), (3.0, 3.0 + 2 * nominal)]
        (raw, scaled), = calib.calibrated(samples, [(0.5, 2.0 + nominal)])
        # 0.5 s at nominal speed, then 1 s at 1.5x the kernel's nominal time
        self.assertAlmostEqual(raw, 1.5)
        self.assertAlmostEqual(scaled, 0.5 + 1.0 / 1.5)

    def test_more_work_reads_slower(self):
        """A program doing each spec twice reads about twice as slow."""
        specs = specgen.make_specs("sweep10", 1, smoke=True) * 4

        def calibrated_s(src) -> float:
            runner = harness.Runner(specs, src)
            return sum(harness.median_calibrated(
                [runner.run_pass(calibrate=True) for _ in range(3)]))

        once = calibrated_s(harness.SRC)
        with PlantedSource("""
            _execute = execute
            def execute(doc, *args, **kwargs):
                _execute(doc, *args, **kwargs)
                return _execute(doc, *args, **kwargs)
        """) as src:
            twice = calibrated_s(src)
        self.assertGreater(twice / once, 1.5)
        self.assertLess(twice / once, 2.7)


class Tracing(unittest.TestCase):
    def test_spans_nest_and_self_times_fit(self):
        specs = (specgen.make_specs("sweep10", 1, smoke=True)
                 + specgen.make_specs("query-mix", 1, smoke=True))
        traced = harness.Runner(specs).run_pass(trace=True)
        found = traced.spans
        own = spans.self_times(found)
        subtree = [0] * len(found)
        for i in reversed(range(len(found))):
            name, start, end, parent, spec = found[i]
            self.assertLessEqual(start, end)
            self.assertGreaterEqual(own[i], 0)
            subtree[i] += own[i]
            if parent >= 0:
                _, p_start, p_end, _, p_spec = found[parent]
                self.assertTrue(p_start <= start and end <= p_end, name)
                self.assertEqual(spec, p_spec)
                subtree[parent] += subtree[i]
        for i, (_, start, end, parent, _) in enumerate(found):
            if parent < 0:
                self.assertLessEqual(subtree[i], end - start)
        totals = spans.layer_totals(found)
        for layer in ("modules.lattice", "modules.order", "modules.arith", "noether.suite",
                      "cli.validate", "cli.render"):
            self.assertGreater(totals[layer], 0.0, layer)

    def test_bindings_restored(self):
        before = cli.build_ring
        with spans.installed(spans.Tracer()):
            self.assertIsNot(cli.build_ring, before)
        self.assertIs(cli.build_ring, before)


if __name__ == "__main__":
    unittest.main()
