"""The benchmark's own tests, on the smoke task lists (about a minute).

    python3 bench/selftest.py

They check that every metric named in BENCHMARK.json is printed, that the
spans nest and their self times add up to the traced wall time, that the
output checks run and catch a changed output, and that the benchmark fails
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from itertools import combinations
from pathlib import Path

import numpy as np

import run
from check import combination_rank, min_distance, strength_fails, uniformity_fails
from spans import Tracer, nesting_errors, self_times

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, *extra: str, cwd: Path = run.ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc) -> tuple[dict, list[str]]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> list[str]:
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out, lines = result(proc)
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"], "\n".join(lines))
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(out["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
        printed = {line.split()[0] for line in lines}
        self.assertIn("fail_frac", printed)
        if not trace:
            self.assertLessEqual(set(run.PRINTED_ONLY), printed)
        checks = next(line for line in lines if line.startswith("checks:")).split()
        self.assertGreater(int(checks[1]), 0, "no recorded field was compared")
        if workload != "catalog-cold":
            self.assertGreater(int(checks[5]), 0, "no numpy recount ran")
        return lines

    def test_end_to_end_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_traced_spans_nest_and_add_up(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1)
                trace = json.loads(
                    (run.WORK / f"trace-{workload}-seed7.json").read_text(encoding="utf-8")
                )
                spans = trace["spans"]
                self.assertEqual(nesting_errors(spans), [])
                own = self_times(spans)
                self.assertTrue(all(v >= -1e-9 for v in own.values()), own)
                root = spans[0]
                self.assertIsNone(root[3])
                self.assertAlmostEqual(sum(own.values()), root[2] - root[1], places=6)
                self.assertTrue(all(s[3] is not None for s in spans[1:]), "one root span")
                self.assertTrue(all(s[4] for s in spans[1:]), "every span has a task id")

    def test_changed_output_is_caught(self):
        record = json.loads(run.RECORD.read_text(encoding="utf-8"))
        changed = {
            "catalog-cold": ("thm8/4^1x2^4", "moa"),
            "family": ("roundtrip/bush_oa(5,2)", "moa"),
            "reject": ("search/nonexistence(4,2222,2,2,100000)", "nodes"),
        }
        for workload, (task, key) in changed.items():
            record[workload]["*"][task][key] = 0
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            path = Path(tmp) / "record.json"
            path.write_text(json.dumps(record), encoding="utf-8")
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload):
                    proc = bench(workload, 0, "--record", str(path))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    out, lines = result(proc)
                    self.assertFalse(out["correct"])
                    failed = [line for line in lines if line.startswith("FAILED: ")]
                    self.assertEqual(len(failed), out["failed"])
                    self.assertGreaterEqual(out["failed"], 1)
                    # one failure per pass, all of them the changed output
                    for line in failed:
                        self.assertTrue(line.startswith(f"FAILED: {changed[workload][0]}: "), line)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("family", 0, cwd=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


class Pieces(unittest.TestCase):
    def test_combination_rank(self):
        for n, k in ((6, 3), (7, 2), (5, 5)):
            for rank, subset in enumerate(combinations(range(n), k)):
                self.assertEqual(combination_rank(subset, n), rank)

    def test_recounts(self):
        # OA(9, 4, 3, 2): two-coordinate linear code over Z_3, minimal distance 3
        cells = np.array([[a, b, (a + b) % 3, (a + 2 * b) % 3] for a in range(3) for b in range(3)])
        levels = (3, 3, 3, 3)
        self.assertFalse(strength_fails(cells, levels, (0, 1)))
        self.assertFalse(uniformity_fails(cells, levels, (1, 3)))
        self.assertEqual(min_distance(cells), 3)
        bad = cells.copy()
        bad[4, 2] = (bad[4, 2] + 1) % 3
        self.assertTrue(strength_fails(bad, levels, (0, 2)))
        self.assertFalse(strength_fails(bad, levels, (0, 1)))
        self.assertTrue(uniformity_fails(bad, levels, (1, 2)))
        self.assertEqual(min_distance(bad), 2)

    def test_self_times(self):
        tr = Tracer(True)
        with tr.span("a"):
            with tr.span("b"):
                pass
            with tr.span("c"):
                with tr.span("b"):
                    pass
        own = self_times(tr.spans)
        root = tr.spans[0]
        self.assertEqual(nesting_errors(tr.spans), [])
        self.assertAlmostEqual(sum(own.values()), root[2] - root[1], places=9)
        self.assertIs(Tracer(False).span("x").__enter__(), None)


if __name__ == "__main__":
    run.WORK.mkdir(parents=True, exist_ok=True)
    unittest.main()
