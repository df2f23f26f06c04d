"""oakit benchmark: one workload per run, each pass in a fresh interpreter.

    python3 bench/run.py --workload {catalog-cold,family,reject} --seed N
                         --seconds S --trace {0,1} [--smoke] [--record FILE]

Run from the root of a source checkout; children import oakit from
``src/``.  Load is one closed-loop client: the next task starts only when
the previous one has ended, and child processes run one at a time.  A run
makes as many whole passes as ``--seconds`` holds, judged by the first.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (launch of a fresh
interpreter until its first task can start, median over the run's set-ups),
``wall_s`` (one pass over the task list, median over passes),
``task_p50_s``, ``task_tail_s`` (the highest percentile with at least ten
tasks beyond it), ``peak_rss_mib`` (largest child) and ``fail_frac``.  ``--trace 1`` runs
one untraced and one traced pass with the same seed and prints per-layer
self times and work counts; the spans go to ``.bench_work/``.

Every output is checked against ``bench/record.json`` and, where possible,
recounted with plain numpy.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts unexpected failures; a task that raises the exception
its record names as a known defect is reported on its own line and in
``fail_frac`` instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
RECORD = BENCH / "record.json"
WORKLOADS = ("catalog-cold", "family", "reject")
HARD_LIMIT_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 15
SETUP_SHARE = 0.25
CLI_PROBES = 3
SMOKE_CATALOG = ("ame/6^1x3^1x2^1", "thm8/4^1x2^4", "cor2/4^1x2^9")
# Printed with the other end-to-end figures but left out of the result line:
# on a 2-vCPU VM their spread over ten seeds (0.15 to 0.33 of the median)
# was above the largest bound a metric may have (0.25).
PRINTED_ONLY = ("task_p50_s", "task_tail_s")

LAYER_SPANS = {
    "catalog.seed_s": "catalog.seed",
    "catalog.build_s": "catalog.build",
    "search.search_s": "search.search",
    "algebra.field_s": "algebra.field",
    "algebra.scheme_s": "algebra.scheme",
    "constructions.build_s": "constructions.build",
    "arrays.strength_s": "arrays.strength",
    "arrays.distance_s": "arrays.distance",
    "quantum.uniformity_s": "quantum.uniformity",
    "formats.serialize_s": "formats.serialize",
    "formats.parse_s": "formats.parse",
}
COUNTS = (
    "search.nodes",
    "algebra.fields",
    "constructions.cells",
    "arrays.strength_subsets",
    "arrays.row_pairs",
    "quantum.subsets_checked",
    "formats.bytes",
)
RATES = {
    "search.nodes_per_s": ("search.nodes", "search.search_s"),
    "arrays.strength_subsets_per_s": ("arrays.strength_subsets", "arrays.strength_s"),
    "arrays.row_pairs_per_s": ("arrays.row_pairs", "arrays.distance_s"),
    "quantum.subsets_per_s": ("quantum.subsets_checked", "quantum.uniformity_s"),
}
UNITS = {"peak_rss_mib": "MiB", "formats.bytes": "B"}
UNITS.update({name: "count" for name in COUNTS if name not in UNITS})
UNITS.update({name: "1/s" for name in RATES})

sys.path.insert(0, str(BENCH))
from check import Record  # noqa: E402
from spans import Tracer, nesting_errors, self_times  # noqa: E402


class BenchError(Exception):
    pass


def _unit(name: str) -> str:
    return UNITS.get(name, "s")


def _sha_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten values beyond it (the maximum if n <= 10)."""
    xs = sorted(values)
    i = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def environment() -> dict:
    cpuinfo: dict = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                cpuinfo.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = out.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpuinfo.get("model name", platform.machine()),
        "last_level_cache": cpuinfo.get("cache size"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def _children_peak_rss() -> float:
    """Peak RSS in MiB of the largest child reaped so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class Runner:
    """Starts and reaps the children of one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            NUMEXPR_NUM_THREADS="1",
            VECLIB_MAXIMUM_THREADS="1",
        )
        self.work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._n = 0
        self.last_log = ""

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, argv: list[str], launch_arg: bool = False) -> tuple[int, float, float]:
        """Run one child to completion: exit code, seconds, largest child's peak RSS in MiB."""
        self._n += 1
        log = self.work / f"child-{self._n}.log"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a child")
        with open(log, "wb") as fh:
            launch = time.monotonic()
            argv = argv + ["--launch", repr(launch)] if launch_arg else argv
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh, stderr=fh)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"child {argv[1:4]} did not end in time") from None
            seconds = time.monotonic() - launch
        if proc.returncode != 0:
            self.last_log = log.read_text(errors="replace")[-2000:]
        return proc.returncode, seconds, _children_peak_rss()

    def worker(self, mode: str, *extra: str, trace: bool = False):
        """A worker.py child: (result or None if it failed, seconds, peak RSS in MiB)."""
        self._n += 1
        out = self.work / f"result-{self._n}.json"
        argv = [sys.executable, str(BENCH / "worker.py"), mode, "--out", str(out), *extra]
        argv += ["--trace"] if trace else []
        code, seconds, rss = self.spawn(argv, launch_arg=True)
        result = json.loads(out.read_text(encoding="utf-8")) if code == 0 else None
        return result, seconds, rss

    def worker_pass(self, trace: bool = False, setup_only: bool = False, emit_outcomes: bool = False):
        a = self.args
        extra = ["--workload", a.workload, "--seed", str(a.seed), "--record", str(a.record)]
        extra += ["--smoke"] if a.smoke else []
        extra += ["--setup-only"] if setup_only else []
        extra += ["--emit-outcomes"] if emit_outcomes else []
        result, _, rss = self.worker("pass", *extra, trace=trace)
        if result is None:
            raise BenchError(f"a {a.workload} pass failed:\n{self.last_log}")
        result["peak_rss_mib"] = rss
        return result

    def setup_probe(self) -> float:
        """setup_s of one fresh interpreter that stops before the first task."""
        return self.worker_pass(setup_only=True)["setup_s"]

    def cli(self, *args: str) -> tuple[int, float, float]:
        return self.spawn([sys.executable, "-m", "oakit.cli", *args])


# ---------------------------------------------------------------------------
# catalog-cold: one cold `oakit catalog build ID -o FILE` process per entry


def catalog_ids(runner: Runner) -> list[str]:
    if runner.args.smoke:
        ids = list(SMOKE_CATALOG)
    else:
        proc = subprocess.run(
            [sys.executable, "-m", "oakit.cli", "catalog", "list"],
            cwd=ROOT, env=runner.env, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"catalog list failed:\n{proc.stderr[-2000:]}")
        ids = [e["id"] for e in json.loads(proc.stdout)["entries"] if e["buildable"]]
    random.Random(runner.args.seed).shuffle(ids)
    return ids


def catalog_pass(runner: Runner, ids: list[str], record: dict, traced: bool) -> dict:
    """One pass over the entries.  In a --trace 0 run a set-up probe runs
    before each entry, outside the timed region, so that the set-up samples
    are spread over the whole pass."""
    tr = Tracer(traced)
    counts: dict = {}
    tasks, outputs, setups, rss, wall = [], [], [], 0.0, 0.0
    with tr.span("bench.pass"):
        for entry in ids:
            if not runner.args.trace:
                setups.append(runner.setup_probe())
            start = time.monotonic()
            out = runner.work / (entry.replace("/", "_") + ".moa")
            tr.task = entry
            with tr.span("bench.task") as task_span:
                if traced:
                    seeds = ",".join(f"{k}:{v}" for k, v in record.get(entry, {}).get("seeds", {}).items())
                    result, seconds, child_rss = runner.worker(
                        "catalog-entry", "--id", entry, "--seeds", seeds, "--output", str(out), trace=True
                    )
                    code = 0 if result else 1
                else:
                    code, seconds, child_rss = runner.cli("catalog", "build", entry, "-o", str(out))
            if traced and result:
                tr.adopt(result["spans"], task_span)
                counts["formats.bytes"] = counts.get("formats.bytes", 0) + result["bytes"]
            tasks.append([entry, seconds])
            outputs.append((entry, out, code))
            rss = max(rss, child_rss)
            wall += time.monotonic() - start
    failures, compared = [], 0
    for entry, out, code in outputs:
        expected = record.get(entry)
        if code != 0:
            failures.append(f"{entry}: exit code {code}")
        elif expected is None:
            cert = json.loads(Path(str(out) + ".cert.json").read_text(encoding="utf-8"))
            compared += 1
            if cert.get("verified") is not True:
                failures.append(f"{entry}: no record and the certificate is not verified")
        else:
            compared += 2
            for key, path in (("moa", out), ("cert", Path(str(out) + ".cert.json"))):
                if _sha_file(path) != expected[key]:
                    failures.append(f"{entry}: {path.name} differs from the record")
        for path in (out, Path(str(out) + ".cert.json")):
            path.unlink(missing_ok=True)
    return {
        "setup_samples": setups,
        "wall_s": wall,
        "tasks": tasks,
        "failures": failures,
        "known_defects": [],
        "checks": {"recorded_fields": compared, "recounts": 0},
        "counts": counts,
        "spans": tr.spans,
        "peak_rss_mib": rss,
    }


# ---------------------------------------------------------------------------
# measuring


def measured_passes(runner: Runner, one_pass) -> tuple[list[dict], list[float]]:
    """As many whole passes as --seconds holds, judged by the first (at least
    one), and the run's set-up samples.

    Each pass brings its own set-up samples.  Set-up probes top them up to
    SETUP_SAMPLES, within SETUP_SHARE of --seconds, spread over the gaps
    between passes so that they see the same machine as the passes.
    """
    passes: list[dict] = []
    setups: list[float] = []
    while True:
        t0 = time.monotonic()
        passes.append(one_pass())
        elapsed = time.monotonic() - t0
        last = passes[-1]
        setups += last["setup_samples"] if "setup_samples" in last else [last["setup_s"]]
        if len(passes) == 1:
            wanted = max(1, round(runner.args.seconds / elapsed))
            probe_s = statistics.median(setups)
            probes = min(
                SETUP_SAMPLES - wanted * len(setups),
                int(SETUP_SHARE * runner.args.seconds / probe_s),
            )
            per_gap = max(0, -(-probes // wanted))
        for _ in range(min(per_gap, probes)):
            if time.monotonic() + probe_s > runner.deadline - 5:
                break
            setups.append(runner.setup_probe())
            probes -= 1
        if len(passes) >= wanted or time.monotonic() + elapsed > runner.deadline - 5:
            return passes, setups


def end_to_end(runner: Runner, one_pass) -> tuple[dict, list[dict], list[str]]:
    """Per-pass figures, each reported as its median over the run's passes."""
    passes, setups = measured_passes(runner, one_pass)
    per_pass = [[seconds for _, seconds in p["tasks"]] for p in passes]
    n = len(per_pass[0])
    _, pct, beyond = _tail(per_pass[0])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "task_p50_s": statistics.median(statistics.median(t) for t in per_pass),
        "task_tail_s": statistics.median(_tail(t)[0] for t in per_pass),
        "peak_rss_mib": max(p["peak_rss_mib"] for p in passes),
    }
    notes = [
        f"setup_s: median of {len(setups)} set-ups",
        f"wall_s, task_p50_s, task_tail_s: median over {len(passes)} passes of {n} tasks each",
        f"task_tail_s: p{pct:.1f} of a pass, {beyond} tasks beyond it",
        "peak_rss_mib: largest child process",
    ]
    return metrics, passes, notes


def per_layer(runner: Runner, one_pass, traced_pass) -> tuple[dict, list[dict], list[str]]:
    plain = one_pass()
    traced = traced_pass()
    spans = traced["spans"]
    errors = nesting_errors(spans)
    if errors:
        raise BenchError("spans do not nest:\n" + "\n".join(errors[:10]))
    own = self_times(spans)
    wall = spans[0][2] - spans[0][1]
    if abs(sum(own.values()) - wall) > 1e-6 * max(1.0, wall):
        raise BenchError(f"self times add up to {sum(own.values())} s, traced wall is {wall} s")
    metrics = {"cli.startup_s": statistics.median(runner.cli("catalog", "list")[1] for _ in range(CLI_PROBES))}
    metrics.update({metric: own.get(span, 0.0) for metric, span in LAYER_SPANS.items()})
    metrics.update({name: traced["counts"].get(name, 0) for name in COUNTS})
    for name, (count, seconds) in RATES.items():
        metrics[name] = metrics[count] / metrics[seconds] if metrics[seconds] > 0 else 0.0
    metrics["bench.other_s"] = own.get("bench.pass", 0.0) + own.get("bench.task", 0.0)
    metrics["bench.traced_wall_s"] = wall
    metrics["bench.trace_overhead_s"] = wall - plain["wall_s"]
    trace_file = WORK / f"trace-{runner.args.workload}-seed{runner.args.seed}.json"
    trace_file.write_text(json.dumps({"spans": spans, "counts": traced["counts"]}), encoding="utf-8")
    layer_sum = sum(v for k, v in metrics.items() if k in LAYER_SPANS or k == "bench.other_s")
    notes = [
        f"layer self times + bench.other_s = {layer_sum:.6f} s = bench.traced_wall_s",
        f"cli.startup_s: median of {CLI_PROBES} cold `oakit catalog list` processes",
        f"spans written to {trace_file.relative_to(ROOT)}",
    ]
    return metrics, [plain, traced], notes


def run(args) -> int:
    if not (ROOT / "src" / "oakit" / "__init__.py").is_file():
        print(f"error: no oakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src", "bench"],
            cwd=ROOT, env=runner.env, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        print("env " + json.dumps(environment(), sort_keys=True))
        if args.workload == "catalog-cold":
            record = Record.load(args.record, "catalog-cold", args.seed).common
            ids = catalog_ids(runner)
            one_pass = lambda: catalog_pass(runner, ids, record, traced=False)  # noqa: E731
            traced_pass = lambda: catalog_pass(runner, ids, record, traced=True)  # noqa: E731
        else:
            one_pass = runner.worker_pass
            traced_pass = lambda: runner.worker_pass(trace=True)  # noqa: E731
        if args.trace:
            metrics, passes, notes = per_layer(runner, one_pass, traced_pass)
        else:
            metrics, passes, notes = end_to_end(runner, one_pass)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    attempted = sum(len(p["tasks"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    known = [k for p in passes for k in p["known_defects"]]
    checks = {key: sum(p["checks"][key] for p in passes) for key in ("recorded_fields", "recounts")}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, {attempted} tasks")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {_unit(name)}")
    for note in notes:
        print(f"  {note}")
    print(
        f"fail_frac {(len(failures) + len(known)) / attempted:.6g} "
        f"({len(failures) + len(known)} of {attempted} tasks failed; {len(known)} known defects)"
    )
    print(f"checks: {checks['recorded_fields']} recorded fields compared, {checks['recounts']} numpy recounts")
    for line in known:
        print(f"known defect: {line}")
    for line in failures:
        print(f"FAILED: {line}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    n: {"value": v, "unit": _unit(n)} for n, v in metrics.items() if n not in PRINTED_ONLY
                },
            }
        )
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny task lists, for the self-test")
    parser.add_argument("--record", type=Path, default=RECORD)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
