"""Rewrite bench/record.json from the current sources.

    python3 bench/record.py [--seeds 1-3]

Run it only at a commit whose outputs have been checked: the record is
what every later run is compared with.  Catalog entries are recorded by
the sha256 of the moa v1 and certificate files that ``oakit catalog build``
writes, with the registry seeds their certificates name.  A task that is
not ``seeded`` must give the same outcome for every seed, or recording
stops.  A task that raises must be listed in ``KNOWN_DEFECTS``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run

KNOWN_DEFECTS = {
    # GF(3^6): the irreducibility test accepts a reducible modulus
    "family": {"field/729": "IndexError"},
}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _runner(workload: str, seed: int, smoke: bool, empty: Path) -> run.Runner:
    args = argparse.Namespace(workload=workload, seed=seed, smoke=smoke, record=empty, seconds=0)
    return run.Runner(args)


def record_catalog(empty: Path) -> dict:
    sys.path.insert(0, str(run.ROOT / "src"))
    from oakit import catalog
    from oakit.errors import ParameterError

    runner = _runner("catalog-cold", 0, False, empty)
    try:
        out = {}
        for entry in sorted(run.catalog_ids(runner)):
            path = runner.work / "entry.moa"
            code, _, _ = runner.cli("catalog", "build", entry, "-o", str(path))
            if code != 0:
                raise SystemExit(f"{entry}: exit code {code}\n{runner.last_log}")
            cert_path = Path(str(path) + ".cert.json")
            names = {e.name for e in catalog.seed_entries()}
            seeds = {}
            for name in json.loads(cert_path.read_text(encoding="utf-8"))["seeds"]:
                if name in names:
                    try:
                        catalog.seed_array(name)
                        seeds[name] = "array"
                    except ParameterError:
                        seeds[name] = "scheme"
            out[entry] = {"moa": run._sha_file(path), "cert": run._sha_file(cert_path), "seeds": seeds}
            print(f"catalog-cold {entry}", flush=True)
        return {"*": out}
    finally:
        runner.close()


def record_workload(workload: str, seeds: list[int], empty: Path) -> dict:
    common: dict = {}
    per_seed: dict = {}
    known = KNOWN_DEFECTS.get(workload, {})
    for smoke in (False, True):
        for seed in seeds:
            runner = _runner(workload, seed, smoke, empty)
            try:
                result = runner.worker_pass(emit_outcomes=True)
            finally:
                runner.close()
            for failure in result["failures"]:
                task = failure.split(":", 1)[0]
                if f"raised {known.get(task)}:" not in failure:
                    raise SystemExit(f"{workload} seed {seed}: {failure}")
            for task, item in result["outcomes"].items():
                if item["seeded"]:
                    per_seed.setdefault(str(seed), {})[task] = item["outcome"]
                elif common.setdefault(task, item["outcome"]) != item["outcome"]:
                    raise SystemExit(f"{workload}: {task} differs between seeds")
            print(f"{workload} seed {seed}{' smoke' if smoke else ''}", flush=True)
    return {"*": common, "seeds": per_seed, "known_defects": known}


def main() -> None:
    parser = argparse.ArgumentParser(prog="bench/record.py")
    parser.add_argument("--seeds", default="1-3", help="seeds to record, as N or N-M")
    args = parser.parse_args()
    empty = run.WORK / "empty-record.json"
    empty.parent.mkdir(parents=True, exist_ok=True)
    empty.write_text("{}", encoding="utf-8")
    data = {
        "catalog-cold": record_catalog(empty),
        "family": record_workload("family", _seeds(args.seeds), empty),
        "reject": record_workload("reject", _seeds(args.seeds), empty),
    }
    run.RECORD.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    empty.unlink()


if __name__ == "__main__":
    main()
