"""One fresh interpreter of the benchmark: a pass, a set-up probe or a traced build.

    worker.py pass --workload W --seed S --launch T --out FILE
                   [--trace] [--smoke] [--setup-only] [--record FILE]
    worker.py catalog-entry --id ID --seeds NAME:KIND,... --output FILE
                   --launch T --out FILE [--trace]

``--launch`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` runs from launch to the first task.  The
result is written as JSON to ``--out``.  ``catalog-entry`` mirrors
``oakit catalog build ID -o FILE`` with spans around the seed, build and
serialization calls.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from check import RECORD_PATH, Record
from spans import Tracer


def run_pass(args) -> dict:
    import oakit  # noqa: F401  (the cold import is part of set-up)

    if args.workload == "catalog-cold":
        return {"setup_s": time.monotonic() - args.launch}
    from tasks import WORKLOADS

    tasks = WORKLOADS[args.workload](args.seed, args.smoke)
    setup = time.monotonic() - args.launch
    if args.setup_only:
        return {"setup_s": setup}

    tr = Tracer(args.trace)
    done = []
    with tr.span("bench.pass"):
        start = time.monotonic()
        for task in tasks:
            tr.task = task.name
            with tr.span("bench.task"):
                t0 = time.monotonic()
                try:
                    value, error = task.run(tr), None
                except Exception as exc:  # a failed task is counted, the pass goes on
                    value, error = None, exc
                done.append((task, value, error, time.monotonic() - t0))
        wall = time.monotonic() - start
    tr.task = None

    record = Record.load(args.record, args.workload, args.seed)
    counts: dict = {}
    failures, known, compared, recounts = [], [], 0, 0
    for task, value, error, _ in done:
        if error is not None:
            message = f"{task.name}: raised {type(error).__name__}: {error}"
            if record.known_defects.get(task.name) == type(error).__name__:
                known.append(message)
            else:
                failures.append(message)
            continue
        try:
            outcome = task.outcome(value, counts)
            problems = record.mismatches(task.name, outcome)
            problems += [
                f"{task.name}: {key} is {outcome.get(key)!r}, must be {want!r}"
                for key, want in task.expect.items()
                if outcome.get(key) != want
            ]
            compared += len(record.expected(task.name)) + len(task.expect)
            if task.recount is not None:
                recounts += 1
                problems += filter(None, [task.recount(value)])
        except Exception as exc:  # a broken output must not stop the other checks
            problems = [f"{task.name}: check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append("; ".join(problems))
    return {
        "setup_s": setup,
        "wall_s": wall,
        "tasks": [[task.name, seconds] for task, _, _, seconds in done],
        "outcomes": {
            task.name: {"seeded": task.seeded, "outcome": task.outcome(value, {})}
            for task, value, error, _ in done
            if error is None and args.emit_outcomes
        },
        "failures": failures,
        "known_defects": known,
        "checks": {"recorded_fields": compared, "recounts": recounts},
        "counts": counts,
        "spans": tr.spans,
    }


def catalog_entry(args) -> dict:
    import oakit
    from oakit import catalog
    from oakit.formats import dump_json

    tr = Tracer(args.trace)
    tr.task = args.id
    for item in filter(None, args.seeds.split(",")):
        name, _, kind = item.partition(":")
        with tr.span("catalog.seed"):
            (catalog.seed_scheme if kind == "scheme" else catalog.seed_array)(name)
    with tr.span("catalog.build"):
        array, cert = catalog.catalog_build(args.id)
    with tr.span("formats.serialize"):
        text = oakit.serialize_array(array, strength=cert.strength)
        cert_text = dump_json(cert.to_json())
    Path(args.output).write_text(text, encoding="utf-8")
    Path(args.output + ".cert.json").write_text(cert_text, encoding="utf-8")
    return {"spans": tr.spans, "bytes": len(text.encode()) + len(cert_text.encode())}


def main() -> None:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("pass", "catalog-entry"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--emit-outcomes", action="store_true")
    parser.add_argument("--record", default=str(RECORD_PATH))
    parser.add_argument("--id")
    parser.add_argument("--seeds", default="")
    parser.add_argument("--output")
    args = parser.parse_args()
    result = catalog_entry(args) if args.mode == "catalog-entry" else run_pass(args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
