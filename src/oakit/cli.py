"""Command-line surface.

Machine output (moa v1 text or oakit-report-v1 / certificate JSON) goes to
stdout; human-readable summaries go to stderr.  Exit codes: 0 success,
2 verification failure or negative search verdict, 3 missing seed,
4 parameter or format error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import catalog
from .arrays import distance_spectrum, is_irredundant, verify_strength
from .constructions import (
    ColumnReplacement,
    ReplacementPlan,
    certify,
    expansive_replace,
    five_column_feasibility,
    k_uniform_product,
    three_uniform_3m2n,
    three_uniform_dm2n,
    two_uniform_3m2n,
    two_uniform_dm2n,
    two_uniform_from_scheme,
    two_uniform_prime_power,
)
from .errors import MissingSeedError, OakitError, ParameterError, VerificationError
from .formats import (
    dump_json,
    parse_any,
    parse_array,
    serialize_array,
    uniformity_report,
    verification_report,
)
from .quantum import emit_state, render_ket, verify_k_uniform
from .search import SearchSpec, search_moa

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_MISSING_SEED = 3
EXIT_PARAMETER = 4


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{what} must be an integer, got {text!r}") from None


def _ints(text: str, what: str) -> tuple[int, ...]:
    return tuple(_int(x, what) for x in text.split(","))


def _read_array(path: str):
    return parse_array(Path(path).read_text(encoding="utf-8"))


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_verify(args) -> int:
    array = _read_array(args.file)
    strength = verify_strength(array, args.strength)
    spectrum = distance_spectrum(array)
    k_ir = args.irredundant if args.irredundant is not None else args.strength
    irred = None
    if 1 <= k_ir < array.ncols:
        irred = is_irredundant(array, k_ir)
    sys.stdout.write(dump_json(verification_report(strength, spectrum, irred)))
    ok = strength.holds and (irred is None or irred.holds)
    _say(
        f"{array!r}: strength {args.strength} "
        f"{'holds' if strength.holds else 'FAILS'}, min distance "
        f"{spectrum.min_distance}"
        + ("" if irred is None else f", irredundant@{k_ir}={irred.holds}")
    )
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_distance(args) -> int:
    array = _read_array(args.file)
    spectrum = distance_spectrum(array)
    sys.stdout.write(
        dump_json(
            {
                "schema": "oakit-report-v1",
                "distance": {
                    "min": spectrum.min_distance,
                    "spectrum": list(spectrum.distances),
                    "counts": {str(d): c for d, c in spectrum.counts.items()},
                },
            }
        )
    )
    _say(f"{array!r}: min distance {spectrum.min_distance}")
    return EXIT_OK


_PIPELINES = {
    "thm1": (two_uniform_3m2n, ("m", "n")),
    "thm2": (two_uniform_dm2n, ("d", "m", "n")),
    "thm3": (three_uniform_3m2n, ("m", "n")),
    "thm4": (three_uniform_dm2n, ("d", "m", "n")),
    "cor2": (two_uniform_prime_power, ("d", "n")),
}


def _cmd_construct(args) -> int:
    params = {}
    for item in args.params or []:
        key, _, value = item.partition("=")
        if not _:
            raise ParameterError(f"--params entries look like key=value, got {item!r}")
        params[key] = value
    if args.pipeline in _PIPELINES:
        fn, keys = _PIPELINES[args.pipeline]
        missing = [k for k in keys if k not in params]
        if missing:
            raise ParameterError(f"pipeline {args.pipeline} needs params {missing}")
        array, cert = fn(**{k: _int(params[k], k) for k in keys})
    elif args.pipeline == "thm7":
        if "k" not in params or "factors" not in params:
            raise ParameterError("pipeline thm7 needs k=... factors=a,b[,c]")
        factors = list(_ints(params["factors"], "factors"))
        plan = None
        if "split" in params:
            column, _, levels = params["split"].partition(":")
            plan = [(_int(column, "split column"), _ints(levels, "split levels"))]
        array, cert = k_uniform_product(_int(params["k"], "k"), factors, plan)
    elif args.pipeline == "thm8":
        for key in ("N", "M", "d"):
            if key not in params:
                raise ParameterError("pipeline thm8 needs N=... M=... d=...")
        replacement = _read_array(params["replace_with"]) if "replace_with" in params else None
        keep = _int(params["scheme_keep"], "scheme_keep") if "scheme_keep" in params else None
        array, cert = two_uniform_from_scheme(
            _int(params["N"], "N"), _int(params["M"], "M"), _int(params["d"], "d"),
            replacement=replacement, scheme_keep=keep,
        )
    else:
        raise ParameterError(
            f"unknown pipeline {args.pipeline!r}; choose from "
            f"{sorted(_PIPELINES) + ['thm7', 'thm8']}"
        )
    if not cert.verified and not args.unverified:
        raise VerificationError("refusing to emit an unverified array")
    _write_or_print(serialize_array(array, strength=cert.strength), args.output)
    if args.output:
        Path(args.output + ".cert.json").write_text(
            dump_json(cert.to_json()), encoding="utf-8"
        )
    _say(f"built {array!r}, min distance {cert.measured_md}")
    return EXIT_OK


def _cmd_replace(args) -> int:
    array = _read_array(args.file)
    replacement = _read_array(args.with_file)
    plan = ReplacementPlan((ColumnReplacement(args.column, replacement),))
    out, cert = expansive_replace(array, plan, args.strength)
    cert = certify(out, cert)
    _write_or_print(serialize_array(out, strength=cert.strength), args.output)
    if args.output:
        Path(args.output + ".cert.json").write_text(
            dump_json(cert.to_json()), encoding="utf-8"
        )
    _say(f"replaced column {args.column}: {out!r}")
    return EXIT_OK


def _cmd_state(args) -> int:
    array = _read_array(args.file)
    state = emit_state(array)
    if args.format == "ket":
        sys.stdout.write(render_ket(state) + "\n")
    else:
        sys.stdout.write(
            dump_json(
                {
                    "schema": "oakit-report-v1",
                    "levels": list(state.levels),
                    "amplitude": state.amplitude(),
                    "kets": [list(k) for k in state.kets],
                }
            )
        )
    _say(f"{state.terms} kets over {array.profile()}")
    return EXIT_OK


def _cmd_uniformity(args) -> int:
    array = _read_array(args.file)
    report = verify_k_uniform(array, args.k)
    sys.stdout.write(dump_json(uniformity_report(report, distance_spectrum(array))))
    _say(
        f"{array!r}: {args.k}-uniform = {report.holds} "
        f"({report.subsets_checked}/{report.subsets_total} subsets checked)"
    )
    return EXIT_OK if report.holds else EXIT_VERIFICATION


def _cmd_search(args) -> int:
    levels = _ints(args.levels, "--levels")
    spec = SearchSpec(
        args.runs, levels, args.strength,
        min_distance=args.min_distance, node_budget=args.budget,
    )
    result = search_moa(spec)
    if result.found:
        assert result.array is not None
        _write_or_print(serialize_array(result.array, strength=args.strength), args.output)
        _say(f"found {result.array!r} after {result.nodes} nodes")
        return EXIT_OK
    sys.stdout.write(
        dump_json(
            {
                "schema": "oakit-report-v1",
                "search": {
                    "status": result.status,
                    "nodes": result.nodes,
                    "reason": result.reason,
                },
            }
        )
    )
    _say(f"search ended: {result.status}")
    return EXIT_VERIFICATION


def _cmd_feasible(args) -> int:
    levels = _ints(args.levels, "--levels")
    verdict = five_column_feasibility(levels)
    sys.stdout.write(
        dump_json(
            {
                "schema": "oakit-report-v1",
                "feasibility": {"levels": list(levels), "verdict": verdict.status,
                                "reason": verdict.reason},
            }
        )
    )
    _say(f"{levels}: {verdict.status}")
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.action == "list":
        entries = [
            {
                "id": e.id,
                "description": e.description,
                "runs": e.runs or None,
                "profile": e.profile,
                "strength": e.strength,
                "buildable": e.builder is not None,
                "needs_seed": e.needs_seed,
            }
            for e in catalog.catalog_list()
        ]
        sys.stdout.write(dump_json({"schema": "oakit-report-v1", "entries": entries}))
        _say(f"{len(entries)} catalog entries")
        return EXIT_OK
    if not args.id:
        raise ParameterError("catalog build needs an entry id")
    seed = None
    if args.seed:
        seed = parse_any(Path(args.seed).read_text(encoding="utf-8"))
    array, cert = catalog.catalog_build(args.id, seed=seed)
    _write_or_print(serialize_array(array, strength=cert.strength), args.output)
    if args.output:
        Path(args.output + ".cert.json").write_text(
            dump_json(cert.to_json()), encoding="utf-8"
        )
    _say(f"{args.id}: built {array!r}, min distance {cert.measured_md}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oakit",
        description="exact constructions and verification for mixed orthogonal arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="strength / distance / irredundancy report")
    p.add_argument("file")
    p.add_argument("--strength", type=int, required=True)
    p.add_argument("--irredundant", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("distance", help="Hamming distance spectrum")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("construct", help="run a family pipeline")
    p.add_argument("pipeline")
    p.add_argument("--params", nargs="*", metavar="key=value")
    p.add_argument("-o", "--output")
    p.add_argument("--unverified", action="store_true")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("replace", help="expansive replacement of one column")
    p.add_argument("file")
    p.add_argument("--column", type=int, required=True)
    p.add_argument("--with", dest="with_file", required=True)
    p.add_argument("--strength", type=int, default=2)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_replace)

    p = sub.add_parser("state", help="emit the induced superposition")
    p.add_argument("file")
    p.add_argument("--format", choices=("ket", "json"), default="ket")
    p.set_defaults(fn=_cmd_state)

    p = sub.add_parser("uniformity", help="exact k-uniformity check")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_uniformity)

    p = sub.add_parser("search", help="backtracking search for a small array")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--levels", required=True, help="comma-separated levels")
    p.add_argument("--strength", type=int, required=True)
    p.add_argument("--min-distance", type=int, default=None)
    p.add_argument("--budget", type=int, default=None, help="node budget")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("feasible", help="five-column feasibility verdict")
    p.add_argument("--levels", required=True, help="five comma-separated levels")
    p.set_defaults(fn=_cmd_feasible)

    p = sub.add_parser("catalog", help="list or build registry entries")
    p.add_argument("action", choices=("list", "build"))
    p.add_argument("id", nargs="?")
    p.add_argument("--seed", help="moa v1 file satisfying an import-required seed")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MissingSeedError as exc:
        _say(f"missing seed: {exc}")
        return EXIT_MISSING_SEED
    except VerificationError as exc:
        _say(f"verification failure: {exc}")
        return EXIT_VERIFICATION
    except OakitError as exc:
        _say(f"error: {exc}")
        return EXIT_PARAMETER
    except FileNotFoundError as exc:
        _say(f"error: {exc}")
        return EXIT_PARAMETER


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
