"""Command-line surface.

Machine output (moa v1 text or oakit-report-v1 / certificate JSON) goes to
stdout; human-readable summaries go to stderr.  Exit codes: 0 success,
2 verification failure or negative search verdict, 3 missing seed,
4 parameter or format error, including argparse usage errors and files
that cannot be read or written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import catalog
from .arrays import _strength_and_spectrum, distance_spectrum
from .constructions import (
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
from .errors import FormatError, MissingSeedError, OakitError, ParameterError, VerificationError
from .formats import (
    distance_section,
    dump_json,
    parse_any,
    parse_array,
    report,
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


def _read_text(path: str) -> str:
    """The file's bytes as UTF-8, with no newline translation: moa v1 is LF-only."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_array(path: str):
    return parse_array(_read_text(path))


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit(array, cert, out: str | None) -> None:
    """moa v1 to stdout or ``out``; with ``out``, the certificate goes to ``out.cert.json``."""
    if not cert.verified:
        raise VerificationError("refusing to emit an unverified array")
    _write_or_print(serialize_array(array, strength=cert.strength), out)
    if out:
        Path(out + ".cert.json").write_text(dump_json(cert.to_json()), encoding="utf-8")


def _cmd_verify(args) -> int:
    """Strength, spectrum and irredundancy of a moa v1 file, from one split pass."""
    array = _read_array(args.file)
    strength, spectrum = _strength_and_spectrum(array, args.strength)
    # the default, --strength, is skipped out of range; an explicit value is not
    k_ir = args.irredundant if args.irredundant is not None else args.strength
    irred = None
    if 1 <= k_ir < array.ncols:
        irred = spectrum.irredundancy(k_ir)
    elif args.irredundant is not None:
        raise ParameterError(f"--irredundant must be in 1..{array.ncols - 1}, got {k_ir}")
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
    counts = {str(d): c for d, c in spectrum.counts.items()}
    sys.stdout.write(dump_json(report(distance={**distance_section(spectrum), "counts": counts})))
    _say(f"{array!r}: min distance {spectrum.min_distance}")
    return EXIT_OK


def _split(text: str, what: str):
    column, _, levels = text.partition(":")
    return [(_int(column, f"{what} column"), _ints(levels, f"{what} levels"))]


def _int_keys(*keys: str) -> dict:
    return {key: (key, _int) for key in keys}


# pipeline -> (builder, {param key: (builder keyword, parser)}, required keys);
# a parser takes the value text and the key
_PIPELINES = {
    "thm1": (two_uniform_3m2n, _int_keys("m", "n"), ("m", "n")),
    "thm2": (two_uniform_dm2n, _int_keys("d", "m", "n"), ("d", "m", "n")),
    "thm3": (three_uniform_3m2n, _int_keys("m", "n"), ("m", "n")),
    "thm4": (three_uniform_dm2n, _int_keys("d", "m", "n"), ("d", "m", "n")),
    "cor2": (two_uniform_prime_power, _int_keys("d", "n"), ("d", "n")),
    "thm7": (
        k_uniform_product,
        {**_int_keys("k"), "factors": ("factors", _ints), "split": ("plan", _split)},
        ("k", "factors"),
    ),
    "thm8": (
        two_uniform_from_scheme,
        {
            "N": ("index_levels", _int),
            "M": ("scheme_columns", _int),
            "d": ("d", _int),
            "replace_with": ("replacement", lambda path, _: _read_array(path)),
            "scheme_keep": ("scheme_keep", _int),
        },
        ("N", "M", "d"),
    ),
}


def _cmd_construct(args) -> int:
    if args.pipeline not in _PIPELINES:
        raise ParameterError(
            f"unknown pipeline {args.pipeline!r}; choose from {sorted(_PIPELINES)}"
        )
    builder, keys, required = _PIPELINES[args.pipeline]
    params = {}
    for item in args.params or []:
        key, _, value = item.partition("=")
        if not _:
            raise ParameterError(f"--params entries look like key=value, got {item!r}")
        if key not in keys:
            raise ParameterError(
                f"pipeline {args.pipeline} takes no param {key!r}; it takes {list(keys)}"
            )
        if key in params:
            raise ParameterError(f"param {key!r} given twice")
        params[key] = value
    missing = [k for k in required if k not in params]
    if missing:
        raise ParameterError(f"pipeline {args.pipeline} needs params {missing}")
    array, cert = builder(**{keys[k][0]: keys[k][1](v, k) for k, v in params.items()})
    _emit(array, cert, args.output)
    _say(f"built {array!r}, min distance {cert.measured_md}")
    return EXIT_OK


def _cmd_replace(args) -> int:
    array = _read_array(args.file)
    replacement = _read_array(args.with_file)
    out, cert = expansive_replace(array, {args.column: replacement}, args.strength)
    _emit(out, certify(out, cert), args.output)
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
                report(
                    levels=list(state.levels),
                    amplitude=state.amplitude(),
                    kets=[list(k) for k in state.kets],
                )
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
    search = {"status": result.status, "nodes": result.nodes, "reason": result.reason}
    sys.stdout.write(dump_json(report(search=search)))
    _say(f"search ended: {result.status}")
    return EXIT_VERIFICATION


def _cmd_feasible(args) -> int:
    levels = _ints(args.levels, "--levels")
    verdict = five_column_feasibility(levels)
    feasibility = {"levels": list(levels), "verdict": verdict.status, "reason": verdict.reason}
    sys.stdout.write(dump_json(report(feasibility=feasibility)))
    _say(f"{levels}: {verdict.status}")
    return EXIT_OK


def _cmd_catalog_list(args) -> int:
    entries = [
        {
            "id": e.id,
            "description": e.description,
            "runs": e.runs,
            "profile": e.profile,
            "strength": e.strength,
            "buildable": e.buildable,
            "needs_seed": e.needs_seed,
        }
        for e in catalog.catalog_list()
    ]
    sys.stdout.write(dump_json(report(entries=entries)))
    _say(f"{len(entries)} catalog entries")
    return EXIT_OK


def _cmd_catalog_build(args) -> int:
    seed = None if args.seed is None else parse_any(_read_text(args.seed))
    array, cert = catalog.catalog_build(args.id, seed=seed)
    _emit(array, cert, args.output)
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
    actions = p.add_subparsers(dest="action", required=True)
    q = actions.add_parser("list", help="print every entry as JSON")
    q.set_defaults(fn=_cmd_catalog_list)
    q = actions.add_parser("build", help="build and verify one entry")
    q.add_argument("id")
    q.add_argument("--seed", help="moa v1 file satisfying an import-required seed")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=_cmd_catalog_build)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is our verification code
        if exc.code == 0:  # --help
            raise
        return EXIT_PARAMETER
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
    except OSError as exc:  # unreadable input or unwritable output path
        _say(f"error: {exc}")
        return EXIT_PARAMETER


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
