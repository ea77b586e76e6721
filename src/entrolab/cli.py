"""Command-line front end.

Exit codes: 0 on success, 2 on usage or input-file errors, 3 when a budget
ran out (the best sound bound found so far is still printed). JSON output
(--format json) is deterministic for identical inputs and cache state;
wall-clock timings appear only in the human-readable text output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .numkit import format_rational, parse_rational
from .interval_maps import (
    BOUND_BITS,
    DEFAULT_NODE_CAP,
    MAX_ITERATE,
    NodeCapExceeded,
    PWLMap,
    QuadMap,
    constant_slope_map,
    entropy_via_variation,
)
from .horseshoe import QUAD_NODE_CAP, SearchBudget, search_lower_bounds
from .symbolic import (
    SFT,
    check_mixing,
    prefix_decode,
    prefix_encode,
    sft_entropy,
)
from .logistic import (
    DEFAULT_EPS,
    DEFAULT_PERIOD_CAP,
    BudgetExceeded,
    CenterCache,
    SandwichBudget,
    enumerate_centers,
    logistic_entropy,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3

# the finest entropy precision accepted is 2^-MAX_PRECISION_BITS: the cost of
# the Perron bracket grows with the bits asked for, and a center precision of
# 2^-100000 ran for minutes on one center
MAX_PRECISION_BITS = 1024
_FINEST_EPS = Fraction(1, 2**MAX_PRECISION_BITS)


class InputError(Exception):
    """Bad file or value supplied to a command."""


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"malformed {what} file {path}: the top level is not a JSON object")
    return data


def _load_map(path: str) -> "PWLMap | QuadMap":
    data = _load_json(path, "map")
    try:
        if "nodes" in data:
            return PWLMap.from_json(data)
        if "r" in data:
            return QuadMap.from_json(data)
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"malformed map file {path}: {exc}") from exc
    raise InputError(f"{path} is neither a piecewise-linear map nor a quadratic map")


def _load_sft(path: str) -> SFT:
    data = _load_json(path, "subshift")
    try:
        return SFT.from_json(data)
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"malformed subshift file {path}: {exc}") from exc


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, TypeError) as exc:
        raise InputError(f"cannot parse {what} {text!r}: {exc}") from exc


def _check_precision(eps: Fraction) -> None:
    # a nonpositive eps is left to the callers' own checks and messages
    if 0 < eps < _FINEST_EPS:
        raise InputError(
            f"precision finer than 2^-{MAX_PRECISION_BITS} is not supported"
        )


def _emit(payload: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_entropy_logistic(args: argparse.Namespace) -> int:
    r = _parse_fraction(args.r, "--r")
    eps = _parse_fraction(args.eps, "--eps")
    seconds = args.budget_seconds
    if eps <= 0 or args.max_period <= 0:
        raise InputError("numeric options must be positive")
    if seconds is not None and not 0 < seconds < math.inf:
        raise InputError("--budget-seconds must be positive and finite")
    _check_precision(eps)
    cache = CenterCache(args.cache_path)
    budget = SandwichBudget(max_period=args.max_period, seconds=seconds)
    start = time.monotonic()
    code = EXIT_OK
    try:
        bound = logistic_entropy(r, eps, budget, cache=cache)
    except BudgetExceeded as exc:
        bound = exc.best
        code = EXIT_BUDGET
    elapsed = time.monotonic() - start
    payload = {
        "r": format_rational(r),
        "eps": format_rational(eps),
        "h": [format_rational(bound.lo), format_rational(bound.hi)],
        "provenance": bound.provenance.value,
        "certified": bound.certified,
        "max_period": args.max_period,
    }
    lines = [
        f"h in [{bound.lo}, {bound.hi}] {bound.provenance.value}"
        + ("" if bound.certified else " (budget exceeded; bound is sound but wide)"),
        f"  ~ [{float(bound.lo):.10f}, {float(bound.hi):.10f}]",
        f"  periods searched: up to {args.max_period}",
        f"  wall time: {elapsed:.2f}s",
    ]
    _emit(payload, args.format, lines)
    return code


def cmd_entropy_pwl(args: argparse.Namespace) -> int:
    f = _load_map(args.file)
    if args.node_cap is not None and args.node_cap <= 0:
        raise InputError("numeric options must be positive")
    if args.method == "variation":
        if not isinstance(f, PWLMap):
            raise InputError("the variation method needs a piecewise-linear map")
        try:
            bound = entropy_via_variation(
                f, args.n_max, node_cap=args.node_cap or DEFAULT_NODE_CAP
            )
        except NodeCapExceeded as exc:
            raise InputError(f"{exc}; raise --node-cap or lower --n-max") from exc
        payload = {
            "method": "variation",
            "n_max": args.n_max,
            "h": [format_rational(bound.lo), format_rational(bound.hi)],
            "certified": bound.certified,
        }
        status = "CERTIFIED" if bound.certified else f"estimate at n={args.n_max}"
        _emit(
            payload,
            args.format,
            [f"h in [{bound.lo}, {bound.hi}] {status}",
             f"  ~ [{float(bound.lo):.10f}, {float(bound.hi):.10f}]"],
        )
        return EXIT_OK
    budget = SearchBudget(max_n=args.max_n, max_p=args.max_p, grid_depth=args.grid_depth)
    records = []
    code = EXIT_OK
    if args.format != "json":
        print("p\tn\tbound_lo\tbound_hi")
    try:
        for record in search_lower_bounds(f, budget, node_cap=args.node_cap):
            records.append(record)
            if args.format != "json":
                print(
                    f"{record.p}\t{record.n}\t"
                    f"{format_rational(record.bound.lo)}\t{format_rational(record.bound.hi)}"
                )
    except NodeCapExceeded as exc:
        # the records before the cap are sound; the stream just ends early
        print(f"note: stream stopped: {exc}; raise --node-cap to go further", file=sys.stderr)
        code = EXIT_BUDGET
    if args.format == "json":
        payload = {
            "method": "horseshoe",
            "records": [
                {
                    "p": rec.p,
                    "n": rec.n,
                    "bound": [format_rational(rec.bound.lo), format_rational(rec.bound.hi)],
                    "certificate": rec.cert.to_json(),
                }
                for rec in records
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    elif not records:
        print("# no horseshoe found within budget (entropy may be 0)")
    return code


def cmd_realize(args: argparse.Namespace) -> int:
    f = constant_slope_map(_parse_fraction(args.h, "--h"))
    out = Path(args.out)
    out.write_text(json.dumps(f.to_json(), sort_keys=True) + "\n", encoding="utf-8")
    bound = entropy_via_variation(f, 1)
    _emit(
        {"out": str(out), "h": [format_rational(bound.lo), format_rational(bound.hi)]},
        args.format,
        [f"wrote {out}", f"realized entropy in [{bound.lo}, {bound.hi}]"],
    )
    return EXIT_OK


def cmd_sft_entropy(args: argparse.Namespace) -> int:
    z = _load_sft(args.file)
    eps = _parse_fraction(args.eps, "--eps")
    _check_precision(eps)
    bound = sft_entropy(z, eps)
    payload = {
        "h": [format_rational(bound.lo), format_rational(bound.hi)],
        "eps": format_rational(eps),
    }
    _emit(
        payload,
        args.format,
        [f"h in [{bound.lo}, {bound.hi}]",
         f"  ~ [{float(bound.lo):.12f}, {float(bound.hi):.12f}]"],
    )
    return EXIT_OK


def cmd_sft_mixing(args: argparse.Namespace) -> int:
    z = _load_sft(args.file)
    verdict = check_mixing(z)
    _emit({"verdict": verdict.value}, args.format, [verdict.value])
    return EXIT_OK


def cmd_sft_kappa(args: argparse.Namespace) -> int:
    z = _load_sft(args.file)
    try:
        if args.direction == "encode":
            out = prefix_encode(z, args.word)
        else:
            out = prefix_decode(z, args.word)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit({"input": args.word, "output": out}, args.format, [out])
    return EXIT_OK


def cmd_centers(args: argparse.Namespace) -> int:
    eps = _parse_fraction(args.eps, "--eps")
    _check_precision(eps)
    result = enumerate_centers(args.max_period, eps=eps, cache=args.cache_path)
    if args.format == "json":
        payload = {
            "max_period": args.max_period,
            "centers": [c.to_json() for c in result.centers],
            "unresolved": [iv.to_json() for iv in result.unresolved],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("period\tr_lo\tr_hi\tentropy_lo\tentropy_hi")
        for c in result.centers:
            print(
                f"{c.period}\t{format_rational(c.r_enc.lo)}\t{format_rational(c.r_enc.hi)}"
                f"\t{format_rational(c.entropy.lo)}\t{format_rational(c.entropy.hi)}"
            )
        for iv in result.unresolved:
            print(f"# UNRESOLVED cell [{iv.lo}, {iv.hi}]")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrolab",
        description="Certified topological-entropy bounds for one-dimensional maps. "
        "TSV columns for horseshoe streams: p, n, bound_lo, bound_hi "
        "(rationals as p/q).",
    )
    parser.add_argument(
        "--format", choices=("tsv", "json"), default="tsv", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    entropy = sub.add_parser("entropy", help="entropy of a map")
    esub = entropy.add_subparsers(dest="target", required=True)

    logi = esub.add_parser("logistic", help="entropy of x -> r x (1-x)")
    logi.add_argument("--r", required=True, help="parameter in [0,4]; exact rational or decimal")
    logi.add_argument("--eps", required=True, help="target enclosure width")
    logi.add_argument("--max-period", type=int, default=DEFAULT_PERIOD_CAP)
    logi.add_argument("--budget-seconds", type=float, default=None)
    logi.add_argument("--cache-path", default=None, help="center cache file")
    logi.set_defaults(func=cmd_entropy_logistic)

    pwl = esub.add_parser("pwl", help="entropy bounds for a stored map, "
                          f"each from a log2 enclosure at most 2^-{BOUND_BITS} wide")
    pwl.add_argument("--file", required=True, help="map JSON file")
    pwl.add_argument("--method", choices=("horseshoe", "variation"), required=True)
    pwl.add_argument("--n-max", type=int, default=6,
                     help=f"iterate for the variation estimate, at most {MAX_ITERATE}")
    pwl.add_argument("--max-n", type=int, default=8,
                     help=f"horseshoe iterate budget, at most {MAX_ITERATE}")
    pwl.add_argument("--max-p", type=int, default=4096)
    pwl.add_argument("--grid-depth", type=int, default=3, help="piecewise-linear maps only")
    pwl.add_argument("--node-cap", type=int, help=f"default {DEFAULT_NODE_CAP} nodes, "
                     f"or {QUAD_NODE_CAP} breakpoints for a quadratic map")
    pwl.set_defaults(func=cmd_entropy_pwl)

    realize = sub.add_parser("realize", help="construct a map with prescribed entropy")
    realize.add_argument("--h", required=True, help="entropy target in [0,1]")
    realize.add_argument("--out", required=True, help="output map JSON path")
    realize.set_defaults(func=cmd_realize)

    sft = sub.add_parser("sft", help="subshift-of-finite-type operations")
    ssub = sft.add_subparsers(dest="op", required=True)
    se = ssub.add_parser("entropy")
    se.add_argument("--file", required=True)
    se.add_argument("--eps", default="1/1000000000")
    se.set_defaults(func=cmd_sft_entropy)
    sm = ssub.add_parser("mixing")
    sm.add_argument("--file", required=True)
    sm.set_defaults(func=cmd_sft_mixing)
    sk = ssub.add_parser("kappa")
    sk.add_argument("direction", choices=("encode", "decode"))
    sk.add_argument("--file", required=True)
    sk.add_argument("--word", required=True)
    sk.set_defaults(func=cmd_sft_kappa)

    centers = sub.add_parser("centers", help="enumerate superattracting centers")
    centers.add_argument("--max-period", type=int, required=True)
    centers.add_argument("--eps", default=format_rational(DEFAULT_EPS))
    centers.add_argument("--cache-path", default=None)
    centers.set_defaults(func=cmd_centers)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
