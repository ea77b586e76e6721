"""Command-line front end.

The table ``COMMANDS`` is the single definition of the commands: their
words, handlers, options, defaults and help text. ``parse_args`` reads a
command line in exact spelling (command words, each option spelled in full
with its value, a leaf's positional) by table lookup, without argparse.
Every other command line, such as help, an abbreviated option, "--", a
negative value or a usage error, goes to argparse itself, whose parser is
built from the same table the first time it is needed; its rules decide
each such case and print the help and usage text.

Exit codes: 0 on success, 2 on usage or input-file errors, 3 when a budget
ran out (the best sound bound found so far is still printed). JSON output
(--format json) is deterministic for identical inputs and cache state;
wall-clock timings appear only in the human-readable text output.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path
from types import SimpleNamespace
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


def cmd_entropy_logistic(args: SimpleNamespace) -> int:
    r = _parse_fraction(args.r, "--r")
    eps = _parse_fraction(args.eps, "--eps")
    _check_precision(eps)
    budget = SandwichBudget(max_period=args.max_period, seconds=args.budget_seconds)
    cache = CenterCache(args.cache_path)
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
    ] if args.format == "tsv" else []
    _emit(payload, args.format, lines)
    return code


def cmd_entropy_pwl(args: SimpleNamespace) -> int:
    f = _load_map(args.file)
    if args.node_cap is not None and args.node_cap <= 0:
        raise InputError("--node-cap must be positive")
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


def cmd_realize(args: SimpleNamespace) -> int:
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


def cmd_sft_entropy(args: SimpleNamespace) -> int:
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


def cmd_sft_mixing(args: SimpleNamespace) -> int:
    z = _load_sft(args.file)
    verdict = check_mixing(z)
    _emit({"verdict": verdict.value}, args.format, [verdict.value])
    return EXIT_OK


def cmd_sft_kappa(args: SimpleNamespace) -> int:
    z = _load_sft(args.file)
    recode = prefix_encode if args.direction == "encode" else prefix_decode
    out = recode(z, args.word)
    _emit({"input": args.word, "output": out}, args.format, [out])
    return EXIT_OK


def cmd_centers(args: SimpleNamespace) -> int:
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
# Command table and parser
# ---------------------------------------------------------------------------

# the default of an option that must be given
REQUIRED = object()

# Command words -> (handler, help, options). A group of commands has no
# handler, and () holds the global options, which go before the command
# words. An option maps to (converter, default, help), the converter being
# str, int, float or a tuple of choices; a name without dashes is positional.
COMMANDS = {
    (): (
        None,
        "Certified topological-entropy bounds for one-dimensional maps. "
        "TSV columns for horseshoe streams: p, n, bound_lo, bound_hi "
        "(rationals as p/q).",
        {"--format": (("tsv", "json"), "tsv", "output format")},
    ),
    ("entropy",): (None, "entropy of a map", {}),
    ("entropy", "logistic"): (cmd_entropy_logistic, "entropy of x -> r x (1-x)", {
        "--r": (str, REQUIRED, "parameter in [0,4]; exact rational or decimal"),
        "--eps": (str, REQUIRED, "target enclosure width"),
        "--max-period": (int, DEFAULT_PERIOD_CAP, f"highest period searched, at most {DEFAULT_PERIOD_CAP}"),
        "--budget-seconds": (float, None, "time budget; exit 3 with the best bound when it runs out"),
        "--cache-path": (str, None, "center cache file"),
    }),
    ("entropy", "pwl"): (
        cmd_entropy_pwl,
        f"entropy bounds for a stored map, each from a log2 enclosure at most 2^-{BOUND_BITS} wide",
        {
            "--file": (str, REQUIRED, "map JSON file"),
            "--method": (("horseshoe", "variation"), REQUIRED, "lower-bound stream or variation estimate"),
            "--n-max": (int, 6, f"iterate for the variation estimate, at most {MAX_ITERATE}"),
            "--max-n": (int, 8, f"horseshoe iterate budget, at most {MAX_ITERATE}"),
            "--max-p": (int, 4096, "most intervals in a horseshoe candidate"),
            "--grid-depth": (int, 3, "piecewise-linear maps only"),
            "--node-cap": (int, None, f"default {DEFAULT_NODE_CAP} nodes, "
                           f"or {QUAD_NODE_CAP} breakpoints for a quadratic map"),
        },
    ),
    ("realize",): (cmd_realize, "construct a map with prescribed entropy", {
        "--h": (str, REQUIRED, "entropy target in [0,1]"),
        "--out": (str, REQUIRED, "output map JSON path"),
    }),
    ("sft",): (None, "subshift-of-finite-type operations", {}),
    ("sft", "entropy"): (cmd_sft_entropy, "entropy of a subshift", {
        "--file": (str, REQUIRED, "subshift JSON file"),
        "--eps": (str, "1/1000000000", "target enclosure width"),
    }),
    ("sft", "mixing"): (cmd_sft_mixing, "whether a subshift is mixing", {
        "--file": (str, REQUIRED, "subshift JSON file"),
    }),
    ("sft", "kappa"): (cmd_sft_kappa, "prefix recoding between a subshift word and a binary word", {
        "direction": (("encode", "decode"), REQUIRED, "encode a subshift word or decode a binary one"),
        "--file": (str, REQUIRED, "subshift JSON file"),
        "--word": (str, REQUIRED, "word to recode"),
    }),
    ("centers",): (cmd_centers, "enumerate superattracting centers", {
        "--max-period": (int, REQUIRED, f"highest period, at most {DEFAULT_PERIOD_CAP}"),
        "--eps": (str, format_rational(DEFAULT_EPS), "entropy precision of each center"),
        "--cache-path": (str, None, "center cache file"),
    }),
}


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


@cache
def _argparse_parser():
    """The argparse tree of COMMANDS, built once, for the command lines
    parse_args does not read itself."""
    import argparse

    def add(parser, words: tuple) -> None:
        func, _, options = COMMANDS[words]
        for name, (conv, default, note) in options.items():
            spec = {"help": note}
            if isinstance(conv, tuple):
                spec["choices"] = conv
            elif conv is not str:
                spec["type"] = conv
            if default is not REQUIRED:
                spec["default"] = default
                if default is not None:
                    spec["help"] = f"{note} (default: {default})"
            elif name[0] == "-":
                spec["required"] = True
            parser.add_argument(name, **spec)
        if func is not None:
            parser.set_defaults(func=func)
            return
        sub = parser.add_subparsers(dest="command", required=True)
        for child, (_, text, _) in COMMANDS.items():
            if child and child[:-1] == words:
                add(sub.add_parser(child[-1], help=text, description=text), child)

    parser = argparse.ArgumentParser(prog="entrolab", description=COMMANDS[()][1])
    add(parser, ())
    return parser


def parse_args(argv: list[str]):
    """Read argv against COMMANDS. A command line in exact spelling is read
    here by table lookup: command words, each option spelled in full as
    ``--name value`` or ``--name=value`` with a value that does not start
    with '-', and a leaf's one free positional. Every other command line
    (help, an abbreviation, "--", a negative value, a usage error) goes to
    argparse, which prints help or a usage error and raises SystemExit(0)
    or SystemExit(2)."""
    words: tuple = ()
    func, _, options = COMMANDS[words]
    given: dict = {}
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-":
            if func is None:  # a command word
                words += (token,)
                if words not in COMMANDS:
                    break
                func, _, options = COMMANDS[words]
                continue
            name = next((n for n in options if n[0] != "-" and n not in given), None)
            value = token
        else:
            name, eq, value = token.partition("=")
            if not eq:
                value = next(tokens, "-")
            # a value starting with '-' is left to argparse, which before
            # Python 3.13 reads "--name=--" as no value
            if value[:1] == "-":
                break
        if name not in options:
            break
        conv = options[name][0]
        if isinstance(conv, tuple):
            if value not in conv:
                break
        else:
            try:
                value = conv(value)
            except ValueError:
                break
        given[name] = value
    else:
        if func is not None and all(
            name in given for name, (_, default, _) in options.items() if default is REQUIRED
        ):
            args = SimpleNamespace(func=func)
            for name, (_, default, _) in (*COMMANDS[()][2].items(), *options.items()):
                setattr(args, _dest(name), given.get(name, default))
            return args
    parser = _argparse_parser()
    args = parser.parse_args(argv)
    for dest, value in vars(args).items():
        if value == []:  # argparse before 3.13 reads "--name=--" as an empty list
            parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
