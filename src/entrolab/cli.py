"""Command-line front end.

The table ``COMMANDS`` is the single definition of the commands: their
words, handlers, options, defaults and help text. ``parse_args`` reads argv
against it in one pass, accepting and refusing what argparse did for the
same commands, and the help and usage text are drawn from it.

Exit codes: 0 on success, 2 on usage or input-file errors, 3 when a budget
ran out (the best sound bound found so far is still printed). JSON output
(--format json) is deterministic for identical inputs and cache state;
wall-clock timings appear only in the human-readable text output.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from fractions import Fraction
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
    ] if args.format == "tsv" else []
    _emit(payload, args.format, lines)
    return code


def cmd_entropy_pwl(args: SimpleNamespace) -> int:
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
    try:
        if args.direction == "encode":
            out = prefix_encode(z, args.word)
        else:
            out = prefix_decode(z, args.word)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
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

_HELP = ("-h", "--help")
# argparse's rule: a token that matches no option and looks like this is a value
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _subcommands(words: tuple) -> list[str]:
    return [w[-1] for w in COMMANDS if w and w[:-1] == words]


def _free_positional(options: dict, given: dict):
    return next((name for name in options if name[0] != "-" and name not in given), None)


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _metavar(name: str, conv) -> str:
    if isinstance(conv, tuple):
        return "{" + ",".join(conv) + "}"
    return _dest(name).upper()


def _usage(words: tuple) -> str:
    _, _, options = COMMANDS[words]
    parts = ["usage:", " ".join(("entrolab",) + words), "[-h]"]
    positionals = []
    for name, (conv, default, _) in options.items():
        if not name.startswith("-"):
            positionals.append(_metavar(name, conv))
        elif default is REQUIRED:
            parts.append(f"{name} {_metavar(name, conv)}")
        else:
            parts.append(f"[{name} {_metavar(name, conv)}]")
    if COMMANDS[words][0] is None:
        positionals.append("{" + ",".join(_subcommands(words)) + "} ...")
    return " ".join(parts + positionals)


def _help(words: tuple) -> str:
    _, text, options = COMMANDS[words]
    commands = [(word, COMMANDS[words + (word,)][1]) for word in _subcommands(words)]
    rows = [("-h, --help", "show this help message and exit")]
    for name, (conv, default, note) in options.items():
        left = _metavar(name, conv) if not name.startswith("-") else f"{name} {_metavar(name, conv)}"
        if default is not REQUIRED and default is not None:
            note = f"{note} (default: {default})".lstrip()
        rows.append((left, note))
    width = max(len(left) for left, _ in commands + rows) + 2
    lines = [_usage(words), "", text]
    for title, table in (("commands:", commands), ("options:", rows)):
        if table:
            lines += ["", title] + [f"  {left:<{width}}{note}".rstrip() for left, note in table]
    return "\n".join(lines)


def _usage_error(words: tuple, message: str):
    prog = " ".join(("entrolab",) + words)
    print(f"{_usage(words)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _option(words: tuple, options: dict, token: str):
    """(name, attached value) of the option that ``token``, which starts with
    a dash, spells at this command; name None when it spells no option, and
    None when the token is a value (a negative number, say). The name is
    matched as argparse matches it: exactly, before an '=', or as a prefix
    of one option only."""
    if token in options or token in _HELP:
        return token, None
    if len(token) == 1:
        return None
    name, eq, attached = token.partition("=")
    if eq and (name in options or name in _HELP):
        return name, attached
    if token[1] == "-":
        matches = [opt for opt in ("--help", *options) if opt.startswith(name)]
        attached = attached if eq else None
    else:
        matches, attached = (["-h"], token[2:]) if token[:2] == "-h" else ([], None)
    if len(matches) > 1:
        _usage_error(words, f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], attached
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _convert(words: tuple, name: str, conv, text: str):
    if isinstance(conv, tuple):
        if text not in conv:
            choices = ", ".join(map(repr, conv))
            _usage_error(words, f"argument {name}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        return conv(text)
    except ValueError:
        _usage_error(words, f"argument {name}: invalid {conv.__name__} value: {text!r}")


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Walk argv once against COMMANDS. Usage errors print a usage line and
    the error to stderr and raise SystemExit(2); -h or --help prints the
    help of the command reached so far and raises SystemExit(0)."""
    words: tuple = ()
    func, _, options = COMMANDS[words]
    given: dict = {}
    unknown: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--" and func is not None:
            # every later token is a value, the first of which may fill a
            # free positional; at a group "--" is an unknown command
            rest = argv[i:]
            slot = _free_positional(options, given)
            if slot is not None and rest:
                given[slot] = _convert(words, slot, options[slot][0], rest.pop(0))
            else:
                rest.insert(0, token)
            unknown += rest
            break
        spec = _option(words, options, token) if token[:1] == "-" and token != "--" else None
        if spec is None:  # a value: a command word or a positional
            if func is None:
                if words + (token,) not in COMMANDS:
                    choices = ", ".join(map(repr, _subcommands(words)))
                    _usage_error(words, f"argument command: invalid choice: {token!r} (choose from {choices})")
                words += (token,)
                func, _, options = COMMANDS[words]
                continue
            slot = _free_positional(options, given)
            if slot is None:
                unknown.append(token)
            else:
                given[slot] = _convert(words, slot, options[slot][0], token)
            continue
        name, attached = spec
        if name is None:
            unknown.append(token)
            continue
        if name in _HELP:
            # -hh is -h twice, as a run of single-dash flags
            if attached is not None and (name == "--help" or attached.strip("h") or not attached):
                _usage_error(words, f"argument -h/--help: ignored explicit argument {attached!r}")
            # argparse reads each token at each level as an option or a value
            # before it acts on any, so an ambiguous token after -h still fails
            rest = argv[i:]
            for later in rest[: rest.index("--")] if "--" in rest else rest:
                if later[:1] == "-":
                    for k in range(len(words) + 1):
                        _option(words[:k], COMMANDS[words[:k]][2], later)
            print(_help(words))
            raise SystemExit(EXIT_OK)
        if attached is None:
            value = argv[i] if i < len(argv) else "--"
            if value == "--" or value[:1] == "-" and _option(words, options, value) is not None:
                _usage_error(words, f"argument {name}: expected one argument")
            attached = value
            i += 1
        given[name] = _convert(words, name, options[name][0], attached)
    if func is None:
        _usage_error(words, "the following arguments are required: command")
    missing = [name for name, (_, default, _) in options.items()
               if default is REQUIRED and name not in given]
    if missing:
        _usage_error(words, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _usage_error(words, f"unrecognized arguments: {' '.join(unknown)}")
    args = SimpleNamespace(func=func)
    for name, (_, default, _) in (*COMMANDS[()][2].items(), *options.items()):
        setattr(args, _dest(name), given.get(name, default))
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
