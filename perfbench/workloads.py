"""The four workloads: inputs made from a seed, the CLI calls that are
timed, and the checks on what those calls print.

Every workload is a list of ``entrolab`` command lines run one after the
other through ``entrolab.cli.main`` with ``--format json``. Inputs are drawn
by stratified sampling (one draw per stratum of a fixed grid), so a seed
changes the inputs but not the mix of cheap and expensive ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

# centers_cold / sandwich_warm: the period the center cache is built to
CENTERS_P = 9
# centers of period <= p for p = 1..9; new per period: 1, 1, 1, 2, 3, 5, 9, 16, 28
CENTER_COUNTS = (1, 2, 3, 5, 8, 13, 22, 38, 66)
CENTERS_EPS = Fraction(1, 10**7)

SANDWICH_QUERIES = 300
SANDWICH_EPS = ("1/32", "1/128")

# constant-slope maps: entropy targets drawn within 0.01 of twelve fixed
# points in [0.4, 0.9]. The search cost grows like 2^(n h), so a wider draw
# would make the run time depend more on the seed than on the program.
HORSESHOE_SLOPE_STRATA = tuple((c - 0.01, c + 0.01) for c in (0.42 + k / 24 for k in range(12)))
HORSESHOE_MAX_N = {"tent": 9, "zigzag": 9, "slope": 7, "monotone": 8}

CHORD_SIZES = (12, 16, 20, 24, 28, 32, 36, 40)
# two dense matrices per chord cycle, so the median call lies inside the
# dense class rather than on the jump between the classes
DENSE_SIZES = tuple(range(6, 22))
SFT_EPS = ("1e-6", "1e-9")

# slack for comparing exact rationals with double-precision references
FLOAT_SLACK = 1e-12


@dataclass
class Op:
    """One CLI call: its arguments, what the check needs, and its result."""

    argv: list[str]
    tag: Optional[str] = None  # input class, for per-class layer times
    info: dict = field(default_factory=dict)
    code: int = -1
    out: str = ""
    start: float = 0.0  # clock readings around the call
    end: float = 0.0


@dataclass
class Verdict:
    """Result of checking one repetition's outputs."""

    problems: list[str] = field(default_factory=list)
    failed_ops: set[int] = field(default_factory=set)
    unfinished: set[int] = field(default_factory=set)  # exit 3: budget exhausted
    widths: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)

    def fail(self, index: int, why: str) -> None:
        self.failed_ops.add(index)
        self.problems.append(f"op {index}: {why}")


def _json(op: Op) -> Optional[dict]:
    try:
        return json.loads(op.out)
    except ValueError:
        return None


def _width(pair: list[str]) -> Fraction:
    return Fraction(pair[1]) - Fraction(pair[0])


# ---------------------------------------------------------------------------
# centers_cold
# ---------------------------------------------------------------------------


class CentersCold:
    """`centers --max-period p` for p = 1..P against an empty cache file."""

    def shared_setup(self, shared: Path) -> None:
        pass

    def prepare(self, rng: random.Random, rep: Path, shared: Path) -> list[Op]:
        cache = str(rep / "centers.jsonl")
        return [
            Op(["--format", "json", "centers", "--max-period", str(p), "--cache-path", cache],
               info={"period": p})
            for p in range(1, CENTERS_P + 1)
        ]

    def check(self, ops: list[Op], full: bool) -> Verdict:
        v = Verdict()
        for i, op in enumerate(ops):
            data = _json(op)
            if op.code != 0 or data is None:
                v.fail(i, f"exit {op.code}")
                continue
            centers = data["centers"]
            want = CENTER_COUNTS[op.info["period"] - 1]
            if len(centers) != want or data["unresolved"]:
                v.fail(i, f"{len(centers)} centers, want {want}")
            widths = [_width([c["entropy"]["lo"], c["entropy"]["hi"]]) for c in centers]
            if any(w > CENTERS_EPS for w in widths):
                v.fail(i, "a center entropy is wider than eps")
            if i == len(ops) - 1:
                v.widths = [float(w) for w in widths]
        return v


# ---------------------------------------------------------------------------
# sandwich_warm
# ---------------------------------------------------------------------------


class SandwichWarm:
    """`entropy logistic` queries against a center cache built in set-up."""

    def shared_setup(self, shared: Path) -> None:
        from entrolab import cli

        argv = ["--format", "json", "centers", "--max-period", str(CENTERS_P),
                "--cache-path", str(shared / "centers.jsonl")]
        if _run_quiet(cli.main, argv) != 0:
            raise RuntimeError("building the center cache failed")

    def prepare(self, rng: random.Random, rep: Path, shared: Path) -> list[Op]:
        cache = rep / "centers.jsonl"
        shutil.copyfile(shared / "centers.jsonl", cache)  # each repetition owns its cache
        n = SANDWICH_QUERIES
        eps_choices = [SANDWICH_EPS[k % len(SANDWICH_EPS)] for k in range(n)]
        rng.shuffle(eps_choices)
        ops = []
        for k in range(n):
            a = 3001 + int(999 * (k + rng.random()) / n)  # one r per stratum of (3, 4)
            eps = eps_choices[k]
            ops.append(Op(
                ["--format", "json", "entropy", "logistic", "--r", f"{a}/1000", "--eps", eps,
                 "--max-period", str(CENTERS_P), "--cache-path", str(cache)],
                info={"r": Fraction(a, 1000), "eps": Fraction(eps)},
            ))
        rng.shuffle(ops)
        return ops

    def check(self, ops: list[Op], full: bool) -> Verdict:
        v = Verdict()
        seen: list[tuple[Fraction, Fraction, Fraction, int]] = []
        for i, op in enumerate(ops):
            data = _json(op)
            if op.code not in (0, 3) or data is None:
                v.fail(i, f"exit {op.code}")
                continue
            lo, hi = Fraction(data["h"][0]), Fraction(data["h"][1])
            if data["certified"] != (op.code == 0):
                v.fail(i, "certified flag disagrees with the exit code")
            if op.code == 3:
                v.unfinished.add(i)
            elif hi - lo > op.info["eps"]:
                v.fail(i, "certified width exceeds eps")
            v.widths.append(float(hi - lo))
            seen.append((op.info["r"], lo, hi, i))
        # the entropy is nondecreasing in r, so every enclosure at a smaller
        # r must reach no higher than every enclosure at a larger r
        for r1, lo1, _, i1 in seen:
            for r2, _, hi2, i2 in seen:
                if r1 <= r2 and lo1 > hi2:
                    v.fail(i1, f"enclosure not monotone against op {i2}")
        return v


# ---------------------------------------------------------------------------
# horseshoe_pwl
# ---------------------------------------------------------------------------


def _slope(nodes: list[list[str]]) -> Optional[Fraction]:
    """The common absolute slope of a map, or None when slopes differ."""
    pts = [(Fraction(x), Fraction(y)) for x, y in nodes]
    slopes = {abs((y2 - y1) / (x2 - x1)) for (x1, y1), (x2, y2) in zip(pts, pts[1:])}
    return slopes.pop() if len(slopes) == 1 else None


def _monotone_map(rng: random.Random) -> dict:
    """An increasing piecewise-linear map, which has entropy 0."""
    xs = sorted(rng.sample(range(1, 16), 2))
    ys = sorted(rng.sample(range(1, 16), 2))
    nodes = [(0, 0), (xs[0], ys[0]), (xs[1], ys[1]), (16, 16)]
    return {"nodes": [[f"{x}/16", f"{y}/16"] for x, y in nodes]}


class HorseshoePWL:
    """`entropy pwl --method horseshoe` on maps of known entropy."""

    def shared_setup(self, shared: Path) -> None:
        pass

    def prepare(self, rng: random.Random, rep: Path, shared: Path) -> list[Op]:
        from entrolab import cli

        maps: list[tuple[str, Path]] = []
        tent = rep / "tent.json"
        tent.write_text(json.dumps({"nodes": [["0/1", "0/1"], ["1/2", "1/1"], ["1/1", "0/1"]]}))
        maps.append(("tent", tent))
        # the slope-2 zigzag is the realization of h = 1
        targets = [("zigzag", "1")] + [
            ("slope", f"{rng.uniform(lo, hi):.3f}") for lo, hi in HORSESHOE_SLOPE_STRATA
        ]
        for k, (kind, h) in enumerate(targets):
            path = rep / f"{kind}{k}.json"
            if _run_quiet(cli.main, ["--format", "json", "realize", "--h", h, "--out", str(path)]) != 0:
                raise RuntimeError(f"realize --h {h} failed")
            maps.append((kind, path))
        monotone = rep / "monotone.json"
        monotone.write_text(json.dumps(_monotone_map(rng)))
        maps.append(("monotone", monotone))
        ops = []
        for kind, path in maps:
            nodes = json.loads(path.read_text())["nodes"]
            s = _slope(nodes)
            entropy = math.log2(s) if s is not None and s > 1 else 0.0
            ops.append(Op(
                ["--format", "json", "entropy", "pwl", "--file", str(path), "--method", "horseshoe",
                 "--max-n", str(HORSESHOE_MAX_N[kind])],
                info={"entropy": entropy, "file": path},
            ))
        return ops

    def check(self, ops: list[Op], full: bool) -> Verdict:
        from entrolab.horseshoe import HorseshoeCert, check_certificate
        from entrolab.interval_maps import PWLMap

        v = Verdict()
        for i, op in enumerate(ops):
            data = _json(op)
            if op.code != 0 or data is None:
                v.fail(i, f"exit {op.code}")
                continue
            entropy = op.info["entropy"]
            records = data["records"]
            if entropy == 0:
                if records:
                    v.fail(i, "a zero-entropy map streamed a horseshoe")
                continue
            best = Fraction(0)
            f = PWLMap.from_json(json.loads(op.info["file"].read_text())) if full else None
            for rec in records:
                lo, hi = Fraction(rec["bound"][0]), Fraction(rec["bound"][1])
                if lo <= best:
                    v.fail(i, "bounds do not strictly improve")
                if float(lo) > entropy + FLOAT_SLACK:
                    v.fail(i, f"bound {float(lo)} above the entropy {entropy}")
                cert = HorseshoeCert.from_json(rec["certificate"])
                if (cert.p, cert.n) != (rec["p"], rec["n"]):
                    v.fail(i, "record disagrees with its certificate")
                if f is not None and not check_certificate(f, cert):
                    v.fail(i, "certificate does not re-check")
                best = max(best, lo)
                v.widths.append(float(hi - lo))
            v.gaps.append(entropy - float(best))
        return v


# ---------------------------------------------------------------------------
# sft_perron
# ---------------------------------------------------------------------------


def _chord_cycle(rng: random.Random, m: int) -> tuple[list[list[int]], float]:
    """An m-cycle plus one chord, relabelled; returns it with its Perron root.

    The chord m-1 -> b closes a second cycle of length L = m - b, so the
    first-return lengths at state m-1 are m and L and the Perron root is the
    root of x^-m + x^-L = 1 in (1, 2]. L is drawn from round(3m/8) and the
    value below it: there the spectral gap, and so the cost of power
    iteration, changes by under 6% for every m used here.
    """
    length = round(3 * m / 8) - rng.randint(0, 1)
    b = m - length
    perm = list(range(m))
    rng.shuffle(perm)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[perm[i]][perm[(i + 1) % m]] = 1
    rows[perm[m - 1]][perm[b]] = 1
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid ** -m + mid ** -length > 1:
            lo = mid
        else:
            hi = mid
    return rows, (lo + hi) / 2


def _primitive(rows: list[list[int]]) -> bool:
    """Some power of the matrix is positive (Wielandt: power (k-1)^2 + 1)."""
    k = len(rows)
    full = (1 << k) - 1
    power = [sum(v << j for j, v in enumerate(row)) for row in rows]
    steps = 1
    while steps < (k - 1) ** 2 + 1:
        power = [_bool_row_product(row, power) for row in power]
        steps *= 2
    return all(row == full for row in power)


def _bool_row_product(row: int, matrix: list[int]) -> int:
    out = 0
    j = 0
    while row:
        if row & 1:
            out |= matrix[j]
        row >>= 1
        j += 1
    return out


def _dense_primitive(rng: random.Random, k: int) -> tuple[list[list[int]], float]:
    """A random primitive 0/1 matrix of density 1/2 and its Perron root."""
    while True:
        rows = [[int(rng.random() < 0.5) for _ in range(k)] for _ in range(k)]
        if _primitive(rows):
            break
    x = [1.0] * k
    rho_lo, rho_hi = 0.0, float(k)
    for _ in range(10_000):
        y = [sum(x[j] for j in range(k) if rows[i][j]) for i in range(k)]
        ratios = [y[i] / x[i] for i in range(k)]
        rho_lo, rho_hi = min(ratios), max(ratios)  # Collatz-Wielandt bounds
        if rho_hi - rho_lo <= 1e-14 * rho_lo:
            break
        top = max(y)
        x = [v / top for v in y]
    return rows, (rho_lo + rho_hi) / 2


class SftPerron:
    """`sft entropy` on small-gap chord cycles and large-gap dense matrices."""

    def shared_setup(self, shared: Path) -> None:
        pass

    def prepare(self, rng: random.Random, rep: Path, shared: Path) -> list[Op]:
        inputs = [("chord", *_chord_cycle(rng, m)) for m in CHORD_SIZES]
        inputs += [("dense", *_dense_primitive(rng, k)) for k in DENSE_SIZES]
        ops = []
        for k, (tag, rows, rho) in enumerate(inputs):
            path = rep / f"sft{k}.json"
            path.write_text(json.dumps({"alphabet": len(rows), "allowed": rows}))
            for eps in SFT_EPS:
                ops.append(Op(["--format", "json", "sft", "entropy", "--file", str(path), "--eps", eps],
                              tag=tag, info={"entropy": math.log2(rho), "eps": Fraction(eps)}))
        rng.shuffle(ops)
        return ops

    def check(self, ops: list[Op], full: bool) -> Verdict:
        v = Verdict()
        for i, op in enumerate(ops):
            data = _json(op)
            if op.code != 0 or data is None:
                v.fail(i, f"exit {op.code}")
                continue
            lo, hi = Fraction(data["h"][0]), Fraction(data["h"][1])
            if hi - lo > op.info["eps"]:
                v.fail(i, "width exceeds eps")
            ref = op.info["entropy"]
            if not float(lo) - FLOAT_SLACK <= ref <= float(hi) + FLOAT_SLACK:
                v.fail(i, f"enclosure [{float(lo)}, {float(hi)}] misses the float estimate {ref}")
            v.widths.append(float(hi - lo))
        return v


WORKLOADS = {
    "centers_cold": CentersCold(),
    "sandwich_warm": SandwichWarm(),
    "horseshoe_pwl": HorseshoePWL(),
    "sft_perron": SftPerron(),
}


def _run_quiet(main, argv: list[str]) -> int:
    """Run a CLI call whose output the benchmark does not need."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)
