"""Horseshoe certificates and the improving-lower-bound search.

A (p, n) certificate consists of p disjoint closed rational intervals
J_1 < ... < J_p such that the n-th iterate image of every J_i strictly
contains the convex hull of all of them; a verified certificate proves
topological entropy >= log2(p)/n. The search streams certificates with
strictly improving bounds; exhausting the budget leaves the best bound
found, which is sound regardless.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, pairwise
from operator import neg
from typing import Iterator, Optional, Sequence

from .numkit import (
    ENCLOSURE_BITS,
    RatInterval,
    dyadic_ceil,
    dyadic_floor,
    json_int,
    log2_enclosure,
    orbit_mantissas,
)
from .interval_maps import (
    BOUND_BITS,
    DEFAULT_NODE_CAP,
    MAX_ITERATE,
    IntervalMap,
    NodeCapExceeded,
    PWLMap,
    QuadMap,
    compose,
    compose_iterate,
)

_ZERO = Fraction(0)

# the default cap on the breakpoints of a quadratic iterate f^n, which
# roughly double per iterate and each cost far more than a piecewise-linear
# node: at r = 4 the stream stops at n = 16
QUAD_NODE_CAP = 1 << 16


@dataclass(frozen=True)
class HorseshoeCert:
    """p >= 2 ordered disjoint compact intervals plus the iterate count."""

    intervals: tuple[RatInterval, ...]
    n: int

    def __post_init__(self) -> None:
        ivs = self.intervals
        if self.n < 1:
            raise ValueError("iterate count must be >= 1")
        if len(ivs) < 2:
            raise ValueError("a certificate needs at least two intervals")
        for iv in ivs:
            if iv.lo < 0 or iv.hi > 1:
                raise ValueError("certificate intervals must lie within [0, 1]")
        for a, b in zip(ivs, ivs[1:]):
            if a.hi >= b.lo:
                raise ValueError("certificate intervals must be disjoint and ordered")

    @property
    def p(self) -> int:
        return len(self.intervals)

    @property
    def hull(self) -> RatInterval:
        return RatInterval(self.intervals[0].lo, self.intervals[-1].hi)

    def to_json(self) -> dict:
        return {"n": self.n, "intervals": [iv.to_json() for iv in self.intervals]}

    @classmethod
    def from_json(cls, data: dict) -> "HorseshoeCert":
        return cls(
            tuple(RatInterval.from_json(iv) for iv in data["intervals"]),
            json_int(data["n"], 1),
        )


@dataclass(frozen=True)
class LowerBoundRecord:
    """A verified certificate together with an enclosure of log2(p)/n."""

    cert: HorseshoeCert
    bound: RatInterval

    def __post_init__(self) -> None:
        if self.bound.lo < 0:
            raise ValueError("lower bounds are nonnegative")

    @property
    def p(self) -> int:
        return self.cert.p

    @property
    def n(self) -> int:
        return self.cert.n


# the grid fallback tries 2^(d-1) (2^d + 1) targets per iterate at depth d:
# 32 896 at the cap, while depth 9 already took 15 s on the tent map at n <= 4
MAX_GRID_DEPTH = 8
# max_n is capped at interval_maps.MAX_ITERATE, the largest iterate composed


@dataclass(frozen=True)
class SearchBudget:
    max_n: int = 8
    max_p: int = 4096
    grid_depth: int = 3

    def __post_init__(self) -> None:
        if self.max_n < 1 or self.max_p < 2 or self.grid_depth < 0:
            raise ValueError("budget out of range")
        if self.grid_depth > MAX_GRID_DEPTH:
            raise ValueError(f"grid depth {self.grid_depth} exceeds the cap of {MAX_GRID_DEPTH}")
        if self.max_n > MAX_ITERATE:
            raise ValueError(f"iterate count {self.max_n} exceeds the cap of {MAX_ITERATE}")


def check_certificate(
    f: IntervalMap,
    cert: HorseshoeCert,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    iterate: PWLMap | None = None,
) -> bool:
    """Check that the n-th iterate image of every J_i strictly contains the hull.

    Piecewise-linear maps are checked exactly on the composed iterate f^n:
    ``iterate`` when the caller passes it (it must be f^n, as for the
    search, which holds each iterate it scans), else composed here. The
    integer image ends of each J_i (``PWLMap.image_ends``) are compared
    with the hull by cross-multiplication. For
    quadratic maps only the endpoints of each J_i are iterated: the
    enclosure of f^n at one endpoint must lie strictly below the hull and
    the one at the other endpoint strictly above it, compared as integer
    mantissas over 2**ENCLOSURE_BITS by cross-multiplication. By the
    intermediate value theorem that proves the containment for every
    parameter in the map's enclosure, so a True verdict is sound for exact
    and enclosure parameters alike. A False verdict may be precision-limited, and it
    rejects a J_i that covers the hull only through an interior fold.
    """
    hull = cert.hull
    if isinstance(f, PWLMap):
        g = iterate if iterate is not None else compose_iterate(f, cert.n, node_cap)
        a, b = hull.lo, hull.hi
        return all(
            lo_n * a.denominator < a.numerator * lo_d and hi_n * b.denominator > b.numerator * hi_d
            for lo_n, lo_d, hi_n, hi_d in map(g.image_ends, cert.intervals)
        )

    # m/2**ENCLOSURE_BITS < p/q exactly when m*q < p << ENCLOSURE_BITS
    lo_d, lo_n = hull.lo.denominator, hull.lo.numerator << ENCLOSURE_BITS
    hi_d, hi_n = hull.hi.denominator, hull.hi.numerator << ENCLOSURE_BITS
    for iv in cert.intervals:
        low, high = sorted(
            orbit_mantissas(f.r, RatInterval.point(x), cert.n)[-1] for x in (iv.lo, iv.hi)
        )
        if not (low[1] * lo_d < lo_n and high[0] * hi_d > hi_n):
            return False
    return True


# ---------------------------------------------------------------------------
# Candidate generation: piecewise-linear maps
# ---------------------------------------------------------------------------


def _runs(ys: Sequence[int]) -> list[tuple[int, int, bool]]:
    """The maximal strictly monotone runs of a map's ordinates, flat segments
    skipped: (first, last, rising), first and last node indices."""
    last = len(ys) - 1
    out: list[tuple[int, int, bool]] = []
    i = 0
    while i < last:
        ya = ys[i]
        if ys[i + 1] == ya:
            i += 1
            continue
        rising = ys[i + 1] > ya
        j = i + 1
        if rising:
            while j < last and ys[j + 1] > ys[j]:
                j += 1
        else:
            while j < last and ys[j + 1] < ys[j]:
                j += 1
        out.append((i, j, rising))
        i = j
    return out


def _preimage(
    g: PWLMap, run: tuple[int, int, bool], lo: int, hi: int, scale: int
) -> tuple[Fraction, Fraction]:
    """Preimage of [lo, hi]/(scale * g.Dy) within a monotone run whose image
    contains it, as its two ends."""
    first, last, rising = run
    X, Y = g.X, g.Y

    def solve(y: int) -> Fraction:
        q = y // scale  # an ordinate Y[k] <= y/scale exactly when Y[k] <= q
        # the segment whose y-span contains y starts at the last node of the
        # run, its end node excluded, on the same side of q as the first
        if rising:
            a = bisect_right(Y, q, first + 1, last) - 1
        else:
            a = bisect_left(Y, -q, first + 1, last, key=neg) - 1
        rise = (Y[a + 1] - Y[a]) * scale
        return Fraction(X[a] * rise + (y - Y[a] * scale) * (X[a + 1] - X[a]), rise * g.Dx)

    return (solve(lo), solve(hi)) if rising else (solve(hi), solve(lo))


def _pwl_candidates(
    g: PWLMap, budget: SearchBudget
) -> Iterator[tuple[int, tuple[RatInterval, ...]]]:
    """Yield (p, intervals) candidates, largest p first, deterministically.

    Branches are the monotone runs of g's integer ordinates. The targets are
    the distinct branch images (the 64 most frequent) and then the dyadic
    grid, as integers over one denominator S = lcm(Dx, Dy, 2^depth) * 2^16,
    so every shrink by 2^-8, 2^-12 or 2^-16 of a target's width is an exact
    shift. A target selects the branches whose image contains it and whose
    domain lies strictly inside it, the first ``max_p`` of them in domain
    order. It takes the first shrink level at which at least two selected
    domains lie strictly inside the shrunken target; those branches are
    picked, and the candidate is their preimages of the shrunken target.
    These are ordered and disjoint: two picked branches share at most a
    turning point x, and g(x), an extreme of both images, lies outside the
    shrunken target, which every image strictly contains.

    Each distinct image keeps the ascending list of its branch indices, and
    only the images are scaled to S. Domains keep their raw ends X[first]
    and X[last], both strictly increasing in the branch index, so the
    domains strictly inside [lo, hi] are one index range, found by
    bisection with exact floor and ceil divisions by sx = S/Dx: X*sx <= lo
    exactly when X <= lo // sx, and X*sx < hi exactly when
    X < -(-hi // sx). A target's selected and picked branches are then
    counted by bisection in the lists of the images that cover it, and the
    picked lists are built only for the p the generator reaches.
    """
    X, Y = g.X, g.Y
    runs = _runs(Y)
    depth = budget.grid_depth
    S = math.lcm(g.Dx, g.Dy, 1 << depth) << 16
    sx, sy = S // g.Dx, S // g.Dy
    # each distinct image with its branch indices ascending; the images,
    # most frequent first, are the first 64 targets
    branches: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
    for k, (i, j, rising) in enumerate(runs):
        branches[(Y[i], Y[j]) if rising else (Y[j], Y[i])].append(k)
    images = [(a * sy, b * sy, ks) for (a, b), ks in branches.items()]
    targets = [(a, b) for a, b, ks in sorted(images, key=lambda im: (-len(im[2]), im[:2]))[:64]]
    if depth > 0:
        step = S >> depth
        denom = 1 << depth
        for i in range(denom):
            for j in range(i + 1, denom + 1):
                targets.append((i * step, j * step))

    def count(lists: list[list[int]], start: int, stop: int) -> int:
        """The branches of ``lists`` with an index in [start, stop)."""
        return sum(bisect_left(ks, stop) - bisect_left(ks, start) for ks in lists)

    firsts = [X[i] for i, _, _ in runs]
    lasts = [X[j] for _, j, _ in runs]
    max_p = budget.max_p
    groups: dict[int, list[tuple[int, int, list[list[int]], int, int]]] = {}
    for lo, hi in targets:
        # the domains strictly inside [lo, hi]: indices in [start, stop)
        start = bisect_right(firsts, lo // sx)
        stop = bisect_left(lasts, -(-hi // sx))
        if stop - start < 2:
            continue
        lists = [ks for a, b, ks in images if a <= lo and hi <= b]
        selected = count(lists, start, stop)
        if selected < 2:
            continue
        if selected > max_p:
            # the cut keeps the first max_p selected branches: move stop to
            # the least index whose prefix counts max_p of them
            low, high = start, stop
            while low < high:
                mid = (low + high) // 2
                if count(lists, start, mid) < max_p:
                    low = mid + 1
                else:
                    high = mid
            stop = low
        width = hi - lo
        for shrink_bits in (8, 12, 16):
            eta = width >> shrink_bits
            ilo, ihi = lo + eta, hi - eta
            # the selected domains strictly inside [ilo, ihi]: indices in
            # [lo_k, hi_k), which counts at most 0 when hi_k < lo_k
            lo_k = bisect_right(firsts, ilo // sx, start, stop)
            hi_k = bisect_left(lasts, -(-ihi // sx), start, stop)
            if (p := count(lists, lo_k, hi_k)) >= 2:
                groups.setdefault(p, []).append((ilo, ihi, lists, lo_k, hi_k))
                break
    for p in sorted(groups, reverse=True):
        # candidates come in the order of their preimage tuples, read off the
        # integers so that only the yielded ones are pulled back. Each
        # preimage lies strictly inside its branch's domain, and domains are
        # ordered, so the first branch orders candidates first; within one
        # branch the preimage of [ilo, ihi] moves with (ilo, ihi) where the
        # branch rises and against it where it falls. Equal first intervals
        # mean equal targets, and the branches then order the rest.
        found: dict[tuple[int, ...], tuple[int, int, list[int]]] = {}
        for ilo, ihi, lists, lo_k, hi_k in groups[p]:
            picked = sorted(
                chain.from_iterable(
                    ks[bisect_left(ks, lo_k) : bisect_left(ks, hi_k)] for ks in lists
                )
            )
            k = picked[0]
            first = (ilo, ihi) if runs[k][2] else (-ihi, -ilo)
            found[(k, *first, *picked[1:])] = (ilo, ihi, picked)
        for key in sorted(found):
            ilo, ihi, picked = found[key]
            yield p, tuple(RatInterval(*_preimage(g, runs[k], ilo, ihi, sy)) for k in picked)


# ---------------------------------------------------------------------------
# Candidate generation: quadratic maps (float-guided, exactly verified)
# ---------------------------------------------------------------------------


def _quad_candidates(
    f: QuadMap, n: int, budget: SearchBudget, node_cap: int
) -> list[tuple[int, tuple[RatInterval, ...]]]:
    """(p, intervals) candidates for f^n, largest p first, from float
    branches of f^n; ``NodeCapExceeded`` once f^n has more than
    ``node_cap`` breakpoints, which roughly double per iterate.

    Each window is pulled back through the branches whose float domain
    (a, b) lies inside it and whose sorted end values lo < hi cover it with
    a margin: as if the branch rose, then shaved and rounded inward to the
    2^-(n+24) grid, which leaves each interval strictly inside (a, b).
    Domains are ordered and disjoint, so each window's intervals are too.
    """
    r = float(f.r.mid)
    if r <= 0:
        return []
    # breakpoints of the n-th iterate: iterated preimages of the critical point
    pts = {0.0, 1.0}
    level = [0.5]
    pts.update(level)
    for _ in range(n - 1):
        nxt = []
        for y in level:
            disc = 0.25 - y / r
            if disc >= 0:
                d = math.sqrt(disc)
                for x in (0.5 - d, 0.5 + d):
                    if 0.0 <= x <= 1.0:
                        nxt.append(x)
        level = nxt
        pts.update(level)
        if len(pts) > node_cap:
            raise NodeCapExceeded(f"iterate exceeds {node_cap} breakpoints")
    bps = sorted(pts)

    def iterate(x: float) -> float:
        for _ in range(n):
            x = r * x * (1.0 - x)
        return x

    ends = [(x, iterate(x)) for x in bps]
    branches = [
        (a, b, *sorted((ya, yb))) for (a, ya), (b, yb) in pairwise(ends) if b - a >= 1e-15
    ]

    results: list[tuple[int, tuple[RatInterval, ...]]] = []
    grid = [2.0 ** -(n + 2), 2.0 ** -(n + 4), 1.0 / 64.0]
    target_list = [(g, 1.0 - g) for g in grid]
    counts = Counter((round(lo, 9), round(hi, 9)) for _, _, lo, hi in branches)
    popular = sorted(counts, key=lambda key: (-counts[key], key))[:16]
    for glo, ghi in popular:
        # pull the certified window slightly inside a common branch image
        eta = (ghi - glo) / 64.0
        target_list.append((glo + eta, ghi - eta))
    bits = n + 24
    for tlo, thi in target_list:
        if thi - tlo < 1e-9:
            continue
        margin = (thi - tlo) * 2.0 ** -(n + 6)
        chosen = []
        for a, b, lo, hi in branches:
            if lo <= tlo - margin and hi >= thi + margin and tlo + margin < a and b < thi - margin:
                chosen.append((a, b, lo, hi))
        if len(chosen) < 2:
            continue
        js = []
        for a, b, lo, hi in chosen[: budget.max_p]:
            # pull the target back through the float branch, then shave
            width = b - a
            span = hi - lo
            u = a + width * ((tlo - lo) / span)
            v = a + width * ((thi - lo) / span)
            shave = (v - u) * 0.05 + 2.0**-bits
            u = dyadic_ceil(Fraction(u + shave), bits)
            v = dyadic_floor(Fraction(v - shave), bits)
            if not u < v:
                break
            js.append(RatInterval(u, v))
        else:
            results.append((len(js), tuple(js)))
    results.sort(key=lambda item: (-item[0], [(iv.lo, iv.hi) for iv in item[1]]))
    return results


# ---------------------------------------------------------------------------
# The search
# ---------------------------------------------------------------------------


def search_lower_bounds(
    f: IntervalMap,
    budget: SearchBudget = SearchBudget(),
    *,
    node_cap: Optional[int] = None,
) -> Iterator[LowerBoundRecord]:
    """Stream verified certificates with strictly improving lower bounds.

    Candidates come from the monotone-branch structure of the iterates
    (plus a dyadic-grid fallback); every emitted certificate has passed the
    exact check. An empty stream means no horseshoe was found within the
    budget, which is the correct outcome for zero-entropy maps.

    A piecewise-linear map's iterates are composed once each, as
    f^n = compose(f^(n-1), f), and each candidate is checked on that f^n.
    When composing f^n would make more than ``node_cap`` cuts (``compose``
    counts them before collinear nodes drop), or for a quadratic map f^n
    would have more than ``node_cap`` breakpoints, the stream raises
    ``NodeCapExceeded`` after the records found before it. The default cap
    is ``DEFAULT_NODE_CAP`` nodes for a piecewise-linear map and
    ``QUAD_NODE_CAP`` breakpoints for a quadratic one. ``budget.max_n`` is
    at most ``MAX_ITERATE``.
    """
    if node_cap is None:
        node_cap = DEFAULT_NODE_CAP if isinstance(f, PWLMap) else QUAD_NODE_CAP
    best: Fraction = _ZERO
    g = f
    for n in range(1, budget.max_n + 1):
        try:
            if isinstance(f, PWLMap):
                if n > 1:
                    g = compose(g, f, node_cap)  # type: ignore[arg-type]
                candidates = _pwl_candidates(g, budget)  # type: ignore[arg-type]
            else:
                candidates = _quad_candidates(f, n, budget, node_cap)
        except NodeCapExceeded as exc:
            raise NodeCapExceeded(f"{exc} at n = {n}") from exc
        for p, intervals in candidates:
            bound = log2_enclosure(RatInterval.point(p), BOUND_BITS) / n
            if bound.lo <= best:
                break  # candidates are sorted by p descending
            cert = HorseshoeCert(intervals, n)
            held = g if isinstance(f, PWLMap) else None  # f^n, composed above
            if check_certificate(f, cert, node_cap=node_cap, iterate=held):
                yield LowerBoundRecord(cert, bound)
                best = bound.lo
                break
