"""Exact piecewise-linear self-maps of [0, 1].

Maps are stored as node lists with rational coordinates and linear
interpolation between consecutive nodes. Composition, iteration,
variation, and entropy realization are all exact; the only approximate
object anywhere is a final log2 enclosure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .numkit import (
    PrecisionError,
    RatInterval,
    RationalLike,
    exp2_enclosure,
    format_rational,
    log2_enclosure,
    logistic_step_range,
    parse_rational,
    simplest_rational_in,
)
from .symbolic import EntropyBound, Provenance

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)

DEFAULT_NODE_CAP = 1_000_000


class NodeCapExceeded(RuntimeError):
    """Composition would exceed the configured node budget."""


@dataclass(frozen=True)
class PWLMap:
    """Continuous piecewise-linear map [0,1] -> [0,1] with rational nodes."""

    nodes: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        coerced = tuple((parse_rational(x), parse_rational(y)) for x, y in self.nodes)
        object.__setattr__(self, "nodes", coerced)
        if len(coerced) < 2:
            raise ValueError("a map needs at least two nodes")
        xs = [x for x, _ in coerced]
        if xs[0] != 0 or xs[-1] != 1:
            raise ValueError("node abscissae must start at 0 and end at 1")
        for a, b in zip(xs, xs[1:]):
            if a >= b:
                raise ValueError("node abscissae must be strictly increasing")
        for _, y in coerced:
            if not (0 <= y <= 1):
                raise ValueError("node ordinates must lie in [0, 1]")

    @property
    def xs(self) -> tuple[Fraction, ...]:
        cached = self.__dict__.get("_xs")
        if cached is None:
            cached = tuple(x for x, _ in self.nodes)
            self.__dict__["_xs"] = cached
        return cached

    def segments(self) -> Iterator[tuple[Fraction, Fraction, Fraction, Fraction]]:
        for (x1, y1), (x2, y2) in zip(self.nodes, self.nodes[1:]):
            yield x1, y1, x2, y2

    def eval(self, x: RationalLike) -> Fraction:
        """Exact value of the interpolant at a rational point."""
        x = parse_rational(x)
        if not (0 <= x <= 1):
            raise ValueError("argument outside [0, 1]")
        i = bisect_right(self.xs, x) - 1
        if i == len(self.nodes) - 1:
            return self.nodes[-1][1]
        x1, y1 = self.nodes[i]
        x2, y2 = self.nodes[i + 1]
        return y1 + (y2 - y1) * (x - x1) / (x2 - x1)

    def image_on(self, box: RatInterval) -> RatInterval:
        """Exact image of a subinterval of [0, 1]."""
        ya = self.eval(box.lo)
        yb = self.eval(box.hi)
        lo, hi = min(ya, yb), max(ya, yb)
        i = bisect_right(self.xs, box.lo)
        while i < len(self.nodes) and self.xs[i] < box.hi:
            y = self.nodes[i][1]
            lo = min(lo, y)
            hi = max(hi, y)
            i += 1
        return RatInterval(lo, hi)

    def canonical(self) -> "PWLMap":
        """Drop interior nodes lying exactly on the segment through their
        neighbours."""
        kept = [self.nodes[0]]
        for i in range(1, len(self.nodes) - 1):
            x0, y0 = kept[-1]
            x1, y1 = self.nodes[i]
            x2, y2 = self.nodes[i + 1]
            if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
                continue
            kept.append(self.nodes[i])
        kept.append(self.nodes[-1])
        return PWLMap(tuple(kept))

    def to_json(self) -> dict:
        return {"nodes": [[format_rational(x), format_rational(y)] for x, y in self.nodes]}

    @classmethod
    def from_json(cls, data: dict) -> "PWLMap":
        nodes = data.get("nodes")
        if not isinstance(nodes, list):
            raise ValueError("map JSON needs a 'nodes' array")
        return cls(tuple((parse_rational(x), parse_rational(y)) for x, y in nodes))


def identity_map() -> PWLMap:
    return PWLMap(((_ZERO, _ZERO), (_ONE, _ONE)))


def tent_map() -> PWLMap:
    return PWLMap(((_ZERO, _ZERO), (_HALF, _ONE), (_ONE, _ZERO)))


def compose(outer: PWLMap, inner: PWLMap, node_cap: int = DEFAULT_NODE_CAP) -> PWLMap:
    """Exact composition outer(inner(x)) as a piecewise-linear map.

    The inner segments are walked left to right. A segment [x1, x2] emits
    its left end (x1, outer(y1)), then one node per outer breakpoint gx
    strictly between y1 and y2, ascending when the segment rises and
    descending when it falls. The node sits at x1 + (gx - y1)(x2 - x1)/(y2 - y1),
    where inner equals gx, so its value is the outer ordinate at gx. The
    nodes come out sorted, with no sort and no evaluation of ``inner``.

    Collinear nodes are dropped in the same pass, so the nodes are the ones
    ``canonical()`` keeps. The composition is linear between consecutive
    nodes, so a node drops exactly when the slopes on its two sides agree:
    a breakpoint node when ``outer`` is straight at gx, a segment's left end
    by the cross-multiplication test of ``canonical()`` against the last
    kept node and the next node.

    ``NodeCapExceeded`` is raised after a non-flat segment once the nodes so
    far, counting the right end x = 1, outnumber ``node_cap``.
    """
    oxs = outer.xs
    onodes = outer.nodes
    last = len(onodes) - 1
    # bends[k]: the outer slopes on the two sides of node k differ
    bends = [True] * (last + 1)
    for k in range(1, last):
        (ax, ay), (bx, by), (cx, cy) = onodes[k - 1], onodes[k], onodes[k + 1]
        bends[k] = (by - ay) * (cx - bx) != (cy - by) * (bx - ax)

    def outer_at(y: Fraction) -> tuple[int, Fraction]:
        # (bisect_right(oxs, y), outer(y)), for y in [0, 1]
        j = bisect_right(oxs, y)
        gx, gy = onodes[j - 1]
        if j > last or gx == y:
            return j, gy
        hx, hy = onodes[j]
        return j, gy + (hy - gy) * (y - gx) / (hx - gx)

    kept: list[tuple[Fraction, Fraction]] = []
    # a segment's left end, kept or dropped once the next node is known
    pending: Optional[tuple[Fraction, Fraction]] = None
    count = 1  # nodes emitted so far, plus the right end

    def settle(x: Fraction, y: Fraction) -> None:
        # keep the pending node unless it lies on the segment from the last
        # kept node to the next node (x, y)
        nonlocal pending
        if pending is None:
            return
        (kx, ky), (px, py) = kept[-1], pending
        if (py - ky) * (x - px) != (y - py) * (px - kx):
            kept.append(pending)
        pending = None

    for x1, y1, x2, y2 in inner.segments():
        j, v = outer_at(y1)
        settle(x1, v)
        if kept:
            pending = (x1, v)
        else:
            kept.append((x1, v))
        count += 1
        if y1 == y2:
            continue
        scale = (x2 - x1) / (y2 - y1)
        if y1 < y2:
            ks = range(j, bisect_left(oxs, y2, j))
        else:
            # the breakpoints below y1: oxs[j - 1] itself when it equals y1
            top = j - 1 if oxs[j - 1] == y1 else j
            ks = range(top - 1, bisect_right(oxs, y2, 0, top) - 1, -1)
        for k in ks:
            if pending is None and not bends[k]:
                continue
            gx, gy = onodes[k]
            x = x1 + (gx - y1) * scale
            settle(x, gy)
            if bends[k]:
                kept.append((x, gy))
        count += len(ks)
        if count > node_cap:
            raise NodeCapExceeded(f"composition exceeds {node_cap} nodes")
    end = (_ONE, outer_at(inner.nodes[-1][1])[1])
    settle(*end)
    kept.append(end)
    return PWLMap(tuple(kept))


def compose_iterate(f: PWLMap, n: int, node_cap: int = DEFAULT_NODE_CAP) -> PWLMap:
    """Exact n-th iterate of ``f``."""
    if n < 1:
        raise ValueError("iterate count must be >= 1")
    if n == 1:
        return f
    g = f
    for _ in range(n - 1):
        g = compose(f, g, node_cap)
    return g


def variation(f: PWLMap) -> Fraction:
    """Total rise and fall: sum of |y_{i+1} - y_i| over consecutive nodes."""
    return sum((abs(y2 - y1) for _, y1, _, y2 in f.segments()), _ZERO)


def slope_detect(f: PWLMap) -> Optional[Fraction]:
    """The common absolute slope when every segment has slope +s or -s."""
    s: Optional[Fraction] = None
    for x1, y1, x2, y2 in f.segments():
        m = abs((y2 - y1) / (x2 - x1))
        if s is None:
            s = m
        elif m != s:
            return None
    return s


@dataclass(frozen=True)
class QuadMap:
    """A member x -> r*x*(1-x) of the quadratic family on [0, 1].

    The parameter is a rational or, for algebraic parameters, a rational
    enclosure; images of intervals are exact in the first case and sound
    enclosures in the second.
    """

    r: RatInterval

    def __post_init__(self) -> None:
        r = self.r
        if not isinstance(r, RatInterval):
            r = RatInterval.point(parse_rational(r))
        object.__setattr__(self, "r", r)
        if self.r.lo < 0 or self.r.hi > 4:
            raise ValueError("parameter must lie in [0, 4]")

    @property
    def is_exact(self) -> bool:
        return self.r.is_point

    def eval(self, x: RationalLike) -> Fraction:
        if not self.is_exact:
            raise ValueError("point evaluation needs an exact parameter")
        x = parse_rational(x)
        if not (0 <= x <= 1):
            raise ValueError("argument outside [0, 1]")
        return self.r.lo * x * (1 - x)

    def image_on(self, box: RatInterval) -> RatInterval:
        return logistic_step_range(self.r, box).clamp(_ZERO, _ONE)

    def to_json(self) -> dict:
        if self.is_exact:
            return {"r": format_rational(self.r.lo)}
        return {"r": self.r.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "QuadMap":
        r = data["r"]
        if isinstance(r, str):
            return cls(RatInterval.point(parse_rational(r)))
        return cls(RatInterval.from_json(r))


IntervalMap = Union[PWLMap, QuadMap]


# ---------------------------------------------------------------------------
# Entropy realization
# ---------------------------------------------------------------------------


def constant_slope_map(h: Union[RatInterval, RationalLike], bits: int = 24) -> PWLMap:
    """A three-branch map with every slope +s or -s, s a rational inside the
    certified enclosure of 2**h; its entropy is exactly log2(s).

    For h enclosing 0 the identity map is returned.
    """
    if not isinstance(h, RatInterval):
        h = RatInterval.point(parse_rational(h))
    if h.lo < 0 or h.hi > 1:
        raise ValueError("entropy target must lie within [0, 1]")
    if h.hi == 0:
        return identity_map()
    s_enc = exp2_enclosure(h, bits + 4)
    if s_enc.width > Fraction(1, 1 << bits):
        raise PrecisionError(
            "slope enclosure wider than 2^-bits; tighten the entropy input"
        )
    s = simplest_rational_in(s_enc.lo, s_enc.hi)
    if s <= 1:
        return identity_map()
    x1 = (1 + s) / (4 * s)
    y1 = (1 + s) / 4
    x2 = (3 * s - 1) / (4 * s)
    y2 = (3 - s) / 4
    return PWLMap(((_ZERO, _ZERO), (x1, y1), (x2, y2), (_ONE, _ONE)))


def staircase_map(
    h_values: Sequence[Union[RatInterval, RationalLike]],
    bits: int = 24,
) -> PWLMap:
    """A self-map realizing the largest of a nondecreasing list of entropy
    targets in (0, 1].

    Each target gets its own invariant dyadic block carrying a scaled
    constant-slope copy; the largest target occupies [0, 1/2], followed by
    the smaller ones on blocks of halving width, with the identity on the
    final dyadic tail. The entropy of the result is the maximum of the
    realized per-block values.
    """
    if not h_values:
        raise ValueError("need at least one entropy target")
    targets = []
    for h in h_values:
        if not isinstance(h, RatInterval):
            h = RatInterval.point(parse_rational(h))
        if h.lo <= 0 or h.hi > 1:
            raise ValueError("entropy targets must lie in (0, 1]")
        targets.append(h)
    for a, b in zip(targets, targets[1:]):
        if a.lo > b.lo:
            raise ValueError("entropy targets must be nondecreasing")
    depth = len(targets)
    nodes: list[tuple[Fraction, Fraction]] = [(_ZERO, _ZERO)]
    for k, h in enumerate(reversed(targets)):
        start = 1 - Fraction(1, 1 << k)
        scale = Fraction(1, 1 << (k + 1))
        block = constant_slope_map(h, bits)
        for gx, gy in block.nodes[1:]:
            nodes.append((start + scale * gx, start + scale * gy))
    nodes.append((_ONE, _ONE))
    return PWLMap(tuple(nodes)).canonical()


def entropy_via_variation(
    f: PWLMap,
    n_max: int,
    bits: int = 24,
    node_cap: int = DEFAULT_NODE_CAP,
) -> EntropyBound:
    """Entropy of a piecewise-linear map via the growth of its variation.

    When every segment shares an absolute slope s the limit is exactly
    log2(max(s, 1)) and the bound is certified; otherwise the returned
    record is the finite-stage estimate log2(V(f^n_max)) / n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    s = slope_detect(f)
    if s is not None:
        if s <= 1:
            return EntropyBound(_ZERO, _ZERO, Provenance.VARIATION, certified=True)
        enc = log2_enclosure(RatInterval.point(s), bits)
        return EntropyBound(
            max(_ZERO, enc.lo), max(_ZERO, enc.hi), Provenance.VARIATION, certified=True
        )
    g = compose_iterate(f, n_max, node_cap)
    v = variation(g)
    if v <= 1:
        return EntropyBound(_ZERO, _ZERO, Provenance.VARIATION, certified=False)
    enc = log2_enclosure(RatInterval.point(v), bits)
    return EntropyBound(
        max(_ZERO, enc.lo / n_max),
        max(_ZERO, enc.hi / n_max),
        Provenance.VARIATION,
        certified=False,
    )
