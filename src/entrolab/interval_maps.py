"""Exact piecewise-linear self-maps of [0, 1].

Maps are node lists with rational coordinates and linear interpolation
between consecutive nodes, held as integer numerators over one common
denominator per axis. Composition, iteration, evaluation, images,
variation, and entropy realization are all exact integer arithmetic on
those arrays; the only approximate object anywhere is a final log2
enclosure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .numkit import (
    PrecisionError,
    RatInterval,
    RationalLike,
    exp2_enclosure,
    format_rational,
    log2_enclosure,
    parse_rational,
    simplest_rational_in,
)
from .symbolic import EntropyBound, Provenance

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)

DEFAULT_NODE_CAP = 1_000_000

# the largest iterate count composed: on a monotone map the node count of
# f^n grows only linearly, below any node cap, but the bit lengths grow with
# it, so f^n costs about n^3: n = 256 takes about 0.1 s, n = 1000 about 5 s
MAX_ITERATE = 256

# every printed piecewise-linear bound rests on a log2 enclosure at most
# 2^-BOUND_BITS wide: of the slope or variation here, of p in horseshoe log2(p)/n
BOUND_BITS = 32
# a realized slope lies within 2^-_SLOPE_BITS of 2^h
_SLOPE_BITS = 24


class NodeCapExceeded(RuntimeError):
    """Composition would exceed the configured node budget."""


class PWLMap:
    """Continuous piecewise-linear map [0,1] -> [0,1] with rational nodes.

    Node i is (X[i]/Dx, Y[i]/Dy): integer numerators over one denominator
    per axis, the lcm of that axis's reduced denominators, so the arrays are
    unique to the map. Every computation on the map runs on these integers;
    ``nodes`` is the ``Fraction`` view of the same nodes, built on first use.
    """

    __slots__ = ("X", "Dx", "Y", "Dy", "_nodes")

    def __init__(self, nodes: Sequence[tuple[RationalLike, RationalLike]]) -> None:
        coerced = tuple((parse_rational(x), parse_rational(y)) for x, y in nodes)
        self._set(
            *_over_lcm([(x.numerator, x.denominator) for x, _ in coerced]),
            *_over_lcm([(y.numerator, y.denominator) for _, y in coerced]),
        )
        self._nodes = coerced

    @classmethod
    def _from_ints(cls, X: tuple[int, ...], Dx: int, Y: tuple[int, ...], Dy: int) -> "PWLMap":
        """The map with nodes (X[i]/Dx, Y[i]/Dy), for any positive Dx and Dy."""
        g = object.__new__(cls)
        gx, gy = gcd(Dx, *X), gcd(Dy, *Y)
        if gx > 1:
            X, Dx = tuple(v // gx for v in X), Dx // gx
        if gy > 1:
            Y, Dy = tuple(v // gy for v in Y), Dy // gy
        g._set(X, Dx, Y, Dy)
        g._nodes = None
        return g

    def _set(self, X: tuple[int, ...], Dx: int, Y: tuple[int, ...], Dy: int) -> None:
        if len(X) < 2:
            raise ValueError("a map needs at least two nodes")
        if X[0] != 0 or X[-1] != Dx:
            raise ValueError("node abscissae must start at 0 and end at 1")
        for a, b in zip(X, X[1:]):
            if a >= b:
                raise ValueError("node abscissae must be strictly increasing")
        if min(Y) < 0 or max(Y) > Dy:
            raise ValueError("node ordinates must lie in [0, 1]")
        self.X, self.Dx, self.Y, self.Dy = X, Dx, Y, Dy

    @property
    def nodes(self) -> tuple[tuple[Fraction, Fraction], ...]:
        if self._nodes is None:
            Dx, Dy = self.Dx, self.Dy
            self._nodes = tuple(
                (Fraction(x, Dx), Fraction(y, Dy)) for x, y in zip(self.X, self.Y)
            )
        return self._nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PWLMap):
            return NotImplemented
        return (self.Dx, self.Dy, self.X, self.Y) == (other.Dx, other.Dy, other.X, other.Y)

    def __hash__(self) -> int:
        return hash((self.Dx, self.Dy, self.X, self.Y))

    def __repr__(self) -> str:
        return f"PWLMap(nodes={self.nodes!r})"

    def _value(self, x: Fraction) -> tuple[int, int, int]:
        """(i, num, den): X[i] <= x*Dx, with i < len(X) - 1 unless x = 1, and
        the value at x is num/den (den > 0, not reduced)."""
        a, b = x.numerator, x.denominator
        if a < 0 or a > b:
            raise ValueError("argument outside [0, 1]")
        X, Y = self.X, self.Y
        i = bisect_right(X, a * self.Dx // b) - 1
        if i == len(X) - 1:
            return i, Y[i], self.Dy
        w = X[i + 1] - X[i]
        return i, Y[i] * w * b + (Y[i + 1] - Y[i]) * (a * self.Dx - X[i] * b), w * b * self.Dy

    def eval(self, x: RationalLike) -> Fraction:
        """Exact value of the interpolant at a rational point."""
        _, num, den = self._value(parse_rational(x))
        return Fraction(num, den)

    def image_ends(self, box: RatInterval) -> tuple[int, int, int, int]:
        """(lo_n, lo_d, hi_n, hi_d): the exact image of a subinterval of
        [0, 1] is [lo_n/lo_d, hi_n/hi_d], the least and greatest of the
        values at its ends and at the nodes strictly inside it (a node at
        its right end is taken too, which changes nothing). The
        denominators are positive and the fractions not reduced."""
        i, lo_n, lo_d = self._value(box.lo)
        j, hi_n, hi_d = self._value(box.hi)
        if lo_n * hi_d > hi_n * lo_d:
            lo_n, lo_d, hi_n, hi_d = hi_n, hi_d, lo_n, lo_d
        if i < j:
            inside = self.Y[i + 1 : j + 1]
            low, high = min(inside), max(inside)
            if low * lo_d < lo_n * self.Dy:
                lo_n, lo_d = low, self.Dy
            if high * hi_d > hi_n * self.Dy:
                hi_n, hi_d = high, self.Dy
        return lo_n, lo_d, hi_n, hi_d

    def canonical(self) -> "PWLMap":
        """Drop interior nodes lying exactly on the segment through their
        neighbours."""
        X, Y = self.X, self.Y
        kept = [0]
        for i in range(1, len(X) - 1):
            k = kept[-1]
            if (Y[i] - Y[k]) * (X[i + 1] - X[i]) != (Y[i + 1] - Y[i]) * (X[i] - X[k]):
                kept.append(i)
        kept.append(len(X) - 1)
        return PWLMap._from_ints(
            tuple(X[i] for i in kept), self.Dx, tuple(Y[i] for i in kept), self.Dy
        )

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
    its left end (x1, outer(y1)), then one node per outer bend gx strictly
    between y1 and y2, ascending when the segment rises and descending when
    it falls. The node sits at x1 + (gx - y1)(x2 - x1)/(y2 - y1), where
    inner equals gx, so its value is the outer ordinate at gx. The nodes
    come out sorted, with no sort and no evaluation of ``inner``.

    The walk runs on integers, and apart from the nodes it emits, an
    inner segment costs a few bisections and two gcds. The outer abscissae
    and the inner ordinates are rescaled once to one denominator, and the
    outer bends (the nodes where the outer slopes on the two sides differ)
    are listed once. A segment's bends are one slice of that list, found by two
    bisections and reversed when the segment falls. With the segment's
    run/rise in lowest terms, their abscissae are one affine image of the
    slice over one denominator, rise times the inner denominator, and
    their ordinates are copied from ``outer.Y``. Each block of nodes keeps
    its own denominator, and the result is put over the lcm of those on
    each axis, which ``PWLMap._from_ints`` reduces.

    Collinear nodes are dropped in the same pass, so the nodes are the ones
    ``canonical()`` keeps. The composition is linear between consecutive
    nodes and bends exactly at the outer bends inside a rising or falling
    segment, so those are kept, the outer's straight nodes never appear,
    and a segment's left end drops by the cross-multiplication test of
    ``canonical()`` against the last kept node and the next node.

    The node cap counts cuts: after a non-flat segment, the segment left
    ends so far, the outer nodes strictly inside each non-flat segment's
    image (bends or not) and the right end x = 1. ``NodeCapExceeded`` is
    raised once that count exceeds ``node_cap``.
    """
    D = lcm(inner.Dy, outer.Dx)
    scale = D // outer.Dx
    OX, OY, ody = outer.X, outer.Y, outer.Dy
    oxs = [v * scale for v in OX]
    last = len(OX) - 1
    bends = [
        k
        for k in range(1, last)
        if (OY[k] - OY[k - 1]) * (OX[k + 1] - OX[k]) != (OY[k + 1] - OY[k]) * (OX[k] - OX[k - 1])
    ]
    bxs = [oxs[k] for k in bends]
    bys = [OY[k] for k in bends]

    def outer_at(y: int) -> tuple[int, int]:
        # outer(y/D) as a reduced pair, for y in [0, D]
        j = bisect_right(oxs, y)
        if j > last or oxs[j - 1] == y:
            return _reduced(OY[j - 1], ody)
        gx, w = oxs[j - 1], oxs[j] - oxs[j - 1]
        return _reduced(OY[j - 1] * w + (OY[j] - OY[j - 1]) * (y - gx), w * ody)

    IX, idx = inner.X, inner.Dx
    scale = D // inner.Dy
    iys = [v * scale for v in inner.Y]
    # the kept nodes in order, as blocks (x den, x nums, y den, y nums)
    blocks: list[tuple[int, list[int], int, list[int]]] = []
    # the last kept node, and a segment's left end that is kept or dropped
    # once the next node is known, each as (x num, x den, y num, y den)
    kept = pending = None
    count = 1  # cuts so far, plus the right end

    def settle(node):
        # keep the pending node unless it lies on the segment from the last
        # kept node to the next node
        nonlocal kept, pending
        if pending is None:
            return
        kxn, kxd, kyn, kyd = kept
        pxn, pxd, pyn, pyd = pending
        xn, xd, yn, yd = node
        rise_in = pyn * kyd - kyn * pyd  # (py - ky) * pyd * kyd
        run_out = xn * pxd - pxn * xd  # (x - px) * xd * pxd
        rise_out = yn * pyd - pyn * yd  # (y - py) * yd * pyd
        run_in = pxn * kxd - kxn * pxd  # (px - kx) * pxd * kxd
        if rise_in * run_out * yd * kxd != rise_out * run_in * kyd * xd:
            blocks.append((pxd, [pxn], pyd, [pyn]))
            kept = pending
        pending = None

    for i in range(len(IX) - 1):
        x1, y1, y2 = IX[i], iys[i], iys[i + 1]
        yn, yd = outer_at(y1)
        node = (x1, idx, yn, yd)
        if kept is None:
            blocks.append((idx, [x1], yd, [yn]))
            kept = node
        else:
            settle(node)
            pending = node
        count += 1
        if y1 == y2:
            continue
        lo, hi = (y1, y2) if y1 < y2 else (y2, y1)
        count += bisect_left(oxs, hi) - bisect_right(oxs, lo)
        a, b = bisect_right(bxs, lo), bisect_left(bxs, hi)
        if a < b:
            # x(gx) = (x1 * rise + (gx - y1) * run) / (rise * idx), for the
            # segment's run/rise in lowest terms with rise > 0
            run, rise = _reduced(IX[i + 1] - x1, y2 - y1)
            base, den = x1 * rise - y1 * run, rise * idx
            gxs, gys = bxs[a:b], bys[a:b]
            if y1 > y2:
                gxs.reverse()
                gys.reverse()
            xs = [base + run * v for v in gxs]
            settle((xs[0], den, gys[0], ody))
            blocks.append((den, xs, ody, gys))
            kept = (xs[-1], den, gys[-1], ody)
        if count > node_cap:
            raise NodeCapExceeded(f"composition exceeds {node_cap} nodes")
    yn, yd = outer_at(iys[-1])
    settle((1, 1, yn, yd))
    blocks.append((1, [1], yd, [yn]))
    Dx = lcm(*{xd for xd, _, _, _ in blocks})
    Dy = lcm(*{yd for _, _, yd, _ in blocks})
    X: list[int] = []
    Y: list[int] = []
    for xd, xs, yd, ys in blocks:
        X.extend(xs if xd == Dx else [v * (Dx // xd) for v in xs])
        Y.extend(ys if yd == Dy else [v * (Dy // yd) for v in ys])
    return PWLMap._from_ints(tuple(X), Dx, tuple(Y), Dy)


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, with den > 0."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _over_lcm(fracs: list[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """The numerators of the fractions num/den over the lcm D of their
    denominators, and D."""
    factor = dict.fromkeys(d for _, d in fracs)
    D = lcm(*factor)
    for d in factor:
        factor[d] = D // d
    return tuple(n * factor[d] for n, d in fracs), D


def compose_iterate(f: PWLMap, n: int, node_cap: int = DEFAULT_NODE_CAP) -> PWLMap:
    """Exact n-th iterate of ``f``, built as f^k = compose(f^(k-1), f).

    The outer map is the long one, so each step walks only f's few segments
    and emits f^(k-1)'s bends inside each segment's image as one slice.
    ``node_cap`` bounds each step's cuts as ``compose`` counts them.
    """
    if n < 1:
        raise ValueError("iterate count must be >= 1")
    if n == 1:
        return f
    g = f
    for _ in range(n - 1):
        g = compose(g, f, node_cap)
    return g


def variation(f: PWLMap) -> Fraction:
    """Total rise and fall: sum of |y_{i+1} - y_i| over consecutive nodes."""
    Y = f.Y
    return Fraction(sum(abs(b - a) for a, b in zip(Y, Y[1:])), f.Dy)


def slope_detect(f: PWLMap) -> Optional[Fraction]:
    """The common absolute slope when every segment has slope +s or -s."""
    X, Y = f.X, f.Y
    run, rise = X[1] - X[0], abs(Y[1] - Y[0])
    for i in range(1, len(X) - 1):
        if abs(Y[i + 1] - Y[i]) * run != rise * (X[i + 1] - X[i]):
            return None
    return Fraction(rise * f.Dx, run * f.Dy)


@dataclass(frozen=True)
class QuadMap:
    """A member x -> r*x*(1-x) of the quadratic family on [0, 1].

    The parameter is a ``RatInterval``: a point for a rational r, and a
    rational enclosure otherwise, as for algebraic parameters; orbits are
    enclosed for every parameter in it alike (``numkit.orbit_mantissas``).
    """

    r: RatInterval

    def __post_init__(self) -> None:
        if self.r.lo < 0 or self.r.hi > 4:
            raise ValueError("parameter must lie in [0, 4]")

    def to_json(self) -> dict:
        if self.r.is_point:
            return {"r": format_rational(self.r.lo)}
        return {"r": self.r.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "QuadMap":
        r = data["r"]
        if isinstance(r, list):
            return cls(RatInterval.from_json(r))
        return cls(RatInterval.point(parse_rational(r)))


IntervalMap = Union[PWLMap, QuadMap]


# ---------------------------------------------------------------------------
# Entropy realization
# ---------------------------------------------------------------------------


def constant_slope_map(h: Union[RatInterval, RationalLike]) -> PWLMap:
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
    s_enc = exp2_enclosure(h, _SLOPE_BITS + 4)
    if s_enc.width > Fraction(1, 1 << _SLOPE_BITS):
        raise PrecisionError(
            f"slope enclosure wider than 2^-{_SLOPE_BITS}; tighten the entropy input"
        )
    s = simplest_rational_in(s_enc.lo, s_enc.hi)
    if s <= 1:
        return identity_map()
    x1 = (1 + s) / (4 * s)
    y1 = (1 + s) / 4
    x2 = (3 * s - 1) / (4 * s)
    y2 = (3 - s) / 4
    return PWLMap(((_ZERO, _ZERO), (x1, y1), (x2, y2), (_ONE, _ONE)))


def staircase_map(h_values: Sequence[Union[RatInterval, RationalLike]]) -> PWLMap:
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
        block = constant_slope_map(h)
        for gx, gy in block.nodes[1:]:
            nodes.append((start + scale * gx, start + scale * gy))
    nodes.append((_ONE, _ONE))
    return PWLMap(tuple(nodes)).canonical()


def entropy_via_variation(
    f: PWLMap,
    n_max: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> EntropyBound:
    """Entropy of a piecewise-linear map via the growth of its variation.

    When every segment shares an absolute slope s the limit is exactly
    log2(max(s, 1)) and the bound is certified; otherwise the returned
    record is the finite-stage estimate log2(V(f^n_max)) / n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > MAX_ITERATE:
        raise ValueError(f"iterate count {n_max} exceeds the cap of {MAX_ITERATE}")
    s = slope_detect(f)
    if s is not None:
        if s <= 1:
            return EntropyBound(_ZERO, _ZERO, Provenance.VARIATION, certified=True)
        # s > 1, so both ends are >= 0
        enc = log2_enclosure(RatInterval.point(s), BOUND_BITS)
        return EntropyBound(enc.lo, enc.hi, Provenance.VARIATION, certified=True)
    g = compose_iterate(f, n_max, node_cap)
    v = variation(g)
    if v <= 1:
        return EntropyBound(_ZERO, _ZERO, Provenance.VARIATION, certified=False)
    enc = log2_enclosure(RatInterval.point(v), BOUND_BITS)  # v > 1: ends >= 0
    return EntropyBound(enc.lo / n_max, enc.hi / n_max, Provenance.VARIATION, certified=False)
