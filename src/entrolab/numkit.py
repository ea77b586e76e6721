"""Exact rationals, rational intervals and certified enclosures.

Everything certified in this package bottoms out here: arbitrary-precision
rationals (`fractions.Fraction`), closed intervals with rational endpoints
(`RatInterval`: comparison predicates and division by a rational, and no
other arithmetic), outward dyadic rounding, enclosures of
log2 and 2**x, and sign-change root isolation for the one iterated
quadratic-family expression, the critical-orbit closing condition
r -> f_r^n(1/2) - 1/2, evaluated step by step (never through expanded
polynomial coefficients).

Orbits of x -> r*x*(1-x), r in [0, 4] and x0 in [0, 1], are enclosed by a
single kernel, `_orbit_mantissas`, in Python integers: r is written as
[a_lo, a_hi]/b, and each step forms its two products exactly over one
denominator and rounds outward once to integer mantissas over
2**ENCLOSURE_BITS, ENCLOSURE_BITS = 128; it is the one check that r and x0
lie in range. `orbit_mantissas`, `IterMapExpr.evaluate` and
`derivative_enclosure` return such mantissa pairs, the last running the
chain rule the same way, and their readers compare the integers.
`read_symbols` is the one exact reader of the signs of f_r^k(1/2) - 1/2 at
a rational r, filtered, then exact: the 2^-128 point enclosure decides each
step that excludes 1/2, and an exact integer recurrence only a step that
straddles it. `IterMapExpr.sign_at` is its last symbol, and `kneading`
reads kneading sequences with it. Every one of these runs
`_orbit_mantissas` once per call. The root
scan forms each cell's centered form on the mantissas; its cells, their
midpoints and half-widths are still `Fraction`s and `RatInterval`s.

No product path runs the root scan (`root_isolate`, `_scan_enclosure`,
`refine_root`, `derivative_enclosure`): centers are located by their
kneading words (`kneading`) and proved by `logistic._prove`. The scan is
kept for the benchmark tracer, which wraps its functions by name, and as
the reference the located cells are tested against.

All functions are pure; all values are immutable and safe to share between
threads or processes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Union

RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# the one working precision of every orbit enclosure
ENCLOSURE_BITS = 128
_SCALE = 1 << ENCLOSURE_BITS
_HALF_MANTISSA = _SCALE >> 1  # 1/2 over _SCALE


# the largest |e| parse_rational accepts in decimal text "...e<e>": Fraction
# builds 10**|e| exactly, which takes seconds at 10**7 and grows about 35-fold
# per digit; 4300 is Python's default limit on the digits of an int in text
_MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


class PrecisionError(ValueError):
    """An enclosure cannot be produced at the requested precision."""


def parse_rational(text: RationalLike) -> Fraction:
    """Parse "p/q", integer, or decimal/scientific text into an exact Fraction.

    Decimal inputs are exact: "3.5" becomes 7/2, never a float, and a bool
    is refused like a float, so a JSON ``true`` is never read as 1. A
    decimal exponent beyond 4300 in absolute value is refused with
    ValueError before any power of ten is formed, and so is a zero
    denominator.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, (float, bool)):
        raise TypeError(
            f"refusing to convert a {type(text).__name__}; pass a string or Fraction"
        )
    if isinstance(text, str):
        match = ("e" in text or "E" in text) and _EXPONENT.search(text)
        if match:
            digits = match.group(1).replace("_", "").lstrip("0")
            if len(digits) > 4 or int(digits or 0) > _MAX_DECIMAL_EXPONENT:
                raise ValueError(
                    f"decimal exponent beyond {_MAX_DECIMAL_EXPONENT} in absolute value"
                )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_interval(data: object) -> tuple[int, int, int, int]:
    """A JSON interval [lo, hi] as its reduced ends (lo_num, lo_den, hi_num,
    hi_den), each end read by parse_rational; lo <= hi is checked."""
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValueError("interval JSON must be a two-element array")
    lo, hi = parse_rational(data[0]), parse_rational(data[1])
    if lo > hi:
        raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
    return lo.numerator, lo.denominator, hi.numerator, hi.denominator


def json_int(value: object, least: int) -> int:
    """A JSON integer >= least; a boolean, string or float is refused, not converted."""
    if type(value) is not int or value < least:
        raise ValueError(f"expected an integer >= {least}, got {value!r}")
    return value


def format_rational(q: Fraction) -> str:
    """Canonical "p/q" form with positive denominator."""
    return f"{q.numerator}/{q.denominator}"


def floor_log2(q: Fraction) -> int:
    """Largest e with 2**e <= q, for q > 0."""
    if q <= 0:
        raise ValueError("floor_log2 requires a positive argument")
    num, den = q.numerator, q.denominator
    # the bit lengths put q in (2^(e-1), 2^(e+1)); one exact compare decides
    e = num.bit_length() - den.bit_length()
    if num << max(0, -e) < den << max(0, e):
        e -= 1
    return e


def dyadic_floor(q: Fraction, bits: int) -> Fraction:
    """Largest multiple of 2**-bits that is <= q."""
    scaled = q * (1 << bits)
    return Fraction(scaled.numerator // scaled.denominator, 1 << bits)


def dyadic_ceil(q: Fraction, bits: int) -> Fraction:
    """Smallest multiple of 2**-bits that is >= q."""
    scaled = q * (1 << bits)
    return Fraction(-((-scaled.numerator) // scaled.denominator), 1 << bits)


@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", parse_rational(self.lo))
        object.__setattr__(self, "hi", parse_rational(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @classmethod
    def point(cls, q: RationalLike) -> "RatInterval":
        q = parse_rational(q)
        return cls(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, q: Fraction) -> bool:
        return self.lo <= q <= self.hi

    def contains_interval(self, other: "RatInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_contains(self, other: "RatInterval") -> bool:
        return self.lo < other.lo and other.hi < self.hi

    def intersects(self, other: "RatInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __truediv__(self, other: object) -> "RatInterval":
        q = parse_rational(other)  # type: ignore[arg-type]
        if q == 0:
            raise ZeroDivisionError("interval divided by zero")
        if q > 0:
            return RatInterval(self.lo / q, self.hi / q)
        return RatInterval(self.hi / q, self.lo / q)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    def to_json(self) -> list[str]:
        return [format_rational(self.lo), format_rational(self.hi)]

    @classmethod
    def from_json(cls, data: list[str]) -> "RatInterval":
        lo_num, lo_den, hi_num, hi_den = parse_interval(data)
        return cls(Fraction(lo_num, lo_den), Fraction(hi_num, hi_den))


# ---------------------------------------------------------------------------
# Certified log2 / exp2
# ---------------------------------------------------------------------------


def _log2_point(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic bracket [lo, hi] of log2(q) with hi - lo <= 2**-bits, q > 0."""
    if q <= 0:
        raise ValueError("log2 requires a positive argument")
    num, den = q.numerator, q.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        # exact power of two
        e = Fraction(num.bit_length() - den.bit_length())
        return e, e
    e = floor_log2(q)
    # the mantissa q / 2^e in [1, 2), as m_num / m_den
    m_num, m_den = (num, den << e) if e >= 0 else (num << -e, den)
    k = bits + 2
    w = k + bits + 8
    # Directed-rounded mantissa brackets at w bits: lo path rounds down,
    # hi path rounds up, so the true value stays between them throughout.
    mlo = (m_num << w) // m_den
    mhi = -((-m_num << w) // m_den)
    elo = ehi = 0
    top = 1 << (w + 1)
    for _ in range(k):
        mlo = (mlo * mlo) >> w
        mhi = -((-mhi * mhi) >> w)
        elo <<= 1
        ehi <<= 1
        while mlo >= top:
            mlo >>= 1
            elo += 1
        while mhi >= top:
            mhi = -((-mhi) >> 1)
            ehi += 1
    return Fraction((e << k) + elo, 1 << k), Fraction((e << k) + ehi + 1, 1 << k)


def log2_enclosure(x: Union[RatInterval, Fraction], bits: int) -> RatInterval:
    """Dyadic interval containing log2 of every point of ``x``.

    The result is at most 2**-bits wider than the exact image. Raises
    ValueError when x reaches 0 or below.
    """
    if not isinstance(x, RatInterval):
        x = RatInterval.point(x)
    if x.lo <= 0:
        raise ValueError("log2 enclosure requires a strictly positive interval")
    lo, _ = _log2_point(x.lo, bits + 1)
    _, hi = _log2_point(x.hi, bits + 1)
    return RatInterval(lo, hi)


def _sqrt_chain(depth: int, w: int) -> list[tuple[int, int]]:
    """Integer brackets (scaled by 2**w) of 2**(2**-m) for m = 0..depth."""
    lo = hi = 2 << w
    chain = [(lo, hi)]
    for _ in range(depth):
        lo = isqrt(lo << w)
        s = isqrt(hi << w)
        hi = s if s * s == (hi << w) else s + 1
        chain.append((lo, hi))
    return chain


def _exp2_unit(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Bracket of 2**q for 0 <= q <= 1."""
    if q == 0:
        return _ONE, _ONE
    if q == 1:
        return Fraction(2), Fraction(2)
    prec = bits + 8
    w = bits + 16
    scale = 1 << w
    scaled = q * (1 << prec)
    ulo = scaled.numerator // scaled.denominator
    uhi = -((-scaled.numerator) // scaled.denominator)
    chain = _sqrt_chain(prec, w)
    plo = phi = scale
    for j in range(prec):
        m = prec - j  # weight 2**(j - prec) -> chain index m
        if (ulo >> j) & 1:
            plo = (plo * chain[m][0]) >> w
        if (uhi >> j) & 1:
            phi = -((-phi * chain[m][1]) >> w)
    if (uhi >> prec) & 1:  # uhi rounded all the way up to 1
        phi = -((-phi * chain[0][1]) >> w)
    return Fraction(plo, scale), Fraction(phi + 1, scale)


def exp2_enclosure(h: Union[RatInterval, Fraction], bits: int) -> RatInterval:
    """Dyadic interval containing 2**t for every t in ``h``; needs h >= 0."""
    if not isinstance(h, RatInterval):
        h = RatInterval.point(h)
    if h.lo < 0:
        raise ValueError("exp2 enclosure requires a nonnegative interval")

    def one_side(q: Fraction) -> tuple[Fraction, Fraction]:
        n = q.numerator // q.denominator
        frac = q - n
        lo, hi = _exp2_unit(frac, bits)
        return lo * (1 << n), hi * (1 << n)

    lo, _ = one_side(h.lo)
    _, hi = one_side(h.hi)
    return RatInterval(lo, hi)


def simplest_rational_in(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the smallest denominator in the closed interval."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    if lo <= 0 <= hi:
        return _ZERO
    if hi < 0:
        return -simplest_rational_in(-hi, -lo)
    # 0 < lo < hi: walk the continued-fraction of the interval.
    p0, q0, p1, q1 = 0, 1, 1, 0  # accumulated mediant transform
    a, b = lo, hi
    while True:
        n = a.numerator // a.denominator  # floor(a)
        ceil_a = -((-a.numerator) // a.denominator)
        if Fraction(ceil_a) <= b:
            n = ceil_a
            num, den = n * p1 + p0, n * q1 + q0
            return Fraction(num, den)
        # same integer part; recurse on reciprocal fractional parts
        p0, q0, p1, q1 = p1, q1, n * p1 + p0, n * q1 + q0
        a, b = 1 / (b - n), 1 / (a - n)


# ---------------------------------------------------------------------------
# Iterated quadratic-family expressions
# ---------------------------------------------------------------------------


def _over_one_denominator(iv: RatInterval) -> tuple[int, int, int]:
    """The endpoints of ``iv`` as integers (lo, hi) over their least common
    denominator, returned third."""
    lo, hi = iv.lo, iv.hi
    den = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


def _x_one_minus_x(lo: int, hi: int, den: int) -> tuple[int, int]:
    """Exact range of x*(1-x) over x in [lo, hi]/den, as integers over
    4*den**2: the endpoint values, and 1/4 at an interior vertex."""
    g_lo, g_hi = 4 * lo * (den - lo), 4 * hi * (den - hi)
    return min(g_lo, g_hi), den * den if 2 * lo <= den <= 2 * hi else max(g_lo, g_hi)


def _mul(a_lo: int, a_hi: int, c_lo: int, c_hi: int) -> tuple[int, int]:
    """Exact range of a*c over the box [a_lo, a_hi] x [c_lo, c_hi]."""
    products = (a_lo * c_lo, a_lo * c_hi, a_hi * c_lo, a_hi * c_hi)
    return min(products), max(products)


def _round_outward(p_lo: int, p_hi: int, q: int) -> tuple[int, int]:
    """[p_lo, p_hi]/q rounded outward to mantissas over 2**ENCLOSURE_BITS."""
    return (p_lo << ENCLOSURE_BITS) // q, -((-p_hi << ENCLOSURE_BITS) // q)


def _orbit_mantissas(
    a_lo: int, a_hi: int, b: int, lo: int, hi: int, den: int, n: int
) -> list[tuple[int, int]]:
    """Integer mantissas over 2**ENCLOSURE_BITS of the enclosures of
    f(x0), ..., f^n(x0) for the family r*x*(1-x), r = [a_lo, a_hi]/b in
    [0, 4] and x0 = [lo, hi]/den in [0, 1]; anything else is refused.

    With x*(1-x) in [g_min, g_max]/(4*den**2), no factor is negative, so
    each step's exact range is [a_lo*g_min, a_hi*g_max] over 4*b*den**2,
    within [0, 1], and is rounded outward once.
    """
    if a_lo < 0 or a_hi > 4 * b or lo < 0 or hi > den:
        raise ValueError(
            f"orbit needs r in [0, 4] and x0 in [0, 1], not r = [{a_lo}, {a_hi}]/{b}"
            f" and x0 = [{lo}, {hi}]/{den}"
        )
    out = []
    for _ in range(n):
        g_min, g_max = _x_one_minus_x(lo, hi, den)
        lo, hi = _round_outward(a_lo * g_min, a_hi * g_max, 4 * b * den * den)
        den = _SCALE
        out.append((lo, hi))
    return out


def orbit_mantissas(r: RatInterval, x0: RatInterval, n: int) -> list[tuple[int, int]]:
    """Enclosures of f(x0), ..., f^n(x0) for the family r*x*(1-x), as
    integer mantissas (lo, hi) over 2**ENCLOSURE_BITS.

    Each step is formed exactly and its endpoints are rounded outward once,
    which caps denominator growth and keeps the enclosures sound. r must
    lie in [0, 4] and x0 in [0, 1].
    """
    return _orbit_mantissas(*_over_one_denominator(r), *_over_one_denominator(x0), n)


def read_symbols(a: int, b: int, n: int) -> tuple[int, ...]:
    """The symbols of f_r^k(1/2), k = 1..n, at r = a/b in [0, 4], b > 0,
    exact: -1, 0 or 1 as the point lies below, at or above 1/2.

    One orbit enclosure at 2**-ENCLOSURE_BITS gives each symbol whose
    enclosure excludes 1/2. Only at a step whose enclosure straddles 1/2 is
    the orbit x = N/D carried exactly up to that step, N <- a*N*(D - N),
    D <- b*D**2, and 2*N compared with D."""
    out = []
    num, den, done = 1, 2, 0  # the exact f^done(1/2) = num/den
    for k, (lo, hi) in enumerate(_orbit_mantissas(a, a, b, 1, 1, 2, n), 1):
        if lo > _HALF_MANTISSA:
            out.append(1)
        elif hi < _HALF_MANTISSA:
            out.append(-1)
        else:
            for _ in range(k - done):
                num, den = a * num * (den - num), b * den * den
            done = k
            out.append((2 * num > den) - (2 * num < den))
    return tuple(out)


@dataclass(frozen=True)
class IterMapExpr:
    """The closing condition r -> f_r^n(1/2) - 1/2 of the critical orbit of
    the quadratic family over r in [0, 4], evaluated without expansion.

    Its roots are the parameters whose critical orbit closes up after n
    steps, that is, the superattracting centers of period dividing n.
    """

    iterations: int
    domain = RatInterval(0, 4)  # the parameters r; a class constant, not a field

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iteration count must be >= 1")

    def evaluate(self, r: RatInterval) -> tuple[int, int]:
        """Enclosure of the expression over ``r``, as integer mantissas
        (lo, hi) over 2**ENCLOSURE_BITS."""
        lo, hi = _orbit_mantissas(*_over_one_denominator(r), 1, 1, 2, self.iterations)[-1]
        return lo - _HALF_MANTISSA, hi - _HALF_MANTISSA

    def sign_at(self, t: Fraction) -> int:
        """Exact sign of the expression at a rational point: the last
        symbol ``read_symbols`` reads there."""
        t = parse_rational(t)
        return read_symbols(t.numerator, t.denominator, self.iterations)[-1]

    def derivative_enclosure(self, r: RatInterval) -> tuple[int, int]:
        """Enclosure of d(expr)/dr over ``r``, as integer mantissas (lo, hi)
        over 2**ENCLOSURE_BITS.

        Chain rule along the orbit: d <- r*(1 - 2*x_k)*d + x_k*(1 - x_k),
        each step formed exactly over 4*b*2**(2*ENCLOSURE_BITS) for
        r = [a_lo, a_hi]/b and rounded outward once.
        """
        a_lo, a_hi, b = _over_one_denominator(r)
        # the first n - 1 steps of the n-step orbit that `evaluate` reads
        orbit = _orbit_mantissas(a_lo, a_hi, b, 1, 1, 2, self.iterations - 1)
        q = 4 * b * _SCALE * _SCALE
        d_lo = d_hi = 0
        for x_lo, x_hi in [(_HALF_MANTISSA, _HALF_MANTISSA), *orbit]:
            # r*(1 - 2x) over b*_SCALE, times d over b*_SCALE**2
            rt_lo, rt_hi = _mul(a_lo, a_hi, _SCALE - 2 * x_hi, _SCALE - 2 * x_lo)
            p_lo, p_hi = _mul(rt_lo, rt_hi, d_lo, d_hi)
            g_min, g_max = _x_one_minus_x(x_lo, x_hi, _SCALE)
            d_lo, d_hi = _round_outward(4 * p_lo + b * g_min, 4 * p_hi + b * g_max, q)
        return d_lo, d_hi


def critical_orbit_expr(period: int) -> IterMapExpr:
    """r -> f_r^period(1/2) - 1/2; roots are parameters where the critical
    orbit closes up with period dividing ``period``."""
    return IterMapExpr(period)


# ---------------------------------------------------------------------------
# Root isolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootIsolation:
    """Result of a root isolation scan.

    ``roots`` are pairwise-disjoint intervals, each either degenerate at an
    exact rational root or carrying a verified sign change at its rational
    endpoints. ``unresolved`` are subintervals at the width floor where a
    sign could not be certified (tangential roots, near misses); they are
    reported, never silently dropped.
    """

    roots: tuple[RatInterval, ...]
    unresolved: tuple[RatInterval, ...]


def _scan_enclosure(
    expr: IterMapExpr, cell: RatInterval
) -> tuple[tuple[int, int], Optional[tuple[int, int]]]:
    """Enclosures of the expression and of its derivative over the cell, as
    integer pairs: the scan reads only their signs.

    The value enclosure is the plain one intersected with the centered form
    at the midpoint. When the plain one already excludes 0 its mantissas
    p over 2**ENCLOSURE_BITS are returned alone, with no derivative: the
    intersection would exclude 0 as well, and the scan reads the derivative
    only of a cell whose enclosure holds 0. With midpoint and slope
    mantissas m and s and a half-width u/v, the centered form over
    2**ENCLOSURE_BITS * v is [m_lo*v - radius, m_hi*v + radius] with
    radius = max(-s_lo, s_hi)*u, and the intersection comes back over that
    denominator, with s.
    """
    p_lo, p_hi = expr.evaluate(cell)
    if p_lo > 0 or p_hi < 0:
        return (p_lo, p_hi), None
    half = cell.width / 2
    u, v = half.numerator, half.denominator
    s_lo, s_hi = expr.derivative_enclosure(cell)
    m_lo, m_hi = expr.evaluate(RatInterval.point(cell.lo + half))
    radius = max(-s_lo, s_hi) * u
    lo = max(p_lo * v, m_lo * v - radius)
    hi = min(p_hi * v, m_hi * v + radius)
    if lo > hi:  # both sound, so a crossing order would be a bug
        raise AssertionError("inconsistent enclosures")
    return (lo, hi), (s_lo, s_hi)


def root_isolate(
    expr: IterMapExpr,
    domain: RatInterval,
    min_width: Fraction,
) -> RootIsolation:
    """Isolate the sign-change roots of ``expr`` on ``domain``.

    Certified interval bisection: cells whose enclosure excludes zero are
    discarded, and so are cells with the same sign at both endpoints whose
    derivative enclosure excludes zero, since the expression is strictly
    monotone there; exact rational roots hit during bisection come back as
    degenerate [q, q] intervals.
    """
    min_width = parse_rational(min_width)
    if min_width <= 0:
        raise ValueError("min_width must be positive")
    if not expr.domain.contains_interval(domain):
        raise ValueError("domain outside expression domain")

    roots: list[RatInterval] = []
    unresolved: list[RatInterval] = []

    def nudge(point: Fraction, direction: int) -> tuple[Fraction, int]:
        step = min_width / 4
        for _ in range(48):
            cand = point + direction * step
            s = expr.sign_at(cand)
            if s != 0:
                return cand, s
            roots.append(RatInterval.point(cand))
            step /= 2
        raise PrecisionError("could not step off a zero of the expression")

    lo, hi = domain.lo, domain.hi
    slo = expr.sign_at(lo)
    if slo == 0:
        roots.append(RatInterval.point(lo))
        lo, slo = nudge(lo, +1)
    shi = expr.sign_at(hi)
    if shi == 0:
        roots.append(RatInterval.point(hi))
        hi, shi = nudge(hi, -1)

    stack: list[tuple[Fraction, Fraction, int, int]] = [(lo, hi, slo, shi)]
    while stack:
        a, b, sa, sb = stack.pop()
        if a >= b:
            continue
        enc, slope = _scan_enclosure(expr, RatInterval(a, b))
        if enc[0] > 0 or enc[1] < 0:
            continue
        if sa == sb and (slope[0] > 0 or slope[1] < 0):
            continue
        w = b - a
        if w <= min_width:
            if sa * sb < 0:
                roots.append(RatInterval(a, b))
            else:
                unresolved.append(RatInterval(a, b))
            continue
        mid = (a + b) / 2
        sm = expr.sign_at(mid)
        if sm == 0:
            roots.append(RatInterval.point(mid))
            m1, s1 = nudge(mid, -1)
            m2, s2 = nudge(mid, +1)
            if s1 == s2:
                # even-order residue around the exact zero; flag the band
                unresolved.append(RatInterval(m1, m2))
            stack.append((a, m1, sa, s1))
            stack.append((m2, b, s2, sb))
        else:
            stack.append((a, mid, sa, sm))
            stack.append((mid, b, sm, sb))

    roots = sorted(set(roots), key=lambda r: (r.lo, r.hi))
    # separate intervals that share an endpoint so the result is disjoint
    changed = True
    while changed:
        changed = False
        for i in range(len(roots) - 1):
            cur, nxt = roots[i], roots[i + 1]
            if cur.hi >= nxt.lo and not (cur.is_point and nxt.is_point):
                if not cur.is_point:
                    roots[i] = refine_root(expr, cur, cur.width / 4)
                if not nxt.is_point:
                    roots[i + 1] = refine_root(expr, nxt, nxt.width / 4)
                changed = True
    unresolved.sort(key=lambda r: (r.lo, r.hi))
    return RootIsolation(tuple(roots), tuple(unresolved))


def refine_root(expr: IterMapExpr, root: RatInterval, target_width: Fraction) -> RatInterval:
    """Shrink a sign-change interval by bisection, preserving the change."""
    if root.is_point:
        return root
    target_width = parse_rational(target_width)
    a, b = root.lo, root.hi
    sa, sb = expr.sign_at(a), expr.sign_at(b)
    if sa * sb >= 0:
        raise ValueError("interval does not carry a sign change")
    while b - a > target_width:
        m = (a + b) / 2
        sm = expr.sign_at(m)
        if sm == 0:
            return RatInterval.point(m)
        if sm == sa:
            a = m
        else:
            b = m
    return RatInterval(a, b)
