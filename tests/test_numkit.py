import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import entrolab.numkit as numkit
from entrolab.numkit import (
    ENCLOSURE_BITS,
    IterMapExpr,
    RatInterval,
    critical_orbit_expr,
    dyadic_ceil,
    dyadic_floor,
    exp2_enclosure,
    floor_log2,
    format_rational,
    log2_enclosure,
    orbit_mantissas,
    parse_rational,
    refine_root,
    root_isolate,
    simplest_rational_in,
)


def test_parse_and_format():
    assert parse_rational("3/8") == F(3, 8)
    assert parse_rational("3.5") == F(7, 2)
    assert parse_rational("1e-3") == F(1, 1000)
    assert format_rational(F(3, 8)) == "3/8"
    assert format_rational(F(2)) == "2/1"
    with pytest.raises(TypeError):
        parse_rational(0.5)
    for flag in (True, False):
        with pytest.raises(TypeError):
            parse_rational(flag)


def test_parse_decimal_exponent_limit():
    # Fraction builds 10**|e| exactly, so a huge exponent would hang
    assert parse_rational("1e-309") == F(1, 10**309)
    assert parse_rational("2.5E+4300") == F(25 * 10**4299)
    assert parse_rational("1e-0_004_300") == F(1, 10**4300)
    for text in ("1e4301", "1E-4301", "1e999999999", "7e1_000_000", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="decimal exponent"):
            parse_rational(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.tuples(
        st.sampled_from(["", "", "-", "+", "--", " "]),
        st.text(alphabet="0123456789_\u0663\u00b2", max_size=3),
        st.sampled_from(["/", "/", " /", "/ ", "/-", "/+"]),
        st.text(alphabet="0123456789_\u0663", max_size=3),
    ).map("".join),
    st.text(alphabet="0123456789/-+_ .\u0663\u00b2", max_size=12),
))
@example(text="-7/0")
@example(text="--5/3")
@example(text="1/-2")
@example(text=" 1/2")
@example(text="\u0663/\u0663")
def test_parse_rational_matches_fraction(text):
    # "p/q" text takes an integer path that skips Fraction's own parser; a
    # zero denominator is refused with ValueError, where Fraction raises
    # ZeroDivisionError
    expected = _outcome(F, text)
    if expected is ZeroDivisionError:
        expected = ValueError
    assert _outcome(parse_rational, text) == expected


def test_interval_basics():
    iv = RatInterval(F(1, 3), F(1, 2))
    assert iv.width == F(1, 6)
    assert iv.contains(F(2, 5))
    with pytest.raises(ValueError):
        RatInterval(1, 0)
    assert RatInterval.from_json(iv.to_json()) == iv


def test_dyadic_rounding_is_outward():
    q = F(1, 3)
    lo = dyadic_floor(q, 8)
    hi = dyadic_ceil(q, 8)
    assert lo <= q <= hi
    assert hi - lo == F(1, 256)
    assert dyadic_floor(F(1, 4), 8) == dyadic_ceil(F(1, 4), 8) == F(1, 4)


def test_floor_log2():
    assert floor_log2(F(1)) == 0
    assert floor_log2(F(3, 2)) == 0
    assert floor_log2(F(2)) == 1
    assert floor_log2(F(1, 3)) == -2


def test_log2_exact_powers():
    enc = log2_enclosure(RatInterval.point(2), 20)
    assert enc.lo == enc.hi == 1
    enc = log2_enclosure(RatInterval.point(1), 20)
    assert enc.lo == enc.hi == 0
    enc = log2_enclosure(RatInterval.point(F(1, 8)), 20)
    assert enc.lo == enc.hi == -3


def test_log2_width_and_containment():
    enc = log2_enclosure(RatInterval.point(F(3, 2)), 30)
    assert enc.width <= F(1, 1 << 30) * 2
    assert float(enc.lo) <= math.log2(1.5) <= float(enc.hi)
    # golden ratio via a coarse decimal enclosure
    enc = log2_enclosure(RatInterval(F(161803, 100000), F(161804, 100000)), 20)
    assert float(enc.lo) <= 0.69424 <= float(enc.hi) + 1e-5


def test_log2_domain_error():
    with pytest.raises(ValueError):
        log2_enclosure(RatInterval(0, 1), 10)


def test_exp2_brackets_log2():
    # exp2 of the log2 endpoints must bracket the original value
    for q in (F(3, 2), F(7, 5), F(97, 13), F(1, 7)):
        if q < 1:
            continue
        enc = log2_enclosure(RatInterval.point(q), 30)
        s = exp2_enclosure(enc, 30)
        assert s.lo <= q <= s.hi


def test_exp2_exact_integers():
    s = exp2_enclosure(RatInterval.point(1), 24)
    assert s.lo == s.hi == 2
    s = exp2_enclosure(RatInterval.point(0), 24)
    assert s.lo == s.hi == 1


def test_simplest_rational():
    assert simplest_rational_in(F(14, 10), F(16, 10)) == F(3, 2)
    assert simplest_rational_in(F(1, 3), F(1, 3)) == F(1, 3)
    assert simplest_rational_in(F(-1, 2), F(1, 2)) == 0
    assert simplest_rational_in(F(5, 2), F(7, 2)) == 3
    s = simplest_rational_in(F(141421, 100000), F(141422, 100000))
    assert F(141421, 100000) <= s <= F(141422, 100000)
    for q in (F(3, 2), F(22, 7), F(355, 113)):
        assert simplest_rational_in(q - F(1, 10**9), q + F(1, 10**9)) == q


def from_mantissas(pair, den=1):
    """An integer pair (lo, hi) over 2**ENCLOSURE_BITS * den, as
    `evaluate` and `derivative_enclosure` return them, as a RatInterval."""
    scale = (1 << ENCLOSURE_BITS) * den
    return RatInterval(F(pair[0], scale), F(pair[1], scale))


def test_interval_eval_point_consistency():
    # expression r/4 - 1/2 at r = 2 is exactly zero
    expr = critical_orbit_expr(1)
    assert from_mantissas(expr.evaluate(RatInterval.point(2))) == RatInterval.point(0)
    # f_4^2(1/2) - 1/2: 1/2 -> 1 -> 0
    expr = critical_orbit_expr(2)
    assert from_mantissas(expr.evaluate(RatInterval.point(4))) == RatInterval.point(F(-1, 2))


def test_interval_eval_p2_straddles_zero():
    expr = critical_orbit_expr(2)
    enc = from_mantissas(expr.evaluate(RatInterval(3, 4)))
    assert enc.lo < 0 < enc.hi
    # hand endpoint values of f_r^2(1/2) - 1/2 = r^2/4 - r^3/16 - 1/2
    for r in (F(3), F(4)):
        val = r * r / 4 - r**3 / 16 - F(1, 2)
        assert enc.lo <= val <= enc.hi


@settings(max_examples=60, deadline=None)
@given(
    period=st.integers(1, 4),
    lo=st.fractions(min_value=0, max_value=4),
    w1=st.fractions(min_value=0, max_value=1),
    w2=st.fractions(min_value=0, max_value=1),
)
def test_inclusion_monotonicity(period, lo, w1, w2):
    expr = critical_orbit_expr(period)
    hi = min(F(4), lo + w1 + w2)
    outer = RatInterval(lo, hi)
    inner = RatInterval(min(lo + w1 / 2, hi), min(lo + w1 / 2 + w2 / 2, hi))
    big = from_mantissas(expr.evaluate(outer))
    small = from_mantissas(expr.evaluate(inner))
    assert big.lo <= small.lo and small.hi <= big.hi


def exact_value(r, x0, n):
    """f_r^n(x0) - x0 by a plain Fraction loop."""
    x = x0
    for _ in range(n):
        x = r * x * (1 - x)
    return x - x0


@settings(max_examples=60, deadline=None)
@given(period=st.integers(1, 5), q=st.fractions(min_value=0, max_value=4))
def test_point_evaluation_matches_exact(period, q):
    expr = critical_orbit_expr(period)
    enc = from_mantissas(expr.evaluate(RatInterval.point(q)))
    assert enc.contains(exact_value(q, F(1, 2), period))
    assert enc.width <= period * F(1, 1 << 120)
    if enc.lo > 0 or enc.hi < 0:
        assert expr.sign_at(q) == (1 if enc.lo > 0 else -1)


@settings(max_examples=100, deadline=None)
@given(
    period=st.integers(1, 5),
    u=st.fractions(min_value=0, max_value=4, max_denominator=1000),
    v=st.fractions(min_value=0, max_value=4, max_denominator=1000),
)
def test_derivative_enclosure_contains_difference_quotient(period, u, v):
    # by the mean value theorem (F(b) - F(a)) / (b - a) is F' somewhere in (a, b)
    assume(u != v)
    a, b = min(u, v), max(u, v)
    values = [exact_value(t, F(1, 2), period) for t in (a, b)]
    quotient = (values[1] - values[0]) / (b - a)
    slope = critical_orbit_expr(period).derivative_enclosure(RatInterval(a, b))
    assert from_mantissas(slope).contains(quotient)


def test_root_isolate_p1():
    iso = root_isolate(critical_orbit_expr(1), RatInterval(0, 4), F(1, 1000))
    assert len(iso.roots) == 1
    assert iso.roots[0] == RatInterval.point(2)
    assert not iso.unresolved


def test_root_isolate_p2():
    iso = root_isolate(critical_orbit_expr(2), RatInterval(0, 4), F(1, 10**6))
    assert len(iso.roots) == 2
    assert iso.roots[0] == RatInterval.point(2)
    second = iso.roots[1]
    # 1 + sqrt(5): check the defining quadratic changes sign over it
    assert second.lo < 1 + F(1118034, 500000) < second.hi + F(1, 10**5)
    assert (second.lo - 1) ** 2 <= 5 <= (second.hi - 1) ** 2


def test_root_isolate_p3_window():
    iso = root_isolate(
        critical_orbit_expr(3), RatInterval(F(38, 10), F(39, 10)), F(1, 10**5)
    )
    assert len(iso.roots) == 1
    root = iso.roots[0]
    assert F(38318, 10000) <= root.lo and root.hi <= F(38319, 10000)


def test_root_isolate_sign_change_soundness():
    expr = critical_orbit_expr(3)
    iso = root_isolate(expr, RatInterval(0, 4), F(1, 1 << 20))
    for root in iso.roots:
        if root.is_point:
            assert expr.sign_at(root.lo) == 0
        else:
            assert expr.sign_at(root.lo) * expr.sign_at(root.hi) < 0
    # pairwise disjoint
    for a, b in zip(iso.roots, iso.roots[1:]):
        assert a.hi < b.lo


def test_root_isolate_discards_monotone_cell():
    # a floor-width cell next to a period-12 center near r = 3.99573: the
    # closing condition is negative at both endpoints and its slope stays
    # within [-7665, -7653], so the cell holds no root although its value
    # enclosure still straddles 0
    cell = RatInterval(F(8997579199158267, 2**51), F(4498789666687997, 2**50))
    iso = root_isolate(critical_orbit_expr(12), cell, F(1, 1 << 24))
    assert iso.roots == () and iso.unresolved == ()


def test_refine_root():
    expr = critical_orbit_expr(2)
    iso = root_isolate(expr, RatInterval(3, 4), F(1, 100))
    root = refine_root(expr, iso.roots[0], F(1, 10**9))
    assert root.width <= F(1, 10**9)
    assert expr.sign_at(root.lo) * expr.sign_at(root.hi) < 0


@pytest.mark.parametrize("domain", [RatInterval(2, 4), RatInterval(0, 2)], ids=["lo", "hi"])
def test_root_isolate_exact_root_at_domain_endpoint(domain):
    # r/4 - 1/2 vanishes exactly at r = 2, an endpoint of either domain
    iso = root_isolate(critical_orbit_expr(1), domain, F(1, 1 << 16))
    assert iso.roots == (RatInterval.point(2),)
    assert not iso.unresolved


# ---------------------------------------------------------------------------
# The integer kernel against the plain Fraction reference
# ---------------------------------------------------------------------------


def rationals(lo, hi):
    """Rationals in [lo, hi]: dyadic ones, as the root scan makes, and
    others with small or large denominators, as in 383/100."""
    dyadic = st.integers(0, 2 * ENCLOSURE_BITS).flatmap(
        lambda e: st.integers(lo << e, hi << e).map(lambda m: F(m, 1 << e))
    )
    return st.one_of(
        dyadic,
        st.fractions(min_value=lo, max_value=hi, max_denominator=1000),
        st.fractions(min_value=lo, max_value=hi, max_denominator=10**40),
    )


def intervals(lo, hi):
    return st.one_of(
        rationals(lo, hi).map(RatInterval.point),
        st.tuples(rationals(lo, hi), rationals(lo, hi)).map(lambda ab: RatInterval(*sorted(ab))),
    )


def outward(lo, hi):
    return RatInterval(dyadic_floor(lo, ENCLOSURE_BITS), dyadic_ceil(hi, ENCLOSURE_BITS))


def product(a, b):
    """The interval product in Fraction arithmetic."""
    ends = [x * y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return RatInterval(min(ends), max(ends))


def interval_sum(a, b):
    return RatInterval(a.lo + b.lo, a.hi + b.hi)


def x_one_minus_x(x):
    """The exact range of x*(1-x) over the interval x."""
    ends = (x.lo * (1 - x.lo), x.hi * (1 - x.hi))
    return RatInterval(min(ends), F(1, 4) if x.lo <= F(1, 2) <= x.hi else max(ends))


def reference_orbit(r, x0, n):
    """Each step formed exactly in Fraction, clamped to [0, 1], then rounded outward."""
    out = [x0]
    for _ in range(n):
        x = out[-1]
        ends = (x.lo * (1 - x.lo), x.hi * (1 - x.hi))
        g_max = F(1, 4) if x.lo <= F(1, 2) <= x.hi else max(ends)
        products = [a * g for a in (r.lo, r.hi) for g in (min(ends), g_max)]
        out.append(outward(min(max(min(products), 0), 1), min(max(max(products), 0), 1)))
    return out


def reference_derivative(r, n):
    """The chain rule d <- r*(1 - 2*x_k)*d + x_k*(1 - x_k) in Fraction interval arithmetic."""
    d = RatInterval.point(0)
    for xk in reference_orbit(r, RatInterval.point(F(1, 2)), n)[:-1]:
        d = product(product(r, RatInterval(1 - 2 * xk.hi, 1 - 2 * xk.lo)), d)
        d = interval_sum(d, x_one_minus_x(xk))
        d = outward(d.lo, d.hi)
    return d


def reference_sign(r, n):
    x = F(1, 2)
    for _ in range(n):
        x = r * x * (1 - x)
    return (x > F(1, 2)) - (x < F(1, 2))


R0, R4, R04 = RatInterval.point(0), RatInterval.point(4), RatInterval(0, 4)
X0, X1, X01 = RatInterval.point(0), RatInterval.point(1), RatInterval(0, 1)


@settings(max_examples=150, deadline=None)
# the ends of r in [0, 4] and x0 in [0, 1], where the reference's clamp sits
@example(period=6, r=R0, x0=X0)
@example(period=6, r=R0, x0=X1)
@example(period=6, r=R0, x0=X01)
@example(period=6, r=R4, x0=X0)
@example(period=6, r=R4, x0=X1)
@example(period=6, r=R4, x0=X01)
@example(period=6, r=R04, x0=X0)
@example(period=6, r=R04, x0=X1)
@example(period=6, r=R04, x0=X01)
@given(period=st.integers(1, 6), r=intervals(0, 4), x0=intervals(0, 1))
def test_orbit_kernel_equals_fraction_reference(period, r, x0):
    # equal, not merely contained: one exact step, one outward rounding
    want = reference_orbit(r, x0, period)[1:]
    assert [from_mantissas(pair) for pair in orbit_mantissas(r, x0, period)] == want
    expr = critical_orbit_expr(period)
    last = reference_orbit(r, RatInterval.point(F(1, 2)), period)[-1]
    assert from_mantissas(expr.evaluate(r)) == RatInterval(last.lo - F(1, 2), last.hi - F(1, 2))
    assert from_mantissas(expr.derivative_enclosure(r)) == reference_derivative(r, period)
    for t in (r.lo, r.hi):
        assert expr.sign_at(t) == reference_sign(t, period)


@pytest.mark.parametrize(
    "call",
    [
        lambda: orbit_mantissas(RatInterval(3, F(41, 10)), X01, 2),
        lambda: orbit_mantissas(RatInterval.point(F(-1, 10)), X01, 2),
        lambda: orbit_mantissas(R4, RatInterval(F(-1, 100), F(1, 2)), 2),
        lambda: orbit_mantissas(R4, RatInterval.point(F(11, 10)), 2),
        lambda: critical_orbit_expr(3).sign_at(F(5)),
        lambda: critical_orbit_expr(3).sign_at(F(-1, 1 << 200)),
        lambda: critical_orbit_expr(3).evaluate(RatInterval(3, F(41, 10))),
        lambda: critical_orbit_expr(3).evaluate(RatInterval.point(F(-1, 10))),
        lambda: critical_orbit_expr(3).derivative_enclosure(RatInterval(3, F(41, 10))),
        lambda: critical_orbit_expr(3).derivative_enclosure(RatInterval.point(F(-1, 10))),
    ],
    ids=[
        "r-above-4", "r-below-0", "x0-below-0", "x0-above-1", "sign-at-5", "sign-below-0",
        "evaluate-above-4", "evaluate-below-0", "derivative-above-4", "derivative-below-0",
    ],
)
def test_orbit_kernel_refuses_out_of_range(call):
    # outside r in [0, 4] and x0 in [0, 1] a product can be negative or
    # leave [0, 1], which the two-product step does not handle; the kernel's
    # own check is the only one, so it covers every entry point
    with pytest.raises(ValueError):
        call()


def test_sign_at_refuses_a_float():
    with pytest.raises(TypeError):
        critical_orbit_expr(3).sign_at(3.5)


SQRT5_LO = F(math.isqrt(5 << 400), 1 << 200)  # sqrt(5) - 2^-200 < SQRT5_LO < sqrt(5)


@pytest.mark.parametrize(
    "period, r, want",
    [
        (1, F(2), 0),
        (3, F(2), 0),
        (2, 1 + SQRT5_LO, 1),
        (2, 1 + SQRT5_LO + F(1, 1 << 200), -1),
        (4, 1 + SQRT5_LO, 1),
        (4, 1 + SQRT5_LO + F(1, 1 << 200), -1),
    ],
    ids=["r=2-p1", "r=2-p3", "below-1+sqrt5-p2", "above-1+sqrt5-p2", "below-p4", "above-p4"],
)
def test_sign_at_where_the_enclosure_cannot_decide(period, r, want):
    # the 2^-128 point enclosure straddles the root, so the exact recurrence decides
    expr = critical_orbit_expr(period)
    assert from_mantissas(expr.evaluate(RatInterval.point(r))).contains(0)
    assert expr.sign_at(r) == reference_sign(r, period) == want


# ---------------------------------------------------------------------------
# The critical-orbit memo and the scan's early exit
# ---------------------------------------------------------------------------


def dyadic_cells(lo=0, max_e=40):
    """Cells [m, m + 1] * 2^-e in [lo, 4], as the root scan makes them."""
    return st.integers(0, max_e).flatmap(
        lambda e: st.integers(lo << e, (4 << e) - 1).map(
            lambda m: RatInterval(F(m, 1 << e), F(m + 1, 1 << e))
        )
    )


def reference_scan_enclosure(expr, cell):
    """Both enclosures formed in RatInterval arithmetic and intersected on
    every cell, as before the early exit. They come back as (lo, hi) pairs
    of Fractions, whose signs root_isolate reads as it reads the scan's
    integer pairs."""
    plain = from_mantissas(expr.evaluate(cell))
    half = cell.width / 2
    slope = from_mantissas(expr.derivative_enclosure(cell))
    mid = from_mantissas(expr.evaluate(RatInterval.point(cell.mid)))
    centered = interval_sum(mid, product(slope, RatInterval(-half, half)))
    return (max(plain.lo, centered.lo), min(plain.hi, centered.hi)), (slope.lo, slope.hi)


@settings(max_examples=60, deadline=None)
@example(period=9, cell=RatInterval(3, 4), depth=16)
@example(period=8, cell=RatInterval(F(7, 2), 4), depth=16)
@example(period=1, cell=RatInterval(2, 3), depth=1)  # enclosures touch 0 at r = 2
@given(
    period=st.integers(1, 9),
    # most centers lie in [3, 4], where cells are bisected, not discarded
    cell=st.one_of(dyadic_cells(3, 3), dyadic_cells(0, 12)),
    depth=st.integers(1, 16),
)
def test_root_isolate_decisions_match_reference_scan(period, cell, depth):
    expr = critical_orbit_expr(period)
    # on the cell itself: the early exit drops the cells the intersection
    # drops, and gives the same enclosures on the others
    enc, slope = numkit._scan_enclosure(expr, cell)
    ref_enc, ref_slope = reference_scan_enclosure(expr, cell)
    holds_zero = ref_enc[0] <= 0 <= ref_enc[1]
    assert (enc[0] <= 0 <= enc[1]) == holds_zero
    if holds_zero:
        # the intersection comes back over 2**ENCLOSURE_BITS times the
        # denominator of the cell's half-width
        v = (cell.width / 2).denominator
        assert from_mantissas(enc, v) == RatInterval(*ref_enc)
        assert from_mantissas(slope) == RatInterval(*ref_slope)
    # through root_isolate: the scan is depth first, so the sequence of
    # scanned cells records every decision: a bisected cell is followed by
    # its halves, and a discarded one (enclosure without 0, or same-sign
    # endpoints and a monotone cell) by neither
    runs = []
    for scan in (reference_scan_enclosure, numkit._scan_enclosure):
        cells = []

        def recorded(expr, cell, scan=scan, cells=cells):
            cells.append(cell)
            return scan(expr, cell)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(numkit, "_scan_enclosure", recorded)
            iso = root_isolate(expr, cell, cell.width / (1 << depth))
        runs.append((cells, iso))
    assert runs[1] == runs[0]


def test_scan_does_no_interval_arithmetic():
    # the centered form and its intersection with the plain enclosure run
    # on integer mantissas: RatInterval has no arithmetic operators to run
    # them through, and numkit turns no mantissa into a Fraction enclosure
    for name in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        assert not hasattr(RatInterval, name), name
    assert not hasattr(numkit, "_from_mantissas")
    iso = root_isolate(critical_orbit_expr(9), RatInterval(0, 4), F(1, 1 << 24))
    assert len(iso.roots) == 30  # the centers of periods 1, 3 and 9
