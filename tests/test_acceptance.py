"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
output. Criteria marked with runtime limits assert them.
"""

import math
import time
from fractions import Fraction as F
from itertools import product

import pytest

from entrolab.numkit import RatInterval, log2_enclosure
from entrolab.interval_maps import (
    QuadMap,
    compose_iterate,
    constant_slope_map,
    entropy_via_variation,
    identity_map,
    slope_detect,
    staircase_map,
    tent_map,
    variation,
)
from entrolab.horseshoe import (
    HorseshoeCert,
    SearchBudget,
    check_certificate,
    search_lower_bounds,
)
from entrolab.symbolic import (
    SFT,
    count_words,
    glue_prefix_maps,
    identity_prefix_oracle,
    language_contains,
    prefix_decode,
    prefix_encode,
    shift_prefix_oracle,
    sft_entropy,
)
from entrolab.logistic import (
    CenterCache,
    SandwichBudget,
    enumerate_centers,
    logistic_entropy,
)

GOLDEN = SFT.golden_mean()
H_LOG32 = log2_enclosure(RatInterval.point(F(3, 2)), 26)
PHI_LOG = math.log2((1 + 5**0.5) / 2)


def report(k: int, text: str) -> None:
    print(f"PASS criterion {k}: {text}")


def test_criterion_01_realization_round_trip():
    start = time.monotonic()
    tol = F(1, 1 << 20)
    targets = [
        RatInterval.point(F(1, 2)),
        H_LOG32,
        RatInterval.point(1),
    ]
    for h in targets:
        f = constant_slope_map(h)
        bound = entropy_via_variation(f, 1)
        assert bound.certified
        widened = RatInterval(h.lo - tol, h.hi + tol)
        assert widened.intersects(RatInterval(bound.lo, bound.hi)), (h, bound)
        s = slope_detect(f)
        assert s is not None
        for n in range(1, 11):
            assert variation(compose_iterate(f, n)) == s**n
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(1, f"realize/variation round trip for three targets in {elapsed:.1f}s")


def test_criterion_02_staircase_variation_law():
    start = time.monotonic()
    st3 = staircase_map([H_LOG32, H_LOG32, RatInterval.point(1)])
    prev = None
    for n in range(1, 7):
        e = entropy_via_variation(st3, n)
        mid = (e.lo + e.hi) / 2
        if prev is not None:
            assert mid >= prev, f"estimate dropped at n={n}"
        prev = mid
    assert F(1) - F(15, 100) <= prev <= F(1), float(prev)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(2, f"n=6 estimate {float(prev):.4f} in [0.85, 1], nondecreasing, {elapsed:.1f}s")


def test_criterion_03_horseshoe_stream():
    start = time.monotonic()
    cert = HorseshoeCert(
        (RatInterval(F(3, 10), F(9, 20)), RatInterval(F(11, 20), F(7, 10))), 2
    )
    assert check_certificate(tent_map(), cert) is True
    assert list(search_lower_bounds(identity_map(), SearchBudget(max_n=6))) == []
    records = list(search_lower_bounds(tent_map(), SearchBudget(max_n=12)))
    best = records[-1].bound.lo
    assert best >= F(95, 100), float(best)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(3, f"tent best bound {float(best):.4f} >= 0.95 by n=12, {elapsed:.1f}s")


def test_criterion_04_sft_entropy():
    start = time.monotonic()
    eps = F(1, 10**9)
    e = sft_entropy(GOLDEN, eps)
    assert e.width <= eps
    target = F(6942419136, 10**10)
    assert e.lo <= target <= e.hi
    assert float(e.lo) <= math.log2((1 + 5**0.5) / 2) <= float(e.hi)
    full = sft_entropy(SFT.full_shift(2), eps)
    assert full.lo == full.hi == 1
    loop = sft_entropy(SFT(((1,),)), eps)
    assert loop.lo == loop.hi == 0
    # exact matrix-power brackets at n = 14
    mat = [[1, 1], [1, 0]]
    power = [[1, 0], [0, 1]]
    n = 14
    for _ in range(n):
        power = [
            [sum(power[i][k] * mat[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
    sums = [sum(r) for r in power]
    lo_growth = log2_enclosure(RatInterval.point(min(sums)), 40) / n
    hi_growth = log2_enclosure(RatInterval.point(max(sums)), 40) / n
    assert lo_growth.lo <= e.hi and e.lo <= hi_growth.hi
    for m in range(1, 15):
        growth = log2_enclosure(RatInterval.point(count_words(GOLDEN, m)), 40) / m
        assert growth.hi >= e.lo - eps
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(4, f"golden-mean enclosure width {float(e.width):.2e} <= 1e-9, {elapsed:.1f}s")


def test_criterion_05_centers(session_cache):
    start = time.monotonic()
    result = enumerate_centers(3, cache=session_cache)
    centers = result.centers
    assert len(centers) == 3
    c1, c2, c3 = centers
    assert c1.period == 1 and c1.r_enc.is_point and c1.r_enc.lo == 2
    assert c1.entropy.lo == c1.entropy.hi == 0
    assert c2.period == 2
    assert abs(c2.r_enc.mid - F(32360680, 10**7)) <= F(1, 10**6)
    assert c2.entropy.lo == 0 and c2.entropy.hi <= F(1, 10**6)
    assert c3.period == 3
    assert abs(c3.r_enc.mid - F(38318741, 10**7)) <= F(1, 10**5)
    assert abs(float(c3.entropy.lo) - PHI_LOG) <= 1e-6
    assert abs(float(c3.entropy.hi) - PHI_LOG) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(5, f"three centers with certified data in {elapsed:.1f}s")


def test_criterion_06_sandwich(tmp_path):
    cold_cache = CenterCache(tmp_path / "cold.jsonl")
    start = time.monotonic()
    bound = logistic_entropy(
        F(7, 2), F(1, 32), SandwichBudget(max_period=10), cache=cold_cache
    )
    cold = time.monotonic() - start
    assert bound.width <= F(1, 32)
    assert bound.lo <= 0 <= bound.hi
    assert cold < 300
    start = time.monotonic()
    warm_bound = logistic_entropy(
        F(7, 2), F(1, 32), SandwichBudget(max_period=10), cache=CenterCache(cold_cache.path)
    )
    warm = time.monotonic() - start
    assert warm < 5
    assert warm_bound == bound
    two = logistic_entropy(F(2), F(1, 1 << 10))
    assert two.lo == two.hi == 0
    four = logistic_entropy(F(4), F(1, 1 << 10))
    assert four.lo == four.hi == 1
    report(
        6,
        f"h(7/2) in [{float(bound.lo)}, {float(bound.hi)}], cold {cold:.1f}s, warm {warm:.2f}s",
    )


def test_criterion_07_monotone_consistency(session_cache):
    eps = F(1, 10**7)
    centers = enumerate_centers(6, eps=eps, cache=session_cache).centers
    assert len(centers) >= 10
    ordered = sorted(centers, key=lambda c: c.r_enc.mid)
    for a, b in zip(ordered, ordered[1:]):
        assert a.entropy.lo <= b.entropy.lo + 2 * eps, (
            f"entropy drop between r={float(a.r_enc.mid):.6f} (p={a.period}) "
            f"and r={float(b.r_enc.mid):.6f} (p={b.period})"
        )
    report(7, f"{len(centers)} centers of period <= 6 have nondecreasing entropy")


def test_criterion_08_cantor_encoding():
    start = time.monotonic()
    assert prefix_encode(GOLDEN, "0") == "0"
    assert prefix_encode(GOLDEN, "01") == "01"
    assert prefix_encode(GOLDEN, "010") == "01"
    for length in range(0, 9):
        for bits in product("01", repeat=length):
            b = "".join(bits)
            assert prefix_encode(GOLDEN, prefix_decode(GOLDEN, b)) == b
    for n in range(1, 9):
        words = [w for w in product((0, 1), repeat=n) if language_contains(GOLDEN, w)]
        codes = {prefix_encode(GOLDEN, w) for w in words}
        assert len(codes) == len(words)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(8, f"hand traces, round trip and injectivity to depth 8 in {elapsed:.1f}s")


def test_criterion_09_gluing():
    start = time.monotonic()
    comps = [identity_prefix_oracle(), shift_prefix_oracle(GOLDEN)]
    for m in range(0, 13):
        assert glue_prefix_maps(comps, "0" * m) == "0" * m
    reached: set[str] = set()
    for length in range(0, 13):
        for bits in product("01", repeat=length):
            out = glue_prefix_maps(comps, "".join(bits))
            for m in range(1, len(out) + 1):
                reached.add(out[:m])
    for m in range(1, 9):
        for bits in product("01", repeat=m):
            target = "".join(bits)
            assert target in reached, target
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(9, f"glued map surjective onto prefixes of length <= 8 in {elapsed:.1f}s")


def test_criterion_10_cross_method_consistency(session_cache):
    centers = enumerate_centers(3, cache=session_cache).centers
    c3 = centers[-1]
    assert c3.period == 3
    ceiling = c3.entropy.hi + F(1, 1000)
    quad = QuadMap(RatInterval.point(c3.r_enc.mid))
    records = list(search_lower_bounds(quad, SearchBudget(max_n=8)))
    for record in records:
        assert record.bound.lo <= ceiling, (record.p, record.n, float(record.bound.lo))
    best = records[-1].bound.lo if records else F(0)
    report(
        10,
        f"horseshoe bounds at the period-3 center stay <= log2(phi)+1e-3 "
        f"(best {float(best):.4f})",
    )
