import math
from fractions import Fraction as F

import pytest

from entrolab.numkit import RatInterval, critical_orbit_expr, root_isolate
from entrolab.symbolic import Provenance, sft_entropy
import entrolab.logistic
from entrolab.logistic import (
    DEFAULT_EPS,
    DEFAULT_ROOT_WIDTH,
    DEFAULT_PERIOD_CAP,
    BudgetExceeded,
    CenterCache,
    SandwichBudget,
    collect_brackets,
    enumerate_centers,
    logistic_entropy,
    markov_partition,
    resolve_cache_path,
    _build_center,
)

PHI_LOG = math.log2((1 + 5**0.5) / 2)


@pytest.fixture(scope="module")
def centers3(session_cache):
    return enumerate_centers(3, cache=session_cache).centers


def test_enumerate_centers_periods_1_to_3(centers3):
    assert [c.period for c in centers3] == [1, 2, 3]
    c1, c2, c3 = centers3
    assert c1.exact and c1.r_enc.lo == 2
    assert abs(float(c2.r_enc.mid) - 3.2360680) < 1e-6
    assert abs(float(c3.r_enc.mid) - 3.8318741) < 1e-5


def test_center_entropies(centers3):
    c1, c2, c3 = centers3
    assert c1.entropy.lo == c1.entropy.hi == 0
    assert c2.entropy.hi <= F(1, 10**6)
    assert abs(float(c3.entropy.lo) - PHI_LOG) < 1e-6
    assert abs(float(c3.entropy.hi) - PHI_LOG) < 1e-6


def test_r2_partition(centers3):
    c1 = centers3[0]
    points, sft = markov_partition(c1)
    assert [p.mid for p in points] == [0, F(1, 2), 1]
    assert sft.allowed == ((1, 0), (1, 0))


def test_period3_partition_runs_are_contiguous(centers3):
    c3 = centers3[2]
    points, sft = markov_partition(c3)
    mids = [float(p.mid) for p in points]
    assert abs(mids[1] - 0.1543) < 1e-3
    assert mids[2] == 0.5
    assert abs(mids[3] - 0.9580) < 1e-3
    assert sft.allowed[0] == (1, 1, 0, 0)
    assert sft.allowed[1] == (0, 0, 1, 0)
    assert sft.allowed[2] == (0, 1, 1, 0)
    # every row is one contiguous run of ones
    for row in sft.allowed:
        ones = [i for i, v in enumerate(row) if v]
        assert ones == list(range(ones[0], ones[-1] + 1))


def test_center_entropy_width(centers3):
    e = sft_entropy(centers3[2].sft, F(1, 10**9))
    assert e.width <= F(1, 10**9)
    assert float(e.lo) <= PHI_LOG <= float(e.hi)


def test_primitive_period_filter(centers3):
    # no returned center may sit inside another center's enclosure with a
    # proper-divisor period
    for c in centers3:
        for other in centers3:
            if other.period < c.period and c.period % other.period == 0:
                assert not c.r_enc.intersects(other.r_enc)


def test_build_center_drops_proper_divisor_roots():
    # the orbit of a root of a proper-divisor closing condition never
    # separates; the root is dropped without refining it
    two = RatInterval.point(2)
    for p in range(2, 7):
        assert _build_center(critical_orbit_expr(p), two, p, DEFAULT_EPS) is None
    center = _build_center(critical_orbit_expr(1), two, 1, DEFAULT_EPS)
    assert (center.period, center.r_enc) == (1, two)
    # the period-4 root cell that holds the period-2 center 1 + sqrt(5)
    expr = critical_orbit_expr(4)
    roots = root_isolate(expr, RatInterval(0, 4), DEFAULT_ROOT_WIDTH).roots
    [cell] = [iv for iv in roots if (iv.lo - 1) ** 2 < 5 < (iv.hi - 1) ** 2]
    assert _build_center(expr, cell, 4, DEFAULT_EPS) is None


def test_enumeration_idempotent(session_cache, tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = CenterCache(path)
    first = enumerate_centers(2, cache=cache)
    size1 = path.read_text().count("\n")
    again = enumerate_centers(2, cache=CenterCache(path))
    size2 = path.read_text().count("\n")
    assert size1 == size2
    assert [c.r_enc for c in first.centers] == [c.r_enc for c in again.centers]


def test_cache_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("ENTROLAB_CACHE", str(tmp_path / "env.jsonl"))
    assert resolve_cache_path("/elsewhere.jsonl") == tmp_path / "env.jsonl"
    monkeypatch.delenv("ENTROLAB_CACHE")
    assert resolve_cache_path("/elsewhere.jsonl").name == "elsewhere.jsonl"
    assert resolve_cache_path(None) is None


def test_collect_brackets_sides(session_cache, tmp_path):
    centers = enumerate_centers(8, cache=session_cache).centers
    below, above = collect_brackets(RatInterval.point(F(7, 2)), centers, eps=DEFAULT_EPS)
    assert below.period == 4 and below.entropy.hi == 0 and below.r_enc.hi < F(7, 2)
    assert above.period == 8 and above.entropy.hi == 0 and above.r_enc.lo > F(7, 2)
    # stored entropies coarser than eps are refined for both emitted centers
    coarse = enumerate_centers(4, eps=F(1, 1000), cache=CenterCache(tmp_path / "c.jsonl"))
    assert any(c.entropy.width > DEFAULT_EPS for c in coarse.centers)
    for r in (F(7, 2), F(383, 100)):
        pair = collect_brackets(RatInterval.point(r), coarse.centers, eps=DEFAULT_EPS)
        for c in pair:
            assert c is not None and c.entropy.width <= DEFAULT_EPS


def test_sandwich_refines_only_bracketing_centers(session_cache, monkeypatch):
    enumerate_centers(8, cache=session_cache)  # nothing left to scan below
    calls = []
    periods = []
    sft_entropy_ = entrolab.logistic.sft_entropy
    collect_brackets_ = entrolab.logistic.collect_brackets

    def counted_sft_entropy(*args, **kwargs):
        calls.append(args)
        return sft_entropy_(*args, **kwargs)

    def counted_collect_brackets(*args, **kwargs):
        periods.append(args)
        return collect_brackets_(*args, **kwargs)

    monkeypatch.setattr(entrolab.logistic, "sft_entropy", counted_sft_entropy)
    monkeypatch.setattr(entrolab.logistic, "collect_brackets", counted_collect_brackets)
    try:
        logistic_entropy(
            F(383, 100),
            F(1, 128),
            SandwichBudget(max_period=8),
            cache=session_cache,
            center_eps=F(1, 2**40),  # finer than every stored enclosure
        )
    except BudgetExceeded:
        pass
    # the nearest center below and above the query per period iterated at most
    assert 1 <= len(periods) <= 8
    assert len(calls) <= 2 * len(periods)


def test_stored_refinement_follows_eps(tmp_path):
    # a stored center keeps its last refinement, and only for the eps it was made at
    path = tmp_path / "c.jsonl"
    enumerate_centers(4, eps=F(1, 1000), cache=CenterCache(path))
    stored = CenterCache(path).sorted_centers()
    for eps in (F(1, 2**20), F(1, 2**20), F(1, 2**40), F(1, 2**20)):
        for center in stored:
            assert entrolab.logistic._refined(center, eps) == entrolab.logistic._refined(center.center(), eps)


def test_sandwich_at_7_halves(session_cache):
    bound = logistic_entropy(
        F(7, 2), F(1, 32), SandwichBudget(max_period=10), cache=session_cache
    )
    assert bound.provenance is Provenance.SANDWICH and bound.certified
    assert bound.lo <= 0 <= bound.hi
    assert bound.width <= F(1, 32)


def test_sandwich_nonzero_value_inside_window(session_cache):
    # inside the big period-3 window the entropy is exactly log2(phi):
    # the period-3 center brackets from below and its period-doubled
    # companion from above, pinching the enclosure to center precision
    bound = logistic_entropy(
        F(384, 100), F(1, 100), SandwichBudget(max_period=6), cache=session_cache
    )
    assert float(bound.lo) <= PHI_LOG <= float(bound.hi)
    assert bound.width <= F(1, 10**6)


def test_sandwich_interval_query(session_cache):
    # a query overlapping a center enclosure still brackets from farther out
    bound = logistic_entropy(
        RatInterval(F(349, 100), F(351, 100)),
        F(1, 16),
        SandwichBudget(max_period=10),
        cache=session_cache,
    )
    assert bound.lo <= 0 <= bound.hi and bound.width <= F(1, 16)


def test_sandwich_exact_shortcuts():
    assert logistic_entropy(F(2), F(1, 1000)).interval == RatInterval(0, 0)
    assert logistic_entropy(F(4), F(1, 1000)).interval == RatInterval(1, 1)
    b = logistic_entropy(F(5, 2), F(1, 1000))
    assert b.provenance is Provenance.EXACT


def test_sandwich_budget_exceeded(session_cache):
    with pytest.raises(BudgetExceeded) as err:
        logistic_entropy(
            F(399, 100), F(1, 10**6), SandwichBudget(max_period=3), cache=session_cache
        )
    best = err.value.best
    assert best.lo <= best.hi
    assert not best.certified


def test_sandwich_rejects_bad_inputs():
    with pytest.raises(ValueError):
        logistic_entropy(F(9, 2), F(1, 10))
    with pytest.raises(ValueError):
        logistic_entropy(F(7, 2), F(0))


def test_enumeration_period_cap():
    with pytest.raises(ValueError):
        enumerate_centers(DEFAULT_PERIOD_CAP + 1)
    with pytest.raises(ValueError):
        logistic_entropy(F(16, 5), F(1, 100), SandwichBudget(max_period=DEFAULT_PERIOD_CAP + 1))
    with pytest.raises(ValueError):
        enumerate_centers(0)


def test_monotone_center_entropies(session_cache):
    eps = F(1, 10**7)
    centers = enumerate_centers(6, eps=eps, cache=session_cache).centers
    ordered = sorted(centers, key=lambda c: c.r_enc.mid)
    for a, b in zip(ordered, ordered[1:]):
        assert a.entropy.lo <= b.entropy.lo + 2 * eps


def test_cascade_centers_have_zero_entropy(session_cache):
    centers = enumerate_centers(8, cache=session_cache).centers
    eps = F(1, 10**7)
    cascade = [
        c
        for c in centers
        if c.period in (2, 4, 8) and c.r_enc.hi < F(357, 100)
    ]
    assert {c.period for c in cascade} == {2, 4, 8}
    for c in cascade:
        assert c.entropy.lo == 0
        assert c.entropy.hi <= eps
