import functools
import json
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrolab.numkit import RatInterval, critical_orbit_expr, format_rational, root_isolate
from entrolab.symbolic import SFT, EntropyBound, Provenance, sft_entropy
import entrolab.logistic
from entrolab.logistic import (
    CENTER_EPS,
    DEFAULT_EPS,
    DEFAULT_ROOT_WIDTH,
    DEFAULT_PERIOD_CAP,
    BudgetExceeded,
    Center,
    CenterCache,
    SandwichBudget,
    collect_brackets,
    enumerate_centers,
    logistic_entropy,
    markov_partition,
    _ends,
    _markov_data,
    _prove,
    _Stored,
    _transitions,
)
from test_numkit import from_mantissas, reference_orbit

PHI_LOG = math.log2((1 + 5**0.5) / 2)


def _held(cache):
    """The records of the cache's per-period index in file order, those
    added after the load last."""
    records = (c for held in cache._by_period.values() for c in held)
    return sorted(records, key=lambda c: c._line or math.inf)


@pytest.fixture(scope="module")
def centers3(session_cache):
    return enumerate_centers(3, cache=session_cache).centers


def test_enumerate_centers_periods_1_to_3(centers3):
    assert [c.period for c in centers3] == [1, 2, 3]
    c1, c2, c3 = centers3
    assert c1.r_enc.is_point and c1.r_enc.lo == 2
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


def test_prove_rejects_proper_divisor_roots():
    # the orbit of a root of a proper-divisor closing condition never
    # separates; the proof fails on its cell
    two = (2, 1, 2, 1)
    for p in range(2, 7):
        with pytest.raises(ValueError):
            _prove(p, two)
    assert _prove(1, two) == (0,)
    # the period-4 root cell that holds the period-2 center 1 + sqrt(5)
    expr = critical_orbit_expr(4)
    roots = root_isolate(expr, RatInterval(0, 4), DEFAULT_ROOT_WIDTH).roots
    [cell] = [iv for iv in roots if (iv.lo - 1) ** 2 < 5 < (iv.hi - 1) ** 2]
    with pytest.raises(ValueError):
        _prove(4, _ends(cell.lo, cell.hi))


def test_enumeration_idempotent(session_cache, tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = CenterCache(path)
    first = enumerate_centers(2, cache=cache)
    size1 = path.read_text().count("\n")
    again = enumerate_centers(2, cache=CenterCache(path))
    size2 = path.read_text().count("\n")
    assert size1 == size2
    assert [c.r_enc for c in first.centers] == [c.r_enc for c in again.centers]


def test_collect_brackets_sides(session_cache, tmp_path):
    enumerate_centers(8, cache=session_cache)
    below, above = (
        c.center(DEFAULT_EPS)
        for c in collect_brackets(RatInterval.point(F(7, 2)), _held(session_cache))
    )
    assert below.period == 4 and below.entropy.hi == 0 and below.r_enc.hi < F(7, 2)
    assert above.period == 8 and above.entropy.hi == 0 and above.r_enc.lo > F(7, 2)
    # a cache written at a coarse eps: the picked records' entropies at eps
    # are no wider than eps
    path = tmp_path / "c.jsonl"
    coarse = enumerate_centers(4, eps=F(1, 1000), cache=CenterCache(path))
    assert any(c.entropy.width > DEFAULT_EPS for c in coarse.centers)
    for r in (F(7, 2), F(383, 100)):
        pair = collect_brackets(RatInterval.point(r), _held(CenterCache(path)))
        for c in pair:
            assert c is not None and c.center(DEFAULT_EPS).entropy.width <= DEFAULT_EPS


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
            F(1, 2**38),  # centers at 2^-40, finer than the enumeration's
            SandwichBudget(max_period=8),
            cache=session_cache,
        )
    except BudgetExceeded:
        pass
    # the nearest center below and above the query per period iterated at most
    assert 1 <= len(periods) <= 8
    assert len(calls) <= 2 * len(periods)


def test_stored_refinement_follows_eps(tmp_path):
    # a stored center's entropy follows the eps asked, whatever eps came
    # before: it is sft_entropy of the SFT rebuilt from the proved order
    path = tmp_path / "c.jsonl"
    enumerate_centers(4, eps=F(1, 1000), cache=CenterCache(path))
    stored = _held(CenterCache(path))
    for eps in (F(1, 2**20), F(1, 2**20), F(1, 2**40), F(1, 2**20)):
        for center in stored:
            got = center.center(eps)
            assert got.sft == _transitions(got.orbit_order)
            assert got.entropy == sft_entropy(got.sft, eps)


def test_center_memos_stay_bounded(tmp_path, monkeypatch):
    # each memo is bounded; with room for two entries, each evicts one, and
    # an evicted center is proved again from its record, to the same result
    memos = ("_prove", "_center_model")
    for name in memos:
        assert getattr(entrolab.logistic, name).cache_info().maxsize == 1024
    path = tmp_path / "c.jsonl"
    want = enumerate_centers(5, cache=CenterCache(path)).centers
    for name in memos:
        memo = getattr(entrolab.logistic, name)
        small = functools.lru_cache(maxsize=2)(memo.__wrapped__)
        monkeypatch.setattr(entrolab.logistic, name, small)
    for _ in range(2):
        assert enumerate_centers(5, cache=CenterCache(path)).centers == want
    for name in memos:
        assert getattr(entrolab.logistic, name).cache_info().currsize == 2


def _reference_bracket(query, centers):
    """The bracket rule before the pair was carried across periods: sort
    every center by (r_enc.lo, period), then take the first with the
    greatest r_enc.hi below the query and the first with the least r_enc.lo
    above it."""
    ordered = sorted(centers, key=lambda c: (c.r_enc.lo, c.period))
    below = [c for c in ordered if c.r_enc.hi < query.lo]
    above = [c for c in ordered if c.r_enc.lo > query.hi]
    return (
        max(below, key=lambda c: c.r_enc.hi) if below else None,
        min(above, key=lambda c: c.r_enc.lo) if above else None,
    )


def _reference_sandwich(query, eps, max_period, centers_upto):
    """The sandwich before the pair was carried across periods: each period
    p rescans all centers of period <= p, which ``centers_upto(p)`` returns
    refined to the center eps. Returns the bound, certified or not."""
    lo, hi = F(0), F(1)
    for p in range(1, max_period + 1):
        below, above = _reference_bracket(query, centers_upto(p))
        if below is not None:
            lo = max(lo, below.entropy.lo)
        if above is not None:
            hi = min(hi, above.entropy.hi)
        if hi - lo <= eps * F(9, 10):
            return EntropyBound(lo, hi, Provenance.SANDWICH, certified=True)
    return EntropyBound(lo, hi, Provenance.SANDWICH, certified=False)


def _sandwich(query, eps, max_period, cache):
    try:
        return logistic_entropy(query, eps, SandwichBudget(max_period=max_period), cache=cache)
    except BudgetExceeded as exc:
        return exc.best


@pytest.fixture(scope="module")
def period_9_scan(tmp_path_factory):
    path = tmp_path_factory.mktemp("p9") / "c.jsonl"
    return path, enumerate_centers(9, cache=CenterCache(path)).centers


@pytest.fixture(scope="module")
def period_9_cache_path(period_9_scan):
    return period_9_scan[0]


def _inline_transitions(ranks):
    """Reference: the transition rows as the scan once built them inline
    from the sorted orbit, raising AssertionError on an empty run."""
    period = len(ranks)
    position = {k: ranks[k - 1] + 1 for k in range(1, period + 1)}
    ordered = sorted(position, key=position.get)  # orbit indices by position
    point_count = period + 2

    def sigma(i):
        if i == 0 or i == point_count - 1:
            return 0  # both endpoints map to the fixed point 0
        k = ordered[i - 1]
        succ = k + 1 if k < period else 1
        return position[succ]

    c_idx = position[period]
    rows = [[0] * (period + 1) for _ in range(period + 1)]
    for j in range(period + 1):
        increasing = (j + 1) <= c_idx
        if increasing:
            lo_t, hi_t = sigma(j), sigma(j + 1) - 1
        else:
            lo_t, hi_t = sigma(j + 1), sigma(j) - 1
        if lo_t > hi_t:
            raise AssertionError("empty transition run; ordering is inconsistent")
        for t in range(lo_t, hi_t + 1):
            rows[j][t] = 1
    return SFT(tuple(tuple(r) for r in rows))


@settings(max_examples=300, deadline=None)
@given(ranks=st.integers(1, 12).flatmap(lambda n: st.permutations(range(n))))
@example(ranks=(0,))
@example(ranks=(4, 0, 2, 3, 1))
@example(ranks=(0, 1, 2, 3))
def test_transitions_match_inline_reference(ranks):
    # a permutation either gives the reference's rows or, where the
    # reference finds an empty run, a ValueError; nothing else is raised
    try:
        want = _inline_transitions(ranks)
    except AssertionError:
        with pytest.raises(ValueError):
            _transitions(ranks)
    else:
        assert _transitions(ranks) == want


def _reference_markov_data(r_enc, period):
    """``_markov_data`` in Fraction: the Fraction orbit enclosures of f(c),
    ..., f^{p-1}(c) and c = 1/2 itself, sorted, checked for separation, and
    the rows built from their order; None where they do not separate."""
    half = RatInterval.point(F(1, 2))
    orbit = [*reference_orbit(r_enc, half, period - 1)[1:], half]
    if any(iv.lo <= 0 or iv.hi >= 1 for iv in orbit):
        return None
    ordered = sorted(orbit, key=lambda iv: iv.lo)
    if any(a.hi >= b.lo for a, b in zip(ordered, ordered[1:])):
        return None
    ranks = tuple(ordered.index(iv) for iv in orbit)
    try:
        sft = _inline_transitions(ranks)
    except AssertionError:
        sft = ValueError
    return ordered, sft, ranks


@pytest.fixture(scope="module")
def centers8(session_cache):
    return [c for c in enumerate_centers(8, cache=session_cache).centers if c.period >= 2]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_markov_data_matches_fraction_reference(centers8, data):
    # enclosures of the centers of periods 2-8, from a point to widths where
    # the orbit no longer separates, at the center's period or another:
    # both sides separate alike, and give the same order, rank and rows
    c = data.draw(st.sampled_from(centers8))
    period = data.draw(st.one_of(st.just(c.period), st.integers(1, 8)))
    e = data.draw(st.integers(1, 80))
    lo, hi = (c.r_enc.lo - F(data.draw(st.integers(0, 3)), 1 << e),
              c.r_enc.hi + F(data.draw(st.integers(0, 3)), 1 << e))
    r_enc = RatInterval(max(lo, 0), min(hi, 4))
    want = _reference_markov_data(r_enc, period)
    try:
        ordered, ranks = _markov_data(_ends(r_enc.lo, r_enc.hi), period)
    except ValueError:
        assert want is None
        return
    assert want is not None
    assert ([from_mantissas(pair) for pair in ordered], ranks) == (want[0], want[2])
    if want[1] is ValueError:
        with pytest.raises(ValueError):
            _transitions(ranks)
    else:
        assert _transitions(ranks) == want[1]


def test_rebuilt_sft_matches_scan(period_9_scan):
    # each center of a fresh scan, and the same center loaded from the
    # cache, which stores no SFT, carries the reference's rows
    path, scanned = period_9_scan
    loaded = enumerate_centers(9, cache=CenterCache(path)).centers
    assert len(scanned) == len(loaded) == 66
    for fresh, stored in zip(scanned, loaded):
        assert fresh.orbit_order == stored.orbit_order
        assert _transitions(fresh.orbit_order) == fresh.sft == stored.sft
        assert fresh.sft == _inline_transitions(fresh.orbit_order)


@pytest.mark.parametrize(
    "center_eps, eps_choices",
    [(F(1, 2**24), (F(1, 32), F(1, 128), F(1, 1000))), (F(1, 2**40), (F(1, 2**38),))],
    ids=["2^-24", "2^-40"],
)
def test_sandwich_matches_full_rescan_reference(period_9_cache_path, center_eps, eps_choices):
    # the final pair held across periods gives the running bound of a full
    # rescan per period; the centers are refined to min(2^-24, eps/4)
    assert all(min(CENTER_EPS, eps / 4) == center_eps for eps in eps_choices)
    cache = CenterCache(period_9_cache_path)
    refined = [c.center(center_eps) for c in _held(cache)]  # cache order
    ends = sorted({e for c in refined if 3 < c.r_enc.lo for e in (c.r_enc.lo, c.r_enc.hi)})
    rng = random.Random(14)
    rationals = set()
    while len(rationals) < 200:
        d = rng.choice((97, 1000, 1009, 2**20))
        rationals.add(F(3) + F(rng.randrange(1, d), d))
    queries = [RatInterval.point(r) for r in sorted(rationals)]
    queries += [RatInterval.point(e) for e in ends]  # on a center's end
    queries += [RatInterval(a, b) for a, b in zip(ends, ends[3:])]  # across centers
    queries += [RatInterval(F(3) + F(k, 40), F(3) + F(k + 1, 40)) for k in range(40)]
    # each query at one of the (eps, max_period) pairs, in turn
    pairs = [(eps, m) for eps in eps_choices for m in (3, 6, 9)]
    for k, query in enumerate(queries):
        eps, max_period = pairs[k % len(pairs)]
        want = _reference_sandwich(
            query, eps, max_period, lambda p: [c for c in refined if c.period <= p]
        )
        assert _sandwich(query, eps, max_period, cache) == want, query


def test_sandwich_matches_full_rescan_reference_cold(tmp_path):
    # on an empty cache both scan period by period and write the same file
    rng = random.Random(6)
    for k in range(6):
        query = RatInterval.point(F(3) + F(rng.randrange(1, 997), 997))
        # eps 2^-28 refines the centers to 2^-30
        eps, max_period, center_eps = F(1, 2**28), k + 1, F(1, 2**30)
        new, old = tmp_path / f"new{k}.jsonl", tmp_path / f"old{k}.jsonl"
        old_cache = CenterCache(old)
        want = _reference_sandwich(
            query, eps, max_period,
            lambda p: enumerate_centers(p, eps=center_eps, cache=old_cache).centers,
        )
        assert _sandwich(query, eps, max_period, CenterCache(new)) == want
        assert new.read_bytes() == old.read_bytes()


def test_repeated_warm_query_builds_no_center_or_sft(period_9_cache_path, monkeypatch):
    # the sandwich holds cache records and reads only their entropies: the
    # same query again in the process finds each picked center's proof and
    # entropy in the memos, and builds no Center and no SFT
    def query():
        return _sandwich(F(37, 10), F(1, 128), 9, CenterCache(period_9_cache_path))

    first = query()
    built = []
    for name in ("Center", "_transitions"):
        original = getattr(entrolab.logistic, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            built.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(entrolab.logistic, name, counted)
    assert query() == first
    assert built == []


def test_markov_partition_refuses_unseparated_orbit():
    # over [3, 4] the period-3 critical orbit does not separate: the
    # partition raises ValueError, as the proof does
    entropy = EntropyBound(F(0), F(0), Provenance.EXACT, certified=True)
    center = Center(RatInterval(F(3), F(4)), 3, (2, 0, 1), SFT(((1,),)), entropy)
    with pytest.raises(ValueError):
        markov_partition(center)


def _hand_center(lo, hi, period):
    lo, hi = F(lo), F(hi)
    return _Stored(period, (lo.numerator, lo.denominator, hi.numerator, hi.denominator))


def test_collect_brackets_ties_follow_sorted_rule():
    # equal r_enc.hi below the query and equal r_enc.lo above it, in any
    # input order: the choice is the sorted list's first extreme
    below = [
        _hand_center("32/10", "34/10", 4),
        _hand_center("32/10", "34/10", 2),
        _hand_center("32/10", "34/10", 5),
        _hand_center("33/10", "34/10", 3),
        _hand_center("30/10", "33/10", 1),
    ]
    above = [
        _hand_center("36/10", "37/10", 6),
        _hand_center("36/10", "365/100", 3),
        _hand_center("36/10", "39/10", 3),  # same (r_enc.lo, period) as the one before
        _hand_center("38/10", "39/10", 1),
    ]
    query = RatInterval.point(F(7, 2))
    rng = random.Random(3)
    for _ in range(200):
        centers = below + above
        rng.shuffle(centers)
        got = collect_brackets(query, centers)
        want = _reference_bracket(query, centers)
        assert got[0] is want[0] is below[1]
        assert got[1] is want[1]
        assert got[1] is next(c for c in centers if c in above[1:3])


def _reference_sandwich_loop(query, eps, max_period, centers):
    """``logistic_entropy``'s period loop before it carried its ends: each
    period brackets the query among the held pair and the centers of period
    p, filtered from ``centers`` (``_reference_bracket``), reads both ends
    again and tests the width in Fractions. Returns the bound, certified or
    not."""
    center_model = entrolab.logistic._center_model
    center_eps = min(CENTER_EPS, eps / 4)
    below = above = None
    for p in range(1, max_period + 1):
        held = [c for c in (below, above) if c is not None]
        below, above = _reference_bracket(query, held + [c for c in centers if c.period == p])
        lo = center_model(below.order(), center_eps)[1].lo if below else F(0)
        hi = center_model(above.order(), center_eps)[1].hi if above else F(1)
        if hi - lo <= eps * F(9, 10):
            return EntropyBound(lo, hi, Provenance.SANDWICH, certified=True)
    return EntropyBound(lo, hi, Provenance.SANDWICH, certified=False)


def _counted_sandwich(query, eps, max_period, cache):
    """The sandwich's bound (a BudgetExceeded's best), how often it entered
    ``_center_model``, and how often its pair changed a side, counted from
    what each ``collect_brackets`` call returned."""
    entries, pairs = [], [(None, None)]
    center_model = entrolab.logistic._center_model
    brackets = entrolab.logistic.collect_brackets

    def counted_center_model(*args):
        entries.append(args)
        return center_model(*args)

    def counted_brackets(*args):
        pairs.append(brackets(*args))
        return pairs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entrolab.logistic, "_center_model", counted_center_model)
        mp.setattr(entrolab.logistic, "collect_brackets", counted_brackets)
        try:
            bound = logistic_entropy(query, eps, SandwichBudget(max_period=max_period), cache=cache)
        except BudgetExceeded as exc:
            assert not exc.best.certified
            bound = exc.best
        else:
            assert bound.certified
    changes = sum(a[side] is not b[side] for a, b in zip(pairs, pairs[1:]) for side in (0, 1))
    return bound, len(entries), changes


_LOOP_EPS = (F(1, 8), F(1, 32), F(1, 128), F(1, 512), F(1, 2**30))


@pytest.fixture(scope="module")
def period_9_session_cache(session_cache):
    enumerate_centers(9, cache=session_cache)
    return session_cache


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_period_loop_matches_reference(period_9_session_cache, data):
    # the loop on the per-period index, with carried ends and the integer
    # width test, gives the bound of the loop that read everything again
    cache = period_9_session_cache
    ends = sorted({F(e[0], e[1]) for c in _held(cache) for e in (c.ends[:2], c.ends[2:])})
    r = data.draw(st.one_of(
        st.integers(2, 2**40).flatmap(lambda d: st.integers(1, d - 1).map(lambda n: 3 + F(n, d))),
        st.sampled_from([e for e in ends if 3 < e < 4]),  # on a center's end
    ))
    eps = data.draw(st.sampled_from(_LOOP_EPS))
    max_period = data.draw(st.integers(1, 9))
    want = _reference_sandwich_loop(RatInterval.point(r), eps, max_period, _held(cache))
    got, entries, changes = _counted_sandwich(r, eps, max_period, cache)
    assert got == want
    assert entries <= changes


def test_period_loop_ties_match_reference(monkeypatch):
    # the hand-built centers of test_collect_brackets_ties_follow_sorted_rule,
    # each with its own fixed entropy, so a tie broken another way than the
    # reference breaks it moves the bound
    hand = [
        ("32/10", "34/10", 4), ("32/10", "34/10", 2), ("32/10", "34/10", 5),
        ("33/10", "34/10", 3), ("30/10", "33/10", 1), ("36/10", "37/10", 6),
        ("36/10", "365/100", 3), ("36/10", "39/10", 3), ("38/10", "39/10", 1),
    ]
    fixed = {}
    for k, (lo, hi, period) in enumerate(hand):
        key = (period, *_ends(F(lo), F(hi)))
        fixed[key] = EntropyBound(F(k, 64), F(32 + k, 64), Provenance.SANDWICH, certified=True)
    counts = {p: sum(period == p for *_, period in hand) for p in range(1, 7)}
    monkeypatch.setattr(_Stored, "order", lambda self: (self.period, *self.ends))
    monkeypatch.setattr(entrolab.logistic, "_center_model", lambda order, eps: (None, fixed[order]))
    monkeypatch.setattr(entrolab.logistic, "_center_count", counts.__getitem__)
    query, rng = RatInterval.point(F(7, 2)), random.Random(5)
    for _ in range(40):
        rng.shuffle(hand)
        cache = CenterCache(None)
        for p in range(1, 7):
            cache.add_center(p, [_ends(F(lo), F(hi)) for lo, hi, period in hand if period == p])
        for max_period in range(1, 7):
            # 9/10 of 5/8 is 36/64, the width at period 1
            for eps in (F(1, 2), F(5, 8), F(2, 3), F(1)):
                want = _reference_sandwich_loop(query, eps, max_period, _held(cache))
                got, entries, changes = _counted_sandwich(query, eps, max_period, cache)
                assert got == want
                assert entries <= changes


_hand_end =st.sampled_from([1, 2, 4, 5, 8]).flatmap(
    lambda d: st.integers(0, 4 * d).map(lambda n: F(n, d))
)
_hand_style = st.sampled_from(["p/q", "2p/2q", "decimal", "int"])
_hand_record = st.tuples(_hand_end, _hand_end, st.integers(1, 3), _hand_style, _hand_style)
# a query end: a value, or the lo (even) or hi (odd) end of a record
_query_end = st.one_of(_hand_end, st.integers(0, 23))


def _cache_text(q, style):
    """q as a cache file may spell it: canonical "p/q", unreduced, decimal
    text, or a JSON integer; a style that cannot spell q gives "p/q"."""
    if style == "int" and q.denominator == 1:
        return q.numerator
    if style == "decimal" and 1000 % q.denominator == 0:
        m = int(q * 1000)
        return f"{m // 1000}.{m % 1000:03d}"
    if style == "2p/2q":
        return f"{2 * q.numerator}/{2 * q.denominator}"
    return format_rational(q)


@settings(max_examples=150, deadline=None)
@given(
    records=st.lists(_hand_record, min_size=1, max_size=12),
    queries=st.lists(st.tuples(_query_end, _query_end, st.booleans()), min_size=1, max_size=4),
)
@example(
    records=[(F(3, 2), F(2), 2, "2p/2q", "p/q"), (F(3, 2), F(2), 2, "p/q", "int"),
             (F(3, 2), F(5, 2), 2, "decimal", "p/q"), (F(1), F(3, 2), 1, "int", "2p/2q")],
    queries=[(0, 1, True), (1, 3, False), (F(3, 2), F(3, 2), False)],
)
def test_integer_r_enc_matches_fraction_reference(tmp_path_factory, records, queries):
    # the loader reads r_enc as integers and collect_brackets compares them
    # by cross-multiplication; both agree with Fraction arithmetic, dedupe
    # "6/4" against "3/2", and pick the reference's centers on every tie
    lines = [json.dumps({"schema": entrolab.logistic.CACHE_SCHEMA})]
    for lo, hi, period, lo_style, hi_style in records:
        lo, hi = min(lo, hi), max(lo, hi)
        lines.append(json.dumps({
            "type": "center", "period": period,
            "r_enc": [_cache_text(lo, lo_style), _cache_text(hi, hi_style)],
        }))
    path = tmp_path_factory.getbasetemp() / "hand.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    kept, keys = [], set()
    for line in lines[1:]:
        record = json.loads(line)
        r_enc = RatInterval(*(F(v) for v in record["r_enc"]))
        if (record["period"], r_enc) not in keys:
            keys.add((record["period"], r_enc))
            kept.append(record)
    stored = _held(CenterCache(path))
    assert len(stored) == len(kept)
    for center, record in zip(stored, kept):
        assert center.period == record["period"]
        assert center.r_enc == RatInterval.from_json(record["r_enc"])
        assert center.r_enc == RatInterval(*(F(v) for v in record["r_enc"]))
    ends = [e for c in stored for e in (c.r_enc.lo, c.r_enc.hi)]
    for a, b, point in queries:
        a, b = (ends[v % len(ends)] if type(v) is int else v for v in (a, b))
        query = RatInterval.point(a) if point else RatInterval(min(a, b), max(a, b))
        # a fresh load, its centers unread: the search compares only the
        # integer ends (no hand record is a center, and none is proved)
        got = collect_brackets(query, _held(CenterCache(path)))
        want = _reference_bracket(query, stored)
        assert [(c.period, c.r_enc) if c else None for c in got] == [
            (c.period, c.r_enc) if c else None for c in want
        ]


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
    for r, h in ((F(2), 0), (F(4), 1)):
        b = logistic_entropy(r, F(1, 1000))
        assert (b.lo, b.hi) == (h, h)
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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seconds": float("nan")},
        {"seconds": float("inf")},
        {"seconds": 0.0},
        {"seconds": -1.0},
        {"max_period": 0},
    ],
)
def test_sandwich_budget_refuses_out_of_range(kwargs):
    # a NaN deadline is never reached, and max_period 0 searches nothing
    with pytest.raises(ValueError):
        SandwichBudget(**kwargs)
    assert SandwichBudget(max_period=1, seconds=1e-9).seconds == 1e-9


@pytest.mark.parametrize("seconds", [0.01, 0.02, 0.05, 0.1, 0.2, 0.5])
def test_sandwich_deadline_overrun_is_bounded(seconds):
    # a cold query that no period up to the cap settles: the sandwich checks
    # its deadline once per period, so it stops within one period's work of
    # it (under 0.03 s measured), or at the cap, about 0.1 s in
    entrolab.logistic._prove.cache_clear()
    entrolab.logistic._center_model.cache_clear()
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        logistic_entropy(
            F(37, 10), F(1, 1 << 20), SandwichBudget(seconds=seconds), cache=CenterCache(None)
        )
    assert time.monotonic() - start < seconds + 0.2


def test_sandwich_rejects_bad_inputs():
    with pytest.raises(ValueError):
        logistic_entropy(F(9, 2), F(1, 10))
    with pytest.raises(ValueError):
        logistic_entropy(F(7, 2), F(0))
    # an interval query is checked whole: collect_brackets checks no range
    with pytest.raises(ValueError):
        logistic_entropy(RatInterval(F(7, 2), F(9, 2)), F(1, 10))
    with pytest.raises(ValueError):
        logistic_entropy(RatInterval(F(-1, 2), F(1, 2)), F(1, 10))


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


# ---------------------------------------------------------------------------
# Loading: one parse per file contents
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def period_5_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("p5") / "c.jsonl"
    enumerate_centers(5, cache=CenterCache(path))
    return path.read_bytes()


def _loaded(path):
    """What a load of ``path`` gives: each center's (period, ends, line) and
    the torn tail, or the message of the error it raises."""
    try:
        cache = CenterCache(path)
    except ValueError as exc:
        return str(exc)
    return [(c.period, c.ends, c._line) for c in _held(cache)], cache._tail


def test_identical_bytes_decoded_once(tmp_path, monkeypatch, period_5_bytes):
    path = tmp_path / "c.jsonl"
    path.write_bytes(period_5_bytes)
    decoded = []
    decode = entrolab.logistic._decode
    monkeypatch.setattr(entrolab.logistic, "_decode", lambda s: decoded.append(s) or decode(s))
    first = _loaded(path)
    second = _loaded(path)
    assert second == first
    assert len(first[0]) == 1 + 1 + 1 + 2 + 3
    assert len(decoded) == period_5_bytes.count(b"\n")
    assert _loaded(path) == first


def test_same_length_edit_in_place_is_parsed_again(tmp_path, period_5_bytes):
    path = tmp_path / "c.jsonl"
    path.write_bytes(period_5_bytes)
    assert isinstance(_loaded(path), tuple)
    lines = period_5_bytes.split(b"\n")
    number = next(n for n, line in enumerate(lines, 1) if b'"period": 5' in line)
    lines[number - 1] = lines[number - 1].replace(b'"period": 5', b'"period": 0')
    path.write_bytes(b"\n".join(lines))
    assert path.stat().st_size == len(period_5_bytes)
    for _ in range(2):  # errors are not memoized
        with pytest.raises(ValueError, match=f"malformed line {number} in {path}"):
            CenterCache(path)


def test_carriage_return_between_tokens_loads(tmp_path, period_5_bytes):
    # lines split on b"\n" only, as iterating the binary file does; a
    # bytes.splitlines split would also cut this record at its "\r"
    clean, path = tmp_path / "clean.jsonl", tmp_path / "cr.jsonl"
    clean.write_bytes(period_5_bytes)
    path.write_bytes(period_5_bytes.replace(b'"period": 3,', b'"period": 3,\r', 1))
    assert path.read_bytes().count(b"\r") == 1
    want = _loaded(clean)
    entrolab.logistic._parse_cache.cache_clear()
    assert _loaded(path) == want  # cold
    assert _loaded(path) == want  # warm


_EDIT = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.just(0)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.just(0)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(b"\r\n\xff")),
)


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(_EDIT, min_size=1, max_size=3))
def test_warm_load_after_edit_matches_cold_load(tmp_path_factory, period_5_bytes, edits):
    path = tmp_path_factory.getbasetemp() / "edited.jsonl"
    data = bytearray(period_5_bytes)
    for op, at, value in edits:
        at %= len(data) + 1
        if op == "flip" and at < len(data):
            data[at] ^= value
        elif op == "delete":
            del data[at : at + 1]
        elif op == "truncate":
            del data[at:]
        elif op == "insert":
            data[at:at] = bytes([value])
    path.write_bytes(period_5_bytes)
    _loaded(path)  # the memo holds the file before the edit
    path.write_bytes(bytes(data))
    warm = _loaded(path)
    again = _loaded(path)
    entrolab.logistic._parse_cache.cache_clear()
    assert warm == again == _loaded(path)


def test_index_follows_load_add_and_torn_tail(tmp_path, period_5_bytes):
    path = tmp_path / "c.jsonl"
    path.write_bytes(period_5_bytes)
    clean = _loaded(path)
    cache = CenterCache(path)
    assert [len(cache._by_period[p]) for p in range(1, 6)] == [1, 1, 1, 2, 3]
    held = cache._by_period[5]
    cache.add_center(5, [held[0].ends, (15, 4, 31, 8), (15, 4, 31, 8)])
    cache.add_center(6, [(7, 2, 29, 8)])
    assert cache._by_period[5][:3] == held and len(cache._by_period[5]) == 4
    assert len(cache._by_period[6]) == 1
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(period_5_bytes + b'{"period": 6, "r_enc": ["7/2"')
    cache = CenterCache(torn)
    assert cache._tail is not None
    assert [(c.period, c.ends, c._line) for c in _held(cache)] == clean[0]
    cache.add_center(6, [(7, 2, 29, 8)])


def test_add_center_leaves_memoized_index_alone(tmp_path, period_5_bytes):
    # an add to a loaded cache appends to the file, but the memo of the
    # original bytes keeps only the file's records
    path = tmp_path / "c.jsonl"
    path.write_bytes(period_5_bytes)
    first = CenterCache(path)
    index, count = dict(first._by_period), len(_held(first))
    first.add_center(6, [(7, 2, 29, 8)])
    first.add_center(5, [(15, 4, 31, 8)])
    assert len(first._by_period[6]) == 1 and len(first._by_period[5]) == 4
    assert path.read_bytes() != period_5_bytes
    path.write_bytes(period_5_bytes)
    hits = entrolab.logistic._parse_cache.cache_info().hits
    second = CenterCache(path)
    assert entrolab.logistic._parse_cache.cache_info().hits == hits + 1
    assert second._by_period == index and 6 not in second._by_period
    assert len(_held(second)) == count
