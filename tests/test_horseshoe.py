from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entrolab import horseshoe, interval_maps
from entrolab.numkit import ENCLOSURE_BITS, RatInterval, log2_enclosure, orbit_mantissas
from entrolab.interval_maps import (
    PWLMap,
    QuadMap,
    compose_iterate,
    constant_slope_map,
    identity_map,
    tent_map,
)
from entrolab.horseshoe import (
    QUAD_NODE_CAP,
    HorseshoeCert,
    LowerBoundRecord,
    SearchBudget,
    _preimage,
    _pwl_candidates,
    _quad_candidates,
    _runs,
    check_certificate,
    search_lower_bounds,
)
from test_numkit import rationals, reference_orbit

TENT_CERT = HorseshoeCert(
    (RatInterval(F(3, 10), F(9, 20)), RatInterval(F(11, 20), F(7, 10))), 2
)


def test_cert_validation():
    with pytest.raises(ValueError):
        HorseshoeCert((RatInterval(F(1, 4), F(1, 2)),), 1)  # p = 1
    with pytest.raises(ValueError):
        HorseshoeCert(
            (RatInterval(F(1, 4), F(1, 2)), RatInterval(F(1, 2), F(3, 4))), 1
        )  # touching
    with pytest.raises(ValueError):
        HorseshoeCert(
            (RatInterval(F(1, 4), F(1, 2)), RatInterval(F(3, 5), F(6, 5))), 1
        )  # outside [0,1]
    assert HorseshoeCert.from_json(TENT_CERT.to_json()) == TENT_CERT
    with pytest.raises(TypeError):  # a JSON true is not the number 1
        HorseshoeCert.from_json({"n": 1, "intervals": [[False, "1/4"], ["1/2", True]]})


@pytest.mark.parametrize("n", [2.9, "2", True, 0])
def test_cert_from_json_n_must_be_a_positive_json_integer(n):
    # int() read 2.9 and "2" as 2 and true as 1
    data = TENT_CERT.to_json()
    data["n"] = n
    with pytest.raises(ValueError):
        HorseshoeCert.from_json(data)


def test_search_budget_grid_depth_cap():
    assert SearchBudget(grid_depth=horseshoe.MAX_GRID_DEPTH).grid_depth == 8
    for depth in (horseshoe.MAX_GRID_DEPTH + 1, 40):
        with pytest.raises(ValueError):
            SearchBudget(grid_depth=depth)


def test_search_budget_iterate_cap():
    assert SearchBudget(max_n=interval_maps.MAX_ITERATE).max_n == 256
    with pytest.raises(ValueError, match="cap of 256"):
        SearchBudget(max_n=interval_maps.MAX_ITERATE + 1)


def test_search_node_cap_raises_after_the_records_before_it():
    # tent^4 has 17 nodes: the stream gives the records of n <= 3, then raises
    want = list(search_lower_bounds(tent_map(), SearchBudget(max_n=3)))
    got = []
    with pytest.raises(interval_maps.NodeCapExceeded, match="n = 4"):
        for record in search_lower_bounds(tent_map(), SearchBudget(max_n=9), node_cap=10):
            got.append(record)
    assert want and got == want


def test_hand_built_tent_certificate():
    assert check_certificate(tent_map(), TENT_CERT) is True


def test_tent_certificate_fails_at_n1():
    cert = HorseshoeCert(TENT_CERT.intervals, 1)
    assert check_certificate(tent_map(), cert) is False


def test_identity_never_certifies():
    cert = HorseshoeCert(
        (RatInterval(F(1, 10), F(2, 10)), RatInterval(F(3, 10), F(4, 10))), 3
    )
    assert check_certificate(identity_map(), cert) is False


def test_certificate_shrink_stability():
    # shrinking every interval by a small rational keeps the certificate
    delta = F(1, 100)
    shrunk = HorseshoeCert(
        tuple(RatInterval(iv.lo + delta, iv.hi - delta) for iv in TENT_CERT.intervals),
        2,
    )
    assert check_certificate(tent_map(), shrunk) is True


def test_search_tent_stream():
    records = list(search_lower_bounds(tent_map(), SearchBudget(max_n=6)))
    assert records
    assert records[0].p == 2 and records[0].n == 2
    assert records[0].bound.lo <= F(1, 2) <= records[0].bound.hi
    los = [r.bound.lo for r in records]
    assert all(a < b for a, b in zip(los, los[1:]))
    for r in records:
        assert check_certificate(tent_map(), r.cert)


@st.composite
def pwl_maps(draw):
    """Maps with at most five nodes at rationals of denominator <= 16."""
    unit = st.fractions(min_value=0, max_value=1, max_denominator=16)
    inner = draw(st.lists(unit.filter(lambda x: 0 < x < 1), max_size=3, unique=True))
    xs = [F(0), *sorted(inner), F(1)]
    ys = draw(st.lists(unit, min_size=len(xs), max_size=len(xs)))
    return PWLMap(tuple(zip(xs, ys)))


@settings(max_examples=60, deadline=None)
@given(
    f=pwl_maps(),
    n=st.integers(min_value=1, max_value=3),
    max_p=st.sampled_from((2, 3, 4096)),
    grid_depth=st.integers(min_value=0, max_value=3),
)
def test_pwl_candidates_are_certificates(f, n, max_p, grid_depth):
    budget = SearchBudget(max_n=n, max_p=max_p, grid_depth=grid_depth)
    sizes = []
    for p, js in _pwl_candidates(compose_iterate(f, n), budget):
        assert p == len(js) <= max_p
        assert all(a.lo < a.hi < b.lo for a, b in zip(js, js[1:]))
        # verified on the reference path, which composes f^n afresh
        assert check_certificate(f, HorseshoeCert(js, n))
        sizes.append(p)
    assert sizes == sorted(sizes, reverse=True)


# a flat segment between a rise and a fall; not constant-slope
PLATEAU = PWLMap(
    ((F(0), F(0)), (F(1, 4), F(1)), (F(1, 2), F(1)), (F(3, 4), F(1, 8)), (F(1), F(2, 3)))
)


def _capped_stream(f, cap):
    """The records a search with max_n = 10 streams under a node cap, and
    the n it stopped at (None when it ran to max_n)."""
    got = []
    try:
        for record in search_lower_bounds(f, SearchBudget(max_n=10), node_cap=cap):
            got.append(record)
    except interval_maps.NodeCapExceeded as exc:
        return got, int(str(exc).rsplit("n = ", 1)[1])
    return got, None


# (first cap, n): a search with max_n = 10 and a node cap in 2..300 stops at
# the n of the last row whose first cap is at most the cap. f^(n-1)∘f cuts
# 2^n + 1 times on the tent and the skew tent, so these tables are also the
# ones f∘f^(n-1) gives. On PLATEAU the flat piece makes the two cut counts
# differ: f∘f^(n-1) stopped at n = 5 at caps 70 and 157-159
CAP_STOPS = {
    "tent": (tent_map(), [(2, 2), (5, 3), (9, 4), (17, 5), (33, 6), (65, 7), (129, 8), (257, 9)]),
    "zigzag": (
        constant_slope_map(RatInterval.point(1)),
        [(2, 2), (10, 3), (24, 4), (54, 5), (116, 6), (242, 7)],
    ),
    "skew": (
        PWLMap(((F(0), F(0)), (F(1, 4), F(1)), (F(1), F(0)))),
        [(2, 2), (5, 3), (9, 4), (17, 5), (33, 6), (65, 7), (129, 8), (257, 9)],
    ),
    "plateau": (PLATEAU, [(2, 2), (13, 3), (30, 4), (71, 5), (157, 6)]),
}


@pytest.mark.parametrize("name", sorted(CAP_STOPS))
def test_search_node_cap_stop_table(name):
    # every record before a stop is one the uncapped stream gives first
    f, stops = CAP_STOPS[name]
    full = list(search_lower_bounds(f, SearchBudget(max_n=stops[-1][1] - 1)))
    for cap in range(2, 301):
        got, stop_n = _capped_stream(f, cap)
        assert stop_n == max(n for first, n in stops if first <= cap), cap
        assert got == full[: len(got)], cap


def test_plateau_node_cap_158_stops_at_n_6():
    got, stop_n = _capped_stream(PLATEAU, 158)
    assert (stop_n, len(got)) == (6, 4)


def _branches_reference(g):
    """The monotone runs of g as ``_runs`` finds them, (first, last, rising),
    read off the signs of the differences of consecutive Fraction ordinates."""
    nodes = g.nodes
    out = []
    i = 0
    while i < len(nodes) - 1:
        dy = nodes[i + 1][1] - nodes[i][1]
        if dy == 0:
            i += 1
            continue
        rising = dy > 0
        j = i + 1
        while j < len(nodes) - 1:
            step = nodes[j + 1][1] - nodes[j][1]
            if step == 0 or (step > 0) != rising:
                break
            j += 1
        out.append((i, j, rising))
        i = j
    return out


def _dom_reference(g, run):
    return RatInterval(g.nodes[run[0]][0], g.nodes[run[1]][0])


def _img_reference(g, run):
    ya, yb = g.nodes[run[0]][1], g.nodes[run[1]][1]
    return RatInterval(min(ya, yb), max(ya, yb))


def _preimage_reference(g, run, target):
    """Preimage of ``target`` within a monotone run, in Fraction arithmetic."""
    first, last, rising = run

    def solve(y):
        lo, hi = first, last
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if (g.nodes[mid][1] <= y) == rising:
                lo = mid
            else:
                hi = mid
        (x1, y1), (x2, y2) = g.nodes[lo], g.nodes[lo + 1]
        return x1 + (y - y1) * (x2 - x1) / (y2 - y1)

    a, b = solve(target.lo), solve(target.hi)
    return RatInterval(min(a, b), max(a, b))


@settings(max_examples=150, deadline=None)
@given(f=pwl_maps(), n=st.integers(min_value=1, max_value=4))
@example(f=PLATEAU, n=3)
def test_branches_match_reference(f, n):
    g = compose_iterate(f, n)
    assert _runs(g.Y) == _branches_reference(g)


def _pwl_candidates_full_scan(g, budget):
    """``_pwl_candidates`` as it was before the bisection and the integer
    node arrays: every branch is tested against every target, in Fraction
    arithmetic."""
    branches = _branches_reference(g)
    freq = Counter(
        (img.lo, img.hi) for img in (_img_reference(g, br) for br in branches)
    )
    targets = [
        RatInterval(lo, hi)
        for (lo, hi), _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:64]
    ]
    depth = budget.grid_depth
    if depth > 0:
        denom = 1 << depth
        for i in range(denom):
            for j in range(i + 1, denom + 1):
                targets.append(RatInterval(F(i, denom), F(j, denom)))
    groups = {}
    for target in targets:
        selected = [
            br
            for br in branches
            if _img_reference(g, br).contains_interval(target)
            and target.strictly_contains(_dom_reference(g, br))
        ][: budget.max_p]
        for shrink_bits in (8, 12, 16):
            eta = target.width / (1 << shrink_bits)
            inner = RatInterval(target.lo + eta, target.hi - eta)
            picked = [br for br in selected if inner.strictly_contains(_dom_reference(g, br))]
            if len(picked) >= 2:
                groups.setdefault(len(picked), []).append((inner, picked))
                break
    for p in sorted(groups, reverse=True):
        found = {
            tuple(_preimage_reference(g, br, inner) for br in picked)
            for inner, picked in groups[p]
        }
        for js in sorted(found, key=lambda js: [(iv.lo, iv.hi) for iv in js]):
            yield p, js


# constant-slope maps, slope 2^(k/16): their iterates up to n = 5 have at
# most 115 branches, about 0.02 s for the full-scan reference
SLOPE_MAPS = tuple(constant_slope_map(RatInterval.point(F(k, 16))) for k in range(1, 17))
NINE_TENTHS = constant_slope_map(RatInterval.point(F(9, 10)))


@settings(max_examples=150, deadline=None)
@given(
    f=st.one_of(pwl_maps(), st.sampled_from(SLOPE_MAPS)),
    n=st.integers(min_value=1, max_value=5),
    max_p=st.sampled_from((2, 3, 4096)),
    grid_depth=st.integers(min_value=0, max_value=3),
)
@example(f=tent_map(), n=2, max_p=2, grid_depth=0)
@example(f=tent_map(), n=8, max_p=4096, grid_depth=0)
@example(f=NINE_TENTHS, n=4, max_p=8, grid_depth=4)
@example(f=NINE_TENTHS, n=5, max_p=3, grid_depth=3)
@example(f=NINE_TENTHS, n=6, max_p=3, grid_depth=0)
@example(f=PLATEAU, n=4, max_p=2, grid_depth=4)
def test_pwl_candidates_match_full_scan(f, n, max_p, grid_depth):
    # the bisected run of branch domains inside each target selects exactly
    # the branches the full scan does, in the same order. On tent^2 the
    # target [0, 1] starts where the first branch does; a run that kept that
    # branch would shift the max_p cut. (A run that kept a branch ending
    # where the target ends selects the same candidates: the cut drops it
    # first, and the shrunken target never contains it.)
    # On tent^8 the branch [1/256, 2/256] starts where the target [0, 1]
    # shrunk by 2^-8 does, and [254/256, 255/256] ends where it ends.
    # On the nine-tenths map at n = 4 and 6 and on PLATEAU at n = 4, the
    # selected branches of some targets come from two or three images with
    # interleaved indices, and the max_p cut falls inside them (9 cut to 8 on
    # the n = 4 map): a cut made per image keeps too many. At n = 5 the
    # nine-tenths map has no candidate, so that example pins an empty stream.
    # Past n = 3 only iterates of at most 300 nodes are scanned, which every
    # constant-slope map's are up to n = 5.
    g = compose_iterate(f, n)
    assume(n <= 3 or len(g.X) <= 300)
    budget = SearchBudget(max_n=n, max_p=max_p, grid_depth=grid_depth)
    assert list(_pwl_candidates(g, budget)) == list(_pwl_candidates_full_scan(g, budget))


def test_pwl_search_composes_each_iterate_once(monkeypatch):
    counts = {"compose": 0, "preimage": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(horseshoe, "compose", counted("compose", horseshoe.compose))
    monkeypatch.setattr(interval_maps, "compose", counted("compose", interval_maps.compose))
    monkeypatch.setattr(horseshoe, "_preimage", counted("preimage", horseshoe._preimage))
    records = list(search_lower_bounds(tent_map(), SearchBudget(max_n=9)))
    assert records and records[-1].n == 9
    # f^2..f^9 once each; verifying never recomposes an iterate
    assert counts["compose"] == 8
    # only the candidates of the largest p are pulled back
    assert counts["preimage"] < 4000


def test_search_identity_empty():
    assert list(search_lower_bounds(identity_map(), SearchBudget(max_n=5))) == []


def test_search_deterministic():
    a = list(search_lower_bounds(tent_map(), SearchBudget(max_n=5)))
    b = list(search_lower_bounds(tent_map(), SearchBudget(max_n=5)))
    assert [(r.cert, r.bound) for r in a] == [(r.cert, r.bound) for r in b]


def test_search_respects_max_p():
    records = list(search_lower_bounds(tent_map(), SearchBudget(max_n=6, max_p=8)))
    assert records
    assert max(r.p for r in records) <= 8


def test_bounds_sound_against_slope():
    # every emitted bound stays below the certified variation value
    f = constant_slope_map(RatInterval.point(1))  # entropy exactly 1
    records = list(search_lower_bounds(f, SearchBudget(max_n=8)))
    ceiling = log2_enclosure(RatInterval.point(2), 30)
    for r in records:
        assert r.bound.lo <= ceiling.hi + F(1, 1 << 20)


def test_search_slope2_zigzag_reaches_095():
    f = constant_slope_map(RatInterval.point(1))
    records = list(search_lower_bounds(f, SearchBudget(max_n=12, max_p=8192)))
    assert records and records[-1].bound.lo >= F(95, 100)


def test_quad_search_r4():
    q4 = QuadMap(RatInterval.point(4))
    records = list(search_lower_bounds(q4, SearchBudget(max_n=6)))
    assert records
    best = records[-1].bound.lo
    assert best >= F(9, 10)
    for r in records:
        assert check_certificate(q4, r.cert)


def test_quad_certificate_interval_parameter():
    # an enclosure parameter still certifies when the margin is generous
    q = QuadMap(RatInterval(F(4) - F(1, 10**9), F(4)))
    records = list(search_lower_bounds(QuadMap(RatInterval.point(4)), SearchBudget(max_n=4)))
    cert = records[-1].cert
    assert check_certificate(q, cert) is True


@pytest.mark.parametrize("lo", [F(1), F(3)])
def test_quad_certificate_rejected_where_some_parameter_fails(lo):
    # r = 1 and r = 3 have entropy 0, so no certificate may pass for an
    # enclosure parameter containing them
    q4 = QuadMap(RatInterval.point(4))
    cert = next(r.cert for r in search_lower_bounds(q4, SearchBudget(max_n=2)) if r.n == 2)
    assert check_certificate(QuadMap(RatInterval.point(lo)), cert) is False
    assert check_certificate(QuadMap(RatInterval(lo, 4)), cert) is False


@st.composite
def quad_parameters(draw):
    """A point or an interval in [3, 4] of width 0 or 2^-k, its upper end
    with a denominator of at most 64."""
    den = draw(st.integers(1, 64))
    hi = F(draw(st.integers(3 * den, 4 * den)), den)
    width = draw(st.sampled_from([F(0)] + [F(1, 1 << k) for k in range(1, 41)]))
    return RatInterval(max(hi - width, F(3)), hi)


@settings(max_examples=400, deadline=None)
@given(r=quad_parameters(), n=st.integers(1, 6), max_p=st.sampled_from((2, 3, 4096)))
def test_quad_candidates_are_certificates(r, n, max_p):
    # what the construction guarantees without a test of its own: each
    # window's intervals are nonempty, ordered and disjoint, there are at
    # most max_p of them, and the list runs largest p first
    budget = SearchBudget(max_n=n, max_p=max_p)
    candidates = _quad_candidates(QuadMap(r), n, budget, QUAD_NODE_CAP)
    for p, js in candidates:
        assert p == len(js) <= max_p
        assert all(iv.lo < iv.hi for iv in js)
        assert all(a.hi < b.lo for a, b in zip(js, js[1:]))
        HorseshoeCert(js, n)
    ps = [p for p, _ in candidates]
    assert ps == sorted(ps, reverse=True)


def _reference_quad_check(r, cert):
    """The quadratic check in Fraction: end images from the Fraction
    reference orbit, compared with the hull as RatIntervals."""
    hull = cert.hull
    for iv in cert.intervals:
        ends = (reference_orbit(r, RatInterval.point(x), cert.n)[-1] for x in (iv.lo, iv.hi))
        low, high = sorted(ends, key=lambda y: y.lo)
        if not (low.hi < hull.lo and high.lo > hull.hi):
            return False
    return True


# certificates streamed at a few parameters, n <= 5: their verdicts are
# mostly True, where random intervals give mostly False
STREAMED = [
    (r, rec.cert)
    for r in (F(4), F(39, 10), F(37, 10))
    for rec in search_lower_bounds(QuadMap(RatInterval.point(r)), SearchBudget(max_n=5))
]


@st.composite
def quad_checks(draw):
    """(r, cert): r a point or an interval in [3, 4], 2-4 intervals, n <= 5;
    some with an end of the hull moved onto, or one ulp off, an end
    enclosure of a middle interval's image."""
    if draw(st.booleans()):
        r0, cert = draw(st.sampled_from(STREAMED))
        p = draw(st.integers(2, min(4, cert.p)))
        start = draw(st.integers(0, cert.p - p))
        ivs, n = list(cert.intervals[start : start + p]), cert.n
        width = F(draw(st.integers(0, 3)), 1 << draw(st.integers(1, 60)))
        r = RatInterval(max(r0 - width, 3), r0)
    else:
        p, n = draw(st.integers(2, 4)), draw(st.integers(1, 5))
        ends = sorted(draw(st.lists(rationals(0, 1), min_size=2 * p, max_size=2 * p, unique=True)))
        ivs = [RatInterval(a, b) for a, b in zip(ends[::2], ends[1::2])]
        r = RatInterval(*sorted((draw(rationals(3, 4)), draw(rationals(3, 4)))))
    if p >= 3 and draw(st.booleans()):
        mid = ivs[draw(st.integers(1, p - 2))]
        low, high = sorted(orbit_mantissas(r, RatInterval.point(x), n)[-1] for x in (mid.lo, mid.hi))
        scale, off = 1 << ENCLOSURE_BITS, draw(st.integers(0, 1))
        if draw(st.booleans()):
            lo = F(low[1] + off, scale)
            if 0 <= lo < ivs[0].hi:
                ivs[0] = RatInterval(lo, ivs[0].hi)
        else:
            hi = F(high[0] - off, scale)
            if ivs[-1].lo < hi <= 1:
                ivs[-1] = RatInterval(ivs[-1].lo, hi)
    return r, HorseshoeCert(tuple(ivs), n)


@settings(max_examples=300, deadline=None)
@given(case=quad_checks())
def test_quad_check_matches_fraction_reference(case):
    # the integer cross-multiplication gives the Fraction verdict, where an
    # end enclosure touches the hull too
    r, cert = case
    assert check_certificate(QuadMap(r), cert) == _reference_quad_check(r, cert)


def test_record_invariants():
    with pytest.raises(ValueError):
        LowerBoundRecord(TENT_CERT, RatInterval(F(-1, 2), F(1, 2)))
