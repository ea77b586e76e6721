import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrolab import interval_maps
from entrolab.numkit import PrecisionError, RatInterval, log2_enclosure
from entrolab.interval_maps import (
    NodeCapExceeded,
    PWLMap,
    QuadMap,
    compose,
    compose_iterate,
    constant_slope_map,
    entropy_via_variation,
    identity_map,
    slope_detect,
    staircase_map,
    tent_map,
    variation,
)

H_LOG32 = log2_enclosure(RatInterval.point(F(3, 2)), 30)


def test_pwlmap_validation():
    with pytest.raises(ValueError):
        PWLMap(((F(0), F(0)),))
    with pytest.raises(ValueError):
        PWLMap(((F(0), F(0)), (F(1, 2), F(2)), (F(1), F(0))))
    with pytest.raises(ValueError):
        PWLMap(((F(1, 10), F(0)), (F(1), F(1))))


def test_eval_identity_and_slope2():
    ident = identity_map()
    assert ident.eval(F(1, 3)) == F(1, 3)
    f = constant_slope_map(RatInterval.point(1))
    assert f.nodes == ((F(0), F(0)), (F(3, 8), F(3, 4)), (F(5, 8), F(1, 4)), (F(1), F(1)))
    assert f.eval(F(3, 8)) == F(3, 4)
    assert f.eval(1) == 1
    with pytest.raises(ValueError):
        f.eval(F(3, 2))


def test_compose_iterate_identity_and_once():
    ident = identity_map()
    assert compose_iterate(ident, 5).nodes == ident.nodes
    f = constant_slope_map(RatInterval.point(1))
    assert compose_iterate(f, 1) is f


def test_iterate_slopes_multiply():
    f = constant_slope_map(RatInterval.point(1))
    g = compose_iterate(f, 2)
    assert slope_detect(g) == 4


def test_variation_values():
    assert variation(identity_map()) == 1
    f = constant_slope_map(RatInterval.point(1))
    assert variation(f) == 2  # 3/4 + 1/2 + 3/4


def test_variation_power_law():
    f = constant_slope_map(RatInterval.point(1))
    for n in range(1, 11):
        assert variation(compose_iterate(f, n)) == F(2) ** n


def test_constant_slope_law_for_3_halves():
    f = constant_slope_map(H_LOG32)
    assert slope_detect(f) == F(3, 2)
    for n in range(1, 11):
        assert variation(compose_iterate(f, n)) == F(3, 2) ** n


def test_compose_exactness():
    f = constant_slope_map(H_LOG32)
    lhs = compose_iterate(f, 5)
    rhs = compose(compose_iterate(f, 2), compose_iterate(f, 3))
    assert lhs.nodes == rhs.nodes
    assert compose_iterate(compose_iterate(f, 2), 3).nodes == compose_iterate(f, 6).nodes


def test_node_cap():
    f = constant_slope_map(RatInterval.point(1))
    with pytest.raises(NodeCapExceeded):
        compose_iterate(f, 10, node_cap=100)


def _compose_reference(outer, inner, node_cap=1_000_000):
    """``compose`` as it was before the segment walk: every cut is collected
    in a set, sorted, evaluated through both maps and canonicalized."""
    cuts = {F(1)}
    for (x1, y1), (x2, y2) in zip(inner.nodes, inner.nodes[1:]):
        cuts.add(x1)
        if y1 == y2:
            continue
        lo_y, hi_y = (y1, y2) if y1 < y2 else (y2, y1)
        slope = (y2 - y1) / (x2 - x1)
        for gx, _ in outer.nodes:
            if lo_y < gx < hi_y:
                cuts.add(x1 + (gx - y1) / slope)
        if len(cuts) > node_cap:
            raise NodeCapExceeded(f"composition exceeds {node_cap} nodes")
    xs = sorted(cuts)
    nodes = tuple((x, outer.eval(inner.eval(x))) for x in xs)
    return PWLMap(nodes).canonical()


def _cut_count(outer, inner):
    """How many nodes the reference cuts before it drops collinear ones."""
    count = len(inner.nodes)
    for (_, y1), (_, y2) in zip(inner.nodes, inner.nodes[1:]):
        count += sum(min(y1, y2) < gx < max(y1, y2) for gx, _ in outer.nodes)
    return count


def _outcome(fn, *args):
    try:
        return fn(*args).nodes
    except NodeCapExceeded:
        return NodeCapExceeded


@st.composite
def pwl_maps(draw):
    """Maps with at most five nodes at rationals of denominator <= 16, as in
    test_horseshoe: flat segments, collinear nodes and ordinates at the
    map's own breakpoints all occur."""
    unit = st.fractions(min_value=0, max_value=1, max_denominator=16)
    inner = draw(st.lists(unit.filter(lambda x: 0 < x < 1), max_size=3, unique=True))
    xs = [F(0), *sorted(inner), F(1)]
    ys = draw(st.lists(unit, min_size=len(xs), max_size=len(xs)))
    return PWLMap(tuple(zip(xs, ys)))


@settings(max_examples=200, deadline=None)
@given(f=pwl_maps())
def test_compose_matches_sort_and_eval_reference(f):
    # f, f^2, f^3 as inner maps: the walk must give the reference's nodes,
    # and raise NodeCapExceeded for exactly the caps the reference does
    g = f
    for _ in range(3):
        want = _compose_reference(f, g)
        assert compose(f, g).nodes == want.nodes
        for cap in range(1, _cut_count(f, g) + 2):
            assert _outcome(compose, f, g, cap) == _outcome(_compose_reference, f, g, cap)
        g = want


def _with_midpoints(g):
    """g with the midpoint of every segment inserted: the same map, with
    straight nodes that ``canonical()`` drops."""
    nodes = [g.nodes[0]]
    for (x1, y1), (x2, y2) in zip(g.nodes, g.nodes[1:]):
        nodes += [((x1 + x2) / 2, (y1 + y2) / 2), (x2, y2)]
    return PWLMap(tuple(nodes))


def _check_against_reference(outer, inner):
    # the walk gives the reference's nodes and raises NodeCapExceeded for
    # exactly the caps the reference does. The reference compares its
    # growing cut count with the cap at fixed points, so it raises exactly
    # below one cap, found here by bisection; the walk is run at every cap
    want = _compose_reference(outer, inner)
    assert compose(outer, inner).nodes == want.nodes
    lo, hi = 0, _cut_count(outer, inner) + 1  # raises at caps <= lo, if lo > 0; not at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _outcome(_compose_reference, outer, inner, mid) is NodeCapExceeded:
            lo = mid
        else:
            hi = mid
    for cap in range(1, _cut_count(outer, inner) + 2):
        assert _outcome(compose, outer, inner, cap) == (NodeCapExceeded if cap < hi else want.nodes)
    return want


@settings(max_examples=150, deadline=None)
@given(f=pwl_maps())
def test_compose_iterate_first_matches_reference(f):
    # the orientation the search and compose_iterate use: f^k as the outer
    # map, k <= 3, and f^3 with collinear midpoints as a long non-canonical
    # outer map
    g = f
    for _ in range(3):
        want = _check_against_reference(g, f)
        assert want.nodes == _compose_reference(f, g).nodes
        g = want
    _check_against_reference(_with_midpoints(g), f)


def test_compose_matches_reference_on_realized_maps():
    # non-canonical inner maps and an outer map with a straight node
    f = constant_slope_map(H_LOG32)
    bent = PWLMap(
        ((F(0), F(0)), (F(1, 4), F(1, 2)), (F(1, 2), F(1)), (F(3, 4), F(1, 8)), (F(1), F(2, 3)))
    )
    for outer, inner in [
        (f, compose_iterate(f, 3)), (bent, compose_iterate(f, 2)), (f, bent), (bent, bent)
    ]:
        assert compose(outer, inner).nodes == _compose_reference(outer, inner).nodes


def test_compose_makes_no_eval_and_no_sort(monkeypatch):
    f = constant_slope_map(H_LOG32)
    g = compose_iterate(f, 3)
    want = _compose_reference(f, g)

    def refuse(*args, **kwargs):
        raise AssertionError("compose evaluated a map or sorted its cuts")

    monkeypatch.setattr(PWLMap, "eval", refuse)
    monkeypatch.setattr(interval_maps, "sorted", refuse, raising=False)
    assert compose(f, g).nodes == want.nodes


def test_compose_reduces_per_segment_not_per_node(monkeypatch):
    # f^8 ∘ f on the tent emits 513 nodes; the walk reduces each inner
    # segment's run/rise and left end once, and the result once per axis
    f = tent_map()
    g = compose_iterate(f, 8)
    want = compose(g, f)
    calls = {"gcd": 0, "_reduced": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(interval_maps, "gcd", counted("gcd", interval_maps.gcd))
    monkeypatch.setattr(interval_maps, "_reduced", counted("_reduced", interval_maps._reduced))
    assert compose(g, f) == want and len(want.X) == 513
    assert calls["gcd"] + calls["_reduced"] <= 6 * len(f.X)


def test_entropy_via_variation_certified():
    e = entropy_via_variation(identity_map(), 4)
    assert e.certified and e.lo == e.hi == 0
    e = entropy_via_variation(constant_slope_map(RatInterval.point(1)), 1)
    assert e.certified and e.lo == e.hi == 1
    e = entropy_via_variation(constant_slope_map(H_LOG32), 1)
    assert e.certified
    assert float(e.lo) <= math.log2(1.5) <= float(e.hi)


# an increasing map: f^n has 2n + 2 nodes, far below any node cap, but its
# bit lengths grow with n, so an uncapped n composed for minutes
MONOTONE = PWLMap(((F(0), F(0)), (F(1, 3), F(1, 4)), (F(2, 3), F(3, 4)), (F(1), F(1))))


def test_entropy_via_variation_iterate_cap():
    # the cap holds for constant-slope maps too, which compose nothing
    assert len(compose_iterate(MONOTONE, 16).X) == 34
    for f in (tent_map(), MONOTONE):
        assert entropy_via_variation(f, interval_maps.MAX_ITERATE).lo >= 0
        with pytest.raises(ValueError, match="cap of 256"):
            entropy_via_variation(f, interval_maps.MAX_ITERATE + 1)


def test_entropy_power_law_constant_slope():
    f = constant_slope_map(H_LOG32)
    base = entropy_via_variation(f, 1)
    for n in range(2, 7):
        g = compose_iterate(f, n)
        e = entropy_via_variation(g, 1)
        scaled = RatInterval(base.lo * n, base.hi * n)
        assert scaled.intersects(RatInterval(e.lo, e.hi))


def test_realize_breakpoints_for_3_halves():
    f = constant_slope_map(H_LOG32)
    assert f.nodes == (
        (F(0), F(0)),
        (F(5, 12), F(5, 8)),
        (F(7, 12), F(3, 8)),
        (F(1), F(1)),
    )


def test_realize_degenerate_and_errors():
    assert constant_slope_map(RatInterval.point(0)).nodes == identity_map().nodes
    with pytest.raises(ValueError):
        constant_slope_map(RatInterval.point(F(3, 2)))
    with pytest.raises(PrecisionError):
        constant_slope_map(RatInterval(F(1, 4), F(3, 4)))


def test_realize_round_trip():
    for h in (F(1, 2), F(1, 3), F(9, 10)):
        f = constant_slope_map(RatInterval.point(h))
        e = entropy_via_variation(f, 1)
        assert e.certified
        widened = RatInterval(h - F(1, 1 << 24), h + F(1, 1 << 24))
        assert widened.intersects(RatInterval(e.lo, e.hi))


def test_staircase_shape_single_block():
    st1 = staircase_map([RatInterval.point(1)])
    # scaled copy of the slope-2 map on [0, 1/2]
    assert st1.eval(F(3, 16)) == F(3, 8)
    assert st1.eval(F(1, 2)) == F(1, 2)
    # identity tail
    assert st1.eval(F(3, 4)) == F(3, 4)


def test_staircase_block_independence():
    a = staircase_map([H_LOG32, RatInterval.point(1)])
    b = staircase_map([RatInterval.point(F(1, 2)), RatInterval.point(1)])
    # the largest target occupies [0, 1/2] in both; other blocks differ
    for x in (F(1, 16), F(3, 16), F(5, 16), F(111, 256)):
        assert a.eval(x) == b.eval(x)
    assert a.eval(F(9, 16)) != b.eval(F(9, 16))


def test_staircase_validation():
    with pytest.raises(ValueError):
        staircase_map([])
    with pytest.raises(ValueError):
        staircase_map([RatInterval.point(1), H_LOG32])  # decreasing
    with pytest.raises(ValueError):
        staircase_map([RatInterval.point(0)])


def test_staircase_estimates_climb_to_max():
    st3 = staircase_map([H_LOG32, H_LOG32, RatInterval.point(1)])
    prev = None
    for n in range(1, 7):
        e = entropy_via_variation(st3, n)
        mid = (e.lo + e.hi) / 2
        if prev is not None:
            assert mid >= prev
        prev = mid
    assert F(85, 100) <= prev <= 1


def test_staircase_variation_lower_bound():
    # the top block alone forces V(f^n) >= (1/4) * 2^n
    st3 = staircase_map([H_LOG32, H_LOG32, RatInterval.point(1)])
    for n in range(1, 9):
        assert variation(compose_iterate(st3, n)) >= F(1, 4) * F(2) ** n


@settings(max_examples=30, deadline=None)
@given(x=st.fractions(min_value=0, max_value=1))
def test_tent_map_formula(x):
    t = tent_map()
    expected = 2 * x if x <= F(1, 2) else 2 - 2 * x
    assert t.eval(x) == expected


def test_quadmap():
    q = QuadMap(RatInterval.point(4))
    with pytest.raises(ValueError):
        QuadMap(RatInterval.point(5))
    j = q.to_json()
    assert QuadMap.from_json(j) == q
    qi = QuadMap(RatInterval(F(7, 2), F(15, 4)))
    assert QuadMap.from_json(qi.to_json()) == qi


def test_pwl_json_round_trip():
    f = constant_slope_map(H_LOG32)
    assert PWLMap.from_json(f.to_json()).nodes == f.nodes
    data = f.to_json()
    assert data["nodes"][0] == ["0/1", "0/1"]


def _eval_reference(f, x):
    """``eval`` in Fraction arithmetic on the node view."""
    for (x1, y1), (x2, y2) in zip(f.nodes, f.nodes[1:]):
        if x1 <= x <= x2:
            return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
    raise ValueError("argument outside [0, 1]")


def _image(g, box):
    lo_n, lo_d, hi_n, hi_d = g.image_ends(box)
    assert lo_d > 0 and hi_d > 0
    return RatInterval(F(lo_n, lo_d), F(hi_n, hi_d))


@settings(max_examples=200, deadline=None)
@given(f=pwl_maps(), n=st.integers(min_value=1, max_value=3), data=st.data())
def test_image_on_matches_fraction_evaluation(f, n, data):
    # the integer image is the min and max of the exact Fraction values at
    # the ends and at the nodes inside; ends on nodes, at 0 and at 1 land
    # exactly on the floor(x * Dx) boundary of the node search
    g = compose_iterate(f, n)
    point = st.one_of(
        st.sampled_from([x for x, _ in g.nodes]),
        st.sampled_from((F(0), F(1))),
        st.fractions(0, 1, max_denominator=10**6),
    )
    a, b = sorted((data.draw(point), data.draw(point)))
    values = [_eval_reference(g, a), _eval_reference(g, b)]
    values += [y for x, y in g.nodes if a < x < b]
    assert _image(g, RatInterval(a, b)) == RatInterval(min(values), max(values))
    assert (g.eval(a), g.eval(b)) == (values[0], values[1])


def test_image_on_exact():
    f = tent_map()
    assert _image(f, RatInterval(F(1, 4), F(3, 4))) == RatInterval(F(1, 2), F(1))
    assert _image(f, RatInterval(F(0), F(1))) == RatInterval(F(0), F(1))
