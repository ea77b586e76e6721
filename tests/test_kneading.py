from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

import entrolab.logistic as logistic
import entrolab.numkit as numkit
from entrolab.kneading import C, L, R, locate_centers, mss_words, read_symbols, unimodal_key
from entrolab.logistic import DEFAULT_ROOT_WIDTH, CenterCache, _center_count, _prove, _scan
from entrolab.numkit import (
    RatInterval,
    critical_orbit_expr,
    dyadic_floor,
    refine_root,
    root_isolate,
)

# the period-3 center near 3.8319, to within 2^-210
_PERIOD_3 = refine_root(
    critical_orbit_expr(3), RatInterval(F(383, 100), F(384, 100)), F(1, 1 << 210)
)
# a dyadic within 2^-200 of it: f^3(1/2) is within 2^-128 of 1/2 there, so
# the orbit enclosure straddles 1/2 and the exact sign decides
_NEAR_PERIOD_3 = dyadic_floor(_PERIOD_3.lo, 201)

rationals = st.fractions(min_value=2, max_value=4, max_denominator=1 << 40)


def reference_symbols(r: F, n: int) -> tuple[int, ...]:
    """The symbols of f_r^k(1/2), k = 1..n, by exact Fraction iteration."""
    out, x = [], F(1, 2)
    for _ in range(n):
        x = r * x * (1 - x)
        out.append((x > F(1, 2)) - (x < F(1, 2)))
    return tuple(out)


def test_unimodal_key_orders_by_parity_of_rs():
    # L < C < R at the first difference, reversed after an odd number of R's
    assert unimodal_key((L,)) < unimodal_key((C,)) < unimodal_key((R,))
    assert unimodal_key((R, R)) < unimodal_key((R, C)) < unimodal_key((R, L))
    assert unimodal_key((R, L, R)) < unimodal_key((R, L, L))


def test_mss_words_count_the_centers():
    # Metropolis-Stein-Stein: one shift-maximal word per center of period p,
    # in increasing unimodal order
    for p in range(1, 17):
        words = mss_words(p)
        assert len(words) == _center_count(p), p
        keys = [unimodal_key(w + (C,)) for w in words]
        assert all(a < b for a, b in zip(keys, keys[1:])), p
    assert mss_words(3) == ((R, L),)
    assert mss_words(4) == ((R, L, R), (R, L, L))


@settings(max_examples=150, deadline=None)
@given(rationals, st.integers(1, 8))
@example(_NEAR_PERIOD_3, 8)
@example(F(2), 8)
@example(F(4), 8)
def test_read_symbols_match_fraction_reference(r, n):
    assert read_symbols(r.numerator, r.denominator, n) == reference_symbols(r, n)


def test_read_symbols_signs_exactly_near_a_center(monkeypatch):
    calls = []
    sign_at = numkit.IterMapExpr.sign_at
    monkeypatch.setattr(
        numkit.IterMapExpr, "sign_at", lambda self, t: calls.append(t) or sign_at(self, t)
    )
    r = _NEAR_PERIOD_3
    assert read_symbols(r.numerator, r.denominator, 8) == reference_symbols(r, 8)
    assert calls  # the orbit enclosure straddled 1/2


@settings(max_examples=150, deadline=None)
@given(rationals, rationals, st.integers(1, 12))
def test_kneading_sequence_is_monotone_in_r(r1, r2, n):
    # Milnor-Thurston: r1 < r2 gives K(r1) <= K(r2), so also on each prefix
    r1, r2 = min(r1, r2), max(r1, r2)
    k1 = unimodal_key(read_symbols(r1.numerator, r1.denominator, n))
    k2 = unimodal_key(read_symbols(r2.numerator, r2.denominator, n))
    assert k1 <= k2


def _proves(cell: RatInterval, p: int) -> bool:
    try:
        _prove(cell, p)
    except ValueError:
        return False
    return True


def test_located_cells_are_the_interval_scan_cells():
    # the cells of the interval root scan on [0, 4] that hold a center of
    # minimal period p, against the one-word leaves of the kneading descent
    for p in range(2, 11):
        expr = critical_orbit_expr(p)
        iso = root_isolate(expr, RatInterval(0, 4), DEFAULT_ROOT_WIDTH)
        scanned = [c for c in iso.roots if _proves(c, p)]
        leaves = list(locate_centers(p, *logistic._GRID, DEFAULT_ROOT_WIDTH))
        assert [n for *_, n in leaves] == [1] * _center_count(p), p
        assert [RatInterval(lo, hi) for lo, hi, _ in leaves] == scanned, p


def test_scan_runs_no_interval_root_scan(monkeypatch):
    calls = {"root_isolate": 0, "derivative_enclosure": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(logistic, "root_isolate", counted("root_isolate", logistic.root_isolate))
    monkeypatch.setattr(numkit, "root_isolate", counted("root_isolate", numkit.root_isolate))
    derivative = numkit.IterMapExpr.derivative_enclosure
    monkeypatch.setattr(
        numkit.IterMapExpr, "derivative_enclosure", counted("derivative_enclosure", derivative)
    )
    cache = CenterCache(None)
    for p in range(1, 10):
        assert _scan(p, cache) == []
        assert [c.period for c in cache.centers].count(p) == _center_count(p)
    assert calls == {"root_isolate": 0, "derivative_enclosure": 0}


def test_scan_leaves_an_unseparated_cell_unrefined(monkeypatch):
    # the one-word cell of the period-5 center near 3.9903, widened to
    # [3.98, 3.999]: its closing condition changes sign, but its orbit does
    # not separate. It is returned unresolved, not refined until it does
    cell = RatInterval(F(398, 100), F(3999, 1000))
    monkeypatch.setattr(logistic, "locate_centers", lambda *args: iter([(cell.lo, cell.hi, 1)]))
    calls = []
    refine = numkit.refine_root

    def counted(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(logistic, "refine_root", counted)
    monkeypatch.setattr(numkit, "refine_root", counted)
    cache = CenterCache(None)
    assert _scan(5, cache) == [cell]
    assert cache.centers == []
    assert calls == []
