from bisect import bisect_left
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entrolab.kneading as kneading
import entrolab.logistic as logistic
import entrolab.numkit as numkit
from entrolab.kneading import C, L, R, locate_centers, mss_words, read_symbols, unimodal_key
from entrolab.logistic import DEFAULT_ROOT_WIDTH, CenterCache, _center_count, _ends, _prove, _scan
from entrolab.numkit import RatInterval, critical_orbit_expr, root_isolate
from test_logistic import _held
from test_numkit import _NEAR_PERIOD_3

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


def test_read_symbols_signs_exactly_near_a_center():
    r = _NEAR_PERIOD_3
    # the orbit enclosure straddles 1/2 at step 3, so the exact recurrence decides
    lo, hi = critical_orbit_expr(3).evaluate(RatInterval.point(r))
    assert lo <= 0 <= hi
    assert read_symbols(r.numerator, r.denominator, 8) == reference_symbols(r, 8)


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
        _prove(p, _ends(cell.lo, cell.hi))
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


def reference_locate(p: int, lo: F, hi: F, min_width: F) -> list[tuple[F, F, int]]:
    """The leaves of the exact bisection ``locate_centers`` replaced: every
    grid midpoint on the way down is read exactly, and the words whose W C
    lies below the read go left."""
    depth, width = 0, hi - lo
    while width > min_width:
        depth, width = depth + 1, width / 2
    den = lcm(lo.denominator, hi.denominator) << depth
    keys = [unimodal_key(w + (C,)) for w in mss_words(p)]
    stack = [(int(lo * den), int(hi * den), 0, len(keys), depth)]
    leaves = []
    while stack:
        a, b, i, j, d = stack.pop()
        if i == j:
            continue
        if d == 0:
            leaves.append((F(a, den), F(b, den), j - i))
            continue
        mid = (a + b) >> 1
        k = bisect_left(keys, unimodal_key(read_symbols(mid, den, p)), i, j)
        stack.append((mid, b, k, j, d - 1))
        stack.append((a, mid, i, k, d - 1))
    return leaves


@st.composite
def dyadic_intervals(draw):
    """[lo, hi] within [2, 4], both multiples of 2^-m for some m <= 24."""
    m = draw(st.integers(0, 24))
    a = draw(st.integers(0, (2 << m) - 1))
    b = draw(st.integers(a + 1, 2 << m))
    return 2 + F(a, 1 << m), 2 + F(b, 1 << m)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), dyadic_intervals(), st.integers(8, 30).map(lambda k: F(1, 1 << k)))
@example(11, logistic._GRID, DEFAULT_ROOT_WIDTH)
@example(12, logistic._GRID, DEFAULT_ROOT_WIDTH)
def test_locate_centers_matches_the_exact_descent(p, interval, min_width):
    leaves = list(locate_centers(p, *interval, min_width))
    assert leaves == reference_locate(p, *interval, min_width)


class _CountedReads:
    """Wraps ``kneading.read_symbols`` and counts its calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        read = kneading.read_symbols

        def counted(*args):
            self.calls += 1
            return read(*args)

        monkeypatch.setattr(kneading, "read_symbols", counted)


@pytest.mark.parametrize("guide", ["first", "last"])
@pytest.mark.parametrize(
    "lo, hi, min_width",
    [
        (*logistic._GRID, DEFAULT_ROOT_WIDTH),
        # words whose centers lie outside go to the first and the last cell
        (F(7, 2), F(15, 4), F(1, 1 << 20)),
    ],
)
def test_a_useless_guide_changes_no_leaf(monkeypatch, guide, lo, hi, min_width):
    # every float read lies above each word's W C, which puts the word in the
    # first cell searched, or below each, which puts it in the last; the
    # exact bisection still finds each word's cell, in at most log2(cells) + 2
    # exact reads per leaf
    monkeypatch.setattr(
        kneading,
        "_float_symbols",
        lambda r, n: (R,) + (L,) * (n - 1) if guide == "first" else (C,) * n,
    )
    depth = 0
    while (hi - lo) / (1 << depth) > min_width:
        depth += 1
    for p in range(2, 10):
        reference = reference_locate(p, lo, hi, min_width)
        reads = _CountedReads(monkeypatch)
        assert list(locate_centers(p, lo, hi, min_width)) == reference, p
        assert reads.calls <= (depth + 2) * len(reference), p


def test_located_cells_take_two_exact_reads_each(monkeypatch):
    # the float guide is right for every center of period <= 12 on the real
    # grid: each leaf costs the two reads at its ends, where the exact
    # descent read about 22 midpoints per word
    for p in range(1, 13):
        reads = _CountedReads(monkeypatch)
        leaves = list(locate_centers(p, *logistic._GRID, DEFAULT_ROOT_WIDTH))
        assert len(leaves) == _center_count(p), p
        assert reads.calls <= 2 * len(leaves), p


def test_max_end_bits_is_the_longest_grid_end():
    # the cache refuses an r_enc end whose reduced denominator has more bits
    # than _MAX_END_BITS, so that bound must be the most the located cells
    # of the real grid ever write, and no less
    bits = {
        end.denominator.bit_length()
        for p in range(2, 13)
        for lo, hi, _ in locate_centers(p, *logistic._GRID, DEFAULT_ROOT_WIDTH)
        for end in (lo, hi)
    }
    assert max(bits) == logistic._MAX_END_BITS


@pytest.mark.parametrize(
    "lo, hi, min_width",
    [
        (F(3), F(4), F(0)),  # halving until no wider than 0 never ends
        (F(3), F(4), F(-1, 64)),
        (F(4), F(3), F(1, 64)),  # the descent yielded the bogus leaf (4, 3, 1)
        (F(3), F(3), F(1, 64)),
    ],
)
def test_locate_centers_refuses_bad_arguments_before_any_read(monkeypatch, lo, hi, min_width):
    reads = _CountedReads(monkeypatch)
    with pytest.raises(ValueError):
        locate_centers(3, lo, hi, min_width)
    assert reads.calls == 0


def test_locate_centers_refuses_a_grid_past_2_63_cells(monkeypatch):
    # bisect_right over a range of 2^64 or more grid points raised
    # OverflowError, which the CLI does not catch; depth 63 still places the
    # period-3 center, where f^3(1/2) - 1/2 changes sign
    def closing(r):
        x = F(1, 2)
        for _ in range(3):
            x = r * x * (1 - x)
        return x - F(1, 2)

    lo, hi = F(383, 100), F(384, 100)
    [(a, b, count)] = locate_centers(3, lo, hi, (hi - lo) / (1 << 63))
    assert b - a == (hi - lo) / (1 << 63) and count == 1
    assert closing(a) * closing(b) < 0
    reads = _CountedReads(monkeypatch)
    for min_width in ((hi - lo) / (1 << 64), F(1, 1 << 210)):
        with pytest.raises(ValueError, match=r"limit of 2\^63"):
            locate_centers(3, lo, hi, min_width)
    assert reads.calls == 0


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
        assert [c.period for c in _held(cache)].count(p) == _center_count(p)
    assert calls == {"root_isolate": 0, "derivative_enclosure": 0}


def test_scan_builds_no_interval_for_a_proved_cell(tmp_path, monkeypatch):
    # a located cell is proved and stored from its integer ends; each one
    # was built as a RatInterval, then built again for its proof
    check = RatInterval.__post_init__
    built = []

    def counted(self):
        check(self)
        built.append(self)

    monkeypatch.setattr(RatInterval, "__post_init__", counted)
    cache = CenterCache(tmp_path / "c.jsonl")
    for p in range(1, 10):
        assert _scan(p, cache) == []
    assert len(_held(cache)) == sum(map(_center_count, range(1, 10)))
    assert built == []


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
    assert _held(cache) == []
    assert calls == []
