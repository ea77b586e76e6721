"""The quadratic family pipeline: superattracting centers, critical-orbit
Markov partitions, certified center entropies, and the bracketing
("sandwich") computation of the entropy at an arbitrary parameter.

Centers are parameters where the critical orbit closes up; each one carries
an induced subshift of finite type whose certified Perron bound gives the
entropy of the map there. Since the entropy is weakly increasing in the
parameter, centers on both sides of a query bracket its entropy, and the
brackets tighten as the enumerated period grows.

The centers of a period are located by their kneading words (``kneading``)
and proved here: exact signs of the closing condition at a cell's ends
show a root in it, separated orbit enclosures show its period minimal,
and the count of centers of the period (``_center_count``) shows the list
complete.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path
from typing import Optional, Sequence, Union

from .kneading import locate_centers
from .numkit import (
    ENCLOSURE_BITS,
    RatInterval,
    RationalLike,
    _orbit_mantissas,
    critical_orbit_expr,
    json_int,
    parse_interval,
    parse_rational,
    # unused here; perfbench's tracer wraps both bindings by name
    refine_root,
    root_isolate,
)
from .symbolic import SFT, EntropyBound, Provenance, sft_entropy

_ZERO = Fraction(0)
_ONE = Fraction(1)

CACHE_SCHEMA = 5

DEFAULT_EPS = Fraction(1, 10**7)
CENTER_EPS = Fraction(1, 1 << 24)
DEFAULT_ROOT_WIDTH = Fraction(1, 1 << 24)


class BudgetExceeded(RuntimeError):
    """The sandwich ran out of budget; carries the best sound bound."""

    def __init__(self, best: EntropyBound):
        super().__init__(
            f"budget exhausted; best enclosure [{best.lo}, {best.hi}]"
        )
        self.best = best


@dataclass(frozen=True)
class Center:
    """A superattracting parameter with its induced Markov model."""

    r_enc: RatInterval
    period: int
    orbit_order: tuple[int, ...]  # rank of f^k(c), k = 1..period, in [0, 1]
    sft: SFT
    entropy: EntropyBound

    def to_json(self) -> dict:
        return {
            "type": "center",
            "period": self.period,
            "r_enc": self.r_enc.to_json(),
            "orbit_order": list(self.orbit_order),
            "sft": self.sft.to_json(),
            "entropy": self.entropy.to_json(),
        }


@dataclass(frozen=True)
class EnumerationResult:
    centers: tuple[Center, ...]
    unresolved: tuple[RatInterval, ...]


# ---------------------------------------------------------------------------
# Markov partition from the critical orbit
# ---------------------------------------------------------------------------


_Ends = tuple[int, int, int, int]  # an r_enc as (lo_num, lo_den, hi_num, hi_den)


def _ends(lo: Fraction, hi: Fraction) -> _Ends:
    return lo.numerator, lo.denominator, hi.numerator, hi.denominator


def _markov_data(
    ends: _Ends, period: int
) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    # mantissas over 2**ENCLOSURE_BITS of f(c), ..., f^{p-1}(c), and of the
    # closing point f^p(c), which is c itself; returned in ascending order.
    # ValueError where they do not separate
    lo_num, lo_den, hi_num, hi_den = ends
    b = lcm(lo_den, hi_den)
    half = 1 << (ENCLOSURE_BITS - 1)
    orbit = _orbit_mantissas(lo_num * (b // lo_den), hi_num * (b // hi_den), b, 1, 1, 2, period - 1)
    orbit.append((half, half))
    order = sorted(range(period), key=lambda k: orbit[k][0])
    ordered = [orbit[k] for k in order]
    # a separated orbit lies between its first lo and its last hi, and an
    # unseparated one is refused below either way
    if ordered[0][0] <= 0 or ordered[-1][1] >= 1 << ENCLOSURE_BITS or any(
        a_hi >= b_lo for (_, a_hi), (b_lo, _) in zip(ordered, ordered[1:])
    ):
        raise ValueError("the critical orbit does not separate on r_enc")
    rank = {k: i for i, k in enumerate(order)}
    return ordered, tuple(rank[k] for k in range(period))


def _transitions(ranks: Sequence[int]) -> SFT:
    """The transitions between the cells cut by 0, the orbit points and 1,
    where f^k(c), k = 1..p, has rank ranks[k - 1] among the orbit points; a
    ranking that is no permutation, or leaves a row empty, is refused."""
    p = len(ranks)
    if sorted(ranks) != list(range(p)):
        raise ValueError("orbit order is not a permutation")
    image = [0] * (p + 2)  # of each partition point; 0 and 1 map to 0
    for k, rank in enumerate(ranks):
        image[rank + 1] = ranks[(k + 1) % p] + 1
    rows = []
    for j in range(p + 1):
        # f increases up to c = f^p(c), of rank ranks[-1]
        lo, hi = (image[j], image[j + 1] - 1) if j <= ranks[-1] else (image[j + 1], image[j] - 1)
        if lo > hi:
            raise ValueError("orbit order leaves a transition row empty")
        rows.append((0,) * lo + (1,) * (hi - lo + 1) + (0,) * (p - hi))
    return SFT(tuple(rows))


def markov_partition(center: Center) -> tuple[tuple[RatInterval, ...], SFT]:
    """Partition-point enclosures and the induced transition structure."""
    ordered, orbit_rank = _markov_data(_ends(center.r_enc.lo, center.r_enc.hi), center.period)
    scale = 1 << ENCLOSURE_BITS
    inner = (RatInterval(Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in ordered)
    return (RatInterval.point(_ZERO), *inner, RatInterval.point(_ONE)), _transitions(orbit_rank)


# ---------------------------------------------------------------------------
# Center cache
# ---------------------------------------------------------------------------


# the errors a malformed record raises, reported with its line
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError)

# str in, as json.loads(str) but without its per-call checks; json.loads of
# bytes would also detect the encoding of every line
_decode = json.JSONDecoder().decode


def _malformed(line: int, path: Optional[Path], exc: Exception) -> ValueError:
    return ValueError(f"malformed line {line} in {path}: {exc!r}")


# the most bits the reduced denominator of a stored r_enc end may have: the
# scan writes the ends of its cells (_GRID), [2 + 2^-26, 4] halved 25 times,
# multiples of 2^-51 of at most 52 bits. A longer end is refused: the exact
# sign behind the proof of a center (sign_at) forms integers that grow like
# the denominator to the power 2^period
_MAX_END_BITS = 52


# per-process memos, each well above the 380 centers of period <= 12
@lru_cache(maxsize=1024)
def _prove(period: int, ends: _Ends) -> tuple[int, ...]:
    """The orbit order of the center of period ``period`` in the r_enc with
    these reduced ends, the one proof of a located cell and of a stored
    center: the closing condition changes sign or vanishes at the ends, so
    r_enc holds one of its roots, and the critical orbit separates over all
    of r_enc, so that root has minimal period ``period`` and its orbit has
    this order. ValueError otherwise."""
    lo_num, lo_den, hi_num, hi_den = ends
    expr = critical_orbit_expr(period)
    if expr.sign_at(Fraction(lo_num, lo_den)) * expr.sign_at(Fraction(hi_num, hi_den)) > 0:
        raise ValueError("the closing condition keeps one sign on r_enc")
    return _markov_data(ends, period)[1]


@lru_cache(maxsize=1024)
def _center_model(order: tuple[int, ...], eps: Fraction) -> tuple[SFT, EntropyBound]:
    """The SFT rebuilt from a proved orbit order, and the entropy enclosure
    ``sft_entropy`` computes for it at eps."""
    sft = _transitions(order)
    return sft, sft_entropy(sft, eps)


@dataclass(eq=False, slots=True)
class _Stored:
    """A center of the cache: ``period`` and ``ends``, the ``r_enc`` as
    reduced integers with positive denominators. The ``r_enc`` RatInterval
    is built from them on first read, which only ``enumerate_centers``
    makes, for its overlap check and its output. ``order()`` is the proved
    orbit order: the center is proved from its ends on its first use in the
    process (``_prove``), and a failed proof is reported as a malformed line
    of its file. A center the scan added in this process is proved already.
    ``center(eps)`` is the one place a stored center becomes a ``Center``,
    for output: it takes the SFT rebuilt from the orbit order and the
    entropy enclosure ``sft_entropy`` computes at eps (``_center_model``)."""

    period: int
    ends: _Ends
    _r_enc: Optional[RatInterval] = None
    _line: int = 0
    _path: Optional[Path] = None

    @property
    def r_enc(self) -> RatInterval:
        if self._r_enc is None:
            lo_num, lo_den, hi_num, hi_den = self.ends
            self._r_enc = RatInterval(Fraction(lo_num, lo_den), Fraction(hi_num, hi_den))
        return self._r_enc

    def order(self) -> tuple[int, ...]:
        try:
            return _prove(self.period, self.ends)
        except ValueError as exc:
            raise _malformed(self._line, self._path, exc) from exc

    def center(self, eps: Fraction) -> Center:
        order = self.order()
        return Center(self.r_enc, self.period, order, *_center_model(order, eps))


class CenterCache:
    """Append-only JSON-lines store of where the centers are.

    The first line is a schema header and every later line that is not
    blank is a center record, ``{"type": "center", "period": p, "r_enc":
    [lo, hi]}``. A period is complete when the file holds its number of
    centers (``_center_count``); reruns reuse complete periods and never
    duplicate or rewrite existing lines. A final line without its newline
    that does not parse is the torn tail of an interrupted append: loading
    ignores it and the next append cuts it off.

    Loading checks every line's UTF-8 and JSON, the header's schema, and
    each record's ``type`` (``"center"``), ``period`` (a JSON integer >= 1)
    and ``r_enc``, and reads nothing else. The ``r_enc`` is read into
    reduced integers, ``"p/q"`` text with no Fraction built, its ends
    checked in order by cross-multiplication and their denominators
    against the longest the scan writes (``_MAX_END_BITS``), and it is
    compared as integers from then on: by the duplicate check at load and
    by ``collect_brackets``. A center is proved on first use
    (``_Stored``). A malformed line, or one whose center fails its proof,
    raises ``ValueError`` naming the line, at load or at first use.
    """

    def __init__(self, path: Union[str, Path, None]):
        self.path = Path(path) if path else None
        self.centers: list[_Stored] = []
        # (period, *ends) of every center held
        self._keys: set[tuple[int, ...]] = set()
        # (offset, text): where the next append must start and what it
        # writes first, when the file does not end in a complete line
        self._tail: Optional[tuple[int, str]] = None
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        end = 0  # offset just past the last line that parsed
        raw = b"\n"
        with open(self.path, "rb") as fh:
            for number, raw in enumerate(fh):
                blank = raw.isspace()
                try:
                    data = None if blank else _decode(raw.decode())
                except ValueError as exc:  # not UTF-8, or not JSON
                    if raw.endswith(b"\n"):
                        raise _malformed(number + 1, self.path, exc) from exc
                    # the torn tail of an interrupted append; the next append cuts it
                    self._tail = (end, "")
                    return
                end += len(raw)
                if number == 0:
                    if not isinstance(data, dict) or data.get("schema") != CACHE_SCHEMA:
                        raise ValueError(f"unsupported cache schema in {self.path}")
                elif not blank:
                    try:
                        self._read_line(number, data)
                    except _MALFORMED as exc:
                        raise _malformed(number + 1, self.path, exc) from exc
        if not raw.endswith(b"\n"):
            self._tail = (end, "\n")

    def _read_line(self, number: int, data: dict) -> None:
        if data.get("type") != "center":
            raise ValueError("not a center record")
        period = json_int(data["period"], 1)
        ends = parse_interval(data["r_enc"])
        if (ends[1] | ends[3]) >> _MAX_END_BITS:  # a denominator of more bits
            raise ValueError(f"an r_enc denominator has more than {_MAX_END_BITS} bits")
        if self._add_key(period, ends):
            self.centers.append(_Stored(period, ends, None, number + 1, self.path))

    def _add_key(self, period: int, ends: _Ends) -> bool:
        """Record the center's key; False when it was there already."""
        size = len(self._keys)
        self._keys.add((period, *ends))
        return len(self._keys) > size

    def _append(self, record: dict) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        size = self.path.stat().st_size if self.path.exists() else 0
        with open(self.path, "a", encoding="utf-8") as fh:
            if self._tail is not None:
                size, lead = self._tail
                fh.truncate(size)
                fh.write(lead)
                self._tail = None
            if size == 0:
                fh.write(json.dumps({"schema": CACHE_SCHEMA}, sort_keys=True) + "\n")
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def add_center(self, period: int, ends: _Ends) -> None:
        """Add a center the scan proved, its r_enc as reduced integer ends."""
        if not self._add_key(period, ends):
            return
        self.centers.append(_Stored(period, ends))
        lo_num, lo_den, hi_num, hi_den = ends
        r_enc = [f"{lo_num}/{lo_den}", f"{hi_num}/{hi_den}"]
        self._append({"type": "center", "period": period, "r_enc": r_enc})


# ---------------------------------------------------------------------------
# Center enumeration
# ---------------------------------------------------------------------------


# the highest period scanned, by `centers` and by the sandwich alike: the
# number of centers, and with it the scan cost, roughly doubles per period
DEFAULT_PERIOD_CAP = 12


def _check_period_cap(p_max: int) -> None:
    if p_max > DEFAULT_PERIOD_CAP:
        raise ValueError(f"period {p_max} exceeds the period cap {DEFAULT_PERIOD_CAP}")


# the grid the centers are located on: [2 + DEFAULT_ROOT_WIDTH/4, 4] cut
# into 2^25 cells no wider than DEFAULT_ROOT_WIDTH. locate_centers reads the
# kneading sequence exactly at the two ends of each cell that holds a center
# (a float guide picks the cell). numkit.root_isolate bisects the same grid
# on [0, 4] once past its exact zero at r = 2, so both find the same cells
# and write the same cache records. Every center of period >= 2 lies in
# (3, 4).
_GRID = (2 + DEFAULT_ROOT_WIDTH / 4, Fraction(4))


def _scan(p: int, cache: CenterCache) -> list[RatInterval]:
    """Locate the centers of period p by their kneading words
    (``kneading.locate_centers``), in ascending r, prove each one and add
    it to the cache, where one already stored is not added again. Period 1
    is the point r = 2. A cell is proved from its integer ends in this
    process exactly as a stored center is (``_prove``), with no refinement
    and no RatInterval. A cell that holds more than one word, or fails its
    proof, is returned unresolved, as a RatInterval."""
    if p == 1:
        leaves = [(Fraction(2), Fraction(2), 1)]
    else:
        leaves = locate_centers(p, *_GRID, DEFAULT_ROOT_WIDTH)
    unresolved = []
    for lo, hi, n_words in leaves:
        ends = _ends(lo, hi)
        try:
            if n_words != 1:
                raise ValueError("the cell holds more than one word")
            _prove(p, ends)
        except ValueError:
            unresolved.append(RatInterval(lo, hi))
        else:
            cache.add_center(p, ends)
    return unresolved


@lru_cache(maxsize=None)
def _center_count(p: int) -> int:
    """The number of superattracting parameters of period p in (0, 4]:
    (1/2p) * sum over odd d | p of mu(d) 2^(p/d), with mu the Moebius
    function (Metropolis-Stein-Stein 1973; OEIS A000048)."""
    total = 0
    for d in range(1, p + 1, 2):
        if p % d == 0:
            mu, n, f = 1, d, 3
            while n > 1:
                while n % f:
                    f += 2
                n //= f
                mu = 0 if n % f == 0 else -mu
            total += mu << (p // d)
    return total // (2 * p)


def _complete_period(
    p: int, cache: CenterCache
) -> tuple[list[_Stored], list[RatInterval]]:
    """The stored centers of period p, in cache order and unproved, and the
    unresolved cells of period p. A cache that holds fewer than
    ``_center_count(p)`` centers of period p has the period scanned, which
    adds the missing ones to it; the cells the scan leaves unresolved are
    returned while the period is still short. A count that is too high, or
    still short after a scan that left no cell unresolved, raises
    ValueError."""
    want = _center_count(p)
    stored = [c for c in cache.centers if c.period == p]
    if len(stored) < want:
        unresolved = _scan(p, cache)
        stored = [c for c in cache.centers if c.period == p]
        if len(stored) < want and unresolved:
            return stored, unresolved
    if len(stored) != want:
        raise ValueError(
            f"the center cache holds {len(stored)} centers of period {p}, "
            f"but there are {want}"
        )
    return stored, []


def enumerate_centers(
    p_max: int,
    *,
    eps: RationalLike = DEFAULT_EPS,
    cache: Union[CenterCache, str, Path, None] = None,
) -> EnumerationResult:
    """All superattracting centers of period <= p_max in (0, 4).

    The centers of a period are located by bisection in the kneading order,
    one cell per word of ``kneading.mss_words`` (``_scan``). A cell is
    accepted once the exact signs of the closing condition at its ends
    differ and the enclosures of its critical orbit are separated, which
    proves it holds a root of minimal period (``_prove``); any other cell
    is left unresolved, with no refinement. No stored center is read to
    decide a period. A period is complete when the cache holds its known
    number of centers; a period short of it is scanned, and one with more
    raises ValueError. Every stored center returned is proved in this
    process by the same ``_prove``, and gets its induced subshift, rebuilt
    from its orbit order, and the entropy enclosure ``sft_entropy`` gives at
    eps. Two centers of one period whose r_enc intersect raise ValueError:
    with the count, each center of the period is then in exactly one r_enc.
    The unresolved cells are those of the periods still short after this
    run's scan, in period order: a complete period has no cell that could
    hold a missing center. A nonpositive eps is refused before the cache is
    read, and periods beyond ``DEFAULT_PERIOD_CAP`` = 12 are refused, as in
    the sandwich: the number of centers roughly doubles with each period.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    eps = parse_rational(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not isinstance(cache, CenterCache):
        cache = CenterCache(cache)
    _check_period_cap(p_max)
    stored, unresolved = [], []
    for p in range(1, p_max + 1):
        centers, cells = _complete_period(p, cache)
        spans = sorted((c.r_enc for c in centers), key=lambda iv: iv.lo)
        if any(a.hi >= b.lo for a, b in zip(spans, spans[1:])):
            raise ValueError(f"the center cache holds overlapping centers of period {p}")
        stored += centers
        unresolved += cells
    stored.sort(key=lambda c: (c.r_enc.lo, c.period))
    return EnumerationResult(tuple(c.center(eps) for c in stored), tuple(unresolved))


# ---------------------------------------------------------------------------
# Bracket collection and the sandwich
# ---------------------------------------------------------------------------

_EXACT_ZERO = EntropyBound(_ZERO, _ZERO, Provenance.EXACT, certified=True)
_EXACT_ONE = EntropyBound(_ONE, _ONE, Provenance.EXACT, certified=True)


def _sign(a_num: int, a_den: int, b_num: int, b_den: int) -> int:
    """The sign of a_num/a_den - b_num/b_den, for positive denominators."""
    diff = a_num * b_den - b_num * a_den
    return (diff > 0) - (diff < 0)


def _precedes(a: _Stored, b: _Stored, *, by_hi: bool) -> bool:
    """Whether the center a goes before b as the nearest on its side: below
    the query (``by_hi``) by the greatest hi, then the least lo, then the
    least period; above it by the least lo, then the least period."""
    a_lo_num, a_lo_den, a_hi_num, a_hi_den = a.ends
    b_lo_num, b_lo_den, b_hi_num, b_hi_den = b.ends
    order = _sign(b_hi_num, b_hi_den, a_hi_num, a_hi_den) if by_hi else 0
    order = order or _sign(a_lo_num, a_lo_den, b_lo_num, b_lo_den)
    return order < 0 if order else a.period < b.period


def collect_brackets(
    query: RatInterval, centers: Sequence[_Stored]
) -> tuple[Optional[_Stored], Optional[_Stored]]:
    """The nearest stored center on each side of the query, as (below,
    above).

    ``below`` has the greatest r_enc.hi < query.lo and ``above`` the least
    r_enc.lo > query.hi; a side without one is None. Ties go to the least
    (r_enc.lo, period), then to the first in ``centers``, so the choice does
    not depend on how ``centers`` is ordered otherwise. The search compares
    only each center's period and its r_enc ends, as integers by
    cross-multiplication; it proves nothing and computes no entropy.
    """
    if query.lo < 0 or query.hi > 4:
        raise ValueError("query must lie within [0, 4]")
    q_lo_num, q_lo_den = query.lo.numerator, query.lo.denominator
    q_hi_num, q_hi_den = query.hi.numerator, query.hi.denominator
    below = above = None  # the nearest center so far on each side
    for center in centers:
        lo_num, lo_den, hi_num, hi_den = center.ends
        if hi_num * q_lo_den < q_lo_num * hi_den:  # r_enc.hi < query.lo
            if below is None or _precedes(center, below, by_hi=True):
                below = center
        elif lo_num * q_hi_den > q_hi_num * lo_den:  # r_enc.lo > query.hi
            if above is None or _precedes(center, above, by_hi=False):
                above = center
    return below, above


@dataclass(frozen=True)
class SandwichBudget:
    max_period: int = DEFAULT_PERIOD_CAP
    seconds: Optional[float] = None

    def __post_init__(self) -> None:
        # a NaN deadline is never reached: monotonic() > nan is always false
        if self.max_period < 1 or not (self.seconds is None or 0 < self.seconds < math.inf):
            raise ValueError("budget out of range")


def logistic_entropy(
    query: Union[RatInterval, RationalLike],
    eps: RationalLike,
    budget: SandwichBudget = SandwichBudget(),
    *,
    cache: Union[CenterCache, str, Path, None] = None,
) -> EntropyBound:
    """Enclosure of the entropy of x -> r*x*(1-x) at the query parameter,
    of width <= eps.

    Below 3 the map has at most one attracting fixed point and the entropy
    is exactly 0; at 4 the map is conjugate to the full tent map and the
    entropy is exactly 1. In between, for p = 1, 2, ... period p is read as
    ``enumerate_centers`` reads it, count check included, and the nearest
    center on each side of the query (``collect_brackets``) among the pair
    held from period p - 1 and the centers of period p bounds the entropy
    by monotonicity, until the enclosure is tight enough: only a center of
    period p can be nearer than the held one. The pair is held as cache
    records, and only their entropies are read: the lower end below and the
    upper end above, computed to min(CENTER_EPS, eps/4) from the proved
    orbit order (``_center_model``); no ``Center`` is built. When
    max_period or the deadline is reached first, a BudgetExceeded carrying
    the best sound enclosure is raised. A budget with max_period beyond
    ``DEFAULT_PERIOD_CAP`` is refused at once.
    """
    _check_period_cap(budget.max_period)
    if not isinstance(query, RatInterval):
        query = RatInterval.point(parse_rational(query))
    if query.lo < 0 or query.hi > 4:
        raise ValueError("query must lie within [0, 4]")
    eps = parse_rational(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if query.hi <= 3:
        return _EXACT_ZERO
    if query.is_point and query.lo == 4:
        return _EXACT_ONE
    center_eps = min(CENTER_EPS, eps / 4)
    if not isinstance(cache, CenterCache):
        cache = CenterCache(cache)
    deadline = None if budget.seconds is None else time.monotonic() + budget.seconds
    target = eps * Fraction(9, 10)
    below = above = None
    for p in range(1, budget.max_period + 1):
        held = [c for c in (below, above) if c is not None]
        below, above = collect_brackets(query, held + _complete_period(p, cache)[0])
        lo = _center_model(below.order(), center_eps)[1].lo if below else _ZERO
        hi = _center_model(above.order(), center_eps)[1].hi if above else _ONE
        if hi - lo <= target:
            return EntropyBound(lo, hi, Provenance.SANDWICH, certified=True)
        if deadline is not None and time.monotonic() > deadline:
            break
    raise BudgetExceeded(EntropyBound(lo, hi, Provenance.SANDWICH, certified=False))
