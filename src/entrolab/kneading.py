"""Kneading theory of the quadratic family x -> r*x*(1-x), in plain integers.

The symbol of a point x is L, C or R as x < 1/2, x = 1/2 or x > 1/2,
written -1, 0 and 1. The kneading sequence K(r) is the sequence of symbols
of f_r^k(1/2), k = 1, 2, .... Sequences are compared in the unimodal
order: at the first position where two differ, L < C < R, reversed when
the common prefix holds an odd number of R's, since f reverses order right
of 1/2. ``unimodal_key`` turns a sequence into a tuple whose tuple order is
this order.

Two theorems make the centers of period p findable by their words:

- K(r) is nondecreasing in r on [2, 4] (Milnor-Thurston, "On iterated
  maps of the interval", 1988).
- A center of period p has K = (W C)^oo for a word W in {L, R}^(p - 1)
  whose (W C)^oo is shift-maximal, and every such word is the sequence of
  exactly one center (Metropolis-Stein-Stein, J. Combin. Theory A 1973).

So ``locate_centers`` bisects a dyadic grid, reads K at each midpoint and
sends each word to the side of the midpoint its center lies on. Nothing
here proves anything: each cell it returns is proved by its caller
(``logistic._scan``, through ``logistic._prove``), with the exact
closing-condition signs and the orbit separation, and completeness by the
center count.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterator, Sequence

from .numkit import _HALF_MANTISSA, _orbit_mantissas, critical_orbit_expr

L, C, R = -1, 0, 1

Word = tuple[int, ...]


def unimodal_key(symbols: Sequence[int]) -> tuple[int, ...]:
    """The symbols, each times -1 to the number of R's before it, so that
    tuple order is the unimodal order; every entry after a C is 0."""
    key, sign = [], 1
    for s in symbols:
        key.append(sign * s)
        sign *= -s
    return tuple(key)


def _shift_maximal(word: Word) -> bool:
    """Whether (W C)^oo lies strictly above each of its shifts. The shift by
    j is decided within its first p - j positions, where it holds the C and
    the sequence does not; its key is that of the suffix, which is the
    sequence's key from j on times -1 to the number of R's in W[:j]."""
    key = unimodal_key(word + (C,))
    p, sign = len(key), 1
    for j in range(1, p):
        sign *= -word[j - 1]
        if tuple(sign * x for x in key[j:]) >= key[: p - j]:
            return False
    return True


@lru_cache(maxsize=None)
def mss_words(p: int) -> tuple[Word, ...]:
    """The words W in {L, R}^(p - 1) whose (W C)^oo is shift-maximal, in
    increasing unimodal order of W C, which is the order of their centers
    in r. There are as many as there are centers of period p
    (``_center_count``)."""
    if p < 1:
        raise ValueError("period must be >= 1")
    words = []
    for bits in range(1 << (p - 1)):
        word = tuple(R if bits >> i & 1 else L for i in range(p - 2, -1, -1))
        if _shift_maximal(word):
            words.append(word)
    return tuple(sorted(words, key=lambda w: unimodal_key(w + (C,))))


def read_symbols(a: int, b: int, n: int) -> Word:
    """The symbols of f_r^k(1/2), k = 1..n, at r = a/b in [0, 4], exact.

    One orbit enclosure at 2**-ENCLOSURE_BITS gives each symbol whose
    enclosure excludes 1/2; a step whose enclosure straddles 1/2 is signed
    by the exact ``IterMapExpr.sign_at``."""
    out = []
    for k, (lo, hi) in enumerate(_orbit_mantissas(a, a, b, 1, 1, 2, n), 1):
        if lo > _HALF_MANTISSA:
            out.append(R)
        elif hi < _HALF_MANTISSA:
            out.append(L)
        else:
            out.append(critical_orbit_expr(k).sign_at(Fraction(a, b)))
    return tuple(out)


def locate_centers(
    p: int, lo: Fraction, hi: Fraction, min_width: Fraction
) -> Iterator[tuple[Fraction, Fraction, int]]:
    """The leaves of the bisection of [lo, hi] that hold the center of at
    least one word of ``mss_words(p)``, in ascending order, as (lo, hi,
    number of words). A cell is halved while it is wider than min_width
    and holds a word. At each midpoint the first p symbols of K are read,
    and the words whose W C lies below them go left: by the monotonicity
    of K their centers lie below the midpoint. The grid is kept as integer
    numerators over one power-of-two multiple of the ends' denominator."""
    depth, width = 0, hi - lo
    while width > min_width:
        depth, width = depth + 1, width / 2
    den = lcm(lo.denominator, hi.denominator) << depth
    keys = [unimodal_key(w + (C,)) for w in mss_words(p)]
    stack = [(int(lo * den), int(hi * den), 0, len(keys), depth)]
    while stack:
        a, b, i, j, d = stack.pop()
        if i == j:
            continue
        if d == 0:
            yield Fraction(a, den), Fraction(b, den), j - i
            continue
        mid = (a + b) >> 1
        k = bisect_left(keys, unimodal_key(read_symbols(mid, den, p)), i, j)
        stack.append((mid, b, k, j, d - 1))
        stack.append((a, mid, i, k, d - 1))
