"""Kneading theory of the quadratic family x -> r*x*(1-x), in plain integers
(and one float guide that nothing trusts).

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

So every center of period p can be named in advance, and the cell of a
dyadic grid that holds it is the answer to a search over a monotone key,
the stdlib ``bisect``'s job: ``locate_centers`` decides the cell from its
two ends alone, since the cell's word lies between the kneading sequences
read there. A bisection over float orbits guesses the cell and two exact
reads of K, at its ends, check it; on a miss the same bisection runs over
exact reads, so a wrong guess costs exact reads and changes no cell. Each
exact read is ``numkit.read_symbols``, the package's one exact reader of
the signs of f_r^k(1/2) - 1/2.
Nothing here proves anything: each cell it returns is proved by its caller
(``logistic._scan``, through ``logistic._prove``), with the exact
closing-condition signs and the orbit separation, and completeness by the
center count.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterator, Sequence

from .numkit import read_symbols

L, C, R = -1, 0, 1

Word = tuple[int, ...]
Key = tuple[int, ...]  # a sequence's place in the unimodal order


def unimodal_key(symbols: Sequence[int]) -> Key:
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


def _float_symbols(r: float, n: int) -> Word:
    """The symbols of f_r^k(1/2), k = 1..n, in plain floats: a guess,
    which ``locate_centers`` only uses to choose where to read exactly."""
    x, out = 0.5, []
    for _ in range(n):
        x = r * x * (1 - x)
        out.append((x > 0.5) - (x < 0.5))
    return tuple(out)


def locate_centers(
    p: int, lo: Fraction, hi: Fraction, min_width: Fraction
) -> Iterator[tuple[Fraction, Fraction, int]]:
    """The cells of the 2^depth grid on [lo, hi] that hold the center of at
    least one word of ``mss_words(p)``, in ascending order, as (lo, hi,
    number of words). depth is the least number of halvings that leaves
    cells no wider than min_width, and the grid points are x_0 = lo, ...,
    x_(2^depth) = hi. Cell k holds the words whose W C lies in
    [K(x_k), K(x_(k+1))), with K(lo) taken as -oo and K(hi) as +oo: by the
    monotonicity of K, a center lies in the cell of its word.

    For the first word not yet placed, ``bisect_right`` over the float
    reads (``_float_symbols``) of the grid points right of the last leaf's
    cell guesses a cell; two exact reads of the first p symbols of K
    (``numkit.read_symbols``), at its two ends, check it. On a miss the
    same ``bisect_right`` runs over the exact reads, from the same start, so
    the guess costs reads when it is wrong but never changes a cell. The
    words below the right end's read are all placed in that cell. Exact
    reads are memoized for the call. The grid
    is kept as integer numerators over one power-of-two multiple of the
    ends' denominator."""
    if min_width <= 0:
        raise ValueError(f"min_width must be positive, not {min_width}")
    if lo >= hi:
        raise ValueError(f"need lo < hi, not [{lo}, {hi}]")
    depth, width = 0, hi - lo
    while width > min_width:
        depth, width = depth + 1, width / 2
    if depth >= 64:
        raise ValueError(f"a grid of 2^{depth} cells is past the limit of 2^63 cells")
    n, den = 1 << depth, lcm(lo.denominator, hi.denominator) << depth
    start, step = int(lo * den), int((hi - lo) * den) >> depth
    keys = [unimodal_key(w + (C,)) for w in mss_words(p)]

    @lru_cache(maxsize=None)
    def exact(k: int) -> Key:
        return unimodal_key(read_symbols(start + k * step, den, p))

    def guess(k: int) -> Key:
        return unimodal_key(_float_symbols((start + k * step) / den, p))

    def at_or_below(k: int, key: Key) -> bool:
        return k == 0 or k < n and exact(k) <= key

    leaves, i, cell = [], 0, 0
    while i < len(keys):
        key = keys[i]
        # the cell is the last k with K(x_k) <= key; the last leaf's cell (or
        # 0) is one such k, so only the grid points right of it are searched
        right = range(cell + 1, n)
        guessed = cell + bisect_right(right, key, key=guess)
        if at_or_below(guessed, key) and not at_or_below(guessed + 1, key):
            cell = guessed
        else:
            cell += bisect_right(right, key, key=exact)
        j = len(keys) if cell + 1 == n else bisect_left(keys, exact(cell + 1), i)
        a = start + cell * step
        leaves.append((Fraction(a, den), Fraction(a + step, den), j - i))
        i = j
    return iter(leaves)
