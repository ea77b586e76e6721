"""Subshifts of finite type: word counting, certified entropy, mixing,
prefix recoding onto the binary Cantor set, and the gluing combinator.

An SFT is given by a 0/1 transition matrix (entry (a, b) = 1 iff the
two-letter word ab is allowed). One transitive closure of that graph gives
the essential states (those on bi-infinite allowed paths), the components
that carry a cycle and the mixing test. All entropy computations run on
those components, and every bracket is proved in exact integer
arithmetic; floats only propose the vector it is proved on.

The prefix code admits exactly the mixing binary subshifts of positive
entropy: the full shift ((1,1),(1,1)) and the golden-mean shifts
((1,1),(1,0)) and ((0,1),(1,1)); words are binary digit strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import frexp, gcd, inf, isfinite, ldexp
from operator import truediv
from typing import Callable, Optional, Sequence, Union

from .numkit import (
    RatInterval,
    floor_log2,
    format_rational,
    log2_enclosure,
    parse_rational,
)

_ZERO = Fraction(0)


class Provenance(str, Enum):
    VARIATION = "VARIATION"
    SFT = "SFT"
    SANDWICH = "SANDWICH"
    EXACT = "EXACT"


@dataclass(frozen=True)
class EntropyBound:
    """A certified or estimated enclosure [lo, hi] of a log2-entropy value."""

    lo: Fraction
    hi: Fraction
    provenance: Provenance
    certified: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", parse_rational(self.lo))
        object.__setattr__(self, "hi", parse_rational(self.hi))
        if self.lo < 0:
            raise ValueError("entropy lower bound must be nonnegative")
        if self.lo > self.hi:
            raise ValueError("entropy bounds out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def to_json(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "provenance": self.provenance.value,
            "certified": self.certified,
        }


class MixingVerdict(Enum):
    MIXING = "MIXING"
    NOT_MIXING = "NOT_MIXING"


@dataclass(frozen=True)
class SFT:
    """A subshift of finite type over {0, ..., k-1} with length-2 forbidden
    words, i.e. a k-by-k 0/1 transition matrix."""

    allowed: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.allowed)
        object.__setattr__(self, "allowed", rows)
        k = len(rows)
        if k < 1:
            raise ValueError("alphabet must be nonempty")
        ints, bits = {int}, {0, 1}
        for row in rows:
            if len(row) != k:
                raise ValueError("transition matrix must be square")
            # no int(v): a file's 1.9, "1" or true is refused, not read as 1
            if not ints.issuperset(map(type, row)):
                raise TypeError("transition matrix entries must be integers")
            if not bits.issuperset(row):
                raise ValueError("transition matrix entries must be 0 or 1")

    @property
    def alphabet_size(self) -> int:
        return len(self.allowed)

    @classmethod
    def full_shift(cls, k: int) -> "SFT":
        return cls(tuple(tuple(1 for _ in range(k)) for _ in range(k)))

    @classmethod
    def golden_mean(cls) -> "SFT":
        """Binary shift forbidding the word 11."""
        return cls(((1, 1), (1, 0)))

    def to_json(self) -> dict:
        return {"alphabet": self.alphabet_size, "allowed": [list(r) for r in self.allowed]}

    @classmethod
    def from_json(cls, data: dict) -> "SFT":
        sft = cls(data["allowed"])
        alphabet = data.get("alphabet", sft.alphabet_size)
        if type(alphabet) is not int:
            raise TypeError("alphabet must be an integer")
        if alphabet != sft.alphabet_size:
            raise ValueError("alphabet field disagrees with matrix size")
        return sft


def word_to_str(word: Sequence[int]) -> str:
    return "".join(str(a) for a in word)


def str_to_word(text: str) -> tuple[int, ...]:
    letters = tuple(int(ch) for ch in text)
    if any(not 0 <= a < 2 for a in letters):
        raise ValueError("letter outside alphabet")
    return letters


# ---------------------------------------------------------------------------
# Graph structure
# ---------------------------------------------------------------------------


def _reach(z: SFT) -> list[int]:
    """Transitive closure of the transition graph (Warshall), one bitmask
    per state: bit b of ``reach[a]`` is set iff an allowed path of one or
    more steps leads from a to b, so a lies on a cycle iff bit a is set."""
    k = z.alphabet_size
    reach = [sum(1 << b for b in range(k) if row[b]) for row in z.allowed]
    for m in range(k):
        bit, via = 1 << m, reach[m]
        for a in range(k):
            if reach[a] & bit:
                reach[a] |= via
    return reach


def _components(reach: list[int]) -> list[list[int]]:
    """The strongly connected components that carry a cycle, each sorted."""
    comps: list[list[int]] = []
    placed: set[int] = set()
    for a, row in enumerate(reach):
        if row >> a & 1 and a not in placed:
            comp = [b for b in range(len(reach)) if row >> b & 1 and reach[b] >> a & 1]
            placed.update(comp)
            comps.append(comp)
    return comps


def essential_states(z: SFT) -> tuple[int, ...]:
    """States that lie on some bi-infinite allowed path: reachable from a
    cycle and reaching a cycle."""
    reach = _reach(z)
    cycles = from_cycle = 0
    for a, row in enumerate(reach):
        if row >> a & 1:
            cycles |= 1 << a
            from_cycle |= row
    return tuple(s for s, row in enumerate(reach) if from_cycle >> s & 1 and row & cycles)


def language_contains(z: SFT, word: Sequence[int]) -> bool:
    """Membership in the language of the subshift (essential convention)."""
    ess = set(essential_states(z))
    letters = tuple(word)
    if any(a not in ess for a in letters):
        return False
    return all(z.allowed[a][b] for a, b in zip(letters, letters[1:]))


def count_words(z: SFT, n: int) -> int:
    """Number of length-n words extendable to bi-infinite allowed sequences."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    ess = essential_states(z)
    succ = [[j for j, b in enumerate(ess) if z.allowed[a][b]] for a in ess]
    vec = [1] * len(ess)
    for _ in range(n - 1):
        vec = [sum(vec[j] for j in row) for row in succ]
    return sum(vec)


def check_mixing(z: SFT) -> MixingVerdict:
    """MIXING iff the essential transition matrix is primitive: exactly one
    component carries a cycle (the essential graph is then that component)
    and it is aperiodic."""
    comps = _components(_reach(z))
    if len(comps) != 1:
        return MixingVerdict.NOT_MIXING
    states = comps[0]
    # aperiodicity: gcd over edges of (depth(u) + 1 - depth(v)) from a BFS
    root = states[0]
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for a in frontier:
            for b in states:
                if z.allowed[a][b] and b not in depth:
                    depth[b] = depth[a] + 1
                    nxt.append(b)
        frontier = nxt
    g = 0
    for a in states:
        for b in states:
            if z.allowed[a][b]:
                g = gcd(g, depth[a] + 1 - depth[b])
    return MixingVerdict.MIXING if abs(g) == 1 else MixingVerdict.NOT_MIXING


# ---------------------------------------------------------------------------
# Certified entropy
# ---------------------------------------------------------------------------


# exact power steps before the float guide; every center SFT of period <= 12
# stops within 92 of them at eps 1e-7, and within 95 at the sandwich's 2^-24
_PREFIX_STEPS = 128
# rounds of shifted inverse iteration, each one factorization and 3 solves
_GUIDE_ROUNDS = 4
# bits that each exact-residual Newton step adds to x
_NEWTON_BITS = 48


def _times_b(edges: list[tuple[int, int]], x: list[int]) -> list[int]:
    """y = Bx for B = A + I, with A given by its edge list, the pairs (i, j)
    with A[i][j] = 1. One flat loop over the edges: integer sums are exact
    in any order, so y does not depend on the order of the list."""
    y = x[:]
    for i, j in edges:
        y[i] += x[j]
    return y


def _lu(rows: list[list[float]]) -> Optional[list[tuple[float, list, list]]]:
    """Doolittle LU of a float matrix without pivoting, in place.

    Row i becomes (pivot, multipliers, upper part), the last two as sparse
    (column, value) lists. A zero multiplier or a zero entry of a pivot row is
    skipped, so a sparse block fills in only where elimination forces it.
    Returns None on a pivot that is 0 or not finite.
    """
    out = []
    lower: list[list[tuple[int, float]]] = [[] for _ in rows]
    for k, row in enumerate(rows):
        pivot = row[k]
        if not isfinite(pivot) or pivot == 0:
            return None
        tail = [(j, v) for j, v in enumerate(row[k + 1 :], k + 1) if v]
        for i in range(k + 1, len(rows)):
            other = rows[i]
            if other[k]:
                f = other[k] / pivot
                lower[i].append((k, f))
                for j, v in tail:
                    other[j] -= f * v
        out.append((pivot, lower[k], tail))
    return out


def _fsum(values) -> float:
    """The float sum of values, added left to right from 0.0.

    Not sum(), which adds floats with compensation from Python 3.12 on: the
    float stages must round alike on every supported interpreter, since the
    vector they find fixes the returned pair.
    """
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _lu_solve(lu: list[tuple[float, list, list]], rhs: list[float]) -> list[float]:
    z = list(rhs)
    for i, (_, lower, _) in enumerate(lu):
        z[i] -= _fsum(f * z[k] for k, f in lower)
    for i in range(len(lu) - 1, -1, -1):
        pivot, _, tail = lu[i]
        z[i] = (z[i] - _fsum(v * z[j] for j, v in tail)) / pivot
    return z


def _float_guide(succ: list[list[int]], x: list[int], mu: float) -> Optional[list[float]]:
    """A float approximation of the Perron vector of B = A + I, by shifted
    inverse iteration from x in pure-Python floats.

    mu lies above rho(B), so mu I - B is a nonsingular M-matrix: its LU needs
    no pivoting, and its inverse is positive. After each round of three solves
    mu is moved down to just above the float Collatz-Wielandt maximum, which
    is rho(B) up to rounding. Stops once the float ratios agree to 2^-40, or
    after a round that does not halve their spread, as where the vector
    needs more solves than the rounds allow to fill in a long path.
    Returns None when a pivot vanishes or a value is not finite.
    """
    top = max(x)
    v = [xi / top for xi in x]
    spread = inf
    for _ in range(_GUIDE_ROUNDS):
        rows = [[0.0] * len(succ) for _ in succ]
        for i, row in enumerate(succ):
            rows[i][i] = mu - 1.0
            for j in row:
                rows[i][j] -= 1.0
        lu = _lu(rows)
        if lu is None:
            return None
        for _ in range(3):
            v = _lu_solve(lu, v)
            top = max(v)
            if not (top > 0 and all(map(isfinite, v))):
                return None
            v = [vi / top for vi in v]
        if min(v) <= 0:
            return v
        ratios = [(vi + _fsum(v[j] for j in row)) / vi for vi, row in zip(v, succ)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= lo * 2**-40 or hi - lo > spread / 2:
            return v
        spread = hi - lo
        mu = hi * (1 + 2**-30)
    return v


def _to_int(v: float, k: int) -> int:
    """v * 2^k rounded to an integer, for a finite float v and any integer k,
    with no float overflow on the way."""
    mant, exp = frexp(v)
    n, k = int(ldexp(mant, 53)), k + exp - 53
    return n << k if k >= 0 else n >> -k


def _newton(succ: list[list[int]], edges: list[tuple[int, int]], x: list[int], steps: int):
    """Yield ever finer positive integer vectors after x, by Newton steps on
    (B - lam I) x = 0 with the last entry of x held fixed and exact residuals.
    The block is given twice: the float Jacobian is built from the successor
    lists succ, the exact products Bx run over the same block's edge list.

    The Jacobian, B - lam I with its last column replaced by -x, is factored
    once in floats, so each step gains about the bits a float solve resolves
    (some 45) rather than doubling them. lam is kept as L / 2^t and starts at
    the greatest ratio (Bx)_i / x_i, with 64 bits more than x has. Before
    each step x, L and t gain _NEWTON_BITS bits; the residual
    R = 2^t Bx - L x is formed in integers, and only R scaled into float
    range goes through the solve.
    """
    m = len(succ)
    s = max(x).bit_length()
    t = s + 64
    lam = max((yi << t) // xi for xi, yi in zip(x, _times_b(edges, x)))
    rows = []
    for i, row in enumerate(succ):
        r = [0.0] * m
        r[i] = 1.0 - lam / (1 << t)
        for j in row:
            r[j] += 1.0
        r[m - 1] = -x[i] / (1 << s)
        rows.append(r)
    lu = _lu(rows)
    if lu is None:
        return
    for _ in range(steps):
        x = [v << _NEWTON_BITS for v in x]
        lam <<= _NEWTON_BITS
        t += _NEWTON_BITS
        s += _NEWTON_BITS
        res = [(yi << t) - lam * xi for xi, yi in zip(x, _times_b(edges, x))]
        e = max(abs(v) for v in res).bit_length()
        if e == 0:  # an exact eigenvector
            yield x
            return
        z = _lu_solve(lu, [-v / (1 << e) for v in res])
        if not all(map(isfinite, z)):
            return
        x = [max(1, v + _to_int(zi, e - t)) for v, zi in zip(x, z[:-1])] + x[-1:]
        lam += _to_int(z[-1], e - s)
        yield x


def _perron_bracket(succ: list[list[int]], rel_gap: Fraction) -> tuple[Fraction, Fraction]:
    """Exact rational bracket of the Perron root of an irreducible 0/1 block,
    given as ascending successor lists.

    The bracket comes from the Collatz-Wielandt bounds of B = A + I, which is
    primitive whenever A is irreducible: for any positive integer vector x,
    min_i (Bx)_i / x_i <= rho(B) <= max_i (Bx)_i / x_i. The ratios are
    compared by integer cross-multiplication, the stop test
    hi - lo <= lo * rel_gap is homogeneous in x, and only the two returned
    ends become Fractions. So x may come from anywhere, and floats only guide
    the search for a good one; every returned pair comes from one exact scan.

    1. Up to _PREFIX_STEPS exact power steps from x = 1. They settle every
       block with a large spectral gap, with the pair of the plain power loop.
    2. Shifted inverse iteration in floats (_float_guide), its vector scaled
       to integers whose smallest entry has 60 bits.
    3. Below float reach, Newton steps with exact residuals (_newton) from
       the better of those two vectors, for as long as every two steps in a
       row narrow the bracket by 16 bits or more. Where the float Jacobian
       is poorly conditioned, the steps alternate between large and small
       gains.
    4. Power steps from the best x so far, each result cut to a width that
       follows rel_gap. The Collatz-Wielandt bounds of B^k x never move apart.

    A power step in stages 1 and 4 first compares only the ratios of the two
    states that held the least and the greatest ratio at the last full scan.
    If those differ by more than rel_gap, so do the least and the greatest,
    the step cannot stop, and the full scan is skipped; a step that can stop
    is always scanned in full, so the stop step and its pair stay those of
    the plain loop.

    Every integer step (the scans, Newton's residuals and the power steps)
    runs _times_b over one edge list of the block, built here once. The
    float stages run over succ row by row, in a fixed left-to-right order,
    since their rounding fixes the vector they find.
    """
    edges = [(i, j) for i, row in enumerate(succ) for j in row]
    num, den = rel_gap.numerator, rel_gap.denominator
    bits = max(0, den.bit_length() - num.bit_length() + 1)  # rel_gap >= 2^-bits

    ab = (0, 0)  # the states of the least and the greatest ratio at the last full scan

    def scan(
        x: list[int], screen: bool = False
    ) -> tuple[list[int], Optional[tuple[Fraction, Fraction]], Optional[int]]:
        """y = Bx, the pair for A if it is narrow enough (else None), and the
        bit length of the relative gap (hi - lo) / lo, about its log2; with
        screen, (y, None, None) when the states ab rule the step out."""
        nonlocal ab
        y = _times_b(edges, x)
        a, b = ab
        if screen and (y[b] * x[a] - y[a] * x[b]) * den > y[a] * x[b] * num:
            return y, None, None
        a = b = 0  # states with the least and the greatest ratio y_i / x_i
        for i in range(1, len(x)):
            if y[i] * x[a] < y[a] * x[i]:
                a = i
            elif y[i] * x[b] > y[b] * x[i]:
                b = i
        ab = a, b
        lo_xb = y[a] * x[b]
        diff = y[b] * x[a] - lo_xb
        if diff * den <= lo_xb * num:
            return y, (Fraction(y[a] - x[a], x[a]), Fraction(y[b] - x[b], x[b])), 0
        return y, None, diff.bit_length() - lo_xb.bit_length()

    x = [1] * len(succ)
    for step in range(_PREFIX_STEPS):
        # the last step is scanned in full: its gap ranks x against later vectors
        y, pair, gap_bits = scan(x, screen=step < _PREFIX_STEPS - 1)
        if pair:
            return pair
        x, last = y, x
    # x = B last is at least as narrow as last
    best, best_bits = x, gap_bits
    guide = _float_guide(succ, x, max(map(truediv, x, last)) * (1 + 2**-30))
    if guide is not None:
        shift = 60 - frexp(min((v for v in guide if v > 0), default=1.0))[1]
        x = [max(1, _to_int(v, shift)) for v in guide]
        _, pair, gap_bits = scan(x)
        if pair:
            return pair
        if gap_bits < best_bits:
            best, best_bits = x, gap_bits
    stalled = False
    for x in _newton(succ, edges, best, bits // 8 + 4):
        _, pair, gap_bits = scan(x)
        if pair:
            return pair
        if gap_bits <= best_bits - 16:
            best, best_bits, stalled = x, gap_bits, False
        elif stalled:
            break
        else:
            stalled = True
    width = bits + 64
    x = best
    # a bound only. Blocks get here whose Perron vector the float stages miss,
    # such as a 300-state path behind a clique; with the float stages
    # switched off, the 60-cycle at rel_gap 3e-7 needs about 8 000 of the
    # 41 000 steps this allows it
    for _ in range(8 * len(succ) * width):
        y, pair, _ = scan(x, screen=True)
        if pair:
            return pair
        cut = min(y).bit_length() - width
        x = [v >> cut for v in y] if cut > 0 else y
    raise ArithmeticError("Perron bracket did not converge")


def sft_entropy(z: SFT, eps: Union[Fraction, str, int]) -> EntropyBound:
    """Certified enclosure of the entropy lim log2(N_n)/n, width <= eps.

    The value is log2 of the largest Perron root over the strongly
    connected components that carry a cycle, all of which are essential
    (0 when there is none or each is a single cycle).
    """
    eps = parse_rational(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    comps = _components(_reach(z))
    if not comps:
        return EntropyBound(_ZERO, _ZERO, Provenance.SFT, certified=True)
    lam_lo = Fraction(1)
    lam_hi = Fraction(1)
    rel_gap = eps * Fraction(3, 10)
    for comp in comps:
        succ = [[j for j, b in enumerate(comp) if z.allowed[a][b]] for a in comp]
        lo, hi = _perron_bracket(succ, rel_gap)
        lam_lo = max(lam_lo, lo)
        lam_hi = max(lam_hi, hi)
    bits = max(8, -floor_log2(eps) + 3)
    # lam_lo, lam_hi >= 1, so both ends are >= 0
    enc = log2_enclosure(RatInterval(lam_lo, lam_hi), bits)
    bound = EntropyBound(enc.lo, enc.hi, Provenance.SFT, certified=True)
    if bound.width > eps:
        raise ArithmeticError("entropy enclosure wider than requested")
    return bound


# ---------------------------------------------------------------------------
# Prefix recoding onto {0,1}
# ---------------------------------------------------------------------------


def _require_admissible(z: SFT) -> None:
    """Admit the three subshifts of the module docstring. In each, both
    letters are essential, and a letter with one successor is followed by
    the letter with two, so a forced run is one letter long."""
    if z.alphabet_size != 2:
        raise ValueError("prefix recoding is defined for binary subshifts")
    if check_mixing(z) is not MixingVerdict.MIXING:
        raise ValueError("subshift must be mixing")
    ess = essential_states(z)
    branching = any(sum(z.allowed[a][b] for b in ess) >= 2 for a in ess)
    if not branching:
        raise ValueError("subshift must have positive entropy")


def prefix_encode(z: SFT, word: Union[str, Sequence[int]]) -> str:
    """Monotone prefix encoding of a language word into a binary word.

    Scans the word left to right; position k contributes its letter to the
    output exactly when flipping that letter still leaves a language word,
    i.e. when the prefix is a genuine branch point.
    """
    _require_admissible(z)
    letters = str_to_word(word) if isinstance(word, str) else tuple(word)
    if not language_contains(z, letters):
        raise ValueError("word is not in the language")
    # the prefix before position k is a language word and both letters are
    # essential, so the flipped letter extends it iff it may follow the previous
    return "".join(
        str(a) for k, a in enumerate(letters) if k == 0 or z.allowed[letters[k - 1]][1 - a]
    )


def prefix_decode(z: SFT, bits: str) -> str:
    """Shortest language word encoding to ``bits``; inverts prefix_encode.

    Greedy reconstruction: at a branch point the encoder emitted a symbol,
    so consume the next target bit; at a forced extension nothing was
    emitted, so follow the single allowed letter, after which both letters
    are allowed again.
    """
    _require_admissible(z)
    if any(ch not in "01" for ch in bits):
        raise ValueError("target must be a binary word")
    word: list[int] = []
    for bit in bits:
        if word and not all(z.allowed[word[-1]]):
            word.append(z.allowed[word[-1]].index(1))
        word.append(int(bit))
    return word_to_str(word)


def mixing_gap(z: SFT) -> int:
    """Smallest g such that any two language words can occur in one
    configuration separated by exactly g symbols: the least g with
    A^(g+1) > 0.

    That is 0 for the full shift, whose A > 0. A golden-mean matrix has a
    zero entry, so g >= 1, and A^2 > 0: the letter with two successors
    reaches both letters in one step, and the other letter reaches it in one
    step, so every letter reaches every letter in exactly two. So g = 1.
    """
    _require_admissible(z)
    return 0 if all(map(all, z.allowed)) else 1


def prefix_modulus(z: SFT, k: int) -> int:
    """Input length guaranteeing >= k encoded output symbols."""
    return 1 + k * (mixing_gap(z) + 1)


@dataclass(frozen=True)
class PrefixMapOracle:
    """A computable map on binary sequences exposed through finite prefixes.

    ``fn`` maps an input prefix to a determined output prefix (monotone:
    extending the input only extends the output). ``modulus(m)`` returns an
    input length sufficient to determine m output symbols.
    """

    fn: Callable[[str], str]
    modulus: Callable[[int], int]

    def __call__(self, prefix: str) -> str:
        return self.fn(prefix)


def identity_prefix_oracle() -> PrefixMapOracle:
    return PrefixMapOracle(fn=lambda b: b, modulus=lambda m: m)


def shift_prefix_oracle(z: SFT) -> PrefixMapOracle:
    """The shift of ``z`` transported to the full binary Cantor set via the
    prefix recoding; surjective whenever ``z`` is mixing.

    Its modulus is m + 1: ``prefix_decode`` of n bits gives a word with n
    branch positions, one per bit. Dropping the word's first letter keeps
    every branch position but the first, since the test at a position k >= 1
    reads only letters k - 1 and k, and position 0 always emits. So n input
    bits give at least n - 1 output bits. n copies of the letter with two
    successors decode with no forced letter and give exactly n - 1, so m
    bits can fall short of m.
    """
    _require_admissible(z)

    def fn(prefix: str) -> str:
        if prefix == "":
            return ""
        word = prefix_decode(z, prefix)
        return prefix_encode(z, word[1:])

    return PrefixMapOracle(fn=fn, modulus=lambda m: m + 1)


class NeedMoreInput(ValueError):
    """Raised when a glued-map query cannot be answered from the prefix."""

    def __init__(self, needed: int):
        super().__init__(f"need at least {needed} input symbols")
        self.needed = needed


def glue_prefix_maps(
    components: Sequence[PrefixMapOracle],
    word: str,
    *,
    min_out: Optional[int] = None,
) -> str:
    """Combine component maps into one map on binary sequences.

    Inputs starting 0^k 1 are routed to component k (the last component
    repeats for k beyond the list), keeping the 0^k 1 header; all-zero
    inputs map to all-zero outputs. Returns the determined output prefix.
    """
    if not components:
        raise ValueError("need at least one component")
    if any(ch not in "01" for ch in word):
        raise ValueError("input must be a binary word")
    k = word.find("1")
    if k < 0:
        out = "0" * len(word)
    else:
        comp = components[min(k, len(components) - 1)]
        out = "0" * k + "1" + comp(word[k + 1 :])
    if min_out is not None and len(out) < min_out:
        raise NeedMoreInput(glue_modulus(components, min_out))
    return out


def glue_modulus(components: Sequence[PrefixMapOracle], m: int) -> int:
    """Input length sufficient to determine m output symbols of the glue."""
    needed = m
    for k in range(m):
        comp = components[min(k, len(components) - 1)]
        needed = max(needed, k + 1 + comp.modulus(max(0, m - k - 1)))
    return needed
