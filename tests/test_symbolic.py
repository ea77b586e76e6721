import math
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entrolab import symbolic
from entrolab.logistic import CENTER_EPS, DEFAULT_EPS, enumerate_centers
from entrolab.numkit import RatInterval, log2_enclosure
from entrolab.symbolic import (
    SFT,
    EntropyBound,
    MixingVerdict,
    NeedMoreInput,
    Provenance,
    _perron_bracket,
    check_mixing,
    count_words,
    essential_states,
    glue_modulus,
    glue_prefix_maps,
    identity_prefix_oracle,
    language_contains,
    mixing_gap,
    prefix_decode,
    prefix_encode,
    prefix_modulus,
    shift_prefix_oracle,
    sft_entropy,
    str_to_word,
    word_to_str,
)

GOLDEN = SFT.golden_mean()
FULL2 = SFT.full_shift(2)
MIRROR = SFT(((0, 1), (1, 1)))  # the golden mean with its letters swapped
# the subshifts the prefix code admits
PREFIX_CODED = (GOLDEN, MIRROR, FULL2)
LOOP = SFT(((1,),))
PERIOD3 = SFT(((1, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0), (0, 1, 0, 0)))
PHI = (1 + 5**0.5) / 2


def language_words(z, n):
    return [w for w in product((0, 1), repeat=n) if language_contains(z, w)]


def test_sft_validation():
    with pytest.raises(ValueError):
        SFT(((1, 0), (1,)))
    with pytest.raises(ValueError):
        SFT(((2, 0), (0, 0)))
    with pytest.raises(TypeError):  # entries are never truncated to 0/1
        SFT(((1.9, 1), (1, 0)))
    with pytest.raises(TypeError):  # bool is a subclass of int, but no entry
        SFT(((1, True), (1, 0)))
    with pytest.raises(TypeError):
        SFT(((1, "1"), (1, 0)))
    with pytest.raises(ValueError):
        SFT(((1, -1), (1, 0)))
    with pytest.raises(ValueError):  # rows are checked in order, each in full
        SFT(((1, 2), (1, 0.5)))
    with pytest.raises(TypeError):
        SFT.from_json({"alphabet": 2.0, "allowed": [[1, 1], [1, 0]]})
    assert SFT.from_json(GOLDEN.to_json()) == GOLDEN


def test_word_codecs():
    assert word_to_str((0, 1, 0)) == "010"
    assert str_to_word("010") == (0, 1, 0)
    with pytest.raises(ValueError):
        str_to_word("5")


def test_count_words():
    assert count_words(FULL2, 3) == 8
    assert [count_words(GOLDEN, n) for n in (1, 2, 3)] == [2, 3, 5]
    assert count_words(LOOP, 9) == 1


def test_count_words_matches_enumeration():
    for n in range(1, 9):
        assert count_words(GOLDEN, n) == len(language_words(GOLDEN, n))


def test_essential_excludes_transient():
    # the last state has no predecessor, so it carries no words
    ess = essential_states(PERIOD3)
    assert ess == (0, 1, 2)
    assert not language_contains(PERIOD3, (3,))


def test_entropy_golden_tight():
    e = sft_entropy(GOLDEN, F(1, 10**9))
    assert e.width <= F(1, 10**9)
    assert float(e.lo) <= math.log2(PHI) <= float(e.hi)
    assert e.certified and e.provenance is Provenance.SFT


def test_entropy_exact_cases():
    assert sft_entropy(FULL2, F(1, 100)).lo == 1
    assert sft_entropy(FULL2, F(1, 100)).hi == 1
    e = sft_entropy(LOOP, F(1, 100))
    assert e.lo == e.hi == 0
    empty = SFT(((0, 1), (0, 0)))  # no cycle at all
    e = sft_entropy(empty, F(1, 100))
    assert e.lo == e.hi == 0
    # reducible: a full 2-shift block {0, 1} feeds the golden-mean block
    # {3, 4} through the transient state 2; the dead end 5 leads out
    joined = SFT((
        (1, 1, 0, 0, 0, 0),
        (1, 1, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 1, 1, 0),
        (0, 0, 0, 1, 0, 1),
        (0, 0, 0, 0, 0, 0),
    ))
    e = sft_entropy(joined, F(1, 100))
    assert e.lo == e.hi == 1


def test_entropy_period3_sft():
    e = sft_entropy(PERIOD3, F(1, 10**9))
    assert float(e.lo) <= math.log2(PHI) <= float(e.hi)


def test_entropy_vs_word_counts():
    e = sft_entropy(GOLDEN, F(1, 10**6))
    for n in range(1, 15):
        growth = log2_enclosure(RatInterval.point(count_words(GOLDEN, n)), 30) / n
        assert growth.hi >= e.lo - F(1, 10**6)


def test_row_sum_bracket():
    # min/max row sums of A^n over the dominant component bracket 2^h
    e = sft_entropy(GOLDEN, F(1, 10**9))
    mat = [[1, 1], [1, 0]]
    power = [[1, 0], [0, 1]]
    n = 14
    for _ in range(n):
        power = [
            [sum(power[i][k] * mat[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
    sums = [sum(row) for row in power]
    lo_growth = log2_enclosure(RatInterval.point(min(sums)), 40) / n
    hi_growth = log2_enclosure(RatInterval.point(max(sums)), 40) / n
    assert lo_growth.lo <= e.hi and e.lo <= hi_growth.hi


def test_mixing():
    assert check_mixing(FULL2) is MixingVerdict.MIXING
    assert check_mixing(GOLDEN) is MixingVerdict.MIXING
    assert check_mixing(SFT(((1, 0), (0, 1)))) is MixingVerdict.NOT_MIXING
    assert check_mixing(PERIOD3) is MixingVerdict.NOT_MIXING
    # irreducible but periodic: a pure 2-cycle is not mixing
    assert check_mixing(SFT(((0, 1), (1, 0)))) is MixingVerdict.NOT_MIXING
    assert check_mixing(LOOP) is MixingVerdict.MIXING
    # golden mean {0, 1} entered from the transient state 2, left to the
    # dead end 3: neither is essential, so the shift still mixes
    entered = SFT(((1, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, 0), (0, 0, 0, 0)))
    assert essential_states(entered) == (0, 1)
    assert check_mixing(entered) is MixingVerdict.MIXING


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _matpow(a, n):
    out = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    while n:
        if n & 1:
            out = _matmul(out, a)
        a, n = _matmul(a, a), n >> 1
    return out


def _log2_over(value, n):
    return log2_enclosure(RatInterval.point(value), 40) / n


square_01 = st.integers(1, 6).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=k, max_size=k
    )
)


@settings(max_examples=150, deadline=None)
@given(mat=square_01)
def test_graph_layer_matches_matrix_powers(mat):
    z = SFT(tuple(map(tuple, mat)))
    k = len(mat)
    # s is essential iff paths of length k end at s and start from s
    ak = _matpow(mat, k)
    ess = tuple(s for s in range(k) if any(ak[s]) and any(row[s] for row in ak))
    assert essential_states(z) == ess
    # Wielandt: a primitive m-by-m matrix has a positive (m-1)^2+1 power
    m = len(ess)
    sub = [[mat[a][b] for b in ess] for a in ess]
    primitive = m > 0 and all(all(row) for row in _matpow(sub, (m - 1) ** 2 + 1))
    assert (check_mixing(z) is MixingVerdict.MIXING) == primitive
    for n in range(1, 5):
        words = [
            w for w in product(range(k), repeat=n)
            if any(row[w[0]] for row in ak) and any(ak[w[-1]])
            and all(mat[a][b] for a, b in zip(w, w[1:]))
        ]
        assert count_words(z, n) == len(words)
    # trace(A^n) <= k lambda^n and lambda^n <= max row sum of A^n
    e = sft_entropy(z, F(1, 1000))
    a64 = _matpow(mat, 64)
    trace = sum(a64[i][i] for i in range(k))
    if trace:
        assert e.hi >= _log2_over(F(trace, k), 64).lo
    top = max(sum(row) for row in a64)
    if top:
        assert e.lo <= _log2_over(top, 64).hi
    else:
        assert e.hi == 0


def _perron_bracket_reference(succ, rel_gap, steps=200_000):
    """The plain Fraction power loop: one ratio per state and step, min and
    max; ArithmeticError when it does not stop within ``steps`` steps."""
    m = len(succ)
    x = [1] * m
    for _ in range(steps):
        y = [x[i] + sum(x[j] for j in succ[i]) for i in range(m)]
        ratios = [F(y[i], x[i]) for i in range(m)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= lo * rel_gap:
            return lo - 1, hi - 1
        shrink = 0
        for v in y:
            shrink = math.gcd(shrink, v)
        x = [v // shrink for v in y] if shrink > 1 else y
    raise ArithmeticError("Perron bracket did not converge")


@st.composite
def blocks_and_vectors(draw):
    """Successor lists of at most 40 states, empty rows and self-loops
    allowed, with a vector of integers from 0 to 2^400."""
    m = draw(st.integers(1, 40))
    succ = draw(st.lists(st.lists(st.integers(0, m - 1), unique=True).map(sorted),
                         min_size=m, max_size=m))
    x = draw(st.lists(st.integers(0, 2**400), min_size=m, max_size=m))
    return succ, x


@settings(max_examples=100, deadline=None)
@given(block=blocks_and_vectors(), data=st.data())
def test_times_b_equals_row_sums(block, data):
    # the edge loop adds in another order than the rows; in integers the sums
    # agree exactly, and for any order of the edges
    succ, x = block
    edges = [(i, j) for i, row in enumerate(succ) for j in row]
    want = [x[i] + sum(x[j] for j in succ[i]) for i in range(len(succ))]
    before = list(x)
    assert symbolic._times_b(edges, x) == want
    assert symbolic._times_b(data.draw(st.permutations(edges)), x) == want
    assert x == before


def test_center_blocks_settle_in_the_exact_prefix(monkeypatch, session_cache):
    # the traffic the prefix serves: every component of every center SFT of
    # period <= 12, at the default eps and at the sandwich's center eps. The
    # plain loop stops within 92 and 95 steps, and the bracket is its pair,
    # returned before the float guide runs
    def no_guide(*args):
        raise AssertionError("the float guide ran")

    monkeypatch.setattr(symbolic, "_float_guide", no_guide)
    blocks = []
    for center in enumerate_centers(12, cache=session_cache).centers:
        z = center.sft
        for comp in symbolic._components(symbolic._reach(z)):
            blocks.append([[j for j, b in enumerate(comp) if z.allowed[a][b]] for a in comp])
    assert len(blocks) == 787
    for eps in (DEFAULT_EPS, CENTER_EPS):
        rel_gap = eps * F(3, 10)
        for succ in blocks:
            want = _perron_bracket_reference(succ, rel_gap, symbolic._PREFIX_STEPS)
            assert _perron_bracket(succ, rel_gap) == want


def _chord_cycle(m, source, target):
    """Successor lists of the m-cycle i -> i + 1 plus the chord source -> target."""
    return [sorted({(i + 1) % m} | ({target} if i == source else set())) for i in range(m)]


@st.composite
def irreducible_blocks(draw, max_states=12):
    """Successor lists of a random cycle through all states plus random edges."""
    m = draw(st.integers(1, max_states))
    order = draw(st.permutations(range(m)))
    edges = {(order[i], order[(i + 1) % m]) for i in range(m)}
    edges |= set(draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                               max_size=2 * m)))
    return [sorted(b for a, b in edges if a == s) for s in range(m)]


@st.composite
def perron_blocks(draw):
    """Irreducible blocks of at most 40 states: a single cycle, a periodic
    block (period p, every edge from class c to class c + 1 mod p), a cycle
    with one chord, or a cycle with random edges."""
    kind = draw(st.sampled_from(("cycle", "periodic", "chord", "random")))
    if kind == "random":
        return draw(irreducible_blocks(max_states=40))
    if kind == "periodic":
        p = draw(st.integers(2, 5))
        m = p * draw(st.integers(1, 40 // p))
    else:
        m = draw(st.integers(1, 40))
    order = draw(st.permutations(range(m)))
    edges = {(order[i], order[(i + 1) % m]) for i in range(m)}
    if kind == "chord":
        edges.add((draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))))
    elif kind == "periodic":
        # state order[i] lies in class i mod p, and m is a multiple of p
        cls = {s: i % p for i, s in enumerate(order)}
        extra = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                              max_size=2 * m))
        edges |= {(a, b) for a, b in extra if cls[b] == (cls[a] + 1) % p}
    return [sorted(b for a, b in edges if a == s) for s in range(m)]


def _float_perron(succ, steps=5_000):
    """Float Collatz-Wielandt bounds of A after float power steps on A + I."""
    x = [1.0] * len(succ)
    lo = hi = 0.0
    for _ in range(steps):
        y = [xi + sum(x[j] for j in row) for xi, row in zip(x, succ)]
        ratios = [yi / xi for xi, yi in zip(x, y)]
        lo, hi = min(ratios) - 1, max(ratios) - 1
        if hi - lo <= 1e-13 * hi:
            break
        top = max(y)
        x = [v / top for v in y]
    return lo, hi


@settings(max_examples=150, deadline=None)
@given(succ=irreducible_blocks(), k=st.sampled_from((2, 6, 9, 13, 20, 40)))
@example(succ=[[0, 1, 2]] * 3, k=6)  # full 3-shift: every ratio ties at the first step
@example(succ=[[0]], k=9)  # a single self-loop
@example(succ=_chord_cycle(16, 15, 10), k=2)
@example(succ=_chord_cycle(24, 23, 15), k=-1)  # rel_gap = 3 >= 1
def test_perron_bracket_equals_fraction_reference(succ, k):
    # where the plain loop stops within the exact prefix, the prefix is that
    # loop and returns its pair; past it the pair comes from another vector
    rel_gap = F(3, 10) / F(10) ** k
    try:
        want = _perron_bracket_reference(succ, rel_gap, symbolic._PREFIX_STEPS)
    except ArithmeticError:
        assume(False)
    assert _perron_bracket(succ, rel_gap) == want


@settings(max_examples=100, deadline=None)
@given(succ=perron_blocks(), k=st.sampled_from((6, 9, 13, 40)))
@example(succ=_chord_cycle(16, 15, 10), k=9)  # the plain loop stops after 275 steps
@example(succ=_chord_cycle(24, 23, 15), k=6)  # and here after 293
@example(succ=_chord_cycle(40, 39, 25), k=9)  # hundreds of power steps
@example(succ=_chord_cycle(60, 0, 2), k=6)  # about 8 000 power steps
@example(succ=_chord_cycle(24, 23, 15), k=40)
@example(succ=[[1], [2, 4], [3], [0, 4], [3, 5], [0, 2]], k=40)  # settled past float reach
def test_perron_bracket_contains_reference_and_float_root(succ, k):
    rel_gap = F(3, 10) / F(10) ** k
    lo, hi = _perron_bracket(succ, rel_gap)
    assert lo <= hi and hi - lo <= (lo + 1) * rel_gap
    try:
        ref_lo, ref_hi = _perron_bracket_reference(succ, rel_gap, 400)
    except ArithmeticError:
        pass
    else:
        assert lo <= ref_hi and ref_lo <= hi
    f_lo, f_hi = _float_perron(succ)
    slack = 1e-9 * (f_hi + 1)
    assert float(lo) - slack <= f_hi and f_lo <= float(hi) + slack


@pytest.mark.parametrize(
    "succ", [_chord_cycle(24, 23, 15), _chord_cycle(40, 39, 25)], ids=["chord-24", "chord-40"]
)
@pytest.mark.parametrize("k", [6, 13])
def test_perron_bracket_power_steps_alone(monkeypatch, succ, k):
    # with no float guide and no Newton step, the truncated power steps still
    # settle the bracket, and it meets the plain loop's
    monkeypatch.setattr(symbolic, "_float_guide", lambda *args: None)
    monkeypatch.setattr(symbolic, "_newton", lambda *args: iter(()))
    rel_gap = F(3, 10) / F(10) ** k
    lo, hi = _perron_bracket(succ, rel_gap)
    assert lo <= hi and hi - lo <= (lo + 1) * rel_gap
    ref_lo, ref_hi = _perron_bracket_reference(succ, rel_gap)
    assert lo <= ref_hi and ref_lo <= hi


def _clique_with_path(k, length):
    """Successor lists of the k-clique with self-loops on states 0..k-1 and a
    path k-1 -> k -> ... -> k + length - 1 -> 0 back to it."""
    succ = [list(range(k)) for _ in range(k)]
    succ[k - 1].append(k)
    succ += [[i + 1] for i in range(k, k + length - 1)] + [[0]]
    return succ


def test_perron_bracket_clique_with_long_path(monkeypatch):
    # the Perron vector falls by a factor 10 per state along the path, to
    # about 1e-300, and the float stages do not settle it: the truncated
    # power steps do. The float guide gives up after a round that gains
    # nothing, so two factorizations are its and one is Newton's
    steps, lus = [], []
    times_b, lu = symbolic._times_b, symbolic._lu
    monkeypatch.setattr(symbolic, "_times_b", lambda *args: steps.append(1) or times_b(*args))
    monkeypatch.setattr(symbolic, "_lu", lambda rows: lus.append(1) or lu(rows))
    succ = _clique_with_path(10, 300)
    rel_gap = F(3, 10**7)
    lo, hi = _perron_bracket(succ, rel_gap)
    assert len(steps) > symbolic._PREFIX_STEPS + 100
    assert len(lus) == 3
    assert lo <= hi and hi - lo <= (lo + 1) * rel_gap
    f_lo, f_hi = _float_perron(succ)
    slack = 1e-9 * (f_hi + 1)
    assert float(lo) - slack <= f_hi and f_lo <= float(hi) + slack


@pytest.mark.parametrize(
    "m, source, target, k", [(200, 199, 120, 9), (120, 0, 2, 9), (60, 0, 2, 30)]
)
def test_long_small_gap_cycles_settle_at_the_guide(monkeypatch, m, source, target, k):
    # past the exact prefix, Newton from the float guide's vector settles
    # these blocks within a few exact steps; without the guide, Newton from
    # the prefix vector stalled and truncated power steps took 6 772, 50 336
    # and 47 305
    steps = []
    times_b = symbolic._times_b
    monkeypatch.setattr(symbolic, "_times_b", lambda *args: steps.append(1) or times_b(*args))
    rel_gap = F(3, 10) / F(10) ** k
    lo, hi = _perron_bracket(_chord_cycle(m, source, target), rel_gap)
    assert len(steps) <= symbolic._PREFIX_STEPS + 8
    assert lo <= hi and hi - lo <= (lo + 1) * rel_gap
    # the two cycles have lengths m and L = length, so the Perron root
    # solves x^-m + x^-L = 1, whose left side falls from 2 at x = 1
    length = (source - target) % m + 1
    a, b = 1.0, 2.0
    for _ in range(100):
        mid = (a + b) / 2
        a, b = (mid, b) if mid**-m + mid**-length > 1 else (a, mid)
    assert float(lo) - 1e-12 <= a and b <= float(hi) + 1e-12


def test_float_sums_run_left_to_right():
    # sum() compensates from Python 3.12 on and would give 1.0 here
    assert symbolic._fsum([1e16, 1.0, -1e16]) == 0.0


def test_perron_bracket_builds_two_fractions(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return F(*args)

    succ = _chord_cycle(40, 39, 25)
    rel_gap = F(3, 10**10)
    monkeypatch.setattr(symbolic, "Fraction", counting)
    lo, hi = _perron_bracket(succ, rel_gap)
    monkeypatch.undo()
    assert len(calls) <= 2
    assert 0 < hi - lo <= (lo + 1) * rel_gap


def test_prefix_encode_hand_traces():
    assert prefix_encode(GOLDEN, "0") == "0"
    assert prefix_encode(GOLDEN, "01") == "01"
    assert prefix_encode(GOLDEN, "010") == "01"


def test_prefix_encode_rejects_non_language():
    with pytest.raises(ValueError):
        prefix_encode(GOLDEN, "011")
    with pytest.raises(ValueError):
        prefix_encode(SFT(((1, 0), (0, 1))), "0")  # not mixing
    with pytest.raises(ValueError):
        prefix_encode(LOOP, "0")  # unary alphabet


def test_prefix_monotone():
    for z in PREFIX_CODED:
        for w in language_words(z, 9):
            code = prefix_encode(z, w)
            assert prefix_encode(z, w[:-1]) == code[: len(prefix_encode(z, w[:-1]))]
            assert code.startswith(prefix_encode(z, w[:-1]))
            assert len(code) <= len(w)


def test_decode_round_trip_depth_8():
    for z in PREFIX_CODED:
        for length in range(0, 9):
            for bits in product("01", repeat=length):
                b = "".join(bits)
                w = prefix_decode(z, b)
                assert prefix_encode(z, w) == b


def test_decode_is_shortest_preimage():
    for z in PREFIX_CODED:
        for length in range(0, 7):
            for bits in product("01", repeat=length):
                b = "".join(bits)
                w = prefix_decode(z, b)
                for shorter in range(len(w)):
                    prefix = w[:shorter]
                    assert prefix_encode(z, prefix) != b or shorter == len(w)


def test_encode_injective_on_fixed_length():
    for z in PREFIX_CODED:
        for n in range(1, 11):
            words = language_words(z, n)
            codes = {prefix_encode(z, w) for w in words}
            assert len(codes) == len(words)


def test_surjectivity_at_depth():
    # every binary word of length <= 8 is realized, within the modulus bound
    for z in PREFIX_CODED:
        for m in range(0, 9):
            bound = prefix_modulus(z, m)
            for bits in product("01", repeat=m):
                b = "".join(bits)
                w = prefix_decode(z, b)
                assert len(w) <= bound


def test_mixing_gap_and_modulus():
    assert mixing_gap(GOLDEN) == 1
    assert mixing_gap(FULL2) == 0
    assert prefix_modulus(GOLDEN, 3) > prefix_modulus(GOLDEN, 2)


def test_prefix_code_admits_exactly_three_matrices():
    # of the 16 binary 2x2 matrices the prefix code admits only these, and
    # its mixing gap is the least g with A^(g+1) > 0, found here by matrix
    # powers; a primitive 2x2 matrix has A^2 > 0 (Wielandt)
    admitted = {FULL2.allowed: 0, GOLDEN.allowed: 1, MIRROR.allowed: 1}
    for entries in product((0, 1), repeat=4):
        mat = (entries[:2], entries[2:])
        z = SFT(mat)
        if mat in admitted:
            gap = next(g for g in range(2) if all(map(all, _matpow(mat, g + 1))))
            assert mixing_gap(z) == gap == admitted[mat]
            continue
        # the empty word is in every language, so only the matrix is refused
        for call in (
            lambda: prefix_encode(z, ""),
            lambda: prefix_decode(z, ""),
            lambda: mixing_gap(z),
            lambda: shift_prefix_oracle(z),
        ):
            with pytest.raises(ValueError):
                call()


def test_shift_oracle_prefix_monotone_and_surjective():
    for z in PREFIX_CODED:
        oracle = shift_prefix_oracle(z)
        for w in language_words(z, 10):
            b = prefix_encode(z, w)
            out = oracle(b)
            shorter = oracle(b[:-1]) if b else ""
            assert out.startswith(shorter)
        # mixing implies the transported shift hits every short prefix
        seen = set()
        for length in range(0, 11):
            for bits in product("01", repeat=length):
                out = oracle("".join(bits))
                for m in range(1, min(4, len(out)) + 1):
                    seen.add(out[:m])
        for m in range(1, 5):
            for bits in product("01", repeat=m):
                assert "".join(bits) in seen


def _shortest_out(oracle, n):
    return min(len(oracle("".join(bits))) for bits in product("01", repeat=n))


def test_shift_modulus_is_least():
    # every input of modulus(m) bits gives at least m output bits, and some
    # input of m bits gives fewer, so no smaller modulus holds
    for z in PREFIX_CODED:
        oracle = shift_prefix_oracle(z)
        for m in range(7):
            assert oracle.modulus(m) == m + 1
            assert _shortest_out(oracle, m + 1) >= m
            if m:
                assert _shortest_out(oracle, m) < m


def test_glue_modulus_suffices():
    # a glued input is a 0^k 1 header and the rest, which the shift
    # component shortens by at most one bit, so m + 1 input bits suffice
    for z in PREFIX_CODED:
        for comps in ([shift_prefix_oracle(z)], [identity_prefix_oracle(), shift_prefix_oracle(z)]):
            for m in range(7):
                n = glue_modulus(comps, m)
                assert n <= m + 1
                assert _shortest_out(lambda word: glue_prefix_maps(comps, word), n) >= m


def test_glue_zeros_and_header():
    comps = [identity_prefix_oracle(), shift_prefix_oracle(GOLDEN)]
    assert glue_prefix_maps(comps, "0" * 7) == "0" * 7
    assert glue_prefix_maps(comps, "") == ""
    assert glue_prefix_maps(comps, "10110") == "10110"  # identity component
    out = glue_prefix_maps(comps, "0100101")
    assert out.startswith("01")


def test_glue_shift_component_example():
    comps = [shift_prefix_oracle(GOLDEN)]
    x = prefix_encode(GOLDEN, "01010")
    out = glue_prefix_maps(comps, "1" + x)
    assert out == "1" + prefix_encode(GOLDEN, "1010")


def test_glue_reuses_last_component():
    comps = [identity_prefix_oracle(), shift_prefix_oracle(GOLDEN)]
    deep = glue_prefix_maps(comps, "0001" + "0101")
    assert deep.startswith("0001")


def test_glue_min_out_error():
    comps = [identity_prefix_oracle(), shift_prefix_oracle(GOLDEN)]
    with pytest.raises(NeedMoreInput) as err:
        glue_prefix_maps(comps, "01", min_out=6)
    assert err.value.needed >= glue_modulus(comps, 6) or err.value.needed > 2


def test_glued_orbit_complexity_tracks_golden():
    # first-symbol itineraries through the transported shift grow like the
    # golden-mean word count, not like the full shift
    n = 8
    buffer = prefix_modulus(GOLDEN, 2)
    itineraries = set()
    for w in language_words(GOLDEN, n + buffer):
        word = "".join(str(a) for a in w)
        track = []
        for j in range(n):
            code = prefix_encode(GOLDEN, word[j:])
            if not code:
                break
            track.append(code[0])
        if len(track) == n:
            itineraries.add("".join(track))
    golden_n = count_words(GOLDEN, n)
    assert golden_n / 8 <= len(itineraries) <= golden_n * 8


def test_entropy_bound_validation():
    with pytest.raises(ValueError):
        EntropyBound(F(1), F(0), Provenance.SFT)
    with pytest.raises(ValueError):
        EntropyBound(F(-1), F(0), Provenance.SFT)
