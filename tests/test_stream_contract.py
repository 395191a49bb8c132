"""The numpy ``Generator`` calls every seeded answer draws through, pinned one by one.

numpy does not promise ``Generator`` streams across versions (NEP 19).  The
pinned report digests, criterion 9 and the refactor-invariance tests all rest
on these streams, so a numpy release that changes one of them fails many tests
at once; this file names the call that moved.  Fingerprints were recorded on
numpy 2.4.6, the only version they have been checked on.

The binomial kernel is certified against numpy for every double it settles
itself, by bucket or by replay, over every (n, p) the shipped layouts can send
it; ``tests/kernel_certificate.py`` measures how far its thresholds lie from
numpy's.
"""

import hashlib
import itertools
import math
from functools import partial

import numpy as np
import pytest

from entswap import stats
from entswap.adversary import LAYOUTS, UnsupportedAttackError
from entswap.bell import BELL_ORDER
from entswap.protocol import MAX_GROUPS
from entswap.stats import CHUNK_TRIALS, _settle

SEED = 20030219
# a Monte Carlo chunk's seed sequence, as stats.py builds it
_CHUNK = np.random.SeedSequence(SEED, spawn_key=(3,))
# mismatched groups of 16 in four trials, whose checked subsets draw a hypergeometric
_MISMATCHED = np.array([0, 3, 8, 16])
# Eve's guess counts per group, lone guesses among them, as one array of bounds
_BOUNDS = [1, 2, 1, 3, 4, 1, 5, 2, 1, 1]


# call, as the simulator makes it -> its values, given a generator seeded with SEED
_DRAWS = {
    "SeedSequence(seed, spawn_key=(c,))": lambda _: _CHUNK.generate_state(4),
    "SeedSequence(seed).spawn(2)": lambda _: [
        child.generate_state(4) for child in np.random.SeedSequence(SEED).spawn(2)
    ],
    "default_rng(int)": lambda rng: rng.bit_generator.random_raw(4),
    "default_rng(SeedSequence)": lambda _: np.random.default_rng(_CHUNK).bit_generator.random_raw(4),
    "random()": lambda rng: [rng.random() for _ in range(4)],
    "random(size)": lambda rng: rng.random(8),
    "integers(0, 4, size)": lambda rng: rng.integers(0, 4, size=16),
    "integers(0, m)": lambda rng: [rng.integers(0, m) for m in (2, 3, 4, 5)],
    "integers(0, bounds)": lambda rng: rng.integers(0, _BOUNDS),
    "choice(n, size=k, replace=False)": lambda rng: rng.choice(100, size=7, replace=False),
    "multinomial(n, probs)": lambda rng: rng.multinomial(40, [0.5, 0.25, 0.125, 0.125]),
    "multinomial(n, probs, size)": lambda rng: rng.multinomial(16, [0.5, 0.25, 0.25], size=4),
    "hypergeometric(good, bad, k)": lambda rng: rng.hypergeometric(_MISMATCHED, 16 - _MISMATCHED, 5),
    "binomial(n, p, size)": lambda rng: rng.binomial(16, 0.75, size=8),
}

PINNED = {
    "SeedSequence(seed, spawn_key=(c,))": "d5dec3753bd7ebc9",
    "SeedSequence(seed).spawn(2)": "ad9414d6fb796c87",
    "default_rng(int)": "fe7468320ae52675",
    "default_rng(SeedSequence)": "8b8becdf3e9f9b48",
    "random()": "229a8001cd16a1af",
    "random(size)": "c46c6c8a9c79283d",
    "integers(0, 4, size)": "e327356dd31fc40d",
    "integers(0, m)": "0b104f8b0b949b71",
    "integers(0, bounds)": "2d1ed8ee6ce51f99",
    "choice(n, size=k, replace=False)": "518f1949abffa3c6",
    "multinomial(n, probs)": "f8374329d6afcb32",
    "multinomial(n, probs, size)": "ae371ce4f88a9daa",
    "hypergeometric(good, bad, k)": "35e05619af3a3f44",
    "binomial(n, p, size)": "5224a0a1476b71ee",
}


def fingerprint(values) -> str:
    """The first 16 hex digits of the SHA-256 of the values' exact repr."""
    return hashlib.sha256(repr(np.asarray(values).tolist()).encode()).hexdigest()[:16]


def test_every_call_is_pinned():
    assert set(PINNED) == set(_DRAWS)


@pytest.mark.parametrize("call", _DRAWS)
def test_generator_stream_is_the_pinned_one(call):
    got = fingerprint(_DRAWS[call](np.random.default_rng(SEED)))
    assert got == PINNED[call], (
        f"numpy {np.__version__} draws a different stream from {call} than numpy 2.4.6 did; "
        "every seeded report digest would change with it"
    )


@pytest.mark.parametrize("pool_size", [4, 8])
@pytest.mark.parametrize("key", [(), (5,)])
def test_a_child_built_directly_is_the_spawned_one(key, pool_size):
    # a session builds the two children of spawn(2) from the parent's entropy and key
    children = np.random.SeedSequence(SEED, spawn_key=key, pool_size=pool_size).spawn(2)
    for i, child in enumerate(children):
        direct = np.random.SeedSequence(SEED, spawn_key=key + (i,), pool_size=pool_size)
        assert np.array_equal(direct.generate_state(8), child.generate_state(8)), i


@pytest.mark.parametrize("half_word", [False, True], ids=["whole", "after-odd-32-bit-draw"])
def test_an_array_of_bounds_is_one_scalar_call_per_bound_above_one(half_word):
    # adversary.eve_guess_key picks every group's guess in one call; a bound of 1 draws
    # nothing, so the stream is that of one integers(0, m) call per real choice
    for seed in range(16):
        array, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        if half_word:
            for rng in (array, scalar):
                rng.integers(0, 2**32, dtype=np.uint32)
            assert array.bit_generator.state["has_uint32"] == 1  # PCG64 holds half a word
        got = array.integers(0, _BOUNDS).tolist()
        want = [int(scalar.integers(0, m)) if m > 1 else 0 for m in _BOUNDS]
        assert got == want and array.bit_generator.state == scalar.bit_generator.state, seed
        before = array.bit_generator.state
        assert array.integers(0, [1] * 8).tolist() == [0] * 8
        assert array.bit_generator.state == before, seed


# n * min(p, 1 - p) below 30 takes numpy's inversion sampler, above it BTPE
@pytest.mark.parametrize("n", [16, 1000])
@pytest.mark.parametrize("p", [0.25, 0.75])
def test_a_two_category_multinomial_is_one_binomial_column(p, n):
    # stats draws a two-class table's counts with binomial: for two categories,
    # multinomial makes one binomial draw of the first per row, and nothing else
    multi, single = np.random.default_rng(SEED), np.random.default_rng(SEED)
    assert np.array_equal(multi.multinomial(n, [p, 1 - p], size=64)[:, 0], single.binomial(n, p, size=64))
    assert multi.bit_generator.state == single.bit_generator.state


def test_a_one_category_multinomial_draws_nothing():
    # so a one-class table needs no branch of its own
    rng = np.random.default_rng(SEED)
    before = rng.bit_generator.state
    assert np.array_equal(rng.multinomial(16, [1.0], size=8), np.full((8, 1), 16))
    assert rng.bit_generator.state == before


# stats._binomial_column reproduces binomial(n, p, size) from one random() double a
# trial; below, each case is (n, p), with n * min(p, 1 - p) on both sides of 30
_KERNEL_CASES = [(16, p) for p in (0.25, 0.75, 0.5, 1e-5, 0.999)] + [
    (100, 0.299),
    (100, 0.301),
    (100, 1 - 0.299),
    (100, 1 - 0.301),
    (MAX_GROUPS, 1e-5),
    (MAX_GROUPS, 2.99e-4),
    (MAX_GROUPS, 1 - 1e-6),
]


def _same_draw(make, n, p, size):
    """Whether the kernel and numpy, each on a generator from ``make()``, give the
    same values, dtype and generator state after."""
    kernel, numpy = make(), make()
    got, want = stats._binomial_column(kernel, n, p, size), numpy.binomial(n, p, size=size)
    return (
        got.dtype == want.dtype
        and np.array_equal(got, want)
        and kernel.bit_generator.state == numpy.bit_generator.state
    )


@pytest.mark.parametrize("size", [1, 7, CHUNK_TRIALS, CHUNK_TRIALS + 3])
@pytest.mark.parametrize("n, p", _KERNEL_CASES)
def test_the_binomial_kernel_is_numpys_binomial(n, p, size):
    assert _same_draw(lambda: np.random.default_rng(SEED), n, p, size)


# the kernel gathers int8 counts into its words' buffer and widens them in place,
# setting aside the first ceil(size / 8) rows; these sizes sit either side of that cut
@pytest.mark.parametrize("size", [8, 9, 16, 17])
@pytest.mark.parametrize("p", [0.25, 0.75])
def test_the_binomial_kernel_widens_every_row(p, size):
    for seed in range(8):
        assert _same_draw(partial(np.random.default_rng, seed), 16, p, size), seed


def test_the_binomial_kernel_calls_numpy_on_other_generators():
    # an MT19937 state holds an array, so the states are compared by what they draw next
    kernel, numpy = (np.random.Generator(np.random.MT19937(SEED)) for _ in range(2))
    got = stats._binomial_column(kernel, 16, 0.75, CHUNK_TRIALS)
    assert np.array_equal(got, numpy.binomial(16, 0.75, size=CHUNK_TRIALS))
    assert np.array_equal(kernel.bit_generator.random_raw(8), numpy.bit_generator.random_raw(8))


def test_the_binomial_kernel_replays_few_rows(monkeypatch):
    # rows in a bucket near a threshold are replayed; the table settles the rest
    settled = []
    monkeypatch.setattr(stats, "_settle", lambda thresholds, u: settled.append(u) or _settle(thresholds, u))
    assert _same_draw(lambda: np.random.default_rng(SEED), 16, 0.75, CHUNK_TRIALS)
    assert 0 < len(settled) < CHUNK_TRIALS // 256, len(settled)


def test_a_forced_fallback_is_numpys_draw(monkeypatch):
    # every u is then within _TOL of a threshold, so the first replayed row hands the
    # whole column to numpy from the saved state
    monkeypatch.setattr(stats, "_TOL", 1.0)
    stats._inversion_table.cache_clear()
    try:
        assert _same_draw(lambda: np.random.default_rng(SEED), 16, 0.75, CHUNK_TRIALS)
    finally:
        stats._inversion_table.cache_clear()


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _generator_whose_next_double_is(u):
    """A PCG64 generator whose next random() is ``u``, a multiple of 2**-53 in [0, 1).

    PCG64 steps its 128-bit state (state * multiplier + inc), then outputs the
    XOR of its halves rotated right by the state's top six bits.  So pick the
    stepped state's high half, solve for the low half that outputs ``u``'s
    word, and step that state back once."""
    word, high, inc = int(u * 2**53) << 11, 0x9E3779B97F4A7C15, 0xDA3E39CB94B95BDB
    rot = high >> 58
    low = high ^ ((word << rot | word >> (64 - rot)) & (2**64 - 1))
    before = ((high << 64 | low) - inc) * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128
    bitgen = np.random.PCG64()
    state = {"state": before, "inc": inc}
    bitgen.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


def test_a_crafted_generator_draws_the_asked_double():
    for u in (0.0, 0.5, 0.3125, 1 - 2**-53):
        assert _generator_whose_next_double_is(u).random() == u


@pytest.mark.parametrize("n, p", [(4, 0.3), (16, 0.25), (16, 0.75)])
def test_the_binomial_kernel_at_numpys_thresholds(n, p):
    # the first u lands on, or a few 2**-53 steps from, each threshold below 1 - 1e-9;
    # numpy's sequential subtraction there differs from the exact partial sums
    _, thresholds = stats._inversion_table(n, min(p, 1.0 - p))
    for t in thresholds:
        if t < 1 - 1e-9:
            for k in range(math.floor(t * 2**53) - 3, math.floor(t * 2**53) + 4):
                make = partial(_generator_whose_next_double_is, k / 2**53)
                assert _same_draw(make, n, p, 1024), (t, k)


def test_the_binomial_kernel_where_numpy_draws_again():
    # past the last threshold numpy's inversion draws a second double for that trial
    n, p = MAX_GROUPS, 1e-5
    assert stats._inversion_table(n, p)[1][-1] < 1 - 2**-53
    assert _same_draw(lambda: _generator_whose_next_double_is(1 - 2**-53), n, p, 1024)


def _numpy_count(n, p, k):
    """numpy's ``binomial(n, p)`` on a generator whose next double is k / 2**53,
    or None where numpy draws a second double (past its last threshold)."""
    rng = _generator_whose_next_double_is(k / 2**53)
    before = rng.bit_generator.state["state"]
    x = int(rng.binomial(n, p))
    stepped = (before["state"] * _PCG64_MULTIPLIER + before["inc"]) % 2**128
    return x if rng.bit_generator.state["state"]["state"] == stepped else None


def _folded(p) -> float:
    """p folded to at most 1/2, as ``_binomial_column`` and numpy fold it."""
    return float(1.0 - p if p > 0.5 else p)


def _kernel_domain() -> list[tuple[int, float]]:
    """Every (n, p) the kernel inverts for, p folded: each two-class table of each
    declared pair a shipped layout models, at every n with n * p <= 30, and the
    inversion-range cases of ``_KERNEL_CASES``."""
    ps = set()
    for layout in LAYOUTS.values():
        for a, b in itertools.product(BELL_ORDER, repeat=2):
            try:
                probs = stats.class_table(layout, a, b).probs
            except UnsupportedAttackError:  # a pair the layout does not model
                continue
            if len(probs) == 2:
                ps.add(_folded(probs[0]))
    cases = {(n, p) for p in ps for n in range(1, MAX_GROUPS + 1) if n * p <= 30.0}
    return sorted(cases | {(n, _folded(p)) for n, p in _KERNEL_CASES if n * _folded(p) <= 30.0})


_GRID = 2**53  # random() returns k / _GRID for a whole k in [0, _GRID)
_SHIFT = 53 - stats._BUCKET_BITS  # grid steps a bucket spans


def _bucket(k: int) -> int:
    """The bucket ``_binomial_column`` sends the double k / 2**53 to: the top
    ``_BUCKET_BITS`` bits of its word k << 11, floor(k / 2**53 * 2**_BUCKET_BITS)."""
    return k >> _SHIFT


@pytest.mark.parametrize("n, p", [(4, 0.3), (16, 0.25), (16, 0.75), (MAX_GROUPS, 2.99e-4)])
def test_the_binomial_kernel_at_both_ends_of_its_buckets(n, p):
    # the first and the last double of the first two buckets, the last one (whose
    # last double is 1 - 2**-53), and the buckets either side of each threshold's
    _, thresholds = stats._inversion_table(n, _folded(p))
    last = (1 << stats._BUCKET_BITS) - 1
    near = {_bucket(math.floor(t * _GRID)) + d for t in thresholds if t < 1 for d in (-1, 1)}
    for b in sorted({0, 1, last} | {b for b in near if 0 <= b <= last}):
        for k in (b << _SHIFT, ((b + 1) << _SHIFT) - 1):
            make = partial(_generator_whose_next_double_is, k / _GRID)
            assert _same_draw(make, n, p, 1024), (b, k / _GRID)


def test_every_inversion_table_fits_int8():
    # a table holds the unflipped count, at most the inversion range's bound
    # 30 + 10 * sqrt(31) < 86; the last two cases sit at n * p = 30
    for n, p in _kernel_domain() + [(100, 0.3), (MAX_GROUPS, 3e-4)]:
        table, thresholds = stats._inversion_table(n, p)
        assert table.dtype == np.int8 and table.max() <= len(thresholds) - 1 <= 127, (n, p)


def _ends(inside, lo, hi):
    """The lowest and highest k where ``inside(k)``, a predicate that holds on
    one run of the grid, searched from estimates ``lo`` and ``hi`` a step or two
    off the run's ends; None where it holds nowhere between them."""
    while lo <= hi and not inside(lo):
        lo += 1
    while hi >= lo and not inside(hi):
        hi -= 1
    if lo > hi:
        return None
    while inside(lo - 1):
        lo -= 1
    while inside(hi + 1):
        hi += 1
    return lo, hi


def _bucket_runs(n, p):
    """(x, lowest k, highest k) for each maximal run of ``_inversion_table(n, p)``
    buckets that hold one count x: the ends of the doubles k / 2**53 that
    ``_bucket`` sends into the run."""
    table = stats._inversion_table(n, p)[0]
    edges = [0, *(np.flatnonzero(np.diff(table)) + 1).tolist(), len(table)]
    for start, stop in zip(edges, edges[1:]):
        if table[start] >= 0:
            inside = lambda k: 0 <= k < _GRID and start <= _bucket(k) < stop  # noqa: E731
            yield (int(table[start]), *_ends(inside, (start << _SHIFT) - 2, (stop << _SHIFT) + 1))


def _settled_runs(n, p):
    """(x, lowest k, highest k) for each count x that ``_settle`` gives some double
    against the thresholds of ``_inversion_table(n, p)``: the ends of the doubles
    k / 2**53 it settles to x."""
    thresholds = stats._inversion_table(n, p)[1]
    for x, t in enumerate(thresholds):
        inside = lambda k: 0 <= k < _GRID and stats._settle(thresholds, k / _GRID) == x  # noqa: E731
        lo = 0 if x == 0 else math.ceil((thresholds[x - 1] + stats._TOL) * _GRID) - 2
        ends = _ends(inside, lo, math.floor((t - stats._TOL) * _GRID) + 2)
        if ends:
            yield (x, *ends)


@pytest.mark.parametrize("runs", [_bucket_runs, _settled_runs], ids=["bucket", "replay"])
def test_the_binomial_kernel_gives_numpys_count_at_both_ends_of_every_run(runs):
    # numpy's count is nondecreasing in u (the next test), so a run of doubles the
    # kernel gives one count, by its table or by replaying the row through _settle,
    # is right for every double in it iff numpy gives that count at the run's ends;
    # the rest the kernel hands to numpy
    domain = _kernel_domain()
    assert (16, 0.25) in domain and (MAX_GROUPS, 1e-5) in domain
    for n, p in domain:
        for x, lo, hi in runs(n, p):
            for k in (lo, hi):
                assert _numpy_count(n, p, k) == x, (n, p, x, k / _GRID)


def test_numpys_inversion_count_is_nondecreasing_in_the_double():
    # sampled: a spread of tables, random doubles below each one's last threshold,
    # and two grid steps either side of each other threshold
    rng = np.random.default_rng(SEED)
    for n, p in _kernel_domain()[::8]:
        thresholds = stats._inversion_table(n, p)[1]
        top = min(math.floor((thresholds[-1] - stats._TOL) * _GRID), _GRID)
        ks = rng.integers(0, top, size=64).tolist()
        ks += [math.floor(t * _GRID) + d for t in thresholds[:-1] for d in range(-2, 3)]
        counts = [_numpy_count(n, p, k) for k in sorted(ks) if 0 <= k < top]
        assert None not in counts and counts == sorted(counts), (n, p)
