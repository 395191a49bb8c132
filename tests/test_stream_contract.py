"""The numpy ``Generator`` calls every seeded answer draws through, pinned one by one.

numpy does not promise ``Generator`` streams across versions (NEP 19).  The
pinned report digests, criterion 9 and the refactor-invariance tests all rest
on these streams, so a numpy release that changes one of them fails many tests
at once; this file names the call that moved.  Fingerprints were recorded on
numpy 2.4.6, the only version they have been checked on.
"""

import hashlib

import numpy as np
import pytest

SEED = 20030219
# a Monte Carlo chunk's seed sequence, as stats.py builds it
_CHUNK = np.random.SeedSequence(SEED, spawn_key=(3,))
# mismatched groups of 16 in four trials, whose checked subsets draw a hypergeometric
_MISMATCHED = np.array([0, 3, 8, 16])


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
