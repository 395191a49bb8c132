"""The table Monte Carlo backend against the statevector backend and its tables.

The statevector backend runs one full session per trial and is the
reference: every kind's table batch must agree with it in law.  The class
tables the sampler draws from must be the marginals of the oracle's joint
tables, and a batch's working set must stay bounded by the chunk size.
The sampler must also make the same generator calls as a plain
multinomial sampler, kept here as the reference, so a seeded batch does not
depend on how the class counts are drawn; a two-class table's counts are one
binomial column, checked chunk by chunk against that reference for every way
a class can mismatch or miss.  A sweep over a grid of check
counts must give, at each k, the one-k batch's report exactly.  Chunks run
on up to one thread per CPU: the tallies must not depend on the worker
count, a chunk's error must reach the caller, no thread may outlive its
batch, and memory must stay within one chunk per worker.
"""

import itertools
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from entswap.adversary import LAYOUTS, STRATEGY_KINDS, UnsupportedAttackError
from entswap.bell import BELL_ORDER, BellIndex, swap_partner
from entswap.protocol import AllPhiPlus, FixedList, RandomKnown, SessionConfig, declared_pairs
from entswap import stats
from entswap.cli import EXIT_INTERNAL, main
from entswap.stats import (
    CHUNK_TRIALS,
    ClassTable,
    chunk_sizes,
    class_table,
    half_width,
    joint_table,
    monte_carlo,
    monte_carlo_sweep,
    wilson_interval,
)

PSI_P = BellIndex.PSI_PLUS

STATEVECTOR_TRIALS = 1000
TABLE_TRIALS = 20_000

# (kind, declared pair states) compared in law; none and type1 also with
# publicly random declared pairs, the only kinds that allow them
LAW_CASES = [(kind, None) for kind in STRATEGY_KINDS] + [
    ("none", RandomKnown(seed=11)),
    ("type1", RandomKnown(seed=12)),
]


def _successes(report) -> dict[str, int]:
    rates = {"detection": report.detection_rate, "agreement": report.key_agreement_rate}
    if report.eve_key_rate is not None:
        rates["eve key"] = report.eve_key_rate
    return {name: round(rate * report.trials) for name, rate in rates.items()}


@pytest.mark.parametrize("kind, policy", LAW_CASES, ids=str)
def test_table_backend_agrees_in_law_with_statevector(kind, policy):
    kwargs = {} if policy is None else {"pair_states": policy}
    config = SessionConfig(n_groups=4, check_fraction=0.5, **kwargs)
    table = monte_carlo(config, kind=kind, trials=TABLE_TRIALS, seed=7)
    reference = monte_carlo(config, kind=kind, trials=STATEVECTOR_TRIALS, seed=7, backend="statevector")
    assert (table.eve_key_rate is None) == (reference.eve_key_rate is None)
    want = _successes(reference)
    for name, got in _successes(table).items():
        gap = abs(got / TABLE_TRIALS - want[name] / STATEVECTOR_TRIALS)
        # two Wilson 95% half-widths from each side: about four standard errors
        band = 2 * (
            half_width(wilson_interval(got, TABLE_TRIALS))
            + half_width(wilson_interval(want[name], STATEVECTOR_TRIALS))
        )
        assert gap <= band, (kind, name, got, want[name], band)
    assert sum(table.outcome_counts) == 4 * TABLE_TRIALS
    assert table.analytic_detection == reference.analytic_detection
    assert table.analytic_eve_key == reference.analytic_eve_key


@pytest.mark.parametrize("kind", ["none", "type1"])
@pytest.mark.parametrize("a", BELL_ORDER, ids=str)
@pytest.mark.parametrize("b", BELL_ORDER, ids=str)
def test_class_table_is_the_marginal_of_the_joint_table(kind, a, b):
    joint = joint_table(kind, a, b)
    classes = class_table(kind, a, b)
    guess = LAYOUTS[kind].guess
    expected: dict[tuple[bool, bool], np.ndarray] = {}
    for (alice, bob, *eve), p in joint.items():
        label = (bob is not swap_partner(a, b, alice), guess is None or guess(tuple(eve))[0] is alice)
        expected.setdefault(label, np.zeros(4))[alice.ordinal] += p
    labels = list(zip(classes.mismatch.tolist(), classes.eve_ok.tolist()))
    assert sorted(labels) == sorted(expected)
    total = sum(cells.sum() for cells in expected.values())
    for i, label in enumerate(labels):
        cells = expected[label]
        assert classes.probs[i] == pytest.approx(cells.sum() / total, abs=1e-12)
        np.testing.assert_allclose(classes.alice[i], cells / cells.sum(), atol=1e-12)
    # the channel is untouched: fragments never mismatch, whatever the pairs
    assert not classes.mismatch.any()
    assert abs(sum(joint.values()) - 1.0) <= 1e-12


@pytest.mark.parametrize("kind", ["type2", "type3"])
def test_phi_only_attacks_reject_other_declared_pairs(kind):
    with pytest.raises(UnsupportedAttackError):
        joint_table(kind, PSI_P, PSI_P)
    config = SessionConfig(n_groups=1, pair_states=FixedList((PSI_P, PSI_P)))
    with pytest.raises(UnsupportedAttackError):
        monte_carlo(config, kind=kind, trials=5)


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="backend"):
        monte_carlo(SessionConfig(n_groups=1), kind="none", trials=5, backend="vectorized")


def test_table_batches_are_a_pure_function_of_their_arguments():
    config = SessionConfig(n_groups=3, check_fraction=0.5)
    a = monte_carlo(config, kind="type2", trials=CHUNK_TRIALS + 5, seed=4)
    b = monte_carlo(config, kind="type2", trials=CHUNK_TRIALS + 5, seed=4)
    assert a == b
    assert monte_carlo(config, kind="type2", trials=500, seed=5).outcome_counts != (
        monte_carlo(config, kind="type2", trials=500, seed=4).outcome_counts
    )


@pytest.mark.parametrize("trials", [1, CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1, 3 * CHUNK_TRIALS + 1])
def test_chunk_planner_covers_trials_in_bounded_chunks(trials):
    sizes = list(chunk_sizes(trials))
    assert sum(sizes) == trials
    assert all(0 < size <= CHUNK_TRIALS for size in sizes)
    # planned lazily: a huge batch costs no list of chunk sizes up front
    assert next(chunk_sizes(10**15)) == CHUNK_TRIALS


def test_large_batch_memory_is_bounded_by_the_chunk():
    bound_mb = 64
    config = SessionConfig(n_groups=100_000)
    tracemalloc.start()
    try:
        report = monte_carlo(config, kind="type1", trials=3 * CHUNK_TRIALS + 1, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert report.detection_rate == 0.0 and report.key_agreement_rate == 1.0
    assert sum(report.outcome_counts) == 100_000 * (3 * CHUNK_TRIALS + 1)


def _reference_table_batch(config, kind, trials, seed):
    """The multinomial sampler the table backend must stay draw-for-draw equal to."""
    pairs = Counter(declared_pairs(config))
    tables = [(n_pair, class_table(kind, a, b)) for (a, b), n_pair in pairs.items()]
    can_mismatch = any(table.mismatch.any() for _, table in tables)
    n, k = config.n_groups, config.k_checked
    detections = agreements = eve_hits = 0
    counts = np.zeros(4, dtype=np.int64)
    for c, size in enumerate(chunk_sizes(trials)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        mismatched = np.zeros(size, dtype=np.int64)
        missed = np.zeros(size, dtype=np.int64)
        for n_pair, table in tables:
            drawn = rng.multinomial(n_pair, table.probs, size=size)
            mismatched += drawn[:, table.mismatch].sum(axis=1)
            missed += drawn[:, ~table.eve_ok].sum(axis=1)
            # given the class counts, Alice's outcomes are independent per group
            for total, alice in zip(drawn.sum(axis=0), table.alice):
                counts += rng.multinomial(total, alice)
        if can_mismatch:
            detections += int((rng.hypergeometric(mismatched, n - mismatched, k) > 0).sum())
        agreements += int((mismatched == 0).sum())
        eve_hits += int((missed == 0).sum())
    return detections, agreements, eve_hits, counts


_MIXED = (BellIndex.PHI_MINUS, PSI_P, BellIndex.PSI_MINUS, BellIndex.PHI_PLUS, PSI_P)
# type2 and type3 are modeled on phi+ channels only; none and type1 take any pairs
SAMPLER_POLICIES = {
    "none": [AllPhiPlus(), RandomKnown(seed=3), FixedList(_MIXED * 2)],
    "type1": [AllPhiPlus(), RandomKnown(seed=4), FixedList(_MIXED * 2)],
    "type2": [AllPhiPlus(), FixedList((BellIndex.PHI_PLUS,) * 10)],
    "type3": [AllPhiPlus(), FixedList((BellIndex.PHI_PLUS,) * 10)],
}


@pytest.mark.parametrize("fraction", [0.1, 1.0])
@pytest.mark.parametrize(
    "kind, policy",
    [
        pytest.param(kind, policy, id=f"{kind}-{policy.describe()}")
        for kind, policies in SAMPLER_POLICIES.items()
        for policy in policies
    ],
)
def test_table_sampler_matches_the_multinomial_reference(kind, policy, fraction):
    # one class (none), two (type1, type3) and four (type2); three chunks, the last partial
    config = SessionConfig(n_groups=5, pair_states=policy, check_fraction=fraction)
    for trials, seed in [(1, 2), (2 * CHUNK_TRIALS + 3, 9)]:
        got = monte_carlo(config, kind, trials, seed)
        detections, agreements, eve_hits, counts = _reference_table_batch(config, kind, trials, seed)
        assert got.detection_rate == detections / trials, (trials, got, detections)
        assert got.key_agreement_rate == agreements / trials, (trials, got, agreements)
        assert got.eve_key_rate == (None if kind == "none" else eve_hits / trials), (trials, got, eve_hits)
        assert got.outcome_counts == tuple(counts.tolist())


def _reference_chunk(tables, n_groups, ks, seed, c, size):
    """``stats._table_chunk``'s tallies from the plain multinomial draws."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
    mismatched = np.zeros(size, dtype=np.int64)
    missed = np.zeros(size, dtype=np.int64)
    counts = np.zeros(4, dtype=np.int64)
    for n_pair, table in tables:
        drawn = rng.multinomial(n_pair, table.probs, size=size)
        mismatched += drawn[:, table.mismatch].sum(axis=1)
        missed += drawn[:, ~table.eve_ok].sum(axis=1)
        for total, alice in zip(drawn.sum(axis=0), table.alice):
            counts += rng.multinomial(total, alice)
    state, detections = rng.bit_generator.state, []
    for k in ks:
        rng.bit_generator.state = state
        detections.append(np.count_nonzero(rng.hypergeometric(mismatched, n_groups - mismatched, k)))
    return [size - np.count_nonzero(mismatched), size - np.count_nonzero(missed), *counts, *detections]


def _two_classes(labels, p):
    """A hand-built two-class table: class i labelled (mismatch, eve_ok) ``labels[i]``."""
    (m0, ok0), (m1, ok1) = labels
    alice = np.array([[0.5, 0.25, 0.125, 0.125], [0.1, 0.2, 0.3, 0.4]])
    return ClassTable(np.array([m0, m1]), np.array([ok0, ok1]), np.array([p, 1 - p]), alice)


_LABELS = list(itertools.product([False, True], repeat=2))


def _labels_id(labels) -> str:
    return "/".join(("mismatch" if m else "match") + ("-guessed" if ok else "-missed") for m, ok in labels)


@pytest.mark.parametrize("labels", itertools.product(_LABELS, repeat=2), ids=_labels_id)
def test_a_two_class_chunk_matches_the_multinomial_reference(labels):
    # supported kinds only label (F,F)/(F,T) and (F,T)/(T,T); here either class may
    # mismatch or miss. A lone pair of 3 groups, on numpy's inversion binomial, leaves
    # either class empty often enough to tell each tally apart; then 200 * 0.3 groups
    # take its BTPE binomial, with a four-class pair between them in the draw order
    alone = [(3, _two_classes(labels, 0.75))]
    mixed = alone + [(1, class_table("type2")), (200, _two_classes(labels[::-1], 0.3))]
    for tables in (alone, mixed):
        n = sum(n_pair for n_pair, _ in tables)
        ks = sorted({1, 2, n})
        for c, size in [(0, 1), (1, 2000)]:
            got = stats._table_chunk(tables, n, ks, 5, c, size)
            assert got.tolist() == _reference_chunk(tables, n, ks, 5, c, size), (n, c, size)


def test_a_two_class_chunk_holds_one_count_column():
    # type1's class counts at 16 groups are one int64 binomial column; 25% over it
    # covers the missed-guess mask (a byte a trial) and the generator, not a second column
    tables = [(16, class_table("type1"))]
    stats._table_chunk(tables, 16, (8,), 1, 0, 10)
    tracemalloc.start()
    try:
        stats._table_chunk(tables, 16, (8,), 1, 0, CHUNK_TRIALS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * CHUNK_TRIALS, peak


@pytest.mark.parametrize("trials", [7, CHUNK_TRIALS + 3])
@pytest.mark.parametrize(
    "kind, policy",
    [
        pytest.param(kind, policy, id=f"{kind}-{policy.describe()}")
        for kind, policies in SAMPLER_POLICIES.items()
        for policy in policies
    ],
)
def test_each_sweep_point_is_the_one_k_batch(kind, policy, trials):
    # a sweep draws each chunk's class counts once for the whole grid; the bigger
    # trial count runs two chunks, so the hypergeometric draws restart per chunk
    n = 5
    points = monte_carlo_sweep(SessionConfig(n, policy), kind, range(1, n + 1), trials, 8)
    assert [point.k_checked for point in points] == list(range(1, n + 1))
    for k, point in enumerate(points, 1):
        # == on the dataclass: every field, the float rates and intervals included
        assert point == monte_carlo(SessionConfig(n, policy, check_fraction=k / n), kind, trials, 8), k


def test_a_sweep_point_does_not_depend_on_the_rest_of_the_grid():
    config = SessionConfig(n_groups=6)
    alone = monte_carlo_sweep(config, "type3", [4], 300, 2)
    assert monte_carlo_sweep(config, "type3", (6, 4, 1, 4), 300, 2)[1::2] == alone * 2


def _no_work(*args, **kwargs):
    raise AssertionError("a bad sweep must be refused before any sampling")


@pytest.mark.parametrize(
    "config, ks, error, match",
    [
        ("phi+", [1], TypeError, "config must be a SessionConfig"),
        (SessionConfig(n_groups=4), [], ValueError, "check counts in \\[1, 4\\]"),
        (SessionConfig(n_groups=4), [1, 0], ValueError, "k_checked must be at least 1"),
        (SessionConfig(n_groups=4), [1, 5], ValueError, "check counts in \\[1, 4\\]"),
        (SessionConfig(n_groups=4), [True], TypeError, "k_checked must be an integer, not bool"),
    ],
    ids=["not-a-config", "empty", "zero", "above-n", "bool"],
)
def test_a_sweep_refuses_bad_arguments_before_any_work(monkeypatch, config, ks, error, match):
    monkeypatch.setattr(stats, "_run_chunks", _no_work)
    with pytest.raises(error, match=match):
        monte_carlo_sweep(config, "type2", ks, 10, 0)


@pytest.mark.parametrize(
    "kind, policy",
    [
        pytest.param(kind, policy, id=f"{kind}-{policy.describe()}")
        for kind, policies in SAMPLER_POLICIES.items()
        for policy in policies
    ],
)
def test_tallies_do_not_depend_on_the_worker_count(kind, policy, monkeypatch):
    # four chunks, the last partial: inline on one worker, on three threads otherwise
    config = SessionConfig(n_groups=5, pair_states=policy)
    sweeps = []
    for workers in (1, 3):
        monkeypatch.setattr(stats, "_cpus", lambda: workers)
        sweeps.append(monte_carlo_sweep(config, kind, (1, 2, 3), 3 * CHUNK_TRIALS + 5, 6))
    assert sweeps[0] == sweeps[1]


def test_many_workers_on_tiny_chunks_lose_no_chunk(monkeypatch):
    # more workers than CPUs, 300 chunks and a short switch interval: a chunk pulled
    # twice or lost between workers would change the tallies
    monkeypatch.setattr(stats, "CHUNK_TRIALS", 7)
    config = SessionConfig(n_groups=3)
    sweeps = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 8):
            monkeypatch.setattr(stats, "_cpus", lambda: workers)
            sweeps.append(monte_carlo_sweep(config, "type2", (1, 3), 2100, 3))
    finally:
        sys.setswitchinterval(interval)
    assert sweeps[0] == sweeps[1]
    assert sum(sweeps[0][0].outcome_counts) == 3 * 2100


def _spy_on_chunks(monkeypatch, workers, fail_on=None):
    """Run batches on ``workers`` threads; record the live thread count at each
    chunk, and raise in chunk ``fail_on``."""
    monkeypatch.setattr(stats, "_cpus", lambda: workers)
    seen = []
    chunk = stats._table_chunk

    def spied(tables, n_groups, ks, seed, c, size):
        seen.append(threading.active_count())
        if c == fail_on:
            raise RuntimeError(f"chunk {c} lost its tables")
        return chunk(tables, n_groups, ks, seed, c, size)

    monkeypatch.setattr(stats, "_table_chunk", spied)
    return seen


@pytest.mark.parametrize("workers", [1, 3])
def test_a_chunk_error_reaches_the_caller(workers, monkeypatch, capsys):
    before = threading.active_count()
    _spy_on_chunks(monkeypatch, workers, fail_on=1)
    config = SessionConfig(n_groups=2)
    with pytest.raises(RuntimeError, match="chunk 1 lost its tables"):
        monte_carlo(config, kind="type2", trials=3 * CHUNK_TRIALS, seed=0)
    argv = ["attack", "--adversary", "type2", "--groups", "2", "--trials", str(3 * CHUNK_TRIALS)]
    assert main(argv) == EXIT_INTERNAL
    assert "chunk 1 lost its tables" in capsys.readouterr().err
    assert threading.active_count() == before


def test_no_thread_outlives_a_batch(monkeypatch):
    before = threading.active_count()
    seen = _spy_on_chunks(monkeypatch, 3)
    monte_carlo(SessionConfig(n_groups=3), kind="type3", trials=4 * CHUNK_TRIALS, seed=2)
    assert len(seen) == 4
    assert max(seen) > before  # the helper threads ran
    assert threading.active_count() == before


def test_batch_memory_is_one_chunk_per_worker(monkeypatch):
    # each worker holds one chunk's working set at a time, whatever the chunk count;
    # 10% slack covers the per-worker totals and the thread objects
    workers = 2
    monkeypatch.setattr(stats, "_cpus", lambda: workers)
    config = SessionConfig(n_groups=16)
    monte_carlo(config, kind="type1", trials=10, seed=1)  # warm the class table

    def peak(trials):
        tracemalloc.start()
        try:
            monte_carlo(config, kind="type1", trials=trials, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_chunk = peak(CHUNK_TRIALS)
    assert peak(4 * CHUNK_TRIALS) <= 1.1 * workers * one_chunk
