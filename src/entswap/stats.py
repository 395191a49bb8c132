"""Statistics for simulation runs.

Three layers:

* small numerics: Wilson 95% score intervals, the chi-square survival
  function for 3 degrees of freedom in closed form, and a uniformity test
  over the four Bell outcomes;
* analytic attack rates: one branch walk over an ``adversary.Layout``
  conditions on every measurement outcome, in session order, to build the
  exact joint table of one group's outcomes for a declared pair; per-check
  mismatch and per-group key-guess probabilities are masses of its
  (mismatch, eve_ok) classes, not hard-coded, so the analytic column in
  reports is itself oracle-derived;
* Monte Carlo drivers that summarize detection, key-agreement, and
  eavesdropper success rates over a batch of trials.

Each public entry point takes a kind tag or a ``Layout``, as README's
"Python API" section states, and resolves it with ``make_strategy`` once;
every layer below takes the layout.

Monte Carlo has two backends: ``"table"`` (the default) draws each trial's
class counts from the joint tables, and ``"statevector"`` runs one full
session per trial as the reference.  README's "Python API" section states
their streams, seeding, chunking and memory once, and how a two-class table's
counts come from ``_binomial_column``, a kernel that returns numpy's
``binomial`` draw bit for bit and calls numpy where it cannot.  The table
backend is ``monte_carlo_sweep``; ``monte_carlo`` runs it at one k.  The
streams are pinned by ``tests/test_stream_contract.py`` (each numpy
``Generator`` call, and the binomial kernel against numpy's ``binomial`` for
every double it can see), ``tests/test_table_backend.py`` (``monte_carlo``'s
reports and each chunk's tally against the plain multinomial reference
sampler, each sweep point against the one-k batch, and sweeps at one and at
several workers) and the CLI digests in ``tests/test_cli.py``.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial, wraps
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .adversary import Layout, make_strategy
from .bell import FRAGMENTS, BellIndex, Record
from .protocol import SessionConfig, declared_pairs, declared_state, plain_int, run_session
from .statevector import live_outcomes, project_bell

Z95 = 1.959963984540054  # two-sided 95% normal quantile

# Trials per table-backend chunk: a worker's working set is one chunk's, a few MB
# at most; chunks run on up to one thread per CPU, with the same tallies at any count.
CHUNK_TRIALS = 1 << 16

_PHI = BellIndex.PHI_PLUS


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion, as (lo, hi).

    Both counts are checked by ``protocol.plain_int``: a bool or float raises
    TypeError, and trials below 1 or successes outside [0, trials] ValueError.
    """
    successes, trials = plain_int("successes", successes), plain_int("trials", trials, low=1)
    if successes > trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (Z95 / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return (center - half, center + half)


def half_width(interval: tuple[float, float]) -> float:
    return (interval[1] - interval[0]) / 2.0


def chi2_sf_3df(x: float) -> float:
    """P(X >= x) for a chi-square variable with 3 degrees of freedom.

    For odd degrees of freedom the survival function is elementary; with
    3 df it is erfc(sqrt(x/2)) + sqrt(2x/pi) * exp(-x/2), and 0.0 at
    infinity.  A negative or NaN statistic raises ValueError.
    """
    if not x >= 0:
        raise ValueError(f"chi-square statistic must be a non-negative number, got {x}")
    if x == 0:
        return 1.0
    if x == math.inf:  # the closed form's second term is then inf * 0
        return 0.0
    return math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)


def uniformity_test(counts) -> tuple[float, float]:
    """Chi-square test of the four outcome counts against uniform.

    Returns (statistic, p_value).  Requires at least 40 total samples so
    every expected cell count is >= 10.  Each count is checked by
    ``protocol.plain_int``, so a non-integral one raises TypeError rather
    than being truncated.
    """
    if np.shape(counts) != (4,):
        raise ValueError("expected exactly four outcome counts")
    counts = np.array([plain_int("count", c) for c in counts], dtype=np.int64)
    total = int(counts.sum())
    if total < 40:
        raise ValueError("need at least 40 samples for the uniformity test")
    expected = total / 4.0
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, chi2_sf_3df(stat)


def _per_declared_pair(table):
    """``table(layout, a, b)``, cached.  Before the lookup a kind tag is
    resolved by ``make_strategy``, so a tag and its layout share one entry,
    and each declared state is checked by ``protocol.declared_state`` and
    made its ``BellIndex`` member: True, 1.0 and 1 hash alike, so a check
    inside the cached body would not run once 1 is cached, and an ordinal
    and its member share one entry.  ``__wrapped__`` is the uncached body,
    which takes the ``Layout``."""
    cached = lru_cache(maxsize=None)(table)

    @wraps(table)
    def lookup(kind: str | Layout, a=_PHI, b=_PHI):
        a, b = declared_state("declared state a", a), declared_state("declared state b", b)
        return cached(make_strategy(kind), a, b)

    return lookup


@_per_declared_pair
def joint_table(
    layout: Layout, a: BellIndex = _PHI, b: BellIndex = _PHI
) -> Mapping[tuple[BellIndex, ...], float]:
    """Exact joint distribution of the outcomes of one group declared (a, b).

    Keys are (alice, bob, *eve) outcome tuples, values their probability.
    The walk follows the session's measurement order on the layout (or
    the kind tag's) and conditions on every live outcome with its Born
    weight, so only reachable cells appear.  A declared state may be given
    by its ordinal 0-3.  Attacks modeled for phi+ channels only raise
    UnsupportedAttackError for any other declared pair.
    """
    order = layout.session_order()
    # each leaf is (systems, outcomes so far, probability); one step expands every leaf
    leaves = [(layout.declared_systems(a, b), (None,) * len(order), 1.0)]
    for slot, (name, (qi, qj)) in order:
        grown = []
        for systems, outcomes, prob in leaves:
            sv = systems[name]
            for outcome in live_outcomes(sv, qi, qj):
                p, child = project_bell(sv, qi, qj, outcome)
                placed = outcomes[:slot] + (outcome,) + outcomes[slot + 1 :]
                grown.append(({**systems, name: child}, placed, prob * p))
        leaves = grown
    # read-only: every caller shares the cached table
    return MappingProxyType({outcomes: prob for _, outcomes, prob in leaves})


@dataclass(frozen=True)
class ClassTable:
    """One declared pair's joint table, reduced to what a trial depends on.

    Class ``i`` gathers the cells whose fragments mismatch iff
    ``mismatch[i]`` and whose guess (each of Eve's equally likely guesses
    in turn) is Alice's outcome iff ``eve_ok[i]``; only classes with mass
    appear.  ``probs`` are the class probabilities, renormalized to sum to
    one, and ``alice[i]`` is p(alice outcome | class i) in canonical order.
    Without an adversary every cell counts as guessed right.
    """

    mismatch: np.ndarray
    eve_ok: np.ndarray
    probs: np.ndarray
    alice: np.ndarray


@_per_declared_pair
def class_table(layout: Layout, a: BellIndex = _PHI, b: BellIndex = _PHI) -> ClassTable:
    """The (mismatch, eve_ok) classes of ``joint_table(layout, a, b)``."""
    mass: dict[tuple[bool, bool], np.ndarray] = {}
    # each guess takes the cell's whole mass; the renormalization below shares it out exactly
    for (alice, bob, *eve), p in joint_table(layout, a, b).items():
        for guess in layout.guess(tuple(eve)) if layout.guess else (alice,):
            # the session's own check: Alice's fragment against Bob's
            label = (FRAGMENTS[a ^ b][alice][0] != FRAGMENTS[a ^ b][bob][1], guess is alice)
            mass.setdefault(label, np.zeros(4))[alice.ordinal] += p
    labels = sorted(mass)
    cells = np.array([mass[label] for label in labels])
    totals = cells.sum(axis=1)
    fields = {
        "mismatch": np.array([m for m, _ in labels]),
        "eve_ok": np.array([ok for _, ok in labels]),
        "probs": totals / totals.sum(),
        "alice": cells / totals[:, None],
    }
    for array in fields.values():
        array.flags.writeable = False  # every caller shares the cached table
    return ClassTable(**fields)


@lru_cache(maxsize=None)  # every report of the kind reads it
def per_check_mismatch(kind: str | Layout) -> float:
    """Probability one CHECKED group's fragments disagree.

    The mass of the mismatching classes of ``class_table(kind)``; with no
    reachable mismatching cell this is exactly 0.0.
    """
    table = class_table(kind)
    return float(table.probs[table.mismatch].sum())


@lru_cache(maxsize=None)  # every report of the kind reads it
def per_group_eve_success(kind: str | Layout) -> float | None:
    """Probability the adversary reconstructs one group's fragment.

    The mass of the classes of ``class_table(kind)`` where her guess is
    Alice's outcome.  None for the honest channel (there is no adversary
    to succeed).
    """
    layout = make_strategy(kind)
    if layout.guess is None:
        return None
    table = class_table(layout)
    return float(table.probs[table.eve_ok].sum())


def analytic_detection(kind: str | Layout, k_checked: int) -> float:
    """Probability at least one of k checked groups exposes the attack."""
    return 1.0 - (1.0 - per_check_mismatch(kind)) ** plain_int("k_checked", k_checked, low=1)


def analytic_eve_key(kind: str | Layout, n_groups: int) -> float | None:
    """Probability the adversary reconstructs the whole 4n-bit string."""
    n_groups = plain_int("n_groups", n_groups, low=1)
    per_group = per_group_eve_success(kind)
    if per_group is None:
        return None
    return per_group**n_groups


@dataclass(frozen=True)
class MCReport(Record):
    """Summary of one Monte Carlo batch of identical sessions."""

    strategy: str
    n_groups: int
    k_checked: int
    trials: int
    seed: int
    detection_rate: float
    detection_interval: tuple[float, float]
    eve_key_rate: float | None
    eve_key_interval: tuple[float, float] | None
    key_agreement_rate: float
    outcome_counts: tuple[int, int, int, int]
    analytic_detection: float
    analytic_eve_key: float | None


def chunk_sizes(trials: int) -> Iterator[int]:
    """Trial counts of the table backend's chunks: each at most CHUNK_TRIALS."""
    for start in range(0, trials, CHUNK_TRIALS):
        yield min(CHUNK_TRIALS, trials - start)


def _table_chunk(tables, n_groups: int, ks: tuple[int, ...], seed: int, c: int, size: int) -> np.ndarray:
    """Chunk ``c`` of a batch, ``size`` trials drawn from
    ``SeedSequence(seed, spawn_key=(c,))``.

    Returns its tallies in one int64 array: the key agreements, Eve's
    full-key hits, Alice's four outcome tallies in canonical order, then one
    detection count per k.  Only the closing hypergeometric draw depends on
    k; each k's draw starts from the generator state the class draws left,
    so it reads exactly the stream of a one-k batch.  Eve's misses are a
    bool mask, and the mismatch counts exist only when some class can
    mismatch.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
    can_mismatch = any(table.mismatch.any() for _, table in tables)
    mismatched = np.zeros(size, dtype=np.int64) if can_mismatch else None
    missed = np.zeros(size, dtype=bool)
    counts, detections = np.zeros(4, dtype=np.int64), [0] * len(ks)
    for n_pair, table in tables:
        columns = _class_columns(rng, n_pair, table.probs, size)
        for column, mismatch, eve_ok, alice in zip(columns, table.mismatch, table.eve_ok, table.alice):
            if mismatch:
                mismatched += column
            if not eve_ok:
                np.logical_or(missed, column, out=missed)
            # given the class counts, Alice's outcomes are independent per group
            counts += rng.multinomial(int(column.sum()), alice)
    if can_mismatch:
        drawn, matched = rng.bit_generator.state, n_groups - mismatched
        for i, k in enumerate(ks):
            rng.bit_generator.state = drawn
            detections[i] = np.count_nonzero(rng.hypergeometric(mismatched, matched, k))
    agreements = size - np.count_nonzero(mismatched) if can_mismatch else size
    return np.array([agreements, size - np.count_nonzero(missed), *counts, *detections], dtype=np.int64)


def _class_columns(rng, n_pair: int, probs, size: int) -> Iterator[np.ndarray]:
    """Each class's counts among ``n_pair`` groups, one column of ``size``
    trials per class, in class order.

    Two classes draw one ``binomial`` column, the draw numpy's multinomial
    makes for two categories, and class 1's counts then overwrite that
    column in place.  That is safe because ``zip`` in ``_table_chunk``'s
    loop asks for the next column only after the loop body has used the
    previous one; a caller that kept class 0's column would see class 1's.
    """
    if len(probs) != 2:
        yield from rng.multinomial(n_pair, probs, size=size).T
        return
    column = _binomial_column(rng, n_pair, probs[0], size)
    yield column
    yield np.subtract(n_pair, column, out=column)


# The binomial kernel's bucket table has 2**_BUCKET_BITS int8 entries (128 KB).
# A u closer than _TOL to a threshold is left to numpy: its sequential
# subtraction rounds by at most 2**-54 a step, so a threshold moves < 1e-14.
# The search for replayed rows reads _ROW_BLOCK rows at a time, so its mask is
# half a chunk's int8 counts.
_BUCKET_BITS = 17
_TOL = 1e-12
_ROW_BLOCK = 1 << 15


def _binomial_column(rng, n: int, p: float, size: int) -> np.ndarray:
    """``rng.binomial(n, p, size=size)``: the same values, and the generator
    left in the same state.

    Where numpy inverts (n * min(p, 1 - p) <= 30) on a PCG64 generator, a
    trial's count is the number of the sampler's thresholds below its
    ``random()`` double u = (word >> 11) * 2**-53, one raw word per trial as
    numpy draws them.  So u's bucket, floor(u * 2**_BUCKET_BITS), is the
    word's top ``_BUCKET_BITS`` bits, and ``_inversion_table`` maps it to that
    count; the rows it leaves at -1 are replayed one at a time from the saved
    state and settled against the thresholds.  A u within ``_TOL`` of a
    threshold, or past the last one (numpy draws again there), restores the
    state and calls numpy.  Other generators and BTPE's range call numpy
    directly.  The int8 counts are gathered into the first bytes of the words'
    own buffer and widened in place, so a chunk holds one int64 column.
    """
    flip, bitgen = p > 0.5, rng.bit_generator
    p_small = float(1.0 - p if flip else p)  # as numpy computes it
    if type(bitgen) is not np.random.PCG64 or not (n > 0 and 0.0 < p_small and p_small * n <= 30.0):
        return rng.binomial(n, p, size=size)
    table, thresholds = _inversion_table(n, p_small)
    start, words = bitgen.state, bitgen.random_raw(size)
    column = np.right_shift(words, 64 - _BUCKET_BITS, out=words).view(np.int64)
    # count i lands in byte i, inside word i // 8, which the take has already read;
    # every index is in range, and "wrap" writes out directly where "raise" buffers it
    counts = column.view(np.int8)[:size]
    np.take(table, column, out=counts, mode="wrap")
    rows = [
        s + r for s in range(0, size, _ROW_BLOCK) for r in np.flatnonzero(counts[s : s + _ROW_BLOCK] < 0).tolist()
    ]
    if rows:
        end, done = bitgen.state, 0
        bitgen.state = start
        for row in rows:
            bitgen.advance(row - done)
            x = _settle(thresholds, (bitgen.random_raw() >> 11) * 2.0**-53)
            if x is None:
                bitgen.state = start
                return rng.binomial(n, p, size=size)
            counts[row], done = x, row + 1
        bitgen.state = end
    # widen in place: column[cut:] starts at byte 8 * cut >= size, past every count, so only
    # the head under column[:cut] is set aside (a cast over overlapping views reads clobbered bytes)
    cut = -(-size // 8)
    head = counts[:cut].copy()
    column[cut:] = counts[cut:]
    column[:cut] = head
    if flip:
        np.subtract(n, column, out=column)
    return column


@lru_cache(maxsize=32)  # a chunk reads one per declared pair
def _inversion_table(n: int, p: float) -> tuple[np.ndarray, list[float]]:
    """The bucket table and thresholds of numpy's binomial inversion for
    (n, p), p <= 1/2.

    numpy's sampler subtracts px = P(X = x) from u for x = 0, 1, ... until
    u <= px, and draws u again past ``bound``.  So X counts the thresholds,
    the partial sums of px up to ``bound``, below u.  The px follow numpy's
    recurrence from its ``exp(n * log1p(-p))``; each threshold is their exact
    sum (``fsum``), which numpy's sequential subtraction matches to within
    1e-14.  Bucket b covers u in [b, b + 1) / 2**_BUCKET_BITS and holds its
    count, or -1 where it lies within ``_TOL`` of a threshold or past the
    last one.  A count is at most ``bound`` < 30 + 10 * sqrt(31) < 86, so the
    table is int8.
    """
    q, mean = 1.0 - p, n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    masses = [math.exp(n * math.log1p(-p))]
    for x in range(1, bound + 1):
        masses.append((n - x + 1) * p * masses[-1] / (x * q))
    thresholds = [math.fsum(masses[: x + 1]) for x in range(bound + 1)]
    buckets = 1 << _BUCKET_BITS
    table, clear = np.full(buckets, -1, dtype=np.int8), 0
    for x, t in enumerate(thresholds):
        table[clear : max(math.floor((t - _TOL) * buckets), 0)] = x
        clear = math.floor((t + _TOL) * buckets) + 1
    table.flags.writeable = False  # every chunk shares the cached table
    return table, thresholds


def _settle(thresholds: list[float], u: float) -> int | None:
    """numpy's inversion count for ``u``, or None for a ``u`` within ``_TOL``
    of a threshold or past the last one."""
    x = bisect.bisect_left(thresholds, u)
    if x == len(thresholds) or any(abs(u - t) <= _TOL for t in thresholds[max(x - 1, 0) : x + 1]):
        return None
    return x


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_chunks(chunk, trials: int) -> np.ndarray:
    """The sum of ``chunk(c, size)`` over the chunks of ``trials``, on one
    thread per CPU this process may use (``_cpus``), at most one per chunk,
    the calling thread among them.

    Each worker pulls the next chunk from one shared iterator, under a lock,
    and folds its result into its own total, so at most one chunk per worker
    is in flight whatever ``trials`` is.  The first exception stops every
    worker after its current chunk and is raised here once all are joined.
    """
    jobs = enumerate(chunk_sizes(trials))
    workers = min(_cpus(), -(-trials // CHUNK_TRIALS))
    lock, totals, errors = threading.Lock(), [], []

    def pull():
        with lock:
            return None if errors else next(jobs, None)

    def work() -> None:
        total = 0
        try:
            for c, size in iter(pull, None):
                total = total + chunk(c, size)
        except BaseException as exc:  # raised on the calling thread below
            errors.append(exc)
        totals.append(total)

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return sum(totals)


def _statevector_batch(config: SessionConfig, layout: Layout, trials: int, seed: int) -> np.ndarray:
    """One full statevector session per trial, trial t reseeded from (seed, t),
    tallied as ``_table_chunk`` tallies a chunk at the one k ``config.k_checked``."""
    total = np.zeros(7, dtype=np.int64)
    for t in range(trials):
        ss = np.random.SeedSequence(seed, spawn_key=(t,))
        report = run_session(config, layout, ss)
        total[0] += all(g.alice_fragment == g.bob_fragment for g in report.groups)
        total[1] += report.eve is not None and report.eve.full_key_correct
        for g in report.groups:
            total[2 + g.alice_outcome.ordinal] += 1
        total[6] += report.verdict == "abort"
    return total


BACKENDS = ("table", "statevector")


def monte_carlo(
    config: SessionConfig,
    kind: str | Layout = "none",
    trials: int = 1000,
    seed: int = 0,
    backend: str = "table",
) -> MCReport:
    """Run `trials` independent sessions and summarize them.

    ``backend`` is ``"table"`` (sampled from the joint outcome tables) or
    ``"statevector"`` (one full session per trial); both draw from the
    same law and each is a pure function of its arguments.  The table
    backend is ``monte_carlo_sweep`` at the one k ``config.k_checked``.
    `eve_key_rate` counts trials where the adversary reconstructed ALL n
    fragments, checked groups included; `key_agreement_rate` counts trials
    where every honest fragment pair agreed.  Raises TypeError for a config
    that is not a ``SessionConfig``, which bounds the groups by ``MAX_GROUPS``.
    """
    layout, trials, seed = _batch_args(config, kind, trials, seed)
    if backend not in BACKENDS:
        raise ValueError(f"unknown Monte Carlo backend {backend!r}; expected one of {BACKENDS}")
    if backend == "table":
        return monte_carlo_sweep(config, layout, (config.k_checked,), trials, seed)[0]
    total = _statevector_batch(config, layout, trials, seed)
    return _mc_report(config, layout, trials, seed, config.k_checked, total, 6)


def monte_carlo_sweep(
    config: SessionConfig, kind: str | Layout, ks: Iterable[int], trials: int, seed: int
) -> list[MCReport]:
    """The table backend: one report per check count in ``ks``, each equal to
    ``monte_carlo`` of ``config`` at that k with the same trials and seed.

    The class tables are built here, on the calling thread; the chunks then
    run on up to one thread per CPU this process may use (``_run_chunks``),
    and their tallies are summed, so the reports do not depend on the CPU
    count.  The class counts, agreements, Eve's hits and Alice's tallies are
    drawn once per chunk for the whole grid; only each k's hypergeometric
    draw is its own.  Every k is a whole number in [1, ``config.n_groups``].
    """
    layout, trials, seed = _batch_args(config, kind, trials, seed)
    ks = tuple(plain_int("k_checked", k, low=1) for k in ks)
    if not ks or max(ks) > config.n_groups:
        raise ValueError(f"a sweep needs check counts in [1, {config.n_groups}], got {ks}")
    pairs = Counter(declared_pairs(config))
    tables = [(n_pair, class_table(layout, a, b)) for (a, b), n_pair in pairs.items()]
    total = _run_chunks(partial(_table_chunk, tables, config.n_groups, ks, seed), trials)
    return [_mc_report(config, layout, trials, seed, k, total, 6 + i) for i, k in enumerate(ks)]


def _batch_args(config: SessionConfig, kind: str | Layout, trials: int, seed: int) -> tuple[Layout, int, int]:
    """The layout and checked (trials, seed) of a batch, after its config."""
    if not isinstance(config, SessionConfig):
        raise TypeError(f"config must be a SessionConfig, not {config!r}")
    return make_strategy(kind), plain_int("trials", trials, low=1), plain_int("seed", seed)


def _mc_report(config, layout, trials, seed, k, total, i) -> MCReport:
    """The report of a batch of ``trials`` sessions of ``config`` under ``layout``
    with k checked groups, from its tally ``total`` in ``_table_chunk``'s
    layout, where k's detection count is ``total[i]``."""
    detections, agreements, eve_hits = int(total[i]), int(total[0]), int(total[1])
    has_eve = layout.guess is not None
    return MCReport(
        strategy=layout.kind,
        n_groups=config.n_groups,
        k_checked=k,
        trials=trials,
        seed=seed,
        detection_rate=detections / trials,
        detection_interval=wilson_interval(detections, trials),
        eve_key_rate=eve_hits / trials if has_eve else None,
        eve_key_interval=wilson_interval(eve_hits, trials) if has_eve else None,
        key_agreement_rate=agreements / trials,
        outcome_counts=tuple(int(c) for c in total[2:6]),
        analytic_detection=analytic_detection(layout, k),
        analytic_eve_key=analytic_eve_key(layout, config.n_groups),
    )


@dataclass(frozen=True)
class EfficiencyReport(Record):
    """Raw and net key yield for a session shape."""

    n_groups: int
    k_checked: int
    raw_bits_per_group: float
    raw_bits_per_particle: float
    net_bits_per_particle: float
    reference_bits_per_pair: dict[str, float]


def efficiency_report(n_groups: int, check_fraction: float) -> EfficiencyReport:
    """Key yield: 4 bits per group of two pairs before sifting.

    Each group spends two pairs (four particles) and yields a 4-bit
    fragment, so the raw rate is one bit per particle; checked groups are
    discarded, leaving 1 - k/n of that.  Reference rates: BB84 extracts at
    most one bit per pair, B92 one bit per two pairs; this scheme's raw
    two bits per pair is the draw.
    """
    config = SessionConfig(n_groups=n_groups, check_fraction=check_fraction)
    n, k = config.n_groups, config.k_checked
    return EfficiencyReport(
        n_groups=n,
        k_checked=k,
        raw_bits_per_group=4.0,
        raw_bits_per_particle=1.0,
        net_bits_per_particle=1.0 - k / n,
        reference_bits_per_pair={"this_scheme_raw": 2.0, "bb84": 1.0, "b92": 0.5},
    )


# (header name, cell of an MCReport) per sweep.csv column; `ci` is the Wilson
# half-width on detection
_SWEEP_COLUMNS = (
    ("strategy", lambda r: r.strategy),
    ("n_groups", lambda r: str(r.n_groups)),
    ("k_checked", lambda r: str(r.k_checked)),
    ("trials", lambda r: str(r.trials)),
    ("detection_rate", lambda r: f"{r.detection_rate:.6f}"),
    ("ci", lambda r: f"{half_width(r.detection_interval):.6f}"),
    ("analytic", lambda r: f"{r.analytic_detection:.6f}"),
    ("eve_key_rate", lambda r: "" if r.eve_key_rate is None else f"{r.eve_key_rate:.6f}"),
    ("agreement_rate", lambda r: f"{r.key_agreement_rate:.6f}"),
)

SWEEP_CSV_HEADER = tuple(name for name, _ in _SWEEP_COLUMNS)


def sweep_csv_row(report: MCReport) -> list[str]:
    """One CSV row per batch, one cell per ``SWEEP_CSV_HEADER`` column."""
    return [cell(report) for _, cell in _SWEEP_COLUMNS]
