"""Statistics for simulation runs.

Three layers:

* small numerics: Wilson 95% score intervals, the chi-square survival
  function for 3 degrees of freedom in closed form, and a uniformity test
  over the four Bell outcomes;
* analytic attack rates: one branch walk over each kind's
  ``adversary.Layout`` conditions on every measurement outcome, in session
  order, to build the exact joint table of one group's outcomes for a
  declared pair; per-check mismatch and per-group key-guess probabilities
  are marginals of that table, not hard-coded, so the analytic column in
  reports is itself oracle-derived;
* Monte Carlo drivers that summarize detection, key-agreement, and
  eavesdropper success rates over a batch of trials.

Monte Carlo has two backends.  ``"table"`` (the default) reduces each
joint table to classes of cells labelled (fragments mismatch, Eve's guess
right), her fair coin expanded where her rule reads one.  Groups are
independent product systems and Bob's check subset is uniform and
independent of the outcomes, so a trial is fully described by how many of
its groups fall in each class: the batch draws those counts per declared
pair, detection from a hypergeometric draw of the checked subset, and
Alice's outcome tallies per class.  That is the session path's exact joint
law, for every kind alike, with no statevector touched once the tables are
built.  Trials run in chunks of ``CHUNK_TRIALS``; chunk ``c`` draws from
``SeedSequence(seed, spawn_key=(c,))``, so memory stays bounded whatever
``trials`` and ``n_groups`` are.  ``"statevector"`` runs one full session
per trial, trial ``t`` reseeded from ``(seed, t)``; it is the reference the
table backend is checked against in law.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .adversary import STRATEGY_KINDS, layout_of, make_strategy
from .bell import BELL_ORDER, BellIndex, swap_partner
from .protocol import SessionConfig, declared_pair_states, run_session
from .statevector import MIN_FORCED_PROB, outcome_distribution, project_bell

Z95 = 1.959963984540054  # two-sided 95% normal quantile

# Trials per table-backend chunk: bounds a batch's working set at a few MB.
CHUNK_TRIALS = 1 << 16

_PHI = BellIndex.PHI_PLUS


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion, as (lo, hi)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
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
    3 df it is erfc(sqrt(x/2)) + sqrt(2x/pi) * exp(-x/2).
    """
    if x < 0:
        raise ValueError("chi-square statistic cannot be negative")
    if x == 0:
        return 1.0
    return math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)


def uniformity_test(counts) -> tuple[float, float]:
    """Chi-square test of the four outcome counts against uniform.

    Returns (statistic, p_value).  Requires at least 40 total samples so
    every expected cell count is >= 10.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (4,):
        raise ValueError("expected exactly four outcome counts")
    if (counts < 0).any():
        raise ValueError("counts cannot be negative")
    total = int(counts.sum())
    if total < 40:
        raise ValueError("need at least 40 samples for the uniformity test")
    expected = total / 4.0
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, chi2_sf_3df(stat)


@lru_cache(maxsize=None)
def joint_table(
    kind: str, a: BellIndex = _PHI, b: BellIndex = _PHI
) -> Mapping[tuple[BellIndex, ...], float]:
    """Exact joint distribution of the outcomes of one group declared (a, b).

    Keys are (alice, bob, *eve) outcome tuples, values their probability.
    The walk follows the session's measurement order on the kind's layout
    and conditions on every outcome with its Born weight; branches below
    MIN_FORCED_PROB are pruned, so only reachable cells appear.  Attacks
    modeled for phi+ channels only raise UnsupportedAttackError for any
    other declared pair.
    """
    layout = layout_of(kind)
    order = layout.session_order()
    table: dict[tuple[BellIndex, ...], float] = {}

    def walk(systems: dict, step: int, outcomes: tuple, prob: float) -> None:
        if step == len(order):
            table[outcomes] = prob
            return
        slot, (name, (qi, qj)) = order[step]
        sv = systems[name]
        probs = outcome_distribution(sv, qi, qj)
        for outcome in BELL_ORDER:
            if probs[outcome.ordinal] < MIN_FORCED_PROB:
                continue
            p, collapsed = project_bell(sv, qi, qj, outcome)
            placed = outcomes[:slot] + (outcome,) + outcomes[slot + 1 :]
            walk({**systems, name: collapsed}, step + 1, placed, prob * p)

    walk(layout.declared_systems(a, b), 0, (None,) * len(order), 1.0)
    return MappingProxyType(table)  # read-only: every caller shares the cached table


@dataclass(frozen=True)
class ClassTable:
    """One declared pair's joint table, reduced to what a trial depends on.

    Class ``i`` gathers the cells whose fragments mismatch iff
    ``mismatch[i]`` and whose guess (per fair coin, where the rule reads
    one) is Alice's outcome iff ``eve_ok[i]``; only classes with mass
    appear.  ``probs`` are the class probabilities, renormalized to sum to
    one, and ``alice[i]`` is p(alice outcome | class i) in canonical order.
    Without an adversary every cell counts as guessed right.
    """

    mismatch: np.ndarray
    eve_ok: np.ndarray
    probs: np.ndarray
    alice: np.ndarray


@lru_cache(maxsize=None)
def class_table(kind: str, a: BellIndex = _PHI, b: BellIndex = _PHI) -> ClassTable:
    """The (mismatch, eve_ok) classes of ``joint_table(kind, a, b)``."""
    layout = layout_of(kind)
    coins = (0, 1) if layout.coin else (0,)
    mass: dict[tuple[bool, bool], np.ndarray] = {}
    for (alice, bob, *eve), p in joint_table(kind, a, b).items():
        for coin in coins:
            eve_ok = layout.guess is None or layout.guess(tuple(eve), coin) is alice
            label = (bob is not swap_partner(a, b, alice), eve_ok)
            mass.setdefault(label, np.zeros(4))[alice.ordinal] += p / len(coins)
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


def per_check_mismatch(kind: str) -> float:
    """Probability one CHECKED group's fragments disagree.

    The table mass where Bob's outcome is not the one Alice infers from
    hers; with no reachable mismatching cell this is exactly 0.0.
    """
    return sum(
        (p for (a, b, *_), p in joint_table(kind).items() if b is not swap_partner(_PHI, _PHI, a)),
        0.0,
    )


def per_group_eve_success(kind: str) -> float | None:
    """Probability the adversary reconstructs one group's fragment.

    The table mass where her guess, averaged over its fair coin, equals
    Alice's outcome.  None for the honest channel (there is no adversary
    to succeed).
    """
    guess = layout_of(kind).guess
    if guess is None:
        return None
    return sum(
        p / 2
        for (a, _, *eve), p in joint_table(kind).items()
        for coin in (0, 1)
        if guess(tuple(eve), coin) is a
    )


def analytic_detection(kind: str, k_checked: int) -> float:
    """Probability at least one of k checked groups exposes the attack."""
    if k_checked < 1:
        raise ValueError("at least one group must be checked")
    return 1.0 - (1.0 - per_check_mismatch(kind)) ** k_checked


def analytic_eve_key(kind: str, n_groups: int) -> float | None:
    """Probability the adversary reconstructs the whole 4n-bit string."""
    if n_groups < 1:
        raise ValueError("n_groups must be positive")
    per_group = per_group_eve_success(kind)
    if per_group is None:
        return None
    return per_group**n_groups


@dataclass(frozen=True)
class MCReport:
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

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "n_groups": self.n_groups,
            "k_checked": self.k_checked,
            "trials": self.trials,
            "seed": self.seed,
            "detection_rate": self.detection_rate,
            "detection_interval": list(self.detection_interval),
            "eve_key_rate": self.eve_key_rate,
            "eve_key_interval": list(self.eve_key_interval) if self.eve_key_interval else None,
            "key_agreement_rate": self.key_agreement_rate,
            "outcome_counts": list(self.outcome_counts),
            "analytic_detection": self.analytic_detection,
            "analytic_eve_key": self.analytic_eve_key,
        }


def chunk_sizes(trials: int) -> Iterator[int]:
    """Trial counts of the table backend's chunks: each at most CHUNK_TRIALS."""
    for start in range(0, trials, CHUNK_TRIALS):
        yield min(CHUNK_TRIALS, trials - start)


# A batch result: (detections, key agreements, Eve full-key hits, Alice's
# outcome tallies in canonical order).
Tally = tuple[int, int, int, np.ndarray]


def _table_batch(config: SessionConfig, kind: str, trials: int, seed: int) -> Tally:
    """Sample each trial's class counts per declared pair, chunk by chunk."""
    declared = declared_pair_states(config)
    pairs = Counter(zip(declared[0::2], declared[1::2]))
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


def _statevector_batch(config: SessionConfig, kind: str, trials: int, seed: int) -> Tally:
    """One full statevector session per trial, trial t reseeded from (seed, t)."""
    detections = 0
    agreements = 0
    eve_hits = 0
    counts = np.zeros(4, dtype=np.int64)
    for t in range(trials):
        ss = np.random.SeedSequence(seed, spawn_key=(t,))
        report = run_session(config, make_strategy(kind), ss)
        if report.verdict == "abort":
            detections += 1
        if all(g.alice_fragment.bits == g.bob_fragment.bits for g in report.groups):
            agreements += 1
        if report.eve is not None and report.eve.full_key_correct:
            eve_hits += 1
        for g in report.groups:
            counts[g.alice_outcome.ordinal] += 1
    return detections, agreements, eve_hits, counts


BACKENDS = {"table": _table_batch, "statevector": _statevector_batch}


def monte_carlo(
    config: SessionConfig,
    kind: str = "none",
    trials: int = 1000,
    seed: int = 0,
    backend: str = "table",
) -> MCReport:
    """Run `trials` independent sessions and summarize them.

    ``backend`` is ``"table"`` (sampled from the joint outcome tables) or
    ``"statevector"`` (one full session per trial); both draw from the
    same law and each is a pure function of its arguments.
    `eve_key_rate` counts trials where the adversary reconstructed ALL n
    fragments, checked groups included; `key_agreement_rate` counts trials
    where every honest fragment pair agreed.
    """
    if kind not in STRATEGY_KINDS:
        raise ValueError(f"unknown adversary kind: {kind!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if backend not in BACKENDS:
        raise ValueError(f"unknown Monte Carlo backend {backend!r}; expected one of {tuple(BACKENDS)}")
    detections, agreements, eve_hits, counts = BACKENDS[backend](config, kind, trials, seed)
    has_eve = layout_of(kind).guess is not None
    return MCReport(
        strategy=kind,
        n_groups=config.n_groups,
        k_checked=config.k_checked,
        trials=trials,
        seed=seed,
        detection_rate=detections / trials,
        detection_interval=wilson_interval(detections, trials),
        eve_key_rate=eve_hits / trials if has_eve else None,
        eve_key_interval=wilson_interval(eve_hits, trials) if has_eve else None,
        key_agreement_rate=agreements / trials,
        outcome_counts=tuple(int(c) for c in counts),
        analytic_detection=analytic_detection(kind, config.k_checked),
        analytic_eve_key=analytic_eve_key(kind, config.n_groups),
    )


@dataclass(frozen=True)
class EfficiencyReport:
    """Raw and net key yield for a session shape."""

    n_groups: int
    k_checked: int
    raw_bits_per_group: float
    raw_bits_per_particle: float
    net_bits_per_particle: float
    reference_bits_per_pair: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "n_groups": self.n_groups,
            "k_checked": self.k_checked,
            "raw_bits_per_group": self.raw_bits_per_group,
            "raw_bits_per_particle": self.raw_bits_per_particle,
            "net_bits_per_particle": self.net_bits_per_particle,
            "reference_bits_per_pair": dict(self.reference_bits_per_pair),
        }


def efficiency_report(n_groups: int, check_fraction: float) -> EfficiencyReport:
    """Key yield: 4 bits per group of two pairs before sifting.

    Each group spends two pairs (four particles) and yields a 4-bit
    fragment, so the raw rate is one bit per particle; checked groups are
    discarded, leaving 1 - k/n of that.  Reference rates: BB84 extracts at
    most one bit per pair, B92 one bit per two pairs; this scheme's raw
    two bits per pair is the draw.
    """
    config = SessionConfig(n_groups=n_groups, check_fraction=check_fraction)
    k = config.k_checked
    return EfficiencyReport(
        n_groups=n_groups,
        k_checked=k,
        raw_bits_per_group=4.0,
        raw_bits_per_particle=1.0,
        net_bits_per_particle=1.0 - k / n_groups,
        reference_bits_per_pair={"this_scheme_raw": 2.0, "bb84": 1.0, "b92": 0.5},
    )


SWEEP_CSV_HEADER = (
    "strategy",
    "n_groups",
    "k_checked",
    "trials",
    "detection_rate",
    "ci",
    "analytic",
    "eve_key_rate",
    "agreement_rate",
)


def sweep_csv_row(report: MCReport) -> list[str]:
    """One CSV row per batch; `ci` is the Wilson half-width on detection."""
    return [
        report.strategy,
        str(report.n_groups),
        str(report.k_checked),
        str(report.trials),
        f"{report.detection_rate:.6f}",
        f"{half_width(report.detection_interval):.6f}",
        f"{report.analytic_detection:.6f}",
        "" if report.eve_key_rate is None else f"{report.eve_key_rate:.6f}",
        f"{report.key_agreement_rate:.6f}",
    ]
