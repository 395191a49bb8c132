"""The three benchmark workloads: inputs from a seed, one timed call, a check.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned and was checked.  ``run`` is the only
part that is timed; it calls the program and nothing else.  ``check``
verifies the outputs against independent references (closed-form rates from
the README table, Wilson tolerances computed here, not by ``entswap.stats``).

``entswap`` is imported inside ``setup`` so that a fresh process can time
set-up from ``import entswap`` onwards.  ``setup`` only warms up; the
checked operations are where correctness is judged.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

Z95 = 1.959963984540054

# A rate passes when it lies within this many Wilson 95% half-widths of the
# analytic value.  Exact binomial sums over every grid point the benchmark
# draws give a miss probability per point of at most 2e-6 (sweep points at
# 20 trials) and below 1e-13 (guesser batches at 10^6 trials).
TOLERANCE_HALF_WIDTHS = 5


def wilson_half_width(successes: int, trials: int) -> float:
    """Half-width of the Wilson 95% score interval."""
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    return (Z95 / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))


def within_tolerance(successes: int, trials: int, expected: float) -> bool:
    gap = abs(successes / trials - expected)
    return gap <= TOLERANCE_HALF_WIDTHS * wilson_half_width(successes, trials)


def seeds(seed: int):
    """Endless per-operation seeds; the same workload seed gives the same stream."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


@dataclass
class Outcome:
    """What one checked operation produced."""

    sessions: int = 0
    bytes_written: int = 0
    errors: list[str] = field(default_factory=list)


def report_json(report) -> str:
    """The text ``entswap run`` emits for a session report."""
    return json.dumps(report.to_json_dict())


class ChannelSweep:
    """``entswap sweep`` for the entangler and the replacer, files included."""

    name = "channel-sweep"
    adversaries = ("type2", "type3")
    kinds = frozenset(adversaries)
    groups = 16
    check_fraction = "0.25"
    k_max = 4  # ceil(0.25 * 16)
    trials = 20
    # per-check mismatch probability of each attack (README adversary table)
    mismatch = {"type2": 0.5, "type3": 0.75}
    trace_ops = 1
    statevector_free = False

    def _argv(self, adversary: str, trials: int, seed: int, out: Path) -> list[str]:
        return [
            "sweep",
            "--adversary", adversary,
            "--groups", str(self.groups),
            "--check-fraction", self.check_fraction,
            "--trials", str(trials),
            "--seed", str(seed),
            "--out", str(out),
        ]

    def setup(self, work: Path) -> None:
        import entswap  # noqa: F401
        from entswap import cli, stats

        for adversary in self.adversaries:
            for k in range(1, self.k_max + 1):
                stats.analytic_detection(adversary, k)
            stats.analytic_eve_key(adversary, self.groups)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(self._argv(adversary, 1, 0, work / "setup" / adversary))
        shutil.rmtree(work / "setup", ignore_errors=True)

    def run(self, seed: int, work: Path) -> list[int]:
        from entswap import cli

        codes = []
        for adversary in self.adversaries:
            argv = self._argv(adversary, self.trials, seed, work / f"sweep-{seed}" / adversary)
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        return codes

    def check(self, seed: int, codes: list[int], work: Path) -> Outcome:
        from entswap import stats

        outcome = Outcome()
        root = work / f"sweep-{seed}"
        try:
            for adversary, code in zip(self.adversaries, codes):
                if code != 0:
                    outcome.errors.append(f"sweep {adversary} seed {seed}: exit code {code}")
                    continue
                self._check_dir(adversary, root / adversary, stats.SWEEP_CSV_HEADER, outcome)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return outcome

    def _check_dir(self, adversary: str, out: Path, header, outcome: Outcome) -> None:
        where = f"sweep {adversary} in {out.parent.name}"
        files = sorted(out.iterdir())
        outcome.bytes_written += sum(f.stat().st_size for f in files)
        with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != list(header):
            outcome.errors.append(f"{where}: sweep.csv header {rows[0]} != {list(header)}")
        if len(rows) != 1 + self.k_max or len(files) != 1 + self.k_max:
            outcome.errors.append(f"{where}: {len(rows) - 1} rows, {len(files)} files")
            return
        for k, row in enumerate(rows[1:], 1):
            point = json.loads((out / f"{adversary}_k{k}.json").read_text(encoding="utf-8"))
            trials = point["trials"]
            detections = round(point["detection_rate"] * trials)
            expected = 1.0 - (1.0 - self.mismatch[adversary]) ** k
            if (point["strategy"], point["n_groups"], point["k_checked"], trials) != (
                adversary, self.groups, k, self.trials
            ):
                outcome.errors.append(f"{where} k={k}: wrong shape {point}")
            elif abs(point["analytic_detection"] - expected) > 1e-9:
                outcome.errors.append(
                    f"{where} k={k}: analytic {point['analytic_detection']} != {expected}"
                )
            elif not within_tolerance(detections, trials, point["analytic_detection"]):
                outcome.errors.append(
                    f"{where} k={k}: detection {detections}/{trials} far from "
                    f"{point['analytic_detection']}"
                )
            elif row[4] != f"{point['detection_rate']:.6f}":
                outcome.errors.append(f"{where} k={k}: csv row {row} disagrees with JSON")
            else:
                outcome.sessions += trials


class HonestRun:
    """Full sessions without an adversary, each followed by its report JSON.

    One operation is a batch of ``batch`` sessions.  Single sessions take
    about 2.5 ms, and their latency distribution on a shared host has several
    modes whose weights drift between runs, so a single-session median jumps
    between modes; the mean over a batch does not.
    """

    name = "honest-run"
    kinds = frozenset({"none"})
    groups = 16
    check_fraction = 0.5
    key_bits = 4 * (16 - 8)  # k = ceil(0.5 * 16) groups are checked
    batch = 10
    trace_ops = 10
    statevector_free = False

    def setup(self, work: Path) -> None:
        import entswap  # noqa: F401

        self.run(0, work)

    def run(self, seed: int, work: Path):
        from entswap import adversary, protocol

        results = []
        for session_seed in range(seed, seed + self.batch):
            config = protocol.SessionConfig(
                n_groups=self.groups,
                pair_states=protocol.RandomKnown(seed=session_seed ^ 0x5A5A5A5A),
                check_fraction=self.check_fraction,
                seed=session_seed,
            )
            report = protocol.run_session(config, adversary.make_strategy("none"))
            results.append((config.seed, report, report_json(report)))
        return results

    def check(self, seed: int, results, work: Path) -> Outcome:
        outcome = Outcome()
        for session_seed, report, text in results:
            where = f"session {session_seed}"
            if report.verdict != "accept":
                outcome.errors.append(f"{where}: verdict {report.verdict}")
            elif report.alice_key != report.bob_key or not report.keys_equal:
                outcome.errors.append(f"{where}: keys differ")
            elif len(report.alice_key) != self.key_bits:
                outcome.errors.append(f"{where}: key length {len(report.alice_key)}")
            elif json.loads(text)["alice_key"] != report.alice_key:
                outcome.errors.append(f"{where}: report JSON disagrees with the report")
            else:
                outcome.sessions += 1
        return outcome


class GuesserBatch:
    """Vectorized Monte Carlo batches for the independent guesser."""

    name = "guesser-batch"
    kinds = frozenset({"type1"})
    group_counts = (4, 16)
    trials = 10**6
    trace_ops = 1
    statevector_free = True

    def setup(self, work: Path) -> None:
        import entswap  # noqa: F401
        from entswap import protocol, stats

        for n in self.group_counts:
            stats.monte_carlo(protocol.SessionConfig(n_groups=n), kind="type1", trials=1000, seed=0)

    def run(self, seed: int, work: Path):
        from entswap import protocol, stats

        return [
            stats.monte_carlo(
                protocol.SessionConfig(n_groups=n), kind="type1", trials=self.trials, seed=seed
            )
            for n in self.group_counts
        ]

    def check(self, seed: int, reports, work: Path) -> Outcome:
        outcome = Outcome()
        for n, report in zip(self.group_counts, reports):
            where = f"type1 batch n={n} seed {seed}"
            hits = round(report.eve_key_rate * report.trials)
            expected = 0.25**n
            if (report.strategy, report.n_groups, report.trials) != ("type1", n, self.trials):
                outcome.errors.append(f"{where}: wrong shape")
            elif report.detection_rate != 0.0 or report.key_agreement_rate != 1.0:
                outcome.errors.append(
                    f"{where}: detection {report.detection_rate}, "
                    f"agreement {report.key_agreement_rate}"
                )
            elif sum(report.outcome_counts) != n * self.trials:
                outcome.errors.append(f"{where}: outcome counts sum {sum(report.outcome_counts)}")
            elif abs(report.analytic_eve_key - expected) > 1e-12 * expected:
                outcome.errors.append(f"{where}: analytic {report.analytic_eve_key} != {expected}")
            elif not within_tolerance(hits, report.trials, report.analytic_eve_key):
                outcome.errors.append(f"{where}: eve key hits {hits}/{report.trials} far from {expected}")
            else:
                outcome.sessions += report.trials
        return outcome


WORKLOADS = {w.name: w for w in (ChannelSweep(), HonestRun(), GuesserBatch())}
