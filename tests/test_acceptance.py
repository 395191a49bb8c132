"""Acceptance gate: nine behavioral criteria with pinned tolerances.

Each criterion is one test; it prints a single summary line (visible with
``pytest -s`` and on any failure) and then asserts.  Statistical criteria
use the stated trial counts with fixed seeds and the stated tolerance,
either three Wilson 95% half-widths around the analytic value or an
explicit band.
"""

import time

import numpy as np

from entswap.adversary import make_strategy
from entswap.bell import BELL_ORDER, BellIndex, swap_partner
from entswap.cli import main
from entswap.protocol import RandomKnown, SessionConfig, run_session
from entswap.statevector import (
    identify_bell,
    make_bell,
    project_bell,
    sample_outcome_ordinals,
    tensor,
)
from entswap.stats import (
    efficiency_report,
    half_width,
    monte_carlo,
    uniformity_test,
)

PHI_P = BellIndex.PHI_PLUS
PSI_M = BellIndex.PSI_MINUS


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_swap_rule_matches_oracle_on_all_triples():
    start = time.perf_counter()
    mismatches = []
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            sv = tensor(make_bell(a, "1", "2"), make_bell(b, "3", "4"))
            for m in BELL_ORDER:
                for measured, remote in ((("1", "3"), ("2", "4")), (("2", "3"), ("1", "4"))):
                    _, collapsed = project_bell(sv, *measured, m)
                    found = identify_bell(collapsed, *remote)
                    if found is not swap_partner(a, b, m):
                        mismatches.append((str(a), str(b), str(m), measured))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    _verdict(
        1,
        "swap rule vs oracle, 64 triples x 2 splits",
        ok,
        f"mismatches={mismatches[:3]} runtime={elapsed:.3f}s (limit 1s)",
    )


def test_criterion_2_outcome_uniformity_over_100_seeds():
    sv = tensor(make_bell(PHI_P, "1", "2"), make_bell(PSI_M, "3", "4"))
    passes = 0
    worst_p = 1.0
    for s in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(777, spawn_key=(s,)))
        draws = sample_outcome_ordinals(sv, "1", "3", rng, 40_000)
        _, p = uniformity_test(np.bincount(draws, minlength=4))
        worst_p = min(worst_p, p)
        if p > 0.001:
            passes += 1
    ok = passes >= 99
    _verdict(
        2,
        "sampled swap outcomes uniform on phi+ x psi-",
        ok,
        f"{passes}/100 seeds with p > 0.001 at 4e4 draws (worst p={worst_p:.2e}, need >= 99)",
    )


def test_criterion_3_honest_sessions_always_agree():
    failures = 0
    sessions = 1000
    for t in range(sessions):
        config = SessionConfig(
            n_groups=16, pair_states=RandomKnown(seed=5000 + t), check_fraction=0.5
        )
        report = run_session(config, seed_seq=np.random.SeedSequence(31415, spawn_key=(t,)))
        good = (
            report.verdict == "accept"
            and report.alice_key == report.bob_key
            and len(report.alice_key) == 4 * (16 - 8)
        )
        failures += not good
    ok = failures == 0
    _verdict(
        3,
        "1000 honest mixed-state sessions accept with equal 32-bit keys",
        ok,
        f"failures={failures}/{sessions}",
    )


def test_criterion_4_entangler_detection_curve():
    start = time.perf_counter()
    trials = 10_000
    lines = []
    ok = True

    point = monte_carlo(
        SessionConfig(n_groups=1, check_fraction=1.0), kind="type2", trials=trials, seed=271
    )
    band = 3 * half_width(point.detection_interval)
    ok &= abs(point.detection_rate - 0.5) <= band
    lines.append(f"per-check mismatch {point.detection_rate:.4f} vs 0.5 (band {band:.4f})")

    for k in range(1, 5):
        report = monte_carlo(
            SessionConfig(n_groups=k, check_fraction=1.0),
            kind="type2",
            trials=trials,
            seed=271 + k,
        )
        target = 1.0 - 0.5**k
        band = 3 * half_width(report.detection_interval)
        ok &= abs(report.detection_rate - target) <= band
        lines.append(f"k={k}: {report.detection_rate:.4f} vs {target:.4f} (band {band:.4f})")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _verdict(
        4,
        "entangler detection 1-(1/2)^k at 1e4 trials",
        ok,
        "; ".join(lines) + f"; runtime={elapsed:.1f}s (limit 60s)",
    )


def test_criterion_5_entangler_conditional_structure():
    from entswap.adversary import corrupt_channels, eve_measure, measure

    groups = 43_000  # gives >= 1e4 samples conditioned on alice phi+
    layout = make_strategy("type2")
    channels = corrupt_channels(layout, [(PHI_P, PHI_P)] * groups)
    rng = np.random.default_rng(60_603)
    alice = [measure(systems, layout.alice, rng) for systems in channels]
    bob = [measure(systems, layout.bob, rng) for systems in channels]
    eve = [e for (e,) in eve_measure(layout, channels, rng)]

    paired = sum(
        e is BellIndex((a.phase ^ b.phase, a.parity)) for a, b, e in zip(alice, bob, eve)
    )
    conditioned = [b for a, b in zip(alice, bob) if a is PHI_P]
    support = set(conditioned)
    first = conditioned[:10_000]
    share_plus = sum(b is PHI_P for b in first) / len(first)
    ok = (
        len(first) == 10_000
        and paired == groups
        and support == {BellIndex.PHI_PLUS, BellIndex.PHI_MINUS}
        and abs(share_plus - 0.5) <= 0.02
    )
    _verdict(
        5,
        "conditioned on alice phi+: bob 50/50 on {phi+,phi-}, eve term-paired",
        ok,
        f"bob phi+ share {share_plus:.4f} (band 0.02), support {sorted(str(s) for s in support)}, "
        f"eve paired {paired}/{groups}",
    )


def test_criterion_6_replacer_detection_curve():
    trials = 10_000
    lines = []
    ok = True

    point = monte_carlo(
        SessionConfig(n_groups=1, check_fraction=1.0), kind="type3", trials=trials, seed=626
    )
    match_rate = 1.0 - point.detection_rate
    band = 3 * half_width(point.detection_interval)
    ok &= abs(match_rate - 0.25) <= band
    lines.append(f"per-group match {match_rate:.4f} vs 0.25 (band {band:.4f})")

    for k in range(1, 5):
        report = monte_carlo(
            SessionConfig(n_groups=k, check_fraction=1.0),
            kind="type3",
            trials=trials,
            seed=626 + k,
        )
        target = 1.0 - 0.25**k
        band = 3 * half_width(report.detection_interval)
        ok &= abs(report.detection_rate - target) <= band
        lines.append(f"k={k}: {report.detection_rate:.4f} vs {target:.4f} (band {band:.4f})")
    _verdict(6, "replacer detection 1-(1/4)^k at 1e4 trials", ok, "; ".join(lines))


def test_criterion_7_guesser_key_rates_and_zero_detection():
    one = monte_carlo(SessionConfig(n_groups=1), kind="type1", trials=100_000, seed=49)
    band1 = 3 * half_width(one.eve_key_interval)
    ok1 = abs(one.eve_key_rate - 0.25) <= band1

    four = monte_carlo(SessionConfig(n_groups=4), kind="type1", trials=1_000_000, seed=50)
    band4 = 3 * half_width(four.eve_key_interval)
    ok4 = abs(four.eve_key_rate - 1 / 256) <= band4

    # detection must be identically zero; cross-check the claim with full
    # statevector sessions, not just the vectorized path
    slow = monte_carlo(
        SessionConfig(n_groups=4), kind="type1", trials=200, seed=51, backend="statevector"
    )
    ok0 = one.detection_rate == 0.0 and four.detection_rate == 0.0 and slow.detection_rate == 0.0
    ok0 &= slow.key_agreement_rate == 1.0

    ok = ok1 and ok4 and ok0
    _verdict(
        7,
        "guesser: 0.25 per group, (1/4)^4 full key, zero detection",
        ok,
        f"n=1 {one.eve_key_rate:.5f} vs 0.25 (band {band1:.5f}); "
        f"n=4 {four.eve_key_rate:.6f} vs {1 / 256:.6f} (band {band4:.6f}); "
        f"detection fast/slow {four.detection_rate}/{slow.detection_rate}",
    )


def test_criterion_8_efficiency_accounting_is_exact():
    checks = []
    for n, fraction in [(16, 0.5), (4, 0.5), (5, 0.4), (10, 0.3), (7, 1.0)]:
        rep = efficiency_report(n, fraction)
        k = rep.k_checked
        checks.append(
            rep.raw_bits_per_group == 4.0
            and rep.raw_bits_per_particle == 1.0
            and rep.net_bits_per_particle == 1.0 - k / n
        )
    ok = all(checks)
    _verdict(
        8,
        "efficiency: 4 bits/group, 1 bit/particle raw, net 1-k/n",
        ok,
        f"shapes checked={len(checks)}, all exact={ok}",
    )


def test_criterion_9_cli_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("ENTSWAP_SEED", raising=False)
    comparisons = []

    run_args = ["run", "--groups", "8", "--seed", "97", "--format", "both"]
    for tag in ("r1", "r2"):
        assert main(run_args + ["--out", str(tmp_path / f"{tag}.json")]) == 0
    comparisons += [("run json", "r1.json", "r2.json"), ("run csv", "r1.csv", "r2.csv")]

    attack_args = [
        "attack", "--adversary", "type2", "--groups", "2", "--check-fraction", "1.0",
        "--trials", "300", "--seed", "98", "--format", "both",
    ]
    for tag in ("a1", "a2"):
        assert main(attack_args + ["--out", str(tmp_path / f"{tag}.json")]) == 0
    comparisons += [("attack json", "a1.json", "a2.json"), ("attack csv", "a1.csv", "a2.csv")]

    sweep_args = [
        "sweep", "--adversary", "type3", "--groups", "4", "--check-fraction", "0.5",
        "--trials", "200", "--seed", "99",
    ]
    for tag in ("s1", "s2"):
        assert main(sweep_args + ["--out", str(tmp_path / tag)]) == 0
    comparisons += [
        ("sweep csv", "s1/sweep.csv", "s2/sweep.csv"),
        ("sweep point", "s1/type3_k2.json", "s2/type3_k2.json"),
    ]

    mismatched = []
    for label, left, right in comparisons:
        a = (tmp_path / left).read_bytes()
        b = (tmp_path / right).read_bytes()
        if not a or a != b:
            mismatched.append(label)
    ok = not mismatched
    _verdict(
        9,
        "repeated CLI invocations are byte-identical",
        ok,
        f"compared {len(comparisons)} artifact pairs, mismatched={mismatched}",
    )
