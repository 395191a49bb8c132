"""Five-step session engine: transcripts, keys, determinism."""

import itertools
import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from entswap import cli, protocol, stats
from entswap.adversary import make_strategy
from entswap.bell import BELL_ORDER, BellIndex, group_key_fragment, swap_partner
from entswap.protocol import (
    FRAGMENTS,
    MAX_GROUPS,
    AllPhiPlus,
    FixedList,
    RandomKnown,
    SessionConfig,
    declared_pairs,
    run_session,
)

PHI = BellIndex.PHI_PLUS
PSI_M = BellIndex.PSI_MINUS


def test_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(n_groups=0)
    with pytest.raises(ValueError):
        SessionConfig(n_groups=4, check_fraction=0.0)
    with pytest.raises(ValueError):
        SessionConfig(n_groups=4, check_fraction=1.2)
    with pytest.raises(ValueError):
        SessionConfig(n_groups=4, seed=-1)
    with pytest.raises(ValueError):
        SessionConfig(n_groups=4, pair_states=FixedList((PHI,) * 6))
    with pytest.raises(TypeError):
        SessionConfig(n_groups=2.5)
    with pytest.raises(TypeError):
        SessionConfig(n_groups=2, seed=1.0)
    # numpy integers are taken as exact ints, so the report stays JSON
    config = SessionConfig(n_groups=np.int64(2), seed=np.uint32(7))
    assert type(config.n_groups) is int and type(config.seed) is int
    assert json.dumps(run_session(config).to_json_dict())
    # a bool is not a count or a seed, and not a fraction
    for bad in (dict(n_groups=True), dict(n_groups=2, seed=False), dict(n_groups=2, check_fraction=True)):
        with pytest.raises(TypeError):
            SessionConfig(**bad)
    for bad in ("0.5", 0.5j, None):
        with pytest.raises(TypeError):
            SessionConfig(n_groups=2, check_fraction=bad)
    with pytest.raises(ValueError):
        SessionConfig(n_groups=2, check_fraction=10**400)
    # any real fraction is stored as a plain float, so the report stays JSON
    for fraction in (np.float32(0.5), Fraction(1, 2), np.float64(0.5)):
        config = SessionConfig(n_groups=2, check_fraction=fraction)
        assert type(config.check_fraction) is float and config.check_fraction == 0.5
        assert json.dumps(run_session(config).to_json_dict())
    with pytest.raises(ValueError):
        SessionConfig(n_groups=2, check_fraction=Fraction(3, 2))


def test_fixed_list_takes_bell_states_only():
    # ordinals become Bell states
    states = FixedList((0, 3, 2, PSI_M)).states
    assert states == (PHI, PSI_M, BellIndex.PSI_PLUS, PSI_M)
    assert all(type(s) is BellIndex for s in states)
    config = SessionConfig(n_groups=1, pair_states=FixedList((0, 3)))
    assert run_session(config) == run_session(SessionConfig(1, FixedList((PHI, PSI_M))))
    for bad in (4, -1, True, 1.0, "phi+", None, (0, 1), (1, 2), (True, False), (1.0, 0)):
        with pytest.raises(ValueError, match="pair state 1"):
            FixedList((PHI, bad))


def test_pair_state_policies_are_checked_where_they_are_built():
    # the random policy's seed is a plain int, as the session seed is
    assert type(RandomKnown(np.int64(3)).seed) is int
    assert RandomKnown(np.uint8(3)).describe() == "random:3"
    for bad in (True, 2.0, "3", None):
        with pytest.raises(TypeError):
            RandomKnown(bad)
    with pytest.raises(ValueError, match="non-negative"):
        RandomKnown(-1)
    # a policy is one of the three classes, not its text
    for bad in ("phi+", "random:3", None, (PHI, PHI)):
        with pytest.raises(TypeError, match="not a pair-state policy"):
            SessionConfig(n_groups=1, pair_states=bad)


# (name in the error, least value, call that takes the value and returns it as used)
_WHOLE_NUMBER_INPUTS = {
    "SessionConfig.n_groups": ("n_groups", 1, lambda v: SessionConfig(n_groups=v).n_groups),
    "SessionConfig.seed": ("seed", 0, lambda v: SessionConfig(n_groups=1, seed=v).seed),
    "RandomKnown.seed": ("pair-state seed", 0, lambda v: RandomKnown(v).seed),
    "monte_carlo.trials": ("trials", 1, lambda v: stats.monte_carlo(SessionConfig(1), trials=v).trials),
    "monte_carlo.seed": ("seed", 0, lambda v: stats.monte_carlo(SessionConfig(1), trials=2, seed=v).seed),
    "analytic_detection.k_checked": ("k_checked", 1, lambda v: stats.analytic_detection("type2", v)),
    "analytic_eve_key.n_groups": ("n_groups", 1, lambda v: stats.analytic_eve_key("type1", v)),
    "monte_carlo_sweep.ks": (
        "k_checked", 1, lambda v: stats.monte_carlo_sweep(SessionConfig(4), "type2", [v], 2, 0)[0].k_checked
    ),
    "monte_carlo_sweep.trials": (
        "trials", 1, lambda v: stats.monte_carlo_sweep(SessionConfig(1), "none", [1], v, 0)[0].trials
    ),
    "monte_carlo_sweep.seed": (
        "seed", 0, lambda v: stats.monte_carlo_sweep(SessionConfig(1), "none", [1], 2, v)[0].seed
    ),
}


@pytest.mark.parametrize("entry", _WHOLE_NUMBER_INPUTS)
def test_every_count_and_seed_is_a_whole_number(entry):
    name, low, call = _WHOLE_NUMBER_INPUTS[entry]
    # a numpy integer is used as the plain int it equals, so nothing numpy reaches a report
    want = call(3)
    got = call(np.int64(3))
    assert got == want and type(got) is type(want) and type(want) in (int, float)
    # refused by name: "k_checked must be an integer, not float"
    for bad in (True, 2.0, "3", None):
        with pytest.raises(TypeError, match=f"{name} must be an integer, not {type(bad).__name__}$"):
            call(bad)
    with pytest.raises(ValueError, match=name):
        call(low - 1)


def test_run_session_checks_its_own_inputs(monkeypatch):
    # both checks come before any state is paired
    monkeypatch.setattr("entswap.protocol.declared_pairs", None)
    with pytest.raises(ValueError, match=f"at most {MAX_GROUPS} groups"):
        run_session(SessionConfig(n_groups=MAX_GROUPS + 1))
    with pytest.raises(TypeError, match="must be a Layout"):
        run_session(SessionConfig(n_groups=2), "type2")
    # the CLI reads the one bound rather than stating its own
    assert cli.MAX_GROUPS is MAX_GROUPS


def test_every_config_is_bounded_by_max_groups():
    # a Monte Carlo batch's memory grows with n, so the bound is the config's, not
    # only run_session's; only constructed here, never run at a large n
    for n in (MAX_GROUPS + 1, 10**9):
        with pytest.raises(ValueError, match=f"at most {MAX_GROUPS} groups"):
            SessionConfig(n_groups=n)
    assert SessionConfig(n_groups=MAX_GROUPS).n_groups == MAX_GROUPS


def _no_work(*args, **kwargs):
    raise AssertionError("a config that is not a SessionConfig must be refused before any work")


def test_only_a_session_config_runs(monkeypatch):
    # an object with SessionConfig's attributes would skip its MAX_GROUPS bound
    monkeypatch.setattr("entswap.protocol.declared_pairs", _no_work)
    monkeypatch.setattr(stats, "_run_chunks", _no_work)
    look_alike = SimpleNamespace(
        n_groups=2 * MAX_GROUPS, pair_states=AllPhiPlus(), check_fraction=0.5, seed=0, k_checked=1
    )
    for bad in (look_alike, "phi+"):
        with pytest.raises(TypeError, match="config must be a SessionConfig, not"):
            run_session(bad)
        with pytest.raises(TypeError, match="config must be a SessionConfig, not"):
            stats.monte_carlo(bad, "type1", trials=3)


def test_k_checked_rounds_up():
    assert SessionConfig(n_groups=16, check_fraction=0.5).k_checked == 8
    assert SessionConfig(n_groups=4, check_fraction=0.26).k_checked == 2
    assert SessionConfig(n_groups=1, check_fraction=1.0).k_checked == 1
    assert SessionConfig(n_groups=3, check_fraction=1 / 3).k_checked == 1
    assert SessionConfig(n_groups=5, check_fraction=0.01).k_checked == 1


def test_declared_pairs_policies():
    assert declared_pairs(SessionConfig(n_groups=2)) == [(PHI, PHI)] * 2
    fixed = (PHI, PSI_M, PSI_M, PHI)
    config = SessionConfig(n_groups=2, pair_states=FixedList(fixed))
    assert declared_pairs(config) == [(PHI, PSI_M), (PSI_M, PHI)]
    a = declared_pairs(SessionConfig(n_groups=8, pair_states=RandomKnown(seed=5)))
    b = declared_pairs(SessionConfig(n_groups=8, pair_states=RandomKnown(seed=5)))
    c = declared_pairs(SessionConfig(n_groups=8, pair_states=RandomKnown(seed=6)))
    assert a == b
    assert a != c
    assert len(a) == 8 and {s for pair in a for s in pair} <= set(BELL_ORDER)


def test_honest_session_accepts_with_equal_keys():
    config = SessionConfig(n_groups=6, check_fraction=0.5, seed=40)
    report = run_session(config)
    assert report.verdict == "accept"
    assert report.keys_equal and report.alice_key == report.bob_key
    assert len(report.alice_key) == 4 * (6 - config.k_checked)
    assert report.mismatched_groups == ()
    assert report.eve is None
    # every fragment pair agrees, and inference reproduced the real outcomes
    for g in report.groups:
        assert g.alice_fragment == g.bob_fragment
        assert swap_partner(g.pair_a_state, g.pair_b_state, g.bob_outcome) is g.alice_outcome
        assert swap_partner(g.pair_a_state, g.pair_b_state, g.alice_outcome) is g.bob_outcome


def test_mixed_declared_states_still_agree():
    for trial in range(50):
        config = SessionConfig(
            n_groups=5, pair_states=RandomKnown(seed=trial), check_fraction=0.4, seed=trial
        )
        report = run_session(config)
        assert report.verdict == "accept"
        assert report.alice_key == report.bob_key
        assert len(report.alice_key) == 4 * (5 - 2)


def test_transcript_structure():
    report = run_session(SessionConfig(n_groups=4, seed=1))
    kinds = [m.kind for m in report.transcript]
    assert kinds == ["measured", "check_request", "verdict"]
    measured, request, verdict = (m.to_json_dict() for m in report.transcript)
    # the announcement leaks no outcomes: group count is its whole payload
    assert measured == {"kind": "measured", "sender": "alice", "payload": {"n_groups": 4}}
    assert request["sender"] == "bob"
    indices = request["payload"]["indices"]
    assert indices == sorted(indices) and len(set(indices)) == len(indices)
    assert len(indices) == SessionConfig(n_groups=4, seed=1).k_checked
    assert all(len(bits) == 4 for bits in request["payload"]["fragments"])
    assert verdict["payload"] == {"accept": True, "mismatched_groups": []}


def test_checked_groups_marked_and_excluded():
    report = run_session(SessionConfig(n_groups=8, check_fraction=0.25, seed=3))
    checked = [g.group_index for g in report.groups if g.checked]
    request = report.transcript[1]
    assert tuple(checked) == request.indices
    assert len(checked) == 2
    kept = [g for g in report.groups if not g.checked]
    assert report.alice_key == "".join(g.alice_fragment for g in kept)
    assert report.bob_key == "".join(g.bob_fragment for g in kept)


def test_same_seed_reproduces_everything():
    config = SessionConfig(n_groups=6, seed=77)
    a = run_session(config, make_strategy("type1"))
    b = run_session(config, make_strategy("type1"))
    assert a.to_json_dict() == b.to_json_dict()
    c = run_session(SessionConfig(n_groups=6, seed=78), make_strategy("type1"))
    assert a.to_json_dict() != c.to_json_dict()


def test_adversary_presence_leaves_honest_stream_alone():
    base = run_session(SessionConfig(n_groups=6, seed=13))
    shadowed = run_session(SessionConfig(n_groups=6, seed=13), make_strategy("type1"))
    for g0, g1 in zip(base.groups, shadowed.groups):
        assert g0.alice_outcome is g1.alice_outcome
        assert g0.bob_outcome is g1.bob_outcome
    assert base.alice_key == shadowed.alice_key


def test_replacer_abort_path():
    # with 8 fully checked groups the accept probability is 4^-8
    config = SessionConfig(n_groups=8, check_fraction=1.0, seed=0)
    report = run_session(config, make_strategy("type3"))
    assert report.verdict == "abort"
    assert report.alice_key == "" and report.bob_key == ""
    assert report.keys_equal
    assert len(report.mismatched_groups) > 0
    assert report.eve is not None and report.eve.guessed_key == ""


def test_report_json_schema():
    report = run_session(SessionConfig(n_groups=2, seed=5), make_strategy("type1"))
    payload = report.to_json_dict()
    assert set(payload) == {
        "config",
        "verdict",
        "alice_key",
        "bob_key",
        "keys_equal",
        "mismatched_groups",
        "groups",
        "transcript",
        "eve",
    }
    assert payload["config"] == {
        "n_groups": 2,
        "check_fraction": 0.5,
        "seed": 5,
        "pair_states": "phi+",
        "adversary": "type1",
    }
    assert set(payload["groups"][0]) == {
        "group_index",
        "pair_a_state",
        "pair_b_state",
        "alice_outcome",
        "bob_outcome",
        "alice_fragment",
        "bob_fragment",
        "checked",
    }
    assert payload["eve"] is not None


def test_pair_state_policy_descriptions():
    assert AllPhiPlus().describe() == "phi+"
    assert RandomKnown(seed=4).describe() == "random:4"
    assert FixedList((PHI, PSI_M)).describe() == "phi+,psi-"


def test_custom_seed_sequence_wins_over_config_seed():
    config = SessionConfig(n_groups=4, seed=0)
    a = run_session(config, seed_seq=np.random.SeedSequence(123))
    b = run_session(config, seed_seq=np.random.SeedSequence(123))
    c = run_session(config)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.to_json_dict() != c.to_json_dict()


def test_a_seed_sequence_is_not_advanced_by_a_session():
    # spawning from the caller's sequence once moved it on: a second session drew children (2,), (3,)
    seed_seq = np.random.SeedSequence(123, spawn_key=(4,))
    config = SessionConfig(n_groups=6, seed=0)
    for kind in ("none", "type3"):
        first = run_session(config, make_strategy(kind), seed_seq)
        second = run_session(config, make_strategy(kind), seed_seq)
        assert first.to_json_dict() == second.to_json_dict()
    assert seed_seq.n_children_spawned == 0


def test_the_config_seed_roots_the_streams_as_its_seed_sequence_does():
    config = SessionConfig(n_groups=6, seed=41)
    for kind in ("none", "type2"):
        given = run_session(config, make_strategy(kind), np.random.SeedSequence(41))
        assert run_session(config, make_strategy(kind)).to_json_dict() == given.to_json_dict()


def test_seed_seq_must_be_a_seed_sequence(monkeypatch):
    monkeypatch.setattr("entswap.protocol.declared_pairs", _no_work)
    for bad in (123, np.random.default_rng(123), "123"):
        with pytest.raises(TypeError, match="seed_seq must be a SeedSequence, not"):
            run_session(SessionConfig(n_groups=2), seed_seq=bad)


def test_only_a_layout_where_eve_measures_builds_her_stream(monkeypatch):
    built = []
    child_rng = protocol._child_rng

    def record(*args):
        built.append(args[-1])
        return child_rng(*args)

    monkeypatch.setattr(protocol, "_child_rng", record)
    for kind in ("none", "type1", "type2", "type3"):
        built.clear()
        run_session(SessionConfig(n_groups=2), make_strategy(kind))
        assert built == ([0] if kind == "none" else [0, 1]), kind


def test_fragment_table_is_the_swap_rule_and_codebook():
    for a, b, o in itertools.product(BELL_ORDER, repeat=3):
        as_alice, as_bob = FRAGMENTS[a ^ b][o]
        # o as Alice's outcome, then as Bob's: Alice's outcome is encoded first
        assert as_alice == group_key_fragment(o, swap_partner(a, b, o))
        assert as_bob == group_key_fragment(swap_partner(a, b, o), o)


def test_every_record_shares_the_tables_fragment_strings():
    # one string per distinct fragment: a report holds at most 32 fragment objects
    report = run_session(SessionConfig(n_groups=400, pair_states=RandomKnown(seed=3)))
    assert {g.pair_a_state ^ g.pair_b_state for g in report.groups} == set(range(4))
    for g in report.groups:
        fragments = FRAGMENTS[g.pair_a_state ^ g.pair_b_state]
        assert g.alice_fragment is fragments[g.alice_outcome][0]
        assert g.bob_fragment is fragments[g.bob_outcome][1]
    assert len({id(f) for g in report.groups for f in (g.alice_fragment, g.bob_fragment)}) <= 32
