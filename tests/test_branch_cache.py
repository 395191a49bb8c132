"""The per-state Bell-measurement cache: exact, bounded and invisible.

Every ``StateVector`` memoizes the branches of the pairs measured on it.
These tests check the memoized ``measure_bell``/``project_bell`` bit for
bit against an uncached reference computed here from the amplitudes, that
the swap rule still matches the oracle, that the cache under the layout
roots stops growing however many sessions run, and that it never shows in
equality, ``repr`` or the JSON dump.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entswap.adversary import LAYOUTS, STRATEGY_KINDS, make_strategy
from entswap.bell import BELL_ORDER, BellIndex, swap_partner
from entswap.protocol import AllPhiPlus, RandomKnown, SessionConfig, run_session
from entswap.statevector import (
    MIN_FORCED_PROB,
    StateVector,
    identify_bell,
    make_bell,
    measure_bell,
    project_bell,
)
from entswap.stats import monte_carlo

PHI = BellIndex.PHI_PLUS

# Rows in canonical order, over the pair basis |00>, |01>, |10>, |11>.
BELL_ROWS = np.array([make_bell(b, "x", "y").amplitudes for b in BELL_ORDER])

# The honest parties' two ways to take one qubit from each pair.
SPLITS = ((("1", "3"), ("2", "4")), (("2", "3"), ("1", "4")))

bell_states = st.sampled_from(BELL_ORDER)
seeds = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=40, deadline=None, database=None)


def reference(sv: StateVector, qi: str, qj: str, u: float | None = None, k: int | None = None):
    """Uncached Bell measurement: (outcome ordinal, probabilities, collapsed amplitudes).

    Draws by inverse CDF from ``u`` unless the branch ``k`` is given.
    """
    n = sv.num_qubits
    pi, pj = sv.labels.index(qi), sv.labels.index(qj)
    t = np.moveaxis(sv.amplitudes.reshape((2,) * n), (pi, pj), (0, 1)).reshape(4, -1)
    comps = BELL_ROWS.conj() @ t
    probs = (np.abs(comps) ** 2).sum(axis=1)
    if k is None:
        last = int(np.max(np.nonzero(probs > 0.0)[0]))
        k = int(min(np.searchsorted(np.cumsum(probs), u, side="right"), last))
    block = np.outer(BELL_ROWS[k], comps[k] / math.sqrt(float(probs[k])))
    collapsed = np.moveaxis(block.reshape((2, 2) + (2,) * (n - 2)), (0, 1), (pi, pj))
    return k, tuple(float(p) for p in probs), collapsed.ravel()


def fresh_copy(sv: StateVector) -> StateVector:
    return StateVector(sv.amplitudes.copy(), sv.labels)


def assert_matches_reference(sv: StateVector, qi: str, qj: str, seed: int) -> StateVector:
    """Memoized draw on ``sv``, twice, against the reference on a fresh copy."""
    k, probs, amps = reference(fresh_copy(sv), qi, qj, u=np.random.default_rng(seed).random())
    first = measure_bell(sv, qi, qj, np.random.default_rng(seed))
    cold = measure_bell(fresh_copy(sv), qi, qj, np.random.default_rng(seed))
    warm = measure_bell(sv, qi, qj, np.random.default_rng(seed))
    for record, child in (first, cold, warm):
        assert record.outcome is BELL_ORDER[k]
        assert (record.qubit_i, record.qubit_j) == (qi, qj)
        assert record.probabilities == probs
        assert child.labels == sv.labels
        assert np.array_equal(child.amplitudes, amps)
    for outcome in BELL_ORDER:
        if probs[outcome.ordinal] < MIN_FORCED_PROB:
            continue
        _, _, branch_amps = reference(fresh_copy(sv), qi, qj, k=outcome.ordinal)
        for _ in range(2):  # cold, then warm
            prob, child = project_bell(sv, qi, qj, outcome)
            assert prob == probs[outcome.ordinal]
            assert np.array_equal(child.amplitudes, branch_amps)
    return first[1]


@PROPERTY
@given(kind=st.sampled_from(STRATEGY_KINDS), a=bell_states, b=bell_states, seed=seeds)
def test_memoized_session_walk_is_bitwise_the_uncached_one(kind, a, b, seed):
    layout = LAYOUTS[kind]
    if layout.phi_only:
        a = b = PHI
    systems = dict(layout.declared_systems(a, b))
    for step, (_, (name, (qi, qj))) in enumerate(layout.session_order()):
        systems[name] = assert_matches_reference(systems[name], qi, qj, seed + step)


@PROPERTY
@given(
    kind=st.sampled_from(("none", "type1")),
    split=st.sampled_from(SPLITS),
    reverse=st.booleans(),
    a=bell_states,
    b=bell_states,
    seed=seeds,
)
def test_memoized_splits_are_bitwise_the_uncached_ones(kind, split, reverse, a, b, seed):
    # (j, i) is a different measurement from (i, j): psi- is antisymmetric
    sv = LAYOUTS[kind].declared_systems(a, b)["main"]
    (ai, aj), (bi, bj) = (pair[::-1] for pair in split) if reverse else split
    child = assert_matches_reference(sv, ai, aj, seed)
    assert_matches_reference(child, bi, bj, seed + 1)


@PROPERTY
@given(split=st.sampled_from(SPLITS), a=bell_states, b=bell_states, seed=seeds)
def test_swap_rule_matches_the_oracle(split, a, b, seed):
    measured, remote = split
    sv = LAYOUTS["none"].declared_systems(a, b)["main"]
    record, collapsed = measure_bell(sv, *measured, np.random.default_rng(seed))
    assert identify_bell(collapsed, *remote) is swap_partner(a, b, record.outcome)
    for m in BELL_ORDER:
        _, collapsed = project_bell(sv, *measured, m)
        assert identify_bell(collapsed, *remote) is swap_partner(a, b, m)


# Cached states per declared pair once every branch a session can take was
# drawn: the root, its four first-measurement branches, then one branch per
# further measurement on a system, except where the entangler's Bob
# outcome is still split two ways given Alice's (1 + 4 + 8 + 8).
#   none:  main 1 + 4 + 4
#   type1: main 1 + 4 + 4, Eve's private pairs 1 + 4
#   type2: main 1 + 4 + 8 + 8
#   type3: alice_side 1 + 4 + 4, bob_side 1 + 4 + 4
NODES_PER_ROOT = {"none": 9, "type1": 14, "type2": 21, "type3": 18}


def declared_pairs(kind):
    if LAYOUTS[kind].phi_only:
        return [(PHI, PHI)]
    return [(a, b) for a in BELL_ORDER for b in BELL_ORDER]


def roots(kind):
    return [
        sv for a, b in declared_pairs(kind) for sv in LAYOUTS[kind].declared_systems(a, b).values()
    ]


def cached_nodes(sv: StateVector) -> int:
    return 1 + sum(
        cached_nodes(drawn[1])
        for branches in sv._branches.values()
        for drawn in branches.drawn
        if drawn is not None
    )


def clear_caches(kind):
    # other tests may have measured these shared roots; count from empty
    for sv in roots(kind):
        sv._branches.clear()


def test_cache_under_honest_roots_is_bounded_by_the_branch_tree():
    clear_caches("none")
    bound = NODES_PER_ROOT["none"] * len(declared_pairs("none"))
    counts = []
    for start in (0, 1000):
        for seed in range(start, start + 1000):
            config = SessionConfig(
                n_groups=16, pair_states=RandomKnown(seed=seed ^ 0x5A5A5A5A), seed=seed
            )
            assert run_session(config, make_strategy("none")).verdict == "accept"
        counts.append(sum(cached_nodes(sv) for sv in roots("none")))
    # 16 000 groups a batch reach every branch; the second batch adds nothing
    assert counts == [bound, bound]


def test_cache_under_adversary_roots_is_bounded_by_the_branch_tree():
    for kind in ("type1", "type2", "type3"):
        clear_caches(kind)
        pairs = RandomKnown(seed=3) if kind == "type1" else AllPhiPlus()
        bound = NODES_PER_ROOT[kind] * len(declared_pairs(kind))
        counts = []
        for trials in (200, 400):
            config = SessionConfig(n_groups=8, pair_states=pairs)
            monte_carlo(config, kind=kind, trials=trials, seed=trials, backend="statevector")
            counts.append(sum(cached_nodes(sv) for sv in roots(kind)))
        assert counts[0] == counts[1] <= bound, f"{kind}: cached states {counts}, bound {bound}"


def test_filled_cache_is_invisible():
    sv = LAYOUTS["type2"].declared_systems(PHI, PHI)["main"]
    empty = dataclasses.replace(sv)  # shares the amplitudes, starts with no cache
    measure_bell(sv, "1", "3", np.random.default_rng(0))
    project_bell(sv, "1", "3", BellIndex.PSI_MINUS)
    assert sv._branches and not empty._branches
    assert sv == empty
    assert repr(sv) == repr(empty)
    assert sv.to_json_dict() == empty.to_json_dict()
    assert [f.name for f in dataclasses.fields(sv) if f.compare] == ["amplitudes", "labels"]
