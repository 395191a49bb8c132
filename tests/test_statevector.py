"""Dense statevector oracle: construction, projection, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entswap.adversary import LAYOUTS, STRATEGY_KINDS
from entswap.bell import BELL_ORDER, BellIndex, swap_partner
from entswap.statevector import (
    MAX_QUBITS,
    MIN_FORCED_PROB,
    StateVector,
    identify_bell,
    live_outcomes,
    make_bell,
    make_ghz3,
    measure_bell,
    outcome_distribution,
    project_bell,
    sample_outcome_ordinals,
    tensor,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_bell_state_amplitudes():
    # basis index is MSB-first in label order, so |01> sits at index 1
    cases = {
        BellIndex.PHI_PLUS: {0: INV_SQRT2, 3: INV_SQRT2},
        BellIndex.PHI_MINUS: {0: INV_SQRT2, 3: -INV_SQRT2},
        BellIndex.PSI_PLUS: {1: INV_SQRT2, 2: INV_SQRT2},
        BellIndex.PSI_MINUS: {1: INV_SQRT2, 2: -INV_SQRT2},
    }
    for state, nonzero in cases.items():
        sv = make_bell(state, "a", "b")
        assert sv.labels == ("a", "b")
        for idx in range(4):
            expected = nonzero.get(idx, 0.0)
            assert sv.amplitudes[idx] == pytest.approx(expected, abs=1e-12)


def test_ghz3_amplitudes():
    sv = make_ghz3("x", "y", "z")
    assert sv.num_qubits == 3
    assert sv.amplitudes[0] == pytest.approx(INV_SQRT2)
    assert sv.amplitudes[7] == pytest.approx(INV_SQRT2)
    assert np.allclose(sv.amplitudes[1:7], 0.0)


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0]), ("a", "b"))  # wrong length
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0, 0.0, 0.0]), ("a", "b"))  # not normalized
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0, 0.0]), ("a", "a"))  # duplicate labels
    with pytest.raises(ValueError):
        StateVector(np.eye(1, 2**13)[0], tuple(f"q{i}" for i in range(13)))  # too many qubits


@pytest.mark.parametrize("amps", [[np.nan, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, np.nan], [np.nan] * 4])
def test_nan_amplitudes_are_not_a_unit_norm_state(amps):
    with pytest.raises(ValueError, match="state norm nan is not 1"):
        StateVector(np.array(amps), ("a", "b"))


def test_amplitudes_are_read_only():
    sv = make_bell(BellIndex.PHI_PLUS, "a", "b")
    with pytest.raises(ValueError):
        sv.amplitudes[0] = 1.0


def test_distinct_equal_states_compare_equal():
    a = make_bell(BellIndex.PHI_PLUS, "a", "b")
    assert a == make_bell(BellIndex.PHI_PLUS, "a", "b")
    assert a != make_bell(BellIndex.PHI_MINUS, "a", "b")
    assert a != make_bell(BellIndex.PHI_PLUS, "a", "c")
    assert a != a.amplitudes.tolist()


def test_state_owns_its_amplitudes():
    base = np.array([INV_SQRT2, 0.0, 0.0, INV_SQRT2], dtype=complex)
    sv = StateVector(base[:], ("a", "b"))
    probs = outcome_distribution(sv, "a", "b")
    drawn = measure_bell(sv, "a", "b", np.random.default_rng(0))
    base[:] = [0.0, 1.0, 0.0, 0.0]
    np.testing.assert_array_equal(sv.amplitudes, [INV_SQRT2, 0.0, 0.0, INV_SQRT2])
    # the memoized branches still describe the state's own amplitudes
    fresh = StateVector(sv.amplitudes, sv.labels)
    np.testing.assert_array_equal(outcome_distribution(sv, "a", "b"), probs)
    np.testing.assert_array_equal(outcome_distribution(fresh, "a", "b"), probs)
    assert measure_bell(sv, "a", "b", np.random.default_rng(0)) == drawn
    assert measure_bell(fresh, "a", "b", np.random.default_rng(0)) == drawn


def test_tensor_rejects_label_collisions():
    a = make_bell(BellIndex.PHI_PLUS, "1", "2")
    b = make_bell(BellIndex.PHI_PLUS, "2", "3")
    with pytest.raises(ValueError):
        tensor(a, b)


def test_tensor_stops_at_the_qubit_bound():
    def ghz_pair(prefix):
        return tensor(make_ghz3(*(prefix + c for c in "abc")), make_ghz3(*(prefix + c for c in "def")))

    full = tensor(ghz_pair("x"), ghz_pair("y"))
    assert full.num_qubits == MAX_QUBITS
    with pytest.raises(ValueError, match=f"exceed {MAX_QUBITS} qubits"):
        tensor(full, make_bell(BellIndex.PHI_PLUS, "1", "2"))


def test_measuring_a_qubit_with_itself_is_refused():
    sv = make_bell(BellIndex.PHI_PLUS, "a", "b")
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="two distinct qubits"):
        measure_bell(sv, "a", "a", rng)
    # refused before the draw: the stream is untouched
    assert rng.random() == np.random.default_rng(3).random()


def test_tensor_and_position():
    sv = tensor(make_bell(BellIndex.PHI_PLUS, "1", "2"), make_bell(BellIndex.PSI_MINUS, "3", "4"))
    assert sv.labels == ("1", "2", "3", "4")
    assert sv.num_qubits == 4
    assert sv.position("3") == 2
    with pytest.raises(ValueError):
        sv.position("nope")
    # amplitude of |0101>: phi+ contributes 1/sqrt2 on |01>? no: phi+ has no
    # |01> component, so this index must vanish
    assert sv.amplitudes[0b0101] == pytest.approx(0.0, abs=1e-12)
    # |0001>: phi+ |00> times psi- |01> = 1/2
    assert sv.amplitudes[0b0001] == pytest.approx(0.5, abs=1e-12)


def test_outcome_distribution_uniform_on_bell_products():
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            sv = tensor(make_bell(a, "1", "2"), make_bell(b, "3", "4"))
            probs = outcome_distribution(sv, "1", "3")
            assert np.allclose(probs, 0.25, atol=1e-12)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_project_bell_collapses_remote_pair():
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            sv = tensor(make_bell(a, "1", "2"), make_bell(b, "3", "4"))
            for m in BELL_ORDER:
                prob, collapsed = project_bell(sv, "1", "3", m)
                assert prob == pytest.approx(0.25, abs=1e-12)
                assert identify_bell(collapsed, "2", "4") is swap_partner(a, b, m)
                # measured pair is now exactly in the forced state
                assert identify_bell(collapsed, "1", "3") is m


def test_project_bell_rejects_impossible_outcome():
    sv = StateVector(np.array([1.0, 0.0, 0.0, 0.0]), ("a", "b"))
    with pytest.raises(ValueError):
        project_bell(sv, "a", "b", BellIndex.PSI_PLUS)


def test_identify_bell_needs_near_certainty():
    assert identify_bell(make_bell(BellIndex.PSI_MINUS, "a", "b"), "a", "b") is BellIndex.PSI_MINUS
    # |00> splits 1/2 + 1/2 over phi+/phi-: no single outcome dominates
    assert identify_bell(StateVector(np.array([1.0, 0.0, 0.0, 0.0]), ("a", "b")), "a", "b") is None


def test_measure_bell_is_reproducible_and_consistent():
    sv = tensor(make_bell(BellIndex.PHI_PLUS, "1", "2"), make_bell(BellIndex.PSI_MINUS, "3", "4"))
    outcome1, post1 = measure_bell(sv, "1", "3", np.random.default_rng(42))
    outcome2, post2 = measure_bell(sv, "1", "3", np.random.default_rng(42))
    assert outcome1 is outcome2
    assert np.array_equal(post1.amplitudes, post2.amplitudes)
    assert outcome_distribution(sv, "1", "3") == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)
    # post state is normalized and identifies as the recorded outcome
    assert np.linalg.norm(post1.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert identify_bell(post1, "1", "3") is outcome1


def test_zero_probability_outcomes_never_sampled():
    # |00> has no psi component: ordinals 2 and 3 must never appear
    sv = StateVector(np.array([1.0, 0.0, 0.0, 0.0]), ("a", "b"))
    draws = sample_outcome_ordinals(sv, "a", "b", np.random.default_rng(7), 4000)
    assert set(np.unique(draws)) <= {0, 1}
    counts = np.bincount(draws, minlength=4)
    assert counts[2] == 0 and counts[3] == 0
    # the two live branches both occur
    assert counts[0] > 0 and counts[1] > 0


class _FixedDraw:
    """A generator stub whose every draw is one given double in [0, 1)."""

    def __init__(self, value: float):
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


@pytest.mark.parametrize(
    "declared, draw",
    [
        # the cumulative sum tops out at 0.9999999999999996, below the largest draw
        (BellIndex.PHI_PLUS, 1.0 - 2.0**-53),
        # phi+ leads with an interval of rounding noise that only a zero draw hits
        (BellIndex.PHI_MINUS, 0.0),
    ],
    ids=str,
)
def test_draws_never_take_a_branch_of_rounding_noise(declared, draw):
    # the noise branch holds 1e-33: no table keeps it and project_bell refuses it
    sv = tensor(make_bell(declared, "1", "2"), make_bell(BellIndex.PHI_PLUS, "3", "4"))
    probs = outcome_distribution(sv, "1", "2")
    assert 0.0 < probs[declared ^ 1] < 1e-30
    assert live_outcomes(sv, "1", "2") == (declared,)
    assert draw == 0.0 or np.cumsum(probs)[-1] < draw
    outcome, post = measure_bell(sv, "1", "2", _FixedDraw(draw))
    assert outcome is declared
    assert identify_bell(post, "1", "2") is declared
    assert sample_outcome_ordinals(sv, "1", "2", _FixedDraw(draw), 3).tolist() == [declared] * 3


def session_measurements(kind: str, a: BellIndex, b: BellIndex) -> list[tuple[StateVector, str, str]]:
    """Every (state, qubit, qubit) a session of this kind measures, on every live branch."""
    layout = LAYOUTS[kind]
    frontier = [layout.declared_systems(a, b)]
    found = []
    for _, (name, (qi, qj)) in layout.session_order():
        found += [(systems[name], qi, qj) for systems in frontier]
        frontier = [
            {**systems, name: project_bell(systems[name], qi, qj, m)[1]}
            for systems in frontier
            for m in BELL_ORDER
            if outcome_distribution(systems[name], qi, qj)[m] >= MIN_FORCED_PROB
        ]
    return found


def _conditions_on(sv: StateVector, qi: str, qj: str, outcome: BellIndex) -> bool:
    try:
        project_bell(sv, qi, qj, outcome)
    except ValueError:
        return False
    return True


@settings(max_examples=40, deadline=None, database=None)
@given(
    kind=st.sampled_from(STRATEGY_KINDS),
    a=st.sampled_from(BELL_ORDER),
    b=st.sampled_from(BELL_ORDER),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 64),
)
def test_scalar_and_vector_samplers_agree_draw_for_draw(kind, a, b, seed, size):
    if LAYOUTS[kind].phi_only:
        a = b = BellIndex.PHI_PLUS
    for sv, qi, qj in session_measurements(kind, a, b):
        assert live_outcomes(sv, qi, qj) == tuple(m for m in BELL_ORDER if _conditions_on(sv, qi, qj, m))
        rng = np.random.default_rng(seed)
        scalar = [measure_bell(sv, qi, qj, rng)[0] for _ in range(size)]
        assert sample_outcome_ordinals(sv, qi, qj, np.random.default_rng(seed), size).tolist() == scalar
        # the extreme draws fall in the first and the last live branch alike
        for u in (0.0, 1.0 - 2.0**-53):
            vector = sample_outcome_ordinals(sv, qi, qj, _FixedDraw(u), 1).tolist()
            assert vector == [measure_bell(sv, qi, qj, _FixedDraw(u))[0]]


def test_sampling_tracks_distribution():
    sv = tensor(make_bell(BellIndex.PHI_PLUS, "1", "2"), make_bell(BellIndex.PHI_PLUS, "3", "4"))
    draws = sample_outcome_ordinals(sv, "1", "3", np.random.default_rng(123), 40000)
    counts = np.bincount(draws, minlength=4)
    # 5 sigma band around 10000 for p = 1/4
    sigma = math.sqrt(40000 * 0.25 * 0.75)
    assert all(abs(c - 10000) < 5 * sigma for c in counts)


def test_sequential_measurements_stay_consistent():
    # measuring (1,3) then (2,4) of a bell product gives the partner pair
    rng = np.random.default_rng(99)
    for _ in range(25):
        sv = tensor(make_bell(BellIndex.PHI_PLUS, "1", "2"), make_bell(BellIndex.PSI_PLUS, "3", "4"))
        outcome_a, post = measure_bell(sv, "1", "3", rng)
        outcome_b, _ = measure_bell(post, "2", "4", rng)
        assert outcome_b is swap_partner(BellIndex.PHI_PLUS, BellIndex.PSI_PLUS, outcome_a)
        assert outcome_distribution(post, "2", "4")[outcome_b.ordinal] == pytest.approx(1.0, abs=1e-9)


def test_alternate_split_matches_rule():
    # measuring qubits (2,3) leaves (1,4) in the same xor partner
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            sv = tensor(make_bell(a, "1", "2"), make_bell(b, "3", "4"))
            for m in BELL_ORDER:
                _, collapsed = project_bell(sv, "2", "3", m)
                assert identify_bell(collapsed, "1", "4") is swap_partner(a, b, m)


