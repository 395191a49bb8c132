"""Per-attack layouts and the joint outcome tables built from them."""

import dataclasses
from functools import reduce

import numpy as np
import pytest

from entswap import stats
from entswap.adversary import LAYOUTS, STRATEGY_KINDS, Layout, make_strategy
from entswap.bell import BELL_ORDER, BellIndex, swap_partner
from entswap.statevector import (
    MIN_FORCED_PROB,
    live_outcomes,
    make_bell,
    make_ghz3,
    outcome_distribution,
    project_bell,
    tensor,
)
from entswap.stats import class_table, joint_table, per_check_mismatch, per_group_eve_success

PHI = BellIndex.PHI_PLUS

# reachable (alice, bob, *eve) cells per kind
NONZERO_CELLS = {"none": 4, "type1": 16, "type2": 8, "type3": 16}


def test_layouts_drive_the_strategy_kinds():
    assert STRATEGY_KINDS == tuple(LAYOUTS)
    for kind, layout in LAYOUTS.items():
        assert make_strategy(kind).kind == layout.kind == kind


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_joint_table_is_a_distribution_with_uniform_alice(kind):
    table = joint_table(kind)
    layout = LAYOUTS[kind]
    assert len(table) == NONZERO_CELLS[kind]
    assert all(len(key) == 2 + len(layout.eve) for key in table)
    assert all(p > 0.0 for p in table.values())
    assert abs(sum(table.values()) - 1.0) <= 1e-12
    for a in BELL_ORDER:
        alice = sum(p for key, p in table.items() if key[0] is a)
        assert abs(alice - 0.25) <= 1e-12


@pytest.mark.parametrize("kind", ["none", "type1"])
def test_untouched_channels_never_mismatch(kind):
    assert all(b is swap_partner(PHI, PHI, a) for a, b, *_ in joint_table(kind))
    assert per_check_mismatch(kind) == 0.0


def reference_classes(kind, a, b):
    """(mismatch, eve_ok) -> p(alice) cells, walked cell by cell over the joint table.

    Each cell's fragments mismatch when Bob's outcome is not the swap partner
    of Alice's; Eve's guess is averaged over her equally likely guesses.
    """
    layout = LAYOUTS[kind]
    classes = {}
    for (alice, bob, *eve), p in joint_table(kind, a, b).items():
        guesses = layout.guess(tuple(eve)) if layout.guess is not None else (None,)
        for guess in guesses:
            guessed = layout.guess is None or guess is alice
            label = (bob is not swap_partner(a, b, alice), guessed)
            cells = classes.setdefault(label, [0.0] * 4)
            cells[alice.ordinal] += p / len(guesses)
    return classes


SUPPORTED_PAIRS = [
    (kind, a, b)
    for kind, layout in LAYOUTS.items()
    for a in BELL_ORDER
    for b in BELL_ORDER
    if not layout.phi_only or a is b is PHI
]


def _constructed_systems(kind, a, b):
    """Each kind's systems for declared pairs (a, b), built state by state."""

    def pairs(x, y, prime=""):
        return tensor(make_bell(x, "1" + prime, "2" + prime), make_bell(y, "3" + prime, "4" + prime))

    if kind == "none":
        return {"main": pairs(a, b)}
    if kind == "type1":
        return {"main": pairs(a, b), "eve": pairs(PHI, PHI, "p")}
    if kind == "type2":
        return {"main": tensor(make_ghz3("1", "2", "5"), make_ghz3("3", "4", "6"))}
    return {"alice_side": pairs(PHI, PHI), "bob_side": pairs(PHI, PHI, "p")}


@pytest.mark.parametrize("kind, a, b", SUPPORTED_PAIRS, ids=str)
def test_prepared_systems_are_the_constructed_states_bit_for_bit(kind, a, b):
    systems = LAYOUTS[kind].declared_systems(a, b)
    expected = _constructed_systems(kind, a, b)
    assert list(systems) == list(expected)
    for name, sv in systems.items():
        assert sv.labels == expected[name].labels, name
        assert sv.amplitudes.dtype == expected[name].amplitudes.dtype, name
        assert np.array_equal(sv.amplitudes, expected[name].amplitudes), name


def test_phi_only_is_derived_from_the_systems():
    assert {kind: layout.phi_only for kind, layout in LAYOUTS.items()} == {
        "none": False,
        "type1": False,
        "type2": True,
        "type3": True,
    }
    # a layout that places a declared pair accepts any, whatever kind it came from
    assert not dataclasses.replace(LAYOUTS["type2"], systems=LAYOUTS["none"].systems).phi_only
    with pytest.raises(TypeError):
        Layout("x", systems={}, alice=("main", ("1", "3")), bob=("main", ("2", "4")), phi_only=True)


@pytest.mark.parametrize(
    "field, changes",
    [
        ("order", {"order": ("alice", "bob", "eve", "eve")}),
        ("order", {"order": ("alice", "bob")}),
        ("order", {"order": ("alice",)}),
        ("guess", {"guess": None}),
        ("guess", {"eve": (), "order": ("alice", "bob")}),
        ("alice", {"alice": ("side", ("1", "3"))}),
        ("eve", {"eve": (("eve", ("1p", "3p")), ("side", ("2", "4")))}),
    ],
)
def test_an_inconsistent_layout_is_refused_when_built(field, changes):
    with pytest.raises(ValueError, match=f"type1: {field} "):
        dataclasses.replace(LAYOUTS["type1"], **changes)


def _reference_joint_table(kind, a, b):
    """The recursive walker joint_table had before it walked live_outcomes.

    It restates the live-branch threshold and recurses depth first; the
    table it builds is the reference for keys, key order and value bits.
    """
    layout = make_strategy(kind)
    order = layout.session_order()
    table = {}

    def walk(systems, step, outcomes, prob):
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
    return table


def test_joint_table_is_the_recursive_walk_bit_for_bit(monkeypatch):
    assert len(SUPPORTED_PAIRS) == 34
    references = {case: _reference_joint_table(*case) for case in SUPPORTED_PAIRS}
    for case, reference in references.items():
        table = joint_table(*case)
        assert list(table) == list(reference), case
        # == on floats: the same products in the same order, not merely close ones
        assert list(table.values()) == list(reference.values()), case
    # so the class tables the batches draw from are the same arrays too
    expected = {case: class_table(*case) for case in SUPPORTED_PAIRS}
    monkeypatch.setattr(stats, "joint_table", lambda layout, a, b: references[layout.kind, a, b])
    for case, want in expected.items():
        kind, a, b = case
        got = class_table.__wrapped__(make_strategy(kind), a, b)
        for name in ("mismatch", "eve_ok", "probs", "alice"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (case, name)


@pytest.mark.parametrize("kind, a, b", SUPPORTED_PAIRS, ids=str)
def test_class_table_masses_match_the_cell_walk(kind, a, b):
    reference = reference_classes(kind, a, b)
    table = class_table(kind, a, b)
    labels = list(zip(table.mismatch.tolist(), table.eve_ok.tolist()))
    assert sorted(labels) == sorted(reference)
    for label, prob, alice in zip(labels, table.probs, table.alice):
        cells = reference[label]
        assert abs(prob - sum(cells)) <= 1e-12
        assert all(abs(x - c / sum(cells)) <= 1e-12 for x, c in zip(alice, cells))


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_analytic_rates_match_the_cell_walk(kind):
    reference = reference_classes(kind, PHI, PHI)
    mismatch = sum(sum(cells) for (m, _), cells in reference.items() if m)
    guessed = sum(sum(cells) for (_, ok), cells in reference.items() if ok)
    assert abs(per_check_mismatch(kind) - mismatch) <= 1e-12
    if LAYOUTS[kind].guess is None:
        assert per_group_eve_success(kind) is None
    else:
        assert abs(per_group_eve_success(kind) - guessed) <= 1e-12


# each attack's order with Eve moved to the other side of Bob
EVE_ELSEWHERE = {
    "type1": ("alice", "eve", "bob"),
    "type2": ("alice", "eve", "bob"),
    "type3": ("alice", "bob", "eve"),
}


@pytest.mark.parametrize("kind", sorted(EVE_ELSEWHERE))
def test_eve_position_leaves_the_joint_table_alone(kind):
    # Eve and Bob measure disjoint qubits, so their order cannot change the law
    expected = joint_table(kind)
    layout = LAYOUTS[kind]
    assert layout.order != EVE_ELSEWHERE[kind]
    moved = joint_table(dataclasses.replace(layout, order=EVE_ELSEWHERE[kind]))
    assert set(moved) == set(expected)
    assert all(abs(moved[cell] - p) <= 1e-12 for cell, p in expected.items())


def _fresh_tables(kind, a, b):
    # a copy of the kind's layout is a key no table has been cached under
    layout = dataclasses.replace(make_strategy(kind))
    return dict(joint_table(layout, a, b)), class_table(layout, a, b)


@pytest.mark.parametrize(
    "kind, a, b", [("none", PHI, PHI), ("none", BELL_ORDER[1], BELL_ORDER[2]), ("type2", PHI, PHI)]
)
def test_tables_take_a_declared_state_by_its_ordinal(kind, a, b):
    # an ordinal and its member are one cache key, so whichever comes first must not matter
    by_ordinal = _fresh_tables(kind, a.ordinal, b.ordinal)
    by_member = _fresh_tables(kind, a, b)
    assert by_ordinal[0] == by_member[0]
    assert all(type(outcome) is BellIndex for cell in by_ordinal[0] for outcome in cell)
    for name in ("mismatch", "eve_ok", "probs", "alice"):
        assert np.array_equal(getattr(by_ordinal[1], name), getattr(by_member[1], name)), name
    for fn in (joint_table, class_table):
        with pytest.raises(ValueError):
            fn(kind, 4, b)


@pytest.mark.parametrize("fn", [joint_table, class_table], ids=lambda fn: fn.__name__)
def test_tables_refuse_a_declared_state_that_only_hashes_like_one(fn):
    # True == 1.0 == 1 hash alike, so a check behind the cache would never see them
    cached = fn("none", 1, 1)
    assert fn("none", BellIndex.PHI_MINUS, BellIndex.PHI_MINUS) is cached  # one entry per state
    for a, b, bad in [(True, 1.0, "a"), (1, 1.0, "b"), (1, True, "b"), ((1, 0), 0, "a"), (0, (0, 0), "b")]:
        with pytest.raises(ValueError, match=f"declared state {bad} is not a Bell state"):
            fn("none", a, b)


def test_unknown_kind_raises():
    for fn in (joint_table, per_check_mismatch, per_group_eve_success, make_strategy):
        with pytest.raises(ValueError):
            fn("type4")


GUESS_KINDS = [kind for kind, layout in LAYOUTS.items() if layout.guess is not None]


def _posteriors(layout, with_bob=False):
    """Eve's outcome tuple, led by Bob's outcome if with_bob -> {Alice's
    outcome: joint mass}, from the exact table of a layout or kind tag."""
    posteriors = {}
    for (alice, bob, *eve), p in joint_table(layout).items():
        masses = posteriors.setdefault((bob, *eve) if with_bob else tuple(eve), {})
        masses[alice] = masses.get(alice, 0.0) + p
    return posteriors


def _guesses_are_maximizers(layout, guess):
    """Whether every guess the rule lists carries the most mass of Alice's
    outcome, under a layout or kind tag."""
    return all(
        masses.get(g, 0.0) >= max(masses.values()) - 1e-12
        for eve, masses in _posteriors(layout).items()
        for g in guess(eve)
    )


@pytest.mark.parametrize("kind", GUESS_KINDS)
def test_eve_guess_rule_is_bayes_optimal(kind):
    assert _guesses_are_maximizers(kind, LAYOUTS[kind].guess)
    # no rule on her outcomes beats the summed maximum, and hers reaches it
    best = sum(max(masses.values()) for masses in _posteriors(kind).values())
    assert abs(best - per_group_eve_success(kind)) <= 1e-12


def test_a_suboptimal_guess_rule_fails_the_bayes_check():
    # type3's Bob-side outcome says nothing about Alice's
    assert not _guesses_are_maximizers("type3", lambda eve: (eve[0],))


@pytest.mark.parametrize("kind", GUESS_KINDS)
def test_bobs_published_outcome_gives_eve_alices(kind):
    # a checked group's fragments are published, so there Eve knows Bob's outcome beside hers
    best = sum(max(masses.values()) for masses in _posteriors(kind, with_bob=True).values())
    assert abs(best - 1.0) <= 1e-12


def _reduced(sv, qubits):
    """The density matrix of the state's qubits, in the given order."""
    kept = [sv.position(q) for q in qubits]
    psi = np.moveaxis(sv.amplitudes.reshape((2,) * sv.num_qubits), kept, range(len(kept)))
    psi = psi.reshape(2 ** len(kept), -1)
    return psi @ psi.conj().T


def _eve_ensemble(layout, a, b):
    """Alice's outcome -> p_a rho_a: its probability times Eve's state given it,
    under a layout or kind tag.

    Eve's qubits are her targets' in target order; the named systems are
    independent factors, so her state is the kron of each system's reduction.
    """
    layout = make_strategy(layout)
    systems = layout.declared_systems(a, b)
    eve_qubits = {}
    for system, pair in layout.eve:
        eve_qubits[system] = eve_qubits.get(system, ()) + pair
    name, (qi, qj) = layout.alice
    weighted = {}
    for outcome in live_outcomes(systems[name], qi, qj):
        p, collapsed = project_bell(systems[name], qi, qj, outcome)
        conditioned = {**systems, name: collapsed}
        rhos = (_reduced(conditioned[system], qubits) for system, qubits in eve_qubits.items())
        weighted[outcome] = p * reduce(np.kron, rhos)
    return weighted


def _square_root_measurement(weighted):
    """Pi_a = S^-1/2 p_a rho_a S^-1/2 with S = sum_a p_a rho_a, S inverted on its support."""
    values, vectors = np.linalg.eigh(sum(weighted.values()))
    support = values > 1e-12
    root = (vectors[:, support] / np.sqrt(values[support])) @ vectors[:, support].conj().T
    return {a: root @ rho @ root for a, rho in weighted.items()}


def _yuen_kennedy_lax(weighted, povm):
    """A measurement's success on the ensemble, Y's distance from Hermitian and
    the least eigenvalue of Y - p_a rho_a over a, where Y = sum_a p_a rho_a Pi_a.

    When Y is Hermitian and every Y - p_a rho_a is positive semidefinite, no
    measurement scores more than tr Y (Yuen, Kennedy and Lax, 1975).
    """
    y = sum(rho @ povm[a] for a, rho in weighted.items())
    hermitian = (y + y.conj().T) / 2
    worst = min(float(np.linalg.eigvalsh(hermitian - rho).min()) for rho in weighted.values())
    return float(np.trace(y).real), float(np.abs(y - hermitian).max()), worst


@pytest.mark.parametrize("kind, a, b", [case for case in SUPPORTED_PAIRS if case[0] in GUESS_KINDS], ids=str)
def test_no_measurement_beats_eves_modeled_guess(kind, a, b):
    weighted = _eve_ensemble(kind, a, b)
    success, asymmetry, worst = _yuen_kennedy_lax(weighted, _square_root_measurement(weighted))
    assert abs(success - per_group_eve_success(kind)) <= 1e-12
    assert asymmetry <= 1e-12
    assert worst >= -1e-12


def test_a_suboptimal_measurement_fails_the_optimality_check():
    weighted = _eve_ensemble("type2", PHI, PHI)
    # her two qubits read in the computational basis, outcome x taken as the guess with ordinal x
    povm = {a: np.diag(np.arange(4) == a.ordinal).astype(complex) for a in weighted}
    success, _, worst = _yuen_kennedy_lax(weighted, povm)
    assert abs(success - 0.25) <= 1e-12
    # some Y - p_a rho_a is not positive semidefinite, so the check rejects it
    assert abs(worst + 0.125) <= 1e-9
