"""Eavesdropping strategies, each described by one physical layout.

README's adversary table and the paragraph under it describe the four kinds
(``none`` and ``type1`` to ``type3``) and what a :class:`Layout` holds; its
"Python API" section says which entry points take a layout in place of its
kind tag.  This module holds one frozen ``Layout`` per kind in ``LAYOUTS``,
the builder ``_prepare`` that turns a layout's factors into states, and the
session steps that read a layout: :func:`corrupt_channels`,
:func:`eve_measure` and :func:`eve_guess_key`.

All adversary physics flows through the statevector oracle; no correlation
table is hard-coded here, so the detection and guess probabilities the
analysis layer reports are outputs of the simulation, not inputs.

Outcome statistics do not depend on where Eve stands in ``Layout.order``
(the measurements act on disjoint qubits);
``test_eve_position_leaves_the_joint_table_alone`` in ``tests/test_layout.py``
moves her to the other side of Bob and asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .bell import BellIndex, Record, group_key_fragment, swap_partner
from .statevector import StateVector, make_bell, make_ghz3, measure_bell, tensor

if TYPE_CHECKING:
    from .protocol import GroupRecord

PHI = BellIndex.PHI_PLUS

# the two Bell states of each parity, phase 0 first, built once: a guess rule runs per group
_BOTH_PHASES = tuple((BellIndex((0, parity)), BellIndex((1, parity))) for parity in (0, 1))

# (system name, (qubit label, qubit label)) - one measurable pair.
Target = tuple[str, tuple[str, str]]

# One factor of a system: a Bell pair (state, (q, q)), where state is a
# BellIndex or "a"/"b" for the group's declared pair, or ("ghz", (q, q, q)).
Factor = tuple[BellIndex | str, tuple[str, ...]]


class UnsupportedAttackError(ValueError):
    """The attack is only defined for all-phi+ declared channel states."""


@dataclass(frozen=True, eq=False)
class Layout:
    """One attack's physical layout, under its wire-format ``kind`` tag.

    ``systems`` gives each named physical system of a group as its factors
    in kron order; ``declared_systems`` builds them per declared pair, and
    a declared pair that no factor places is only modeled as phi+.
    ``phi_only`` is derived: true when no factor places either pair.
    ``order`` names the parties in the order a session lets them measure;
    Eve measures her ``eve`` targets group by group at her place in it.
    ``guess`` lists, from her outcomes for one group, the equally likely
    guesses of Alice's outcome she picks one from.  A layout is hashed and
    compared by identity, so each one, ``dataclasses.replace`` copies
    included, is its own cache key.
    Raises ValueError naming the field for an ``order`` that does not name
    alice and bob once each and eve once exactly when there are ``eve``
    targets, a ``guess`` given without them or missing with them, and a
    target whose system is not in ``systems``.
    """

    kind: str
    systems: dict[str, tuple[Factor, ...]]
    alice: Target
    bob: Target
    eve: tuple[Target, ...] = ()
    order: tuple[str, ...] = ("alice", "bob")
    guess: Callable[[tuple[BellIndex, ...]], tuple[BellIndex, ...]] | None = None
    phi_only: bool = field(init=False)

    def __post_init__(self) -> None:
        if sorted(self.order) != ["alice", "bob"] + ["eve"] * bool(self.eve):
            raise ValueError(f"{self.kind}: order must name alice and bob once, and eve once iff she has targets")
        if (self.guess is None) == bool(self.eve):
            raise ValueError(f"{self.kind}: guess must be given exactly when there are eve targets")
        for name, targets in (("alice", (self.alice,)), ("bob", (self.bob,)), ("eve", self.eve)):
            if any(system not in self.systems for system, _ in targets):
                raise ValueError(f"{self.kind}: {name} targets a system not in systems")
        placed = {state for factors in self.systems.values() for state, _ in factors} & {"a", "b"}
        object.__setattr__(self, "_placed", placed)
        object.__setattr__(self, "phi_only", not placed)
        # built once per declared pair: a session looks its systems up per group
        object.__setattr__(self, "_prepared", lru_cache(maxsize=None)(partial(_prepare, self.systems)))

    def declared_systems(self, a: BellIndex, b: BellIndex) -> dict[str, StateVector]:
        """The memoized systems of a group declared as pairs (a, b); callers
        copy the dict before collapsing states in it.

        Raises UnsupportedAttackError when a declared pair that no factor
        places is not phi+.
        """
        if (a is not PHI and "a" not in self._placed) or (b is not PHI and "b" not in self._placed):
            raise UnsupportedAttackError(
                f"{self.kind} models a pair it does not place as phi+ only, declared ({a}, {b})"
            )
        return self._prepared(a, b)

    def session_order(self) -> list[tuple[int, Target]]:
        """Every target as (slot, target), in the order a session measures them.

        Slot 0 is Alice, slot 1 Bob and slots 2.. Eve's targets, in her
        layout's order.
        """
        steps = {
            "alice": [(0, self.alice)],
            "bob": [(1, self.bob)],
            "eve": [(2 + i, target) for i, target in enumerate(self.eve)],
        }
        return [step for party in self.order for step in steps[party]]


def _bell_pairs(a: BellIndex | str, b: BellIndex | str, prime: str = "") -> tuple[Factor, Factor]:
    """Pair a on qubits 1-2 and pair b on qubits 3-4, labels suffixed by prime."""
    return (a, ("1" + prime, "2" + prime)), (b, ("3" + prime, "4" + prime))


def _prepare(systems: dict[str, tuple[Factor, ...]], a: BellIndex, b: BellIndex) -> dict[str, StateVector]:
    """Each named system of a group declared as pairs (a, b): its factors'
    states, tensored in kron order."""
    states = {"a": a, "b": b}

    def factor(state: BellIndex | str, qubits: tuple[str, ...]) -> StateVector:
        return make_ghz3(*qubits) if state == "ghz" else make_bell(states.get(state, state), *qubits)

    return {name: reduce(tensor, (factor(*f) for f in factors)) for name, factors in systems.items()}


LAYOUTS: dict[str, Layout] = {
    layout.kind: layout
    for layout in (
        Layout(
            "none",
            systems={"main": _bell_pairs("a", "b")},
            alice=("main", ("1", "3")),
            bob=("main", ("2", "4")),
        ),
        Layout(
            "type1",
            systems={"main": _bell_pairs("a", "b"), "eve": _bell_pairs(PHI, PHI, "p")},
            alice=("main", ("1", "3")),
            bob=("main", ("2", "4")),
            eve=(("eve", ("1p", "3p")),),
            order=("alice", "bob", "eve"),
            # her private swap outcome is a uniform guess
            guess=lambda eve: (eve[0],),
        ),
        Layout(
            "type2",
            systems={"main": (("ghz", ("1", "2", "5")), ("ghz", ("3", "4", "6")))},
            alice=("main", ("1", "3")),
            bob=("main", ("2", "4")),
            eve=(("main", ("5", "6")),),
            order=("alice", "bob", "eve"),
            # her outcome fixes Alice's parity bit and the XOR of the two
            # phase bits, but not Alice's phase itself: she guesses it
            guess=lambda eve: _BOTH_PHASES[eve[0].parity],
        ),
        Layout(
            "type3",
            systems={"alice_side": _bell_pairs(PHI, PHI), "bob_side": _bell_pairs(PHI, PHI, "p")},
            alice=("alice_side", ("1", "3")),
            bob=("bob_side", ("2p", "4p")),
            # the pairs Bob will touch first, then Alice's partners
            eve=(("bob_side", ("1p", "3p")), ("alice_side", ("2", "4"))),
            order=("alice", "eve", "bob"),
            # her Alice-side halves are perfectly correlated with Alice's pair
            guess=lambda eve: (eve[1],),
        ),
    )
}

STRATEGY_KINDS = tuple(LAYOUTS)


def make_strategy(kind: str | Layout) -> Layout:
    """The layout for a wire-format kind tag: a session's adversary is its kind's
    layout.  A ``Layout`` is returned as it is."""
    if isinstance(kind, Layout):
        return kind
    try:
        return LAYOUTS[kind]
    except KeyError:
        raise ValueError(f"unknown adversary kind {kind!r}; expected one of {STRATEGY_KINDS}") from None


def corrupt_channels(
    layout: Layout,
    declared: Sequence[tuple[BellIndex, BellIndex]],
) -> list[dict[str, StateVector]]:
    """Materialize each group's physical systems under the given layout.

    ``declared`` holds the per-group pair states the honest parties believe
    in.  With no adversary (and for the independent guesser, who leaves the
    channel alone) the physical state is exactly the declared tensor.  Each
    group gets its own dict, which :func:`measure` collapses in place.
    """
    return [dict(layout.declared_systems(a, b)) for a, b in declared]


def measure(systems: dict[str, StateVector], target: Target, rng: np.random.Generator) -> BellIndex:
    """Bell-measure one target pair of a group, collapsing its system in place."""
    name, (qi, qj) = target
    outcome, systems[name] = measure_bell(systems[name], qi, qj, rng)
    return outcome


def eve_measure(
    layout: Layout,
    channels: Sequence[dict[str, StateVector]],
    rng: np.random.Generator,
) -> list[tuple[BellIndex, ...]]:
    """Eve's outcomes, one tuple per group in the order of her ``eve`` targets.

    A session calls this once, at Eve's place in her layout's ``order``.
    """
    return [tuple(measure(systems, target, rng) for target in layout.eve) for systems in channels]


@dataclass(frozen=True)
class EveReport(Record):
    """What Eve ended up knowing, scored against Alice's fragments.

    ``guessed_key`` covers the unchecked groups only, aligned with the
    session key.  ``per_group_correct`` and ``full_key_correct`` score her
    guesses over ALL groups, i.e. the full 4n-bit string the parties
    produced before any check sacrifice.
    """

    guessed_key: str
    full_key_correct: bool
    per_group_correct: tuple[bool, ...]


def eve_guess_key(
    layout: Layout,
    outcomes: Sequence[tuple[BellIndex, ...]],
    groups: Sequence["GroupRecord"],
    rng: np.random.Generator,
) -> EveReport | None:
    """Derive Eve's key guess from her outcomes and the public transcript.

    ``outcomes`` is what :func:`eve_measure` returned, aligned with
    ``groups``.  She legitimately knows the declared pair states, and which
    groups were checked (both are public); Alice's actual fragments are
    used only to score her guesses.
    """
    if layout.guess is None:
        return None
    fragments: list[str] = []
    for g, eve in zip(groups, outcomes, strict=True):
        guesses = layout.guess(eve)
        # only a real choice draws: a numpy call per group would double a lone guess's cost
        guess = guesses[int(rng.integers(0, len(guesses)))] if len(guesses) > 1 else guesses[0]
        fragments.append(group_key_fragment(guess, swap_partner(g.pair_a_state, g.pair_b_state, guess)))
    correct = tuple(bits == g.alice_fragment for bits, g in zip(fragments, groups))
    return EveReport(
        guessed_key="".join(bits for bits, g in zip(fragments, groups) if not g.checked),
        full_key_correct=all(correct),
        per_group_correct=correct,
    )
