"""Eavesdropping strategies, each described by one physical layout.

Three attacks are modeled, plus the honest baseline:

* ``none``  - no adversary; the declared Bell pairs are laid out genuinely.
* ``type1`` - an independent guesser: she never touches the shared channel,
  swaps her own private pairs, and uses her outcomes as guesses.
* ``type2`` - a channel entangler: instead of each declared pair she
  fabricates a three-qubit GHZ state and keeps the third qubit, so she holds
  one qubit per shared pair.
* ``type3`` - a channel replacer (man in the middle): she shares pairs with
  Alice and, separately, pairs with Bob, and swaps on her own halves.

Each kind is one frozen :class:`Layout` in ``LAYOUTS``: the systems of a
group, the pair Alice, Bob and Eve each measure, the order in which they
measure, whether the attack needs all-phi+ declared pairs, and Eve's guess
rule.  Session simulation, the joint outcome tables of
:mod:`entswap.stats` and the oracle self-check all read that one record, so
a new attack is one new entry.  A session's adversary is its kind's
layout: a group's channels are a plain dict of its named systems, and
:func:`eve_measure` returns Eve's outcomes rather than storing them.

All adversary physics flows through the statevector oracle; no correlation
table is hard-coded here, so the detection and guess probabilities the
analysis layer reports are outputs of the simulation, not inputs.

Measurement order is ``Layout.order``: the entangler and the guesser
measure after both parties, the replacer between Alice and Bob.  Outcome
statistics do not depend on where Eve stands (the measurements act on
disjoint qubits); ``test_eve_position_leaves_the_joint_table_alone`` in
``tests/test_layout.py`` moves her to the other side of Bob and asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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

class UnsupportedAttackError(ValueError):
    """The attack is only defined for all-phi+ declared channel states."""


@dataclass(frozen=True)
class Layout:
    """One attack's physical layout, under its wire-format ``kind`` tag.

    ``systems`` maps a group's declared pair states to its named physical
    systems; it is memoized per declared pair, and callers copy the dict
    before collapsing states in it.  ``order`` names the parties in the
    order a session lets them measure; Eve measures her ``eve`` targets
    group by group at her place in it.  ``guess`` lists, from her outcomes
    for one group, the equally likely guesses of Alice's outcome she picks
    one from.
    """

    kind: str
    systems: Callable[[BellIndex, BellIndex], dict[str, StateVector]]
    alice: Target
    bob: Target
    eve: tuple[Target, ...] = ()
    order: tuple[str, ...] = ("alice", "bob")
    phi_only: bool = False
    guess: Callable[[tuple[BellIndex, ...]], tuple[BellIndex, ...]] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "systems", lru_cache(maxsize=None)(self.systems))

    def declared_systems(self, a: BellIndex, b: BellIndex) -> dict[str, StateVector]:
        """The memoized systems of a group declared as pairs (a, b).

        Raises UnsupportedAttackError when the attack is only modeled for
        phi+ channels and either declared pair is not phi+.
        """
        if self.phi_only and (a is not PHI or b is not PHI):
            raise UnsupportedAttackError(
                f"{self.kind} is only modeled for phi+ channels, declared ({a}, {b})"
            )
        return self.systems(a, b)

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


def _bell_pairs(a: BellIndex, b: BellIndex, prime: str = "") -> StateVector:
    """Pair a on qubits 1-2 and pair b on qubits 3-4, labels suffixed by prime."""
    return tensor(make_bell(a, "1" + prime, "2" + prime), make_bell(b, "3" + prime, "4" + prime))


LAYOUTS: dict[str, Layout] = {
    layout.kind: layout
    for layout in (
        Layout(
            "none",
            systems=lambda a, b: {"main": _bell_pairs(a, b)},
            alice=("main", ("1", "3")),
            bob=("main", ("2", "4")),
        ),
        Layout(
            "type1",
            systems=lambda a, b: {"main": _bell_pairs(a, b), "eve": _bell_pairs(PHI, PHI, "p")},
            alice=("main", ("1", "3")),
            bob=("main", ("2", "4")),
            eve=(("eve", ("1p", "3p")),),
            order=("alice", "bob", "eve"),
            # her private swap outcome is a uniform guess
            guess=lambda eve: (eve[0],),
        ),
        Layout(
            "type2",
            systems=lambda a, b: {"main": tensor(make_ghz3("1", "2", "5"), make_ghz3("3", "4", "6"))},
            alice=("main", ("1", "3")),
            bob=("main", ("2", "4")),
            eve=(("main", ("5", "6")),),
            order=("alice", "bob", "eve"),
            phi_only=True,
            # her outcome fixes Alice's parity bit and the XOR of the two
            # phase bits, but not Alice's phase itself: she guesses it
            guess=lambda eve: _BOTH_PHASES[eve[0].parity],
        ),
        Layout(
            "type3",
            systems=lambda a, b: {
                "alice_side": _bell_pairs(PHI, PHI),
                "bob_side": _bell_pairs(PHI, PHI, "p"),
            },
            alice=("alice_side", ("1", "3")),
            bob=("bob_side", ("2p", "4p")),
            # the pairs Bob will touch first, then Alice's partners
            eve=(("bob_side", ("1p", "3p")), ("alice_side", ("2", "4"))),
            order=("alice", "eve", "bob"),
            phi_only=True,
            # her Alice-side halves are perfectly correlated with Alice's pair
            guess=lambda eve: (eve[1],),
        ),
    )
}

STRATEGY_KINDS = tuple(LAYOUTS)


def make_strategy(kind: str) -> Layout:
    """The layout for a wire-format kind tag: a session's adversary is its kind's layout."""
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
    record, systems[name] = measure_bell(systems[name], qi, qj, rng)
    return record.outcome


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
