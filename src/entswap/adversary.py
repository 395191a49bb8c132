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
group, the pair Alice, Bob and Eve each measure, the stage at which Eve
measures, whether the attack needs all-phi+ declared pairs, and Eve's guess
rule.  Session simulation, the joint outcome tables of
:mod:`entswap.stats` and the oracle self-check all read that one record, so
a new attack is one new entry.

All adversary physics flows through the statevector oracle; no correlation
table is hard-coded here, so the detection and guess probabilities the
analysis layer reports are outputs of the simulation, not inputs.

Measurement ordering is fixed: the entangler and the guesser measure after
both parties ("after_bob"), the replacer measures between Alice and Bob
("after_alice").  Outcome statistics do not depend on this order (the
measurements act on disjoint qubits); a property test asserts as much.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, ClassVar, Sequence

import numpy as np

from .bell import BellIndex, group_key_fragment, swap_partner
from .statevector import StateVector, make_bell, make_ghz3, measure_bell, tensor

if TYPE_CHECKING:
    from .protocol import GroupRecord

PHI = BellIndex.PHI_PLUS

# (system name, (qubit label, qubit label)) - one measurable pair.
Target = tuple[str, tuple[str, str]]

# Session stages at which Eve may measure, in session order.
STAGES = ("after_alice", "after_bob")


class UnsupportedAttackError(ValueError):
    """The attack is only defined for all-phi+ declared channel states."""


class AdversaryOrderError(RuntimeError):
    """Eve's measurements were driven out of their fixed order."""


@dataclass
class GroupChannels:
    """Physical systems of one group and who measures which pair where.

    The honest parties only ever see their own targets; the layout itself
    (which may differ from the declared pair states) stays in here.
    """

    systems: dict[str, StateVector]
    alice: Target
    bob: Target
    eve: tuple[Target, ...] = ()

    def measure(self, target: Target, rng: np.random.Generator) -> BellIndex:
        name, (qi, qj) = target
        record, collapsed = measure_bell(self.systems[name], qi, qj, rng)
        self.systems[name] = collapsed
        return record.outcome


@dataclass
class AdversaryStrategy:
    """Per-session adversary state.

    ``by_group`` holds Eve's outcomes, one tuple per group in the order of
    her layout's targets.
    """

    kind: ClassVar[str]
    by_group: list[tuple[BellIndex, ...]] = field(default_factory=list)
    measured: bool = False


class NoEve(AdversaryStrategy):
    kind = "none"


class IndependentGuesser(AdversaryStrategy):
    """Owns private phi+ pairs per group; her swap outcomes are her guesses."""

    kind = "type1"

    @property
    def outcomes(self) -> list[BellIndex]:
        return [eve[0] for eve in self.by_group]


class ChannelEntangler(AdversaryStrategy):
    """Replaces each shared pair with a GHZ triple and keeps the third qubit."""

    kind = "type2"

    @property
    def outcomes(self) -> list[BellIndex]:
        return [eve[0] for eve in self.by_group]


class ChannelReplacer(AdversaryStrategy):
    """Shares pairs with Alice and with Bob separately and swaps in between."""

    kind = "type3"

    @property
    def bob_facing(self) -> list[BellIndex]:
        return [eve[0] for eve in self.by_group]

    @property
    def alice_facing(self) -> list[BellIndex]:
        return [eve[1] for eve in self.by_group]


@dataclass(frozen=True)
class Layout:
    """One attack's physical layout.

    ``systems`` maps a group's declared pair states to its named physical
    systems; it is memoized per declared pair, and callers copy the dict
    before collapsing states in it.  Eve measures her ``eve`` targets, in
    order, at ``eve_stage``.  ``guess`` turns her outcomes for one group and
    one fair coin into her guess of Alice's outcome; ``coin`` says whether
    the rule reads the coin, so a session only draws one when it does.
    """

    strategy: type[AdversaryStrategy]
    systems: Callable[[BellIndex, BellIndex], dict[str, StateVector]]
    alice: Target
    bob: Target
    eve: tuple[Target, ...] = ()
    eve_stage: str | None = None
    phi_only: bool = False
    guess: Callable[[tuple[BellIndex, ...], int], BellIndex] | None = None
    coin: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "systems", lru_cache(maxsize=None)(self.systems))

    def declared_systems(self, a: BellIndex, b: BellIndex) -> dict[str, StateVector]:
        """The memoized systems of a group declared as pairs (a, b).

        Raises UnsupportedAttackError when the attack is only modeled for
        phi+ channels and either declared pair is not phi+.
        """
        if self.phi_only and (a is not PHI or b is not PHI):
            raise UnsupportedAttackError(
                f"{self.strategy.kind} is only modeled for phi+ channels, declared ({a}, {b})"
            )
        return self.systems(a, b)

    def session_order(self) -> list[tuple[int, Target]]:
        """Every target as (slot, target), in the order a session measures them.

        Slot 0 is Alice, slot 1 Bob and slots 2.. Eve's targets, which
        follow the party her stage names.
        """
        eve = [(2 + i, target) for i, target in enumerate(self.eve)]
        before_bob = eve if self.eve_stage == "after_alice" else []
        after_bob = eve if self.eve_stage == "after_bob" else []
        return [(0, self.alice), *before_bob, (1, self.bob), *after_bob]


def _bell_pairs(a: BellIndex, b: BellIndex, prime: str = "") -> StateVector:
    """Pair a on qubits 1-2 and pair b on qubits 3-4, labels suffixed by prime."""
    return tensor(make_bell(a, "1" + prime, "2" + prime), make_bell(b, "3" + prime, "4" + prime))


LAYOUTS: dict[str, Layout] = {
    layout.strategy.kind: layout
    for layout in (
        Layout(
            NoEve,
            systems=lambda a, b: {"main": _bell_pairs(a, b)},
            alice=("main", ("1", "3")),
            bob=("main", ("2", "4")),
        ),
        Layout(
            IndependentGuesser,
            systems=lambda a, b: {"main": _bell_pairs(a, b), "eve": _bell_pairs(PHI, PHI, "p")},
            alice=("main", ("1", "3")),
            bob=("main", ("2", "4")),
            eve=(("eve", ("1p", "3p")),),
            eve_stage="after_bob",
            # her private swap outcome is a uniform guess
            guess=lambda eve, coin: eve[0],
        ),
        Layout(
            ChannelEntangler,
            systems=lambda a, b: {"main": tensor(make_ghz3("1", "2", "5"), make_ghz3("3", "4", "6"))},
            alice=("main", ("1", "3")),
            bob=("main", ("2", "4")),
            eve=(("main", ("5", "6")),),
            eve_stage="after_bob",
            phi_only=True,
            # her outcome fixes Alice's parity bit and the XOR of the two
            # phase bits, but not Alice's phase itself: the coin guesses it
            guess=lambda eve, coin: BellIndex((coin, eve[0].parity)),
            coin=True,
        ),
        Layout(
            ChannelReplacer,
            systems=lambda a, b: {
                "alice_side": _bell_pairs(PHI, PHI),
                "bob_side": _bell_pairs(PHI, PHI, "p"),
            },
            alice=("alice_side", ("1", "3")),
            bob=("bob_side", ("2p", "4p")),
            # the pairs Bob will touch first, then Alice's partners
            eve=(("bob_side", ("1p", "3p")), ("alice_side", ("2", "4"))),
            eve_stage="after_alice",
            phi_only=True,
            # her Alice-side halves are perfectly correlated with Alice's pair
            guess=lambda eve, coin: eve[1],
        ),
    )
}

STRATEGY_KINDS = tuple(LAYOUTS)


def layout_of(kind: str) -> Layout:
    """The layout for a wire-format kind tag."""
    try:
        return LAYOUTS[kind]
    except KeyError:
        raise ValueError(f"unknown adversary kind {kind!r}; expected one of {STRATEGY_KINDS}") from None


def make_strategy(kind: str) -> AdversaryStrategy:
    """Fresh per-session strategy state for a wire-format kind tag."""
    return layout_of(kind).strategy()


def corrupt_channels(
    strategy: AdversaryStrategy,
    declared: Sequence[tuple[BellIndex, BellIndex]],
) -> list[GroupChannels]:
    """Materialize each group's physical systems under the given strategy.

    ``declared`` holds the per-group pair states the honest parties believe
    in.  With no adversary (and for the independent guesser, who leaves the
    channel alone) the physical state is exactly the declared tensor.
    """
    layout = LAYOUTS[strategy.kind]
    return [
        GroupChannels(dict(layout.declared_systems(a, b)), layout.alice, layout.bob, layout.eve)
        for a, b in declared
    ]


def eve_measure(
    strategy: AdversaryStrategy,
    channels: Sequence[GroupChannels],
    stage: str,
    rng: np.random.Generator,
) -> None:
    """Run Eve's measurements for the given stage of the session.

    ``stage`` is "after_alice" or "after_bob".  Each strategy acts at its
    layout's stage and records outcomes in its own state; acting twice, or
    reaching a later stage without having measured, is an ordering error.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    layout = LAYOUTS[strategy.kind]
    if layout.eve_stage is None:
        return
    if stage == layout.eve_stage:
        if strategy.measured:
            raise AdversaryOrderError(f"{strategy.kind} already measured")
        for ch in channels:
            strategy.by_group.append(tuple(ch.measure(target, rng) for target in ch.eve))
        strategy.measured = True
    elif STAGES.index(stage) > STAGES.index(layout.eve_stage) and not strategy.measured:
        raise AdversaryOrderError(f"{strategy.kind} must measure {layout.eve_stage}, before {stage}")


@dataclass(frozen=True)
class EveReport:
    """What Eve ended up knowing, scored against Alice's fragments.

    ``guessed_key`` covers the unchecked groups only, aligned with the
    session key.  ``per_group_correct`` and ``full_key_correct`` score her
    guesses over ALL groups, i.e. the full 4n-bit string the parties
    produced before any check sacrifice.
    """

    guessed_key: str
    full_key_correct: bool
    per_group_correct: tuple[bool, ...]

    def to_json_dict(self) -> dict:
        return {
            "guessed_key": self.guessed_key,
            "full_key_correct": self.full_key_correct,
            "per_group_correct": list(self.per_group_correct),
        }


def eve_guess_key(
    strategy: AdversaryStrategy,
    groups: Sequence["GroupRecord"],
    rng: np.random.Generator,
) -> EveReport | None:
    """Derive Eve's key guess from her outcomes and the public transcript.

    She legitimately knows the declared pair states, and which groups were
    checked (both are public); Alice's actual fragments are used only to
    score her guesses.
    """
    layout = LAYOUTS[strategy.kind]
    if layout.guess is None:
        return None
    if not strategy.measured:
        raise AdversaryOrderError(f"{strategy.kind} must measure before guessing")
    guessed_fragments: list[str] = []
    correct: list[bool] = []
    for g in groups:
        coin = int(rng.integers(0, 2)) if layout.coin else 0
        guess = layout.guess(strategy.by_group[g.group_index], coin)
        partner = swap_partner(g.pair_a_state, g.pair_b_state, guess)
        bits = group_key_fragment(guess, partner, g.group_index).bits
        guessed_fragments.append(bits)
        correct.append(bits == g.alice_fragment.bits)
    guessed_key = "".join(
        bits for bits, g in zip(guessed_fragments, groups) if not g.checked
    )
    return EveReport(
        guessed_key=guessed_key,
        full_key_correct=all(correct),
        per_group_correct=tuple(correct),
    )


@dataclass(frozen=True)
class EveSuccess:
    """Join of Eve's guess with the session verdict."""

    undetected: bool
    key_stolen: bool


def eve_success(report, eve: EveReport | None) -> EveSuccess:
    """Score one finished session: did Eve pass unnoticed, did she get the key?

    ``key_stolen`` compares against the net (post-sifting) session key; the
    all-groups metric lives in ``EveReport.full_key_correct``.
    """
    undetected = report.verdict == "accept"
    key_stolen = (
        eve is not None and report.alice_key != "" and eve.guessed_key == report.alice_key
    )
    return EveSuccess(undetected=undetected, key_stolen=key_stolen)
