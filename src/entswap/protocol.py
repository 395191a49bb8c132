"""Five-step two-party key agreement over a simulated classical channel.

One session runs: both parties hold 2n pre-shared pairs in declared Bell
states, grouped in n ordered groups of two pairs.  Alice Bell-measures one
qubit of each pair per group, infers Bob's future outcome from the declared
states, and announces only THAT she measured.  Bob mirrors her, then
publishes the fragments of a random subset of groups; Alice compares and
accepts or aborts.  Checked groups are discarded from the final key since
their bits crossed the public channel.

:func:`run_session` is one pass: :func:`declared_pairs` pairs the declared
states, each party measures every group at its place in the attack's
``adversary.Layout.order``, Bob's check subset is drawn, and each
:class:`GroupRecord` is built once, complete.  Each party infers the
other's outcome from the declared states by the swap rule of Zukowski et
al., PRL 71, 4287 (1993).

The classical channel is an ordered, reliable, authenticated-but-readable
message list: an eavesdropper sees every message but cannot forge one.
Every :class:`Message` goes on the wire as its kind, sender and fields.

Randomness: README's "Seeding" paragraph (under "Python API") states the
session's two streams once, the honest parties' and the adversary's, and
how each is seeded.  ``tests/test_protocol.py`` pins them: the honest
stream does not depend on the adversary, a ``seed_seq`` is not advanced,
and Eve's stream is built only where she measures.

Each group's fragments are read whole from ``bell.FRAGMENTS``, the swap
rule and the codebook applied once, so a report holds one string per
distinct fragment.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .adversary import (
    EveReport,
    Layout,
    corrupt_channels,
    eve_guess_key,
    eve_measure,
    make_strategy,
    measure,
)
# group_key_fragment and swap_partner stay bound here only for perfbench/spans.py's wrappers
from .bell import BELL_NAMES, BELL_ORDER, FRAGMENTS, BellIndex, Record, group_key_fragment, swap_partner

# Upper bound on the groups of every SessionConfig.  CI's "Largest run's cost"
# step prints the wall time and peak RSS of a `run` of this many groups; a
# table-backend batch builds an n-entry pair list, and numpy's hypergeometric
# draw fails outright from 10^9 groups.
MAX_GROUPS = 100_000

# the pool size of a SeedSequence built from a seed alone; a literal, since
# reading it from numpy here would load numpy.random (~6 MB) at import
_DEFAULT_POOL_SIZE = 4


@dataclass(frozen=True)
class AllPhiPlus:
    """Every pair declared phi+."""

    def describe(self) -> str:
        return "phi+"


@dataclass(frozen=True)
class FixedList:
    """Explicit declared state per pair, 2n entries.

    An entry may be a ``BellIndex`` or its integer ordinal 0-3; it is stored
    as the ``BellIndex`` member.
    """

    states: tuple[BellIndex, ...]

    def __post_init__(self) -> None:
        states = tuple(declared_state(f"pair state {i}", s) for i, s in enumerate(self.states))
        object.__setattr__(self, "states", states)

    def describe(self) -> str:
        return ",".join(str(s) for s in self.states)


@dataclass(frozen=True)
class RandomKnown:
    """Pairs drawn uniformly from the four Bell states with their own seed.

    The draw is public knowledge: both parties (and any eavesdropper) know
    the resulting declared states.
    """

    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", plain_int("random pair-state seed", self.seed))

    def describe(self) -> str:
        return f"random:{self.seed}"


PairStatePolicy = Union[AllPhiPlus, FixedList, RandomKnown]


def plain_int(name: str, value, low: int = 0) -> int:
    """``value`` as a plain int of at least ``low``: the one rule for counts and seeds.

    A numpy integer becomes an ``int``; a bool (which would pass as 0 or 1),
    float, string or None raises TypeError, and a value below ``low``
    raises ValueError, each naming ``name``.
    """
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    value = operator.index(value)
    if value < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def declared_state(name: str, state) -> BellIndex:
    """A declared state, a ``BellIndex`` or its ordinal 0-3, as its member.

    A bool (True would pass as phi-), float, bit tuple or anything else
    raises ValueError naming ``name``.
    """
    if isinstance(state, bool) or not hasattr(state, "__index__") or operator.index(state) not in range(4):
        raise ValueError(f"{name} is not a Bell state: {state!r}")
    return BellIndex(operator.index(state))


@dataclass(frozen=True)
class SessionConfig:
    n_groups: int
    pair_states: PairStatePolicy = AllPhiPlus()
    check_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        # plain ints and a float: a numpy scalar or a Fraction would reach the
        # report JSON, a float the list sizes, and a bool would pass as 0 or 1
        object.__setattr__(self, "n_groups", plain_int("n_groups", self.n_groups, low=1))
        if self.n_groups > MAX_GROUPS:
            raise ValueError(f"a session has at least 1 and at most {MAX_GROUPS} groups, got {self.n_groups}")
        object.__setattr__(self, "seed", plain_int("seed", self.seed))
        if isinstance(self.check_fraction, bool) or not isinstance(self.check_fraction, numbers.Real):
            raise TypeError(f"check_fraction must be a real number, not {self.check_fraction!r}")
        try:
            object.__setattr__(self, "check_fraction", float(self.check_fraction))
        except OverflowError:  # an int or Fraction beyond float range
            raise ValueError("check_fraction must be in (0, 1]") from None
        if not 0.0 < self.check_fraction <= 1.0:
            raise ValueError("check_fraction must be in (0, 1]")
        if not isinstance(self.pair_states, (AllPhiPlus, FixedList, RandomKnown)):
            raise TypeError(f"not a pair-state policy: {self.pair_states!r}")
        if isinstance(self.pair_states, FixedList) and len(self.pair_states.states) != 2 * self.n_groups:
            raise ValueError(
                f"fixed pair-state list needs {2 * self.n_groups} entries, "
                f"got {len(self.pair_states.states)}"
            )

    @property
    def k_checked(self) -> int:
        """Number of groups sacrificed to checking.

        The smallest k >= 1 with k / n >= fraction.  Float division is
        correctly rounded, so this is exact where ceil(fraction * n) can
        overcount (0.28 * 25 is 7.000000000000001).  That ceiling is within
        one of the answer, so only its neighbours are tried.
        """
        n, fraction = self.n_groups, self.check_fraction
        k = math.ceil(fraction * n)
        return next(j for j in (k - 1, k, k + 1) if j >= 1 and j / n >= fraction)


def declared_pairs(config: SessionConfig) -> list[tuple[BellIndex, BellIndex]]:
    """Each group's declared (pair a, pair b) states, in group order."""
    policy = config.pair_states
    if isinstance(policy, AllPhiPlus):
        return [(BellIndex.PHI_PLUS, BellIndex.PHI_PLUS)] * config.n_groups
    if isinstance(policy, FixedList):
        states = policy.states
    else:
        rng = np.random.default_rng(policy.seed)
        states = [BELL_ORDER[i] for i in rng.integers(0, 4, size=2 * config.n_groups).tolist()]
    return list(zip(states[0::2], states[1::2]))


@dataclass
class GroupRecord:
    """One group's declared states, outcomes, fragments, and check flag."""

    group_index: int
    pair_a_state: BellIndex
    pair_b_state: BellIndex
    alice_outcome: BellIndex
    bob_outcome: BellIndex
    alice_fragment: str
    bob_fragment: str
    checked: bool

    def to_json_dict(self) -> dict:
        return {
            "group_index": self.group_index,
            "pair_a_state": BELL_NAMES[self.pair_a_state],
            "pair_b_state": BELL_NAMES[self.pair_b_state],
            "alice_outcome": BELL_NAMES[self.alice_outcome],
            "bob_outcome": BELL_NAMES[self.bob_outcome],
            "alice_fragment": self.alice_fragment,
            "bob_fragment": self.bob_fragment,
            "checked": self.checked,
        }


@dataclass(frozen=True)
class Message(Record):
    """One classical message; its fields, in order, are the wire payload."""

    kind: ClassVar[str]
    sender: ClassVar[str]

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "sender": self.sender, "payload": super().to_json_dict()}


@dataclass(frozen=True)
class MeasuredAnnouncement(Message):
    """Alice's step-3 message: she measured, and nothing more.

    Carries no outcome data by construction; the payload is the group count
    only.
    """

    kind: ClassVar[str] = "measured"
    sender: ClassVar[str] = "alice"
    n_groups: int


@dataclass(frozen=True)
class CheckRequest(Message):
    """Bob's step-5 message: chosen group indices with his fragments."""

    kind: ClassVar[str] = "check_request"
    sender: ClassVar[str] = "bob"
    indices: tuple[int, ...]
    fragments: tuple[str, ...]


@dataclass(frozen=True)
class VerdictMessage(Message):
    """Alice's comparison result; any mismatch aborts the key."""

    kind: ClassVar[str] = "verdict"
    sender: ClassVar[str] = "alice"
    accept: bool
    mismatched_groups: tuple[int, ...]


@dataclass
class SessionReport:
    """Final session outcome plus the full wire transcript."""

    verdict: str
    alice_key: str
    bob_key: str
    keys_equal: bool
    mismatched_groups: tuple[int, ...]
    groups: list[GroupRecord]
    transcript: list[Message]
    config: SessionConfig
    adversary_kind: str
    eve: EveReport | None = None

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "n_groups": self.config.n_groups,
                "check_fraction": self.config.check_fraction,
                "seed": self.config.seed,
                "pair_states": self.config.pair_states.describe(),
                "adversary": self.adversary_kind,
            },
            "verdict": self.verdict,
            "alice_key": self.alice_key,
            "bob_key": self.bob_key,
            "keys_equal": self.keys_equal,
            "mismatched_groups": list(self.mismatched_groups),
            "groups": [g.to_json_dict() for g in self.groups],
            "transcript": [m.to_json_dict() for m in self.transcript],
            "eve": self.eve.to_json_dict() if self.eve else None,
        }


def _child_rng(entropy, spawn_key: tuple[int, ...], pool_size: int, i: int) -> np.random.Generator:
    """A generator on child ``i`` of ``SeedSequence(entropy, spawn_key=spawn_key,
    pool_size=pool_size).spawn(2)``, built without the parent."""
    child = np.random.SeedSequence(entropy, spawn_key=spawn_key + (i,), pool_size=pool_size)
    return np.random.default_rng(child)


def run_session(
    config: SessionConfig,
    adversary: Layout | None = None,
    seed_seq: np.random.SeedSequence | None = None,
) -> SessionReport:
    """One full session: measurements in layout order, checking, verdict, key.

    The parties record the DECLARED pair states; whatever the adversary
    actually put on the channel lives only in the group channels.  The
    honest stream draws every Alice outcome, then every Bob outcome, then
    the checked subset; Eve's stream draws her outcomes, then her pick of
    each group's guess in one ``integers`` call.  ``seed_seq``, when given,
    replaces ``SeedSequence(config.seed)`` as the root of both streams and
    is not advanced.  Raises TypeError for a config that is not a
    ``SessionConfig``, which bounds the groups by ``MAX_GROUPS``, for an
    adversary that is not a ``Layout`` and for a ``seed_seq`` that is not a
    ``SeedSequence``.
    """
    if not isinstance(config, SessionConfig):
        raise TypeError(f"config must be a SessionConfig, not {config!r}")
    adversary = adversary if adversary is not None else make_strategy("none")
    if not isinstance(adversary, Layout):
        raise TypeError(f"adversary must be a Layout, not {adversary!r}")
    if seed_seq is None:
        root = (config.seed, (), _DEFAULT_POOL_SIZE)
    elif isinstance(seed_seq, np.random.SeedSequence):
        root = (seed_seq.entropy, seed_seq.spawn_key, seed_seq.pool_size)
    else:
        raise TypeError(f"seed_seq must be a SeedSequence, not {seed_seq!r}")
    honest_rng = _child_rng(*root, 0)
    eve_rng = _child_rng(*root, 1) if adversary.eve else None
    pairs = declared_pairs(config)
    channels = corrupt_channels(adversary, pairs)

    # steps 1-4: each party Bell-measures one qubit of each pair per group
    outcomes: dict[str, list] = {"eve": []}
    for party in adversary.order:
        if party == "eve":
            outcomes[party] = eve_measure(adversary, channels, eve_rng)
        else:
            target = getattr(adversary, party)
            outcomes[party] = [measure(systems, target, honest_rng) for systems in channels]

    # step 5: Bob publishes a random subset of fragments, Alice compares;
    # each party's fragment pairs its outcome with the peer's inferred one
    picked = honest_rng.choice(config.n_groups, size=config.k_checked, replace=False)
    indices = tuple(sorted(picked.tolist()))
    checked = set(indices)
    groups = []
    for i, ((a, b), alice, bob) in enumerate(zip(pairs, outcomes["alice"], outcomes["bob"])):
        fragments = FRAGMENTS[a ^ b]
        groups.append(GroupRecord(i, a, b, alice, bob, fragments[alice][0], fragments[bob][1], i in checked))
    request = CheckRequest(indices=indices, fragments=tuple(groups[i].bob_fragment for i in indices))
    mismatched = tuple(i for i in indices if groups[i].alice_fragment != groups[i].bob_fragment)
    verdict = VerdictMessage(accept=not mismatched, mismatched_groups=mismatched)

    if verdict.accept:
        alice_key = "".join(g.alice_fragment for g in groups if not g.checked)
        bob_key = "".join(g.bob_fragment for g in groups if not g.checked)
    else:
        alice_key = bob_key = ""
    return SessionReport(
        verdict="accept" if verdict.accept else "abort",
        alice_key=alice_key,
        bob_key=bob_key,
        keys_equal=alice_key == bob_key,
        mismatched_groups=mismatched,
        groups=groups,
        transcript=[MeasuredAnnouncement(config.n_groups), request, verdict],
        config=config,
        adversary_kind=adversary.kind,
        eve=eve_guess_key(adversary, outcomes["eve"], groups, eve_rng),
    )
