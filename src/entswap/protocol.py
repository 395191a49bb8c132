"""Five-step two-party key agreement over a simulated classical channel.

One session runs: both parties hold 2n pre-shared pairs in declared Bell
states, grouped in n ordered groups of two pairs.  Alice Bell-measures one
qubit of each pair per group, infers Bob's future outcome from the declared
states, and announces only THAT she measured.  Bob mirrors her, then
publishes the fragments of a random subset of groups; Alice compares and
accepts or aborts.  Checked groups are discarded from the final key since
their bits crossed the public channel.

The classical channel is an ordered, reliable, authenticated-but-readable
message list: an eavesdropper sees every message but cannot forge one.

Randomness: a session derives two independent child streams from its seed,
one for the honest parties and one for the adversary, so the mere presence
of an adversary never perturbs honest sampling.  A whole run is a pure
function of (config, adversary kind, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

from .adversary import (
    AdversaryStrategy,
    EveReport,
    GroupChannels,
    NoEve,
    corrupt_channels,
    eve_guess_key,
    eve_measure,
)
from .bell import BELL_ORDER, BellIndex, KeyFragment, group_key_fragment, swap_partner


class ProtocolOrderError(RuntimeError):
    """A protocol step ran before its prerequisites."""


@dataclass(frozen=True)
class AllPhiPlus:
    """Every pair declared phi+."""

    def describe(self) -> str:
        return "phi+"


@dataclass(frozen=True)
class FixedList:
    """Explicit declared state per pair, 2n entries."""

    states: tuple[BellIndex, ...]

    def describe(self) -> str:
        return ",".join(str(s) for s in self.states)


@dataclass(frozen=True)
class RandomKnown:
    """Pairs drawn uniformly from the four Bell states with their own seed.

    The draw is public knowledge: both parties (and any eavesdropper) know
    the resulting declared states.
    """

    seed: int

    def describe(self) -> str:
        return f"random:{self.seed}"


PairStatePolicy = Union[AllPhiPlus, FixedList, RandomKnown]


@dataclass(frozen=True)
class SessionConfig:
    n_groups: int
    pair_states: PairStatePolicy = AllPhiPlus()
    check_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_groups < 1:
            raise ValueError("n_groups must be at least 1")
        if not 0.0 < self.check_fraction <= 1.0:
            raise ValueError("check_fraction must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if isinstance(self.pair_states, RandomKnown) and self.pair_states.seed < 0:
            raise ValueError("random pair-state seed must be non-negative")
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


def declared_pair_states(config: SessionConfig) -> list[BellIndex]:
    """The 2n declared Bell states, in pair order."""
    policy = config.pair_states
    if isinstance(policy, AllPhiPlus):
        return [BellIndex.PHI_PLUS] * (2 * config.n_groups)
    if isinstance(policy, FixedList):
        return list(policy.states)
    if isinstance(policy, RandomKnown):
        rng = np.random.default_rng(policy.seed)
        return [BELL_ORDER[i] for i in rng.integers(0, 4, size=2 * config.n_groups)]
    raise TypeError(f"not a pair-state policy: {policy!r}")


@dataclass
class GroupRecord:
    """One group's declared states, outcomes, fragments, and check flag."""

    group_index: int
    pair_a_state: BellIndex
    pair_b_state: BellIndex
    alice_outcome: BellIndex | None = None
    bob_outcome: BellIndex | None = None
    alice_fragment: KeyFragment | None = None
    bob_fragment: KeyFragment | None = None
    checked: bool = False

    def to_json_dict(self) -> dict:
        return {
            "group_index": self.group_index,
            "pair_a_state": str(self.pair_a_state),
            "pair_b_state": str(self.pair_b_state),
            "alice_outcome": str(self.alice_outcome) if self.alice_outcome else None,
            "bob_outcome": str(self.bob_outcome) if self.bob_outcome else None,
            "alice_fragment": self.alice_fragment.bits if self.alice_fragment else None,
            "bob_fragment": self.bob_fragment.bits if self.bob_fragment else None,
            "checked": self.checked,
        }


@dataclass(frozen=True)
class MeasuredAnnouncement:
    """Alice's step-3 message: she measured, and nothing more.

    Carries no outcome data by construction; the payload is the group count
    only.
    """

    kind: ClassVar[str] = "measured"
    sender: ClassVar[str] = "alice"
    n_groups: int

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "sender": self.sender, "payload": {"n_groups": self.n_groups}}


@dataclass(frozen=True)
class CheckRequest:
    """Bob's step-5 message: chosen group indices with his fragments."""

    kind: ClassVar[str] = "check_request"
    sender: ClassVar[str] = "bob"
    indices: tuple[int, ...]
    fragments: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sender": self.sender,
            "payload": {"indices": list(self.indices), "fragments": list(self.fragments)},
        }


@dataclass(frozen=True)
class VerdictMessage:
    """Alice's comparison result; any mismatch aborts the key."""

    kind: ClassVar[str] = "verdict"
    sender: ClassVar[str] = "alice"
    accept: bool
    mismatched: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sender": self.sender,
            "payload": {"accept": self.accept, "mismatched_groups": list(self.mismatched)},
        }


ClassicalMessage = Union[MeasuredAnnouncement, CheckRequest, VerdictMessage]


@dataclass
class SessionState:
    """Everything one running session owns; mutated in place by the steps."""

    config: SessionConfig
    adversary: AdversaryStrategy
    groups: list[GroupRecord]
    channels: list[GroupChannels]
    honest_rng: np.random.Generator
    eve_rng: np.random.Generator
    transcript: list[ClassicalMessage] = field(default_factory=list)
    alice_measured: bool = False
    bob_measured: bool = False
    checks_selected: bool = False
    verdict_issued: bool = False


@dataclass
class SessionReport:
    """Final session outcome plus the full wire transcript."""

    verdict: str
    alice_key: str
    bob_key: str
    keys_equal: bool
    mismatched_groups: tuple[int, ...]
    groups: list[GroupRecord]
    transcript: list[ClassicalMessage]
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


def setup_session(
    config: SessionConfig,
    adversary: AdversaryStrategy | None = None,
    seed_seq: np.random.SeedSequence | None = None,
) -> SessionState:
    """Create the pair registry and materialize physical states per group.

    The parties record the DECLARED pair states; whatever the adversary
    actually put on the channel lives only in the group channels.
    """
    adversary = adversary if adversary is not None else NoEve()
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(config.seed)
    honest_ss, eve_ss = seed_seq.spawn(2)
    declared = declared_pair_states(config)
    pairs = [(declared[2 * i], declared[2 * i + 1]) for i in range(config.n_groups)]
    groups = [GroupRecord(i, a, b) for i, (a, b) in enumerate(pairs)]
    return SessionState(
        config=config,
        adversary=adversary,
        groups=groups,
        channels=corrupt_channels(adversary, pairs),
        honest_rng=np.random.default_rng(honest_ss),
        eve_rng=np.random.default_rng(eve_ss),
    )


def alice_measure(state: SessionState) -> MeasuredAnnouncement:
    """Step 1-3: Alice swaps every group, stores her fragment, announces."""
    if state.alice_measured:
        raise ProtocolOrderError("Alice already measured")
    for g, ch in zip(state.groups, state.channels):
        outcome = ch.measure(ch.alice, state.honest_rng)
        inferred_bob = swap_partner(g.pair_a_state, g.pair_b_state, outcome)
        g.alice_outcome = outcome
        g.alice_fragment = group_key_fragment(outcome, inferred_bob, g.group_index)
    state.alice_measured = True
    announcement = MeasuredAnnouncement(n_groups=state.config.n_groups)
    state.transcript.append(announcement)
    return announcement


def bob_measure(state: SessionState, announcement: MeasuredAnnouncement) -> None:
    """Step 4: Bob swaps his qubits and infers Alice's outcomes."""
    if not state.alice_measured:
        raise ProtocolOrderError("Bob cannot measure before Alice's announcement")
    if announcement.n_groups != state.config.n_groups:
        raise ProtocolOrderError("announcement does not match this session")
    if state.bob_measured:
        raise ProtocolOrderError("Bob already measured")
    for g, ch in zip(state.groups, state.channels):
        outcome = ch.measure(ch.bob, state.honest_rng)
        inferred_alice = swap_partner(g.pair_a_state, g.pair_b_state, outcome)
        g.bob_outcome = outcome
        g.bob_fragment = group_key_fragment(inferred_alice, outcome, g.group_index)
    state.bob_measured = True


def bob_select_checks(state: SessionState) -> CheckRequest:
    """Step 5a: Bob publishes the fragments of a random subset of groups."""
    if not (state.alice_measured and state.bob_measured):
        raise ProtocolOrderError("check selection requires both parties measured")
    if state.checks_selected:
        raise ProtocolOrderError("checks already selected")
    n = state.config.n_groups
    picked = state.honest_rng.choice(n, size=state.config.k_checked, replace=False)
    indices = tuple(sorted(int(i) for i in picked))
    for i in indices:
        state.groups[i].checked = True
    request = CheckRequest(
        indices=indices,
        fragments=tuple(state.groups[i].bob_fragment.bits for i in indices),
    )
    state.checks_selected = True
    state.transcript.append(request)
    return request


def alice_verify(state: SessionState, request: CheckRequest) -> VerdictMessage:
    """Step 5b: Alice compares Bob's published fragments with her own."""
    if not state.checks_selected:
        raise ProtocolOrderError("no check request to verify")
    if state.verdict_issued:
        raise ProtocolOrderError("verdict already issued")
    mismatched = []
    for i, bits in zip(request.indices, request.fragments):
        if not 0 <= i < state.config.n_groups:
            raise ProtocolOrderError(f"check index {i} out of range")
        if state.groups[i].alice_fragment.bits != bits:
            mismatched.append(i)
    verdict = VerdictMessage(accept=not mismatched, mismatched=tuple(mismatched))
    state.verdict_issued = True
    state.transcript.append(verdict)
    return verdict


def finalize_key(state: SessionState, verdict: VerdictMessage) -> SessionReport:
    """Assemble the report; on accept the key is the unchecked fragments."""
    if not state.verdict_issued:
        raise ProtocolOrderError("cannot finalize before the verdict")
    if verdict.accept:
        alice_key = "".join(g.alice_fragment.bits for g in state.groups if not g.checked)
        bob_key = "".join(g.bob_fragment.bits for g in state.groups if not g.checked)
    else:
        alice_key = bob_key = ""
    return SessionReport(
        verdict="accept" if verdict.accept else "abort",
        alice_key=alice_key,
        bob_key=bob_key,
        keys_equal=alice_key == bob_key,
        mismatched_groups=verdict.mismatched,
        groups=state.groups,
        transcript=state.transcript,
        config=state.config,
        adversary_kind=state.adversary.kind,
    )


def run_session(
    config: SessionConfig,
    adversary: AdversaryStrategy | None = None,
    seed_seq: np.random.SeedSequence | None = None,
) -> SessionReport:
    """One full session: setup, measurements, checking, verdict, key."""
    state = setup_session(config, adversary, seed_seq)
    announcement = alice_measure(state)
    eve_measure(state.adversary, state.channels, "after_alice", state.eve_rng)
    bob_measure(state, announcement)
    eve_measure(state.adversary, state.channels, "after_bob", state.eve_rng)
    request = bob_select_checks(state)
    verdict = alice_verify(state, request)
    report = finalize_key(state, verdict)
    report.eve = eve_guess_key(state.adversary, state.groups, state.eve_rng)
    return report
