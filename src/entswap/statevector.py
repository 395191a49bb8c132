"""Dense statevector oracle with Bell-basis projective measurement.

This is the ground-truth engine: it builds Bell/GHZ states, tensors them,
and performs Born-rule Bell measurements on arbitrary labeled qubit pairs.
The swap algebra in :mod:`entswap.bell` is validated against it, and the
channel-sharing adversary can only be simulated honestly through it.

Qubit ordering convention (defined here and nowhere else): amplitude index
bit k, counting from the MOST significant bit, belongs to ``labels[k]``.
All pair projections are computed by moving the two designated bit axes to
the front of the amplitude tensor.

Measurement sampling is inverse-CDF over the four outcome probabilities in
the canonical Bell order (phi+, phi-, psi+, psi-), so seeded runs are
reproducible bit for bit.

Measurements are memoized on the state they act on.  A ``StateVector`` is
immutable, so the Bell components of a pair, their Born probabilities and
the collapsed state of each branch are fixed by (state, pair, branch); each
state keeps them in a private cache the first time they are asked for, and
every later ``measure_bell``/``project_bell`` on that pair is a lookup plus
the one ``rng.random()`` draw.  This is exact: the draw is compared against
the very float64 sums ``np.cumsum`` produced, and the cached record and
child are the objects the first computation built, so outcomes, RNG streams
and amplitudes are bit for bit those of an uncached measurement.  It is
bounded: a cache only holds branches that were drawn or projected, so under
a root state it is a tree as deep as the measurements made on it (at most
1 + 4 + 4 nodes per honest group system), and it is freed with its root.
The cache takes no part in equality, ``repr`` or ``to_json_dict``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .bell import BELL_ORDER, BellIndex

MAX_QUBITS = 12
NORM_ATOL = 1e-9
IDENTIFY_ATOL = 1e-9
MIN_FORCED_PROB = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _bell_amplitudes(index: BellIndex) -> np.ndarray:
    # (|0 b> + (-1)^a |1 b~>) / sqrt(2) for index (a, b)
    amps = np.zeros(4, dtype=complex)
    a, b = index.phase, index.parity
    amps[b] = _INV_SQRT2
    amps[2 + (1 - b)] = (-1.0) ** a * _INV_SQRT2
    return amps


# Rows in canonical Bell order; columns over the pair basis |00>,|01>,|10>,|11>.
_BELL_MATRIX = np.array([_bell_amplitudes(b) for b in BELL_ORDER])


@dataclass
class _Branches:
    """One Bell measurement of one pair of one state, computed once.

    ``cum`` holds the float64 cumulative sums of ``probs`` as ``np.cumsum``
    gives them, and ``last`` is the last outcome with nonzero probability.
    ``drawn[k]`` is filled the first time branch k is drawn or projected:
    its measurement record and its collapsed state.
    """

    positions: tuple[int, int]
    components: np.ndarray
    probs: tuple[float, float, float, float]
    cum: tuple[float, float, float, float]
    last: int
    drawn: list = field(default_factory=lambda: [None] * 4)


@dataclass(frozen=True)
class StateVector:
    """Immutable unit-norm amplitude vector over labeled qubits."""

    amplitudes: np.ndarray
    labels: tuple[str, ...]
    # measured pair (qubit_i, qubit_j) -> its branches; see the module docstring
    _branches: dict[tuple[str, str], _Branches] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)
        n = len(labels)
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count {n} outside 1..{MAX_QUBITS}")
        if len(set(labels)) != n:
            raise ValueError(f"duplicate qubit labels in {labels}")
        if amps.shape != (2**n,):
            raise ValueError(f"expected {2**n} amplitudes, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm} is not 1 within {NORM_ATOL}")
        amps.setflags(write=False)

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown qubit label {label!r}; have {self.labels}") from None

    def to_json_dict(self) -> dict:
        """Debug dump: label list plus [re, im] pairs."""
        return {
            "labels": list(self.labels),
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }


@dataclass(frozen=True)
class MeasurementRecord:
    """One Bell measurement: the pair, the sampled outcome, and its Born weights."""

    qubit_i: str
    qubit_j: str
    outcome: BellIndex
    probabilities: tuple[float, float, float, float]


def make_bell(index: BellIndex, label_i: str, label_j: str) -> StateVector:
    """Two-qubit Bell state (|0 b> + (-1)^a |1 b~>)/sqrt(2) on the given labels."""
    return StateVector(_bell_amplitudes(index), (label_i, label_j))


def make_ghz3(label_i: str, label_j: str, label_k: str) -> StateVector:
    """Three-qubit GHZ state (|000> + |111>)/sqrt(2)."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = _INV_SQRT2
    return StateVector(amps, (label_i, label_j, label_k))


def computational_state(bits: str, labels: Iterable[str]) -> StateVector:
    """Computational basis state |bits> with bits[k] on labels[k]."""
    labels = tuple(labels)
    if len(bits) != len(labels):
        raise ValueError("bit string length must match label count")
    amps = np.zeros(2 ** len(labels), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(amps, labels)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; labels concatenate a-then-b."""
    if set(a.labels) & set(b.labels):
        raise ValueError(f"label sets overlap: {set(a.labels) & set(b.labels)}")
    if a.num_qubits + b.num_qubits > MAX_QUBITS:
        raise ValueError(f"tensor would exceed {MAX_QUBITS} qubits")
    return StateVector(np.kron(a.amplitudes, b.amplitudes), a.labels + b.labels)


def _pair_positions(sv: StateVector, qubit_i: str, qubit_j: str) -> tuple[int, int]:
    if qubit_i == qubit_j:
        raise ValueError(f"measurement pair must be two distinct qubits, got {qubit_i!r} twice")
    return sv.position(qubit_i), sv.position(qubit_j)


def _bell_components(sv: StateVector, pi: int, pj: int) -> np.ndarray:
    """Overlap of the state with each Bell projector on the pair at (pi, pj).

    Row k holds the residual amplitudes on the remaining qubits after
    contracting the pair against Bell state k; its squared norm is the
    Born probability of outcome k.
    """
    n = sv.num_qubits
    t = sv.amplitudes.reshape((2,) * n)
    t = np.moveaxis(t, (pi, pj), (0, 1)).reshape(4, -1)
    return _BELL_MATRIX.conj() @ t


def _collapse(
    sv: StateVector, pi: int, pj: int, k: int, components: np.ndarray, prob: float
) -> StateVector:
    block = np.outer(_BELL_MATRIX[k], components[k] / math.sqrt(prob))
    n = sv.num_qubits
    t = block.reshape((2, 2) + (2,) * (n - 2))
    t = np.moveaxis(t, (0, 1), (pi, pj))
    return StateVector(t.ravel(), sv.labels)


def _pair_branches(sv: StateVector, qubit_i: str, qubit_j: str) -> _Branches:
    branches = sv._branches.get((qubit_i, qubit_j))
    if branches is None:
        pi, pj = _pair_positions(sv, qubit_i, qubit_j)
        comps = _bell_components(sv, pi, pj)
        probs = (np.abs(comps) ** 2).sum(axis=1)
        # a zero-probability branch has a zero-width interval and is never drawn
        last = int(np.max(np.nonzero(probs > 0.0)[0]))
        branches = _Branches(
            (pi, pj), comps, tuple(probs.tolist()), tuple(np.cumsum(probs).tolist()), last
        )
        sv._branches[(qubit_i, qubit_j)] = branches
    return branches


def _branch(
    sv: StateVector, qubit_i: str, qubit_j: str, branches: _Branches, k: int
) -> tuple[MeasurementRecord, StateVector]:
    drawn = branches.drawn[k]
    if drawn is None:
        record = MeasurementRecord(qubit_i, qubit_j, BELL_ORDER[k], branches.probs)
        pi, pj = branches.positions
        child = _collapse(sv, pi, pj, k, branches.components, branches.probs[k])
        drawn = branches.drawn[k] = (record, child)
    return drawn


def outcome_distribution(sv: StateVector, qubit_i: str, qubit_j: str) -> np.ndarray:
    """Born probabilities of the four Bell outcomes on a pair, canonical order."""
    return np.array(_pair_branches(sv, qubit_i, qubit_j).probs)


def measure_bell(
    sv: StateVector, qubit_i: str, qubit_j: str, rng: np.random.Generator
) -> tuple[MeasurementRecord, StateVector]:
    """Sample a Bell measurement on the pair and collapse the full state.

    Deterministic given the rng state; repeating on the already-collapsed
    pair returns the same outcome with probability 1.  Sampling is inverse
    CDF in canonical order and draws exactly one ``rng.random()``.
    """
    branches = _pair_branches(sv, qubit_i, qubit_j)
    k = min(bisect_right(branches.cum, rng.random()), branches.last)
    return _branch(sv, qubit_i, qubit_j, branches, k)


def project_bell(
    sv: StateVector, qubit_i: str, qubit_j: str, outcome: BellIndex
) -> tuple[float, StateVector]:
    """Condition on a given Bell outcome instead of sampling it.

    Returns (probability of that branch, renormalized collapsed state).
    Used for exhaustive table checks that must not depend on sampling luck.
    """
    branches = _pair_branches(sv, qubit_i, qubit_j)
    k = outcome.ordinal
    prob = branches.probs[k]
    if prob < MIN_FORCED_PROB:
        raise ValueError(f"outcome {outcome} has probability {prob}; cannot condition on it")
    return prob, _branch(sv, qubit_i, qubit_j, branches, k)[1]


def identify_bell(sv: StateVector, qubit_i: str, qubit_j: str) -> BellIndex | None:
    """The Bell state the pair is in, or None if it is in no pure Bell state.

    Identification ignores global phase: the pair qualifies exactly when
    one Bell outcome carries the full probability mass, i.e. the reduced
    pair state has unit overlap with that Bell state.
    """
    probs = outcome_distribution(sv, qubit_i, qubit_j)
    k = int(np.argmax(probs))
    if probs[k] > 1.0 - IDENTIFY_ATOL:
        return BELL_ORDER[k]
    return None


def sample_outcome_ordinals(
    sv: StateVector, qubit_i: str, qubit_j: str, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Vectorized iid draws of Bell outcomes on a freshly prepared pair.

    Equivalent to measuring `size` independent copies of the state; the
    per-copy collapse is skipped because only the outcomes are wanted.
    """
    branches = _pair_branches(sv, qubit_i, qubit_j)
    k = np.searchsorted(branches.cum, rng.random(size), side="right")
    return np.minimum(k, branches.last)
