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
immutable, so the Born probabilities of a pair's four Bell outcomes and the
collapsed state of each branch are fixed by (state, pair, branch).  The
first ``measure_bell``/``project_bell`` on a pair builds every live branch
of it, its outcome and its collapsed child, into the state's private
cache, and every later one is a lookup plus the one ``rng.random()`` draw.
This is exact: the draw is compared against the very float64 sums
``np.cumsum`` produced, and the cached child is the object the first
computation built, so outcomes, RNG streams and amplitudes are bit for bit
those of an uncached measurement.  It is bounded: a cache holds every live
branch of each measured pair, so under a root state it is a tree as deep
as the measurements made on it (at most 1 + 4 + 4 nodes per honest group
system), and it is freed with its root.  The cache takes no part in
equality or ``repr``.  A branch below ``MIN_FORCED_PROB`` is rounding
noise; ``live_outcomes`` lists the rest, the only outcomes ``measure_bell``
draws, ``project_bell`` conditions on and ``identify_bell`` names, so no
caller restates the bound.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .bell import BELL_ORDER, BellIndex

MAX_QUBITS = 12
NORM_ATOL = 1e-9
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
    """One Bell measurement of one pair of one state, built whole.

    ``cum`` holds the float64 cumulative sums of ``probs`` as ``np.cumsum``
    gives them, with every branch below ``MIN_FORCED_PROB`` counted as zero,
    and ``+inf`` from the last branch at or above it on.  A branch below it
    is rounding noise that no table keeps and ``project_bell`` refuses, so
    no draw takes it: its interval is empty, and every draw in [0, 1) at or
    above the last finite sum takes the last live branch.
    ``children[k]`` is live branch k's outcome and collapsed state; a branch
    of rounding noise has None.
    """

    probs: tuple[float, float, float, float]
    cum: tuple[float, float, float, float]
    children: tuple[tuple[BellIndex, StateVector] | None, ...]


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable unit-norm amplitude vector over labeled qubits.

    The amplitudes are a private read-only copy of what the caller passed,
    so neither the state nor its cached branches change behind its back.
    Two states are equal when their labels and amplitudes are.
    """

    amplitudes: np.ndarray
    labels: tuple[str, ...]
    # measured pair (qubit_i, qubit_j) -> its branches; see the module docstring
    _branches: dict[tuple[str, str], _Branches] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        amps = np.array(self.amplitudes, dtype=complex)
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
        if not abs(norm - 1.0) <= NORM_ATOL:  # a NaN norm fails too
            raise ValueError(f"state norm {norm} is not 1 within {NORM_ATOL}")
        amps.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.amplitudes, other.amplitudes)

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown qubit label {label!r}; have {self.labels}") from None


def make_bell(index: BellIndex, label_i: str, label_j: str) -> StateVector:
    """Two-qubit Bell state (|0 b> + (-1)^a |1 b~>)/sqrt(2) on the given labels."""
    return StateVector(_bell_amplitudes(index), (label_i, label_j))


def make_ghz3(label_i: str, label_j: str, label_k: str) -> StateVector:
    """Three-qubit GHZ state (|000> + |111>)/sqrt(2)."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = _INV_SQRT2
    return StateVector(amps, (label_i, label_j, label_k))


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
        live = probs >= MIN_FORCED_PROB
        cum = np.cumsum(np.where(live, probs, 0.0))
        cum[np.flatnonzero(live)[-1] :] = np.inf
        probs = tuple(probs.tolist())
        children = tuple(
            (b, _collapse(sv, pi, pj, k, comps, probs[k])) if live[k] else None
            for k, b in enumerate(BELL_ORDER)
        )
        branches = _Branches(probs, tuple(cum.tolist()), children)
        sv._branches[(qubit_i, qubit_j)] = branches
    return branches


def live_outcomes(sv: StateVector, qubit_i: str, qubit_j: str) -> tuple[BellIndex, ...]:
    """The pair's live Bell outcomes in canonical order: exactly those ``project_bell`` conditions on."""
    return tuple(child[0] for child in _pair_branches(sv, qubit_i, qubit_j).children if child)


def outcome_distribution(sv: StateVector, qubit_i: str, qubit_j: str) -> np.ndarray:
    """Born probabilities of the four Bell outcomes on a pair, canonical order."""
    return np.array(_pair_branches(sv, qubit_i, qubit_j).probs)


def measure_bell(
    sv: StateVector, qubit_i: str, qubit_j: str, rng: np.random.Generator
) -> tuple[BellIndex, StateVector]:
    """Sample a Bell measurement on the pair and collapse the full state.

    Returns the outcome and the collapsed state.  Deterministic given the
    rng state; repeating on the already-collapsed pair returns the same
    outcome with probability 1.  Sampling is inverse CDF in canonical order
    and draws exactly one ``rng.random()``.
    """
    # a session measures the same prepared systems group after group: look the cache up here
    branches = sv._branches.get((qubit_i, qubit_j)) or _pair_branches(sv, qubit_i, qubit_j)
    return branches.children[bisect_right(branches.cum, rng.random())]


def project_bell(
    sv: StateVector, qubit_i: str, qubit_j: str, outcome: BellIndex
) -> tuple[float, StateVector]:
    """Condition on a given Bell outcome instead of sampling it.

    Returns (probability of that branch, renormalized collapsed state).
    Used for exhaustive table checks that must not depend on sampling luck.
    """
    branches = _pair_branches(sv, qubit_i, qubit_j)
    prob, child = branches.probs[outcome.ordinal], branches.children[outcome.ordinal]
    if child is None:
        raise ValueError(f"outcome {outcome} has probability {prob}; cannot condition on it")
    return prob, child[1]


def identify_bell(sv: StateVector, qubit_i: str, qubit_j: str) -> BellIndex | None:
    """The Bell state the pair is in, or None if it is in no pure Bell state.

    Identification ignores global phase: the pair qualifies exactly when
    it has one live outcome, so that a Bell measurement of it can give only
    that outcome, by the ``MIN_FORCED_PROB`` rule of ``measure_bell`` and
    ``project_bell``.  On every state the layouts build, the other branches
    of a swapped pair carry ~1e-33.  Only a hand-made state whose other
    branches hold between ``MIN_FORCED_PROB`` and 1e-9 reads differently
    from a near-certainty rule at 1e-9: it is in no Bell state here.
    """
    live = live_outcomes(sv, qubit_i, qubit_j)
    return live[0] if len(live) == 1 else None


def sample_outcome_ordinals(
    sv: StateVector, qubit_i: str, qubit_j: str, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Vectorized iid draws of Bell outcomes on a freshly prepared pair.

    Equivalent to measuring `size` independent copies of the state; the
    per-copy collapse is skipped because only the outcomes are wanted.
    """
    return np.searchsorted(_pair_branches(sv, qubit_i, qubit_j).cum, rng.random(size), side="right")
