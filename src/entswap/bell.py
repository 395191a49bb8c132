"""Finite algebra of the four Bell states.

The four states form a Klein four-group under component-wise XOR of their
(phase, parity) bits, and entanglement swapping is literally that XOR: the
unmeasured pair lands in ``init_a XOR init_b XOR measured``.  The classical
wire encoding is NOT linear in these bits, so the codec is a fixed lookup
table rather than arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class BellIndex(enum.Enum):
    """One of the four Bell states, as a (phase, parity) bit pair.

    phase: 0 for the "+" superposition sign, 1 for "-".
    parity: 0 for the correlated |00>/|11> family (phi), 1 for the
        anti-correlated |01>/|10> family (psi).

    Definition order (phi+, phi-, psi+, psi-) is the canonical order used
    wherever a distribution over outcomes is indexed or sampled.
    """

    PHI_PLUS = (0, 0)
    PHI_MINUS = (1, 0)
    PSI_PLUS = (0, 1)
    PSI_MINUS = (1, 1)

    @property
    def phase(self) -> int:
        return self.value[0]

    @property
    def parity(self) -> int:
        return self.value[1]

    @property
    def ordinal(self) -> int:
        """Position in the canonical (phi+, phi-, psi+, psi-) order."""
        return _ORDINALS[self]

    def __str__(self) -> str:
        return _NAMES[self]


BELL_ORDER: tuple[BellIndex, ...] = tuple(BellIndex)

_ORDINALS = {b: i for i, b in enumerate(BELL_ORDER)}

_NAMES = {
    BellIndex.PHI_PLUS: "phi+",
    BellIndex.PHI_MINUS: "phi-",
    BellIndex.PSI_PLUS: "psi+",
    BellIndex.PSI_MINUS: "psi-",
}
_BY_NAME = {name: b for b, name in _NAMES.items()}

# Wire codebook: phi+, psi-, psi+, phi- encode as 00, 01, 10, 11.
_ENCODE = {
    BellIndex.PHI_PLUS: "00",
    BellIndex.PSI_MINUS: "01",
    BellIndex.PSI_PLUS: "10",
    BellIndex.PHI_MINUS: "11",
}
_DECODE = {bits: b for b, bits in _ENCODE.items()}


def bell_by_name(name: str) -> BellIndex:
    """Look up a Bell state by its report name ("phi+", "phi-", "psi+", "psi-")."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown Bell state name: {name!r}") from None


# The group table: two dict lookups instead of an enum lookup by value per call.
_XOR = {
    x: {y: BellIndex((x.phase ^ y.phase, x.parity ^ y.parity)) for y in BELL_ORDER}
    for x in BELL_ORDER
}


def bell_xor(x: BellIndex, y: BellIndex) -> BellIndex:
    """Group law: component-wise XOR of (phase, parity).

    phi+ is the identity and every element is its own inverse.
    """
    return _XOR[x][y]


def swap_partner(init_a: BellIndex, init_b: BellIndex, measured: BellIndex) -> BellIndex:
    """Bell state of the unmeasured pair after an entanglement swap.

    Given two pairs prepared in ``init_a`` and ``init_b`` and a Bell
    measurement outcome ``measured`` on one qubit from each pair, the two
    leftover qubits collapse to ``init_a XOR init_b XOR measured``.  The
    relation is an involution in its last argument, so both parties use
    this same function to infer the peer's outcome from their own.
    """
    return bell_xor(bell_xor(init_a, init_b), measured)


def encode_bits(b: BellIndex) -> str:
    """Encode a Bell state as its two classical key bits."""
    return _ENCODE[b]


def decode_bits(bits: str) -> BellIndex:
    """Inverse of :func:`encode_bits`."""
    try:
        return _DECODE[bits]
    except KeyError:
        raise ValueError(f"not a Bell codeword: {bits!r}") from None


@dataclass(frozen=True)
class KeyFragment:
    """The four key bits one group contributes: Alice's outcome first."""

    bits: str
    group_index: int

    def __post_init__(self) -> None:
        if len(self.bits) != 4 or set(self.bits) - {"0", "1"}:
            raise ValueError(f"fragment must be 4 bits, got {self.bits!r}")
        if self.group_index < 0:
            raise ValueError("group_index must be non-negative")


def group_key_fragment(
    alice_outcome: BellIndex, bob_outcome: BellIndex, group_index: int
) -> KeyFragment:
    """Assemble a group's key fragment, Alice's outcome encoded first."""
    return KeyFragment(encode_bits(alice_outcome) + encode_bits(bob_outcome), group_index)
