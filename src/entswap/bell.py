"""Finite algebra of the four Bell states.

README's "Python API" section states the public algebra once: a
``BellIndex`` is its 2-bit ordinal, ``swap_partner`` is XOR on (phase,
parity), and the codebook maps each state to its wire bits.  Under XOR the
four states form a Klein four-group, and entanglement swapping is its law:
the unmeasured pair lands in ``init_a XOR init_b XOR measured``.  The
codebook is NOT linear in these bits, so the codec is a fixed lookup table
rather than arithmetic.  ``FRAGMENTS`` applies the swap rule and the
codebook once, as the whole fragment each party writes for each outcome;
sessions, Eve's guess and the class tables all read it.  :class:`Record` is
the JSON rule of the wire messages and reports: fields in order, tuples as
lists.
"""

from __future__ import annotations

import enum

# (phase, parity) of each ordinal
_BITS = ((0, 0), (1, 0), (0, 1), (1, 1))


class BellIndex(enum.IntEnum):
    """One of the four Bell states, valued by its canonical ordinal.

    phase: 0 for the "+" superposition sign, 1 for "-".
    parity: 0 for the correlated |00>/|11> family (phi), 1 for the
        anti-correlated |01>/|10> family (psi).

    The value is ``phase | parity << 1``, so definition order (phi+, phi-,
    psi+, psi-) is the canonical order used wherever a distribution over
    outcomes is indexed or sampled.  ``BellIndex((phase, parity))`` builds
    a state from its bits.
    """

    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3

    @classmethod
    def _missing_(cls, bits):
        return cls(_BITS.index(bits)) if bits in _BITS else None

    @property
    def phase(self) -> int:
        return self & 1

    @property
    def parity(self) -> int:
        return self >> 1

    @property
    def ordinal(self) -> int:
        """Position in the canonical (phi+, phi-, psi+, psi-) order."""
        return int(self)

    def __str__(self) -> str:
        return BELL_NAMES[self]

    # an IntEnum formats as its int; f-strings print the report name
    __format__ = enum.Enum.__format__


BELL_ORDER: tuple[BellIndex, ...] = tuple(BellIndex)

# each state's report name, indexed by its ordinal
BELL_NAMES = ("phi+", "phi-", "psi+", "psi-")
_BY_NAME = dict(zip(BELL_NAMES, BELL_ORDER))

# Wire codebook: phi+, psi-, psi+, phi- encode as 00, 01, 10, 11.
_ENCODE = ("00", "11", "10", "01")

# FRAGMENTS[a ^ b][o] is (as Alice, as Bob): the whole fragments a party that
# measured o writes in a group declared (a, b), whose peer measured a ^ b ^ o by
# the swap rule; Alice's outcome is encoded first.  Every record shares these 32
# strings, and a check mismatches iff Alice's [0] is not Bob's [1].
FRAGMENTS: tuple[tuple[tuple[str, str], ...], ...] = tuple(
    tuple((_ENCODE[o] + _ENCODE[x ^ o], _ENCODE[x ^ o] + _ENCODE[o]) for o in range(4)) for x in range(4)
)


class Record:
    """A dataclass whose JSON object is its fields in order, tuples as lists."""

    def to_json_dict(self) -> dict:
        return {key: list(v) if isinstance(v, tuple) else v for key, v in vars(self).items()}


def bell_by_name(name: str) -> BellIndex:
    """Look up a Bell state by its report name ("phi+", "phi-", "psi+", "psi-")."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown Bell state name: {name!r}") from None


def swap_partner(init_a: BellIndex, init_b: BellIndex, measured: BellIndex) -> BellIndex:
    """Bell state of the unmeasured pair after an entanglement swap.

    Given two pairs prepared in ``init_a`` and ``init_b`` and a Bell
    measurement outcome ``measured`` on one qubit from each pair, the two
    leftover qubits collapse to ``init_a XOR init_b XOR measured``.  The
    relation is an involution in its last argument, so both parties use
    this same function to infer the peer's outcome from their own.
    """
    return BELL_ORDER[init_a ^ init_b ^ measured]


def encode_bits(b: BellIndex) -> str:
    """Encode a Bell state as its two classical key bits."""
    return _ENCODE[b]


def group_key_fragment(alice_outcome: BellIndex, bob_outcome: BellIndex) -> str:
    """The four key bits one group contributes, Alice's outcome encoded first."""
    return encode_bits(alice_outcome) + encode_bits(bob_outcome)
