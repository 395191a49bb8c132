"""Bell-index algebra, codebook, and key fragments."""

import pytest

from entswap.bell import (
    BELL_ORDER,
    BellIndex,
    bell_by_name,
    encode_bits,
    group_key_fragment,
    swap_partner,
)


def test_canonical_order_and_ordinals():
    assert BELL_ORDER == (
        BellIndex.PHI_PLUS,
        BellIndex.PHI_MINUS,
        BellIndex.PSI_PLUS,
        BellIndex.PSI_MINUS,
    )
    assert [s.ordinal for s in BELL_ORDER] == [0, 1, 2, 3]


def test_phase_parity_components():
    assert (BellIndex.PHI_PLUS.phase, BellIndex.PHI_PLUS.parity) == (0, 0)
    assert (BellIndex.PHI_MINUS.phase, BellIndex.PHI_MINUS.parity) == (1, 0)
    assert (BellIndex.PSI_PLUS.phase, BellIndex.PSI_PLUS.parity) == (0, 1)
    assert (BellIndex.PSI_MINUS.phase, BellIndex.PSI_MINUS.parity) == (1, 1)
    for b in BELL_ORDER:
        assert BellIndex((b.phase, b.parity)) is b
    with pytest.raises(ValueError):
        BellIndex((2, 0))


def test_names_round_trip():
    for state in BELL_ORDER:
        assert bell_by_name(str(state)) is state
    assert str(BellIndex.PHI_PLUS) == "phi+"
    assert str(BellIndex.PSI_MINUS) == "psi-"
    for state in BELL_ORDER:
        # formatting prints the report name, not the ordinal
        assert f"{state}" == str(state)
        assert format(state, ">5") == f"{str(state):>5}"


def test_bell_by_name_rejects_unknown():
    with pytest.raises(ValueError):
        bell_by_name("sigma+")
    with pytest.raises(ValueError):
        bell_by_name("")


def test_xor_is_klein_four_group():
    # swap_partner(x, y, phi+) is the group law x XOR y
    phi = BellIndex.PHI_PLUS

    def xor(x, y):
        return swap_partner(x, y, phi)

    for a in BELL_ORDER:
        assert xor(a, a) is phi  # every element self-inverse
        assert xor(a, phi) is a  # phi+ is the identity
        for b in BELL_ORDER:
            assert xor(a, b) is xor(b, a)
            for c in BELL_ORDER:
                assert xor(xor(a, b), c) is xor(a, xor(b, c))


def test_swap_partner_is_componentwise_xor():
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            for m in BELL_ORDER:
                partner = swap_partner(a, b, m)
                assert partner.phase == a.phase ^ b.phase ^ m.phase
                assert partner.parity == a.parity ^ b.parity ^ m.parity


def test_swap_partner_worked_examples():
    phi_p, phi_m = BellIndex.PHI_PLUS, BellIndex.PHI_MINUS
    psi_p, psi_m = BellIndex.PSI_PLUS, BellIndex.PSI_MINUS
    # both pairs phi+: the remote pair mirrors the measured outcome
    for m in BELL_ORDER:
        assert swap_partner(phi_p, phi_p, m) is m
    # phi+ x psi+ with outcome psi+ leaves the remote pair in phi+
    assert swap_partner(phi_p, psi_p, psi_p) is phi_p
    assert swap_partner(phi_p, psi_p, phi_p) is psi_p
    # phi+ x psi- keeps the psi- offset
    assert swap_partner(phi_p, psi_m, phi_p) is psi_m
    assert swap_partner(phi_p, psi_m, psi_m) is phi_p
    assert swap_partner(phi_p, psi_m, phi_m) is psi_p


def test_swap_partner_bijective_in_outcome():
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            partners = {swap_partner(a, b, m) for m in BELL_ORDER}
            assert partners == set(BELL_ORDER)


def test_codebook_values():
    assert encode_bits(BellIndex.PHI_PLUS) == "00"
    assert encode_bits(BellIndex.PSI_MINUS) == "01"
    assert encode_bits(BellIndex.PSI_PLUS) == "10"
    assert encode_bits(BellIndex.PHI_MINUS) == "11"


def test_codebook_round_trip():
    # four distinct 2-bit codewords, so a fragment names its outcome
    codewords = {encode_bits(state) for state in BELL_ORDER}
    assert codewords == {"00", "01", "10", "11"}


def test_group_key_fragment_orders_alice_first():
    assert group_key_fragment(BellIndex.PSI_PLUS, BellIndex.PHI_MINUS) == "1011"
    assert group_key_fragment(BellIndex.PHI_PLUS, BellIndex.PSI_MINUS) == "0001"
