"""The number of checked groups is exact for every fraction a user or sweep passes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from entswap import protocol
from entswap.protocol import SessionConfig

MAX_GROUPS = 100


def _k(n: int, fraction: float) -> int:
    return SessionConfig(n_groups=n, check_fraction=fraction).k_checked


def test_check_count_is_exact_on_three_grids():
    wrong = []
    for n in range(1, MAX_GROUPS + 1):
        for p in range(1, 101):
            # smallest k with k / n >= p / 100, in integers
            want = max(1, -(-p * n // 100))
            if _k(n, p / 100) != want:
                wrong.append(("p/100", n, p, _k(n, p / 100), want))
        for k in range(1, n + 1):
            if _k(n, k / n) != k:
                wrong.append(("k/n", n, k, _k(n, k / n), k))
            # the fractions entswap sweep uses for each point
            if _k(n, (k - 0.5) / n) != k:
                wrong.append(("(k-0.5)/n", n, k, _k(n, (k - 0.5) / n), k))
    assert wrong == []


def test_check_count_examples():
    assert _k(25, 0.28) == 7
    assert _k(50, 0.14) == 7
    assert _k(100, 0.07) == 7
    assert _k(6, 5 / 6) == 5
    assert _k(4, 0.01) == 1
    assert _k(7, 1.0) == 7


@st.composite
def _shape(draw) -> tuple[int, int, int]:
    n = draw(st.integers(1, protocol.MAX_GROUPS))
    q = draw(st.integers(1, protocol.MAX_GROUPS))
    return n, draw(st.integers(1, q)), q


@settings(max_examples=500, deadline=None, database=None)
@given(shape=_shape())
def test_check_count_is_exact_at_every_session_size(shape):
    # the float p / q stands for the ratio p:q, as a user or sweep means it; its own
    # exact value may exceed p / q (0.1 does), so Fraction(p / q) is not the reference
    n, p, q = shape
    assert _k(n, p / q) == max(1, -(-p * n // q))
