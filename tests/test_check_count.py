"""The number of checked groups is exact for every fraction a user or sweep passes."""

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
