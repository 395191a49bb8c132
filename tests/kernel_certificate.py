"""Certify the binomial kernel's thresholds against numpy's.

Usage: PYTHONPATH=src python tests/kernel_certificate.py

``stats._settle`` counts a replayed double u against the thresholds
``stats._inversion_table`` computes, and hands any u within ``_TOL`` of one to
numpy.  So it returns numpy's count for every double iff each computed
threshold lies within ``_TOL`` of numpy's own.  ``tests/test_stream_contract.py``
checks that outcome at the ends of each band of doubles ``_settle`` decides;
this script measures the margin.  Over the kernel's domain, as
``test_stream_contract._kernel_domain`` derives it, it finds each of numpy's
thresholds by bisection on the 53-bit grid of ``random()`` doubles (53 numpy
calls a threshold), prints the worst gap, and exits 1 naming the first
(n, p, x) whose threshold lies past ``_TOL``.  Its name keeps pytest from
collecting it: it takes seconds, where the stream-contract tests take one.
"""

import sys

from entswap import stats
from test_stream_contract import _GRID, _kernel_domain, _numpy_count


def numpy_threshold(n: int, p: float, x: int) -> int:
    """The least k whose double k / 2**53 numpy counts past x or draws again at,
    or 2**53 where there is none."""
    lo, hi = 0, _GRID
    while lo < hi:
        mid = (lo + hi) // 2
        count = _numpy_count(n, p, mid)
        if count is None or count > x:
            hi = mid
        else:
            lo = mid + 1
    return lo


def main() -> int:
    checked, worst, at = 0, 0.0, None
    for n, p in _kernel_domain():
        for x, t in enumerate(stats._inversion_table(n, p)[1]):
            numpys = numpy_threshold(n, p, x) / _GRID
            gap, checked = abs(t - numpys), checked + 1
            if gap > stats._TOL:
                print(f"(n, p, x) = ({n}, {p!r}, {x}): threshold {t!r}, numpy's {numpys!r}, gap {gap:.3g} > _TOL")
                return 1
            if gap >= worst:
                worst, at = gap, (n, p, x)
    print(f"{checked} thresholds within _TOL = {stats._TOL:g} of numpy's; worst gap {worst:.3g} at (n, p, x) = {at}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
