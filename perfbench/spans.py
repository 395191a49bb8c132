"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into each layer by swapping a module
attribute for a timing wrapper at the module where the caller looks the
name up (``entswap.adversary.measure_bell`` is what ``GroupChannels.measure``
calls, so that is the attribute wrapped).  Nothing inside the program is
edited; ``uninstall`` puts every original function back.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index of
the enclosing span or -1.  The benchmark is single-threaded, so a plain
stack gives the parent.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

_clock = time.perf_counter


def _kind(strategy) -> str:
    return getattr(strategy, "kind", "none") if strategy is not None else "none"


def _qubits(args, kwargs, result) -> dict:
    sv = args[0] if args else kwargs.get("sv")
    return {"q": getattr(sv, "num_qubits", 0)}


def _strategy_kind(args, kwargs, result) -> dict:
    return {"kind": _kind(args[0] if args else kwargs.get("strategy"))}


def _session(args, kwargs, result) -> dict:
    adversary = args[1] if len(args) > 1 else kwargs.get("adversary")
    groups = getattr(result, "groups", [])
    accepted = getattr(result, "verdict", "") == "accept"
    return {
        "kind": _kind(adversary),
        "groups": len(groups),
        "key_groups": sum(not g.checked for g in groups) if accepted else 0,
    }


def _no_attrs(args, kwargs, result) -> None:
    return None


# (module, attribute, span name, attrs from (args, kwargs, result)).
# Each attribute is the binding the caller actually looks up.
INSTRUMENTED = (
    ("entswap.cli", "main", "cli.main", _no_attrs),
    ("entswap.cli", "monte_carlo", "stats.monte_carlo", _no_attrs),
    ("entswap.stats", "monte_carlo", "stats.monte_carlo", _no_attrs),
    ("entswap.stats", "analytic_detection", "stats.analytic", _no_attrs),
    ("entswap.stats", "analytic_eve_key", "stats.analytic", _no_attrs),
    ("entswap.stats", "run_session", "protocol.run_session", _session),
    ("entswap.protocol", "run_session", "protocol.run_session", _session),
    ("entswap.protocol", "corrupt_channels", "adversary.corrupt_channels", _strategy_kind),
    ("entswap.protocol", "eve_measure", "adversary.eve_measure", _strategy_kind),
    ("entswap.protocol", "eve_guess_key", "adversary.eve_guess_key", _strategy_kind),
    ("entswap.protocol", "swap_partner", "bell.swap_partner", _no_attrs),
    ("entswap.protocol", "group_key_fragment", "bell.group_key_fragment", _no_attrs),
    ("entswap.adversary", "swap_partner", "bell.swap_partner", _no_attrs),
    ("entswap.adversary", "group_key_fragment", "bell.group_key_fragment", _no_attrs),
    ("entswap.adversary", "measure_bell", "statevector.measure_bell", _qubits),
    ("entswap.stats", "project_bell", "statevector.project_bell", _qubits),
    ("workloads", "report_json", "protocol.report_json", _no_attrs),
)


class SpanRecorder:
    """Records spans while installed; ``take`` hands them over and resets."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, attrs_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = _clock()
                stack.pop()
                span[4] = attrs_of(args, kwargs, result)

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("span recorder already installed")
        for module_name, attr, name, attrs_of in INSTRUMENTED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs_of))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self) -> list[list]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total (inclusive) seconds, self seconds."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["s"] += span[2] - span[1]
        row["self_s"] += own
    return dict(table)


def nearest(spans: list[list], index: int, name: str) -> int:
    """Index of the closest enclosing span called ``name``, or -1."""
    parent = spans[index][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent
