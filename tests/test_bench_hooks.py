"""The program bindings the benchmark in ``perfbench/`` hooks into.

The traced benchmark wraps module attributes listed in
``perfbench/spans.py``'s ``INSTRUMENTED``, and ``perfbench/run.py`` checks
each session's ``measure_bell`` calls against ``MEASURES_PER_GROUP``.  A
renamed binding or a changed call count would only show as a refused
benchmark run; these tests name it here.  ``spans.py`` is loaded by path (it
imports only the standard library); ``run.py`` is read with ``ast``, since
importing it sets BLAS environment variables.  Each test skips when the
benchmark no longer defines the name it reads.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import entswap.adversary
from entswap.adversary import STRATEGY_KINDS, make_strategy
from entswap.protocol import RandomKnown, SessionConfig, run_session

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GROUPS = 5


def _instrumented():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    if not hasattr(spans, "INSTRUMENTED"):
        pytest.skip("perfbench/spans.py defines no INSTRUMENTED")
    return spans.INSTRUMENTED


def _measures_per_group():
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "MEASURES_PER_GROUP" for t in node.targets):
            return ast.literal_eval(node.value)
    pytest.skip("perfbench/run.py defines no MEASURES_PER_GROUP")


def test_every_instrumented_binding_resolves():
    hooks = [(module, attr) for module, attr, *_ in _instrumented() if module.startswith("entswap.")]
    assert hooks
    missing = [f"{module}.{attr}" for module, attr in hooks if not hasattr(importlib.import_module(module), attr)]
    assert not missing, missing


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_measure_bell_calls_per_group(kind, monkeypatch):
    expected = _measures_per_group()[kind]
    measure_bell, calls = entswap.adversary.measure_bell, []

    def counted(*args, **kwargs):
        calls.append(None)
        return measure_bell(*args, **kwargs)

    monkeypatch.setattr(entswap.adversary, "measure_bell", counted)
    layout = make_strategy(kind)
    pairs = {} if layout.phi_only else {"pair_states": RandomKnown(seed=1)}
    run_session(SessionConfig(n_groups=GROUPS, **pairs), layout)
    assert len(calls) == expected * GROUPS
