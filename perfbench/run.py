"""entswap benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload channel-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` is a separate run that records spans around each layer and
prints the per-layer metrics.  Either way the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results and span dumps also go to ``perfbench/out/``.  See NOTES.md for
what each workload and metric is for.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before anything can import numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (stdlib only; entswap is imported after the source check)
from spans import SpanRecorder, nearest, summarize  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
MAX_REPORTED_ERRORS = 20

# measure_bell calls per simulated group for each adversary kind
MEASURES_PER_GROUP = {"none": 2, "type1": 3, "type2": 3, "type3": 4}

clock = time.perf_counter


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (no .git in checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Tally:
    """Attempted and failed operations, with the first few error messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: MAX_REPORTED_ERRORS - len(self.errors)])


def timed_op(workload, op, work: Path, tally: Tally):
    """Run and check one operation.

    Returns (seconds, outcome) whenever the program call returned, even if
    its output then failed the check; None when the call raised.  Only an
    operation that passed its check counts sessions.
    """
    try:
        start = clock()
        result = workload.run(op, work)
        elapsed = clock() - start
    except Exception as exc:  # a failing operation is counted, not fatal
        tally.record([f"{workload.name} op {op}: {exc!r}"])
        return None
    try:
        outcome = workload.check(op, result, work)
    except Exception as exc:  # malformed output is a failed check
        outcome = workloads.Outcome(errors=[f"{workload.name} op {op}: check raised {exc!r}"])
    tally.record(outcome.errors)
    if outcome.errors:
        outcome.sessions = 0
    return elapsed, outcome


def probe_setup(workload, work: Path, tally: Tally) -> list[float]:
    """Set-up seconds measured in SETUP_PROBES fresh processes."""
    times = []
    for i in range(SETUP_PROBES):
        errors = []
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "probe.py"), "--workload", workload.name,
                 "--work", str(work / f"probe-{i}")],
                cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            )
            if done.returncode != 0:
                errors.append(f"set-up probe exit {done.returncode}: {done.stderr.strip()[-400:]}")
            else:
                times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
        except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
            errors.append(f"set-up probe: {exc!r}")
        tally.record(errors)
    return times


def warm_up(workload, work: Path, tally: Tally) -> None:
    """In-process set-up; a failure is counted and the checked ops still run."""
    try:
        workload.setup(work)
    except Exception as exc:
        tally.record([f"{workload.name} set-up: {exc!r}"])


def run_untraced(workload, seed: int, seconds: float, work: Path, tally: Tally):
    setup_times = probe_setup(workload, work, tally)
    warm_up(workload, work, tally)
    latencies, busy, sessions = [], 0.0, 0
    ops = workloads.seeds(seed)
    deadline = clock() + seconds
    for attempt in itertools.count():
        if attempt >= 2 and clock() >= deadline:
            break
        done = timed_op(workload, next(ops), work, tally)
        if done is not None:
            elapsed, outcome = done
            latencies.append(elapsed)
            busy += elapsed
            sessions += outcome.sessions
    if not setup_times or len(latencies) < 2:
        raise RuntimeError("set-up or too many operations raised; nothing to report")
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "sessions_per_s": (sessions / busy, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1e3 * deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "op_latencies_s": latencies,
        "op_samples": len(latencies),
        "sessions": sessions,
        "busy_s": busy,
        "setup_samples": setup_times,
    }
    return metrics, details


def run_pass(workload, ops, work: Path, tally: Tally) -> tuple[float, int]:
    """One pass over a fixed op list: (seconds inside the program, bytes written)."""
    busy, written = 0.0, 0
    for op in ops:
        done = timed_op(workload, op, work, tally)
        if done is not None:
            busy += done[0]
            written += done[1].bytes_written
    return busy, written


def trace_checks(workload, spans) -> list[str]:
    """Exact-count checks on one traced pass."""
    errors = []
    sessions = {i: s for i, s in enumerate(spans) if s[0] == "protocol.run_session"}
    measured = dict.fromkeys(sessions, 0)
    for i, span in enumerate(spans):
        if span[0] == "statevector.measure_bell":
            owner = nearest(spans, i, "protocol.run_session")
            if owner < 0:
                errors.append("statevector.measure_bell called outside any session")
                break
            measured[owner] += 1
        elif span[0].startswith("adversary.") and span[4]["kind"] not in workload.kinds:
            errors.append(f"{span[0]} ran for adversary {span[4]['kind']}")
            break
    for i, span in sessions.items():
        kind, groups = span[4]["kind"], span[4]["groups"]
        if kind not in workload.kinds:
            errors.append(f"session for adversary {kind} in {workload.name}")
            break
        if measured[i] != MEASURES_PER_GROUP[kind] * groups:
            errors.append(f"{kind} session: {measured[i]} measure_bell calls for {groups} groups")
            break
    if workload.statevector_free and any(s[0].startswith("statevector.") for s in spans):
        errors.append(f"{workload.name} made statevector calls")
    return errors


def pass_metrics(spans, written: int) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    table = summarize(spans)

    def total(name: str, key: str):
        return table.get(name, {}).get(key, 0)

    metrics = {}
    for q in (4, 6):
        sel = [s for s in spans if s[0] == "statevector.measure_bell" and s[4]["q"] == q]
        metrics[f"statevector.measure_bell.q{q}.calls"] = len(sel)
        metrics[f"statevector.measure_bell.q{q}.s"] = sum(s[2] - s[1] for s in sel)
    # computed, not measured: one pass over 2^q complex128 amplitudes per call
    metrics["statevector.bytes_computed"] = sum(
        16 * 2 ** s[4]["q"] for s in spans if s[0].startswith("statevector.")
    )
    sessions = [s[4] for s in spans if s[0] == "protocol.run_session"]
    groups = sum(s["groups"] for s in sessions)
    measures = total("statevector.measure_bell", "calls")
    metrics["statevector.measures_per_group"] = measures / groups if groups else 0.0
    for name in ("bell.swap_partner", "bell.group_key_fragment"):
        metrics[f"{name}.calls"] = total(name, "calls")
        metrics[f"{name}.s"] = total(name, "s")
    for name in ("adversary.corrupt_channels", "adversary.eve_measure", "adversary.eve_guess_key"):
        metrics[f"{name}.s"] = total(name, "s")
    metrics["protocol.run_session.calls"] = len(sessions)
    metrics["protocol.run_session.self_s"] = total("protocol.run_session", "self_s")
    metrics["protocol.report_json.s"] = total("protocol.report_json", "s")
    key_groups = sum(s["key_groups"] for s in sessions)
    metrics["protocol.key_group_ratio"] = key_groups / groups if groups else 0.0
    metrics["stats.monte_carlo.calls"] = total("stats.monte_carlo", "calls")
    metrics["stats.monte_carlo.self_s"] = total("stats.monte_carlo", "self_s")
    metrics["cli.main.self_s"] = total("cli.main", "self_s")
    metrics["cli.bytes_written"] = written
    return metrics


def is_count(name: str) -> bool:
    return name.endswith((".calls", "bytes_computed", "bytes_written", "per_group", "ratio"))


UNITS = {".calls": "count", ".s": "s", "self_s": "s", "bytes_computed": "B", "bytes_written": "B"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ratio"


def run_traced(workload, seed: int, seconds: float, work: Path, tally: Tally):
    recorder = SpanRecorder()
    recorder.install()
    try:
        warm_up(workload, work, tally)
    finally:
        recorder.uninstall()
    setup_spans = recorder.take()
    setup_table = summarize(setup_spans)

    ops = list(itertools.islice(workloads.seeds(seed), workload.trace_ops))
    plain_s, traced_s, per_pass, first_pass = [], [], [], None
    deadline = clock() + seconds
    for pair in itertools.count():
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                recorder.install()
            try:
                busy, written = run_pass(workload, ops, work, tally)
            finally:
                recorder.uninstall()
            if not traced:
                plain_s.append(busy)
                continue
            spans = recorder.take()
            traced_s.append(busy)
            errors = trace_checks(workload, spans)
            per_pass.append(pass_metrics(spans, written))
            if any(per_pass[0][k] != per_pass[-1][k] for k in per_pass[0] if is_count(k)):
                errors.append(f"pass {len(per_pass)} counts differ from pass 1")
            tally.record(errors)
            if first_pass is None:
                first_pass = spans
        if clock() >= deadline:
            break

    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = values[0] if is_count(name) else statistics.median(values)
    metrics["statevector.project_bell.calls"] = setup_table.get("statevector.project_bell", {}).get("calls", 0)
    metrics["statevector.project_bell.s"] = setup_table.get("statevector.project_bell", {}).get("s", 0.0)
    metrics["stats.analytic.s"] = setup_table.get("stats.analytic", {}).get("s", 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)

    self_by_name = {name: row["self_s"] for name, row in summarize(first_pass).items()}
    ranking = sorted(self_by_name, key=self_by_name.get, reverse=True)
    details = {
        "passes": len(per_pass),
        "ops_per_pass": len(ops),
        "self_s_by_span": self_by_name,
        "largest_self_time": ranking[0] if ranking else None,
    }
    dump = {
        "fields": ["name", "start", "end", "parent", "attrs"],
        "setup": setup_spans,
        "first_pass": first_pass,
    }
    (OUT / f"{workload.name}-spans.json").write_text(json.dumps(dump))
    return {name: (value, unit_of(name)) for name, value in metrics.items()}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "entswap" / "__init__.py").is_file():
        print(f"error: no entswap sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entswap

    if Path(entswap.__file__).resolve().parent != SRC / "entswap":
        print(f"error: imported entswap from {entswap.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        run = run_traced if args.trace else run_untraced
        metrics, details = run(workload, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "details": details,
        "errors": tally.errors,
        **result,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    for error in tally.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"env": env, "details": {k: v for k, v in details.items() if k != "op_latencies_s"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
