"""Command-line front end.

Subcommands:

* ``run``          one full session, report JSON plus a summary line
* ``attack``       one Monte Carlo batch for a chosen adversary
* ``sweep``        adversary batches over a k = 1..k_checked grid,
                   CSV summary plus per-point JSON files
* ``oracle-check`` exhaustive simulator self-checks, pass/fail table

Exit codes are a stable contract: 0 success/accept, 1 I/O failure,
2 usage error, 3 session aborted, 4 oracle check failed, 5 internal error
(a broken invariant, not a user mistake).

Options resolve as: built-in defaults, then the ``--config`` file, then
explicit flags.  The config file is flat ``key = value`` text whose keys
mirror the long flag names (``groups = 16``); unknown keys are rejected.
``ENTSWAP_SEED`` supplies the seed when ``--seed`` is absent.  All output
is a deterministic function of the resolved options.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

from .adversary import STRATEGY_KINDS, UnsupportedAttackError, make_strategy
from .bell import BELL_ORDER, BellIndex, bell_by_name, swap_partner
from .protocol import AllPhiPlus, FixedList, PairStatePolicy, RandomKnown, SessionConfig, run_session
from .statevector import identify_bell, make_bell, outcome_distribution, project_bell, tensor
from .stats import SWEEP_CSV_HEADER, joint_table, monte_carlo, sweep_csv_row

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_ABORT = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5

_DEFAULTS = {
    "groups": 16,
    "check-fraction": 0.5,
    "adversary": "none",
    "trials": 1000,
    "pair-states": "phi+",
    "format": "json",
    "out": None,
    "seed": None,
}

_DIST_ATOL = 1e-9

# Upper bound on --groups.  A `run` of this many groups takes ~3 s and
# ~300 MB; numpy's hypergeometric draw fails outright from 10^9 groups.
MAX_GROUPS = 100_000


class CliUsageError(Exception):
    """Bad flag/file values; maps to exit code 2."""


@dataclass(frozen=True)
class CliConfig:
    command: str
    session: SessionConfig
    adversary: str
    trials: int
    out: str | None
    format: str
    seed: int


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: a rebuild per ``main`` call costs
    more than a small Monte Carlo batch and leaves cyclic garbage."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--groups", type=int, default=None, help=f"groups per session (default 16, at most {MAX_GROUPS})"
    )
    shared.add_argument(
        "--check-fraction",
        type=float,
        default=None,
        help="fraction of groups sacrificed to checking (default 0.5)",
    )
    shared.add_argument(
        "--adversary",
        choices=STRATEGY_KINDS,
        default=None,
        help="channel adversary (default none)",
    )
    shared.add_argument("--trials", type=int, default=None, help="Monte Carlo trials (default 1000)")
    shared.add_argument(
        "--seed", type=int, default=None, help="RNG seed (default: $ENTSWAP_SEED, else 0)"
    )
    shared.add_argument(
        "--pair-states",
        default=None,
        help="declared pair states: 'phi+', 'random[:SEED]', or a comma list of 2n names",
    )
    shared.add_argument("--out", default=None, help="output file (directory for sweep)")
    shared.add_argument(
        "--format",
        choices=("json", "csv", "both"),
        default=None,
        help="output format for run/attack (default json); sweep always writes both",
    )
    shared.add_argument("--config", default=None, help="flat key = value options file")

    parser = argparse.ArgumentParser(
        prog="entswap",
        description="Simulate an entanglement-swapping key agreement protocol and its adversaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[shared], help="run one session end to end")
    sub.add_parser("attack", parents=[shared], help="Monte Carlo batch for one adversary")
    sub.add_parser("sweep", parents=[shared], help="batches over k = 1..k_checked")
    sub.add_parser("oracle-check", parents=[shared], help="simulator self-checks")
    return parser


def parse_config_file(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines, ``#`` comments; keys mirror flag names."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliUsageError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS:
            raise CliUsageError(f"config line {lineno}: unknown key {key!r}")
        if not value:
            raise CliUsageError(f"config line {lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _coerce(key: str, value, lineno_hint: str = "config") -> object:
    """Coerce a raw string from the config file to the flag's type."""
    if not isinstance(value, str):
        return value
    try:
        if key in ("groups", "trials", "seed"):
            return int(value)
        if key == "check-fraction":
            return float(value)
    except ValueError as exc:
        raise CliUsageError(f"{lineno_hint}: bad value for {key!r}: {value!r}") from exc
    if key == "adversary" and value not in STRATEGY_KINDS:
        raise CliUsageError(f"{lineno_hint}: unknown adversary {value!r}")
    if key == "format" and value not in ("json", "csv", "both"):
        raise CliUsageError(f"{lineno_hint}: unknown format {value!r}")
    return value


def parse_pair_states(text: str, n_groups: int, session_seed: int) -> PairStatePolicy:
    if text == "phi+":
        return AllPhiPlus()
    if text == "random":
        return RandomKnown(seed=session_seed)
    if text.startswith("random:"):
        try:
            return RandomKnown(seed=int(text.partition(":")[2]))
        except ValueError as exc:
            raise CliUsageError(f"bad random pair-state seed in {text!r}") from exc
    try:
        states = tuple(bell_by_name(name.strip()) for name in text.split(","))
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    if len(states) != 2 * n_groups:
        raise CliUsageError(
            f"pair-state list needs {2 * n_groups} entries for {n_groups} groups, got {len(states)}"
        )
    return FixedList(states)


def resolve_options(args: argparse.Namespace) -> CliConfig:
    """Layer defaults, config file, then explicit flags."""
    merged = dict(_DEFAULTS)
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise CliUsageError(f"config file {args.config} is not UTF-8 text") from exc
        file_values = parse_config_file(text)
        for key, value in file_values.items():
            merged[key] = _coerce(key, value, f"config file {args.config}")
    flag_values = {
        "groups": args.groups,
        "check-fraction": args.check_fraction,
        "adversary": args.adversary,
        "trials": args.trials,
        "seed": args.seed,
        "pair-states": args.pair_states,
        "out": args.out,
        "format": args.format,
    }
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value

    seed = merged["seed"]
    if seed is None:
        env = os.environ.get("ENTSWAP_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError as exc:
                raise CliUsageError(f"ENTSWAP_SEED is not an integer: {env!r}") from exc
        else:
            seed = 0
    if merged["trials"] < 1:
        raise CliUsageError("--trials must be at least 1")
    if merged["groups"] > MAX_GROUPS:
        raise CliUsageError(f"--groups must be at most {MAX_GROUPS}, got {merged['groups']}")

    try:
        session = SessionConfig(
            n_groups=merged["groups"],
            pair_states=parse_pair_states(merged["pair-states"], merged["groups"], seed),
            check_fraction=merged["check-fraction"],
            seed=seed,
        )
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    return CliConfig(
        command=args.command,
        session=session,
        adversary=merged["adversary"],
        trials=merged["trials"],
        out=merged["out"],
        format=merged["format"],
        seed=seed,
    )


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(options: CliConfig, json_text: str, csv_text: str | None) -> None:
    """Write json/csv/both to --out (or stdout for a single format)."""
    fmt = options.format
    if fmt == "csv" and csv_text is None:
        raise CliUsageError(f"{options.command} has no CSV representation")
    if options.out is None:
        if fmt == "both":
            raise CliUsageError("--format both requires --out")
        sys.stdout.write(json_text if fmt == "json" else csv_text)
        return
    base, ext = os.path.splitext(options.out)
    if fmt == "json":
        targets = [(options.out, json_text)]
    elif fmt == "csv":
        targets = [(options.out, csv_text)]
    else:
        targets = [(base + ".json", json_text), (base + ".csv", csv_text)]
    for path, text in targets:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _group_csv_rows(report) -> list[list[str]]:
    rows = []
    for g in report.groups:
        d = g.to_json_dict()
        rows.append(
            [
                str(d["group_index"]),
                d["pair_a_state"],
                d["pair_b_state"],
                d["alice_outcome"] or "",
                d["bob_outcome"] or "",
                d["alice_fragment"] or "",
                d["bob_fragment"] or "",
                "1" if d["checked"] else "0",
            ]
        )
    return rows


_GROUP_CSV_HEADER = (
    "group_index",
    "pair_a_state",
    "pair_b_state",
    "alice_outcome",
    "bob_outcome",
    "alice_fragment",
    "bob_fragment",
    "checked",
)


def cmd_run(options: CliConfig) -> int:
    report = run_session(options.session, make_strategy(options.adversary))
    summary = (
        f"run: verdict={report.verdict} key_bits={len(report.alice_key)} "
        f"keys_equal={str(report.keys_equal).lower()} adversary={options.adversary} "
        f"seed={options.seed}"
    )
    json_text = _json_text(report.to_json_dict())
    csv_text = _csv_text(_GROUP_CSV_HEADER, _group_csv_rows(report))
    _emit(options, json_text, csv_text)
    # keep stdout machine-readable when the report itself goes there
    stream = sys.stdout if options.out is not None else sys.stderr
    print(summary, file=stream)
    return EXIT_OK if report.verdict == "accept" else EXIT_ABORT


def cmd_attack(options: CliConfig) -> int:
    report = monte_carlo(
        options.session, kind=options.adversary, trials=options.trials, seed=options.seed
    )
    summary = (
        f"attack: strategy={report.strategy} trials={report.trials} "
        f"detection={report.detection_rate:.6f} analytic={report.analytic_detection:.6f}"
    )
    json_text = _json_text(report.to_json_dict())
    csv_text = _csv_text(SWEEP_CSV_HEADER, [sweep_csv_row(report)])
    _emit(options, json_text, csv_text)
    stream = sys.stdout if options.out is not None else sys.stderr
    print(summary, file=stream)
    return EXIT_OK


def cmd_sweep(options: CliConfig) -> int:
    """One batch per k = 1..k_checked; CSV summary plus per-point JSON."""
    if options.out is None:
        raise CliUsageError("sweep writes multiple files; --out DIRECTORY is required")
    n = options.session.n_groups
    k_max = options.session.k_checked
    os.makedirs(options.out, exist_ok=True)
    rows = []
    for k in range(1, k_max + 1):
        # fraction chosen so the check count lands exactly on k
        session = SessionConfig(
            n_groups=n,
            pair_states=options.session.pair_states,
            check_fraction=(k - 0.5) / n,
            seed=options.seed,
        )
        report = monte_carlo(session, kind=options.adversary, trials=options.trials, seed=options.seed)
        rows.append(sweep_csv_row(report))
        point_path = os.path.join(options.out, f"{options.adversary}_k{k}.json")
        with open(point_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(_json_text(report.to_json_dict()))
        print(
            f"sweep: k={k} detection={report.detection_rate:.6f} "
            f"analytic={report.analytic_detection:.6f}"
        )
    csv_path = os.path.join(options.out, "sweep.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_csv_text(SWEEP_CSV_HEADER, rows))
    print(f"sweep: wrote {csv_path} and {k_max} point files")
    return EXIT_OK


def _entangler_failures(table):
    """Deviations of the entangler's joint table from its paired structure.

    Alice is uniform; given her outcome Bob lands 1/2 + 1/2 on her parity
    family; given both, Eve's outcome is the pair (phase XOR, Alice's parity).
    """

    def mass(*prefix):
        return sum((p for key, p in table.items() if key[: len(prefix)] == prefix), 0.0)

    for a in BELL_ORDER:
        p_a = mass(a)
        if abs(p_a - 0.25) > _DIST_ATOL:
            yield f"alice {a} probability {p_a:.6f} != 1/4"
            continue
        for b in BELL_ORDER:
            expected = 0.5 if b.parity == a.parity else 0.0
            p_ab = mass(a, b)
            if abs(p_ab / p_a - expected) > _DIST_ATOL:
                yield f"bob {b} given alice {a}: {p_ab / p_a:.6f} != {expected}"
            elif expected:
                paired = BellIndex((a.phase ^ b.phase, a.parity))
                p_e = mass(a, b, paired) / p_ab
                if abs(p_e - 1.0) > _DIST_ATOL:
                    yield f"eve given alice {a}, bob {b}: p({paired}) = {p_e:.6f}"


def oracle_check_rows() -> list[tuple[str, bool, str]]:
    """All simulator self-checks as (name, passed, detail) rows."""
    rows = []

    failures = []
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            sv = tensor(make_bell(a, "1", "2"), make_bell(b, "3", "4"))
            for m in BELL_ORDER:
                for measured, remote in ((("1", "3"), ("2", "4")), (("2", "3"), ("1", "4"))):
                    _, collapsed = project_bell(sv, measured[0], measured[1], m)
                    found = identify_bell(collapsed, remote[0], remote[1])
                    want = swap_partner(a, b, m)
                    if found is not want:
                        failures.append(f"({a},{b},{m}) split {measured}: oracle {found} != rule {want}")
    rows.append(
        (
            "swap rule vs oracle, 64 triples x 2 splits",
            not failures,
            failures[0] if failures else "128/128 match",
        )
    )

    worst = 0.0
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            sv = tensor(make_bell(a, "1", "2"), make_bell(b, "3", "4"))
            probs = outcome_distribution(sv, "1", "3")
            worst = max(worst, float(abs(probs - 0.25).max()))
    rows.append(
        (
            "outcome uniformity, 16 initial pairs",
            worst < _DIST_ATOL,
            f"max |p - 1/4| = {worst:.3e}",
        )
    )

    ghz_fail = next(_entangler_failures(joint_table("type2")), "")
    rows.append(
        (
            "entangler conditional structure (bob 1/2+1/2, eve paired)",
            not ghz_fail,
            ghz_fail or "all 4 alice branches confirmed",
        )
    )

    spot_sv = tensor(
        make_bell(BellIndex.PHI_PLUS, "1", "2"), make_bell(BellIndex.PSI_PLUS, "3", "4")
    )
    _, spot_state = project_bell(spot_sv, "1", "3", BellIndex.PSI_PLUS)
    spot_found = identify_bell(spot_state, "2", "4")
    rows.append(
        (
            "spot check: phi+ x psi+, outcome psi+ leaves phi+",
            spot_found is BellIndex.PHI_PLUS,
            f"remote pair identified as {spot_found}",
        )
    )
    return rows


def cmd_oracle_check(options: CliConfig) -> int:
    rows = oracle_check_rows()
    width = max(len(name) for name, _, _ in rows)
    all_ok = True
    for name, ok, detail in rows:
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    print(f"oracle-check: {'all checks passed' if all_ok else 'FAILURES above'}")
    return EXIT_OK if all_ok else EXIT_ORACLE


_DISPATCH = {
    "run": cmd_run,
    "attack": cmd_attack,
    "sweep": cmd_sweep,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        options = resolve_options(args)
        return _DISPATCH[args.command](options)
    except (CliUsageError, UnsupportedAttackError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # options are validated before dispatch, so this is a program fault
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
