"""Command-line front end.

Subcommands:

* ``run``          one full session: report JSON, or a CSV table with one
                   row per group whose columns are the group JSON keys,
                   plus a summary line
* ``attack``       one Monte Carlo batch for a chosen adversary
* ``sweep``        adversary batches over a k = 1..k_checked grid,
                   CSV summary plus per-point JSON files
* ``oracle-check`` simulator self-checks (swap rule vs oracle, outcome
                   uniformity, entangler structure), pass/fail table

Exit codes are a stable contract: 0 success/accept, 1 I/O failure,
2 usage error, 3 session aborted, 4 oracle check failed, 5 internal error
(any unexpected exception inside the program, not a user mistake).

Options resolve as: built-in defaults, then the ``--config`` file, then
explicit flags.  One table, ``_OPTIONS``, states each shared option once:
its flag, its built-in value and its help; ``--help`` shows each built-in
value from it.  The config file is flat ``key = value`` text whose keys
are the same names (``groups = 16``); unknown keys are rejected,
and the flags' own argparse actions type and check its values.
``ENTSWAP_SEED`` supplies the seed when ``--seed`` is absent.  All output
is a deterministic function of the resolved options.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .adversary import STRATEGY_KINDS, UnsupportedAttackError, make_strategy
from .bell import BELL_ORDER, BellIndex, bell_by_name, swap_partner
from .protocol import (
    MAX_GROUPS, AllPhiPlus, FixedList, PairStatePolicy, RandomKnown, SessionConfig, run_session
)
from .statevector import identify_bell, outcome_distribution, project_bell
from .stats import SWEEP_CSV_HEADER, joint_table, monte_carlo, monte_carlo_sweep, sweep_csv_row

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_ABORT = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5

_DIST_ATOL = 1e-9

# encoder tokens per report write: a few tens of kB
_JSON_BATCH = 1 << 13


class CliUsageError(Exception):
    """Bad flag/file values; maps to exit code 2."""


def _int_in(flag: str, low: int, high: float = math.inf):
    """An argparse type for an int in [low, high].  Its range error is a
    CliUsageError, which argparse passes on, so the caller names the source."""

    def int_in(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            bound = f"at least {low}" if value < low else f"at most {high}"
            raise CliUsageError(f"{flag} must be {bound}, got {value}")
        return value

    int_in.__name__ = "int"  # argparse's "invalid int value" message names it
    return int_in


def _fraction(text: str) -> float:
    """An argparse type for --check-fraction, a float in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:  # nan fails too
        raise CliUsageError(f"--check-fraction must be in (0, 1], got {text}")
    return value


_fraction.__name__ = "float"


def _pair_states(text: str) -> str:
    """An argparse type for --pair-states: checks its syntax, keeps the text,
    since a bare 'random' takes the session seed once that is resolved."""
    parse_pair_states(text, 0)
    return text


# The options run, attack and sweep share, in --help order: each one's built-in
# value (None for none) and its argparse settings.  --help shows the built-in
# value, and the config file takes the same names as keys.
_OPTIONS = {
    "groups": (
        16, dict(type=_int_in("--groups", 1, MAX_GROUPS), help=f"groups per session, at most {MAX_GROUPS}")
    ),
    "check-fraction": (0.5, dict(type=_fraction, help="fraction of groups sacrificed to checking")),
    "adversary": ("none", dict(choices=STRATEGY_KINDS, help="channel adversary")),
    "trials": (1000, dict(type=_int_in("--trials", 1), help="Monte Carlo trials")),
    "seed": (None, dict(type=_int_in("--seed", 0), help="RNG seed (default: $ENTSWAP_SEED, else 0)")),
    "pair-states": (
        "phi+",
        dict(type=_pair_states, help="declared pair states: phi+, random[:SEED] or a comma list of 2n names"),
    ),
    "out": (None, dict(help="output file (directory for sweep)")),
    "format": (
        "json",
        dict(choices=("json", "csv", "both"), help="output format for run/attack; sweep always writes both"),
    ),
}
_DEFAULTS = {name: default for name, (default, _) in _OPTIONS.items()}


@dataclass(frozen=True)
class CliConfig:
    session: SessionConfig
    adversary: str
    trials: int
    out: str | None
    format: str


@lru_cache(maxsize=None)
def _options_parser() -> argparse.ArgumentParser:
    """The options run, attack and sweep share, built once.  It also types and
    checks the config file's values, so it raises instead of exiting."""
    shared = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    for name, (default, settings) in _OPTIONS.items():
        suffix = "" if default is None else f" (default {default})"
        shared.add_argument(f"--{name}", **dict(settings, help=settings["help"] + suffix))
    shared.add_argument("--config", help="flat key = value options file")
    return shared


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: a rebuild per ``main`` call costs
    more than a small Monte Carlo batch and leaves cyclic garbage."""
    parser = argparse.ArgumentParser(
        prog="entswap",
        description="Simulate an entanglement-swapping key agreement protocol and its adversaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = [_options_parser()]
    sub.add_parser("run", parents=shared, help="run one session end to end")
    sub.add_parser("attack", parents=shared, help="Monte Carlo batch for one adversary")
    sub.add_parser("sweep", parents=shared, help="batches over k = 1..k_checked")
    sub.add_parser("oracle-check", help="simulator self-checks")
    return parser


def parse_config_file(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines, ``#`` comments; keys mirror flag names,
    each at most once."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliUsageError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _DEFAULTS:
            raise CliUsageError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise CliUsageError(f"line {lineno}: empty value for {key!r}")
        if key in values:
            raise CliUsageError(f"lines {first_line[key]} and {lineno}: {key!r} is set twice")
        values[key], first_line[key] = value, lineno
    return values


def _config_values(path: str) -> argparse.Namespace:
    """The config file's values, typed and checked by the flags' own actions."""
    # utf-8-sig: a byte-order mark some editors write is not part of the first key
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise CliUsageError(f"config file {path} is not UTF-8 text") from exc
    try:
        # the "=" form keeps a value such as "-x.json" a value
        tokens = [f"--{key}={value}" for key, value in parse_config_file(text).items()]
        return _options_parser().parse_args(tokens)
    except (CliUsageError, argparse.ArgumentError) as exc:
        raise CliUsageError(f"config file {path}: {exc}") from exc


def parse_pair_states(text: str, session_seed: int) -> PairStatePolicy:
    """A --pair-states value as its policy; the list length is checked by
    SessionConfig, since a --groups flag can make a config file's list right."""
    if text == "phi+":
        return AllPhiPlus()
    if text == "random":
        return RandomKnown(seed=session_seed)
    if text.startswith("random:"):
        try:
            return RandomKnown(seed=_int_in("random pair-state seed", 0)(text.partition(":")[2]))
        except ValueError as exc:
            raise CliUsageError(f"bad random pair-state seed in {text!r}") from exc
    try:
        return FixedList(tuple(bell_by_name(name.strip()) for name in text.split(",")))
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc


def resolve_options(args: argparse.Namespace) -> CliConfig:
    """Layer defaults, config file, then explicit flags."""
    in_file = _config_values(args.config) if args.config is not None else argparse.Namespace()
    merged = {}
    for key, default in _DEFAULTS.items():
        dest = key.replace("-", "_")
        flag, filed = getattr(args, dest), getattr(in_file, dest, None)
        merged[key] = flag if flag is not None else filed if filed is not None else default

    seed = merged["seed"]
    if seed is None:
        env = os.environ.get("ENTSWAP_SEED")
        if env is not None:
            try:
                seed = _int_in("ENTSWAP_SEED", 0)(env)
            except ValueError as exc:
                raise CliUsageError(f"ENTSWAP_SEED is not an integer: {env!r}") from exc
        else:
            seed = 0

    try:
        session = SessionConfig(
            n_groups=merged["groups"],
            pair_states=parse_pair_states(merged["pair-states"], seed),
            check_fraction=merged["check-fraction"],
            seed=seed,
        )
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    return CliConfig(
        session=session,
        adversary=merged["adversary"],
        trials=merged["trials"],
        out=merged["out"],
        format=merged["format"],
    )


def _write_json(handle, payload: dict) -> None:
    """``json.dump(payload, handle, indent=2)`` and a newline, with the encoder's
    tokens joined ``_JSON_BATCH`` at a time: one write per token is one system
    call on an unbuffered stdout."""
    tokens = json.JSONEncoder(indent=2).iterencode(payload)
    while batch := "".join(islice(tokens, _JSON_BATCH)):
        handle.write(batch)
    handle.write("\n")


def _write_csv(handle, header, rows) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _csv_cell(value) -> str:
    """A report JSON value as a CSV cell: booleans 1/0."""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _write(path: str, writer, *args) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer(handle, *args)


def _emit(options: CliConfig, summary: str, payload: dict, header, rows) -> None:
    """Write the report straight to --out as json/csv/both (or to stdout for a
    single format), rendering only the formats written, then the summary
    line: to stdout, or to stderr when the report itself went there."""
    reports = {"json": (_write_json, payload), "csv": (_write_csv, header, rows)}
    if options.out is None:
        writer, *args = reports[options.format]
        writer(sys.stdout, *args)
        print(summary, file=sys.stderr)
        return
    if options.format == "both":
        base = os.path.splitext(options.out)[0]
        for fmt in ("json", "csv"):
            _write(f"{base}.{fmt}", *reports[fmt])
    else:
        _write(options.out, *reports[options.format])
    print(summary)


def cmd_run(options: CliConfig) -> int:
    report = run_session(options.session, make_strategy(options.adversary))
    summary = (
        f"run: verdict={report.verdict} key_bits={len(report.alice_key)} "
        f"keys_equal={str(report.keys_equal).lower()} adversary={options.adversary} "
        f"seed={options.session.seed}"
    )
    payload = report.to_json_dict()
    groups = payload["groups"]  # the CSV rows are the group JSON, encoded once
    rows = ([_csv_cell(value) for value in g.values()] for g in groups)
    _emit(options, summary, payload, list(groups[0]), rows)
    return EXIT_OK if report.verdict == "accept" else EXIT_ABORT


def cmd_attack(options: CliConfig) -> int:
    report = monte_carlo(
        options.session, kind=options.adversary, trials=options.trials, seed=options.session.seed
    )
    summary = (
        f"attack: strategy={report.strategy} trials={report.trials} "
        f"detection={report.detection_rate:.6f} analytic={report.analytic_detection:.6f}"
    )
    _emit(options, summary, report.to_json_dict(), SWEEP_CSV_HEADER, [sweep_csv_row(report)])
    return EXIT_OK


def cmd_sweep(options: CliConfig) -> int:
    """One batch per k = 1..k_checked, drawn as one sweep; CSV summary plus per-point JSON."""
    session, k_max = options.session, options.session.k_checked
    reports = monte_carlo_sweep(session, options.adversary, range(1, k_max + 1), options.trials, session.seed)
    os.makedirs(options.out, exist_ok=True)  # after the draw, so a refused sweep leaves no directory
    for report in reports:
        point_path = os.path.join(options.out, f"{options.adversary}_k{report.k_checked}.json")
        _write(point_path, _write_json, report.to_json_dict())
        print(
            f"sweep: k={report.k_checked} detection={report.detection_rate:.6f} "
            f"analytic={report.analytic_detection:.6f}"
        )
    csv_path = os.path.join(options.out, "sweep.csv")
    _write(csv_path, _write_csv, SWEEP_CSV_HEADER, [sweep_csv_row(report) for report in reports])
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
    swap_failures = []
    worst = 0.0
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            sv = make_strategy("none").declared_systems(a, b)["main"]  # what sessions measure
            worst = max(worst, float(abs(outcome_distribution(sv, "1", "3") - 0.25).max()))
            for m in BELL_ORDER:
                for measured, remote in ((("1", "3"), ("2", "4")), (("2", "3"), ("1", "4"))):
                    found = identify_bell(project_bell(sv, *measured, m)[1], *remote)
                    want = swap_partner(a, b, m)
                    if found is not want:
                        swap_failures.append(
                            f"({a},{b},{m}) split {measured}: oracle {found} != rule {want}"
                        )
    ghz_fail = next(_entangler_failures(joint_table("type2")), "")
    return [
        (
            "swap rule vs oracle, 64 triples x 2 splits",
            not swap_failures,
            swap_failures[0] if swap_failures else "128/128 match",
        ),
        (
            "outcome uniformity, 16 initial pairs",
            worst < _DIST_ATOL,
            f"max |p - 1/4| = {worst:.3e}",
        ),
        (
            "entangler conditional structure (bob 1/2+1/2, eve paired)",
            not ghz_fail,
            ghz_fail or "all 4 alice branches confirmed",
        ),
    ]


def cmd_oracle_check() -> int:
    rows = oracle_check_rows()
    width = max(len(name) for name, _, _ in rows)
    all_ok = True
    for name, ok, detail in rows:
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    print(f"oracle-check: {'all checks passed' if all_ok else 'FAILURES above'}")
    return EXIT_OK if all_ok else EXIT_ORACLE


_DISPATCH = {"run": cmd_run, "attack": cmd_attack, "sweep": cmd_sweep}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "oracle-check":  # takes no options
            return cmd_oracle_check()
        options = resolve_options(args)
        if options.out is None:  # output-target usage errors come before any work
            if args.command == "sweep":
                raise CliUsageError("sweep writes multiple files; --out DIRECTORY is required")
            if options.format == "both":
                raise CliUsageError("--format both requires --out")
        elif not (options.out if args.command == "sweep" else os.path.basename(options.out)):
            raise CliUsageError(f"--out {options.out!r} names no file")
        return _DISPATCH[args.command](options)
    except (CliUsageError, UnsupportedAttackError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        # options are validated before dispatch, so anything else is a program fault
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
