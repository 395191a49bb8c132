"""CLI surface: option layering, subcommands, exit codes, file outputs."""

import csv
import hashlib
import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entswap import cli
from entswap.cli import (
    CliUsageError,
    EXIT_ABORT,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_USAGE,
    main,
    oracle_check_rows,
    parse_config_file,
)
from entswap.protocol import GroupRecord, SessionConfig, run_session
from entswap.adversary import STRATEGY_KINDS, make_strategy
from entswap.bell import BellIndex, swap_partner
from entswap.stats import SWEEP_CSV_HEADER, joint_table


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("ENTSWAP_SEED", raising=False)


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_unknown_adversary_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--adversary", "type7"])
    assert exc.value.code == EXIT_USAGE


def test_run_defaults_to_json_on_stdout(capsys):
    code = main(["run", "--groups", "4", "--seed", "7"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["verdict"] == "accept"
    assert payload["config"] == {
        "n_groups": 4,
        "check_fraction": 0.5,
        "seed": 7,
        "pair_states": "phi+",
        "adversary": "none",
    }
    assert len(payload["alice_key"]) == 8
    assert payload["keys_equal"] is True


def test_run_summary_goes_to_stderr_when_stdout_is_json(capsys):
    main(["run", "--groups", "4", "--seed", "7"])
    err = capsys.readouterr().err
    assert "verdict=accept" in err and "key_bits=8" in err


def test_run_writes_file_and_prints_summary(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "--groups", "4", "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "run: verdict=accept" in captured.out
    payload = json.loads(out.read_text())
    assert payload["config"]["seed"] == 7


def test_run_abort_exit_code(tmp_path):
    # choose a seed whose replacer session aborts (overwhelmingly likely)
    seed = next(
        s
        for s in range(50)
        if run_session(
            SessionConfig(n_groups=4, check_fraction=1.0, seed=s), make_strategy("type3")
        ).verdict
        == "abort"
    )
    code = main(
        [
            "run",
            "--groups",
            "4",
            "--check-fraction",
            "1.0",
            "--adversary",
            "type3",
            "--seed",
            str(seed),
            "--out",
            str(tmp_path / "abort.json"),
        ]
    )
    assert code == EXIT_ABORT


def test_run_group_table_csv(tmp_path):
    out = tmp_path / "groups.csv"
    code = main(["run", "--groups", "4", "--seed", "7", "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][0] == "group_index"
    assert len(rows) == 1 + 4


def _no_work(*args, **kwargs):
    raise AssertionError("a usage error must come before any work")


def test_format_both_requires_out(monkeypatch):
    # checked before the session or the batch runs, not after
    monkeypatch.setattr(cli, "run_session", _no_work)
    monkeypatch.setattr(cli, "monte_carlo", _no_work)
    assert main(["run", "--groups", "2", "--format", "both"]) == EXIT_USAGE
    assert main(["attack", "--format", "both"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--out", "d/"],
        ["run", "--format", "both", "--out", "d/"],
        ["attack", "--format", "both", "--out", "d/"],
        ["run", "--out", ""],
        ["attack", "--out", ""],
        ["sweep", "--out", ""],
    ],
    ids=" ".join,
)
def test_out_without_a_file_name_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # checked before the session or the batch runs, and nothing is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    monkeypatch.setattr(cli, "run_session", _no_work)
    monkeypatch.setattr(cli, "monte_carlo", _no_work)
    assert main(argv) == EXIT_USAGE
    assert "--out" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["d"]


def test_format_both_writes_two_files(tmp_path):
    base = tmp_path / "attack_report"
    code = main(
        [
            "attack",
            "--adversary",
            "type1",
            "--groups",
            "1",
            "--trials",
            "50",
            "--seed",
            "3",
            "--format",
            "both",
            "--out",
            str(base),
        ]
    )
    assert code == EXIT_OK
    assert (tmp_path / "attack_report.json").exists()
    assert (tmp_path / "attack_report.csv").exists()


def test_io_error_exit_code(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.json"
    code = main(["run", "--groups", "2", "--seed", "1", "--out", str(missing_dir)])
    assert code == EXIT_IO


def test_seed_env_fallback_and_flag_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ENTSWAP_SEED", "41")
    main(["run", "--groups", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["seed"] == 41
    main(["run", "--groups", "2", "--seed", "9"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["seed"] == 9
    for bad in ("not-a-number", "-1"):
        monkeypatch.setenv("ENTSWAP_SEED", bad)
        assert main(["run", "--groups", "2"]) == EXIT_USAGE
        assert "ENTSWAP_SEED" in capsys.readouterr().err, bad


def test_config_file_layering(tmp_path, capsys):
    config = tmp_path / "opts.cfg"
    config.write_text(
        "# sweep shape\n"
        "groups = 3\n"
        "seed = 12\n"
        "check-fraction = 1.0\n"
    )
    code = main(["run", "--config", str(config), "--seed", "4"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    # file sets groups and fraction; the explicit flag wins for the seed
    assert payload["config"]["n_groups"] == 3
    assert payload["config"]["check_fraction"] == 1.0
    assert payload["config"]["seed"] == 4


# A valid value of every option, written the same way in a file and on the
# command line; the resolved option read back from a CliConfig.
OPTION_VALUES = {
    "groups": st.integers(1, 64),
    "check-fraction": st.floats(0.01, 1.0),
    "adversary": st.sampled_from(STRATEGY_KINDS),
    "trials": st.integers(1, 10**6),
    "seed": st.integers(0, 2**32),
    "pair-states": st.one_of(st.just("phi+"), st.integers(0, 999).map(lambda s: f"random:{s}")),
    "out": st.text("abxyz._/", min_size=1, max_size=12),
    "format": st.sampled_from(("json", "csv", "both")),
}
RESOLVED = {
    "groups": lambda c: c.session.n_groups,
    "check-fraction": lambda c: c.session.check_fraction,
    "adversary": lambda c: c.adversary,
    "trials": lambda c: c.trials,
    "seed": lambda c: c.session.seed,
    "pair-states": lambda c: c.session.pair_states.describe(),
    "out": lambda c: c.out,
    "format": lambda c: c.format,
}
# what an option resolves to when neither the file nor a flag sets it
UNSET = {**cli._DEFAULTS, "seed": 0}


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    in_file=st.fixed_dictionaries({}, optional=OPTION_VALUES),
    as_flags=st.fixed_dictionaries({}, optional=OPTION_VALUES),
)
def test_flags_override_the_config_file_which_overrides_defaults(tmp_path, in_file, as_flags):
    assert set(RESOLVED) == set(OPTION_VALUES) == set(cli._DEFAULTS)
    config = tmp_path / "opts.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in in_file.items()))
    argv = ["attack", "--config", str(config)]
    for key, value in as_flags.items():
        argv += [f"--{key}", str(value)]
    resolved = cli.resolve_options(cli.build_parser().parse_args(argv))
    for key, read in RESOLVED.items():
        expected = as_flags.get(key, in_file.get(key, UNSET[key]))
        assert read(resolved) == expected, (key, in_file, as_flags)


def test_config_file_rejects_unknown_and_malformed_keys(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("groupz = 3\n")
    assert main(["run", "--config", str(bad)]) == EXIT_USAGE
    bad.write_text("just some words\n")
    assert main(["run", "--config", str(bad)]) == EXIT_USAGE
    bad.write_text("groups = many\n")
    assert main(["run", "--config", str(bad)]) == EXIT_USAGE
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == EXIT_IO
    with pytest.raises(CliUsageError):
        parse_config_file("config = nested.cfg")
    capsys.readouterr()
    for line in (
        "adversary = type7",
        "format = xml",
        "check-fraction = half",
        "groupz = 3",
        "just some words",
        "groups =",
        "groups = -3",
        "groups = 1000000000",
        "trials = 0",
        "check-fraction = 2",
        "check-fraction = 0",
        "check-fraction = nan",
        "seed = -1",
        "pair-states = phi+,omega",
        "pair-states = random:x",
        "pair-states = random:-3",
    ):
        bad.write_text(line + "\n")
        assert main(["run", "--config", str(bad)]) == EXIT_USAGE, line
        assert str(bad) in capsys.readouterr().err, line
    # a value that looks like a flag is still a value
    monkeypatch.chdir(tmp_path)
    bad.write_text("out = -x.json\ngroups = 2\n")
    assert main(["run", "--config", str(bad), "--seed", "1"]) == EXIT_OK
    assert json.loads((tmp_path / "-x.json").read_text())["config"]["n_groups"] == 2


def test_pair_states_parsing(tmp_path, capsys):
    code = main(["run", "--groups", "1", "--seed", "2", "--pair-states", "phi-,psi+"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["pair_states"] == "phi-,psi+"
    assert payload["groups"][0]["pair_a_state"] == "phi-"
    assert main(["run", "--groups", "2", "--pair-states", "phi-,psi+"]) == EXIT_USAGE
    assert main(["run", "--groups", "1", "--pair-states", "phi-,omega"]) == EXIT_USAGE
    assert main(["run", "--groups", "1", "--pair-states", "random:zap"]) == EXIT_USAGE
    code = main(["run", "--groups", "2", "--seed", "5", "--pair-states", "random:6"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["pair_states"] == "random:6"


def test_entangler_needs_plain_channels():
    code = main(
        ["attack", "--adversary", "type2", "--groups", "1", "--trials", "5", "--pair-states", "psi+,psi+"]
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("fault", [ValueError, RuntimeError, KeyError], ids=lambda e: e.__name__)
def test_internal_value_error_is_not_a_usage_error(fault, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise fault("class table lost its mass")

    monkeypatch.setattr(cli, "monte_carlo", broken)
    code = main(["attack", "--adversary", "type2", "--groups", "1", "--trials", "5"])
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "class table lost its mass" in err and fault.__name__ in err


def test_attack_json_and_csv(tmp_path, capsys):
    code = main(
        ["attack", "--adversary", "type2", "--groups", "2", "--check-fraction", "1.0",
         "--trials", "60", "--seed", "1"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["strategy"] == "type2"
    assert payload["analytic_detection"] == pytest.approx(0.75, abs=1e-9)
    out = tmp_path / "point.csv"
    code = main(
        ["attack", "--adversary", "type2", "--groups", "2", "--check-fraction", "1.0",
         "--trials", "60", "--seed", "1", "--format", "csv", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = list(csv.reader(out.read_text().splitlines()))
    assert tuple(rows[0]) == SWEEP_CSV_HEADER
    assert rows[1][0] == "type2"


def test_sweep_requires_out_directory(monkeypatch):
    monkeypatch.setattr(cli, "monte_carlo", _no_work)
    assert main(["sweep"]) == EXIT_USAGE
    assert main(["sweep", "--adversary", "type2", "--trials", "5"]) == EXIT_USAGE


def test_sweep_writes_grid(tmp_path):
    out = tmp_path / "sweepdir"
    code = main(
        [
            "sweep",
            "--adversary",
            "type2",
            "--groups",
            "4",
            "--check-fraction",
            "0.5",
            "--trials",
            "40",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    rows = list(csv.reader((out / "sweep.csv").read_text().splitlines()))
    assert tuple(rows[0]) == SWEEP_CSV_HEADER
    # k grid: 1..k_checked = 1..2
    assert [r[2] for r in rows[1:]] == ["1", "2"]
    assert (out / "type2_k1.json").exists()
    assert (out / "type2_k2.json").exists()
    point = json.loads((out / "type2_k2.json").read_text())
    assert point["k_checked"] == 2 and point["n_groups"] == 4


def test_sweep_honest_channel_detects_nothing(tmp_path):
    out = tmp_path / "honest"
    code = main(
        ["sweep", "--groups", "4", "--trials", "25", "--seed", "3", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = list(csv.reader((out / "sweep.csv").read_text().splitlines()))
    detection = [float(r[4]) for r in rows[1:]]
    assert detection == [0.0, 0.0]
    agreement = [float(r[8]) for r in rows[1:]]
    assert agreement == [1.0, 1.0]


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["--adversary", "type2", "--pair-states", "random"], id="type2-random"),
        pytest.param(["--adversary", "type3", "--pair-states", "phi+,phi+,psi-,phi+"], id="type3-list"),
    ],
)
def test_a_refused_sweep_leaves_no_out_directory(tmp_path, args):
    out = tmp_path / "sweepdir"
    assert main(["sweep", "--groups", "2", "--trials", "5", *args, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_a_sweep_out_under_a_file_is_an_io_error(tmp_path):
    (tmp_path / "file").write_text("")
    assert main(["sweep", "--groups", "2", "--trials", "5", "--out", str(tmp_path / "file" / "d")]) == EXIT_IO


def test_oracle_check_passes(capsys):
    code = main(["oracle-check"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("PASS") == len(oracle_check_rows())
    assert "FAIL" not in out


def test_oracle_check_takes_no_options(monkeypatch, capsys):
    # it reads no seed, so a bad ENTSWAP_SEED is none of its business
    monkeypatch.setenv("ENTSWAP_SEED", "x")
    assert main(["oracle-check"]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--groups", "0"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --groups 0" in capsys.readouterr().err


def test_oracle_check_rows_all_pass():
    for name, ok, detail in oracle_check_rows():
        assert ok, f"{name}: {detail}"


def rekeyed(table, cell, new_cell):
    """The table with one cell's mass moved to another cell."""
    doctored = dict(table)
    doctored[new_cell] = doctored.get(new_cell, 0.0) + doctored.pop(cell)
    return doctored


PHI_P, PHI_M, PSI_P = BellIndex.PHI_PLUS, BellIndex.PHI_MINUS, BellIndex.PSI_PLUS


def test_entangler_check_names_each_kind_of_deviation():
    table = joint_table("type2")
    assert list(cli._entangler_failures(table)) == []
    # the cells (alice, bob, eve) of Alice's phi+ branch: Bob phi+ or phi-, Eve paired
    assert (PHI_P, PHI_M, PHI_M) in table
    no_phi_plus = {key: p for key, p in table.items() if key[0] is not PHI_P}
    assert next(cli._entangler_failures(no_phi_plus)) == "alice phi+ probability 0.000000 != 1/4"
    wrong_family = rekeyed(table, (PHI_P, PHI_M, PHI_M), (PHI_P, PSI_P, PHI_M))
    assert next(cli._entangler_failures(wrong_family)) == "bob phi- given alice phi+: 0.000000 != 0.5"
    unpaired = rekeyed(table, (PHI_P, PHI_M, PHI_M), (PHI_P, PHI_M, PHI_P))
    assert next(cli._entangler_failures(unpaired)) == "eve given alice phi+, bob phi-: p(phi-) = 0.000000"


def test_oracle_check_failures_exit_4(monkeypatch, capsys):
    unpaired = rekeyed(joint_table("type2"), (PHI_P, PHI_M, PHI_M), (PHI_P, PHI_M, PHI_P))
    monkeypatch.setattr(cli, "joint_table", lambda kind: unpaired)
    assert main(["oracle-check"]) == EXIT_ORACLE
    out = capsys.readouterr().out
    assert "FAIL  entangler conditional structure" in out
    assert "eve given alice phi+, bob phi-" in out
    assert out.splitlines()[-1] == "oracle-check: FAILURES above"
    # a swap rule that disagrees with the oracle fails its own row
    monkeypatch.setattr(cli, "swap_partner", lambda a, b, m: BellIndex(swap_partner(a, b, m) ^ 1))
    rows = {name: (ok, detail) for name, ok, detail in oracle_check_rows()}
    ok, detail = rows["swap rule vs oracle, 64 triples x 2 splits"]
    assert not ok
    assert detail == "(phi+,phi+,phi+) split ('1', '3'): oracle phi+ != rule phi-"


def test_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes("groups = 2  # zw\xf6lf\n".encode("latin-1"))
    assert main(["run", "--config", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"config file {bad} is not UTF-8 text" in err


def test_config_file_that_repeats_a_key_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "twice.cfg"
    bad.write_text("groups = 4\n# a second thought\ngroups = 8\n")
    assert main(["run", "--config", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"config file {bad}: lines 1 and 3: 'groups' is set twice" in err


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    config = tmp_path / "bom.cfg"
    config.write_bytes("\ufeffgroups = 3\nseed = 5\n".encode("utf-8"))
    assert main(["run", "--config", str(config)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["n_groups"] == 3
    assert payload["config"]["seed"] == 5


def test_run_encodes_each_group_once(tmp_path, monkeypatch):
    encoded = []
    encode = GroupRecord.to_json_dict

    def counted(group):
        encoded.append(group.group_index)
        return encode(group)

    monkeypatch.setattr(GroupRecord, "to_json_dict", counted)
    assert main(["run", "--groups", "5", "--format", "both", "--out", str(tmp_path / "r.json")]) == EXIT_OK
    assert encoded == list(range(5))


REPORT_ARGV = {
    "run": ["run", "--adversary", "type1", "--groups", "6", "--seed", "4"],
    "attack": ["attack", "--adversary", "type2", "--groups", "2", "--trials", "40", "--seed", "4"],
}


def _refuse(*args, **kwargs):
    raise AssertionError("a format that is not written must not be rendered")


@pytest.mark.parametrize("command", sorted(REPORT_ARGV))
@pytest.mark.parametrize(
    "fmt, poisoned",
    [("csv", [(json, "dump"), (json, "dumps")]), ("json", [(cli.csv, "writer")])],
    ids=["csv", "json"],
)
def test_only_the_written_format_is_rendered(command, fmt, poisoned, tmp_path, monkeypatch):
    for module, name in poisoned:
        monkeypatch.setattr(module, name, _refuse)
    out = tmp_path / f"report.{fmt}"
    assert main(REPORT_ARGV[command] + ["--format", fmt, "--out", str(out)]) == EXIT_OK
    assert out.stat().st_size > 0


@pytest.mark.parametrize("command", sorted(REPORT_ARGV))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stdout_report_equals_the_out_file(command, fmt, tmp_path, capsys):
    # the pinned digests cover files only; stdout gets the same writer
    assert main(REPORT_ARGV[command] + ["--format", fmt]) == EXIT_OK
    printed = capsys.readouterr().out
    out = tmp_path / f"report.{fmt}"
    assert main(REPORT_ARGV[command] + ["--format", fmt, "--out", str(out)]) == EXIT_OK
    assert printed and printed.encode("utf-8") == out.read_bytes()


class _CountingHandle:
    """A text handle that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_json_reports_are_written_in_bounded_batches(monkeypatch):
    # one write per encoder token made an unbuffered stdout one system call per token
    handle = _CountingHandle()
    monkeypatch.setattr(cli.sys, "stdout", handle)
    assert main(["run", "--groups", "2000"]) == EXIT_OK
    payload = run_session(SessionConfig(n_groups=2000)).to_json_dict()
    assert "".join(handle.writes) == json.dumps(payload, indent=2) + "\n"
    tokens = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(payload))
    assert len(handle.writes) <= tokens / cli._JSON_BATCH + 2


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["json", "csv", "both"])
def test_writing_a_report_adds_little_memory(fmt, tmp_path, capsys):
    # each report goes straight to its file: no whole-report text is built
    argv = ["run", "--groups", "2000", "--format", fmt, "--out", str(tmp_path / "report.json")]

    def report_dict():
        return run_session(SessionConfig(n_groups=2000)).to_json_dict()

    for call in (report_dict, lambda: main(argv)):  # warm the caches first
        call()
    assert _traced_peak(lambda: main(argv)) <= 1.5 * _traced_peak(report_dict)


def test_cli_byte_determinism(tmp_path):
    args = [
        "attack", "--adversary", "type3", "--groups", "2", "--check-fraction", "1.0",
        "--trials", "50", "--seed", "9", "--format", "both",
    ]
    a_base = tmp_path / "a"
    b_base = tmp_path / "b"
    assert main(args + ["--out", str(a_base)]) == EXIT_OK
    assert main(args + ["--out", str(b_base)]) == EXIT_OK
    for ext in (".json", ".csv"):
        a_bytes = (tmp_path / ("a" + ext)).read_bytes()
        b_bytes = (tmp_path / ("b" + ext)).read_bytes()
        assert a_bytes == b_bytes and a_bytes


def test_groups_above_the_bound_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "edge.json"
    edge = ["attack", "--adversary", "type1", "--trials", "3", "--out", str(out)]
    assert main(edge + ["--groups", str(cli.MAX_GROUPS)]) == EXIT_OK
    assert main(edge + ["--groups", str(cli.MAX_GROUPS + 1)]) == EXIT_USAGE
    # used to build a 2n-entry pair list, then fail inside numpy with exit 5
    assert main(["attack", "--groups", "1000000000", "--trials", "3"]) == EXIT_USAGE
    assert f"at most {cli.MAX_GROUPS}" in capsys.readouterr().err


def test_config_file_groups_above_the_bound_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "huge.cfg"
    config.write_text("groups = 1000000000\nadversary = type1\n")
    assert main(["attack", "--config", str(config), "--trials", "3"]) == EXIT_USAGE
    assert f"at most {cli.MAX_GROUPS}" in capsys.readouterr().err


# sha256 of every file each command writes, and its stdout, recorded from the
# CLI before the option/output code was consolidated; criterion 9 and
# test_cli_byte_determinism only compare two runs of the same code
PINNED_RUNS = {
    "run": ["run", "--groups", "8", "--seed", "97", "--format", "both", "--out", "{out}/run.json"],
    "run-eve": [
        "run", "--adversary", "type1", "--groups", "6", "--seed", "96", "--pair-states", "random",
        "--format", "both", "--out", "{out}/run.json",
    ],
    "attack": [
        "attack", "--adversary", "type2", "--groups", "2", "--check-fraction", "1.0",
        "--trials", "300", "--seed", "98", "--format", "both", "--out", "{out}/attack.json",
    ],
    "sweep": [
        "sweep", "--adversary", "type3", "--groups", "4", "--check-fraction", "0.5",
        "--trials", "200", "--seed", "99", "--out", "{out}/sweep",
    ],
}
PINNED_FILES = {
    "run": {
        "run.csv": "83e8b28742014afd6a06d45ae7b18f856d5c117da96fd4ee2109a3315b1e657d",
        "run.json": "20b3fd6749e0f9d1e0c9ecaa69121202c0d24345fbbefe80971bc073446e0551",
    },
    "run-eve": {
        "run.csv": "61c2eb7d3ed7b77a25527a28c33ae80a2e07af5d0fd5b110c6551dd3e22e22e7",
        "run.json": "ae03df0d846532a8dfaa76b769b74de5ca65a994f1aad18882ef8d8d1843ad9b",
    },
    "attack": {
        "attack.csv": "6cc61b65755ad083c27e50e78c52ce856795d118c6731597e10792bf1366a3f5",
        "attack.json": "c10d0e6dbe6626f25c98c5e42f56d6799338128c9a0dc507f675d6ca37676403",
    },
    "sweep": {
        "sweep/sweep.csv": "9457df3e700febb8484fd336aaf363dea802b01613f4be00b61b7c951896b260",
        "sweep/type3_k1.json": "e4f31cf329b05f7f168b927f8aa68ef15bc99657cfddd4d76be2195920b126b1",
        "sweep/type3_k2.json": "25b8a1c478ba9d756313c4d22bb5e92faf236c38c762c66602639f8cb034dd2a",
    },
}
PINNED_STDOUT = {
    "run": "run: verdict=accept key_bits=16 keys_equal=true adversary=none seed=97\n",
    "run-eve": "run: verdict=accept key_bits=12 keys_equal=true adversary=type1 seed=96\n",
    "attack": "attack: strategy=type2 trials=300 detection=0.756667 analytic=0.750000\n",
    "sweep": (
        "sweep: k=1 detection=0.720000 analytic=0.750000\n"
        "sweep: k=2 detection=0.935000 analytic=0.937500\n"
        "sweep: wrote {out}/sweep/sweep.csv and 2 point files\n"
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED_RUNS))
def test_cli_outputs_match_pinned_digests(command, tmp_path, capsys):
    argv = [arg.format(out=tmp_path) for arg in PINNED_RUNS[command]]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == PINNED_STDOUT[command].format(out=tmp_path)
    assert captured.err == ""
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    assert written == PINNED_FILES[command]
