"""CLI surface: option layering, subcommands, exit codes, file outputs."""

import csv
import json

import pytest

from entswap import cli
from entswap.cli import (
    CliUsageError,
    EXIT_ABORT,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
    oracle_check_rows,
    parse_config_file,
)
from entswap.protocol import SessionConfig, run_session
from entswap.adversary import make_strategy
from entswap.stats import SWEEP_CSV_HEADER


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


def test_format_both_requires_out():
    code = main(["run", "--groups", "2", "--format", "both"])
    assert code == EXIT_USAGE


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
    monkeypatch.setenv("ENTSWAP_SEED", "not-a-number")
    assert main(["run", "--groups", "2"]) == EXIT_USAGE


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


def test_config_file_rejects_unknown_and_malformed_keys(tmp_path):
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


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("class table lost its mass")

    monkeypatch.setattr(cli, "monte_carlo", broken)
    code = main(["attack", "--adversary", "type2", "--groups", "1", "--trials", "5"])
    assert code == EXIT_INTERNAL
    assert "class table lost its mass" in capsys.readouterr().err


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


def test_sweep_requires_out_directory():
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


def test_oracle_check_passes(capsys):
    code = main(["oracle-check"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("PASS") == len(oracle_check_rows())
    assert "FAIL" not in out


def test_oracle_check_rows_all_pass():
    for name, ok, detail in oracle_check_rows():
        assert ok, f"{name}: {detail}"


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
