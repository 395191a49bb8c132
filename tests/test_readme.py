"""README's tables and examples against the code they describe."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from entswap import cli
from entswap.adversary import STRATEGY_KINDS
from entswap.stats import per_check_mismatch, per_group_eve_success

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# each shared option's built-in value, for those that have one
BUILT_IN = {name: default for name, (default, _) in cli._OPTIONS.items() if default is not None}


def _table_rows(first_cell: str) -> dict[str, list[str]]:
    """README's table rows whose first cell is a backticked name fully matching
    the pattern: that name -> the row's other cells."""
    rows = {}
    for line in README.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        match = re.fullmatch(f"`({first_cell})`", cells[0])
        if line.startswith("|") and match:
            assert match[1] not in rows, f"README lists {match[1]} twice"
            rows[match[1]] = cells[1:]
    return rows


def _code_block(section: str, language: str) -> str:
    """The first ``language`` fenced block under README's ``## section`` heading."""
    text = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(f"```{language}\n(.*?)```", text, re.DOTALL)[1]


def _leading_rate(cell: str) -> Fraction:
    """A table cell's leading rate, such as 0, 1/2 or 3/4, before any remark."""
    return Fraction(re.match(r"\d+(/\d+)?", cell).group())


def test_the_flag_table_lists_each_option_in_help_order():
    assert list(_table_rows("--[a-z-]+")) == [f"--{name}" for name in cli._OPTIONS] + ["--config"]


def test_the_flag_table_gives_each_built_in_value():
    flags = _table_rows("--[a-z-]+")
    assert BUILT_IN  # the table states some
    for name, default in BUILT_IN.items():
        assert flags[f"--{name}"][0].replace("`", "") == str(default), name


def test_help_shows_each_built_in_value():
    shown = " ".join(cli._options_parser().format_help().split())
    for name, default in BUILT_IN.items():
        assert f"--{name}" in shown and f"(default {default})" in shown, name
    assert "(default None)" not in shown


def test_the_adversary_table_gives_each_per_check_mismatch():
    rows = _table_rows("none|type[0-9]+")
    assert list(rows) == list(STRATEGY_KINDS)
    for kind, (_channel, mismatch, _knowledge) in rows.items():
        assert abs(float(_leading_rate(mismatch)) - per_check_mismatch(kind)) <= 1e-12, kind


def test_the_adversary_table_gives_each_per_group_key_knowledge():
    rows = _table_rows("none|type[0-9]+")
    assert list(rows) == list(STRATEGY_KINDS)
    for kind, (_channel, _mismatch, knowledge) in rows.items():
        success = per_group_eve_success(kind)
        if knowledge == "none":
            assert success is None, kind
        else:
            assert "per group" in knowledge, kind
            assert abs(float(_leading_rate(knowledge)) - success) <= 1e-12, kind


CLI_EXAMPLES = [
    line for line in _code_block("CLI", "sh").splitlines() if line.strip() and not line.startswith("#")
]


@pytest.mark.parametrize("command", CLI_EXAMPLES)
def test_each_cli_example_runs(command, tmp_path, monkeypatch):
    monkeypatch.delenv("ENTSWAP_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    program, *argv = shlex.split(command)
    assert program == "entswap"
    assert cli.main(argv) == cli.EXIT_OK


def test_the_cli_block_has_an_example_of_each_subcommand():
    assert {shlex.split(command)[1] for command in CLI_EXAMPLES} == {"run", "attack", "sweep", "oracle-check"}


def test_the_python_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_code_block("Python API", "python"), "README.md", "exec"), namespace)
    assert namespace["batch"].strategy == namespace["slow"].strategy == "type2"
