"""README's tables against the code they describe."""

import re
from fractions import Fraction
from pathlib import Path

from entswap import cli
from entswap.adversary import STRATEGY_KINDS
from entswap.stats import per_check_mismatch

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
        # the cell's leading rate: 0, 1/2 or 3/4, then any remark
        rate = Fraction(re.match(r"\d+(/\d+)?", mismatch).group())
        assert abs(float(rate) - per_check_mismatch(kind)) <= 1e-12, kind
