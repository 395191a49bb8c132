"""Importing the package does no work a run may not need.

The benchmark's ``setup_s`` times a fresh process from ``import entswap`` on,
and loading ``numpy.random`` adds about 6 MB of RSS.  So importing the
package, its CLI and its statistics must load no ``numpy.random`` module that
bare numpy does not, and must leave every table cache empty.  Both are read
in a fresh interpreter, since this one has imported and run everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from entswap.adversary import LAYOUTS

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
import numpy
bare = {name for name in sys.modules if name.startswith("numpy.random")}
import entswap, entswap.cli, entswap.stats
from entswap.adversary import LAYOUTS
from entswap.stats import _inversion_table, per_check_mismatch, per_group_eve_success
print(json.dumps({
    "numpy.random modules": sorted(m for m in sys.modules if m.startswith("numpy.random") and m not in bare),
    "inversion tables": _inversion_table.cache_info().currsize,
    "per_check_mismatch": per_check_mismatch.cache_info().currsize,
    "per_group_eve_success": per_group_eve_success.cache_info().currsize,
    "prepared systems": {kind: layout._prepared.cache_info().currsize for kind, layout in LAYOUTS.items()},
}))
"""


def test_importing_the_package_loads_no_sampler_and_fills_no_cache():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True)
    assert json.loads(probe.stdout) == {
        "numpy.random modules": [],
        "inversion tables": 0,
        "per_check_mismatch": 0,
        "per_group_eve_success": 0,
        "prepared systems": {kind: 0 for kind in LAYOUTS},
    }
