"""tools/step_us.py and tools/snapshot_us.py, the layer timings: each runs
on a small grid and prints a number for every row it measures."""

import itertools
import os
import re
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.mark.parametrize("script, args, field", [
    ("step_us.py", ["--N", "32,64", "--steps", "50", "--repeats", "1"], "step_us"),
    ("snapshot_us.py", ["--N", "32,64", "--repeats", "1"], "row_us"),
])
def test_layer_tool_prints_a_number_per_row(script, args, field):
    out = subprocess.run([sys.executable, os.path.join(TOOLS, script), *args],
                         check=True, capture_output=True, text=True).stdout
    header, *rows = out.splitlines()
    assert header.startswith("# configs/scenario_sine.ini")
    assert [row.split()[2] for row in rows] == ["32", "64"]
    # step_us.py also prints the gas calls' share and the Rusanov flux's and
    # the forced step's numbers, gas_us, rusanov_us and forced_us, on each row
    names = ((field, "gas_us", "rusanov_us", "forced_us") if script == "step_us.py"
             else (field,))
    for row, name in itertools.product(rows, names):
        value = float(re.search(rf"\b{name} = (\S+)", row).group(1))
        assert 0.0 < value < float("inf")
