"""tools/step_us.py, tools/snapshot_us.py and tools/steady_ms.py, the layer
timings: each runs on a small grid and prints a number for every row it
measures."""

import itertools
import os
import re
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.mark.parametrize("script, args, names", [
    # step_us.py also prints the gas calls' share and the Rusanov flux's and
    # the forced step's numbers on each row
    ("step_us.py", ["--N", "32,64", "--steps", "50", "--repeats", "1"],
     ("step_us", "gas_us", "rusanov_us", "forced_us")),
    ("snapshot_us.py", ["--N", "32,64", "--repeats", "1"], ("row_us",)),
    # the shooting's trials, then Newton's steps and its Jacobians' share
    ("steady_ms.py", ["--N", "32,64", "--repeats", "1"],
     ("trials", "inviscid_ms", "newton", "viscous_ms", "jacobian_ms")),
])
def test_layer_tool_prints_a_number_per_row(script, args, names):
    out = subprocess.run([sys.executable, os.path.join(TOOLS, script), *args],
                         check=True, capture_output=True, text=True).stdout
    header, *rows = out.splitlines()
    assert header.startswith("# configs/scenario_sine.ini")
    assert [row.split()[2] for row in rows] == ["32", "64"]
    for row, name in itertools.product(rows, names):
        value = float(re.search(rf"\b{name} = (\S+)", row).group(1))
        assert 0.0 < value < float("inf")
