"""CPU time per snapshot row of the NDJSON writer, on the scenario's trajectory.

    python3 tools/snapshot_us.py [--N 400] [--repeats 10]

For each N, runs configs/scenario_sine.ini with that N once, as
`semihydro run` does, outside the timing (a run that blows up on a coarse
grid gives the snapshots taken before the blowup). It then writes the run's
snapshots to a temporary file with io.write_snapshot_chunk, in chunks of
io.SNAPSHOT_CHUNK rows as the writer process of `semihydro run` gets them
(E computed in the chunk, the first chunk opening the file), --repeats
times in this process. It prints one line per N: the snapshot rows, the
file's size, and the best pass's CPU time (time.process_time) per row, in
microseconds, and the megabytes it wrote per CPU second. Its header names
the formatter that made the text: the C library's semihydro_format, or
Python's % operator when the library is unavailable. The library is built,
if needed, before anything is timed.

The package is imported from the src directory of the checkout that holds
this script, so a copy of the script in another checkout measures that
checkout.
"""

import argparse
import dataclasses
import os
import sys
import tempfile
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from semihydro import _kernel, cli, io, solver  # noqa: E402
from semihydro.config import parse_config  # noqa: E402

SCENARIO = os.path.join(ROOT, "configs", "scenario_sine.ini")


def snapshot_us(cfg, repeats: int, path: str):
    """(snapshot rows, file bytes, best CPU microseconds per row) for config cfg."""
    D, dx, n0, J0 = cli._initial_state(cfg)
    with warnings.catch_warnings():
        # the mollifier width warning of the coarse grids
        warnings.simplefilter("ignore")
        try:
            traj = solver.run(cfg, D, n0, J0)
        except solver.BlowupError as exc:
            # a coarse grid can end the run early; its snapshots up to then
            # are those `semihydro run` writes
            if exc.trajectory is None:
                raise
            traj = exc.trajectory
    d_grid = D(np.linspace(0.0, 1.0, cfg.N + 1))
    rows = traj.times.size
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        for k in range(0, rows, io.SNAPSHOT_CHUNK):
            chunk = slice(k, k + io.SNAPSHOT_CHUNK)
            io.write_snapshot_chunk(path, "a" if k else "w", traj.times[chunk],
                                    traj.n[chunk], traj.J[chunk], d_grid, dx)
        best = min(best, time.process_time() - start)
    return rows, os.path.getsize(path), 1e6 * best / rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--N", default="400", help="comma-separated grid sizes")
    ap.add_argument("--repeats", type=int, default=10, help="passes per N; the best counts")
    args = ap.parse_args(argv)
    sizes = [int(v) for v in args.N.split(",")]
    with open(SCENARIO) as fh:
        base = parse_config(fh.read())
    formatter = "C" if _kernel.load() is not None else "Python % (no C library)"
    print(f"# {os.path.relpath(SCENARIO, ROOT)}: CPU us per snapshot row, best of "
          f"{args.repeats} passes, chunks of {io.SNAPSHOT_CHUNK} rows, {formatter} formatter")
    with tempfile.TemporaryDirectory() as tmp:
        for N in sizes:
            rows, size, us = snapshot_us(dataclasses.replace(base, N=N), args.repeats,
                                         os.path.join(tmp, "snapshots.ndjson"))
            print(f"N = {N:5d}  rows = {rows:4d}  MB = {size / 1e6:6.2f}  "
                  f"row_us = {us:.1f}  MB_per_s = {size / (us * rows):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
