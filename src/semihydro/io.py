"""Bit-stable serialization of trajectories, profiles, and reports.

Floats are rendered with %.17g so that identical runs produce
byte-identical files and values round-trip exactly through text.
A snapshot line and a CSV row are each formatted by one % operation on
a format string of %.17g fields, which converts every float as
"%.17g" % x does; _snapshot_line is the one place a snapshot line is
made, for the writer process, the caller's tail and library callers.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .field import _efield

# snapshot rows that SnapshotStream collects before it writes them as one chunk
SNAPSHOT_CHUNK = 64


def fmt(v) -> str:
    """Render one scalar; floats at 17 significant digits."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def record_json(d: dict) -> str:
    """One flat dict of scalars and strings as a JSON object with
    deterministic float text."""
    items = (f"{json.dumps(k)}:{json.dumps(v) if isinstance(v, str) else fmt(v)}"
             for k, v in d.items())
    return "{" + ",".join(items) + "}"


def _snapshot_line(t, n, J, E) -> str:
    """One snapshot as an NDJSON line: t and the n, J, E node arrays, each
    float as fmt renders it, formatted by one % operation."""
    row = ",".join(["%.17g"] * len(n))
    return (('{"t":%.17g,"n":[' + row + '],"J":[' + row + '],"E":[' + row + ']}\n')
            % (t, *n.tolist(), *J.tolist(), *E.tolist()))


def write_snapshots(path: str, traj, start: int = 0) -> None:
    """NDJSON, one object per snapshot: t and the n, J, E node arrays.

    Writes the snapshots from index start on; with start > 0 they are
    appended to the file that holds the ones before it.
    """
    with open(path, "a" if start else "w") as fh:
        fh.writelines(map(_snapshot_line, traj.times[start:].tolist(), traj.n[start:],
                          traj.J[start:], traj.E[start:]))


def write_snapshot_chunk(path: str, mode: str, times, n, J, d_grid, dx: float) -> None:
    """Write snapshot rows, times (K,) and n, J (K, N+1), to path opened
    with mode ("w" or "a"), as the lines write_snapshots gives for them.

    E is computed here as the run's trajectory computes it: the field of
    n - d_grid, d_grid the doping on the grid, with the same bits row by row.
    """
    E = _efield(n - d_grid, dx)
    with open(path, mode) as fh:
        fh.writelines(map(_snapshot_line, times.tolist(), n, J, E))


class SnapshotStream:
    """Writes a run's snapshots to an NDJSON file while the run goes on.

    Call it as solver.run's on_snapshot. Each time SNAPSHOT_CHUNK rows
    have come in, it writes them with write_snapshot_chunk: through
    pool.submit when a pool is given (an executor with one process, which
    runs the chunks in order), in this process otherwise. The first chunk
    replaces an earlier file. wait() returns the number of rows written
    once every chunk is; write_snapshots(path, traj, start=that number)
    then writes the rest, and the file holds the bytes write_snapshots
    gives for the whole trajectory.
    """

    def __init__(self, path: str, d_grid, dx: float, pool=None):
        self._path = path
        self._d_grid = d_grid
        self._dx = dx
        self._pool = pool
        self._rows = []         # the rows not yet written
        self._written = 0
        self._futures = []      # the pool's, one per chunk

    def __call__(self, t: float, n, J) -> None:
        self._rows.append((t, n, J))
        if len(self._rows) < SNAPSHOT_CHUNK:
            return
        times, n, J = (np.array(f) for f in zip(*self._rows))
        self._rows = []
        args = (self._path, "a" if self._written else "w", times, n, J, self._d_grid,
                self._dx)
        self._written += SNAPSHOT_CHUNK
        if self._pool is None:
            write_snapshot_chunk(*args)
        else:
            self._futures.append(self._pool.submit(write_snapshot_chunk, *args))

    def wait(self) -> int:
        for future in self._futures:
            future.result()
        return self._written


def write_series_csv(path: str, header: list, columns: list) -> None:
    """CSV with a header row; columns are equal-length sequences of floats,
    each rendered as fmt renders a float, one % operation a row."""
    rows = len(columns[0])
    for col in columns:
        if len(col) != rows:
            raise ValueError("series columns must have equal length")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(map(row.__mod__,
                             zip(*(np.asarray(c, dtype=float).tolist() for c in columns)))))


def write_reports(path: str, records: list) -> None:
    """NDJSON, one diagnostic report per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(record_json(rec))
            fh.write("\n")


def write_stationary(path: str, prof) -> None:
    """CSV profile (x, N_tilde, E_tilde) under a '#'-prefixed JSON header."""
    with open(path, "w") as fh:
        fh.write("# " + record_json({
            "shoot_residual": prof.shoot_residual,
            "iterations": prof.iterations,
        }) + "\n")
        fh.write("x,N_tilde,E_tilde\n")
        # each float as fmt renders it
        rows = zip(prof.x.tolist(), prof.N_tilde.tolist(), prof.E_tilde.tolist())
        fh.write("".join(map("%.17g,%.17g,%.17g\n".__mod__, rows)))


def ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
