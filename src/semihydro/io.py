"""Bit-stable serialization of trajectories, profiles, and reports.

Floats are rendered with %.17g so that identical runs produce
byte-identical files and values round-trip exactly through text.

One byte contract, two paths. Every float table the program writes (the
snapshots' n, J and E rows, series.csv, sweep.csv and stationary.csv)
becomes text in _table_text: each value with the bytes of "%.17g" % x,
the values of a row joined by "," and each row ended by "\n". It takes
the C library's semihydro_format when _kernel.load() gives the library
and the call succeeds, and Python's % operator otherwise (_percent_text):
without the library, for a table that holds a non-finite value, or where
C's locale has a decimal point other than ".". Both paths give the same
bytes. _snapshot_lines is the one place snapshot lines are made, for the
writer process, the caller's tail and library callers.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import _kernel
from .field import _efield

# snapshot rows that SnapshotStream collects before it writes them as one chunk
SNAPSHOT_CHUNK = 64
# the most bytes a value takes in _table_text: -2.2250738585072014e-308 and its "," or "\n"
_CELL = 25


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


def _percent_text(table) -> str:
    """_table_text by Python's % operator: one % operation a row."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(map(row.__mod__, map(tuple, table.tolist())))


def _table_text(table) -> str:
    """The text of a 2-D float table: each value as "%.17g" % x renders
    it, the values of a row joined by "," and each row ended by "\n".

    The C library's semihydro_format writes it when the library loads and
    the call succeeds; _percent_text otherwise, with the same bytes.
    """
    table = np.ascontiguousarray(table, dtype=float)
    lib = _kernel.load()
    if lib is not None and table.size:
        cap = table.size * _CELL
        out = np.empty(cap, dtype=np.uint8)
        size = lib.semihydro_format(table.ctypes.data, *table.shape, out.ctypes.data, cap)
        if size >= 0:
            return out[:size].tobytes().decode("ascii")
    return _percent_text(table)


def _snapshot_lines(times, n, J, E) -> list:
    """Snapshots as NDJSON lines: times (K,) and the n, J, E node arrays
    (K, N+1), one line each. The rows are the text of one (3K, N+1) table
    [n; J; E], t is formatted by %."""
    K = len(times)
    rows = _table_text(np.concatenate((n, J, E))).split("\n")
    line = '{"t":%.17g,"n":[%s],"J":[%s],"E":[%s]}\n'
    return [line % (t, rows[i], rows[K + i], rows[2 * K + i])
            for i, t in enumerate(times.tolist())]


def write_snapshots(path: str, traj, start: int = 0) -> None:
    """NDJSON, one object per snapshot: t and the n, J, E node arrays.

    Writes the snapshots from index start on, SNAPSHOT_CHUNK at a time;
    with start > 0 they are appended to the file that holds the ones
    before it.
    """
    with open(path, "a" if start else "w") as fh:
        for k in range(start, traj.times.size, SNAPSHOT_CHUNK):
            rows = slice(k, k + SNAPSHOT_CHUNK)
            fh.writelines(_snapshot_lines(traj.times[rows], traj.n[rows], traj.J[rows],
                                          traj.E[rows]))


def write_snapshot_chunk(path: str, mode: str, times, n, J, d_grid, dx: float) -> None:
    """Write snapshot rows, times (K,) and n, J (K, N+1), to path opened
    with mode ("w" or "a"), as the lines write_snapshots gives for them.

    E is computed here as the run's trajectory computes it: the field of
    n - d_grid, d_grid the doping on the grid, with the same bits row by row.
    """
    E = _efield(n - d_grid, dx)
    with open(path, mode) as fh:
        fh.writelines(_snapshot_lines(times, n, J, E))


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
    each rendered as fmt renders a float, the rows by _table_text."""
    rows = len(columns[0])
    for col in columns:
        if len(col) != rows:
            raise ValueError("series columns must have equal length")
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(_table_text(table))


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
        fh.write(_table_text(np.column_stack((prof.x, prof.N_tilde, prof.E_tilde))))


def ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
