"""Bit-stable serialization of trajectories, profiles, and reports.

Floats are rendered with %.17g so that identical runs produce
byte-identical files and values round-trip exactly through text.
"""

from __future__ import annotations

import json
import os

import numpy as np


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


def _json_floats(row) -> str:
    """A float array as a JSON list, each entry as fmt renders it."""
    return "[" + ",".join(map("%.17g".__mod__, row.tolist())) + "]"


def write_snapshots(path: str, traj) -> None:
    """NDJSON, one object per snapshot: t and the n, J, E node arrays."""
    with open(path, "w") as fh:
        for t, n, J, E in zip(traj.times.tolist(), traj.n, traj.J, traj.E):
            fh.write(f'{{"t":{fmt(t)},"n":{_json_floats(n)},"J":{_json_floats(J)},'
                     f'"E":{_json_floats(E)}}}\n')


def write_series_csv(path: str, header: list, columns: list) -> None:
    """CSV with a header row; columns are equal-length sequences."""
    rows = len(columns[0])
    for col in columns:
        if len(col) != rows:
            raise ValueError("series columns must have equal length")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(fmt(col[i]) for col in columns) + "\n")


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
        # each column formatted once, as fmt renders a float
        cols = (map("%.17g".__mod__, a.tolist()) for a in (prof.x, prof.N_tilde, prof.E_tilde))
        fh.write("".join(map("%s,%s,%s\n".__mod__, zip(*cols))))


def ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
