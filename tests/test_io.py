"""The text of the float tables the program writes (semihydro.io): the C
library's semihydro_format against Python's "%.17g" % x, byte for byte.
The C text covers zeros and 1e-22 <= |x| < 1e17 and declines any other
table, which io then writes by %."""

import math
import os
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import semihydro as sh
from semihydro import _kernel, io, solver, stationary


def _library():
    if not sys.platform.startswith("linux"):
        pytest.skip("the build is checked on Linux")
    lib = _kernel.load()
    assert lib is not None
    return lib


def _c_text(table):
    """semihydro_format's text of a 2-D float table, or None where it
    returns -1."""
    lib = _library()
    table = np.ascontiguousarray(table, dtype=float)
    cap = table.size * io._CELL
    out = np.empty(cap, dtype=np.uint8)
    size = lib.semihydro_format(table.ctypes.data, *table.shape, out.ctypes.data, cap)
    return None if size < 0 else out[:size].tobytes().decode("ascii")


def _percent(table) -> str:
    """The rows' text, value by value by Python's %."""
    return "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in np.asarray(table, dtype=float).tolist())


def _assert_same_text(c_text, percent_text):
    """c_text == percent_text, naming the first value or separator that
    differs: pytest's own diff of two texts this long would take minutes."""
    if c_text == percent_text:
        return
    assert c_text is not None, "semihydro_format returned -1"
    c_pieces, pieces = re.split("([,\n])", c_text), re.split("([,\n])", percent_text)
    i = next((i for i, (c, p) in enumerate(zip(c_pieces, pieces)) if c != p),
             min(len(c_pieces), len(pieces)))
    pytest.fail(f"piece {i}: C {c_pieces[i:i + 1]} != % {pieces[i:i + 1]}")


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _in_range(values):
    """The values semihydro_format writes: zeros and 1e-22 <= |x| < 1e17."""
    a = np.abs(np.asarray(values, dtype=float))
    return (a == 0.0) | ((a >= 1e-22) & (a < 1e17))


# any finite double: hypothesis's floats and raw 64-bit patterns, whose
# exponents spread evenly over the whole range
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite))
# the doubles of the C text's range: raw 64-bit patterns from 1e-22 to the
# double below 1e17 (the bits of positive doubles ascend with their
# values), either sign, and signed zeros
_POSITIVE_IN_RANGE = st.integers(_bits(1e-22), _bits(1e17) - 1).map(_double)
_IN_RANGE = st.one_of(_POSITIVE_IN_RANGE, _POSITIVE_IN_RANGE.map(lambda x: -x),
                      st.sampled_from([0.0, -0.0]))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_c_text_is_the_percent_text_of_any_table_in_its_range(rows, cols, data):
    table = data.draw(hnp.arrays(np.float64, (rows, cols), elements=_IN_RANGE))
    assert _in_range(table).all()
    text = _c_text(table)
    assert text is not None, "semihydro_format declined a table in its range"
    _assert_same_text(text, _percent(table))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_any_finite_table_is_written_as_percent_writes_it(rows, cols, data):
    # the C text declines a table with a value out of its range, or matches
    table = data.draw(hnp.arrays(np.float64, (rows, cols), elements=_FINITE))
    c_text = _c_text(table)
    if c_text is not None:
        _assert_same_text(c_text, _percent(table))
    assert (c_text is None) == (not _in_range(table).all())
    _assert_same_text(io._table_text(table), _percent(table))


def _targets():
    """Powers of ten and their neighbouring doubles, the %g switch points,
    the integers 2^52 to 2^53 (their ends and a sample between), signed
    zeros and values outside the C text's range."""
    values = [1e-5, 1e-4, 1e16, 1e17, 0.0, -0.0, 5e-324, 1e300,
              # parses to 1e17, the first value past the fast range
              9.9999999999999999e16,
              # the double below 10^-14, whose 17 digits carry to 1e-14
              1e-14,
              # 1000000000000000.25: an exact tie at the 17th digit, to even
              (4 * 10**15 + 1) / 4]
    for k in range(-25, 19):
        p = float(f"1e{k}")
        below, above = np.nextafter(p, 0.0), np.nextafter(p, np.inf)
        values += [p, below, above, np.nextafter(below, 0.0), np.nextafter(above, np.inf)]
    rng = np.random.default_rng(20261021)
    integers = np.concatenate((np.arange(2**52, 2**52 + 20000), np.arange(2**53 - 20000, 2**53 + 1),
                               rng.integers(2**52, 2**53, 20000)))
    # odd m / 4 in [4e15, 9e15): every one a tie at the 17th digit
    ties = (2 * rng.integers(2 * 10**15, 2**52, 20000) + 1) / 4.0
    values = np.concatenate((values, integers.astype(float), ties))
    return np.concatenate((values, -values))


def test_c_text_of_the_targeted_values():
    targets = _targets()
    values = targets[_in_range(targets)]
    for table in (values[:, None], values[None, :]):
        text = _c_text(table)
        assert text is not None
        _assert_same_text(text, _percent(table))
    assert _c_text(np.array([[1e-14, 1e16]])) == "1e-14,10000000000000000\n"
    assert _c_text(np.array([[0.0, -0.0, 1e-5, 1e-4]])) == (
        "0,-0,1.0000000000000001e-05,0.0001\n")


def test_targeted_values_out_of_range_are_declined_and_written_by_percent():
    targets = _targets()
    outside = targets[~_in_range(targets)]
    assert {1e17, 9.9999999999999999e16, 5e-324, 1e300} <= set(outside.tolist())
    for x in outside:
        # each value declines a table of in-range values around it
        table = np.array([[0.5, x, -0.0]])
        assert _c_text(table) is None
        assert io._table_text(table) == _percent(table)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_value_sends_the_whole_table_to_percent(bad):
    table = np.arange(12.0).reshape(3, 4) / 7.0
    table[2, 1] = bad
    assert _c_text(table) is None
    assert io._table_text(table) == _percent(table)


def test_a_table_that_would_overflow_cap_is_refused():
    lib = _library()
    # the longest text of a value in the range, 23 bytes and a separator
    table = np.full((2, 3), -1.2345678901234568e-22)
    out = np.empty(table.size * io._CELL, dtype=np.uint8)
    assert lib.semihydro_format(table.ctypes.data, 2, 3, out.ctypes.data, out.size) == out.size
    assert lib.semihydro_format(table.ctypes.data, 2, 3, out.ctypes.data, out.size - 1) == -1


def _write_all(root):
    """Each of the four table writers' file, as bytes, by name."""
    cfg = solver.SolverConfig(gamma=2.0, epsilon=2e-3, N=32, T_final=0.1,
                              boundary="float", output_stride=3)
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, cfg.N + 1)
    traj = solver.run(cfg, D, D(x), 0.1 * np.sin(np.pi * x), mollify=False)
    os.makedirs(root, exist_ok=True)
    files = {name: os.path.join(root, name)
             for name in ("whole.ndjson", "chunks.ndjson", "stationary.csv", "series.csv")}
    io.write_snapshots(files["whole.ndjson"], traj)
    half = traj.times.size // 2
    io.write_snapshot_chunk(files["chunks.ndjson"], "w", traj.times[:half], traj.n[:half],
                            traj.J[:half], D(x), 1.0 / cfg.N)
    io.write_snapshots(files["chunks.ndjson"], traj, start=half)
    io.write_stationary(files["stationary.csv"],
                        stationary.solve_stationary(D, sh.GasModel(2.0), 200))
    K = traj.times.size
    io.write_series_csv(files["series.csv"], ["t", "mass"], [traj.times, traj.mass[:K]])
    contents = {}
    for name, path in files.items():
        with open(path, "rb") as fh:
            contents[name] = fh.read()
    return contents


def test_the_four_writers_give_the_same_bytes_without_the_library(tmp_path, monkeypatch):
    _library()
    calls = []
    percent_text = io._percent_text
    monkeypatch.setattr(io, "_percent_text", lambda table: calls.append(table.shape)
                        or percent_text(table))
    with_library = _write_all(tmp_path / "c")
    assert calls == []
    assert with_library["whole.ndjson"] == with_library["chunks.ndjson"]
    # a column out of the C text's range goes to %, with %'s bytes
    edge = [5e-324, -0.0, 1e300]
    io.write_series_csv(str(tmp_path / "edge.csv"), ["edge"], [edge])
    assert calls == [(3, 1)]
    assert (tmp_path / "edge.csv").read_text() == "edge\n" + _percent(np.array(edge)[:, None])
    monkeypatch.setattr(_kernel, "load", lambda: None)
    without = _write_all(tmp_path / "python")
    # the names of the files that differ, not pytest's diff of their bytes
    assert [name for name in with_library if without[name] != with_library[name]] == []
    assert calls
