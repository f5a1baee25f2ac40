"""tools/bench_record.py: the summary of alternating benchmark pairs, and
its clean-up when it is stopped."""

import os
import signal
import subprocess
import sys
import time

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
sys.path.insert(0, TOOLS)

import bench_record  # noqa: E402


def _result(wall, setup=0.25, rss=85.0):
    return {"correct": True, "failed": 0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "setup_s": {"value": setup, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_record_gives_medians_quartiles_and_the_pairs_won():
    parent = [_result(w) for w in (0.60, 0.62, 0.58, 0.61, 0.59)]
    change = [_result(w) for w in (0.40, 0.70, 0.38, 0.61, 0.41)]
    rec = bench_record.record({"parent": parent, "change": change})
    assert rec["pairs"] == 5
    # a tie counts for neither side
    assert rec["change_faster_wall_s"] == 3
    wall = rec["parent"]["wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"]) == (0.59, 0.60, 0.61)
    assert wall["runs"] == [0.60, 0.62, 0.58, 0.61, 0.59]
    assert rec["change"]["setup_s"]["median"] == 0.25
    assert rec["change"]["peak_rss_mb"]["median"] == 85.0
    assert rec["change"]["correct"] and rec["change"]["failed"] == 0
    # one pair: its run is the median and both quartiles
    assert bench_record.summary([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5, "runs": [0.5]}


# bench/run.py of the stub checkout: it starts a worker, records both pids
# and sleeps, as a run would while its worker works
STUB_RUN = """
import os, subprocess, sys, time
worker = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
with open(os.environ["STUB_PIDS"] + ".tmp", "w") as fh:
    fh.write(f"{os.getpid()} {worker.pid}")
os.replace(os.environ["STUB_PIDS"] + ".tmp", os.environ["STUB_PIDS"])
time.sleep(60)
"""


def _alive(pid):
    """Whether process pid runs; a zombie, which only waits to be reaped, does not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_for(condition, timeout):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def test_sigterm_kills_the_run_and_its_worker_and_removes_the_checkouts(tmp_path):
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc")
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    (repo / "bench" / "run.py").write_text(STUB_RUN)
    package = repo / "src" / "semihydro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "_kernel.py").write_text("def load():\n    return None\n")
    git = ["git", "-C", str(repo), "-c", "user.name=stub", "-c", "user.email=stub@example.com",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + args, check=True, capture_output=True)
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    pids = tmp_path / "pids"
    out = tmp_path / "out.json"
    proc = subprocess.Popen(
        [sys.executable, os.path.join(TOOLS, "bench_record.py"), "--parent", "HEAD",
         "--change", "HEAD", "--workload", "steady", "--pairs", "1", "--seconds", "1",
         "--out", str(out)],
        cwd=repo, env={**os.environ, "TMPDIR": str(tmp), "STUB_PIDS": str(pids)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    started = []
    try:
        _wait_for(pids.exists, 30)
        started = [int(pid) for pid in pids.read_text().split()]
        assert len(list(tmp.glob("bench_record-*"))) == 1
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        _wait_for(lambda: not any(map(_alive, started)), 10)
    finally:
        proc.kill()
        proc.communicate()
        for pid in filter(_alive, started):
            os.kill(pid, signal.SIGKILL)
    assert list(tmp.iterdir()) == []
    assert not out.exists()
