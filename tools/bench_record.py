"""Record the benchmark of a change against its parent in one JSON file.

    python3 tools/bench_record.py --parent REV --change REV \
        --workload mms --workload sweep --pairs 10 --out bench.json

Run from anywhere inside the repository. Each side is the committed tree
of a git revision: a commit, or a tree id such as `git write-tree` prints
for staged changes. It is extracted with `git archive` into a fresh
temporary directory, so nothing uncommitted is measured and the
repository's own .git gains no worktree. Both sides build their C
library into a private cache in that directory before anything is timed.

For each workload, each pair of runs calls

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, the parent first in even pairs and the change
first in odd ones. The output holds, per workload and side, the revision,
each run's wall_s, setup_s and peak_rss_mb, their median and quartiles,
and in how many pairs the change's wall_s was the lower one.

Each bench/run.py call runs in a session of its own, and its process
group is killed when the call returns or is interrupted, so no workload
process outlives it. SIGTERM ends the recording like an exception: the
running call's group is killed and the temporary directory removed, and
the exit code is 143.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _checkout(rev: str, path: str) -> str:
    """Extract the tree of rev into the new directory path; return path."""
    os.makedirs(path)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
    return path


def _run(checkout: str, env: dict, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py call in checkout; its result line as a dict."""
    proc = subprocess.Popen([sys.executable, "bench/run.py", "--workload", workload,
                             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                            cwd=checkout, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate()
    finally:
        # the workers too, should the call be interrupted or leave any
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py --workload {workload} in {checkout} exited "
                           f"with {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def summary(values: list) -> dict:
    """The median and quartiles of values, and the values themselves."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def record(results: dict) -> dict:
    """The summary of one workload: results maps each side to its list of
    bench/run.py result dicts, pair k of each list run together."""
    out = {"pairs": len(results["parent"])}
    for side in SIDES:
        runs = results[side]
        out[side] = {name: summary([r["metrics"][name]["value"] for r in runs])
                     for name in METRICS}
        out[side]["correct"] = all(r["correct"] for r in runs)
        out[side]["failed"] = sum(r["failed"] for r in runs)
    out["change_faster_wall_s"] = sum(
        c["metrics"]["wall_s"]["value"] < p["metrics"]["wall_s"]["value"]
        for p, c in zip(results["parent"], results["change"]))
    return out


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision (or tree) of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="a bench/run.py workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args(argv)

    revs = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    doc = {
        "command": (f"python3 bench/run.py --workload W --seed {args.seed} "
                    f"--seconds {args.seconds:g} --trace 0"),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "sides": {side: {"rev": rev, "type": _git("cat-file", "-t", rev)}
                  for side, rev in revs.items()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_record-") as root:
        checkouts, envs = {}, {}
        for side, rev in revs.items():
            checkouts[side] = _checkout(rev, os.path.join(root, side))
            src = os.path.join(checkouts[side], "src")
            envs[side] = {**os.environ, "XDG_CACHE_HOME": os.path.join(root, f"cache-{side}"),
                          "PYTHONPATH": src}
            # build the C library now, so that no timed process compiles it
            subprocess.run([sys.executable, "-c", "import semihydro._kernel as k; k.load()"],
                           env=envs[side], check=True)
        for workload in args.workload:
            results = {side: [] for side in SIDES}
            for k in range(args.pairs):
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    results[side].append(_run(checkouts[side], envs[side], workload,
                                              args.seed, args.seconds))
                print(f"{workload} pair {k + 1}: wall_s "
                      + ", ".join(f"{side} {results[side][-1]['metrics']['wall_s']['value']:.3f}"
                                  for side in SIDES), file=sys.stderr)
            doc["workloads"][workload] = record(results)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
