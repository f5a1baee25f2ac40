"""One workload process: set up, then run rounds of program calls.

    python3 bench/worker.py --workload NAME --out DIR --seconds S [--trace] [--probe]

Set-up is everything a user pays before the program computes: interpreter
start, ``import semihydro.cli`` and parsing the shipped config. The worker
prints the monotonic clock at the end of set-up, so the parent can time
set-up from the moment it spawned the process (CLOCK_MONOTONIC is shared
by all processes on Linux). With --probe it stops there.

Otherwise it runs whole rounds of the workload's program calls, each round
into its own output directory, and times each round from the first call
to the moment its outputs are written. It starts another round only if
the last round's duration still fits into S seconds measured from the end
of set-up; the first round always runs. With --trace every untraced round
is followed by one round under the layer tracer, and the per-layer numbers
are the medians over the traced rounds. Set-up and every round run under
a SpeedProbe (see speed.py), whose factor comes with each time. The last
line of stdout is one JSON object.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

from speed import SpeedProbe


def _round(round_fn, kernel, out_root, k):
    out = f"{out_root}/round{k}"
    os.makedirs(out, exist_ok=True)
    gc.collect()
    probe = SpeedProbe(kernel).start()
    wall, codes = round_fn(out)
    return {"dir": out, "wall_s": wall, "factor": probe.stop(), "codes": codes}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("scenario", "sweep", "steady", "mms"))
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    probe = SpeedProbe().start()
    t0 = time.perf_counter()
    import workloads
    from semihydro.config import parse_config
    t1 = time.perf_counter()
    with open(workloads.CONFIGS[args.workload]) as fh:
        cfg = parse_config(fh.read())
    round_fn = workloads.prepare(args.workload, cfg)
    kernel = workloads.PROBE_KERNEL[args.workload]
    t2 = time.perf_counter()
    ready = time.monotonic()
    result = {"ready": ready, "factor": probe.stop(), "import_s": t1 - t0,
              "parse_s": t2 - t1}
    if args.probe:
        print(json.dumps(result))
        return 0

    if args.trace:
        from layers import LAYER_UNITS, Tracer
    rounds, traced = [], []
    while True:
        t0 = time.monotonic()
        rounds.append(_round(round_fn, kernel, args.out, len(rounds)))
        if args.trace:
            with Tracer() as tracer:
                rounds.append(_round(round_fn, kernel, args.out, len(rounds)))
            rounds[-1]["traced"] = True
            traced.append(tracer.metrics(rounds[-1]["wall_s"]))
        if time.monotonic() - ready + (time.monotonic() - t0) > args.seconds:
            break
    if args.trace:
        result["layers"] = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        walls = {True: [], False: []}
        for r in rounds:
            walls[bool(r.get("traced"))].append(r["wall_s"] * r["factor"])
        result["layers"]["trace.overhead_s"] = (statistics.median(walls[True])
                                                - statistics.median(walls[False]))
        result["units"] = LAYER_UNITS
    result["rounds"] = rounds
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
