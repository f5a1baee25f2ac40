"""Benchmark of the semihydro command-line workloads.

    python3 bench/run.py --workload {scenario,sweep,steady,mms} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Each run spawns the workload's
process (bench/worker.py) on the sources in src/, plus set-up probes, and
then checks every output that process wrote with bench/checks.py.

--trace 0 reports the end-to-end metrics: setup_s (median of the set-up
times of all spawned processes), wall_s (median over the rounds of one
round's program time) and peak_rss_mb (the workload process).
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics instead, medians over the traced rounds; trace.overhead_s is the
median traced round minus the median untraced one. No workload takes a random input: --seed is
recorded with the raw results and changes nothing.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Raw results go to .bench_out/results/.
Exit code 2 means the checkout is unusable (no sources); 1 means a
spawned process failed.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402

WORKLOADS = ("scenario", "sweep", "steady", "mms")
SCENARIO_CONFIG = "configs/scenario_sine.ini"
MMS_CONFIG = "configs/mms.ini"
PROBES = 2                  # extra set-up samples besides the workload process
WORKER_TIMEOUT = 150.0      # seconds
# the program fault behind the scenario's failing reports
KNOWN_FAULT = ("cli.cmd_run measures Phi and L against the inviscid profile, not "
               "against the viscous steady state the run converges to")


def _spawn(args, env, timeout):
    """Run one worker; return (parsed last stdout line, spawn time)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {args} timed out after {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), t_spawn


def _seconds(values):
    return ", ".join(f"{v:.3f}" for v in values)


def check_rounds(workload, rounds):
    """Check every round's outputs; return (attempted, failed names, problems)."""
    import semihydro as sh
    from semihydro.config import parse_config
    from workloads import MMS_RESOLUTIONS, SWEEP_EPS, VISCOUS_GAMMAS, viscous_inputs

    attempted, failed, problems = 0, [], []
    if workload == "mms":
        problems += checks.check_mms_solution(sh.manufactured_solution)
    setting = checks.Setting(MMS_CONFIG if workload == "mms" else SCENARIO_CONFIG)
    profiles = {}

    def profile(gamma):
        if gamma not in profiles:
            profiles[gamma] = checks.inviscid_profile(setting.doping, gamma)
        return profiles[gamma]

    if workload == "steady":
        with open(SCENARIO_CONFIG) as fh:
            cfg = parse_config(fh.read())
        viscous = {g: viscous_inputs(cfg, g) for g in VISCOUS_GAMMAS}
    for rnd in rounds:
        out, codes = rnd["dir"], rnd["codes"]
        if workload == "scenario":
            a, f, p = checks.check_scenario(out, setting, profile(setting.gamma))
        elif workload == "sweep":
            a, f, p = checks.check_sweep(out, SWEEP_EPS, codes[0])
        elif workload == "mms":
            a, f, p = checks.check_mms(out, MMS_RESOLUTIONS, codes[0])
        else:
            a, f, p = len(codes), [], []
            for name in sorted(os.listdir(out)):
                gamma = float(name.split("_g")[1].removesuffix(".npz"))
                if name.startswith("inviscid"):
                    p += checks.check_inviscid_csv(f"{out}/{name}/stationary.csv",
                                                   profile(gamma))
                else:
                    scfg, D, _ = viscous[gamma]
                    p += checks.check_viscous(f"{out}/{name}", scfg, D, profile(gamma),
                                              sh.step, sh.cfl_dt, sh.State)
            f = [f"op{k}" for k, c in enumerate(codes) if c != 0]
        attempted += a
        failed += f
        problems += p
    return attempted, failed, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/semihydro/__init__.py", SCENARIO_CONFIG, MMS_CONFIG)
               if not os.path.isfile(p)]
    if missing:
        print(f"bench: not a semihydro checkout, missing {missing}", file=sys.stderr)
        return 2
    # the build: byte-compile the sources once, so no timed process does it
    compileall.compile_dir("src", quiet=1)
    sys.path.insert(0, os.path.abspath("src"))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    out_root = os.path.join(".bench_out", f"{args.workload}-{os.getpid()}")
    base = ["--workload", args.workload, "--out", out_root]
    try:
        samples = [_spawn(base + ["--probe"], env, 60.0) for _ in range(PROBES)]
        worker_args = base + ["--seconds", str(args.seconds)]
        if args.trace:
            worker_args.append("--trace")
        samples.append(_spawn(worker_args, env, WORKER_TIMEOUT))
        result = samples[-1][0]
        attempted, failed, problems = check_rounds(args.workload, result["rounds"])
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    raw_setup = [r["ready"] - t for r, t in samples]
    setup = [s * r["factor"] for s, (r, _) in zip(raw_setup, samples)]
    untraced = [r for r in result["rounds"] if not r.get("traced")]
    raw_walls = [r["wall_s"] for r in untraced]
    walls = [r["wall_s"] * r["factor"] for r in untraced]
    if args.trace:
        layers = dict(result["layers"])
        layers["setup.import_s"] = statistics.median(r["import_s"] for r, _ in samples)
        layers["setup.parse_s"] = statistics.median(r["parse_s"] for r, _ in samples)
        metrics = {k: {"value": v, "unit": result["units"][k]} for k, v in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }

    print(f"{args.workload}: {len(walls)} rounds; wall {_seconds(raw_walls)} s measured, "
          f"{_seconds(walls)} s at reference speed; set-up {_seconds(raw_setup)} s measured, "
          f"{_seconds(setup)} s at reference speed")
    if failed:
        names = sorted(set(failed))
        known = args.workload == "scenario" and set(names) <= {"decay", "lyapunov"}
        cause = KNOWN_FAULT if known else "not known"
        print(f"failed operations: {len(failed)} of {attempted} ({', '.join(names)}); "
              f"cause: {cause}")
    for p in problems:
        print(f"WRONG OUTPUT: {p}")

    os.makedirs(os.path.join(".bench_out", "results"), exist_ok=True)
    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "setup_s": setup, "wall_s": walls,
           "measured_setup_s": raw_setup, "measured_wall_s": raw_walls,
           "failed": failed, "problems": problems, "metrics": metrics}
    raw_path = os.path.join(".bench_out", "results", f"{args.workload}-seed{args.seed}"
                            f"-trace{args.trace}-{os.getpid()}.json")
    with open(raw_path, "w") as fh:
        json.dump(raw, fh, indent=1)

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
