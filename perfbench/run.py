"""The ietword benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Set-up times `python -m ietword --help`
over several launches (setup_s), builds the workload's inputs from the
seed, and hands them to one worker interpreter that runs the operations
one at a time for S seconds and checks every output. The last line of
standard output is a JSON object with the end-to-end metrics (--trace 0)
or the per-layer metrics of a traced run (--trace 1).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks      # noqa: E402
import workloads   # noqa: E402
from speed import Sampler   # noqa: E402

SETUP_LAUNCHES = 11
RUN_LIMIT_S = 170          # a run must end within 180 s
END_TO_END = [
    ("setup_s", "s"), ("gen_s", "s"), ("validate_s", "s"), ("fz_s", "s"),
    ("reconstruct_s", "s"), ("regularity_s", "s"), ("essential_s", "s"),
    ("cylinder_s", "s"), ("pointmap_s", "s"), ("peak_rss_mib", "MiB"),
    ("roundtrip_ratio", "ratio"), ("verdict_match_ratio", "ratio"),
]


def _spawn(argv, env, cwd, limit_s, log, poll_s):
    """Run a child to completion; (exit code, peak RSS MiB).

    Its standard error goes to the file `log`, shown when it fails. The
    child is killed after `limit_s` seconds, or when this process is.
    """
    t0 = time.perf_counter()
    with open(log, "wb") as err:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=err)
    pid = 0
    try:
        while not pid:
            if time.perf_counter() - t0 > limit_s:
                proc.kill()
            time.sleep(poll_s)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:
            proc.kill()
            os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log, errors="replace") as fh:
            sys.stderr.write(fh.read())
    return proc.returncode, usage.ru_maxrss / 1024


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def measure_setup(env, work):
    """Median calibrated and raw wall time of separate
    `python -m ietword --help` launches."""
    calibrated, walls = [], []
    sampler = Sampler()
    for _ in range(SETUP_LAUNCHES):
        (rc, _), wall, speed = sampler.measure(lambda: _spawn(
            [sys.executable, "-m", "ietword", "--help"], env, work, 60,
            os.path.join(work, "setup.err"), 0.001))
        if rc != 0:
            raise RuntimeError("`python -m ietword --help` failed")
        calibrated.append(wall / speed)
        walls.append(wall)
    return statistics.median(calibrated), statistics.median(walls)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, _terminate)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ietword", "cli.py")):
        print("error: run from the repository root; src/ietword is missing",
              file=sys.stderr)
        return 2
    problems = checks.selftest()
    if problems:
        print("error: checker self-test failed: " + "; ".join(problems),
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]))
    work = os.path.join(root, ".perfbench-work",
                        f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    setup_s, setup_wall = measure_setup(env, work)
    plan = workloads.WORKLOADS[args.workload](args.seed).as_json()
    for name, text in plan.pop("files").items():
        with open(os.path.join(work, name), "w", encoding="ascii") as fh:
            fh.write(text)
    with open(os.path.join(work, "plan.json"), "w") as fh:
        json.dump(plan, fh)

    limit = RUN_LIMIT_S - (time.perf_counter() - started)
    rc, rss_mib = _spawn(
        [sys.executable, os.path.join(HERE, "worker.py"), "plan.json",
         "result.json", str(args.seconds), str(args.trace)], env, work, limit,
        os.path.join(work, "worker.err"), 0.05)
    if rc != 0:
        print(f"error: worker exited {rc}", file=sys.stderr)
        return 2
    with open(os.path.join(work, "result.json")) as fh:
        result = json.load(fh)
    for name in plan_files(work):
        os.remove(os.path.join(work, name))

    tally = result["tally"]
    verdict_ratio = 1 - tally["mismatches"] / tally["checks"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['executions']} operations, {result['cycles']} whole cycles")
    for note in tally["notes"]:
        print(f"  mismatch or failure: {note}")
    print(f"verdict_mismatches {tally['mismatches']} count "
          f"(of {tally['checks']} known-answer checks, "
          f"{tally['hard_mismatches']} on exact answers)")
    print(f"fail_ratio {tally['failed'] / tally['attempted']:.4f} ratio "
          f"({tally['failed']} of {tally['attempted']} operations)")
    print(f"roundtrip letters {tally['matched']} of {tally['letters']}")

    if args.trace:
        metrics = result["layers"]
        print(f"cli.accounted {result['cli_accounted']:.6f} ratio "
              "(cli.main spans over the timed CLI operations)")
        print(f"spans written to {os.path.relpath(work, root)}/result.spans.jsonl")
    else:
        result["raw"]["setup_s"] = setup_wall
        values = dict(result["times"], setup_s=setup_s, peak_rss_mib=rss_mib,
                      roundtrip_ratio=tally["matched"] / tally["letters"],
                      verdict_match_ratio=verdict_ratio)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, m in metrics.items():
        wall = result["raw"].get(name)
        note = f" (wall {wall:.6g} s)" if wall is not None and not args.trace else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({
        "correct": tally["failed"] == 0 and tally["hard_mismatches"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


def plan_files(work):
    """Inputs and outputs of the run; the result and spans stay."""
    keep = {"result.json", "result.spans.jsonl"}
    return [f for f in os.listdir(work) if f not in keep]


if __name__ == "__main__":
    sys.exit(main())
