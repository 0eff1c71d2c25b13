"""qcthermo benchmark: one workload per call, run from the root of a checkout.

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Each call starts the workload in fresh worker processes (perfbench/worker.py)
that import qcthermo from ./src.  With --trace 0 the last line of stdout is
the end-to-end result; with --trace 1 it carries the per-layer metrics of a
separate traced run.  --self-check runs every workload briefly, both ways,
and confirms that each result carries every metric named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
ROOT = Path.cwd()
# setup_s is the median of this many fresh processes: the run worker and
# the set-up workers started while it pauses, spread over the timed run
SETUP_SAMPLES = 7
# a run times at least this many operations, so that the p90 latency has
# ten samples above it
MIN_OPS = 100
WORKER_TIMEOUT_S = 170


def start_worker(args, mode, min_ops, pauses=0):
    """Start a worker; return it, the seconds until it said READY, and those
    seconds over the host factor it measured next (see worker.HostMeter)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--min-ops", str(min_ops), "--mode", mode,
           "--pauses", str(pauses)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    host = proc.stdout.readline().split()
    if line.strip() != "READY" or len(host) != 2 or host[0] != "HOST":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} worker for {args.workload} did not start")
    return proc, ready, ready / float(host[1])


def finish(proc) -> str:
    """Wait for a worker and return the last line it printed."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out.strip().splitlines()[-1] if out.strip() else ""


def timed_run(args, min_ops):
    """The timed run, and setup_s sampled while it pauses: raw and scaled."""
    proc, ready, scaled = start_worker(args, "run", min_ops, SETUP_SAMPLES - 1)
    setups, raw = [scaled], [ready]
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        while (line := proc.stdout.readline()).strip() == "PAUSE":
            sample, ready, scaled = start_worker(args, "setup", min_ops)
            finish(sample)
            setups.append(scaled)
            raw.append(ready)
            proc.stdin.write("GO\n")
            proc.stdin.flush()
        line += proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.stdin.close()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    out = json.loads(line.strip().splitlines()[-1] if line.strip() else "")
    print("# setup_s samples " + json.dumps([round(x, 4) for x in setups]), file=sys.stderr)
    out["raw"]["setup_s"] = statistics.median(raw)
    return out, statistics.median(setups)


def pin_to_one_cpu():
    """Run this process and every process it starts on one CPU.

    The host meter runs in the worker and a cli operation in a child of it:
    on one CPU both see the speed of the same core, and no operation moves
    between cores of different speed.  Every workload is a closed loop with
    one caller, so it uses one CPU at a time anyway.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(args) -> dict:
    min_ops = 1 if args.quick else MIN_OPS
    if args.trace:
        proc, _, _ = start_worker(args, "trace", min_ops)
        out = json.loads(finish(proc))
        metrics = out["metrics"]
    else:
        out, setup_s = timed_run(args, min_ops)
        metrics = dict(setup_s={"value": setup_s, "unit": "s"}, **out["metrics"])
    for problem in out["problems"]:
        print("PROBLEM", problem, file=sys.stderr)
    if not args.trace:
        # the same figures unscaled, and the host factors they were scaled by
        print("# raw " + json.dumps(out["raw"]))
        print("# host_factor " + json.dumps(out["host_factor"]))
    print("# host " + json.dumps(out["host"]))
    return {"correct": not out["problems"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def self_check() -> int:
    """Every workload, briefly, both ways: every named metric must be there,
    and every per-layer metric must read other than 0 on some workload (a
    workload reads 0 for a layer it never calls)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    measured = set()
    for w in spec["workloads"]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--quick"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=2 * WORKER_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"FAIL {w['name']} trace={trace}: no result\n{proc.stderr}")
                ok = False
                continue
            want = {m["name"]: m["unit"] for m in names}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            errors = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"keys {sorted(result)}")
            if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
                    and isinstance(result.get("failed"), int)):
                errors.append("attempted/failed are not counts")
            if result.get("correct") is not True:
                errors.append("outputs incorrect")
            if trace:
                measured |= {k for k, v in result["metrics"].items() if v["value"]}
            if got != want:
                errors.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                              f"extra {sorted(set(got) - set(want))}, "
                              f"units {sorted(k for k in want if k in got and got[k] != want[k])}")
            status = "ok  " if not errors else "FAIL"
            print(f"{status} {w['name']:14s} trace={trace} attempted={result.get('attempted')} "
                  f"failed={result.get('failed')} {'; '.join(errors)}")
            ok &= not errors
    never = sorted({m["name"] for m in spec["per_layer"]} - measured)
    if never:
        print(f"FAIL per-layer metrics that read 0 on every workload: {never}")
    return 0 if ok and not never else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["sweeps", "semiclassical", "cli"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true", help="drop the minimum operation count")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "qcthermo" / "__init__.py").is_file():
        print(f"no qcthermo sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    if args.self_check:
        return self_check()
    if not args.workload:
        ap.error("--workload is required")
    try:
        result = run_workload(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
