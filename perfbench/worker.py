"""One workload in one fresh process: set up, say READY, run, check, report.

Started by run.py, never by hand.  Modes:

- setup: set up and exit (run.py times several of these for setup_s);
- run:   time whole rounds until --seconds have passed and at least
         --min-ops operations were timed, then check every output; stop
         --pauses times on the way (print PAUSE, wait for GO on stdin) so
         that run.py can time fresh set-up processes between operations;
- trace: alternate untraced rounds and rounds with spans on every layer
         boundary, report the per-layer metrics and the tracing overhead.

After READY every mode prints ``HOST <factor>``, the host factor of its
set-up (see HostMeter).  The last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

CALIBRATION_LOOP = 300_000

# The host's speed drifts by up to a factor of two within seconds, and by
# tens of percent from one minute to the next.  The meter is a fixed piece of
# work that belongs to the benchmark, not to qcthermo: a mix of a bytecode
# loop, float math, small objects, a sort and a numpy pass.  Its time, over
# its reference time, is the host factor, and every timed figure is divided
# by the factor of the moment it was taken in: the figures read as on a host
# where the meter takes its reference time.  A change to qcthermo does not
# change the meter, so it moves the figures as much as it moves the raw times.
#
# The numpy pass is sized per workload (floats, reference seconds).  The
# semiclassical operations are numpy passes over grids of ~400,000 points,
# which a mostly pure-Python meter tracks poorly.  sweeps and cli run Python
# code, which a numpy-heavy meter over-corrects: in one slow phase of this
# host the larger pass read 40-50 % slow while sweeps ran about 20 % slow.
METER = {"sweeps": (100_000, 3.0e-3), "semiclassical": (400_000, 4.0e-3),
         "cli": (100_000, 3.0e-3)}
METER_EVERY_S = 0.025  # of timed operations between two meter samples
METER_HALF_WINDOW = 2  # a segment's factor: median of the 2 + 2 samples around it


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def _pair(x, y):
    return x, y * 2.0


@functools.cache
def _meter_data(size):
    import numpy as np

    return ([random.Random(1).random() for _ in range(20_000)],
            np.linspace(-3.0, 3.0, size), np.empty(size))


def meter(size) -> float:
    """Seconds for the fixed meter work with a numpy pass over size floats
    (3 to 4 ms)."""
    import numpy as np

    floats, x, y = _meter_data(size)
    t = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i
    f, e = 0.0, math.exp
    for i in range(4_000):
        f += e(-i * 1e-4) * 1.5
    slots = [_Slot(p, {"k": p[1]}) for p in (_pair(i, 0.5) for i in range(1_000))]
    sorted(floats)
    np.multiply(x, x, out=y)
    np.exp(y, out=y)
    y.sum()
    del slots
    return time.perf_counter() - t


class HostMeter:
    """Meter samples taken between operations, at most every METER_EVERY_S.

    Segment k is the time between samples k and k + 1.  Its host factor is
    the median of the samples around it over the reference time, so that a
    sample hit by a stall of its own does not count.
    """

    def __init__(self, workload: str):
        self.size, self.ref_s = METER[workload]
        self.samples = [meter(self.size)]
        self.last = time.perf_counter()

    def segment(self) -> int:
        return len(self.samples) - 1

    def tick(self):
        if time.perf_counter() - self.last >= METER_EVERY_S:
            self.samples.append(meter(self.size))
            self.last = time.perf_counter()

    def factors(self) -> list[float]:
        """The host factor of every segment; closes the last one."""
        self.samples.append(meter(self.size))
        h = METER_HALF_WINDOW
        return [statistics.median(self.samples[max(0, k + 1 - h):k + 1 + h]) / self.ref_s
                for k in range(len(self.samples) - 1)]


def setup_factor(workload: str) -> float:
    size, ref_s = METER[workload]
    return statistics.median(meter(size) for _ in range(5)) / ref_s


def run_cases(wl, cases, lat, after=None):
    """Call each case once, timing each call into lat.

    Returns the results (an exception counts as the result of a raising
    call) and how many failed.  after() runs between calls, outside the
    timed spans.
    """
    clock = time.perf_counter
    results, failed = [], 0
    for case in cases:
        s = clock()
        try:
            r = wl.call(case)
        except Exception as exc:  # a raising operation counts as failed
            r = exc
        lat.append(clock() - s)
        failed += isinstance(r, Exception) or wl.failed(r)
        results.append(r)
        if after is not None:
            after()
    return results, failed


def pause() -> float:
    """Hand the CPU to run.py for one set-up sample; return the wall time."""
    t = time.perf_counter()
    print("PAUSE", flush=True)
    if sys.stdin.readline().strip() != "GO":
        raise RuntimeError("run.py did not resume the worker")
    return time.perf_counter() - t


def timed_rounds(wl, seconds, min_ops, pauses=0):
    """Run the once-per-run cases, then whole rounds until both limits pass.

    The once-per-run cases (the 4-D operation of semiclassical) run before
    the clock starts: one such call is one sample of the host, long enough
    to set a third of a run's time, so it counts in attempted and failed and
    is checked, but its time is in no figure.  With pauses > 0 the run stops
    that many times, spread evenly over the rounds after the first one, so
    that run.py can time a fresh set-up process; the time spent paused counts
    in no figure.  Returns the latencies, the host factor of each, the time
    of the once cases, the failed count, the results of the first and the
    last round (a round's results must repeat exactly) and of the once cases.
    """
    clock = time.perf_counter
    lat, segments, first, last, once_lat = [], [], [], [], []
    once, failed = run_cases(wl, wl.once, once_lat)
    host = HostMeter(wl.name)
    due = []
    paused = 0.0
    t0 = clock()

    def active():
        return clock() - t0 - paused

    def between():
        nonlocal paused
        segments.append(host.segment())
        host.tick()
        if due and active() >= due[0]:
            due.pop(0)
            paused += pause()

    while True:
        results, n = run_cases(wl, wl.cases, lat, between)
        failed += n
        if first:
            last = results
        else:
            first = results
            # the run's expected length, from the first round
            start = active()
            end = max(seconds, start * math.ceil(min_ops / len(results)))
            due = [start + (end - start) * (k + 0.5) / pauses for k in range(pauses)]
        if active() >= seconds and len(lat) >= min_ops:
            break
    for _ in due:
        pause()
    factors = host.factors()
    return (lat, [factors[k] for k in segments], sum(once_lat), failed, first, last or first,
            once)


def check(wl, first, last, once) -> list[str]:
    """Every output of the first round and of the once cases; the last round
    must repeat the first exactly."""
    problems = []
    outputs = [(f"{wl.name}[{i}]", case, a, b)
               for i, (case, a, b) in enumerate(zip(wl.cases, first, last))]
    outputs += [(f"{wl.name}.once[{i}]", case, r, r) for i, (case, r) in enumerate(zip(wl.once, once))]
    for where, case, a, b in outputs:
        if isinstance(a, Exception):
            problems.append(f"{where}: raised {a!r}")
            continue
        if not wl.same(a, b):
            problems.append(f"{where}: output differs between rounds")
        problems += wl.check(case, a, where)
    return problems


def host_figures() -> dict:
    import numpy

    def loop():
        t = time.perf_counter()
        s = 0
        for i in range(CALIBRATION_LOOP):
            s += i * i
        return (time.perf_counter() - t) * 1e3

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "calibration_loop_ms": round(statistics.median(loop() for _ in range(5)), 3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def peak_rss_mb(workload: str) -> float:
    # cli: the largest qcthermo child; otherwise this process
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_figures(lat_ms) -> dict:
    return {
        "throughput_ops_s": 1e3 * len(lat_ms) / sum(lat_ms),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": percentile(lat_ms, 90),
    }


def do_run(wl, args) -> dict:
    lat, factors, once_s, failed, first, last, once = timed_rounds(wl, args.seconds,
                                                                   args.min_ops, args.pauses)
    rss = peak_rss_mb(wl.name)
    problems = check(wl, first, last, once)
    scaled = latency_figures([x * 1e3 / f for x, f in zip(lat, factors)])
    units = {"throughput_ops_s": "ops/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms"}
    raw = latency_figures([x * 1e3 for x in lat])
    if once:
        raw["once_s"] = once_s
    return {
        "attempted": len(lat) + len(once),
        "failed": failed,
        "problems": problems,
        "metrics": {
            **{k: {"value": v, "unit": units[k]} for k, v in scaled.items()},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
        "raw": raw,
        "host_factor": {"median": statistics.median(factors), "min": min(factors),
                        "max": max(factors)},
    }


def import_split(runs=5) -> dict:
    """Bare interpreter start, and the import of qcthermo and numpy, in ms."""
    import subprocess

    clean = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    interp, total, numpy = [], [], []
    for _ in range(runs):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=clean)
        interp.append((time.perf_counter() - t) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qcthermo.cli"],
                              cwd=SRC, env=clean, check=True, capture_output=True, text=True)
        top, np_us = 0, 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if name.strip() == "numpy":
                np_us = int(cumulative)
            if not name.startswith("  ") and name.strip().startswith("qcthermo"):
                top += int(cumulative)
        total.append(top / 1e3)
        numpy.append(np_us / 1e3)
    return {
        "cli.interpreter_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(total),
        "cli.numpy_import_ms": statistics.median(numpy),
    }


def do_trace(wl, args) -> dict:
    """Untraced and traced rounds alternate, so that host drift falls on both
    alike; the layer metrics come from the traced rounds only."""
    import tracing

    import qcthermo.cli  # so that cli.run is wrapped too

    once, wl.once = wl.once, []  # the 4-D operation runs alone, below
    tracer = tracing.Tracer()
    tracer.install()
    wl.prepare()  # parse again, under the tracer
    tracer.uninstall()
    lat, traced_lat = [], []
    # an untraced warm round gives the outputs that the last traced round
    # must repeat; then untraced (U) and traced (T) rounds in U T T U order,
    # so that a steady drift of the host cancels out of the overhead
    first, failed = run_cases(wl, wl.cases, lat)
    round_s = {False: 0.0, True: 0.0}
    t0 = time.perf_counter()
    k = 0
    while k == 0 or k % 2 or time.perf_counter() - t0 < args.seconds:
        traced = k % 4 in (1, 2)
        if traced:
            tracer.install()
        t = time.perf_counter()
        results, n = run_cases(wl, wl.cases, traced_lat if traced else lat)
        round_s[traced] += time.perf_counter() - t
        if traced:
            tracer.uninstall()
            last = results
        failed += n
        k += 1
    metrics = tracing.layer_metrics(tracing.Spans(tracer), len(traced_lat))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{wl.name}-seed{args.seed}-spans.npz")
    problems = check(wl, first, last, [])

    # The 4-D operation of semiclassical, traced alone.
    metrics["semiclassical.kw_4d_s"] = 0.0
    if once:
        wl.once = once
        tracer.install()
        t = time.perf_counter()
        results, n = run_cases(wl, once, lat)
        metrics["semiclassical.kw_4d_s"] = time.perf_counter() - t
        tracer.uninstall()
        failed += n
        problems += check(wl, [], [], results)
    metrics.update(import_split())
    # equal numbers of untraced and traced rounds
    metrics["trace.overhead_pct"] = 100.0 * (round_s[True] / round_s[False] - 1.0)
    return {
        "attempted": len(lat) + len(traced_lat),
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", type=int, default=1)
    ap.add_argument("--pauses", type=int, default=0)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import qcthermo

    if Path(qcthermo.__file__).resolve().parent != (SRC / "qcthermo").resolve():
        print(f"qcthermo imported from {qcthermo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, args.seed, SRC)
    if args.workload == "cli" and args.mode == "trace":
        wl.in_process = True  # so that the spans inside each command are seen
    wl.prepare()
    wl.warm_up()
    print("READY", flush=True)
    print(f"HOST {setup_factor(args.workload)!r}", flush=True)
    if args.mode == "setup":
        return 0
    out = do_run(wl, args) if args.mode == "run" else do_trace(wl, args)
    out["host"] = host_figures()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
