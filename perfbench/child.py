"""One benchmark operation in a fresh single-threaded process.

Usage (from run.py): python3 perfbench/child.py '<request JSON>'

The request names a mode, the workload, the FlowConfig keywords and an
output directory.  Modes:

  warm     import krflow once (compiles bytecode) and report versions;
  setup    import and build the initial data only (a set-up time sample);
  op       import, build the initial data, run_flow, write_artifacts, gate;
  traced   the same with the layer tracer installed after set-up, and
           without the speedometer;
  profile  count Python and C calls per accepted step with cProfile, as the
           difference of two run slices, so set-up calls cancel.

In `setup` and `op` mode a Speedometer (below) samples the host's speed
throughout, and every time reported is in reference seconds.

Prints one JSON object on stdout.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"       # before numpy is imported

import cProfile
import json
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Speedometer:
    """Host speed, sampled on the program's own core and thread.

    The shared host this benchmark was built on changes speed by up to 1.8x
    within seconds, and each core on its own, so no separate process and no
    earlier calibration can stand in for it.  Instead, every PERIOD_S of wall
    time a SIGALRM runs a fixed reference kernel between two of the
    program's bytecodes: stencil arithmetic, a copy, np.interp and np.min on
    256 points, the mix of krflow's step.  Small arrays track krflow best:
    over 15-40 runs of each workload, the spread of run times corrected by
    a 256-point kernel was 4-8% (IQR over median), against 7-16% with 2,048
    points and 13-28% uncorrected.  Its mean time over an interval,
    divided by REF_KERNEL_S, is how much slower than the reference host the
    interval ran.  `seconds(a, b)` turns the wall interval [a, b] into
    reference seconds: its length less the kernel's own time in it, divided
    by that slowness.  The program does not see the kernel; a program that
    does more work reads slower, as it should, and a host that slows down
    slows both alike.
    """

    PERIOD_S = 0.02
    REF_KERNEL_S = 3.5e-4      # the kernel's mean inside run_flow on the reference host
    REPS = 12
    MIN_SAMPLES = 10           # fewer in an interval: use the whole process's

    def __init__(self):
        import numpy as np
        self.np = np
        self.x = np.linspace(1.0, 2.0, 256)
        self.xi = np.linspace(0.1, 1.0, 254)
        self.samples = []      # (monotonic start, duration)
        self._kernel()         # first call pays numpy's lazy set-up

    def _kernel(self):
        np, x, xi = self.np, self.x, self.xi
        acc = 0.0
        for _ in range(self.REPS):
            ui = x[1:-1]
            uf = 0.5 * (x[2:] - x[:-2])
            uff = x[2:] - 2.0 * ui + x[:-2]
            F = ui * uff - uf * uf + 2.0 * uf - (ui / xi) ** 2
            u = x.copy()
            u[1:-1] += 1e-9 * F
            acc += float(np.interp(0.5, xi, ui)) + float(np.min(u))
        return acc

    def _tick(self, signum, frame):
        t = time.monotonic()
        self._kernel()
        self.samples.append((t, time.monotonic() - t))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def slowness(self, durations=None):
        """Mean kernel time over REF_KERNEL_S.  A sample is capped at four
        times the median, so a pre-emption that lands in one kernel call
        does not count 1/f-fold (f being the kernel's share of the time)."""
        d = durations if durations is not None else [d for _, d in self.samples]
        if not d:
            return 1.0
        cap = 4.0 * statistics.median(d)
        return statistics.fmean(min(x, cap) for x in d) / self.REF_KERNEL_S

    def seconds(self, a, b):
        inside = [d for t, d in self.samples if a <= t < b]
        slow = self.slowness(inside if len(inside) >= self.MIN_SAMPLES else None)
        return (b - a - sum(inside)) / slow

    def kernel_seconds(self, a, b):
        return sum(d for t, d in self.samples if a <= t < b)


def _import_krflow():
    sys.path.insert(0, SRC)
    import krflow
    from krflow import analysis, barriers, flow
    if not os.path.abspath(krflow.__file__).startswith(SRC + os.sep):
        raise ImportError(f"krflow imported from {krflow.__file__}, not {SRC}")
    return {"flow": flow, "barriers": barriers, "analysis": analysis}


def _versions():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _calls_per_step(flow, cfg, slices):
    """Marginal profiled calls per accepted step between two run lengths.

    Calls are summed per code object from the profiler's raw entries:
    pstats keys functions by (file, line, name), under which e.g. all
    dataclass __init__s collide and overwrite each other.
    """
    flow.run_flow(replace(cfg, max_steps=slices[0]))       # warm lazy caches
    counts = []
    for n in slices:
        prof = cProfile.Profile()
        prof.enable()
        arts = flow.run_flow(replace(cfg, max_steps=n))
        prof.disable()
        calls = sum(entry.callcount for entry in prof.getstats())
        counts.append((calls, arts.manifest["steps"]))
    (c0, s0), (c1, s1) = counts
    if s1 <= s0:
        raise RuntimeError(f"profile slices gave {s0} and {s1} steps")
    return (c1 - c0) / (s1 - s0)


def _dt_range(series):
    dts = [r.dt for r in series if r.dt > 0.0]
    return (min(dts), max(dts)) if dts else (0.0, 0.0)


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def run_op(req, t_main):
    meter = None if req["mode"] == "traced" else Speedometer()
    if meter is not None:
        meter.start()

    def seconds(a, b):
        return meter.seconds(a, b) if meter is not None else b - a

    mods = _import_krflow()
    flow = mods["flow"]
    import gate
    cfg = flow.FlowConfig(**req["config"])

    t0 = time.monotonic()
    flow.make_initial(cfg)
    t_setup = time.monotonic()
    if req["mode"] == "setup":
        meter.stop()
        return {"ok": True, "setup_s": seconds(t_main, t_setup),
                "slowness": meter.slowness()}

    tracer = None
    if req["mode"] == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(mods)
    t_run = time.monotonic()
    arts = flow.run_flow(cfg)
    t1 = time.monotonic()
    flow.write_artifacts(arts, req["out_dir"])
    t_done = time.monotonic()
    if meter is not None:
        meter.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok, reasons, acc = gate.check(req["workload"], cfg, arts, req["out_dir"])
    dt_min, dt_max = _dt_range(arts.series)
    out = {
        "ok": ok, "reasons": reasons, "run_s": seconds(t_run, t1),
        # wall seconds of run_flow, less the speedometer's kernel time in it
        "run_host_s": t1 - t_run - (meter.kernel_seconds(t_run, t1) if meter else 0.0),
        "initial_s": seconds(t0, t_setup), "setup_s": seconds(t_main, t_setup),
        "t_main": t_main, "main_to_artifacts_s": seconds(t_main, t_done),
        "slowness": meter.slowness() if meter else 1.0, "peak_rss_mb": rss_mb,
        "steps": arts.manifest["steps"], "records": arts.manifest["records"],
        "io_bytes": _dir_bytes(req["out_dir"]),
        "dt_min": dt_min, "dt_max": dt_max, "acc": acc,
    }
    if tracer is not None:
        out["trace"] = {"total": dict(tracer.total), "self": dict(tracer.self_time),
                        "counts": dict(tracer.counts), "absent": tracer.absent}
    return out


def main(argv):
    t_main = time.monotonic()
    req = json.loads(argv[1])
    if req["mode"] == "warm":
        _import_krflow()
        out = _versions()
    elif req["mode"] == "profile":
        flow = _import_krflow()["flow"]
        cfg = flow.FlowConfig(**req["config"])
        out = {"calls_per_step": _calls_per_step(flow, cfg, req["slices"])}
    else:
        out = run_op(req, t_main)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
