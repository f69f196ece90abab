"""krflow benchmark: time to solution of the pinned run families, by layer.

    python3 perfbench/run.py --workload canonical --seed 0 --seconds 30 --trace 0

Closed loop: one operation at a time, each a fresh single-threaded Python
process (perfbench/child.py) that imports krflow from ./src, builds the
initial data, runs `flow.run_flow`, writes the artifacts and passes the
correctness gate (perfbench/gate.py).  Operations repeat until --seconds
have elapsed (at least three).  With --trace 0 the end-to-end metrics are
reported, and three extra set-up-only processes add set-up time samples;
with --trace 1 traced and untraced operations alternate and the
per-layer metrics are reported, plus calls per step from two profiled
slices.  Every metric is printed by name with its unit, sample count,
median and maximum; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"       # inherited by every child, before numpy loads

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

MIN_OPS = 3            # untraced operations per run
MIN_PAIRS = 2          # untraced + traced pairs per traced run
SETUP_PROBES = 3       # extra set-up-only processes per untraced run
BUDGET_S = 170.0       # the whole invocation must end within 180 s
PROFILE_SLICES = (200, 1200)   # accepted steps; multiples of remesh_interval
TINY_PROFILE_SLICES = (10, 50)

END_TO_END = {"run_s": "s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "trace.run_s": "s", "trace.overhead": "ratio",
    "flow.step_s": "s", "flow.step_us": "us", "flow.steps": "count",
    "flow.rhs_per_step": "rhs/step", "flow.calls_per_step": "calls/step",
    "barriers.monitor_s": "s", "barriers.monitor_us": "us",
    "barriers.monitor_calls": "count", "soliton.fik_s": "s",
    "flow.remesh_s": "s", "flow.remeshes": "count",
    "grids.mesh_s": "s", "grids.mesh_calls": "count",
    "flow.measure_s": "s", "flow.records": "count",
    "flow.dilated_s": "s", "flow.dilated_substeps_per_step": "substeps/step",
    "flow.loop_self_s": "s", "flow.initial_s": "s", "soliton.profile_s": "s",
    "flow.io_s": "s", "flow.io_bytes": "B",
    "flow.dt_min": "t", "flow.dt_max": "t",
    "acc.sup_err_c0": "abs", "acc.kc_rel_err": "rel", "acc.cross_supdiff": "abs",
    "barriers.violations": "count",
}

# must repeat exactly between runs of the same code and config
COUNTERS = ("flow.steps", "flow.rhs_per_step", "flow.dilated_substeps_per_step",
            "flow.remeshes", "flow.records", "barriers.monitor_calls",
            "grids.mesh_calls", "flow.calls_per_step")

# layer -> the spans (see tracer.BOUNDARIES) its metrics are computed from
LAYER_OF = {
    "flow.step_s": "flow.step", "flow.step_us": "flow.step",
    "barriers.monitor_s": "barriers.monitor", "barriers.monitor_us": "barriers.monitor",
    "barriers.monitor_calls": "barriers.monitor", "soliton.fik_s": "soliton.fik",
    "flow.remesh_s": "flow.remesh", "flow.remeshes": "flow.remesh",
    "grids.mesh_s": "grids.mesh", "grids.mesh_calls": "grids.mesh",
    "flow.measure_s": "flow.measure", "flow.dilated_s": "flow.dilated",
    "flow.dilated_substeps_per_step": "flow.dilated",
    "flow.loop_self_s": "flow.run", "flow.initial_s": "flow.initial",
    "soliton.profile_s": "soliton.profile", "flow.io_s": "flow.io",
    "flow.rhs_per_step": "flow.rhs_calls",
}


def spawn(req, deadline):
    """Run one child, killed at the monotonic time `deadline`; returns
    (result dict or None, error text, spawn time)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(req)],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=max(deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired:
        return None, "timed out", t_spawn
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"exit {proc.returncode}: {tail[0]}", t_spawn
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), "", t_spawn
    except (IndexError, json.JSONDecodeError):
        return None, f"unreadable output {proc.stdout[-200:]!r}", t_spawn


def run_op(mode, workload, cfg, k, deadline):
    out_dir = os.path.join(OUT_ROOT, f"op{k}")
    req = {"mode": mode, "workload": workload, "config": cfg, "out_dir": out_dir}
    try:
        res, err, t_spawn = spawn(req, deadline)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if res is None:
        return {"ok": False, "reasons": [err], "mode": mode}
    res["mode"] = mode
    if mode == "setup":
        return res
    # what a `krflow evolve` user waits for, less the set-up probe's own
    # make_initial call, which only the benchmark makes; the interpreter's
    # start, before the speedometer runs, is scaled by the process's slowness
    res["wall_s"] = ((res["t_main"] - t_spawn) / res["slowness"]
                     + res["main_to_artifacts_s"] - res["initial_s"])
    return res


def layer_metrics(r):
    tr = r["trace"]
    tot, slf, cnt = tr["total"], tr["self"], tr["counts"]
    steps = max(r["steps"], 1)
    monitor_calls = cnt.get("barriers.monitor_calls", 0)
    m = {
        "trace.run_s": r["run_host_s"],
        "flow.step_s": slf.get("flow.step", 0.0),
        "flow.step_us": 1e6 * slf.get("flow.step", 0.0) / steps,
        "flow.steps": r["steps"],
        "flow.rhs_per_step": cnt.get("flow.rhs_calls", 0) / steps,
        "barriers.monitor_s": tot.get("barriers.monitor", 0.0),
        "barriers.monitor_us": 1e6 * tot.get("barriers.monitor", 0.0) / max(monitor_calls, 1),
        "barriers.monitor_calls": monitor_calls,
        "soliton.fik_s": tot.get("soliton.fik", 0.0),
        "flow.remesh_s": tot.get("flow.remesh", 0.0),
        "flow.remeshes": cnt.get("flow.remeshes", 0),
        "grids.mesh_s": tot.get("grids.mesh", 0.0),
        "grids.mesh_calls": cnt.get("grids.mesh_calls", 0),
        "flow.measure_s": tot.get("flow.measure", 0.0),
        "flow.records": r["records"],
        "flow.dilated_s": tot.get("flow.dilated", 0.0),
        "flow.dilated_substeps_per_step": cnt.get("flow.dilated_substeps", 0) / steps,
        "flow.loop_self_s": slf.get("flow.run", 0.0),
        "flow.initial_s": tot.get("flow.initial", 0.0),
        "soliton.profile_s": tot.get("soliton.profile", 0.0),
        "flow.io_s": tot.get("flow.io", 0.0),
        "flow.io_bytes": r["io_bytes"],
        "flow.dt_min": r["dt_min"],
        "flow.dt_max": r["dt_max"],
    }
    m.update(r["acc"])
    return m


def summarize(samples, units):
    return {name: {"unit": units[name], "n": len(v),
                   "median": statistics.median(v) if v else 0.0,
                   "max": max(v) if v else 0.0}
            for name, v in samples.items()}


def machine_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "git_sha": sha}


def measure(args, cfg, deadline):
    """Run the operations; returns (ops, calls_per_step samples)."""
    ops, calls = [], []
    t0, last, rounds = time.monotonic(), 0.0, 0
    if not args.trace:
        for _ in range(SETUP_PROBES):
            ops.append(run_op("setup", args.workload, cfg, len(ops), deadline))
    modes = ("op", "traced") if args.trace else ("op",)
    least = MIN_PAIRS if args.trace else MIN_OPS
    while rounds < least or time.monotonic() - t0 + last <= args.seconds:
        if deadline - time.monotonic() < 2.0 * last:
            break
        t_round = time.monotonic()
        for mode in modes:
            ops.append(run_op(mode, args.workload, cfg, len(ops), deadline))
        last = time.monotonic() - t_round
        rounds += 1
    if args.trace:
        slices = TINY_PROFILE_SLICES if args.tiny else PROFILE_SLICES
        for _ in range(2):
            res, err, _ = spawn({"mode": "profile", "config": cfg,
                                 "slices": slices}, deadline)
            ops.append({"ok": res is not None, "reasons": [err], "mode": "profile"})
            if res is not None:
                calls.append(res["calls_per_step"])
    return ops, calls


def counter_mismatches(ops, layer_samples):
    bad = [f"{key} differs between operations: {sorted(set(vals))}"
           for key, vals in layer_samples.items()
           if key in COUNTERS and len(set(vals)) > 1]
    for key in ("steps", "records"):
        vals = {r[key] for r in ops if key in r}
        if len(vals) > 1:
            bad.append(f"{key} differs between operations: {sorted(vals)}")
    return bad


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="grid_n=128, short runs: the benchmark's self-test scale")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "krflow", "flow.py")):
        print(f"krflow sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    cfg = workloads.make_config(args.workload, args.seed, tiny=args.tiny)
    try:
        versions, err, _ = spawn({"mode": "warm"}, deadline)
        if versions is None:
            print(f"cannot import krflow: {err}", file=sys.stderr)
            return 2
        ops, calls = measure(args, cfg, deadline)
    finally:
        shutil.rmtree(OUT_ROOT, ignore_errors=True)

    failures = [f"{r['mode']}: {'; '.join(r['reasons'])}" for r in ops if not r["ok"]]
    done = [r for r in ops if "setup_s" in r]
    good = [r for r in done if r["ok"]] or done
    plain = [r for r in good if r["mode"] == "op"]
    traced = [r for r in good if r["mode"] == "traced"]

    samples = {name: [r[name] for r in plain] for name in END_TO_END}
    samples["setup_s"] = [r["setup_s"] for r in good if r["mode"] in ("op", "setup")]
    units = dict(END_TO_END)
    layer_samples, absent = {}, []
    if args.trace:
        per_op = [layer_metrics(r) for r in traced]
        layer_samples = {name: [m[name] for m in per_op] for name in PER_LAYER
                         if name not in ("trace.overhead", "flow.calls_per_step")}
        layer_samples["flow.calls_per_step"] = calls
        if traced and plain:
            layer_samples["trace.overhead"] = [
                statistics.median(r["run_host_s"] for r in traced)
                / statistics.median(r["run_host_s"] for r in plain) - 1.0]
        spans = set(traced[0]["trace"]["absent"]) if traced else set()
        absent = sorted(name for name, span in LAYER_OF.items() if span in spans)
        samples, units = layer_samples, dict(PER_LAYER)
    mismatches = counter_mismatches(done, layer_samples)
    summary = summarize({name: samples.get(name, []) for name in units}, units)
    for name in absent:
        summary[name]["absent"] = True

    print(f"krflow perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} operations={len(ops)} failed={len(failures)}")
    for name, s in summary.items():
        tag = "  (absent)" if s.get("absent") else ""
        print(f"  {name:32s} {s['unit']:14s} n={s['n']:<3d} "
              f"median={s['median']:.6g}  max={s['max']:.6g}{tag}")
    if args.trace and traced:
        run = summary["trace.run_s"]["median"]
        shares = {k: summary[k]["median"] / run for k in (
            "flow.step_s", "barriers.monitor_s", "flow.remesh_s", "grids.mesh_s",
            "flow.measure_s", "flow.dilated_s", "flow.loop_self_s", "flow.initial_s")}
        print("  shares of trace.run_s: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in shares.items()))
    for line in failures + mismatches:
        print(f"  FAIL {line}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "config": cfg, "machine": {**machine_info(), **versions},
              "summary": summary, "samples": samples,
              "host": {key: [r[key] for r in good if key in r]
                       for key in ("run_host_s", "slowness")},
              "failures": failures,
              "counter_mismatches": mismatches}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures and not mismatches and bool(good),
        "attempted": len(ops), "failed": len(failures),
        "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in summary.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
