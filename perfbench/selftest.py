"""Self-test of the benchmark at tiny scale (grid_n = 128, short runs).

    python3 perfbench/selftest.py

Checks that
- every workload, untraced and traced, prints each metric that BENCHMARK.json
  names, with its unit, and passes its own correctness gate;
- the deterministic counters repeat exactly between two traced invocations;
- a deliberately corrupted snapshot trips the correctness gate;
- run.py fails, printing no result, where the krflow sources are missing.

Exits 0 when every check holds, 1 otherwise.  Takes about a minute.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import shutil
import subprocess
import sys

import run
import workloads

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class Checks:
    def __init__(self):
        self.failed = []

    def __call__(self, ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            self.failed.append(what)


def bench(workload, trace, root=run.ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=180)


def check_outputs(check, spec):
    traced = {}
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(workload, trace)
            lines = proc.stdout.strip().splitlines()
            tag = f"{workload} trace={trace}"
            check(proc.returncode == 0 and bool(lines), f"{tag}: exit 0 with output")
            if proc.returncode != 0 or not lines:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(lines[-1])
            check(set(result) == RESULT_KEYS, f"{tag}: result keys {sorted(result)}")
            check(result.get("correct") is True and result.get("failed") == 0,
                  f"{tag}: correct, {result.get('failed')} failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            check(got == want, f"{tag}: metrics and units match BENCHMARK.json")
            printed = all(any(ln.split()[:2] == [name, unit] for ln in lines)
                          for name, unit in want.items())
            check(printed, f"{tag}: every metric printed with its unit")
            if trace:
                traced[workload] = result["metrics"]
    if "coupled" in traced:
        again = json.loads(bench("coupled", 1).stdout.strip().splitlines()[-1])["metrics"]
        same = all(again[c]["value"] == traced["coupled"][c]["value"] for c in run.COUNTERS)
        check(same, "coupled: deterministic counters repeat between invocations")


def check_gate(check):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from krflow import flow
    from krflow.geometry import RadialProfile
    import gate

    cfg = flow.FlowConfig(**workloads.make_config("selfsimilar", 0, tiny=True))
    arts = flow.run_flow(cfg)
    out_dir = os.path.join(run.OUT_ROOT, "selftest")
    try:
        flow.write_artifacts(arts, out_dir)
        ok, reasons, _ = gate.check("selfsimilar", cfg, arts, out_dir)
        check(ok, f"gate passes the clean selfsimilar run {reasons}")
        label = sorted(arts.snapshots)[-1]
        rad, dil = arts.snapshots[label]
        arts.snapshots[label] = (RadialProfile(rad.f, rad.u * 1.05), dil)
        ok, reasons, _ = gate.check("selfsimilar", cfg, arts, out_dir)
        check(not ok and any("A4" in r for r in reasons),
              f"gate rejects a corrupted snapshot {reasons}")
    finally:
        shutil.rmtree(run.OUT_ROOT, ignore_errors=True)


def check_bare(check):
    bare = os.path.join(run.OUT_ROOT, "bare")
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = bench("canonical", 0, root=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without sources: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(run.OUT_ROOT, ignore_errors=True)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check = Checks()
    check_outputs(check, spec)
    check_gate(check)
    check_bare(check)
    print(f"selftest: {len(check.failed)} failed")
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
