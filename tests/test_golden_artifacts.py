"""Run artifacts of three tiny runs, pinned byte for byte.

Each run (grid_n = 128, to tau = 0.1) writes its artifacts, and every file
must equal the one under tests/data/golden/<run>.  The 'unscaled' and
'both' runs take about 500 explicit steps, remeshing every 200; the
'dilated' run takes 20 ROS2 steps, remeshing every 0.02 of tau.  The 'both'
run crosses phi_cut early, so its dilated engine switches to the truncated
window and takes its outer value from the unscaled engine.  Any
change to the arithmetic of a step, a remesh or a measurement shows here as
a changed byte; manifest.json is compared without its wall time.

The files depend on the floating-point results of numpy and the C library
(they were written on x86-64 with numpy 2.4 and scipy 1.17).  To record a
deliberate change of the numbers, run `PYTHONPATH=src python
tests/test_golden_artifacts.py`: it rewrites every file and prints, for
each, "unchanged" or what moved against the file it replaced (the largest
relative change of each CSV column that changed, or the manifest keys that
changed, wall time aside).
"""

import csv
import io
import json
import math
import os

import pytest

from krflow.flow import FlowConfig, run_flow, write_artifacts

DATA = os.path.join(os.path.dirname(__file__), "data", "golden")
BASE = dict(a0=1.0, b0=9.93, grid_n=128, stop_tau=0.1, record_every=25,
            snap_taus=(0.05, 0.1))
RUNS = {
    "unscaled": {},
    "dilated": dict(engine="dilated"),
    # Phi_max = 6.93 e^tau + 3 passes 10.5 at tau = 0.079
    "both": dict(engine="both", phi_cut=10.5),
}


def write_run(name, out_dir):
    return write_artifacts(run_flow(FlowConfig(**BASE, **RUNS[name])), out_dir)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_artifacts_match_golden_files(name, tmp_path):
    manifest = write_run(name, tmp_path)
    want_dir = os.path.join(DATA, name)
    assert sorted(manifest["artifacts"]) == sorted(os.listdir(want_dir))
    if name == "both":
        assert manifest["cross_engine_supdiff_max"] is not None
    for fname in manifest["artifacts"]:
        got = _read(os.path.join(tmp_path, fname))
        want = _read(os.path.join(want_dir, fname))
        if fname == "manifest.json":
            got, want = json.loads(got), json.loads(want)
            got.pop("wall_time_s")
            want.pop("wall_time_s")
        assert got == want, fname
    # the config echo, lists read back as tuples, rebuilds the run's config
    with open(os.path.join(tmp_path, "manifest.json")) as fh:
        echo = json.load(fh)["config"]
    echo = {k: tuple(v) if isinstance(v, list) else v for k, v in echo.items()}
    assert FlowConfig(**echo) == FlowConfig(**BASE, **RUNS[name])


def _csv_change(old, new):
    """The largest relative change |new - old| / max(|old|, |new|) of each
    column that changed between two CSV files, as text."""
    (head, *rows0), (head1, *rows1) = (list(csv.reader(io.StringIO(b.decode())))
                                       for b in (old, new))
    if head != head1 or len(rows0) != len(rows1):
        return f"header or row count changed ({len(rows0)} -> {len(rows1)} rows)"
    out = []
    for k, col in enumerate(head):
        worst = 0.0
        for r0, r1 in zip(rows0, rows1):
            if r0[k] != r1[k]:
                try:
                    x, y = float(r0[k]), float(r1[k])
                    rel = abs(y - x) / max(abs(x), abs(y)) if x != y else 0.0
                except ValueError:
                    rel = math.inf
                worst = max(worst, rel if rel == rel else math.inf)
        if worst:
            out.append(f"{col} {worst:.2g}")
    return ", ".join(out) or "text changed, values equal"


def _change(fname, old, new):
    if fname != "manifest.json":
        return "unchanged" if old == new else _csv_change(old, new)
    old, new = json.loads(old), json.loads(new)
    keys = sorted(k for k in old.keys() | new.keys()
                  if k != "wall_time_s" and old.get(k) != new.get(k))
    return "changed: " + ", ".join(keys) if keys else "unchanged"


if __name__ == "__main__":
    for name in RUNS:
        out_dir = os.path.join(DATA, name)
        old = {f: _read(os.path.join(out_dir, f)) for f in os.listdir(out_dir)}
        for fname in write_run(name, out_dir)["artifacts"]:
            new = _read(os.path.join(out_dir, fname))
            print(f"{name}/{fname}:",
                  _change(fname, old[fname], new) if fname in old else "new")
