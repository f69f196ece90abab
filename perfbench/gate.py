"""Correctness gate applied to every benchmark run.

The tolerances are the pinned ones of krflow's acceptance criteria
(src/krflow/acceptance.py); none is loosened for the benchmark:

- A8 (sandwich clause): zero sandwich-monitor violations;
- A10: max F and the y_phi range stay inside the bands set by the first record;
- A4: relative sup error to the exact shrinking Cao-Koiso oracle <= 0.01 at
  every snapshot (selfsimilar);
- A13: cross-engine sup difference on [1, 5] <= 1e-3 at every cross record
  (coupled; at least one record, so the truncated window was exercised).

`check` returns (ok, list of failure messages, informational accuracy values).
"""

from __future__ import annotations

import os

import numpy as np

A10_BAND = 1e-6
A4_REL_SUP = 0.01
A13_CROSS_SUP = 1e-3
ORACLE_NODES = 8193


def _a10(series):
    first = series[0]
    f_bound = max(first.max_F, 1.0)
    lo = min(first.min_yphi, -1.0) - A10_BAND
    hi = max(first.max_yphi, f_bound) + A10_BAND
    worst_F = max(r.max_F for r in series)
    worst_lo = min(r.min_yphi for r in series)
    worst_hi = max(r.max_yphi for r in series)
    bad = []
    if not worst_F <= f_bound + A10_BAND:
        bad.append(f"A10 max F {worst_F:.9g} > {f_bound + A10_BAND:.9g}")
    if not worst_lo >= lo:
        bad.append(f"A10 min y_phi {worst_lo:.9g} < {lo:.9g}")
    if not worst_hi <= hi:
        bad.append(f"A10 max y_phi {worst_hi:.9g} > {hi:.9g}")
    return bad


def kc_rel_err(snapshots):
    """A4's oracle error: worst relative sup error over the snapshots."""
    from krflow.soliton import cao_koiso_profile
    ref = cao_koiso_profile(ORACLE_NODES).profile
    worst = 0.0
    for label, (rad, _) in snapshots.items():
        t = 1.0 - np.exp(-label)
        oracle = (1.0 - t) * np.interp(rad.f / (1.0 - t), ref.f, ref.u)
        worst = max(worst, float(np.max(np.abs(rad.u - oracle)) / np.max(rad.u)))
    return worst


def check(workload, cfg, arts, out_dir):
    bad = []
    if arts.status != "completed":
        bad.append(f"status {arts.status!r} at step {arts.failing_step}")
    if arts.violations:
        bad.append(f"A8 {len(arts.violations)} sandwich-monitor violations")
    bad += _a10(arts.series)
    missing = sorted(set(cfg.snap_taus) - set(arts.snapshots))
    if missing:
        bad.append(f"snapshots missing at tau {missing}")
    for name in arts.manifest.get("artifacts", []):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            bad.append(f"artifact {name} missing or empty")

    acc = {"acc.sup_err_c0": float(arts.series[-1].sup_err_c0),
           "acc.kc_rel_err": 0.0, "acc.cross_supdiff": 0.0,
           "barriers.violations": len(arts.violations)}
    if workload == "selfsimilar":
        err = kc_rel_err(arts.snapshots)
        acc["acc.kc_rel_err"] = err
        if not err <= A4_REL_SUP:
            bad.append(f"A4 oracle rel sup error {err:.6g} > {A4_REL_SUP}")
    if workload == "coupled":
        if not arts.cross_engine:
            bad.append("no cross-engine records: truncation switch not reached")
        else:
            worst = max(c[1] for c in arts.cross_engine)
            acc["acc.cross_supdiff"] = worst
            if not worst <= A13_CROSS_SUP:
                bad.append(f"A13 cross-engine sup diff {worst:.6g} > {A13_CROSS_SUP}")
    return not bad, bad, acc
