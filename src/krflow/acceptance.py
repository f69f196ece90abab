"""Pinned verification criteria A1..A14.

Each criterion is a body that returns its checks, registered with
`_criterion` under its id and the names of the pinned runs it reads (keys of
`_RUNS`: the canonical singularity run, the compact-soliton self-similar
run, the coupled two-engine runs).  A shared context builds each run once and
caches it, so the suite can be driven either from pytest or from the
command line with one set of artifacts.  The runner times each criterion and
checks that every run it names completed before the body reads anything: a
run that stopped early gives a FAIL line that holds only those run checks.

Tolerances are fixed here; nothing is calibrated at run time.
run_acceptance(ctx) runs the criteria of ctx.level and prints each result
line as it completes.  level='quick' runs A1-A3, A8, A11 and A14, with a
reduced-scale stand-in for the canonical run in the two that only need *a*
class-member run (A8's monitor clause, A14's flow-history pair); every
quantitative limit is checked at full scale.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import analysis
from .barriers import (BARRIER_DELTA, LAMBDA_INIT, barrier_residual_sub,
                       barrier_residual_sup, barrier_y1, class_c_check,
                       comparison_check, full_operator)
from .flow import FlowConfig, _DilatedEngine, make_initial, run_flow
from .geometry import curvature
from .grids import window_mesh
from .soliton import (SQRT2, cao_koiso_profile, closed_form_weight_integral, fik_y,
                      fik_y_derivs, find_cao_koiso_constant, find_fik_constant,
                      weight_integral, _cao_koiso_reduced_root)
from .states import DilatedState

__all__ = ["AcceptanceContext", "CriterionResult", "Check", "CRITERIA",
           "run_acceptance", "QUICK_IDS"]


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    target: str
    ok: bool


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    label: str
    passed: bool
    checks: tuple
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = "; ".join(f"{c.name} = {c.value:.6g} ({'ok' if c.ok else 'VIOLATED'}: "
                          f"{c.target})" for c in self.checks)
        return f"{self.cid} {status} [{self.seconds:6.1f}s] {self.label}: {parts}"


# The pinned runs the criteria read, by cache key.  "class" in a criterion's
# run list is the class-member run: "mini" at the quick level, "canonical"
# at the full level.
_RUNS = {
    # class-member run (1, 10), parabola data, grid 2048, to tau = 6.5
    "canonical": FlowConfig(a0=1.0, b0=10.0, initial_kind="parabola", grid_n=2048,
                            stop_tau=6.5, record_every=25, snap_taus=(2.0, 4.0, 6.0)),
    # reduced-scale class-member run for the quick level
    "mini": FlowConfig(a0=1.0, b0=10.0, grid_n=256, stop_tau=1.5,
                       record_every=50, snap_taus=(0.5, 1.0, 1.5)),
    # the compact soliton's self-similar shrinking, to t = 0.9
    "kc": FlowConfig(a0=1.0, b0=3.0, initial_kind="cao_koiso", grid_n=1024,
                     cfl=0.5, stop_tau=-np.log(0.1) + 1e-9, record_every=100,
                     snap_taus=tuple(-np.log(1.0 - t) for t in (0.3, 0.5, 0.7, 0.9))),
    **{f"coupled{cut:g}": FlowConfig(a0=1.0, b0=10.0, grid_n=1024, engine="both",
                                     stop_tau=6.0, record_every=25, phi_cut=cut)
       for cut in (50.0, 100.0)},
}


class AcceptanceContext:
    """Lazy cache of the pinned runs shared between criteria."""

    def __init__(self, level="full"):
        # A1 and A2 check the closed-form constants by root-finding on
        # scipy's quad, imported on first use, and no other criterion loads
        # scipy; import it here so that their runtime clauses time the
        # computation, not a one-off library import
        import scipy.integrate
        self.level = level
        self._cache = {}

    def run(self, name):
        """The pinned run `name` (a key of _RUNS, or "class"), built once,
        as (RunArtifacts, seconds its build took)."""
        if name == "class":
            name = "mini" if self.level == "quick" else "canonical"
        if name not in self._cache:
            t0 = time.perf_counter()
            arts = run_flow(_RUNS[name])
            self._cache[name] = (arts, time.perf_counter() - t0)
        return self._cache[name]


CRITERIA = []     # (cid, criterion) pairs, A1..A14 in order of registration


def _criterion(cid, label, *runs):
    """Register body(*runs) -> [Check] as criterion `cid` in CRITERIA.

    The criterion builds the runs it names, checks first that each
    completed, and calls the body with their (RunArtifacts, seconds) pairs
    only when all did: nothing of a run that stopped early is read.  The
    one criterion that reads two runs (A13) compares two cuts, and its run
    checks say which."""
    def register(body):
        @functools.wraps(body)
        def criterion(ctx):
            t0 = time.perf_counter()
            built = [ctx.run(name) for name in runs]
            checks = []
            for name, (arts, _) in zip(runs, built):
                tag = f"phi_cut={_RUNS[name].phi_cut:g} run" if len(runs) > 1 else "run"
                ok = arts.status == "completed"
                checks.append(Check(f"{tag} {arts.status}", float(ok), "completed", ok))
            if all(c.ok for c in checks):
                checks += body(*built)
            return CriterionResult(cid, label, all(c.ok for c in checks),
                                   tuple(checks), time.perf_counter() - t0)
        CRITERIA.append((cid, criterion))
        return criterion
    return register


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

@_criterion("A1", "noncompact soliton constant")
def crit_a1():
    t0 = time.perf_counter()
    c = find_fik_constant()
    dev = abs(c - SQRT2)
    worst = max(abs(weight_integral(cc) - closed_form_weight_integral(cc))
                for cc in (0.5, 1.0, 2.0))
    dt = time.perf_counter() - t0
    return [Check("|C - sqrt2|", dev, "<= 1e-10", dev <= 1e-10),
            Check("quad vs closed form", worst, "<= 1e-12", worst <= 1e-12),
            Check("runtime s", dt, "< 1", dt < 1.0)]


@_criterion("A2", "compact soliton constant")
def crit_a2():
    t0 = time.perf_counter()
    c = find_cao_koiso_constant()
    dev = abs(c - _cao_koiso_reduced_root())
    dt = time.perf_counter() - t0
    return [Check("C", c, "in (0.5, 1)", 0.5 < c < 1.0),
            Check("quad vs reduced equation", dev, "<= 1e-8", dev <= 1e-8),
            Check("runtime s", dt, "< 1", dt < 1.0)]


@_criterion("A3", "stationarity of the dilated fixed point")
def crit_a3():
    t0 = time.perf_counter()
    phi = np.geomspace(1.0, 100.0, 20001)
    y, yp, ypp = fik_y_derivs(phi)
    resid = float(np.max(np.abs(full_operator(phi, y, yp, ypp))))

    n = 1024
    grid = window_mesh(lambda d: fik_y(1.0 + d), 1.0, 50.0, 1.0, n)
    eng = _DilatedEngine(DilatedState(0.0, grid, fik_y(grid), truncated=True), n)
    while eng.tau < 1.0:
        eng.step(1.0 - eng.tau)
        if eng.remesh_due():
            eng.remesh()
    drift = float(np.max(np.abs(eng.u - fik_y(eng.nodes()))))
    dt = time.perf_counter() - t0
    return [Check("max |E[Y]|", resid, "<= 1e-10", resid <= 1e-10),
            Check("engine drift per unit tau", drift, "<= 5e-4", drift <= 5e-4),
            Check("runtime s", dt, "< 30", dt < 30.0)]


@_criterion("A4", "self-similar shrinking oracle", "kc")
def crit_a4(kc):
    arts, run_s = kc
    n_snaps, n_want = len(arts.snapshots), len(set(arts.manifest["config"]["snap_taus"]))
    ref = cao_koiso_profile(8193).profile
    worst = 0.0
    # the oracle at the snapshot's own tau, the first step's at or past its label
    for rad, dil in arts.snapshots.values():
        t = 1.0 - np.exp(-dil.tau)
        oracle = (1.0 - t) * np.interp(rad.f / (1.0 - t), ref.f, ref.u)
        worst = max(worst, float(np.max(np.abs(rad.u - oracle)) / np.max(rad.u)))
    return [Check("snapshots", n_snaps, f"== {n_want}", n_snaps == n_want),
            Check("rel sup error to t=0.9", worst, "<= 0.01", worst <= 0.01),
            Check("runtime s", run_s, "< 120", run_s < 120.0)]


@_criterion("A5", "convergence to the stationary profile", "canonical")
def crit_a5(canonical):
    arts, run_s = canonical
    e4 = arts.record_at_tau(4.0).sup_err_c0
    e6 = arts.record_at_tau(6.0).sup_err_c0
    rep = analysis.blowup_rates(arts.series, window=(5.0, 6.5))
    return [Check("sup |y - Y| on [1,3] at tau=6", e6, "<= 0.05", e6 <= 0.05),
            Check("err(4)/err(6)", e4 / e6, ">= 1.5", e4 / e6 >= 1.5),
            Check("fitted delta0", rep.decay_rate_delta0, "> 0",
                  rep.decay_rate_delta0 > 0),
            Check("runtime s", run_s, "< 600", run_s < 600.0)]


@_criterion("A6", "scalar blow-up constant", "canonical")
def crit_a6(canonical):
    r = canonical[0].record_at_tau(6.0)
    val = np.exp(-r.tau) * r.R_sigma0
    target = 4.0 - 2.0 * SQRT2
    dev = abs(val / target - 1.0)
    return [Check("(T-t) R at the section, tau=6", val,
                  f"within 2% of {target:.6f}", dev <= 0.02)]


@_criterion("A7", "transverse eigenvalue blow-up", "canonical")
def crit_a7(canonical):
    arts, _ = canonical
    r = arts.record_at_tau(6.0)
    val = np.exp(-r.tau) * r.lambda2_sigma0
    target = 1.0 - SQRT2
    dev = abs(val / target - 1.0)
    neg = all(rec.lambda2_sigma0 < 0 for rec in arts.series if rec.tau >= 3.0)
    return [Check("(T-t) lambda2 at the section, tau=6", val,
                  f"within 2% of {target:.6f}", dev <= 0.02),
            Check("sign for tau >= 3", -1.0 if neg else 1.0, "negative", neg)]


@_criterion("A8", "barrier certificates and sandwich", "class")
def crit_a8(member):
    phi = np.geomspace(1.0, 1e4, 100)
    taus = np.linspace(0.0, 60.0, 100)
    sub_max = -np.inf
    sup_min = np.inf
    for tau in taus:
        lam = LAMBDA_INIT * np.exp(-BARRIER_DELTA * tau)
        sub_max = max(sub_max,
                      float(np.max(barrier_residual_sub(phi, lam, BARRIER_DELTA))))
        for lam0 in (1e-3, 0.011, 1.0):
            lam_s = lam0 * np.exp(-0.5 * tau)
            sup_min = min(sup_min, float(np.min(barrier_residual_sup(phi, lam_s))))
    nviol = len(member[0].violations)
    return [Check("max subsolution residual", sub_max, "< 0", sub_max < 0),
            Check("min supersolution residual", sup_min, "> 0", sup_min > 0),
            Check("monitor violations", nviol, "== 0", nviol == 0)]


@_criterion("A9", "gauge drift slope", "canonical")
def crit_a9(canonical):
    series = canonical[0].series
    rep = analysis.blowup_rates(series, window=(5.0, 6.5))
    target = SQRT2 - 1.0
    inst = float(np.mean([-np.exp(-r.tau) * r.lambda2_sigma0
                          for r in series if 5.0 <= r.tau <= 6.5]))
    dev = abs(rep.gauge_slope / target - 1.0)
    agree = abs(rep.gauge_slope - inst) / target
    return [Check("lsq slope of C(tau) on [5, 6.5]", rep.gauge_slope,
                  f"within 5% of {target:.6f}", dev <= 0.05),
            Check("|fit - instantaneous| / target", agree, "<= 0.05", agree <= 0.05)]


@_criterion("A10", "maximum principles", "canonical")
def crit_a10(canonical):
    series = canonical[0].series
    first = series[0]
    f_bound = max(first.max_F, 1.0)
    worst_F = max(r.max_F for r in series)
    worst_min_yphi = min(r.min_yphi for r in series)
    worst_max_yphi = max(r.max_yphi for r in series)
    lo_band = min(first.min_yphi, -1.0) - 1e-6
    hi_band = max(first.max_yphi, f_bound) + 1e-6
    return [Check("max F over run", worst_F, f"<= {f_bound + 1e-6:.6f}",
                  worst_F <= f_bound + 1e-6),
            Check("min y_phi over run", worst_min_yphi, f">= {lo_band:.6f}",
                  worst_min_yphi >= lo_band),
            Check("max y_phi over run", worst_max_yphi, f"<= {hi_band:.6f}",
                  worst_max_yphi <= hi_band)]


@_criterion("A11", "positive-Ricci class member")
def crit_a11():
    t0 = time.perf_counter()
    cfg = FlowConfig(a0=1.0, b0=3.1, initial_kind="cao_koiso_perturbed",
                     grid_n=1024)
    st = make_initial(cfg)
    rep = curvature(st.profile)
    lam_min = float(min(rep.lambda1.min(), rep.lambda2.min()))
    cc = class_c_check(analysis.dilate(st))
    dt = time.perf_counter() - t0
    return [Check("min Ricci eigenvalue", lam_min, "> 0", lam_min > 0),
            Check("class margin", cc.margin, "> 0", cc.ok),
            Check("runtime s", dt, "< 10", dt < 10.0)]


@_criterion("A12", "type-I boundedness of reduced |Rm|", "canonical")
def crit_a12(canonical):
    rep = analysis.type_one_monitor(canonical[0].series)
    return [Check("running-max growth over last tau unit", rep.growth,
                  "< 1.10", rep.growth < 1.10)]


@_criterion("A13", "cross-engine agreement and truncation sensitivity",
            "coupled50", "coupled100")
def crit_a13(coupled50, coupled100):
    c50 = np.array(coupled50[0].cross_engine, dtype=float)
    k2 = int(np.argmin(np.abs(c50[:, 0] - 2.0)))
    cross2 = float(c50[k2, 1])
    e50 = float(c50[-1, 2])
    e100 = float(np.array(coupled100[0].cross_engine, dtype=float)[-1, 2])
    sens = abs(e50 - e100) / e50
    return [Check("sup diff on [1,5] at tau=2", cross2, "<= 1e-3", cross2 <= 1e-3),
            Check("|err(50) - err(100)| / err(50)", sens, "< 0.10", sens < 0.10)]


@_criterion("A14", "comparison-principle harness", "class")
def crit_a14(member):
    snaps = member[0].snapshots
    grid = np.linspace(1.0, 3.0, 201)
    taus, yps = [], []
    for lb in sorted(snaps):
        _, dil = snaps[lb]
        taus.append(dil.tau)
        yps.append(np.interp(grid, dil.phi, dil.y))
    taus = np.array(taus)
    yms = np.array([barrier_y1(grid, t) for t in taus])
    v_ok = comparison_check(taus, grid, yms, np.array(yps), c_bound=10.0)

    phi = np.linspace(1.0, 20.0, 301)
    tt = np.linspace(0.0, 2.0, 21)
    ym = np.array([fik_y(phi) for _ in tt])
    yp = ym + 0.1
    v1 = comparison_check(tt, phi, ym, yp, c_bound=2.0)
    bad = yp.copy()
    bad[8:, -1] = ym[8:, -1] - 0.2
    v2 = comparison_check(tt, phi, ym, bad, c_bound=2.0)
    stable = all(comparison_check(tt, phi, ym, yp, 2.0, alphas=al).ordered
                 for al in ((1e-2, 1e-5, 1e-8), (1e-3,),
                            tuple(10.0 ** (-k) for k in range(2, 12))))
    return [Check("flow above subsolution barrier", 1.0 if v_ok.ordered else 0.0,
                  "ordered", v_ok.ordered and v_ok.hypotheses_ok),
            Check("ordered pair verified", 1.0 if v1.ordered else 0.0, "ordered",
                  v1.ordered),
            Check("constructed violation detected", 0.0 if v2.hypotheses_ok else 1.0,
                  "detected", (not v2.hypotheses_ok) or (not v2.ordered)),
            Check("alpha-ladder stability", 1.0 if stable else 0.0, "stable", stable)]


QUICK_IDS = ("A1", "A2", "A3", "A8", "A11", "A14")


def run_acceptance(ctx):
    """Run the criteria of ctx.level (QUICK_IDS for 'quick', all for 'full'),
    printing each result line as it completes; returns the CriterionResults."""
    table = dict(CRITERIA)
    ids = QUICK_IDS if ctx.level == "quick" else table
    out = []
    for cid in ids:
        out.append(table[cid](ctx))
        print(out[-1].line(), flush=True)
    return out
