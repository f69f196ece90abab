"""Acceptance gate: every criterion A1..A14 at its pinned tolerance.

The expensive runs (canonical singularity run, compact-soliton run, coupled
two-engine runs) are built once per session and shared; each test prints its
criterion's PASS/FAIL line with the measured values.
"""

import pytest

from krflow.acceptance import CRITERIA, AcceptanceContext

pytestmark = pytest.mark.slow


@pytest.fixture(scope="session")
def ctx():
    return AcceptanceContext(level="full")


@pytest.mark.parametrize("cid,fn", CRITERIA, ids=[cid for cid, _ in CRITERIA])
def test_criterion(cid, fn, ctx):
    result = fn(ctx)
    print()
    print(result.line())
    assert result.passed, result.line()


# --- companion checks on the cached runs (spec examples and invariants) -----

def test_record_identity_and_c1_trend(ctx):
    import numpy as np
    arts, _ = ctx.run("canonical")
    for r in arts.series:
        # lambda1 at the collapsing section is exactly 1/a
        assert abs(r.R_sigma0 - 2.0 / r.a - 2.0 * r.lambda2_sigma0) < 1e-9 * max(
            1.0, abs(r.R_sigma0))
    c1_4 = arts.record_at_tau(4.0).sup_err_c1
    c1_6 = arts.record_at_tau(6.0).sup_err_c1
    assert c1_6 < c1_4   # C1 distance decays alongside C0


def test_sigma2_crosscheck_bounds(ctx):
    from krflow import analysis
    arts, _ = ctx.run("canonical")
    disc = analysis.sigma2_crosscheck(arts.series, arts.anchor, tau_range=(2.0, 6.0))
    assert disc <= 0.05
    kc, _ = ctx.run("kc")
    disc_kc = analysis.sigma2_crosscheck(kc.series, kc.anchor, tau_range=(0.5, 2.2))
    assert disc_kc <= 0.02


def test_kc_gauge_slope_is_translation_rate(ctx):
    import numpy as np
    from krflow.soliton import find_cao_koiso_constant
    kc, _ = ctx.run("kc")
    taus = np.array([r.tau for r in kc.series])
    g = np.array([r.gauge_C for r in kc.series])
    m = taus >= 1.0
    slope = np.polyfit(taus[m], g[m], 1)[0]
    target = find_cao_koiso_constant() - 1.0
    assert abs(slope / target - 1.0) < 0.05


def test_stationary_fik_blowup_constants():
    # stationary run: (T-t) R and (T-t) lambda2 sit at the closed-form values
    # 4 - 2 sqrt2 and 1 - sqrt2 up to stencil error, constant in tau
    import numpy as np
    from krflow.flow import _DilatedEngine
    from krflow.grids import window_mesh
    from krflow.soliton import fik_y
    from krflow.states import DilatedState

    n = 512
    grid = window_mesh(lambda d: fik_y(1.0 + d), 1.0, 50.0, 1.0, n)
    eng = _DilatedEngine(DilatedState(0.0, grid, fik_y(grid), truncated=True), n)
    rt2 = np.sqrt(2.0)
    vals = []
    for _ in range(3):
        target = eng.tau + 0.3
        while eng.tau < target:
            eng.step(target - eng.tau)
        rec = eng.measure(1e-4, 1.0)
        Tt = np.exp(-rec.tau)
        vals.append((Tt * rec.R_sigma0, Tt * rec.lambda2_sigma0))
    for R_hat, l2_hat in vals:
        # discrete stationary state sits O(h^2)-close to the closed form
        assert abs(R_hat - (4.0 - 2.0 * rt2)) < 1e-3
        assert abs(l2_hat - (1.0 - rt2)) < 1e-3
