import numpy as np
import pytest

from krflow import analysis
from krflow.analysis import (AnalysisError, blowup_rates, dilate, format_report,
                             read_anchor_csv, read_series_csv, sigma2_crosscheck,
                             type_one_monitor, write_anchor_csv, write_report,
                             write_series_csv)
from krflow.flow import FlowConfig, make_initial, run_flow, _DilatedEngine, _UnscaledEngine
from krflow.geometry import RadialProfile
from krflow.soliton import fik_y
from krflow.states import AnchorSample, DilatedState, FlowState, SeriesRecord

RT2 = np.sqrt(2.0)


def make_state(t=0.0, T=1.0, n=301):
    a, b = T - t, 10.0 - 3.0 * t
    f = np.linspace(a, b, n)
    u = (f - a) * (b - f) / (b - a)
    return FlowState(RadialProfile(f, u), t, T)


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------

def test_dilate_definition():
    t = 1.0 - np.exp(-2.0)
    s = make_state(t=t)
    d = dilate(s)
    assert d.tau == pytest.approx(2.0)
    assert d.phi[0] == pytest.approx(1.0, abs=1e-12)   # inner endpoint exact
    assert d.phi[-1] == pytest.approx((10.0 - 3.0) * np.exp(2.0) + 3.0, rel=1e-12)
    assert np.allclose(d.y, s.profile.u * np.exp(2.0))


def test_dilate_requires_t_before_T():
    with pytest.raises(ValueError):
        dilate(make_state(t=1.0))


# ---------------------------------------------------------------------------
# convergence error: the records' sup |y - Y| and sup |y_phi - Y_phi| on [1, 3]
# ---------------------------------------------------------------------------

def _fik_window(phi, y):
    """(sup0, sup1) of a record of the engines' shared record body, read on
    a truncated dilated engine holding y on the nodes phi."""
    eng = _DilatedEngine(DilatedState(0.0, phi, y, truncated=True), phi.size)
    rec = eng.measure(0.0, 1.0)
    return rec.sup_err_c0, rec.sup_err_c1


def test_convergence_error_zero_on_fik():
    phi = np.linspace(1.0, 10.0, 2001)
    c0, c1 = _fik_window(phi, fik_y(phi))
    assert c0 == 0.0
    assert c1 < 2e-5     # stencil-level derivative error only


def test_convergence_error_arithmetic_example():
    phi = np.linspace(1.0, 3.0, 501)
    # +0.5 keeps it a valid positive-ish profile; C0 error is |phi^2/5 - 1/2| max
    c0, _ = _fik_window(phi, fik_y(phi) - phi ** 2 / 5.0 + 0.5)
    assert c0 == pytest.approx(9.0 / 5.0 - 0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# rate fits on a synthetic series with known limits
# ---------------------------------------------------------------------------

def synthetic_series(n=400, tau0=3.0, tau1=6.5):
    taus = np.linspace(tau0, tau1, n)
    recs = []
    for k, tau in enumerate(taus):
        Tt = np.exp(-tau)
        recs.append(SeriesRecord(
            step=k, t=1.0 - Tt, tau=tau, a=Tt, b=7.0 * np.exp(tau) * Tt,
            R_sigma0=(4 - 2 * RT2) / Tt, lambda2_sigma0=(1 - RT2) / Tt,
            sup_err_c0=0.3 * np.exp(-0.8 * tau), sup_err_c1=0.1 * np.exp(-0.8 * tau),
            max_F=0.7, min_yphi=-1.0, max_yphi=1.0,
            gauge_C=(RT2 - 1.0) * tau + 0.2, max_rm=4.0, dt=1e-4))
    return recs


def test_blowup_rates_recovers_known_constants():
    rep = blowup_rates(synthetic_series(), window=(5.0, 6.5))
    assert rep.limit_R_times_Tt == pytest.approx(4 - 2 * RT2, abs=1e-12)
    assert rep.limit_lambda2_times_Tt == pytest.approx(1 - RT2, abs=1e-12)
    assert rep.gauge_slope == pytest.approx(RT2 - 1.0, abs=1e-10)
    assert rep.decay_rate_delta0 == pytest.approx(0.8, abs=1e-8)
    assert rep.fit_window == (5.0, 6.5)
    txt = format_report(rep)
    assert "gauge slope" in txt


def test_blowup_rates_needs_tail():
    with pytest.raises(AnalysisError):
        blowup_rates(synthetic_series()[:6])
    short = [r for r in synthetic_series() if r.tau < 4.5]
    with pytest.raises(AnalysisError):
        blowup_rates(short)


# ---------------------------------------------------------------------------
# type-one monitor
# ---------------------------------------------------------------------------

def test_type_one_monitor_series():
    recs = synthetic_series()
    rep = type_one_monitor(recs)
    assert rep.verdict == "bounded"
    assert rep.max_rm == pytest.approx(4.0)
    grow = [SeriesRecord(**{**r.__dict__, "max_rm": 4.0 * np.exp(0.5 * (r.tau - 3.0))})
            for r in recs]
    assert type_one_monitor(grow).verdict == "growing"


# ---------------------------------------------------------------------------
# sigma2 crosscheck
# ---------------------------------------------------------------------------

def test_sigma2_crosscheck_stationary_synthetic():
    # log f_w = (sqrt2 - 1) tau + const  <->  lambda2 = (1 - sqrt2)/(T - t)
    recs = synthetic_series(n=800)
    anch = [AnchorSample(r.step, r.t, r.tau, 1.5, 0.0,
                         rho2=-(RT2 - 1.0) * r.tau,
                         log_fw=(RT2 - 1.0) * r.tau) for r in recs]
    disc = sigma2_crosscheck(recs, anch, tau_range=(3.5, 6.0))
    assert disc < 2e-4
    with pytest.raises(AnalysisError):
        sigma2_crosscheck(recs, [], tau_range=(3.5, 6.0))


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_series_csv_round_trip(tmp_path):
    recs = synthetic_series(n=20)
    p = tmp_path / "series.csv"
    write_series_csv(recs, p)
    header = p.read_text().splitlines()[0]
    assert header == ("step,t,tau,a,b,R_sigma0,lambda2_sigma0,sup_err_c0,"
                      "sup_err_c1,max_F,min_yphi,max_yphi,gauge_C,max_rm,dt")
    back = read_series_csv(p)
    assert back == recs


def test_anchor_csv_round_trip(tmp_path):
    anch = [AnchorSample(1, 0.1, 0.105, 5.0, 0.0, -0.2, 2.4)]
    p = tmp_path / "anchor.csv"
    write_anchor_csv(anch, p)
    assert read_anchor_csv(p) == anch


def test_report_json(tmp_path):
    rep = blowup_rates(synthetic_series(), window=(5.0, 6.5))
    p = tmp_path / "report.json"
    write_report(rep, p)
    import json
    data = json.loads(p.read_text())
    assert set(data) >= {"limit_R_times_Tt", "limit_lambda2_times_Tt",
                         "gauge_slope", "decay_rate_delta0", "fit_window"}


def test_report_json_is_strict_for_a_series_without_gauge(tmp_path):
    # a dilated-only series has no gauge: its fit is NaN, written as null
    import json
    from dataclasses import replace
    rep = blowup_rates([replace(r, gauge_C=np.nan) for r in synthetic_series()],
                       window=(5.0, 6.5))
    assert np.isnan(rep.gauge_slope)
    p = tmp_path / "report.json"
    write_report(rep, p)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    data = json.loads(p.read_text(), parse_constant=reject)
    assert data["gauge_slope"] is None and data["gauge_fit_residual"] is None
    assert data["limit_R_times_Tt"] == rep.limit_R_times_Tt


def test_read_series_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nope\n")
    with pytest.raises(AnalysisError):
        read_series_csv(p)
    p2 = tmp_path / "empty.csv"
    p2.write_text("")
    with pytest.raises(AnalysisError):
        read_series_csv(p2)


@pytest.mark.parametrize("cut", [-1, 1], ids=["short_row", "long_row"])
def test_read_series_rejects_wrong_column_count(tmp_path, cut):
    p = tmp_path / "series.csv"
    write_series_csv(synthetic_series(n=5), p)
    lines = p.read_text().splitlines()
    cells = lines[-1].split(",")
    lines[-1] = ",".join(cells[:cut] if cut < 0 else cells + ["0.5"])
    p.write_text("\r\n".join(lines) + "\r\n")
    with pytest.raises(AnalysisError, match=f"{p}: line 6 has"):
        read_series_csv(p)


def test_read_anchor_rejects_series_file(tmp_path):
    p = tmp_path / "series.csv"
    write_series_csv(synthetic_series(n=5), p)
    with pytest.raises(AnalysisError, match="header"):
        read_anchor_csv(p)


# ---------------------------------------------------------------------------
# semigroup commutation: the dilated unscaled step vs the dilated engine
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_dilate_commutes_with_stepping():
    cfg = FlowConfig(a0=1.0, b0=10.0, grid_n=384)
    s = make_initial(cfg)
    d0 = dilate(s)
    # advance the unscaled engine by steps of at most dt, then compare dilations
    dt = 2e-4
    ue = _UnscaledEngine(s, cfg.b0, cfg.cfl, cfg.grid_n)
    for _ in range(30):
        ue.step(dt)
    da = ue.views()[1]
    de = _DilatedEngine(d0, d0.phi.size)
    de.advance_to(da.tau)
    d1 = de.views()[1]
    lo, hi = 1.0, 5.0
    grid = np.linspace(lo, hi, 300)
    ya = np.interp(grid, da.phi, da.y)
    yb = np.interp(grid, d1.phi, d1.y)
    assert np.max(np.abs(ya - yb)) < 5e-5
