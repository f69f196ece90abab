import json
import math
import os
import subprocess
import sys
from dataclasses import astuple, replace

import numpy as np
import pytest

from krflow import analysis
from krflow.barriers import SandwichMonitor
from krflow.flow import (ConfigError, FlowConfig, FlowSetupError, load_config,
                         make_initial, parse_config_text, run_flow, write_artifacts,
                         _DilatedEngine, _UnscaledEngine)
from krflow.geometry import RadialProfile, curvature, reduced_rm, validate_profile
from krflow.grids import (derivatives, difference_weights, hermite_boundary, pchip,
                          window_mesh)
from krflow.soliton import (_cao_koiso_reduced_root, cao_koiso_profile, cao_koiso_u, fik_y,
                            fik_y_derivs)
from krflow.states import AnchorSample, DilatedState, FlowState, SeriesRecord
from r_chart_reference import r_coordinate_reference

RT2 = np.sqrt(2.0)


def small_cfg(**kw):
    base = dict(a0=1.0, b0=10.0, grid_n=256, stop_tau=0.5, record_every=50)
    base.update(kw)
    return FlowConfig(**base)


def _unscaled_engine(cfg, n=None):
    """The run's unscaled engine on the config's initial data, remeshing to
    n nodes (grid_n by default)."""
    return _UnscaledEngine(make_initial(cfg), cfg.b0, cfg.cfl, n or cfg.grid_n)


def _remesh_error(eng):
    """Remesh eng; the largest change of the old values when the new
    profile is interpolated back onto the old nodes."""
    x_old, u_old = eng.nodes(), eng.u
    eng.remesh()
    return float(np.max(np.abs(pchip(eng.nodes(), eng.u)(x_old) - u_old)))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError, match="requires b > 3a"):
        FlowConfig(a0=1.0, b0=2.9).validate()
    with pytest.raises(ConfigError, match="requires b > 3a"):
        FlowConfig(a0=1.0, b0=3.0).validate()     # parabola at the boundary ray
    FlowConfig(a0=1.0, b0=3.0, initial_kind="cao_koiso").validate()
    with pytest.raises(ConfigError):
        FlowConfig(a0=1.0, b0=10.0, cfl=0.9).validate()
    with pytest.raises(ConfigError, match="cfl"):    # validated where it is built
        replace(FlowConfig(a0=1.0, b0=10.0), cfl=0.9)
    for key in ("grading", "barrier_delta", "perturbation_eps", "anchor_f_ref",
                "window_hi", "lambda0_floor", "inner_res", "remesh_interval"):
        with pytest.raises(ConfigError, match=f"unknown config key: '{key}'"):
            parse_config_text(f"a0 = 1\nb0 = 10\n{key} = 1e-7")
    with pytest.raises(ConfigError):
        FlowConfig(a0=1.0, b0=10.0, grid_n=64).validate()
    with pytest.raises(ConfigError, match="max_steps must be >= 0"):
        FlowConfig(a0=1.0, b0=10.0, max_steps=-5)
    FlowConfig(a0=1.0, b0=10.0, max_steps=0)
    # snapshots must lie in (tau0, stop_tau] = (-log a0, stop_tau]
    FlowConfig(a0=1.0, b0=10.0, stop_tau=0.05, snap_taus=(0.02, 0.05)).validate()
    for snaps in ((0.02, 3.0), (-1.0,), (0.0,)):
        with pytest.raises(ConfigError, match="snap_taus"):
            FlowConfig(a0=1.0, b0=10.0, stop_tau=0.05, snap_taus=snaps).validate()


def test_config_rejects_snapshots_whose_file_labels_collide(tmp_path):
    # both would be written to snap_tau0.01_*.csv; equal values are one snapshot
    with pytest.raises(ConfigError, match="share file labels: 0.01, 0.01"):
        FlowConfig(a0=1.0, b0=10.0, stop_tau=0.05, snap_taus=(0.01000001, 0.01000002))
    FlowConfig(a0=1.0, b0=10.0, stop_tau=0.05, snap_taus=(0.01, 0.01, 0.0100001))
    arts = run_flow(small_cfg(grid_n=128, stop_tau=0.02, snap_taus=(0.01, 0.01, 0.0100001)))
    assert len(arts.snapshots) == 2
    manifest = write_artifacts(arts, tmp_path)
    assert sorted(manifest["artifacts"]) == sorted(os.listdir(tmp_path))


@pytest.mark.parametrize("value", [2.5, 10.5, 256.0, float("nan"), True, False, "256"])
@pytest.mark.parametrize("key", ["grid_n", "record_every", "max_steps"])
def test_config_rejects_non_integer_counts(key, value):
    # only the Python API can pass these: config files parse ints
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        FlowConfig(a0=1.0, b0=10.0, **{key: value})


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["a0", "b0", "stop_tau", "phi_cut", "snap_taus"])
def test_config_rejects_non_finite_values(key, value):
    kv = {"a0": "1.0", "b0": "10.0", key: value}
    text = "".join(f"{k} = {v}\n" for k, v in kv.items())
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config_text(text)


@pytest.mark.parametrize("key, value", [
    ("a0", "1"), ("a0", True), ("b0", None), ("cfl", False), ("stop_tau", "6.5"),
    ("phi_cut", 50j), ("snap_taus", 5), ("snap_taus", "0.5"), ("snap_taus", (0.5, True))])
def test_config_rejects_values_that_are_not_real_numbers(key, value):
    # only the Python API can pass these: config files parse floats
    with pytest.raises(ConfigError, match=f"{key} must be a (sequence of )?real number"):
        FlowConfig(**{"a0": 1.0, "b0": 10.0, key: value})


def test_config_file_parsing(tmp_path):
    text = """
    # canonical run
    a0 = 1.0
    b0 = 10.0
    grid_n = 256
    stop_tau = 1.5
    snap_taus = 0.5, 1.0
    engine = unscaled
    """
    cfg = parse_config_text(text)
    assert cfg.grid_n == 256 and cfg.snap_taus == (0.5, 1.0)
    with pytest.raises(ConfigError, match="unknown config key: 'grdi_n'"):
        parse_config_text("a0 = 1\nb0 = 10\ngrdi_n = 4")
    with pytest.raises(ConfigError, match="missing required"):
        parse_config_text("a0 = 1.0")
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    assert load_config(p) == cfg


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_make_initial_parabola():
    st = make_initial(small_cfg())
    assert validate_profile(st.profile).ok
    f, u = st.profile.f, st.profile.u
    # exact endpoint slopes of the parabola family
    exact = (f - 1.0) * (10.0 - f) / 9.0
    assert np.max(np.abs(u - exact)) < 1e-14
    assert st.T == 1.0 and st.t == 0.0


def test_make_initial_perturbed_cao_koiso():
    cfg = FlowConfig(a0=1.0, b0=3.1, initial_kind="cao_koiso_perturbed", grid_n=512)
    st = make_initial(cfg)
    assert validate_profile(st.profile).ok
    rep = curvature(st.profile)
    assert min(rep.lambda1.min(), rep.lambda2.min()) > 0
    assert st.profile.b == pytest.approx(3.1)


@pytest.mark.parametrize("n", [128, 1024])
def test_cao_koiso_initial_state_solves_the_soliton_ode(n):
    # u_f + u/f - C u + f - 2 = 0 on the run mesh, to the stencils' second order
    st = make_initial(FlowConfig(a0=1.0, b0=3.0, initial_kind="cao_koiso", grid_n=n))
    f, u = st.profile.f, st.profile.u
    u_f = derivatives(f, u, 1.0, -1.0)[0]
    res = u_f + u / f - _cao_koiso_reduced_root() * u + f - 2.0
    assert np.max(np.abs(res)) < 0.1 * np.max(np.diff(f)) ** 2


def test_perturbed_cao_koiso_bridge_starts_on_the_soliton(monkeypatch):
    # the quintic bridge takes value, slope and curvature at x0 from the
    # soliton; five-point differences of the formula there must agree
    from krflow import flow
    seen, bridge = [], flow._quintic_bridge
    monkeypatch.setattr(flow, "_quintic_bridge", lambda *a: (seen.append(a), bridge(*a))[1])
    make_initial(FlowConfig(a0=1.0, b0=3.1, initial_kind="cao_koiso_perturbed", grid_n=256))
    (x0, v0, d0, dd0, b0, v1, d1, _), = seen
    assert (x0, b0, v1, d1) == (2.4, 3.1, 0.0, -1.0)
    h = 1e-3
    u = cao_koiso_u(x0 + h * np.arange(-2.0, 3.0))
    assert v0 == pytest.approx(u[2], rel=1e-14, abs=0.0)
    assert d0 == pytest.approx((u[0] - 8 * u[1] + 8 * u[3] - u[4]) / (12 * h), abs=1e-10)
    assert dd0 == pytest.approx((-u[0] + 16 * u[1] - 30 * u[2] + 16 * u[3] - u[4])
                                / (12 * h * h), abs=1e-8)


def test_make_initial_from_file(tmp_path):
    from krflow.geometry import write_profile_csv
    f = np.linspace(1.0, 10.0, 801)
    u = (f - 1.0) * (10.0 - f) / 9.0
    path = tmp_path / "init.csv"
    write_profile_csv(RadialProfile(f, u), path)
    cfg = small_cfg(initial_kind="from_file", initial_path=str(path))
    st = make_initial(cfg)
    assert validate_profile(st.profile).ok


def test_make_initial_rejects_sub_barrier_data(tmp_path):
    from krflow.geometry import write_profile_csv
    f = np.linspace(1.0, 10.0, 2001)
    u = np.clip(fik_y(f) - f ** 2 / 5.0 - 0.01, 0.004, None)   # below the barrier
    u[0] = u[-1] = 0.0
    path = tmp_path / "bad.csv"
    write_profile_csv(RadialProfile(f, u), path)
    cfg = small_cfg(initial_kind="from_file", initial_path=str(path))
    with pytest.raises(FlowSetupError, match="outside class C"):
        make_initial(cfg)


# ---------------------------------------------------------------------------
# single steps and remeshes of the engines
# ---------------------------------------------------------------------------

def test_step_unscaled_moves_boundaries_exactly():
    eng = _unscaled_engine(small_cfg())
    eng.step(1e-4)
    prof = eng.views()[0]
    assert eng.t > 0
    assert prof.a == pytest.approx(1.0 - eng.t, abs=1e-15)
    assert prof.b == pytest.approx(10.0 - 3.0 * eng.t, abs=1e-14)
    assert np.all(prof.u[1:-1] > 0)
    assert prof.u[0] == 0.0 and prof.u[-1] == 0.0


def test_step_unscaled_caps_unstable_dt():
    eng = _unscaled_engine(small_cfg())
    eng.step(1.0)   # far beyond any stable step
    assert eng.t < 1e-2
    assert np.all(eng.u[1:-1] > 0)


def _reference_midpoint_step(eng, dt, F1):
    """(u, t, anchor_f) after one midpoint step of dt from eng's state, with
    numpy temporaries, from the first-stage values F1; the anchor by
    np.interp on the nodes."""
    u, t, x = eng.u, eng.t, eng.anchor_f
    tm = t + 0.5 * dt

    def phi_t(x, t, u, uf):
        f = eng.nodes(t)
        return np.interp(x, f, uf) + np.interp(x, f, u) / x - 2.0

    uf1 = eng.rhs(u, t, 0)[1].copy()
    umid = np.concatenate(([u[0]], u[1:-1] + F1 * (0.5 * dt), [u[-1]]))
    F2, uf2, _ = eng.rhs(umid, tm, 1)
    unew = np.concatenate(([u[0]], u[1:-1] + F2 * dt, [u[-1]]))
    xmid = x + 0.5 * dt * phi_t(x, t, u, uf1)
    return unew, t + dt, x + dt * phi_t(xmid, tm, umid, uf2)


def _spoil_rhs(eng, spoil):
    """Route eng.rhs through spoil(slot, calls so far in that slot, F),
    which may change F in place; returns the per-slot call counts."""
    rhs, calls = eng.rhs, [0, 0]

    def spoiled(u, t, slot=0):
        F, uf, uff = rhs(u, t, slot)
        spoil(slot, calls[slot], F)
        calls[slot] += 1
        return F, uf, uff

    eng.rhs = spoiled
    return calls


@pytest.mark.parametrize("stage", ["midpoint", "final"])
def test_step_unscaled_positivity_halving_of_each_stage(stage):
    # the first attempt of the step loses positivity at one stage; the
    # accepted step must be the midpoint step at half the step, bit for bit
    def stepped():
        # copies of one state by replaying its steps: copy.deepcopy would
        # turn the engine's buffer views into separate arrays
        eng = _unscaled_engine(small_cfg())
        for _ in range(20):
            eng.step(1.0)
        return eng

    eng, twin, ref = stepped(), stepped(), stepped()
    dt0 = twin.step(1.0)                 # the step the engine takes unspoiled
    assert twin.counts["halvings"] == 0
    k = eng.u.size // 2                  # F index of the spoiled node
    F1 = eng.rhs(eng.u, eng.t, 0)[0].copy()
    if stage == "midpoint":
        # u + dt0/2 F1 is negative at node k + 1, u + dt0/4 F1 is not
        F1[k] = -3.0 * eng.u[k + 1] / dt0

        def spoil(slot, n, F):
            if slot == 0:
                F[k] = F1[k]
    else:
        def spoil(slot, n, F):
            if slot == 1 and n == 0:     # the first final stage goes negative
                F[:] = -1e300
    calls = _spoil_rhs(eng, spoil)
    assert eng.step(1.0) == 0.5 * dt0
    assert eng.counts["halvings"] == 1
    assert calls == [1, 1 if stage == "midpoint" else 2]
    u, t, anchor_f = _reference_midpoint_step(ref, 0.5 * dt0, F1)
    assert np.array_equal(eng.u, u)
    assert eng.t == t and eng.anchor_f == anchor_f


def test_step_unscaled_raises_after_the_last_halving():
    from krflow import flow
    eng = _unscaled_engine(small_cfg())
    eng.step(1.0)
    u, t, x = eng.u, eng.t, eng.anchor_f
    state = u.copy()

    def spoil(slot, n, F):
        if slot == 1:
            F[:] = -1e300

    calls = _spoil_rhs(eng, spoil)
    with pytest.raises(flow.FlowPositivityError):
        eng.step(1.0)
    assert calls == [1, flow._MAX_HALVINGS]
    assert eng.counts["halvings"] == flow._MAX_HALVINGS
    assert eng.u is u and np.array_equal(u, state)
    assert eng.t == t and eng.anchor_f == x and eng.step_count == 1


def test_step_unscaled_self_similar_oracle():
    # Cao-Koiso data shrinks self-similarly: u(f, t) = (1-t) u_KC(f/(1-t))
    ref = cao_koiso_profile(4097).profile
    eng = _unscaled_engine(FlowConfig(a0=1.0, b0=3.0, initial_kind="cao_koiso", grid_n=256))
    for _ in range(200):
        eng.step(1e-4)
    t = eng.t
    assert t > 5e-3
    f = eng.nodes()
    oracle = (1.0 - t) * np.interp(f / (1.0 - t), ref.f, ref.u)
    rel = np.max(np.abs(eng.u - oracle)) / np.max(eng.u)
    assert rel < 1e-3


def test_unscaled_snapshot_lies_past_its_label():
    # the unscaled frame snapshots at the first accepted step at or past the
    # label's tau, so the self-similar oracle belongs at the snapshot's tau
    ref = cao_koiso_profile(8193).profile
    label = -math.log(1.0 - 0.3)
    arts = run_flow(FlowConfig(a0=1.0, b0=3.0, initial_kind="cao_koiso", grid_n=256,
                               cfl=0.5, stop_tau=label + 0.01, record_every=1000,
                               snap_taus=(label,)))
    rad, dil = arts.snapshots[label]
    assert dil.tau > label

    def rel_err(tau):
        Tt = math.exp(-tau)
        oracle = Tt * np.interp(rad.f / Tt, ref.f, ref.u)
        return float(np.max(np.abs(rad.u - oracle)) / np.max(rad.u))

    assert rel_err(dil.tau) < rel_err(label)


def test_step_dilated_identity_and_stationarity():
    phi = window_mesh(lambda d: fik_y(1.0 + d), 1.0, 50.0, 1.0, 512)
    eng = _DilatedEngine(DilatedState(0.0, phi, fik_y(phi), truncated=True), phi.size)
    y0 = eng.u
    eng.advance_to(0.0)
    assert eng.u is y0 and eng.step_count == 0
    eng.advance_to(0.05)
    assert eng.tau == pytest.approx(0.05)
    assert np.max(np.abs(eng.u - fik_y(eng.nodes()))) < 5e-5


def test_step_dilated_full_domain_boundary_growth():
    d = analysis.dilate(make_initial(small_cfg()))
    eng = _DilatedEngine(d, d.phi.size)
    eng.advance_to(d.tau + 0.01)
    d2 = eng.views()[1]
    assert d2.phi_max == pytest.approx((10.0 - 3.0) * np.exp(d2.tau) + 3.0, rel=1e-9)
    assert d2.y[0] == 0.0 and d2.y[-1] == 0.0


def test_step_dilated_sandwich_preserved():
    from krflow.barriers import barrier_y1, barrier_y2, fit_lambda0
    d = analysis.dilate(make_initial(small_cfg()))
    lambda0 = fit_lambda0(d)
    eng = _DilatedEngine(d, d.phi.size)
    eng.advance_to(d.tau + 0.02)
    d2 = eng.views()[1]
    assert np.all(barrier_y1(d2.phi, d2.tau) <= d2.y + 1e-8)
    assert np.all(d2.y <= barrier_y2(d2.phi, d2.tau, lambda0) + 1e-8)


@pytest.mark.parametrize("case", ["truncated", "growing", "cut_at_start", "cut_in_last_cell"])
def test_dilated_window_rules(case):
    # where the engine's window ends and what its outer node holds, from
    # construction through three steps and the first remesh; the state
    # starts at tau = log 2, so b3a e^tau + 3 runs through its last node
    d = analysis.dilate(make_initial(small_cfg(a0=0.5, b0=5.0, grid_n=128, stop_tau=1.0)))
    assert d.tau == pytest.approx(math.log(2.0))
    grow = lambda tau: (d.phi_max - 3.0) * np.exp(tau - d.tau) + 3.0
    mid = 0.5 * (d.phi[-2] + d.phi[-1])
    y_cut = float(np.interp(6.0, d.phi, d.y))
    phi = np.linspace(1.0, 20.0, 300)
    bc = lambda tau: 0.1 + tau
    # state, constructor keywords, then (truncated, window end, outer value)
    # while stepping and after the remesh
    s, kw, before, after = {
        # a truncated state keeps its window whatever the cut
        "truncated": (DilatedState(d.tau, phi, fik_y(phi), truncated=True),
                      dict(phi_cut=5.0, outer_bc=bc),
                      (True, lambda tau: 20.0, bc), (True, lambda tau: 20.0, bc)),
        "growing": (d, {}, (False, grow, lambda tau: 0.0), (False, grow, lambda tau: 0.0)),
        "cut_at_start": (d, dict(phi_cut=6.0), (True, lambda tau: 6.0, lambda tau: y_cut),
                         (True, lambda tau: 6.0, lambda tau: y_cut)),
        # a cut inside the last cell waits for the first remesh past it
        "cut_in_last_cell": (d, dict(phi_cut=mid, outer_bc=bc),
                             (False, grow, lambda tau: 0.0), (True, lambda tau: mid, bc)),
    }[case]
    eng = _DilatedEngine(s, 128, **kw)
    assert eng.tau == s.tau and eng.truncated == before[0]
    assert eng.nodes()[-1] == pytest.approx(before[1](eng.tau), rel=1e-12)
    for _ in range(3):
        eng.step(1.0)
        truncated, end, outer = before
        assert eng.truncated == truncated
        assert eng.nodes()[-1] == pytest.approx(end(eng.tau), rel=1e-12)
        assert eng.u[-1] == outer(eng.tau)
    eng.remesh()
    truncated, end, outer = after
    assert eng.truncated == truncated == eng.views()[1].truncated
    assert eng.nodes()[-1] == pytest.approx(end(eng.tau), rel=1e-12)
    assert eng.u[-1] == outer(eng.tau)


def test_remesh_contracts():
    cfg = small_cfg(grid_n=256)
    st = make_initial(cfg)
    eng = _unscaled_engine(cfg, 512)
    err = _remesh_error(eng)
    prof = eng.views()[0]
    assert prof.n == 512
    assert prof.u[0] == 0.0 and prof.u[-1] == 0.0
    assert err < 1e-4
    # curvature diagnostics move by no more than the interpolation error scale
    r1 = curvature(st.profile)
    r2 = curvature(prof)
    assert abs(r1.lambda2[0] - r2.lambda2[0]) < 1e-4
    # inner-window node fraction contract
    a, b = st.profile.a, st.profile.b
    W = min(10.0 * (st.T - st.t), b - a)
    frac = np.mean(prof.f <= a + W)
    assert frac >= 0.25


def test_remesh_dilated_state():
    # a truncated window keeps its outer value through a remesh
    phi = np.linspace(1.0, 20.0, 300)
    eng = _DilatedEngine(DilatedState(0.0, phi, fik_y(phi), truncated=True), 400)
    err = _remesh_error(eng)
    d2 = eng.views()[1]
    assert d2.phi.size == 400
    assert d2.y[0] == 0.0 and d2.y[-1] == fik_y(phi)[-1] and d2.truncated
    assert err < 1e-4


def test_engines_keep_their_own_remesh_clocks():
    from krflow import flow
    eng = _unscaled_engine(small_cfg(grid_n=128))
    due = []
    for _ in range(2 * flow._REMESH_INTERVAL):
        eng.step(1.0)
        due.append(eng.remesh_due())
    assert [k + 1 for k, d in enumerate(due) if d] == [200, 400]
    # the dilated engine counts tau from its last mesh, which a remesh resets
    phi = window_mesh(lambda d: fik_y(1.0 + d), 1.0, 50.0, 1.0, 128)
    de = _DilatedEngine(DilatedState(0.0, phi, fik_y(phi), truncated=True), 128)
    steps = 0
    while not de.remesh_due():
        de.step(1.0)
        steps += 1
    assert steps == round(flow._REMESH_DTAU / flow._DTAU)
    de.remesh()
    assert not de.remesh_due()
    de.step(1.0)
    assert not de.remesh_due()


def test_gauge_origin_is_the_first_measurement():
    eng = _unscaled_engine(small_cfg(grid_n=128))
    rec0, anch0 = eng.measure(0.0)
    eng.step(1e-3)
    rec1, anch1 = eng.measure(1e-3)
    assert rec0.gauge_C == 0.0
    assert rec1.gauge_C == anch0.rho2 - anch1.rho2


def test_anchor_track_gauge_measurement():
    cfg = small_cfg()
    st = make_initial(cfg)
    eng = _unscaled_engine(cfg)
    anchor_f = eng.anchor_f
    _, anch = eng.measure(0.0)
    assert anch.rho2 == pytest.approx(eng.anchor_r
                                      + _chart_r(st, 2.0) - _chart_r(st, anchor_f),
                                      abs=1e-4)
    # a step moves the anchor inward (phi_t < 0 at mid-domain here)
    eng.step(1e-3)
    assert eng.anchor_f < anchor_f


def _reference_rhs(eng, u, t):
    """The unscaled rhs with numpy temporaries and numpy-scalar stencils."""
    a, b, D = eng.domain(t)
    A, B, C, E = difference_weights(eng.xi)
    fi = a + eng.xi[1:-1] * D
    ui = u[1:-1]
    d = np.diff(u) / D
    uf = A * d[:-1] + B * d[1:]
    uff = (C * d[1:] - E * d[:-1]) / D
    d1, d2 = eng.xi[1] * D, eng.xi[2] * D
    uf[0], uff[0], _ = hermite_boundary(d1, d2, 0.0, 1.0, u[1], u[2])
    d1, d2 = (eng.xi[-2] - 1.0) * D, (eng.xi[-3] - 1.0) * D
    uf[-1], uff[-1], _ = hermite_boundary(d1, d2, 0.0, -1.0, u[-2], u[-3])
    c = 1.0 - 2.0 * eng.xi[1:-1]
    F = ui * uff + uf * (c - uf) - (ui / fi) ** 2
    return F, np.concatenate(([1.0], uf, [-1.0])), uff


def test_unscaled_rhs_and_anchor_rate_match_reference_bit_for_bit():
    cfg = small_cfg(initial_kind="cao_koiso", b0=3.0, cfl=0.5)
    eng = _unscaled_engine(cfg)
    for _ in range(30):
        eng.step(1.0)
    eng.remesh()
    eng.step(1.0)
    rng = np.random.default_rng(2)
    for slot, t in ((0, eng.t), (1, eng.t + 1e-4)):
        u = eng.u * (1.0 + 1e-3 * rng.standard_normal(eng.u.size))
        got = eng.rhs(u, t, slot)
        for g, w in zip(got, _reference_rhs(eng, u, t)):
            assert np.array_equal(g, w)
        # anchor ODE: one bracket lookup against np.interp on the nodes
        uf, f = got[1], eng.nodes(t)
        xs = list(f[1:-1:7]) + list(rng.uniform(f[1], f[-2], 100))
        for x in xs:
            want = np.interp(x, f, uf) + np.interp(x, f, u) / x - 2.0
            assert eng._phi_t_at(float(x), t, u, uf) == want


def _reference_dilated_rhs(eng, y, tau):
    """The dilated rhs with numpy temporaries and numpy-scalar stencils: E[y]
    on the window [1, Phi_out], plus the stretch term of a moving window,
    folded into one expression."""
    eta = eng.xi
    if eng.truncated:
        L, dphi = eng.domain()[1] - 1.0, 0.0
    else:
        pm = eng.b3a * np.exp(tau) + 3.0
        L, dphi = pm - 1.0, pm - 3.0
    A, B, C, E = difference_weights(eta)
    p = 1.0 + eta[1:-1] * L
    yi = y[1:-1]
    d = np.diff(y) / L
    yp = A * d[:-1] + B * d[1:]
    ypp = (C * d[1:] - E * d[:-1]) / L
    d1, d2 = eta[1] * L, eta[2] * L
    yp[0], ypp[0], _ = hermite_boundary(d1, d2, 0.0, 1.0, y[1], y[2])
    if eng.truncated:
        yp_out = yp[-1]      # no slope is imposed at a cut
    else:
        d1, d2 = (eta[-2] - 1.0) * L, (eta[-3] - 1.0) * L
        yp[-1], ypp[-1], _ = hermite_boundary(d1, d2, 0.0, -1.0, y[-2], y[-3])
        yp_out = -1.0
    F = yi * ypp + yp * (1.0 + eta[1:-1] * (dphi - L) - yp) + yi - (yi / p) ** 2
    return F, np.concatenate(([1.0], yp, [yp_out])), ypp


@pytest.mark.parametrize("truncated", [False, True], ids=["full", "truncated"])
def test_dilated_rhs_matches_reference_bit_for_bit(truncated):
    cfg = small_cfg()
    d = analysis.dilate(make_initial(cfg))
    n = cfg.grid_n
    eng = _DilatedEngine(d, n, phi_cut=6.0) if truncated else _DilatedEngine(d, n)
    for _ in range(30):
        eng.step(1.0)
    eng.remesh()
    eng.step(1.0)
    assert eng.truncated == truncated
    rng = np.random.default_rng(3)
    for slot, tau in ((0, eng.tau), (1, eng.tau + 1e-4)):
        y = eng.u * (1.0 + 1e-3 * rng.standard_normal(eng.u.size))
        got = eng.rhs(y, tau, slot)
        for g, w in zip(got, _reference_dilated_rhs(eng, y, tau)):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("n", [128, 1024])
def test_dilated_rhs_is_the_unscaled_rhs_plus_y(n):
    # d_tau (u / (T - t)) = d_t u + y at fixed xi: a dilated engine built on
    # an unscaled engine's view has its xi, and its rhs is the unscaled rhs
    # plus the dilation term, now and later on the same mesh
    cfg = small_cfg(grid_n=n)
    ue = _unscaled_engine(cfg)
    for _ in range(300):
        ue.step(1.0)
        if ue.remesh_due():
            ue.remesh()
    de = _DilatedEngine(ue.views()[1], n)
    assert np.max(np.abs(de.xi - ue.xi)) <= 2.3e-16
    rng = np.random.default_rng(4)
    for t in (ue.t, ue.t + 1e-4):
        u = ue.u * (1.0 + 1e-3 * rng.standard_normal(n))
        Fu = ue.rhs(u, t)[0].copy()
        y = u / (ue.T - t)
        Fd = de.rhs(y, -np.log(ue.T - t))[0]
        assert np.all(np.abs(Fd - (Fu + y[1:-1])) <= 1e-9 * np.maximum(1.0, np.abs(Fd)))


def test_dilated_rows_match_per_step_view():
    eng = _unscaled_engine(small_cfg())
    ts, us, views = [], [], []
    for _ in range(5):
        eng.step(1.0)
        Tt = eng.T - eng.t
        ts.append(eng.t)
        us.append(eng.u)
        views.append((eng.nodes() / Tt, eng.u / Tt))
    phi, y = eng.dilated_rows(ts, us)
    for r, (p, yy) in enumerate(views):
        assert np.array_equal(phi[r], p) and np.array_equal(y[r], yy)
    # views(): the profile itself and analysis.dilate of its FlowState
    rad, dil = eng.views()
    d = analysis.dilate(FlowState(RadialProfile(eng.nodes(), eng.u), eng.t, eng.T))
    assert np.array_equal(rad.f, eng.nodes()) and np.array_equal(rad.u, eng.u)
    assert np.array_equal(dil.phi, d.phi) and np.array_equal(dil.y, d.y)
    assert np.array_equal(d.phi, views[-1][0]) and np.array_equal(d.y, views[-1][1])
    assert dil.tau == d.tau == -np.log(eng.T - eng.t) == eng.tau
    assert dil.truncated is d.truncated is False

    # the dilated engine: its own nodes on the moving window, per step
    eng = _DilatedEngine(analysis.dilate(make_initial(small_cfg())), 256)
    taus, ys, views = [], [], []
    for _ in range(5):
        eng.step(1.0)
        taus.append(eng.tau)
        ys.append(eng.u)
        views.append((eng.nodes(), eng.u.copy()))
    phi, y = eng.dilated_rows(taus, ys)
    assert len({p[-1] for p, _ in views}) == 5          # the window grew each step
    for r, (p, yy) in enumerate(views):
        assert np.array_equal(phi[r], p) and np.array_equal(y[r], yy)
    # views(): the state itself and the profile (phi, y) e^-tau, on a growing
    # and on a truncated window
    cut = _DilatedEngine(DilatedState(0.5, views[-1][0], views[-1][1], truncated=True), 256)
    # a truncated window's rows share its fixed nodes
    taus, ys = [], []
    for _ in range(3):
        cut.step(1.0)
        taus.append(cut.tau)
        ys.append(cut.u)
    phi, y = cut.dilated_rows(taus, ys)
    for r in range(3):
        assert np.array_equal(phi[r], cut.nodes()) and np.array_equal(y[r], ys[r])
    for e in (eng, cut):
        rad, dil = e.views()
        Tt = np.exp(-e.tau)
        assert np.array_equal(dil.phi, e.nodes()) and np.array_equal(dil.y, e.u)
        assert np.array_equal(rad.f, dil.phi * Tt) and np.array_equal(rad.u, dil.y * Tt)
        assert dil.tau == e.tau and dil.truncated is e.truncated
    assert cut.truncated and not eng.truncated


def _reference_window(phi, y, yp, ypp):
    """(sup|y - Y|, sup|y_p - Y_p|, max reduced |Rm|) over phi <= 3, as each
    frame's measure computed them before the shared record body."""
    mask = phi <= 3.0
    yf, ypf, _ = fik_y_derivs(phi[mask])
    sup0 = float(np.max(np.abs(y[mask] - yf)))
    sup1 = float(np.max(np.abs(yp[mask] - ypf)))
    mi = mask[1:-1]
    rm1, rm2, rm3 = reduced_rm(phi[1:-1][mi], y[1:-1][mi], yp[1:-1][mi], ypp[mi])
    rm = np.maximum(rm1, np.maximum(rm2, rm3))
    return sup0, sup1, float(np.max(rm)) if rm.size else 0.0


def _reference_unscaled_measure(eng, dt_last):
    """The unscaled frame's measure with its own section stencil and view
    (phi, y) = (f, u) / (T - t), after the engine's first measurement."""
    a, b, D = eng.domain()
    Tt = eng.T - eng.t
    tau = eng.tau
    f = eng.nodes()
    uf, uff = eng._derivs(eng.u, D)
    uffa = hermite_boundary(f[1] - f[0], f[2] - f[0], eng.u[0], 1.0, eng.u[1], eng.u[2])[2]
    lam2 = -1.0 / a - uffa
    R0 = 2.0 * (1.0 / a + lam2)
    sup0, sup1, max_rm = _reference_window(f / Tt, eng.u / Tt, uf, Tt * uff)
    with np.errstate(invalid="ignore"):
        max_F = float(np.max(eng.u / f))
    j = int(np.searchsorted(f, a + 0.25 * Tt))
    j = min(max(j, 3), f.size - 3)
    r2, rj = eng.r_of(2.0 * Tt, f[j])
    rho2 = r2 + tau
    dj = f[1:j + 1] - a
    gj = 1.0 / dj - 1.0 / eng.u[1:j + 1]
    corr = float(np.trapezoid(np.concatenate(([-0.5 * uffa], gj)),
                              np.concatenate(([0.0], dj))))
    log_fw = float(np.log(dj[-1]) - rj - corr)
    rec = SeriesRecord(step=eng.step_count, t=eng.t, tau=tau, a=a, b=b,
                       R_sigma0=R0, lambda2_sigma0=lam2, sup_err_c0=sup0, sup_err_c1=sup1,
                       max_F=max_F, min_yphi=float(np.min(uf)), max_yphi=float(np.max(uf)),
                       gauge_C=eng._rho2_0 - rho2, max_rm=max_rm, dt=dt_last)
    return rec, AnchorSample(step=eng.step_count, t=eng.t, tau=tau, anchor_f=eng.anchor_f,
                             anchor_r=eng.anchor_r, rho2=rho2, log_fw=log_fw)


def _reference_dilated_measure(eng, dtau_last, t_origin_T):
    """The dilated frame's measure with its own section stencil, R = -2 y_pp(1)."""
    phi = eng.nodes()
    Tt = np.exp(-eng.t)
    yp, ypp = eng._derivs(eng.u, eng.domain()[1] - 1.0)
    ypp1 = hermite_boundary(phi[1] - phi[0], phi[2] - phi[0], eng.u[0], 1.0,
                            eng.u[1], eng.u[2])[2]
    sup0, sup1, max_rm = _reference_window(phi, eng.u, yp, ypp)
    return SeriesRecord(step=eng.step_count, t=t_origin_T - Tt, tau=eng.t, a=Tt,
                        b=Tt * eng.domain()[1], R_sigma0=-2.0 * ypp1 / Tt,
                        lambda2_sigma0=(-1.0 - ypp1) / Tt, sup_err_c0=sup0, sup_err_c1=sup1,
                        max_F=float(np.max(eng.u / phi)), min_yphi=float(np.min(yp)),
                        max_yphi=float(np.max(yp)), gauge_C=np.nan, max_rm=max_rm,
                        dt=dtau_last * Tt)


@pytest.mark.parametrize("frame", ["unscaled", "dilated", "dilated_truncated"])
def test_shared_record_body_matches_the_per_frame_formulas(frame):
    # bit for bit, except the dilated R_sigma0, whose shared form
    # 2 (1/x[0] + lambda2) rounds apart from -2 y_pp(1) by a few ulp
    cfg = small_cfg(grid_n=128)
    if frame == "unscaled":
        eng = _unscaled_engine(cfg)
        eng.measure(0.0)        # sets the gauge origin
    else:
        d = analysis.dilate(make_initial(cfg))
        eng = _DilatedEngine(d, 128, **({"phi_cut": 6.0} if frame != "dilated" else {}))
    for k in range(40):
        eng.step(1.0 if frame != "unscaled" else 1e-3)
        if k == 20:
            eng.remesh()
        if k % 10 != 9:
            continue
        if frame == "unscaled":
            (got, anch), (want, anch_want) = (eng.measure(1e-3),
                                              _reference_unscaled_measure(eng, 1e-3))
            assert anch == anch_want
        else:
            got, want = eng.measure(0.005, 1.0), _reference_dilated_measure(eng, 0.005, 1.0)
            R, R_want = got.R_sigma0, want.R_sigma0
            assert abs(R - R_want) <= 4 * np.spacing(abs(R_want))
            got, want = replace(got, R_sigma0=0.0), replace(want, R_sigma0=0.0)
        assert np.array_equal(astuple(got), astuple(want), equal_nan=True)
    assert eng.truncated == (frame == "dilated_truncated")


def test_a_window_a_remesh_would_cut_needs_outer_bc():
    # the cut of test_dilated_window_rules' cut_in_last_cell case, without
    # the outer data the truncated window would need
    d = analysis.dilate(make_initial(small_cfg(a0=0.5, b0=5.0, grid_n=128, stop_tau=1.0)))
    with pytest.raises(ValueError, match="needs outer_bc"):
        _DilatedEngine(d, 128, phi_cut=0.5 * (d.phi[-2] + d.phi[-1]))


@pytest.mark.parametrize("engine", ["unscaled", "dilated", "both"])
def test_monitor_sees_every_accepted_step_once(monkeypatch, engine):
    # 254 steps at 128 nodes: monitor blocks of 8192 // 128 = 64 rows, and
    # one remesh, at step 200, which drains a partial block.  The dilated
    # engine steps by _DTAU and remeshes every _REMESH_DTAU of tau: with the
    # remesh distance set to 200 steps it meets the same schedule at
    # stop_tau = 254 _DTAU.
    from krflow import flow
    stop_tau = 0.05
    if engine == "dilated":
        monkeypatch.setattr(flow, "_REMESH_DTAU", 200 * flow._DTAU)
        stop_tau = 254 * flow._DTAU
    seen, calls = [], []
    check = SandwichMonitor.check

    def spy(self, steps, taus, phi, y):
        assert phi.shape == y.shape == (len(steps), 128)
        seen.extend(steps)
        calls.append(len(steps))
        return check(self, steps, taus, phi, y)

    monkeypatch.setattr(SandwichMonitor, "check", spy)
    arts = run_flow(small_cfg(grid_n=128, engine=engine, stop_tau=stop_tau))
    n = arts.manifest["steps"]
    assert n > 200 and max(calls) == 64 and len(calls) > 4
    assert seen == list(range(1, n + 1))


@pytest.mark.parametrize("engine", ["unscaled", "dilated", "both"])
def test_manifest_counters_count_their_events(monkeypatch, engine):
    # the manifest's counters against the events seen at the engines'
    # boundaries, on a short run whose fifth second-stage rhs value is
    # spoiled, so that one step (RK2 or ROS2) halves once
    from krflow import flow
    remeshes, refreshes, second_stages = [], [], []
    remesh, stable_dt, rhs = flow._Engine.remesh, flow._UnscaledEngine.stable_dt, flow._Engine.rhs

    def remesh_spy(self):
        remesh(self)
        remeshes.append(self.step_count)

    def stable_dt_spy(self, uf):
        refreshes.append(self.step_count >= self._cfl_next)
        return stable_dt(self, uf)

    def rhs_spy(self, u, t, slot=0):
        F, uf, uff = rhs(self, u, t, slot)
        if slot == 1:
            second_stages.append(t)
            if len(second_stages) == 5:
                F[:] = -1e300
        return F, uf, uff

    monkeypatch.setattr(flow._Engine, "remesh", remesh_spy)
    monkeypatch.setattr(flow._UnscaledEngine, "stable_dt", stable_dt_spy)
    monkeypatch.setattr(flow._Engine, "rhs", rhs_spy)
    arts = run_flow(small_cfg(grid_n=128, engine=engine, stop_tau=0.05))
    assert arts.status == "completed"
    counts = arts.manifest["counters"]
    assert counts == {"remeshes": len(remeshes), "halvings": 1,
                      "cfl_refreshes": sum(refreshes)}
    assert counts["remeshes"] > 0
    assert (counts["cfl_refreshes"] > 0) == (engine != "dilated")


def _chart_r(st, x):
    from krflow.grids import cumint_inverse_linear
    f, u = st.profile.f[1:-1], st.profile.u[1:-1]
    S = cumint_inverse_linear(f, u)
    return float(np.interp(x, f, S))


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_run():
    return run_flow(small_cfg(stop_tau=1.0, snap_taus=(0.5,), record_every=25))


@pytest.mark.slow
def test_run_flow_bookkeeping(short_run):
    arts = short_run
    assert arts.status == "completed"
    ts = np.array([r.t for r in arts.series])
    taus = np.array([r.tau for r in arts.series])
    assert np.all(np.diff(ts) > 0)
    assert np.all(np.diff(taus) > 0)
    assert abs(taus[-1] - 1.0) < 1e-9
    # tau = -log(T - t) within rounding
    assert np.max(np.abs(taus + np.log(1.0 - ts))) < 1e-12
    # endpoint motion is imposed analytically: a = a0 - t, b = b0 - 3t exactly
    for r in arts.series:
        assert r.a == pytest.approx(1.0 - r.t, abs=1e-15)
        assert r.b == pytest.approx(10.0 - 3.0 * r.t, abs=5e-15)
    assert 0.5 in arts.snapshots
    rad, dil = arts.snapshots[0.5]
    assert dil.phi[0] == 1.0
    assert len(arts.violations) == 0


@pytest.mark.slow
def test_run_flow_positivity_and_bands(short_run):
    arts = short_run
    max_F0 = arts.series[0].max_F
    bound = max(max_F0, 1.0) + 1e-6
    for r in arts.series:
        assert r.max_F <= bound
        assert r.min_yphi >= -1.0 - 1e-6
        assert r.max_yphi <= max(arts.series[0].max_yphi, max(max_F0, 1.0)) + 1e-6


@pytest.mark.slow
def test_run_flow_deterministic(tmp_path, short_run):
    cfg = small_cfg(stop_tau=1.0, snap_taus=(0.5,), record_every=25)
    arts2 = run_flow(cfg)
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    write_artifacts(short_run, d1)
    write_artifacts(arts2, d2)
    assert (d1 / "series.csv").read_bytes() == (d2 / "series.csv").read_bytes()
    assert (d1 / "anchor.csv").read_bytes() == (d2 / "anchor.csv").read_bytes()
    assert (d1 / "snap_tau0.5_radial.csv").exists()
    assert (d1 / "snap_tau0.5_dilated.csv").exists()
    man = json.loads((d1 / "manifest.json").read_text())
    assert man["status"] == "completed"
    assert "series.csv" in man["artifacts"]


@pytest.mark.slow
def test_run_flow_both_engines_agree():
    cfg = small_cfg(grid_n=384, stop_tau=2.0, engine="both", record_every=50,
                    phi_cut=30.0)
    arts = run_flow(cfg)
    taus = np.array([c[0] for c in arts.cross_engine])
    diffs = np.array([c[1] for c in arts.cross_engine])
    assert taus.size > 0
    k = np.argmin(np.abs(taus - 2.0))
    assert diffs[k] < 1e-3
    assert arts.manifest["cross_engine_supdiff_max"] == pytest.approx(diffs.max())


@pytest.mark.slow
def test_dilated_only_engine_runs():
    cfg = small_cfg(grid_n=256, engine="dilated", stop_tau=0.7, record_every=100)
    arts = run_flow(cfg)
    assert arts.status == "completed"
    r = arts.series[-1]
    assert r.tau == pytest.approx(0.7, abs=1e-9)
    assert r.sup_err_c0 < arts.series[0].sup_err_c0   # converging toward Y


@pytest.mark.parametrize("b0, cut, n", [(10.0, 10.0 - 1e-3, 128), (10.0, 10.0, 128),
                                       (9.93, 9.93 - 1e-3, 128), (10.0, 10.0 - 1e-4, 256)])
def test_phi_cut_inside_the_last_cell_follows_phi_max(b0, cut, n):
    # a window cut inside its last initial cell would start with its outer
    # node where y ~ 0 and fail within a few steps; it follows Phi_max
    # instead, and the first remesh switches it to the truncated window
    arts = run_flow(FlowConfig(a0=1.0, b0=b0, grid_n=n, stop_tau=0.1, engine="both",
                               record_every=25, phi_cut=cut))
    assert arts.status == "completed"
    assert arts.cross_engine                # recorded once the window is truncated


# ---------------------------------------------------------------------------
# no flow run loads scipy
# ---------------------------------------------------------------------------

_SCIPY_PROBE = """
import json, sys, tempfile
import krflow, krflow.cli
from krflow import flow
remeshed = []
_pchip = flow.pchip
flow.pchip = lambda x, y: (remeshed.append(len(x)), _pchip(x, y))[1]
arts = flow.run_flow(flow.FlowConfig(**json.loads(sys.argv[1])))
with tempfile.TemporaryDirectory() as out:
    flow.write_artifacts(arts, out)
print(json.dumps({"status": arts.status, "pchip_calls": len(remeshed),
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""

_SOLITON_PROBE = """
import json, os, sys, tempfile
from krflow.cli import main
with tempfile.TemporaryDirectory() as out:
    code = main(["soliton", "--family", sys.argv[1], "--n", "1024",
                 "--out", os.path.join(out, "profile.csv")])
print(json.dumps({"code": code,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def _probe(script, arg):
    """Run script in a fresh interpreter; its last output line is JSON."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, arg],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _probe_scipy(**cfg):
    return _probe(_SCIPY_PROBE, json.dumps(cfg))


def test_parabola_run_never_imports_scipy():
    out = _probe_scipy(a0=1.0, b0=9.93, grid_n=128, stop_tau=0.1, record_every=25,
                       engine="both", phi_cut=10.5)
    assert out["status"] == "completed"
    assert out["pchip_calls"] >= 1      # the run remeshed
    assert out["scipy"] == []


@pytest.mark.parametrize("kind, b0", [("cao_koiso", 3.0), ("cao_koiso_perturbed", 3.1)],
                         ids=["cao_koiso", "cao_koiso_perturbed"])
def test_cao_koiso_runs_never_import_scipy(kind, b0):
    out = _probe_scipy(a0=1.0, b0=b0, initial_kind=kind, grid_n=128,
                       stop_tau=0.05, record_every=25)
    assert out["status"] == "completed"
    assert out["scipy"] == []


@pytest.mark.parametrize("family", ["fik", "cao-koiso"])
def test_soliton_command_never_imports_scipy(family):
    out = _probe(_SOLITON_PROBE, family)
    assert out["code"] == 0
    assert out["scipy"] == []


# ---------------------------------------------------------------------------
# a run that cannot go on ends with a typed status
# ---------------------------------------------------------------------------

_COUPLED = dict(a0=1.0, b0=9.93, grid_n=128, stop_tau=0.1, record_every=25,
                engine="both", phi_cut=10.5)


def _one_dilated_substep(monkeypatch):
    """Let advance_to take a single step.  The dilated engine of a coupled
    run first catches up with the primary at the remesh at step 200, a gap
    of several _DTAU, so advance_to cannot reach it."""
    from krflow import flow
    monkeypatch.setattr(flow, "_MAX_SUBSTEPS", 1)


def test_substep_limit_ends_the_run_with_partial_artifacts(monkeypatch, tmp_path):
    from krflow import flow
    # the dilated engine follows the unscaled one by advance_to at the first
    # remesh; with one substep allowed it cannot catch up there
    _one_dilated_substep(monkeypatch)
    arts = run_flow(FlowConfig(**_COUPLED))
    assert arts.status == "substep_limit"
    assert arts.failing_step == arts.manifest["steps"]
    assert arts.manifest["steps"] == flow._REMESH_INTERVAL
    assert arts.series and arts.series[-1].step == arts.manifest["steps"]
    manifest = write_artifacts(arts, tmp_path)
    assert manifest["status"] == "substep_limit"
    assert manifest["failing_step"] == arts.failing_step
    assert (tmp_path / "series.csv").exists()
    d0 = analysis.dilate(make_initial(FlowConfig(a0=1.0, b0=9.93, grid_n=128)))
    eng = _DilatedEngine(d0, 128)
    with pytest.raises(flow.FlowRunError) as ex:
        eng.advance_to(d0.tau + 1.0)
    assert (ex.value.step, ex.value.t) == (1, eng.t) and eng.t > d0.tau


def _evolve_coupled(tmp_path):
    """`krflow evolve` on _COUPLED; returns (exit code, output directory)."""
    from krflow.cli import main
    cfgp = tmp_path / "coupled.cfg"
    cfgp.write_text("".join(f"{k} = {v}\n" for k, v in _COUPLED.items()))
    outd = tmp_path / "o"
    return main(["evolve", "--config", str(cfgp), "--out-dir", str(outd)]), outd


def test_substep_limit_exits_3_from_the_cli(monkeypatch, tmp_path, capsys):
    _one_dilated_substep(monkeypatch)
    rc, outd = _evolve_coupled(tmp_path)
    assert rc == 3
    assert "run did not complete: substep_limit at step 200\n" in capsys.readouterr().err
    assert json.loads((outd / "manifest.json").read_text())["status"] == "substep_limit"


def test_a_positivity_halving_inside_advance_to_still_reaches_the_target():
    from krflow import flow
    d0 = analysis.dilate(make_initial(FlowConfig(a0=1.0, b0=9.93, grid_n=128)))
    eng = _DilatedEngine(d0, 128)
    target = eng.t + flow._DTAU                 # one step's gap
    rhs, spoiled, dts = eng.rhs, [], []

    def rhs_once_negative(y, tau, slot=0):
        F, yp, ypp = rhs(y, tau, slot)
        if slot == 1 and not spoiled:       # the first second stage drives y < 0
            spoiled.append(tau)
            F = np.full_like(F, -1e300)
        return F, yp, ypp

    def step(*args, **kw):
        dts.append(type(eng).step(eng, *args, **kw))
        return dts[-1]

    eng.rhs, eng.step = rhs_once_negative, step
    eng.advance_to(target)
    assert spoiled and len(dts) == 2 and eng.step_count == 2
    assert dts[0] == pytest.approx(0.5 * (target - d0.tau), rel=1e-12)
    assert abs(eng.t - target) <= 1e-14
    assert np.all(eng.u[1:-1] > 0.0)


def test_the_dilated_engine_catches_up_only_where_it_is_read(monkeypatch):
    from krflow import flow
    # per advance_to call: [primary step, gap, ROS2 steps taken]
    calls, at = [], [0]
    ustep, advance_to, step = (_UnscaledEngine.step, _DilatedEngine.advance_to,
                               _DilatedEngine.step)

    def spy_ustep(self, dt_max):
        at[0] = self.step_count + 1
        return ustep(self, dt_max)

    def spy_advance(self, tau_target):
        calls.append([at[0], tau_target - self.t, 0])
        advance_to(self, tau_target)

    def spy_step(self, dt_max):
        calls[-1][2] += 1
        return step(self, dt_max)

    monkeypatch.setattr(_UnscaledEngine, "step", spy_ustep)
    monkeypatch.setattr(_DilatedEngine, "advance_to", spy_advance)
    monkeypatch.setattr(_DilatedEngine, "step", spy_step)
    arts = run_flow(FlowConfig(**_COUPLED))
    n = arts.manifest["steps"]
    assert arts.status == "completed" and arts.cross_engine
    # at the joint remeshes, at the cross records of the truncated window
    # and at the end of the run, and nowhere else
    cross_taus = {c[0] for c in arts.cross_engine}
    cross_steps = {r.step for r in arts.series if r.tau in cross_taus}
    assert cross_steps and min(cross_steps) > flow._REMESH_INTERVAL
    want = set(range(flow._REMESH_INTERVAL, n + 1, flow._REMESH_INTERVAL)) | cross_steps | {n}
    assert {c[0] for c in calls} == want
    # each gap in ceil(gap / _DTAU) equal steps, far fewer than the primary's
    for _, gap, taken in calls:
        assert taken == (math.ceil(gap / flow._DTAU - 1e-9) if gap > 1e-14 else 0)
    assert sum(c[2] for c in calls) < 0.1 * n


def test_outer_value_at_each_stage_is_the_primarys_interpolated_value(monkeypatch):
    # the truncated window's outer value, wherever the dilated engine reads
    # it (stage times, the time difference of dF/dt, remeshes), is the
    # unscaled engine's value at phi_cut, linear between its steps
    primary, seen = [], []
    ustep, outer = _UnscaledEngine.step, _DilatedEngine._outer_value
    cut = _COUPLED["phi_cut"]

    def spy_ustep(self, dt_max):
        dt = ustep(self, dt_max)
        Tt = self.T - self.t
        primary.append((self.tau, np.interp(cut * Tt, self.nodes(), self.u) / Tt))
        return dt

    def spy_outer(self, tau):
        seen.append((tau, outer(self, tau)))
        return seen[-1][1]

    monkeypatch.setattr(_UnscaledEngine, "step", spy_ustep)
    monkeypatch.setattr(_DilatedEngine, "_outer_value", spy_outer)
    arts = run_flow(FlowConfig(**_COUPLED))
    assert arts.status == "completed" and arts.cross_engine
    taus, vals = np.array(primary).T
    got = np.array(seen)
    assert got.shape[0] > 10
    assert np.all((got[:, 0] >= taus[0]) & (got[:, 0] <= taus[-1]))
    want = np.interp(got[:, 0], taus, vals)
    assert np.allclose(got[:, 1], want, rtol=1e-12, atol=0.0)
    stage = ~np.isin(got[:, 0], taus)       # between two primary steps
    assert np.count_nonzero(stage) > 0.5 * got.shape[0]


# ---------------------------------------------------------------------------
# the ROS2 step
# ---------------------------------------------------------------------------

def _ros2_engine(truncated):
    """A dilated engine three steps into (1, 10) parabola data: on the
    growing window, or on the window cut at phi = 6 with an outer value that
    moves in tau."""
    d = analysis.dilate(make_initial(small_cfg()))
    if truncated:
        y_cut = float(np.interp(6.0, d.phi, d.y))
        g = lambda tau: y_cut * (1.0 + 0.3 * np.sin(5.0 * tau))
        eng = _DilatedEngine(d, 256, phi_cut=6.0, outer_bc=g)
    else:
        eng = _DilatedEngine(d, 256)
    for _ in range(3):
        eng.step(1.0)
    assert eng.truncated == truncated
    return eng


def _linearised(eng):
    F0 = eng.rhs(eng.u, eng.t)[0].copy()
    lower, diag, upper, Ft = eng._linearise(eng.u, eng.t, F0)
    J = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    return F0, lower, diag, upper, Ft, J


@pytest.mark.parametrize("truncated", [False, True], ids=["full", "truncated"])
def test_ros2_jacobian_matches_dense_differences(truncated):
    eng = _ros2_engine(truncated)
    u, t = eng.u, eng.t
    _, _, _, _, Ft, J = _linearised(eng)
    m = u.size - 2
    # column by column, by central differences with increments of their own
    dense = np.empty((m, m))
    for j in range(m):
        d = 1e-6 * max(abs(u[j + 1]), 1e-3)
        w = u.copy()
        w[j + 1] += d
        Fp = eng.rhs(w, t)[0].copy()
        w[j + 1] -= 2.0 * d
        dense[:, j] = (Fp - eng.rhs(w, t)[0]) / (2.0 * d)
    off = np.abs(np.subtract.outer(np.arange(m), np.arange(m))) > 1
    assert np.all(dense[off] == 0.0)            # F is tridiagonal in u
    assert np.max(np.abs(J - dense)) <= 1e-6 * np.max(np.abs(dense))

    # dF/dt moves the frame and, in a cut window, the outer value with t
    def F_at(s):
        w = u.copy()
        if truncated:
            w[-1] = eng._outer_value(s)
        return eng.rhs(w, s)[0].copy()

    Ft_ref = (F_at(t + 1e-6) - F_at(t - 1e-6)) / 2e-6
    assert np.max(np.abs(Ft_ref)) > 0.1
    assert np.max(np.abs(Ft - Ft_ref)) <= 1e-6 * np.max(np.abs(Ft_ref))


@pytest.mark.parametrize("truncated", [False, True], ids=["full", "truncated"])
def test_tridiagonal_solve_matches_dense_solve_on_ros2_matrices(truncated):
    from krflow import flow
    from krflow.grids import tridiagonal_solver
    eng = _ros2_engine(truncated)
    F0, lower, diag, upper, Ft, J = _linearised(eng)
    for h in (flow._DTAU, 0.5 * flow._DTAU, 0.1):
        gh = flow._ROS2_GAMMA * h
        W = np.eye(J.shape[0]) - gh * J
        solve = tridiagonal_solver(-gh * lower, 1.0 - gh * diag, -gh * upper)
        for r in (F0 + gh * Ft, np.random.default_rng(1).standard_normal(F0.size)):
            want = np.linalg.solve(W, r)
            assert np.max(np.abs(solve(r) - want)) <= 1e-13 * np.max(np.abs(want))


def test_ros2_is_second_order_in_time_with_moving_outer_data(monkeypatch):
    # perturbed FIK data on the window [1, 20] cut there, its outer value
    # moving linearly in tau as a coupled run's does between two primary
    # steps; the error at tau = 0.4 against 640 steps falls about 4x per
    # halving of the step, and about 2x, from errors 100x larger, when
    # dF/dt is dropped (the boundary motion then enters at first order)
    from krflow import flow
    n = 128
    phi = window_mesh(lambda d: fik_y(1.0 + d), 1.0, 20.0, 1.0, n)
    y0 = fik_y(phi) * (1.0 + 0.05 * np.sin(np.pi * (phi - 1.0) / 19.0))
    g = lambda tau: float(fik_y(20.0)) * (1.0 + 1.5 * tau)
    y0[-1] = g(0.0)

    def errors():
        def run(k):
            eng = _DilatedEngine(DilatedState(0.0, phi, y0.copy(), truncated=True), n,
                                 outer_bc=g)
            for _ in range(k):
                eng._ros2_step(0.4 / k)
            assert eng.tau == pytest.approx(0.4, abs=1e-12)
            return eng.u
        ref = run(640)
        return np.array([np.max(np.abs(run(k) - ref)) for k in (10, 20, 40, 80)])

    errs = errors()
    assert np.all(errs[:-1] / errs[1:] > 3.5)
    linearise = flow._Engine._linearise
    monkeypatch.setattr(flow._Engine, "_linearise",
                        lambda self, u, t, F0: linearise(self, u, t, F0)[:3] + (0.0,))
    without = errors()
    assert np.all(without[:-1] / without[1:] < 2.6)
    assert np.all(without > 100.0 * errs)


def _failing_second_mesh(monkeypatch):
    """Make the mesh law fail on its second call: the first builds the initial
    data, the second is the first remesh (step 200)."""
    from krflow import flow
    from krflow.grids import GridError
    calls = []

    def mesh(*args, **kw):
        calls.append(1)
        if len(calls) == 2:
            raise GridError("mesh law failed")
        return window_mesh(*args, **kw)

    monkeypatch.setattr(flow, "window_mesh", mesh)


def test_remesh_failure_ends_the_run_with_partial_artifacts(monkeypatch, tmp_path):
    from krflow import flow
    from krflow.grids import GridError
    _failing_second_mesh(monkeypatch)
    arts = run_flow(FlowConfig(**_COUPLED))
    assert arts.status == "remesh_failure"
    assert arts.failing_step == arts.manifest["steps"] == flow._REMESH_INTERVAL
    assert arts.series and arts.series[-1].step == arts.failing_step
    manifest = write_artifacts(arts, tmp_path)
    assert manifest["status"] == "remesh_failure"
    assert manifest["failing_step"] == arts.failing_step
    assert (tmp_path / "series.csv").exists()
    # the engine raises the typed error, with the mesh law's as its cause
    _failing_second_mesh(monkeypatch)
    eng = _unscaled_engine(small_cfg(grid_n=128))
    with pytest.raises(flow.FlowRemeshError) as ex:
        eng.remesh()
    assert isinstance(ex.value.__cause__, GridError)
    assert ex.value.status == "remesh_failure" and ex.value.step == 0
    # a growing dilated window whose remesh would cut it (the cut lies
    # inside its last cell) keeps its frame when the mesh law fails
    _failing_second_mesh(monkeypatch)
    d0 = analysis.dilate(make_initial(FlowConfig(a0=1.0, b0=9.93, grid_n=128)))
    de = _DilatedEngine(d0, 128, phi_cut=0.5 * (d0.phi[-2] + d0.phi[-1]),
                        outer_bc=lambda tau: 0.0)
    with pytest.raises(flow.FlowRemeshError):
        de.remesh()
    assert not de.truncated and de.nodes()[-1] == d0.phi[-1]


def test_remesh_failure_exits_3_from_the_cli(monkeypatch, tmp_path, capsys):
    _failing_second_mesh(monkeypatch)
    rc, outd = _evolve_coupled(tmp_path)
    assert rc == 3
    assert "run did not complete: remesh_failure at step 200" in capsys.readouterr().err
    assert json.loads((outd / "manifest.json").read_text())["status"] == "remesh_failure"


# ---------------------------------------------------------------------------
# the endpoint motion against an independent r-coordinate solver
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_r_engine_validates_boundary_motion():
    n = 20001
    g = np.geomspace(1e-8, 4.5, n // 2)
    f = np.unique(np.concatenate([[1.0], 1.0 + g, 10.0 - g, [10.0]]))
    u = (f - 1.0) * (10.0 - f) / 9.0
    u[0] = u[-1] = 0.0
    out = r_coordinate_reference(RadialProfile(f, u), t_end=0.5)
    assert out["a_error"] <= 1e-4
    assert out["b_error"] <= 1e-4


@pytest.mark.slow
def test_positive_ricci_destroyed_along_flow():
    # the perturbed compact-soliton data has strictly positive Ricci
    # curvature, yet the transverse eigenvalue at the collapsing section
    # turns negative as the dilated profile approaches the mixed-sign
    # stationary state
    cfg = FlowConfig(a0=1.0, b0=3.1, initial_kind="cao_koiso_perturbed",
                     grid_n=384, stop_tau=4.0, record_every=50)
    arts = run_flow(cfg)
    assert arts.status == "completed"
    assert len(arts.violations) == 0
    taus = np.array([r.tau for r in arts.series])
    l2 = np.array([r.lambda2_sigma0 for r in arts.series])
    assert l2[0] > 0.4                      # starts at 1 - C_compact ~ 0.472
    flips = taus[l2 < 0]
    assert flips.size and 2.0 < flips[0] < 4.0
    r_end = arts.record_at_tau(4.0)
    assert np.exp(-r_end.tau) * r_end.lambda2_sigma0 < -0.1
    # still squeezing toward the stationary profile
    assert r_end.sup_err_c0 < arts.record_at_tau(2.0).sup_err_c0


def test_step_dilated_from_unscaled_callable():
    phi = np.linspace(1.0, 20.0, 400)
    d = DilatedState(0.0, phi, fik_y(phi), truncated=True)
    outer = lambda tau: float(fik_y(20.0))
    eng = _DilatedEngine(d, phi.size, outer_bc=outer)
    eng.advance_to(0.02)
    assert eng.tau == pytest.approx(0.02)
    assert eng.u[-1] == pytest.approx(fik_y(20.0))


def test_make_initial_from_log_profile_file(tmp_path):
    from krflow.geometry import to_log, write_profile_csv
    f = np.linspace(1.0, 10.0, 4001)
    u = (f - 1.0) * (10.0 - f) / 9.0
    lp = to_log(RadialProfile(f, u), anchor=(5.5, 0.0))
    path = tmp_path / "log_init.csv"
    write_profile_csv(lp, path)
    # a chart profile drops the degenerate endpoint nodes, so its domain does
    # not reach (a0, b0) exactly and the loader must reject it
    cfg = FlowConfig(a0=1.0, b0=10.0, grid_n=256,
                     initial_kind="from_file", initial_path=str(path))
    with pytest.raises(ConfigError, match="does not match"):
        make_initial(cfg)


@pytest.mark.slow
def test_scale_invariance_of_the_pipeline():
    # the dilated view of (0.5, 5) parabola data coincides with the (1, 10)
    # one, so at matching elapsed dilated time every recorded quantity must
    # agree: engine, dilation, gauge, and records are all scale-covariant
    tau_end = 3.0
    a = run_flow(FlowConfig(a0=0.5, b0=5.0, grid_n=256, stop_tau=tau_end,
                            record_every=50))
    shift = np.log(2.0)
    b = run_flow(FlowConfig(a0=1.0, b0=10.0, grid_n=256,
                            stop_tau=tau_end - shift + 1e-12, record_every=50))
    ra = a.record_at_tau(tau_end)
    rb = b.record_at_tau(tau_end - shift)
    assert np.exp(-ra.tau) * ra.R_sigma0 == pytest.approx(
        np.exp(-rb.tau) * rb.R_sigma0, rel=1e-8)
    assert ra.sup_err_c0 == pytest.approx(rb.sup_err_c0, rel=1e-8)
    assert ra.gauge_C == pytest.approx(rb.gauge_C, abs=1e-8)
    assert len(a.violations) == 0


@pytest.mark.slow
def test_deep_collapse_stays_resolved():
    # remeshing maintains resolution deep into the collapse (T - t ~ 5e-4)
    arts = run_flow(FlowConfig(a0=1.0, b0=10.0, grid_n=384, stop_tau=7.5,
                               record_every=100))
    assert arts.status == "completed"
    assert len(arts.violations) == 0
    r = arts.record_at_tau(7.5)
    assert r.sup_err_c0 < 5e-3
    assert abs(np.exp(-r.tau) * r.R_sigma0 - (4.0 - 2.0 * np.sqrt(2.0))) < 0.01
