"""Time stepping of the potential flow: one equation, one engine core, two frames.

Unscaled frame: the slope field u(f, t) on the moving domain [a(t), b(t)]
(a = a0 - t, b = b0 - 3t, imposed analytically) evolves, at fixed normalized
position xi = (f - a)/(b - a), by

    d_t u = u u_ff - u_f^2 + 2 u_f - u^2/f^2 + u_f (adot + xi (bdot - adot)),

the chain-rule transcription of the r-coordinate potential equation
phi_t = phi_rr/phi_r + phi_r/phi - 2 (via phi_t = u_f + u/f - 2 and
phi_rr = u_f u).  An anchor point rides along by phi_t for the gauge.

Dilated frame: the blow-up view y = u/(T - t) of phi = f/(T - t),
tau = -log(T - t), on [1, Phi_max(tau)] with Phi_max = (b0 - 3a0) e^tau + 3
evolves by

    d_tau y = y y_pp + (2 - phi - y_p) y_p + y (1 - y/phi^2)

plus the frame-stretch advection y_p xi dPhi_max/dtau at fixed
xi = (phi - 1)/(Phi_max - 1); a truncated window stops at phi_cut and takes
its outer value from a Dirichlet source instead.

One equation: on a frame's domain [x0, x1] of length L, at x = x0 + xi L,
both read

    F = u u_xx + u_x (v - u_x) + kappa u - (u / x)^2,

the dilated one being the unscaled one plus the dilation term y (kappa = 1,
else 0).  Both moving windows stretch self-similarly (adot = -1,
bdot - adot = -2; dPhi_max/dtau = Phi_max - 3 = L - 2), so the advection
coefficient is v = 1 - 2 xi in both frames, and v = 2 - phi = 1 - xi L on a
truncated static window.  The nodes are rebuilt as x0 + xi L in both frames,
so a node can differ from the one a frame was built on by rounding: on the
canonical 2,048-node initial grid 58 nodes move, by at most 8.9e-16, in
each frame, none of them in [1, 3].

The core (_Engine) is common to both frames: the equation (rhs) and the
nodes, endpoints pinned at u = 0 with exact slopes +1 / -1 feeding Hermite
stencils at the boundary-adjacent nodes, remeshing, and a linearly implicit
ROS2 step: the tridiagonal Jacobian from three coloured differences of the
rhs, the dF/dt term, a cyclic-reduction solve (grids.tridiagonal_solver),
and rejection-halving on interior positivity loss.  The dilated frame steps
only by ROS2, at the fixed step _DTAU (0.005) in tau; the unscaled frame
keeps explicit RK2 (midpoint) under a local CFL bound, with the same halving.
Meshes cluster in the inner window [a, a + K (T - t)] on a
CFL-equidistributed spacing law with a resolution floor, and are rebuilt by
monotone cubic interpolation when the primary engine's own clock says so
(remesh_due): every _REMESH_INTERVAL (200) accepted RK2 steps, or every
_REMESH_DTAU (0.02) of tau in a run stepped by ROS2 alone.  The mesh law,
with its constants (K, the window's least share of the nodes, the floor and
the outer grading), is grids.window_mesh; the remesh spacings and the
[1, 3] window on which runs are compared with Y are fixed next to _Engine.

The core also reads every state through its dilated view: the inner end
x[0] of a frame's nodes x is T - t unscaled and 1 dilated, so the view is
(phi, y) = (x, u) / x[0], and a frame adds only its time_left (T - t, or
e^-tau).  Snapshots (views), the monitor's rows (dilated_rows) and the
record fields both frames share are the core's.  A frame (_UnscaledEngine,
_DilatedEngine) supplies only its domain(t) = (x0, x1, L), its kappa, its
outer boundary data, its step and remesh clock and its own record fields:
the unscaled one t, b, dt, the gauge (its first measurement reads C = 0)
and the anchor sample; the dilated one t = T - e^-tau, b and dt.

In a coupled run (engine = both) the unscaled engine is the primary.  The
dilated engine lags it and catches up by advance_to, in ceil(gap / _DTAU)
equal ROS2 steps, only where its state is read: before each joint remesh,
before each cross-engine record of the truncated window, and at the end of
the run.  While its window is truncated, the primary's value at the cut is
stored after each primary step, and the dilated engine takes its outer
value at each stage time by linear interpolation in that history.

The sandwich monitor checks every accepted step of the run's primary engine
in either frame, on its dilated view (phi, y), a block of steps at a time.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
import time
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import analysis
from .barriers import (BARRIER_DELTA, LAMBDA_INIT, SandwichMonitor, class_c_check,
                       fit_lambda0, write_violation_csv)
from .geometry import (LogProfile, RadialProfile, curvature, read_profile_csv,
                       reduced_rm, to_radial, write_profile_csv)
from .grids import (affine_interp, check_grid, cumint_inverse_linear, difference_stencils,
                    difference_weights, hermite_boundary, hermite_cubic_coeffs, pchip,
                    tridiagonal_solver, window_mesh)
from .soliton import _cao_koiso_reduced_root, cao_koiso_u, fik_y, fik_y_derivs
from .states import AnchorSample, DilatedState, FlowState, SeriesRecord

__all__ = [
    "FlowConfig", "RunArtifacts", "ConfigError", "FlowSetupError", "FlowRunError",
    "FlowPositivityError", "FlowRemeshError", "make_initial", "run_flow",
    "load_config", "parse_config_text", "write_artifacts",
]


class ConfigError(ValueError):
    """Bad or unknown configuration key/value."""


class FlowSetupError(RuntimeError):
    """Initial data construction failed (class membership, positivity)."""


class FlowRunError(RuntimeError):
    """An engine could not go on at its step `step` and time `t`.  This class:
    advance_to took _MAX_SUBSTEPS steps without reaching its target time;
    each subclass names another cause.  run_flow ends the run with the
    class's `status` and partial artifacts.
    """
    status = "substep_limit"

    def __init__(self, step, t, msg=""):
        super().__init__(msg or f"flow {self.status.replace('_', ' ')} at step {step}, "
                                f"t = {t:.9g}")
        self.step = step
        self.t = t


class FlowPositivityError(FlowRunError):
    """Interior positivity lost after maximal step halving."""
    status = "positivity_failure"


class FlowRemeshError(FlowRunError):
    """A remesh failed: the mesh law or the resample raised a ValueError
    (GridError among them), which the error chains as its cause."""
    status = "remesh_failure"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _is_real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


_INITIAL_KINDS = ("parabola", "cao_koiso", "cao_koiso_perturbed", "from_file")
# 32 times the largest pinned run's grid; a config past it would only
# allocate a mesh that no run could step
_GRID_N_MAX = 65_536
_ENGINES = ("unscaled", "dilated", "both")


def _snap_label(tau):
    """A snapshot's tau as its file names write it."""
    return f"{tau:g}"


@dataclass(frozen=True)
class FlowConfig:
    a0: float
    b0: float
    initial_kind: str = "parabola"
    initial_path: str = ""
    grid_n: int = 1024
    cfl: float = 0.4
    stop_tau: float = 6.5
    engine: str = "unscaled"
    record_every: int = 25
    snap_taus: tuple = ()
    phi_cut: float = 50.0
    max_steps: int = 5_000_000

    def __post_init__(self):
        self.validate()

    def validate(self):
        errs = [f"{k} must be a real number, got {getattr(self, k)!r}"
                for k in ("a0", "b0", "cfl", "stop_tau", "phi_cut")
                if not _is_real(getattr(self, k))]
        snaps = self.snap_taus
        if not (isinstance(snaps, Sequence) and all(map(_is_real, snaps))):
            errs.append(f"snap_taus must be a sequence of real numbers, got {snaps!r}")
        if errs:    # the checks below need numbers
            raise ConfigError("; ".join(errs))
        errs = [f"{k} must be finite, got {getattr(self, k)}"
                for k in ("a0", "b0", "stop_tau", "phi_cut")
                if not abs(getattr(self, k)) <= sys.float_info.max]
        if not all(abs(s) <= sys.float_info.max for s in self.snap_taus):
            errs.append(f"snap_taus must be finite, got {self.snap_taus}")
        if errs:    # nan, inf or an int past the float range: the checks below need floats
            raise ConfigError("; ".join(errs))
        if self.a0 <= 0 or self.b0 <= self.a0:
            errs.append(f"need 0 < a0 < b0, got a0={self.a0}, b0={self.b0}")
        elif not (1e-30 <= self.a0 and self.b0 <= 1e30):    # the flow is scale-covariant
            errs.append(f"need 1e-30 <= a0 and b0 <= 1e30 (rescale the class), "
                        f"got a0={self.a0}, b0={self.b0}")
        if self.initial_kind not in _INITIAL_KINDS:
            errs.append(f"initial_kind must be one of {_INITIAL_KINDS}")
        if self.initial_kind == "cao_koiso":
            if abs(self.a0 - 1.0) > 1e-12 or abs(self.b0 - 3.0) > 1e-12:
                errs.append("cao_koiso initial data requires (a0, b0) = (1, 3)")
        elif self.b0 <= 3.0 * self.a0 and not errs:
            errs.append(f"requires b > 3a, got (a0, b0) = ({self.a0}, {self.b0})")
        if self.initial_kind == "cao_koiso_perturbed" and abs(self.a0 - 1.0) > 1e-12:
            errs.append("cao_koiso_perturbed requires a0 = 1")
        if self.initial_kind == "from_file" and not self.initial_path:
            errs.append("from_file initial data needs initial_path")
        for k in ("grid_n", "record_every", "max_steps"):
            v = getattr(self, k)
            if not isinstance(v, int) or isinstance(v, bool):
                errs.append(f"{k} must be an integer, got {v!r}")
        if isinstance(self.grid_n, int) and not 128 <= self.grid_n <= _GRID_N_MAX:
            errs.append(f"grid_n must lie in [128, {_GRID_N_MAX}], got {self.grid_n}")
        if not (0.0 < self.cfl <= 0.5):
            errs.append("cfl must lie in (0, 0.5]")
        if self.stop_tau < 0.0:
            errs.append("stop_tau must be >= 0")
        if not errs:
            tau0 = 0.0 - math.log(self.a0)    # not -0.0, which prints as '-0'
            if self.stop_tau <= tau0:
                errs.append(f"stop_tau = {self.stop_tau} does not exceed the "
                            f"starting dilated time {tau0:.6g}")
            outside = [_snap_label(s) for s in self.snap_taus if not tau0 < s <= self.stop_tau]
            if outside:
                errs.append(f"snap_taus {', '.join(outside)} outside the run's "
                            f"(tau0, stop_tau] = ({tau0:.6g}, {self.stop_tau:g}]")
            labels = sorted(_snap_label(s) for s in set(self.snap_taus))
            if len(set(labels)) < len(labels):
                errs.append(f"snap_taus {self.snap_taus} share file labels: {', '.join(labels)}")
        for k, lo in (("record_every", 1), ("max_steps", 0)):
            if isinstance(getattr(self, k), int) and getattr(self, k) < lo:
                errs.append(f"{k} must be >= {lo}")
        if self.engine not in _ENGINES:
            errs.append(f"engine must be one of {_ENGINES}")
        if self.phi_cut <= 3.0:
            errs.append("phi_cut must exceed 3")
        if errs:
            raise ConfigError("; ".join(errs))


_PARSERS = {"float": float, "int": int, "str": str,
            "tuple": lambda v: tuple(float(x) for x in v.split(",") if x.strip())}
_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(FlowConfig)}


def parse_config_text(text) -> FlowConfig:
    """Flat `key = value` config; keys are the FlowConfig field names
    (the Kahler class flattens to a0 / b0).  Unknown keys are errors."""
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"unknown config key: {key!r}")
        if key in kv:
            raise ConfigError(f"duplicate config key: {key!r}")
        try:
            kv[key] = _FIELD_PARSERS[key](val)
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {val!r} ({e})") from None
    for req in ("a0", "b0"):
        if req not in kv:
            raise ConfigError(f"missing required config key: {req!r}")
    return FlowConfig(**kv)


def load_config(path) -> FlowConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


def _resample(spl, x_old, u_old, x_new, slope_right=None):
    """Monotone cubic resample, by spl = pchip(x_old, u_old), with exact
    boundary data re-imposed: slope +1 at the inner end, slope_right (unless
    None) at the outer one.

    Near a degenerate endpoint the interpolant is replaced by the Hermite
    cubic through the endpoint data (value 0, known slope) and the first two
    old nodes: plain interpolation noise there, once divided by the O(delta^2)
    endpoint stencil denominators, would corrupt curvature diagnostics.
    """
    u_new = np.asarray(spl(x_new), dtype=float)
    for slope, (i0, i1, i2) in ((1.0, (0, 1, 2)), (slope_right, (-1, -2, -3))):
        if slope is None:
            continue
        d1, d2 = x_old[i1] - x_old[i0], x_old[i2] - x_old[i0]
        r1 = u_old[i1] - u_old[i0] - slope * d1
        r2 = u_old[i2] - u_old[i0] - slope * d2
        c2, c3 = hermite_cubic_coeffs(d1, d2, r1, r2)
        dd = x_new - x_old[i0]
        m = dd < d2 if i0 == 0 else dd > d2
        u_new[m] = u_old[i0] + slope * dd[m] + c2 * dd[m] ** 2 + c3 * dd[m] ** 3
    return u_new


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def _quintic_bridge(x0, v0, d0, dd0, x1, v1, d1, dd1):
    """Two-point quintic Hermite (value, slope, curvature at both ends)."""
    h = x1 - x0

    def p(x):
        s = (np.asarray(x, dtype=float) - x0) / h
        # quintic Hermite basis in normalized coordinates
        h00 = 1 - 10 * s**3 + 15 * s**4 - 6 * s**5
        h10 = s - 6 * s**3 + 8 * s**4 - 3 * s**5
        h20 = 0.5 * s**2 - 1.5 * s**3 + 1.5 * s**4 - 0.5 * s**5
        h01 = 10 * s**3 - 15 * s**4 + 6 * s**5
        h11 = -4 * s**3 + 7 * s**4 - 3 * s**5
        h21 = 0.5 * s**3 - s**4 + 0.5 * s**5
        return (v0 * h00 + d0 * h * h10 + dd0 * h * h * h20
                + v1 * h01 + d1 * h * h11 + dd1 * h * h * h21)
    return p


def _perturbed_cao_koiso(cfg: FlowConfig):
    """Compact-soliton potential stretched near the outer section to b0 > 3,
    preserving the endpoint slope -1, interior positivity, and positive Ricci."""
    b0 = cfg.b0
    # the bridge replaces the profile on [3 - w, b0], w at least 0.6
    w = min(max(0.6, 4.0 * (b0 - 3.0)), 1.5)
    x0 = 3.0 - w
    c_kc = _cao_koiso_reduced_root()
    # the value from the formula, the slope and curvature from the soliton
    # ODE u_f = (C - 1/f) u + 2 - f and its derivative
    u0 = float(cao_koiso_u([x0])[0])
    du0 = (c_kc - 1.0 / x0) * u0 + 2.0 - x0
    ddu0 = (c_kc - 1.0 / x0) * du0 + u0 / x0 ** 2 - 1.0
    dd_out = -2.0 / 3.0 - c_kc   # curvature the unperturbed profile has at its outer zero
    bridge = _quintic_bridge(x0, u0, du0, ddu0, b0, 0.0, -1.0, dd_out)

    def u_fn(f):
        f = np.asarray(f, dtype=float)
        return np.where(f <= x0, cao_koiso_u(np.minimum(f, x0)), bridge(np.maximum(f, x0)))

    probe = np.linspace(1.0, b0, 4097)
    vals = u_fn(probe)
    vals[0] = vals[-1] = 0.0
    if np.any(vals[1:-1] <= 0.0):
        raise FlowSetupError("perturbed profile loses interior positivity; "
                             "decrease b0 - 3")
    rep = curvature(RadialProfile(probe, vals))
    if min(rep.lambda1.min(), rep.lambda2.min()) <= 0.0:
        raise FlowSetupError("Ricci positivity lost")
    return u_fn


def make_initial(cfg: FlowConfig) -> FlowState:
    """Initial flow state for the configured data family.

    The construction fails (FlowSetupError) if the result is not strictly
    above the membership barrier Y - phi^2/5 in the dilated view.
    """
    a0, b0 = cfg.a0, cfg.b0
    T = a0

    if cfg.initial_kind == "parabola":
        u_fn = lambda f: (np.asarray(f) - a0) * (b0 - np.asarray(f)) / (b0 - a0)
    elif cfg.initial_kind == "cao_koiso":
        u_fn = cao_koiso_u
    elif cfg.initial_kind == "cao_koiso_perturbed":
        u_fn = _perturbed_cao_koiso(cfg)
    else:
        try:
            prof = read_profile_csv(cfg.initial_path)
            if isinstance(prof, LogProfile):
                prof = to_radial(prof)
            check_grid(prof.f)
            np.asarray_chkfinite(prof.u)
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read initial profile {cfg.initial_path!r}: "
                              f"{e}") from None
        scale = np.max(prof.u)
        if (abs(prof.a - a0) > 1e-8 * max(1.0, a0) or
                abs(prof.b - b0) > 1e-8 * max(1.0, b0)):
            raise ConfigError(f"profile domain [{prof.a}, {prof.b}] does not match "
                              f"(a0, b0) = ({a0}, {b0})")
        if abs(prof.u[0]) > 1e-9 * scale or abs(prof.u[-1]) > 1e-9 * scale:
            raise ConfigError("profile endpoints must vanish")
        spl = pchip(prof.f, prof.u)
        u_fn = lambda f: np.clip(spl(np.clip(f, prof.a, prof.b)), 0.0, None)

    f = window_mesh(lambda d: np.clip(u_fn(a0 + d), 0.0, None), a0, b0, T, cfg.grid_n)
    u = np.asarray(u_fn(f), dtype=float)
    u[0] = u[-1] = 0.0
    if np.any(u[1:-1] <= 0.0):
        raise FlowSetupError("initial data not positive on the interior")

    state = FlowState(RadialProfile(f, u), t=0.0, T=T)
    d0 = analysis.dilate(state)
    res = class_c_check(d0)
    if not res.ok:
        raise FlowSetupError(f"initial data outside class C (margin {res.margin:.6g})")
    return state


# ---------------------------------------------------------------------------
# engines: one core, two frames
# ---------------------------------------------------------------------------

_MAX_HALVINGS = 45
_MAX_SUBSTEPS = 100_000  # steps advance_to may take to reach its target
_MONITOR_BLOCK = 8192    # values per sandwich-monitor block (64 kB)
_REMESH_INTERVAL = 200   # accepted RK2 steps between remeshes
_DTAU = 0.005            # the ROS2 step in tau
_REMESH_DTAU = 0.02      # tau between remeshes of a run stepped by ROS2
_WINDOW_HI = 3.0         # y is compared with Y on the window 1 <= phi <= 3
_ROS2_GAMMA = 1.0 + 1.0 / math.sqrt(2.0)
_FD_EPS = 2.0 ** -26     # relative finite-difference increment, sqrt of the unit roundoff
_COUNTERS = ("remeshes", "halvings", "cfl_refreshes")   # the manifest's event counts


class _Engine:
    """Core shared by the unscaled and the dilated frame: the equation, the
    nodes, the stencils, the linearly implicit ROS2 step and remeshing.

    The state is the frame time t (tau in the dilated frame) and the values
    u (y) at normalised nodes xi in [0, 1].  A frame supplies domain(t) =
    (x0, x1, L), L = x1 - x0, and kappa; the core rebuilds the nodes
    x = x0 + xi L from xi in both frames and evaluates

        F = u u_xx + u_x (v - u_x) + kappa u - (u / x)^2,

    with v = 1 - 2 xi on a moving window and 1 - xi L on a truncated static
    one, kept per mesh.  The inner end is pinned at u = 0 with slope +1; the
    outer one at u = 0 with slope -1, or, truncated, at the Dirichlet value
    _outer_value(t).  A remesh builds its nodes by window_mesh(u_of, x0, x1,
    x0, n), x0 being T - t in frame units, and cuts a window that reaches
    phi_cut (the dilated frame's) there once the mesh law has succeeded.
    views(), dilated_rows() and _record() read the state through its
    dilated view (x, u) / x[0].  A frame also supplies its outer data, tau
    and time_left, its step() (ROS2 dilated, explicit RK2 under a CFL bound
    unscaled), its remesh clock and measure() with its own record fields.
    """

    truncated = False
    kappa = 0.0
    phi_cut = np.inf

    def __init__(self, t, n, xi, u):
        self.t = t
        self.step_count = 0
        self.n = n              # node count of every remeshed grid
        # events, each counted when it happens: remeshes, positivity
        # halvings of either stepper and refreshes of the CFL bound
        self.counts = dict.fromkeys(_COUNTERS, 0)
        self._set_mesh(xi, u)

    # mesh ------------------------------------------------------------
    def _set_mesh(self, xi, u):
        self.xi = xi
        self.u = u
        self._t_meshed = self.t
        self._w = difference_weights(xi)
        self._xii = xi[1:-1]
        self._v = 1.0 - (self._xii * self.domain()[2] if self.truncated else 2.0 * self._xii)
        # offsets of the two nodes next to each end, in units of the frame length
        self._ends = (float(xi[1]), float(xi[2]),
                      float(xi[-2]) - 1.0, float(xi[-3]) - 1.0)
        # rhs buffers: slot 0 for the first stage (and measure), slot 1 for
        # the second; u_f covers every node, with the end slopes +1 / -1, and
        # F is the interior of an every-node array Fn whose ends stay 0
        n = xi.size
        self._slots = []
        for _ in range(2):
            uf, Fn = np.empty(n), np.zeros(n)
            uf[0], uf[-1] = 1.0, -1.0
            self._slots.append((uf, uf[1:-1], np.empty(n - 2), Fn[1:-1], Fn))
        d = np.empty(n - 1)
        self._d = (d, d[:-1], d[1:])
        self._tmp = np.empty(n - 2)

    def nodes(self, t=None):
        x0, _, L = self.domain(t)
        return x0 + self.xi * L

    # spatial operator -------------------------------------------------
    def rhs(self, u, t, slot=0):
        """(F, u_f, u_ff) at time t, in the slot's buffers; F and u_ff on the
        interior nodes, u_f on all of them."""
        x0, _, L = self.domain(t)
        uf, uff = self._derivs(u, L, slot)
        _, ufi, _, F, _ = self._slots[slot]
        ui, tmp = u[1:-1], self._tmp
        # F = ui uff + uf (v - uf) + kappa ui - (ui / x)^2, left to right
        np.multiply(ui, uff, out=F)
        np.subtract(self._v, ufi, out=tmp)
        tmp *= ufi
        F += tmp
        if self.kappa:
            F += ui
        np.multiply(self._xii, L, out=tmp)
        tmp += x0
        np.divide(ui, tmp, out=tmp)
        tmp *= tmp
        F -= tmp
        return F, uf, uff

    def _derivs(self, u, L, slot=0):
        """(u_f at every node, u_ff at interior nodes) for frame length L, in
        the slot's buffers, Hermite-corrected next to the pinned ends; a
        truncated outer node takes the slope of its neighbour.  The interior
        stencils are in difference form: from d = diff(u) / L, u_f =
        A d[:-1] + B d[1:] and u_ff = (C d[1:] - E d[:-1]) / L with the
        mesh's weights (grids.difference_weights), nine array passes."""
        uf, ufi, uff, _, _ = self._slots[slot]
        d, d_left, d_right = self._d
        np.subtract(u[1:], u[:-1], out=d)
        d /= L
        difference_stencils(self._w, d_left, d_right, ufi, uff, self._tmp)
        uff /= L
        x1, x2, y1, y2 = self._ends
        u1, u2 = u[1:3].tolist()
        v2, v1 = u[-3:-1].tolist()
        uf[1], uff[0], _ = hermite_boundary(x1 * L, x2 * L, 0.0, 1.0, u1, u2)
        if self.truncated:
            uf[-1] = uf[-2]
        else:
            uf[-2], uff[-1], _ = hermite_boundary(y1 * L, y2 * L, 0.0, -1.0, v1, v2)
        return uf, uff

    # time step ---------------------------------------------------------
    def _linearise(self, u, t, F0):
        """(lower, diag, upper) of the tridiagonal Jacobian J = dF/du on the
        interior nodes, and dF/dt, by forward differences of rhs around
        (t, u), where F0 = F(t, u).

        J takes three rhs calls: every third column is perturbed at once,
        each by _FD_EPS times its |u_j|, floored at 1e-6 max|u| so that a
        vanishing value still moves.  dF/dt moves t and, in a truncated
        frame, the outer Dirichlet value with it.
        """
        ui = u[1:-1]
        m = ui.size
        floor = 1e-6 * float(np.max(np.abs(ui)))
        delta = (ui + _FD_EPS * np.maximum(np.abs(ui), floor)) - ui
        w = u.copy()
        dF = np.empty((3, m))       # row c: columns j with j % 3 == c moved
        for c in range(3):
            w[1:-1] = ui
            w[1 + c:-1:3] += delta[c::3]
            np.subtract(self.rhs(w, t)[0], F0, out=dF[c])
        i = np.arange(m)
        diag = dF[i % 3, i] / delta
        lower, upper = np.zeros(m), np.zeros(m)
        lower[1:] = dF[(i[1:] - 1) % 3, i[1:]] / delta[:-1]
        upper[:-1] = dF[(i[:-1] + 1) % 3, i[:-1]] / delta[1:]
        w[1:-1] = ui
        s = t + _FD_EPS * max(abs(t), 1.0)
        if self.truncated:
            w[-1] = self._outer_value(s)
        Ft = (self.rhs(w, s)[0] - F0) / (s - t)
        return lower, diag, upper, Ft

    def _ros2_step(self, h):
        """One ROS2 step of h (Verwer, Spee, Blom & Hundsdorfer, SIAM J. Sci.
        Comput. 20 (1999) 1456), halved until the interior stays positive;
        returns the step taken.  With W = I - gamma h J:

            W k1 = F(t, u) + gamma h dF/dt,
            W k2 = F(t + h, u + h k1) - 2 k1 - gamma h dF/dt,
            u+ = u + h (3/2 k1 + 1/2 k2).

        A truncated frame takes its outer value at the stage time t + h.
        """
        u, t = self.u, self.t
        F0 = self.rhs(u, t)[0].copy()
        lower, diag, upper, Ft = self._linearise(u, t, F0)
        for _ in range(_MAX_HALVINGS):
            gh = _ROS2_GAMMA * h
            solve = tridiagonal_solver(-gh * lower, 1.0 - gh * diag, -gh * upper)
            k1 = solve(F0 + gh * Ft)
            stage = u.copy()
            stage[1:-1] += h * k1
            if self.truncated:
                stage[-1] = self._outer_value(t + h)
            k2 = solve(self.rhs(stage, t + h, 1)[0] - 2.0 * k1 - gh * Ft)
            unew = u.copy()
            unew[1:-1] += h * (1.5 * k1 + 0.5 * k2)
            unew[-1] = stage[-1]
            if not (np.minimum.reduce(unew[1:-1]) > 0.0    # also catches NaN
                    and math.isfinite(np.maximum.reduce(unew))):
                h *= 0.5
                self.counts["halvings"] += 1
                continue
            self._accept(h, unew)
            return h
        raise FlowPositivityError(self.step_count, self.t)

    def _accept(self, dt, unew):
        self.u = unew
        self.t += dt
        self.step_count += 1

    # remesh ------------------------------------------------------------
    def remesh_due(self):
        """True once _REMESH_DTAU of frame time has passed since the last mesh."""
        return self.t - self._t_meshed >= _REMESH_DTAU - 1e-12

    def remesh(self):
        """New nodes by the mesh law, values resampled by monotone cubics with
        the end data re-imposed exactly; FlowRemeshError if that fails."""
        x_old = self.nodes()
        x0, x1, L = self.domain()
        x1 = min(x1, self.phi_cut)
        try:
            spl = pchip(x_old, self.u)
            u_of = lambda d: np.clip(spl(x0 + np.clip(d, 0.0, L)), 0.0, None)
            # x0 is T - t in frame units: T - t unscaled, 1 dilated
            x_new = window_mesh(u_of, x0, x1, x0, self.n)
            # the window is cut, for good, once the mesh law has met its budget there
            if x1 == self.phi_cut:
                self.truncated = True
            u_new = _resample(spl, x_old, self.u, x_new,
                              slope_right=None if self.truncated else -1.0)
        except ValueError as e:
            raise FlowRemeshError(self.step_count, self.t) from e
        u_new[0] = 0.0
        u_new[-1] = self._outer_value(self.t) if self.truncated else 0.0
        u_new[1:-1] = np.maximum(u_new[1:-1], 1e-300)
        self._set_mesh((x_new - x0) / (x1 - x0), u_new)
        self.counts["remeshes"] += 1

    # reading the state ----------------------------------------------------
    def views(self):
        """(RadialProfile, DilatedState) of the state: the unscaled profile
        (x, u) time_left / x[0] and the dilated view (x, u) / x[0]."""
        x = self.nodes()
        x0 = x[0]
        s = self.time_left / x0
        return (RadialProfile(x * s, self.u * s),
                DilatedState(self.tau, x / x0, self.u / x0, truncated=self.truncated))

    def dilated_rows(self, ts, us):
        """The dilated view at each time in ts of the matching values in us,
        on the current mesh, one row each."""
        u = np.array(us)
        # a row per time, or one row for all on a truncated window, whose
        # nodes stay put
        x = self.nodes(np.array(ts)[:, None])
        x0 = x[..., :1]
        return np.divide(x, x0, out=np.empty_like(u)), u / x0

    def _record(self, **own):
        """The SeriesRecord of the state, with the frame's own fields (t, b,
        gauge_C, dt), and u_ff at the inner end.

        The section curvatures come in frame units and are divided by
        s = time_left / x[0]; the window errors and the reduced |Rm| read
        the dilated view phi = x / x[0], y = u / x[0], y_p = u_f,
        y_pp = x[0] u_ff over phi <= _WINDOW_HI.
        """
        x, u = self.nodes(), self.u
        x0 = x[0]
        s = self.time_left / x0
        uf, uff = self._derivs(u, self.domain()[2])
        uff0 = hermite_boundary(x[1] - x0, x[2] - x0, u[0], 1.0, u[1], u[2])[2]
        lam2 = -1.0 / x0 - uff0
        R0 = 2.0 * (1.0 / x0 + lam2)
        phi, y, ypp = x / x0, u / x0, x0 * uff
        mask = phi <= _WINDOW_HI
        yf, ypf, _ = fik_y_derivs(phi[mask])
        mi = mask[1:-1]
        rm1, rm2, rm3 = reduced_rm(phi[1:-1][mi], y[1:-1][mi], uf[1:-1][mi], ypp[mi])
        rm = np.maximum(rm1, np.maximum(rm2, rm3))
        with np.errstate(invalid="ignore"):
            max_F = float(np.max(u / x))
        return SeriesRecord(step=self.step_count, tau=self.tau, a=self.time_left,
                            R_sigma0=R0 / s, lambda2_sigma0=lam2 / s,
                            sup_err_c0=float(np.max(np.abs(y[mask] - yf))),
                            sup_err_c1=float(np.max(np.abs(uf[mask] - ypf))),
                            max_F=max_F, min_yphi=float(np.min(uf)),
                            max_yphi=float(np.max(uf)),
                            max_rm=float(np.max(rm)) if rm.size else 0.0, **own), uff0


class _UnscaledEngine(_Engine):
    """u(f, t) on the moving domain [T - t, b0 - 3t] (T = a0), with the anchor ODE,
    stepped by explicit RK2 (midpoint) under a local CFL bound.  The anchor
    starts mid-domain, at r = 0."""

    def __init__(self, state: FlowState, b0, cfl, n):
        self.b0 = b0
        self.T = state.T
        self.cfl = cfl
        self.anchor_r = 0.0
        self.anchor_f = 0.5 * (state.T + b0)
        self._anchor_j = -1     # the anchor's last bracket on the nodes
        self._rho2_0 = None     # the gauge origin, set by the first measurement
        a, _, D = self.domain(state.t)
        super().__init__(state.t, n, (state.profile.f - a) / D, state.profile.u.copy())

    def _set_mesh(self, xi, u):
        super()._set_mesh(xi, u)
        self._hstep = np.minimum(np.diff(xi)[:-1], np.diff(xi)[1:])
        self._cfl_next = self.step_count
        self._cfl_dt = np.inf
        self._xi_list = xi.tolist()
        self._mid = np.zeros(xi.size)       # the midpoint stage; its ends stay 0

    @property
    def time_left(self):
        return self.T - self.t

    @property
    def tau(self):
        return -np.log(self.T - self.t)

    def domain(self, t=None):
        t = self.t if t is None else t
        a = self.T - t
        b = self.b0 - 3.0 * t
        return a, b, b - a

    def stable_dt(self, uf):
        """CFL bound from u_f on all nodes, with a 5% cushion below the cfl
        number and at most 0.25 (T - t); the array part is refreshed every
        few steps (the state drifts by O(dt) per step, far below the cfl
        safety margin)."""
        if self.step_count >= self._cfl_next:
            h = self._hstep * self.domain()[2]
            adv = np.abs(2.0 - 2.0 * uf[1:-1] - 1.0 - 2.0 * self._xii)
            self._cfl_dt = 0.95 * self.cfl / float(
                np.max(2.0 * self.u[1:-1] / (h * h) + adv / h))
            self._cfl_next = self.step_count + 8
            self.counts["cfl_refreshes"] += 1
        return min(self._cfl_dt, 0.25 * (self.T - self.t))

    def remesh_due(self):
        """True every _REMESH_INTERVAL accepted steps."""
        return self.step_count % _REMESH_INTERVAL == 0

    def step(self, dt_max):
        """One midpoint step of at most dt_max, starting at the CFL-stable
        step when that is shorter, halved until the interior stays positive;
        returns the step taken.

        Each stage is u plus the slot's F on every node (Fn, whose ends are
        0) times its step.  The midpoint stage is written into one buffer of
        the mesh, which every attempt and every step reuses; each accepted
        state is a new array, never written again, so the states a run has
        handed out (the monitor's queue holds them) stay as they were.
        """
        u, t = self.u, self.t
        _, uf1, _ = self.rhs(u, t, 0)
        F1, F2 = self._slots[0][4], self._slots[1][4]
        mid = self._mid
        mid_in = mid[1:-1]
        dt = min(self.stable_dt(uf1), dt_max)
        for _ in range(_MAX_HALVINGS):
            tm = t + 0.5 * dt
            np.multiply(F1, 0.5 * dt, out=mid)
            mid += u
            # positivity: the least interior value (argmin finds a NaN
            # first, and NaN fails too)
            if mid_in[mid_in.argmin()] > 0.0:
                _, uf2, _ = self.rhs(mid, tm, 1)
                unew = np.multiply(F2, dt)
                unew += u
                unew_in = unew[1:-1]
                if unew_in[unew_in.argmin()] > 0.0 and math.isfinite(unew[1]):
                    # the anchor rides along by the midpoint rule
                    x = self.anchor_f
                    xm = x + 0.5 * dt * self._phi_t_at(x, t, u, uf1)
                    self.anchor_f = x + dt * self._phi_t_at(xm, tm, mid, uf2)
                    self._accept(dt, unew)
                    self._maybe_reanchor()
                    return dt
            dt *= 0.5
            self._cfl_next = self.step_count    # force a CFL refresh
            self.counts["halvings"] += 1
        raise FlowPositivityError(self.step_count, self.t)

    def _phi_t_at(self, x, t, u, uf):
        """phi_t = u_f + u/f - 2 at an interior point x (anchor ODE), with u
        and u_f interpolated linearly on the nodes at time t, as np.interp
        on nodes(t) would; each call starts from the last call's bracket."""
        a, _, D = self.domain(t)
        (g, v), self._anchor_j = affine_interp(x, a, D, self._xi_list, (uf, u),
                                               self._anchor_j)
        return g + v / x - 2.0

    def _maybe_reanchor(self):
        a, b, D = self.domain()
        xi_star = (self.anchor_f - a) / D
        if 0.02 < xi_star < 0.98:
            return
        f_new = a + 0.5 * D
        self.anchor_r, = self.r_of(f_new)
        self.anchor_f = f_new

    def r_of(self, *xs):
        """r-coordinates of interior points, via r = anchor_r + int df/u: the
        nodes' cumulative integral plus each point's partial interval."""
        f = self.nodes()[1:-1]
        u = self.u[1:-1]
        xx = np.array((self.anchor_f, *xs), dtype=float)
        k = np.searchsorted(f[1:-1], xx)    # [f[k], f[k+1]] holds x, or is the end one past it
        ux = u[k] + (u[k + 1] - u[k]) * (xx - f[k]) / (f[k + 1] - f[k])
        r = cumint_inverse_linear(f, u)[k] + cumint_inverse_linear([f[k], xx], [u[k], ux])[1]
        return list(self.anchor_r + r[1:] - r[0])

    def measure(self, dt_last):
        a, b, _ = self.domain()
        Tt = self.time_left
        f = self.nodes()
        # inner expansion coefficient via the exact identity
        # log f_w = log d - r(f) - int_0^d (1/d' - 1/u) dd'
        j = int(np.searchsorted(f, a + 0.25 * Tt))
        j = min(max(j, 3), f.size - 3)
        r2, rj = self.r_of(2.0 * Tt, f[j])
        rho2 = r2 + self.tau
        if self._rho2_0 is None:
            self._rho2_0 = rho2
        rec, uffa = self._record(t=self.t, b=b, gauge_C=self._rho2_0 - rho2, dt=dt_last)
        dj = f[1:j + 1] - a
        gj = 1.0 / dj - 1.0 / self.u[1:j + 1]
        g0 = -0.5 * uffa
        corr = float(np.trapezoid(np.concatenate(([g0], gj)),
                                  np.concatenate(([0.0], dj))))
        log_fw = float(np.log(dj[-1]) - rj - corr)
        anch = AnchorSample(step=self.step_count, t=self.t, tau=rec.tau,
                            anchor_f=self.anchor_f, anchor_r=self.anchor_r,
                            rho2=rho2, log_fw=log_fw)
        return rec, anch


class _DilatedEngine(_Engine):
    """y(phi, tau) on [1, Phi_out(tau)], built from the state s; the core's t
    is tau and its u is y.  The window rules:

    - a truncated s keeps the static window [1, s.phi_max]; its outer node
      holds s.y[-1], or takes outer_bc(tau) when one is given;
    - else a phi_cut < s.phi[-2] starts the window so truncated at phi_cut,
      with the interpolated end value;
    - else Phi_out is Phi_max = b3a e^tau + 3 through s's last node, until a
      remesh finds it past phi_cut and cuts it there (a window cut inside
      its last cell would end where y ~ 0); such a window needs outer_bc,
      and without one the constructor raises ValueError.
    """

    def __init__(self, s: DilatedState, n, phi_cut=np.inf, outer_bc=None):
        phi, y = s.phi, s.y
        self.b3a = (s.phi_max - 3.0) * np.exp(-s.tau)
        self.truncated = bool(s.truncated or phi_cut < phi[-2])
        if s.truncated:
            phi_cut = s.phi_max
        elif self.truncated:
            keep = phi < phi_cut
            phi, y = np.append(phi[keep], phi_cut), np.append(y[keep], np.interp(phi_cut, phi, y))
        self.phi_cut = float(phi_cut)
        if outer_bc is None and not self.truncated and self.phi_cut < np.inf:
            raise ValueError(f"a window that a remesh cuts at phi_cut = {phi_cut:g} "
                             f"needs outer_bc")
        if outer_bc is None and self.truncated:
            outer_bc = lambda tau, v=float(y[-1]): v
        self.outer_bc = outer_bc            # callable tau -> outer Dirichlet value
        super().__init__(float(s.tau), n, (phi - 1.0) / (phi[-1] - 1.0), y)

    tau = property(lambda self: self.t)
    time_left = property(lambda self: np.exp(-self.t))
    kappa = 1.0

    def domain(self, tau=None):
        """(1, Phi_out, Phi_out - 1) at dilated time tau (now by default)."""
        if self.truncated:
            return 1.0, self.phi_cut, self.phi_cut - 1.0
        pm = self.b3a * np.exp(self.t if tau is None else tau) + 3.0
        return 1.0, pm, pm - 1.0

    def _outer_value(self, tau):
        return float(self.outer_bc(tau))

    def step(self, dt_max):
        """One ROS2 step of dt_max, or of _DTAU if dt_max is longer (by more
        than rounding); returns the step taken."""
        return self._ros2_step(dt_max if dt_max <= _DTAU * (1.0 + 1e-8) else _DTAU)

    def advance_to(self, tau_target):
        """Step to tau_target in ceil(gap / _DTAU) equal steps; a positivity
        halving leaves a rest that is crossed the same way."""
        for _ in range(_MAX_SUBSTEPS):
            gap = tau_target - self.t
            if gap <= 1e-14:
                return
            self.step(gap / max(1, math.ceil(gap / _DTAU - 1e-9)))
        raise FlowRunError(self.step_count, self.t)

    def measure(self, dtau_last, t_origin_T):
        Tt = self.time_left
        return self._record(t=t_origin_T - Tt, b=Tt * self.domain()[1],
                            gauge_C=np.nan, dt=dtau_last * Tt)[0]


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

@dataclass
class RunArtifacts:
    series: list
    anchor: list
    violations: list
    snapshots: dict
    cross_engine: list
    manifest: dict
    status: str
    failing_step: int | None
    wall_time: float

    def record_at_tau(self, tau) -> SeriesRecord:
        taus = np.array([r.tau for r in self.series])
        return self.series[int(np.argmin(np.abs(taus - tau)))]


def run_flow(cfg: FlowConfig) -> RunArtifacts:
    """Evolve from the configured initial data to tau = stop_tau.

    Emits a SeriesRecord every record_every accepted steps, snapshots of both
    representations at the requested tau values, the sandwich-monitor
    violation log, and (for engine='both') the cross-engine sup-differences.
    Deterministic for a fixed config.
    """
    t_start = time.perf_counter()
    state0 = make_initial(cfg)
    T = state0.T

    d0 = analysis.dilate(state0)
    lambda0 = fit_lambda0(d0)
    monitor = SandwichMonitor(lambda0, d0.tau)

    use_unscaled = cfg.engine in ("unscaled", "both")
    use_dilated = cfg.engine in ("dilated", "both")
    coupled = use_unscaled and use_dilated
    ue = (_UnscaledEngine(state0, cfg.b0, cfg.cfl, cfg.grid_n)
          if use_unscaled else None)

    # A coupled run's dilated engine catches up (follow) as the module
    # docstring says.  The cut values are also stored before each joint
    # remesh, which may cut the window; catching up drops those it passed.
    cut_taus, cut_vals = [], []
    cut_j = -1      # the cut's last bracket on the unscaled nodes

    def store_cut_value():
        nonlocal cut_j
        a, _, D = ue.domain()
        Tt = T - ue.t
        (v,), cut_j = affine_interp(de.phi_cut * Tt, a, D, ue._xi_list, (ue.u,), cut_j)
        cut_taus.append(tau_now)
        cut_vals.append(v / Tt)

    def outer_bc(tau):
        if len(cut_taus) == 1:
            return cut_vals[0]
        k = min(max(bisect_right(cut_taus, tau), 1), len(cut_taus) - 1)
        t0, v0, v1 = cut_taus[k - 1], cut_vals[k - 1], cut_vals[k]
        return v0 + (v1 - v0) * (tau - t0) / (cut_taus[k] - t0)

    def follow():
        de.advance_to(tau_now)
        del cut_taus[:-1], cut_vals[:-1]

    de = None
    if coupled:
        de = _DilatedEngine(d0, cfg.grid_n, phi_cut=cfg.phi_cut, outer_bc=outer_bc)
    elif use_dilated:
        de = _DilatedEngine(d0, cfg.grid_n)

    primary = ue if use_unscaled else de
    t_end = T - np.exp(-cfg.stop_tau) if use_unscaled else cfg.stop_tau   # primary's time
    series, anchors, snaps, cross = [], [], {}, []
    pending_snaps = sorted(set(cfg.snap_taus))
    status, failing = "completed", None
    dt_last = 0.0
    tau_now = primary.tau

    def record():
        if use_unscaled:
            rec, anch = ue.measure(dt_last)
            anchors.append(anch)
        else:
            rec = de.measure(dt_last, T)
        series.append(rec)
        # a dilated engine that failed to catch up is not compared
        if coupled and de.truncated and tau_now - de.t <= 1e-12:
            du = ue.views()[1]
            pd = de.nodes()
            m = pd <= 5.0
            diff = np.interp(pd[m], du.phi, du.y) - de.u[m]
            mw = pd <= _WINDOW_HI
            de_err = float(np.max(np.abs(de.u[mw] - fik_y(pd[mw]))))
            cross.append((rec.tau, float(np.max(np.abs(diff))), de_err))

    # Steps reach the monitor a block at a time, so its per-call overhead
    # is paid once per block.  Nothing in the loop reads the log, and an
    # engine replaces u on every accepted step and never writes into a u
    # array it has replaced, so the queue holds references; it is drained
    # before a remesh changes the mesh (and the dilated window's end).
    unchecked = []
    block = max(1, _MONITOR_BLOCK // primary.xi.size)

    def check_unchecked():
        if unchecked:
            steps, taus, ts, us = zip(*unchecked)
            monitor.check(steps, taus, *primary.dilated_rows(ts, us))
            unchecked.clear()

    if coupled and de.truncated:
        store_cut_value()
    record()
    try:
        while tau_now < cfg.stop_tau - 1e-12:
            if primary.step_count >= cfg.max_steps:
                status = "max_steps"
                break
            if use_unscaled:
                dt_last = ue.step(t_end - ue.t)
            else:   # steps of _DTAU, the last before each snapshot cut short
                dt_last = de.step((pending_snaps[0] if pending_snaps else t_end) - de.t)
            tau_now = primary.tau
            k = primary.step_count
            if coupled and de.truncated:
                store_cut_value()
            remesh_now = primary.remesh_due()
            unchecked.append((k, tau_now, primary.t, primary.u))
            if remesh_now or len(unchecked) >= block:
                check_unchecked()
            if remesh_now:
                if coupled:
                    if cut_taus[-1:] != [tau_now]:    # a remesh may cut the window
                        store_cut_value()
                    follow()
                for eng in filter(None, (ue, de)):
                    eng.remesh()
            while pending_snaps and tau_now >= pending_snaps[0] - 1e-12:
                snaps[pending_snaps.pop(0)] = primary.views()
            if k % cfg.record_every == 0:
                if coupled and de.truncated:
                    follow()
                record()
        if coupled:
            follow()
    except FlowRunError as e:
        status, failing = e.status, primary.step_count
    check_unchecked()
    if not series or series[-1].step != primary.step_count:
        record()

    wall = time.perf_counter() - t_start
    manifest = {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(cfg).items()},
        "status": status,
        "failing_step": failing,
        "wall_time_s": wall,
        "steps": primary.step_count,
        "records": len(series),
        "violations": len(monitor.violations),
        "cross_engine_supdiff_max": (max(c[1] for c in cross) if cross else None),
        "cross_engine_supdiff_final": (cross[-1][1] if cross else None),
        "lambda0": lambda0,
        "counters": {k: sum(e.counts[k] for e in filter(None, (ue, de)))
                     for k in _COUNTERS},
        "tolerances": {
            "monitor_slack": monitor.slack,
            "max_halvings": _MAX_HALVINGS,
            "barrier_delta": BARRIER_DELTA,
            "lambda_init": LAMBDA_INIT,
        },
        "artifacts": [],
    }
    return RunArtifacts(series, anchors, monitor.violations, snaps, cross,
                        manifest, status, failing, wall)


def write_artifacts(arts: RunArtifacts, out_dir) -> dict:
    """Write series/anchor/violation CSVs, snapshots, and manifest.json."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    for name, write, rows in (("series.csv", analysis.write_series_csv, arts.series),
                              ("anchor.csv", analysis.write_anchor_csv, arts.anchor),
                              ("violations.csv", write_violation_csv, arts.violations)):
        paths.append(os.path.join(out_dir, name))
        write(rows, paths[-1])

    for label, (radial, dil) in arts.snapshots.items():
        for view, prof in (("radial", radial), ("dilated", RadialProfile(dil.phi, dil.y))):
            paths.append(os.path.join(out_dir, f"snap_tau{_snap_label(label)}_{view}.csv"))
            write_profile_csv(prof, paths[-1])

    arts.manifest["artifacts"] = [os.path.basename(q) for q in paths + ["manifest.json"]]
    p = os.path.join(out_dir, "manifest.json")
    with open(p, "w") as fh:
        json.dump(arts.manifest, fh, indent=2, sort_keys=True)
    return arts.manifest
