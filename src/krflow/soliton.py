"""Gradient shrinking solitons in the rotationally symmetric ansatz.

With the section area normalized to pi, a soliton potential satisfies the
first-order linear ODE in (f, u) variables

    u_f + u/f - C u + f - 2 = 0,   u(1) = 0,

(the chain-rule reduction, via phi_rr = u_f * u, of the second-order
r-coordinate equation phi_rr/phi_r + phi_r/phi - C phi_r + phi - 2 = 0).
The integrating factor f e^{-Cf} gives

    u(f) = (e^{Cf} / f) * int_1^f (2-s) s e^{-Cs} ds.

Two distinguished values of C:

* noncompact family ("fik"): the profile closes a cone at infinity iff the
  full integral vanishes; the root is sqrt(2).
* compact family ("cao-koiso"): the profile must return to zero at f = 3
  (so that the outer slope is u_f = 2 - f = -1); the root lies in (1/2, 1).

Runs, profiles and the CLI take both constants from their closed forms:
sqrt(2), and the root of the reduced equation
e^{2C} (2 - C^2) = 3C^2 + 4C + 2 (_cao_koiso_reduced_root), the compact
condition with the antiderivative written out.  Root-finding on adaptive
quadrature (find_fik_constant, find_cao_koiso_constant) is the independent
check of those closed forms.  Each profile comes from its one formula:
fik_profile samples the closed form Y (fik_y), and cao_koiso_profile, like
the Cao-Koiso flow data, evaluates the integrating-factor formula
(cao_koiso_u) at its nodes, so both are built from numpy alone.  The
r-coordinate shooting (soliton_shoot_r) and soliton_ode_residual check them
independently.  scipy's quad and solve_ivp are
imported inside the functions that call them (_quad, _shoot_once):
importing scipy takes most of krflow's import time and about 50 MB of
memory, and only the quadrature checks, the r-coordinate shooting and the
criteria that use them pay for it, on first use.  fik_y and fik_y_derivs,
which every run calls, are closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import RadialProfile, to_radial, LogProfile
from .grids import cumulative_gl5, derivatives

__all__ = [
    "SolitonSpec", "SolitonProfile", "SolitonConstructionError", "fik_y",
    "fik_y_derivs", "soliton_ode_residual", "find_fik_constant",
    "find_cao_koiso_constant", "fik_profile", "cao_koiso_profile", "cao_koiso_u",
    "soliton_shoot_r", "weight_integral", "closed_form_weight_integral",
    "write_soliton_metadata",
]

SQRT2 = float(np.sqrt(2.0))
_EPSABS = 1e-13                  # absolute tolerance of every adaptive quadrature
_SHOOT_WINDOW = (-12.0, 8.0)     # r-range of every shot


class SolitonConstructionError(RuntimeError):
    """The r-coordinate shooting (soliton_shoot_r) diverged or stopped short
    of covering its window."""


@dataclass(frozen=True)
class SolitonSpec:
    """Soliton constant plus base type: 'L' (noncompact) or 'M' (compact)."""
    C: float
    base: str

    def __post_init__(self):
        if self.base not in ("L", "M"):
            raise ValueError("base must be 'L' or 'M'")
        if self.C <= 0:
            raise ValueError("C must be positive")


@dataclass(frozen=True)
class SolitonProfile:
    spec: SolitonSpec
    profile: RadialProfile

    @property
    def f_max(self) -> float:
        return self.profile.b


# ---------------------------------------------------------------------------
# FIK closed form
# ---------------------------------------------------------------------------

def fik_y(phi):
    """Stationary noncompact-soliton profile
    Y(phi) = (phi(phi-2) + sqrt2(phi-1) + 1)/(sqrt2 phi), evaluated in the
    factored form (phi - 1)(phi + sqrt2 - 1)/(sqrt2 phi): exactly 0 at the
    section phi = 1, in five array operations."""
    phi = np.asarray(phi, dtype=float)
    if np.any(phi < 1.0 - 1e-12):
        raise ValueError("fik_y is defined for phi >= 1")
    out = phi - 1.0
    out *= phi + (SQRT2 - 1.0)
    out /= SQRT2 * phi
    return out if out.ndim else float(out)


def fik_y_derivs(phi):
    """(Y, Y_phi, Y_phiphi) in closed form."""
    y = fik_y(phi)
    phi = np.asarray(phi, dtype=float)
    yp = (phi * phi + SQRT2 - 1.0) / (SQRT2 * phi * phi)
    ypp = (SQRT2 - 2.0) / phi ** 3
    if phi.ndim:
        return y, yp, ypp
    return y, float(yp), float(ypp)


# ---------------------------------------------------------------------------
# the weight integral int (2-s) s e^{-Cs} ds
# ---------------------------------------------------------------------------

def _weight(s, C):
    return (2.0 - s) * s * np.exp(-C * s)


def _quad(fn, upper, epsrel):
    """int_1^upper fn(s) ds by scipy's adaptive quad, as a Python float."""
    from scipy.integrate import quad
    return quad(fn, 1.0, upper, epsabs=_EPSABS, epsrel=epsrel, limit=200)[0]


def weight_integral(C, upper=np.inf):
    """Adaptive quadrature of int_1^upper (2-s) s e^{-Cs} ds."""
    return _quad(lambda s: _weight(s, C), upper, 1e-12)


def closed_form_weight_integral(C):
    """Independent oracle: int_1^inf (2-s) s e^{-Cs} ds = e^{-C} (C^2-2)/C^3."""
    return np.exp(-C) * (C * C - 2.0) / C ** 3


def _bisect_root(g, lo, hi, xtol):
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise ValueError(f"root not bracketed on [{lo}, {hi}]")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if glo * gm < 0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def _weight_root(lo, hi, upper=np.inf):
    """Root C in [lo, hi] of int_1^upper (2-s) s e^{-Cs} ds = 0: bisection on
    adaptive quadrature to 1e-12, then a few Newton polish steps."""
    g = lambda C: weight_integral(C, upper=upper)
    c = _bisect_root(g, lo, hi, 1e-12)
    for _ in range(3):
        val = g(c)
        dg = _quad(lambda s: -s * _weight(s, c), upper, 1.49e-8)   # quad's default epsrel
        if dg == 0.0:
            break
        c -= val / dg
    return c


def find_fik_constant():
    """Root of int_1^inf (2-s) s e^{-Cs} ds = 0 on [1.2, 1.6] by quadrature:
    the independent check of the closed-form root sqrt(2) that profiles use."""
    c = _weight_root(1.2, 1.6)
    if abs(c - SQRT2) > 1e-10:
        raise RuntimeError(f"quadrature root {c!r} disagrees with closed-form root sqrt(2)")
    return c


@lru_cache(maxsize=1)
def _cao_koiso_reduced_root():
    """The compact-soliton constant that profiles and runs use: the root on
    [0.5, 1.0] of e^{2C} (2 - C^2) = 3C^2 + 4C + 2, the condition
    int_1^3 (2-s) s e^{-Cs} ds = 0 reduced by the closed-form antiderivative."""
    return _bisect_root(lambda C: np.exp(2 * C) * (2 - C * C) - (3 * C * C + 4 * C + 2),
                        0.5, 1.0, 1e-14)


def find_cao_koiso_constant():
    """Root of int_1^3 (2-s) s e^{-Cs} ds = 0 on [0.5, 1.0] by quadrature:
    the independent check of the reduced root (_cao_koiso_reduced_root) that
    profiles and runs use; the two must agree to 1e-8.
    """
    c = _weight_root(0.5, 1.0, upper=3.0)
    oracle = _cao_koiso_reduced_root()
    if abs(c - oracle) > 1e-8:
        raise RuntimeError(f"quadrature root {c!r} vs transcendental root {oracle!r}")
    if not (0.5 < c < 1.0):
        raise RuntimeError(f"compact soliton constant {c!r} outside (1/2, 1)")
    return c


# ---------------------------------------------------------------------------
# profile construction
# ---------------------------------------------------------------------------

def soliton_ode_residual(p: SolitonProfile, u_f=None) -> float:
    """max |u_f + u/f - C u + f - 2| over interior nodes."""
    f, u = p.profile.f, p.profile.u
    if u_f is None:
        u_f = derivatives(f, u)[0]
    res = u_f + u / f - p.spec.C * u + f - 2.0
    return float(np.max(np.abs(res[1:-1])))


def cao_koiso_u(f):
    """The compact-soliton potential u(f) = e^{Cf} I(f) / f at non-decreasing
    points f, clipped to [1, 3], with I(f) = int_1^f (2-s) s e^{-Cs} ds by
    5-point Gauss-Legendre panels between the points.  1 to f[0] takes 64
    panels (empty if f[0] = 1), so a lone point is as accurate as a dense grid
    (one panel over [1, 2.4] is off by 5e-12).  u(1) = 0 and u(3) vanishes up
    to rounding."""
    C = _cao_koiso_reduced_root()
    f = np.asarray(np.clip(f, 1.0, 3.0), dtype=float)
    lead = np.linspace(1.0, f[0], 65)
    cum = cumulative_gl5(lambda s: _weight(s, C), np.concatenate((lead, f[1:])))[64:]
    return np.exp(C * f) * cum / f


def cao_koiso_profile(n) -> SolitonProfile:
    """Compact-soliton profile cao_koiso_u on n nodes of [1, 3]:
    u(1) = u(3) = 0, u > 0 inside."""
    f = np.linspace(1.0, 3.0, n)
    u = cao_koiso_u(f)
    u[0] = u[-1] = 0.0
    return SolitonProfile(SolitonSpec(_cao_koiso_reduced_root(), "M"), RadialProfile(f, u))


def fik_profile(n, f_max=50.0) -> SolitonProfile:
    """Noncompact-soliton profile Y (fik_y) on n nodes of [1, f_max], truncated
    at an f_max in (1, 1e30], FlowConfig's bound on b0 (Y overflows past 1e154)."""
    if not 1.0 < f_max <= 1e30:
        raise ValueError(f"f_max must lie in (1, 1e30], got {f_max}")
    f = np.linspace(1.0, float(f_max), n)
    return SolitonProfile(SolitonSpec(SQRT2, "L"), RadialProfile(f, fik_y(f)))


# ---------------------------------------------------------------------------
# r-coordinate shooting cross-check
# ---------------------------------------------------------------------------

def _shoot_once(C, a1, f_cap):
    """Integrate the second-order r-ODE from a series seed at the left end.

    Series: phi = 1 + a1 w + a2 w^2 + a3 w^3 with w = e^r and the coefficients
    forced by the ODE: a2 = a1^2 (C-2)/2,
    a3 = (a1^3/6) [(C-2)^2 + 1 + (2C-3)(C-2)/2].
    Returns (r, phi, phi_r, status) where status is 'end', 'overshoot'
    (phi_r hit zero), or 'cap' (phi reached f_cap).
    """
    from scipy.integrate import solve_ivp
    r0, r1 = _SHOOT_WINDOW
    w0 = np.exp(r0)
    a2 = 0.5 * a1 * a1 * (C - 2.0)
    a3 = (a1 ** 3 / 6.0) * ((C - 2.0) ** 2 + 1.0 + 0.5 * (2.0 * C - 3.0) * (C - 2.0))
    y0 = [1.0 + a1 * w0 + a2 * w0 ** 2 + a3 * w0 ** 3,
          a1 * w0 + 2.0 * a2 * w0 ** 2 + 3.0 * a3 * w0 ** 3]

    def rhs(_, y):
        p, v = y
        return [v, v * (C * v - v / p - p + 2.0)]

    def ev_overshoot(_, y):
        return y[1]
    ev_overshoot.terminal = True
    ev_overshoot.direction = -1

    def ev_cap(_, y):
        return y[0] - f_cap
    ev_cap.terminal = True
    ev_cap.direction = 1

    sol = solve_ivp(rhs, (r0, r1), y0, method="RK45", rtol=1e-12, atol=1e-15,
                    max_step=0.05, events=(ev_overshoot, ev_cap), dense_output=False)
    status = "end"
    if sol.t_events[0].size:
        status = "overshoot"
    elif sol.t_events[1].size:
        status = "cap"
    if not sol.success and status == "end":
        raise SolitonConstructionError("shoot diverged: " + sol.message)
    return sol.t, sol.y[0], sol.y[1], status


def soliton_shoot_r(C, a1_guess=1.0) -> SolitonProfile:
    """Shoot the second-order r-coordinate soliton ODE and return the (f, u) profile.

    The seed amplitude a1 is a pure r-translation of the trajectory.  For the
    compact family it is bisected on the far-field behavior: overshoot
    (phi_r driven through zero) means the approach to the outer zero fell
    short of the window end, undershoot (phi_r still above threshold at the
    window end) means it should be pushed deeper.  For the noncompact family
    a1 is used as given with integration capped at phi = 12, the range on
    which double precision still tracks the separatrix to ~1e-6.
    """
    if not (0.0 < C < 3.0):
        raise ValueError("C must lie in (0, 3)")
    compact = C < 1.2
    f_cap = 3.5 if compact else 12.0

    a1 = float(a1_guess)
    if compact:
        # largest seed still inside the expansion's validity at r0
        x_cap = -_SHOOT_WINDOW[0] - 4.0
        q_target = 1e-8
        def too_far(x):
            r_, _, v_, status = _shoot_once(C, np.exp(x), f_cap)
            return status == "overshoot" or v_[-1] < q_target
        lo, hi = None, None
        x = min(np.log(a1), x_cap)
        for _ in range(60):
            if too_far(x):
                hi = x
                x = x - 1.0 if lo is None else 0.5 * (lo + hi)
            else:
                lo = x
                x = min(x + 1.0, x_cap) if hi is None else 0.5 * (lo + hi)
            if lo is not None and hi is not None and hi - lo < 1e-3:
                break
            if hi is None and x >= x_cap:
                break
        a1 = np.exp(hi if hi is not None else x)
    r, phi, phi_r, _ = _shoot_once(C, a1, f_cap)

    keep = phi_r > 1e-13
    r, phi, phi_r = r[keep], phi[keep], phi_r[keep]
    keep = np.concatenate([[True], np.diff(phi) > 0])
    r, phi, phi_r = r[keep], phi[keep], phi_r[keep]
    if r.size < 16:
        raise SolitonConstructionError("shoot diverged before covering the window")
    prof = to_radial(LogProfile(r, phi, phi_r))
    base = "M" if compact else "L"
    return SolitonProfile(SolitonSpec(C, base), prof)


# ---------------------------------------------------------------------------
# metadata block
# ---------------------------------------------------------------------------

def write_soliton_metadata(p: SolitonProfile, path, residual):
    """Flat key=value block: family=, C=, residual=, f_max=."""
    family = "fik" if p.spec.base == "L" else "cao-koiso"
    with open(path, "w") as fh:
        fh.write(f"family={family}\n")
        fh.write(f"C={p.spec.C:.17g}\n")
        fh.write(f"residual={residual:.17g}\n")
        fh.write(f"f_max={p.f_max:.17g}\n")
