"""An independent PDE solver in the logarithmic coordinate r, the oracle for
the unscaled engine's analytic endpoint motion a(t) = a0 - t, b(t) = b0 - 3t.

It steps phi(r, t) itself, by explicit RK2 on its own graded r-mesh with
Robin closures, and recovers the endpoint values from the interior; of the
engines it shares only the three-point stencil weights (grids.derivatives).
Used by test_flow.py.
"""

import numpy as np

from krflow.flow import FlowPositivityError
from krflow.geometry import RadialProfile
from krflow.grids import cumint_inverse_linear, derivatives


def r_coordinate_reference(profile: RadialProfile, t_end):
    """Integrate phi_t = phi_rr/phi_r + phi_r/phi - 2 on a truncated r-window.

    Boundary closure: the asymptotic Robin conditions d_r log phi_r = +1 at
    r_min and -1 at r_max (so phi_t = phi_r/phi - 1 and phi_r/phi - 3 + 2
    there).  The endpoint values a(t), b(t) are then *recovered* from the
    interior expansion (phi - phi_r + (phi_rr - phi_r)/2 near the inner end,
    mirrored at the outer end) rather than imposed, validating the analytic
    endpoint motion of the primary engine.

    Returns a dict with recovered and exact endpoint values at t_end.
    """
    r_min, r_max, n, cfl = -11.0, 10.0, 1000, 0.4
    # chart r(f) anchored mid-domain, from the exact 1/u integral
    a0, b0 = profile.f[0], profile.f[-1]
    f_int, u_int = profile.f[1:-1], profile.u[1:-1]
    S = cumint_inverse_linear(f_int, u_int)
    mid = 0.5 * (a0 + b0)
    S = S - np.interp(mid, f_int, S)

    # cosh-graded r-mesh (coarser toward both ends matches phi_r ~ e^{-|r|})
    rc = 0.5 * (r_min + r_max)
    sig = lambda r: 4.0 * np.arctan(np.tanh((r - rc) / 4.0))
    sig_inv = lambda s: rc + 4.0 * np.arctanh(np.tan(s / 4.0))
    r = sig_inv(np.linspace(sig(r_min), sig(r_max), n))
    r[0], r[-1] = r_min, r_max

    # initial phi(r): invert the chart, extended by the exact expansions
    phi = np.interp(r, S, f_int)
    lo = r < S[0]
    phi[lo] = a0 + (f_int[0] - a0) * np.exp(r[lo] - S[0])
    hi = r > S[-1]
    phi[hi] = b0 - (b0 - f_int[-1]) * np.exp(-(r[hi] - S[-1]))

    def rhs(p):
        # one-sided three-point phi_r at the ends
        pr, prr = derivatives(r, p)
        F = np.empty_like(p)
        F[1:-1] = prr[1:-1] / pr[1:-1] + pr[1:-1] / p[1:-1] - 2.0
        F[0] = pr[0] / p[0] - 1.0          # phi_rr/phi_r -> +1
        F[-1] = pr[-1] / p[-1] - 3.0       # phi_rr/phi_r -> -1
        return F, pr[1:-1]

    h = np.minimum(np.diff(r)[:-1], np.diff(r)[1:])
    t = 0.0
    while t < t_end - 1e-14:
        F1, pr = rhs(phi)
        if np.any(pr <= 0):
            raise FlowPositivityError(0, t, "r-engine lost phi_r > 0")
        dt = min(cfl * float(np.min(h * h * pr)) / 2.0, t_end - t)
        pmid = phi + 0.5 * dt * F1
        F2, _ = rhs(pmid)
        phi = phi + dt * F2
        t += dt

    pr_full, prr_full = derivatives(r, phi)
    j = 3
    a_rec = phi[j] - pr_full[j] + 0.5 * (prr_full[j] - pr_full[j])
    k = n - 4
    b_rec = phi[k] + pr_full[k] + 0.5 * (prr_full[k] + pr_full[k])
    return {
        "t": t_end,
        "a_recovered": float(a_rec),
        "b_recovered": float(b_rec),
        "a_exact": float(a0 - t_end),
        "b_exact": float(b0 - 3.0 * t_end),
        "a_error": float(abs(a_rec - (a0 - t_end))),
        "b_error": float(abs(b_rec - (b0 - 3.0 * t_end))),
    }
