"""Barriers, class membership, and the comparison-principle harness.

The dilated profile evolves by d_tau y = E[y] with

    E[y] = y y_pp + (2 - phi - y_p) y_p + y (1 - y/phi^2),

which splits into a linear part L[y] = (2 - phi) y_p + y and a quadratic part
Q[y] = y y_pp - y_p^2 - y^2/phi^2, with mixed term
M[y, s] = s y_pp + y s_pp - 2 y_p s_p - 2 y s / phi^2, so that
E[y + s] = E[y] + E[s] + M[y, s].

For perturbations s = +/- lam(tau) phi^2 of the stationary profile Y this
yields closed-form residuals:

    (d_tau - E)[Y - lam phi^2] = lam ((delta + 3 lam - 1) phi^2
                                     + 2(2 - sqrt2) phi - 3(2 - sqrt2)/phi)
        with lam' = -delta lam  (subsolution for lam <= 1/5, delta <= 1e-6)

    (d_tau - E)[Y + lam phi^2] = lam ((1/2 + 3 lam) phi^2
                                     - 2(2 - sqrt2) phi + 3(2 - sqrt2)/phi)
        with lam = lam0 e^{-tau/2}  (supersolution, positive for phi >= 1)

Together they sandwich any class-C solution and squeeze it to Y.  The
runs use the subsolution with lam(tau0) = LAMBDA_INIT = 1/5, the class-C
amplitude, and delta = BARRIER_DELTA = 1e-7; the supersolution amplitude
lam0 is fitted to the initial data (fit_lambda0).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .geometry import write_rows
from .grids import derivatives
from .soliton import SQRT2, fik_y, fik_y_derivs

__all__ = [
    "BARRIER_DELTA", "LAMBDA_INIT", "ClassCResult", "ViolationRecord",
    "SandwichMonitor", "ComparisonVerdict", "linear_part", "quadratic_part",
    "bilinear_part", "full_operator", "class_c_check", "barrier_y1", "barrier_y2",
    "barrier_residual_sub", "barrier_residual_sup", "fit_lambda0",
    "comparison_check", "write_violation_csv",
]


BARRIER_DELTA = 1e-7     # subsolution decay rate (any delta <= 1e-6 certifies)
LAMBDA_INIT = 0.2        # initial subsolution amplitude: class C is y > Y - phi^2/5


# ---------------------------------------------------------------------------
# operator split
# ---------------------------------------------------------------------------

def linear_part(phi, y, y_p):
    return (2.0 - phi) * y_p + y


def quadratic_part(phi, y, y_p, y_pp):
    return y * y_pp - y_p ** 2 - (y / phi) ** 2


def bilinear_part(phi, y, y_p, y_pp, s, s_p, s_pp):
    return s * y_pp + y * s_pp - 2.0 * y_p * s_p - 2.0 * y * s / phi ** 2


def full_operator(phi, y, y_p, y_pp):
    """E[y], evaluated from the un-split expression."""
    return y * y_pp + (2.0 - phi - y_p) * y_p + y * (1.0 - y / phi ** 2)


# ---------------------------------------------------------------------------
# class membership and barrier values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassCResult:
    ok: bool
    margin: float


def class_c_check(d) -> ClassCResult:
    """Strict membership y > Y - phi^2/5, the subsolution at the start of its
    clock; margin is the nodewise minimum gap."""
    margin = float(np.min(d.y - barrier_y1(d.phi, 0.0)))
    return ClassCResult(margin > 0.0, margin)


def barrier_y1(phi, tau):
    """Subsolution Y - LAMBDA_INIT e^{-BARRIER_DELTA tau} phi^2."""
    phi = np.asarray(phi, dtype=float)
    return fik_y(phi) - LAMBDA_INIT * np.exp(-BARRIER_DELTA * tau) * phi ** 2


def barrier_y2(phi, tau, lambda0):
    """Supersolution Y + lambda0 e^{-tau/2} phi^2."""
    phi = np.asarray(phi, dtype=float)
    return fik_y(phi) + lambda0 * np.exp(-0.5 * tau) * phi ** 2


def barrier_residual_sub(phi, lam, delta):
    """(d_tau - E)[Y - lam phi^2] in closed form; negative certifies a subsolution."""
    phi = np.asarray(phi, dtype=float)
    return lam * ((delta + 3.0 * lam - 1.0) * phi ** 2
                  + 2.0 * (2.0 - SQRT2) * phi - 3.0 * (2.0 - SQRT2) / phi)


def barrier_residual_sup(phi, lam):
    """(d_tau - E)[Y + lam phi^2] in closed form; positive certifies a supersolution."""
    phi = np.asarray(phi, dtype=float)
    return lam * ((0.5 + 3.0 * lam) * phi ** 2
                  - 2.0 * (2.0 - SQRT2) * phi + 3.0 * (2.0 - SQRT2) / phi)


def barrier_residual_sub_split(phi, lam, delta):
    """Same residual assembled through the operator split (independent path).

    (d_tau - E)[Y + s] = d_tau s - L[s] - Q[s] - M[Y, s] for s = -lam phi^2.
    """
    phi = np.asarray(phi, dtype=float)
    y, y_p, y_pp = fik_y_derivs(phi)
    s, s_p, s_pp = -lam * phi ** 2, -2.0 * lam * phi, -2.0 * lam
    dtau_s = delta * lam * phi ** 2          # lam' = -delta lam
    return (dtau_s - linear_part(phi, s, s_p) - quadratic_part(phi, s, s_p, s_pp)
            - bilinear_part(phi, y, y_p, y_pp, s, s_p, s_pp))


def fit_lambda0(d) -> float:
    """Smallest amplitude with Y + lambda0 phi^2 > y, times 1.1, at least 1e-3."""
    excess = np.max((d.y - fik_y(d.phi)) / d.phi ** 2)
    return float(max(1e-3, 1.1 * excess))


# ---------------------------------------------------------------------------
# runtime sandwich monitor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ViolationRecord:
    step: int
    tau: float
    node_phi: float
    kind: str        # "sub" | "super"
    deficit: float


_ROUNDING = 64.0 * np.finfo(float).eps   # the certificate's allowance per unit of its largest term


class SandwichMonitor:
    """Checks y1 <= y + slack and y <= y2 + slack nodewise at every accepted step.

    The barrier clock starts at tau0 (the run's initial dilated time), so the
    subsolution amplitude is exactly LAMBDA_INIT at the start; lambda0 is the
    supersolution amplitude.  Violations are data, not errors: they are
    logged and the run continues.

    A block of rows is first offered to a certificate (_clears) that
    proves from per-node bounds phi_lo <= phi <= phi_hi, y_lo <= y <= y_hi
    of its rows and their latest tau that no row violates.  It is sound:

    - Y is increasing in phi (Y' = (phi^2 + sqrt2 - 1)/(sqrt2 phi^2) > 0),
      so over the block y1 - y <= Y(phi_hi) - lam1 phi_lo^2 - y_lo and
      y - y2 <= y_hi - Y(phi_lo) - lam2 phi_lo^2, for phi_lo >= 0;
    - both amplitudes lam1 = LAMBDA_INIT e^{-BARRIER_DELTA s} and lam2 =
      lambda0 e^{-s/2} decrease in s = tau - tau0, so the latest tau gives
      the least of each;
    - each bound is evaluated in its gap's operation order, and the
      allowance _ROUNDING times the node's largest term (Y(phi_hi),
      max(lam1, lam2) phi_lo^2 or max|y|) covers the rounding of both
      evaluations, fik_y's ulp-level departures from monotonicity, and
      bounds that hold only up to a few ulp (an engine's rebuilt nodes):
      k ulp of phi move Y by at most k eps phi (Y' <= 1 on phi >= 1) and
      lam phi^2 by at most 2 k eps lam phi^2, while the allowance holds
      64 eps lam1 phi^2 >= 12 eps phi^2 (lam1 >= 0.19 for s < 5e5).

    The block is cleared when both bounds plus the allowance are at most
    slack at every node; then the exact evaluation could log nothing.  A
    block the certificate cannot clear goes through the exact evaluation
    (_check_rows) whole, so the log is the one that evaluation gives every
    row, in order.  exact_rows counts the rows it evaluated.
    """

    slack = 1e-8      # tolerance of both checks

    def __init__(self, lambda0: float, tau0: float):
        if not lambda0 > 0:
            raise ValueError("lambda0 must be positive")
        self.lambda0 = lambda0
        self.tau0 = float(tau0)
        self.violations: list[ViolationRecord] = []
        self.exact_rows = 0

    def check(self, steps, taus, bounds, rows):
        """Log the worst sub- and super-deficit of each row r of a block of
        K rows, at step steps[r] and dilated time taus[r], in order.
        bounds() gives per-node bounds (phi_lo, phi_hi, y_lo, y_hi) of the
        rows, and rows() the rows (phi, y), two (K, n) arrays; rows() is
        called only when the certificate cannot clear the block."""
        if not self._clears(max(taus), *bounds()):
            self._check_rows(steps, taus, *rows())

    def _clears(self, tau, phi_lo, phi_hi, y_lo, y_hi):
        """True when the certificate shows that no row with nodes in
        [phi_lo, phi_hi], values in [y_lo, y_hi] and dilated time at most
        tau violates either barrier by more than slack."""
        s = tau - self.tau0
        lam1 = LAMBDA_INIT * np.exp(-BARRIER_DELTA * s)
        lam2 = self.lambda0 * np.exp(-0.5 * s)
        phi2 = phi_lo ** 2
        yfik = fik_y(phi_hi)
        allow = max(lam1, lam2) * phi2
        allow += yfik
        allow += np.maximum(y_hi, -y_lo)       # max(|y_lo|, |y_hi|)
        allow *= _ROUNDING
        # y1 - y at its largest
        gap = yfik - lam1 * phi2
        gap -= y_lo
        gap += allow
        if not gap.max() <= self.slack:       # NaN fails too
            return False
        # y - y2 at its largest
        gap = fik_y(phi_lo) + lam2 * phi2
        np.subtract(y_hi, gap, out=gap)
        gap += allow
        return bool(gap.max() <= self.slack)

    def _check_rows(self, steps, taus, phi, y):
        """The exact evaluation of the (K, n) rows (phi, y).

        Y comes from one fik_y call and phi^2 is formed once; each gap follows
        barrier_y1's and barrier_y2's operation order, so the deficits equal
        barrier_y1(phi, tau - tau0) - y - slack and
        y - barrier_y2(phi, tau - tau0, lambda0) - slack to the last bit.
        """
        self.exact_rows += len(steps)
        # the amplitudes of all rows at once: np.exp rounds an array as it
        # rounds each of its values alone
        s = np.subtract(taus, self.tau0)[:, None]
        yfik = fik_y(phi)
        phi2 = phi ** 2
        # gap_lo = y1 - y, gap_hi = y - y2
        gap_lo = yfik - LAMBDA_INIT * np.exp(-BARRIER_DELTA * s) * phi2
        gap_lo -= y
        phi2 *= self.lambda0 * np.exp(-0.5 * s)
        yfik += phi2
        gap_hi = np.subtract(y, yfik, out=phi2)
        # a deficit gap - slack is positive exactly when gap > slack, so it
        # is formed only on the rows that violate
        bad = (gap_lo.max(axis=1) > self.slack) | (gap_hi.max(axis=1) > self.slack)
        for r in np.flatnonzero(bad):
            for kind, gap in (("sub", gap_lo[r]), ("super", gap_hi[r])):
                deficit = gap - self.slack
                k = int(np.argmax(deficit))
                if deficit[k] > 0.0:
                    self.violations.append(ViolationRecord(
                        steps[r], float(taus[r]), float(phi[r, k]), kind,
                        float(deficit[k])))


def write_violation_csv(violations, path):
    names = ["step", "tau", "node_phi", "kind", "deficit"]
    write_rows(path, names, "%d,%.17g,%.17g,%s,%.17g",
               map(attrgetter(*names), violations))


# ---------------------------------------------------------------------------
# comparison-principle harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonVerdict:
    ordered: bool
    hypotheses_ok: bool
    failed_hypotheses: tuple
    first_crossing: tuple | None     # (tau, phi, deficit)
    lambda_used: float


def comparison_check(taus, phi, y_minus, y_plus, c_bound,
                     alphas=None) -> ComparisonVerdict:
    """Replay the comparison-principle argument on recorded profile histories.

    y_minus / y_plus: arrays of shape (n_times, n_phi) on the shared grid phi.
    The proof quantity w = e^{-lam tau} (y+ - y-) + alpha is evaluated with
    lam = c_bound + 1.5 on a ladder of alpha values decreasing to zero;
    verdict 'ordered' iff min w >= alpha (1 - 1e-9) throughout for every alpha.
    Hypothesis failures (initial/boundary ordering, second-derivative bound)
    are reported rather than raised, together with the first crossing.
    """
    taus = np.asarray(taus, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ym = np.asarray(y_minus, dtype=float)
    yp = np.asarray(y_plus, dtype=float)
    if ym.shape != yp.shape or ym.shape != (taus.size, phi.size):
        raise ValueError("profile histories must share the (taus, phi) grid")
    if alphas is None:
        alphas = tuple(10.0 ** (-k) for k in range(2, 9))

    failed = []
    if np.any(yp[0] < ym[0]):
        failed.append("initial ordering y+ >= y-")
    if np.any(yp[:, 0] < ym[:, 0]) or np.any(yp[:, -1] < ym[:, -1]):
        failed.append("boundary ordering y+ >= y-")
    curv = []
    for y in (yp, ym):
        m = 0.0
        for k in range(taus.size):
            m = max(m, float(np.max(np.abs(derivatives(phi, y[k])[1][1:-1]))))
        curv.append(m)
    if min(curv) > c_bound:
        failed.append(f"second-derivative bound {c_bound:.6g} "
                      f"(measured {min(curv):.6g})")

    lam = c_bound + 1.5
    diff = np.exp(-lam * (taus - taus[0]))[:, None] * (yp - ym)
    ordered = True
    first_crossing = None
    for alpha in alphas:
        w = diff + alpha
        bad = w < alpha * (1.0 - 1e-9)
        if np.any(bad):
            ordered = False
            k = int(np.argmax(bad.any(axis=1)))
            i = int(np.argmax(bad[k]))
            first_crossing = (float(taus[k]), float(phi[i]), float(diff[k, i]))
            break
    return ComparisonVerdict(ordered, not failed, tuple(failed),
                             first_crossing, lam)
