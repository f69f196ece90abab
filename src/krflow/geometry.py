"""Rotationally symmetric metric profiles and their curvature.

A U(2)-invariant metric on the line bundle is encoded by a single radial
potential: either phi(r) in the logarithmic coordinate r = log|z|^2
(LogProfile), or the slope field u(f) = phi_r sampled over f = phi
(RadialProfile).  The second form makes the domain endpoints explicit
(u vanishes there with slopes +1 / -1) and is what the flow engines evolve.

Curvature in (f, u) variables:

    psi = 2 - u/f - u_f
    lambda1 = psi / f                      (fiberwise Ricci eigenvalue)
    lambda2 = -u_f/f + u/f^2 - u_ff        (= psi_f, base Ricci eigenvalue)
    R = 2 * (lambda1 + lambda2)

which is the chain-rule transcription of the r-coordinate formulas
psi = 2 - phi_r/phi - phi_rr/phi_r, lambda1 = psi/phi, lambda2 = psi_r/phi_r
(unit-tested against the r-form on an analytic profile).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .grids import GridError, check_grid, cumint_inverse_linear, derivatives

__all__ = [
    "LogProfile", "RadialProfile", "CalabiAsymptotics", "CurvatureReport",
    "ValidationReport", "Violation", "DegenerateProfileError", "validate_profile",
    "to_radial", "to_log", "curvature", "asymptotic_eigenvalues", "reduced_rm",
    "write_rows", "write_profile_csv", "read_profile_csv",
]


class DegenerateProfileError(ValueError):
    """Profile fails the metric positivity condition where an operation needs it."""


@dataclass(frozen=True)
class LogProfile:
    """Potential phi(r) on a logarithmic radial grid, with phi_r stored."""
    r: np.ndarray
    phi: np.ndarray
    phi_r: np.ndarray = None

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if r.shape != phi.shape or r.ndim != 1:
            raise ValueError("r and phi must be 1D arrays of equal length")
        if self.phi_r is None:
            check_grid(r, min_nodes=3)
            phi_r = derivatives(r, phi)[0]
        else:
            phi_r = np.asarray(self.phi_r, dtype=float)
            if phi_r.shape != r.shape:
                raise ValueError("phi_r shape mismatch")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi_r", phi_r)

    @property
    def n(self) -> int:
        return self.r.size


@dataclass(frozen=True)
class RadialProfile:
    """Slope field u(f) = phi_r over f = phi on [a, b].

    For a metric extending over both sections, u vanishes at both endpoints
    with one-sided slopes +1 and -1; truncated profiles (noncompact solitons
    cut at finite f) intentionally violate the outer-endpoint invariants and
    are flagged by validate_profile.
    """
    f: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if f.shape != u.shape or f.ndim != 1 or f.size < 2:
            raise ValueError("f and u must be 1D arrays of equal length >= 2")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.f.size

    @property
    def a(self) -> float:
        return float(self.f[0])

    @property
    def b(self) -> float:
        return float(self.f[-1])


@dataclass(frozen=True)
class CalabiAsymptotics:
    """Expansion coefficients of phi at the two ends (w = e^r):

    phi = a0 + a1 w + a2 w^2 + O(w^3)        as r -> -inf
    phi = b0 + b1/w + b2/w^2 + O(w^-3)       as r -> +inf
    """
    a0: float
    a1: float
    a2: float
    b0: float
    b1: float
    b2: float

    def __post_init__(self):
        if self.a0 <= 0 or self.a1 <= 0:
            raise ValueError("need a0 > 0 and a1 > 0")
        if self.b0 <= 0 or self.b1 >= 0:
            raise ValueError("need b0 > 0 and b1 < 0")


@dataclass(frozen=True)
class Violation:
    code: str
    node: int | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0

    def codes(self):
        return [v.code for v in self.violations]


@dataclass(frozen=True)
class CurvatureReport:
    """Per-node curvature data; scalar is 2*(lambda1+lambda2) exactly as computed."""
    f: np.ndarray
    psi: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    scalar: np.ndarray
    rm1: np.ndarray
    rm2: np.ndarray
    rm3: np.ndarray


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _slope_tolerance(h):
    return 10.0 * h


def validate_profile(p) -> ValidationReport:
    """Check the metric-admissibility invariants of a profile.

    Structural problems (non-monotone grid, fewer than 8 nodes) raise
    GridError; invariant violations are collected into the report.
    """
    out = []
    if isinstance(p, RadialProfile):
        check_grid(p.f, min_nodes=8)
        f, u = p.f, p.u
        if u[0] != 0.0:
            out.append(Violation("u(a) != 0", 0, f"u(a) = {u[0]:.6g}"))
        if u[-1] != 0.0:
            out.append(Violation("u(b) != 0", p.n - 1, f"u(b) = {u[-1]:.6g}"))
        interior = u[1:-1]
        if np.any(interior <= 0.0):
            k = 1 + int(np.argmax(interior <= 0.0))
            cnt = int(np.sum(interior <= 0.0))
            out.append(Violation("u <= 0 at interior node", k,
                                 f"{cnt} nonpositive interior values, first at f = {f[k]:.6g}"))
        if u[0] == 0.0:
            h = f[1] - f[0]
            s, tol = (u[1] - u[0]) / h, _slope_tolerance(h)
            if abs(s - 1.0) > tol:
                out.append(Violation("u_f(a) != +1", 0, f"slope {s:.6g}, tol {tol:.3g}"))
        if u[-1] == 0.0:
            h = f[-1] - f[-2]
            s, tol = (u[-1] - u[-2]) / h, _slope_tolerance(h)
            if abs(s + 1.0) > tol:
                out.append(Violation("u_f(b) != -1", p.n - 1, f"slope {s:.6g}, tol {tol:.3g}"))
    elif isinstance(p, LogProfile):
        check_grid(p.r, min_nodes=8)
        if np.any(p.phi <= 0.0):
            k = int(np.argmax(p.phi <= 0.0))
            out.append(Violation("phi <= 0", k, f"phi = {p.phi[k]:.6g}"))
        if np.any(np.diff(p.phi) <= 0.0):
            k = int(np.argmax(np.diff(p.phi) <= 0.0))
            out.append(Violation("phi not increasing", k, "phi must be strictly increasing in r"))
        inner = p.phi_r[1:-1]
        if np.any(inner <= 0.0):
            k = 1 + int(np.argmax(inner <= 0.0))
            out.append(Violation("phi_r <= 0 at interior node", k, f"phi_r = {p.phi_r[k]:.6g}"))
    else:
        raise TypeError(f"cannot validate {type(p).__name__}")
    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------

def to_radial(p: LogProfile) -> RadialProfile:
    """Change variables (r, phi) -> (f = phi, u = phi_r)."""
    check_grid(p.r, min_nodes=3)
    if np.any(p.phi_r[1:-1] <= 0.0):
        raise DegenerateProfileError("phi_r <= 0 at an interior node")
    if np.any(np.diff(p.phi) <= 0.0):
        raise DegenerateProfileError("phi not strictly increasing; f-grid would fold")
    return RadialProfile(p.phi.copy(), p.phi_r.copy())


def to_log(p: RadialProfile, anchor) -> LogProfile:
    """Invert the change of variables: r(f) = r_ref + int_{f_ref}^{f} df'/u.

    The endpoint nodes map to r = -/+inf and are dropped; the anchor must be
    strictly interior.
    """
    check_grid(p.f, min_nodes=4)
    f_ref, r_ref = float(anchor[0]), float(anchor[1])
    f, u = p.f, p.u
    lo = 1 if u[0] <= 0.0 else 0
    hi = p.n - 1 if u[-1] <= 0.0 else p.n
    fi, ui = f[lo:hi], u[lo:hi]
    if fi.size < 3:
        raise GridError("too few interior nodes for the log chart")
    if np.any(ui <= 0.0):
        raise DegenerateProfileError("u <= 0 at an interior node")
    if not (fi[0] <= f_ref <= fi[-1]):
        # endpoints where u vanishes are excluded from fi, so landing outside
        # means the anchor sits where 1/u is singular
        raise ValueError(f"anchor f_ref = {f_ref} must avoid the degenerate "
                         f"endpoints (1/u singular there)")
    s = cumint_inverse_linear(fi, ui)
    s_ref = np.interp(f_ref, fi, s)
    r = r_ref + (s - s_ref)
    return LogProfile(r, fi.copy(), ui.copy())


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def _profile_derivatives(f, u):
    """(u_f, u_ff) with Calabi endpoint treatment where u vanishes exactly."""
    slope_l = 1.0 if u[0] == 0.0 else None
    slope_r = -1.0 if u[-1] == 0.0 else None
    return derivatives(f, u, slope_left=slope_l, slope_right=slope_r)


def curvature(p: RadialProfile) -> CurvatureReport:
    """Curvature report at every node of a radial profile.

    Endpoints with u = 0 use the exact substitutions (u = 0, u_f = +/-1) plus
    a Hermite one-sided stencil for u_ff, restoring accuracy at the
    degenerate ends.
    """
    check_grid(p.f, min_nodes=16)
    f, u = p.f, p.u
    uf, uff = _profile_derivatives(f, u)
    with np.errstate(divide="raise"):
        psi = 2.0 - u / f - uf
        lam1 = psi / f
        lam2 = -uf / f + u / f ** 2 - uff
    scalar = 2.0 * (lam1 + lam2)
    return CurvatureReport(f.copy(), psi, lam1, lam2, scalar,
                           *reduced_rm(f, u, uf, uff))


def reduced_rm(x, y, yp, ypp):
    """Symmetry-reduced Riemann magnitudes 2|y''|, (4/x)|1 - y/x| and
    (2/x)|y/x - y'| of a profile y(x), radial (x = f) or dilated (x = phi)."""
    return (2.0 * np.abs(ypp), 4.0 / x * np.abs(1.0 - y / x),
            2.0 / x * np.abs(y / x - yp))


def asymptotic_eigenvalues(c: CalabiAsymptotics, end: str):
    """Leading Ricci eigenvalues at the ends, from the expansion coefficients.

    minus_infinity: (1/a0, -1/a0 - 2 a2/a1^2)
    plus_infinity:  (3/b0,  1/b0 + 2 b2/b1^2)
    """
    if end == "minus_infinity":
        return 1.0 / c.a0, -1.0 / c.a0 - 2.0 * c.a2 / c.a1 ** 2
    if end == "plus_infinity":
        return 3.0 / c.b0, 1.0 / c.b0 + 2.0 * c.b2 / c.b1 ** 2
    raise ValueError("end must be 'minus_infinity' or 'plus_infinity'")


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def write_rows(path, header, fmt, rows):
    """CSV file of the header and one line fmt % row per row (a tuple), each
    ended by \\r\\n as csv.writer ends it.  Every krflow CSV is written here,
    floats as %.17g, which reads back to the same double."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(fmt % row + "\r\n" for row in rows)


def write_profile_csv(p, path):
    """Profile CSV: header 'f,u' (RadialProfile) or 'r,phi' (LogProfile)."""
    if isinstance(p, RadialProfile):
        header, cols = ["f", "u"], (p.f, p.u)
    elif isinstance(p, LogProfile):
        header, cols = ["r", "phi"], (p.r, p.phi)
    else:
        raise TypeError("expected RadialProfile or LogProfile")
    write_rows(path, header, "%.17g,%.17g", zip(*cols))


def read_profile_csv(path):
    """Read a profile CSV, dispatching on its header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty profile file")
    header = [h.strip() for h in rows[0]]
    data = np.array([[float(v) for v in row] for row in rows[1:] if row], dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns")
    if header == ["f", "u"]:
        return RadialProfile(data[:, 0], data[:, 1])
    if header == ["r", "phi"]:
        return LogProfile(data[:, 0], data[:, 1])
    raise ValueError(f"{path}: unknown profile header {header}")

