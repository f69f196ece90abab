"""Nonuniform finite-difference stencils, adapted 1D meshes, two running
integrals (`cumulative_gl5`, 5-point Gauss-Legendre on each interval, for
the Cao-Koiso potential; `cumint_inverse_linear`, the exact integral of 1/u
for piecewise-linear u, for the r coordinate), and the monotone cubic
interpolant that remeshing and file-read initial data use.

Everything here works on plain numpy arrays; nothing here imports scipy.
Grids are strictly increasing; derivative formulas use exact nonuniform
weights (second order on smooth grids), and degenerate boundaries (value 0,
known slope) get Hermite-enhanced stencils so that accuracy does not
collapse to first order there.

One routine is a port that repeats a reference implementation operation
for operation, so that its results agree with it bit for bit: `pchip`
(scipy's PchipInterpolator).
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np


class GridError(ValueError):
    """Structural grid problem (non-monotone, too few nodes), as opposed to an
    invariant violation of the data living on the grid."""


def check_grid(x, min_nodes=2):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < min_nodes:
        raise GridError(f"grid needs at least {min_nodes} nodes, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise GridError("grid contains non-finite nodes")
    if np.any(np.diff(x) <= 0):
        k = int(np.argmax(np.diff(x) <= 0))
        raise GridError(f"grid not strictly increasing at index {k}")
    return x


# ---------------------------------------------------------------------------
# derivative stencils
# ---------------------------------------------------------------------------

def difference_weights(x):
    """Three-point weights (A, B, C, E) at nodes 1..n-2 in difference form:
    with d = diff(u), u_x = A d[:-1] + B d[1:] and u_xx = C d[1:] - E d[:-1]
    (exact for quadratics)."""
    h = np.diff(np.asarray(x, dtype=float))
    h1, h2 = h[:-1], h[1:]
    s = h1 + h2
    return h2 / (h1 * s), h1 / (h2 * s), 2.0 / (h2 * s), 2.0 / (h1 * s)


def difference_stencils(w, d_left, d_right, ux, uxx, tmp):
    """u_x and u_xx at nodes 1..n-2 into ux and uxx from the differences
    d = diff(u), passed as its views d_left = d[:-1] and d_right = d[1:],
    and the weights w = difference_weights(x); tmp is scratch."""
    A, B, C, E = w
    np.multiply(A, d_left, out=ux)
    np.multiply(B, d_right, out=tmp)
    ux += tmp
    np.multiply(C, d_right, out=uxx)
    np.multiply(E, d_left, out=tmp)
    uxx -= tmp


def onesided_weights(d1, d2):
    """First/second derivative weights at x0 from values at x0, x0+d1, x0+d2."""
    w1 = np.array([-(d1 + d2) / (d1 * d2),
                   d2 / (d1 * (d2 - d1)),
                   -d1 / (d2 * (d2 - d1))])
    w2 = 2.0 * np.array([1.0 / (d1 * d2),
                         -1.0 / (d1 * (d2 - d1)),
                         1.0 / (d2 * (d2 - d1))])
    return w1, w2


def hermite_cubic_coeffs(d1, d2, r1, r2):
    """Coefficients (c2, c3) of p(x) = y0 + s*x + c2 x^2 + c3 x^3 through the
    residuals r_k = u_k - y0 - s*d_k at offsets d1, d2 from the anchor."""
    det = d1 * d1 * d2 * d2 * (d2 - d1)
    c2 = (r1 * d2 ** 3 - r2 * d1 ** 3) / det
    c3 = (r2 * d1 * d1 - r1 * d2 * d2) / det
    return c2, c3


def hermite_boundary(d1, d2, y0, s, u1, u2):
    """Derivatives from a cubic matching (value y0, slope s) at the boundary
    and values u1, u2 at distances d1 < d2.

    Returns (du_at_d1, ddu_at_d1, ddu_at_0).
    """
    r1 = u1 - y0 - s * d1
    r2 = u2 - y0 - s * d2
    c2, c3 = hermite_cubic_coeffs(d1, d2, r1, r2)
    du1 = s + 2.0 * c2 * d1 + 3.0 * c3 * d1 * d1
    ddu1 = 2.0 * c2 + 6.0 * c3 * d1
    ddu0 = 2.0 * c2
    return du1, ddu1, ddu0


def tridiagonal_solver(lower, diag, upper):
    """Solver of lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = r[i]
    (lower[0] and upper[-1] are not read), as a callable solve(r).

    Cyclic reduction (Hockney, J. ACM 12 (1965) 95) in numpy array
    operations: the system is padded with identity rows to 2^k - 1
    equations, and each level eliminates the even-numbered unknowns from the
    odd-numbered equations, halving the system.  The elimination
    coefficients are computed once here, so each solve(r) costs only the
    right-hand side's reduction and the back substitution.  There is no
    pivoting: the matrix should be diagonally dominant, as I - gamma h J of
    a diffusion operator is.
    """
    m = len(diag)
    size = (1 << m.bit_length()) - 1        # the least 2^k - 1 >= m
    a, b, c = np.zeros(size), np.ones(size), np.zeros(size)
    a[1:m], b[:m], c[:m - 1] = lower[1:], diag, upper[:-1]
    levels = []
    while b.size > 1:
        alpha = -a[1::2] / b[0:-1:2]
        beta = -c[1::2] / b[2::2]
        # even rows: their lower and upper coefficients and inverse diagonal
        levels.append((alpha, beta, a[2::2], c[0:-1:2], 1.0 / b[0::2]))
        a, b, c = (alpha * a[0:-1:2],
                   b[1::2] + alpha * c[0:-1:2] + beta * a[2::2],
                   beta * c[2::2])
    top = b[0]

    def solve(r):
        d = np.zeros(size)
        d[:m] = r
        rhs = []
        for alpha, beta, _, _, _ in levels:
            rhs.append(d)
            d = d[1::2] + alpha * d[0:-1:2] + beta * d[2::2]
        x = d / top
        for (_, _, lo, up, inv), d in zip(reversed(levels), reversed(rhs)):
            e = d[0::2].copy()
            e[1:] -= lo * x                 # the left odd neighbour
            e[:-1] -= up * x                # the right one
            xf = np.empty(d.size)
            xf[1::2] = x
            xf[0::2] = e * inv
            x = xf
        return x[:m]
    return solve


def affine_interp(x, a, scale, xi, fps, j=-1):
    """(values, j): np.interp(x, a + xi * scale, fp) for each fp in fps, as
    floats, bit for bit, and the bracket j, the last node at or left of x
    (-1 left of every node).

    One bracket lookup serves every fp, and the node array is never formed:
    the nodes are formed one at a time as numpy rounds them.  A hint j (a
    former call's bracket, say) that still brackets x is kept; else the
    bisection runs on xi (fastest as a list) and its bracket is then checked
    against the nodes.  x and fp must be finite, xi increasing.
    """
    def node(k):
        return a + xi[k] * scale

    n = len(xi)
    x0, x1 = (node(j), node(j + 1)) if 0 <= j < n - 1 else (math.inf, math.inf)
    if not x0 <= x < x1:
        j = bisect_right(xi, (x - a) / scale) - 1
        while j >= 0 and node(j) > x:
            j -= 1
        while j < n - 1 and node(j + 1) <= x:
            j += 1
        if j < 0 or j == n - 1:
            return tuple([float(fp[max(j, 0)]) for fp in fps]), j
        x0, x1 = node(j), node(j + 1)
    if x0 == x:
        return tuple([float(fp[j]) for fp in fps]), j
    dx = x1 - x0
    return tuple([(float(fp[j + 1]) - float(fp[j])) / dx * (x - x0) + float(fp[j])
                  for fp in fps]), j


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, kept shape-preserving (Moler's pchip)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y):
    """Monotone piecewise-cubic Hermite interpolant of y over the grid x.

    The node slopes are Fritsch & Butland's weighted harmonic means (SIAM J.
    Sci. Stat. Comput. 5 (1984) 300), zero at a local extremum or flat
    segment, with shape-preserving one-sided end slopes; two nodes give the
    line.  Returns a callable spl(xn) giving the value of the cubic of the
    interval holding each query point, the end intervals extrapolating.  The
    arithmetic is scipy's PchipInterpolator's (1.17), operation for
    operation, so the two agree bit for bit.  x must be strictly increasing
    and y finite (GridError otherwise).
    """
    x = check_grid(x)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise GridError("pchip values must be finite")
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk
    if x.size == 2:
        dk = np.array([mk[0], mk[0]])
    else:
        smk = np.sign(mk)
        flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
        w1 = 2 * hk[1:] + hk[:-1]
        w2 = hk[1:] + 2 * hk[:-1]
        dk = np.empty_like(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
            dk[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        dk[0] = _pchip_end_slope(hk[0], hk[1], mk[0], mk[1])
        dk[-1] = _pchip_end_slope(hk[-1], hk[-2], mk[-1], mk[-2])
    t = (dk[:-1] + dk[1:] - 2 * mk) / hk
    c = (y[:-1], dk[:-1], (mk - dk[:-1]) / hk - t, t / hk)    # c[k] multiplies s**k
    last = x.size - 2

    def spl(xn):
        xn = np.asarray(xn, dtype=float)
        i = np.clip(np.searchsorted(x, xn, side="right") - 1, 0, last)
        s = xn - x[i]
        # scipy's power sum, not Horner's rule, so the rounding is the same:
        # res = 0 + sum_k c[k] s**k, with s**k built by repeated multiplication
        res = 0.0
        for k in range(4):
            term = c[k][i]
            if k:
                z = s if k == 1 else z * s
                term = term * z
            res = res + term
        return res
    return spl


def derivatives(x, u, slope_left=None, slope_right=None):
    """First and second derivative arrays on a nonuniform grid.

    Interior nodes use the exact 3-point weights in difference form (the
    engines' stencils).  Endpoints use one-sided 3-point stencils unless a
    known slope is supplied, in which case the endpoint keeps the exact slope
    and the adjacent node is upgraded to the Hermite stencil fed by the exact
    boundary data.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    n = x.size
    if n < 3:
        raise GridError("need at least 3 nodes for derivatives")
    ux, uxx = np.empty(n), np.empty(n)
    d = np.diff(u)
    difference_stencils(difference_weights(x), d[:-1], d[1:], ux[1:-1], uxx[1:-1],
                        np.empty(n - 2))

    for slope, (i0, i1, i2) in ((slope_left, (0, 1, 2)), (slope_right, (-1, -2, -3))):
        d1, d2 = x[i1] - x[i0], x[i2] - x[i0]
        if slope is None:
            w1, w2 = onesided_weights(d1, d2)
            near = u[:3] if i0 == 0 else u[-1:-4:-1]
            ux[i0], uxx[i0] = w1 @ near, w2 @ near
        else:
            du1, ddu1, ddu0 = hermite_boundary(d1, d2, u[i0], slope, u[i1], u[i2])
            ux[i0], uxx[i0] = slope, ddu0
            ux[i1], uxx[i1] = du1, ddu1
    return ux, uxx


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

_GL5_X = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                   0.5384693101056831, 0.906179845938664])
_GL5_W = np.array([0.23692688505618908, 0.47862867049936647, 0.5688888888888889,
                   0.47862867049936647, 0.23692688505618908])


def cumulative_gl5(fn, x):
    """Cumulative integral of fn from x[0] along the grid (value 0 at x[0]),
    by 5-point Gauss-Legendre on each interval."""
    x = np.asarray(x, dtype=float)
    mid = 0.5 * (x[1:] + x[:-1])
    half = 0.5 * (x[1:] - x[:-1])
    pts = mid[:, None] + half[:, None] * _GL5_X[None, :]
    out = np.empty(len(x))
    out[0] = 0.0
    np.cumsum(half * (fn(pts) @ _GL5_W), out=out[1:])
    return out


def cumint_inverse_linear(x, u):
    """Cumulative integral of 1/u along x, treating u as piecewise linear.

    Exact on each interval (h * log(u1/u0) / (u1-u0)), which stays accurate
    where u degenerates linearly toward an endpoint.  Requires u > 0 at the
    supplied nodes; 2-D x and u integrate each column along the first axis.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("1/u integrand requires u > 0 at the nodes")
    h = x[1:] - x[:-1]
    u0, u1 = u[:-1], u[1:]
    du = u1 - u0
    small = np.abs(du) <= 1e-12 * np.maximum(u0, u1)
    with np.errstate(divide="ignore", invalid="ignore"):
        seg = h * np.log(u1 / u0) / du
    seg = np.where(small, 2.0 * h / (u0 + u1), seg)
    out = np.empty(x.shape)
    out[0] = 0.0
    np.cumsum(seg, axis=0, out=out[1:])
    return out


# ---------------------------------------------------------------------------
# adapted meshes
# ---------------------------------------------------------------------------

def equidistributed_nodes(width, n, h_floor, coeff):
    """Nodes 0 = d_0 < ... < d_n = width with spacing ~ max(h_floor, sqrt(lam*c(d))).

    c(d) = coeff(d) is the local diffusion coefficient.  This equidistributes
    the explicit diffusion limit h^2 / c while the floor keeps the first cells
    from collapsing.  lam is fixed by the node budget: the trapezoid, on a
    probe grid, of 1/h = min(1/h_floor, s / sqrt(c)) with s = lam^(-1/2) must
    count n intervals.  That count is increasing, concave and piecewise linear
    in s, with one kink per probe point, so Newton's method from s = 0 never
    passes the root and lands on it exactly once it reaches the root's linear
    piece (a handful of iterations).
    """
    if n < 1:
        raise GridError("need at least one interval")
    if h_floor <= 0:
        raise ValueError("h_floor must be positive")
    if n * h_floor >= width:
        return np.linspace(0.0, width, n + 1)
    # probe grid resolving both (possibly degenerate) ends, 1000 points each
    g = np.geomspace(max(width * 1e-12, h_floor * 1e-3), 0.5 * width, 1000)
    d = np.unique(np.concatenate(([0.0, width], g, width - g)))
    c = np.clip(np.asarray(coeff(d), dtype=float), 0.0, None)

    half = 0.5 * np.diff(d)
    w = np.append(half, 0.0)
    w[1:] += half                               # trapezoid weights on d
    rc = 1.0 / np.sqrt(np.maximum(c, 1e-300))   # c = 0 stays on the floor
    wrc = w * rc
    cap = 1.0 / h_floor
    s = 0.0
    for _ in range(64):
        v = np.minimum(s * rc, cap)
        s_next = s + (n - (w * v).sum()) / wrc[v < cap].sum()
        if not s_next > s:
            break
        s = s_next
    lam = max(s, 1e-150) ** -2.0                # finite if c = 0 on most of d
    h = np.maximum(h_floor, np.sqrt(lam * c))
    F = np.concatenate(([0.0], np.cumsum(0.5 * (1.0 / h[1:] + 1.0 / h[:-1]) * np.diff(d))))
    levels = np.linspace(0.0, F[-1], n + 1)
    nodes = np.interp(levels, F, d)
    nodes[0], nodes[-1] = 0.0, width
    # guard against interpolation ties on very steep density profiles
    nodes = np.maximum.accumulate(nodes)
    bad = np.diff(nodes) <= 0
    if np.any(bad):
        nodes = np.unique(nodes)
        nodes = np.interp(np.linspace(0, 1, n + 1), np.linspace(0, 1, nodes.size), nodes)
    return nodes


def stretched_tail(start, end, n, h0):
    """n intervals from start to end, first spacing ~ h0, growth exponent _GRADING.

    Positions follow d(s) = start + L * ((s+eps)^p - eps^p)/((1+eps)^p - eps^p),
    p = _GRADING, with eps solved so the junction spacing matches h0 (capped
    at uniform).
    """
    L = end - start
    if n < 1 or L <= 0:
        raise GridError("empty tail")
    if n * h0 >= L:
        return np.linspace(start, end, n + 1)

    s = np.arange(n + 1) / n
    p = _GRADING

    def first_spacing(eps):
        g = ((s[:2] + eps) ** p - eps ** p) / ((1 + eps) ** p - eps ** p)
        return L * g[1]

    lo, hi = 1e-12, 1e12
    for _ in range(200):
        eps = np.sqrt(lo * hi)
        if first_spacing(eps) < h0:
            lo = eps
        else:
            hi = eps
        if hi / lo < 1 + 1e-12:
            break
    eps = np.sqrt(lo * hi)
    g = ((s + eps) ** p - eps ** p) / ((1 + eps) ** p - eps ** p)
    nodes = start + L * g
    nodes[0], nodes[-1] = start, end
    return nodes


# The mesh law, in units of the time left t_left = T - t: the inner window
# [a, a + _INNER_WINDOW_K t_left] holds at least _MIN_INNER_FRACTION of the
# nodes, spaced no finer than _INNER_RES t_left; the rest stretch outward
# with exponent _GRADING.
_INNER_WINDOW_K = 10.0
_MIN_INNER_FRACTION = 0.25
_INNER_RES = 3e-4
_GRADING = 3.0


def window_mesh(u_of_delta, a, b, t_left, n):
    """n-node grid on [a, b] by the mesh law, clustered toward the degenerate
    inner end a; u_of_delta(d) = u(a + d) is the local diffusion coefficient.

    A single CFL-equidistributed grid is used whenever it already puts the
    inner window's share of the nodes there; otherwise the window gets that
    quota on an equidistributed grid and the remainder stretches to b,
    spacing-matched at the junction.
    """
    D = b - a
    W = min(_INNER_WINDOW_K * t_left, D)
    h0 = max(_INNER_RES * t_left, 1e-12 * D)
    m = n - 1                                   # intervals
    delta = equidistributed_nodes(D, m, h0, u_of_delta)
    if W < D and np.searchsorted(delta, W) < _MIN_INNER_FRACTION * m:
        k = min(max(int(np.ceil(_MIN_INNER_FRACTION * m)), 8), m - 4)
        inner = equidistributed_nodes(W, k, h0, u_of_delta)
        outer = stretched_tail(W, D, m - k, inner[-1] - inner[-2])
        delta = np.concatenate([inner, outer[1:]])
    return a + delta
