import math

import numpy as np
import pytest

from krflow import grids
from krflow.grids import (GridError, affine_interp, cumint_inverse_linear, derivatives,
                          difference_stencils, difference_weights, hermite_boundary,
                          pchip, tridiagonal_solver, window_mesh)
from krflow.soliton import fik_y


def _mesh(rng, n):
    xi = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]))
    return np.unique(xi)


def test_affine_interp_matches_np_interp_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in (3, 17, 1024):
        xi = _mesh(rng, n)
        a, D = rng.uniform(-2.0, 2.0), rng.uniform(0.01, 20.0)
        f = a + xi * D
        fps = (rng.standard_normal(xi.size), rng.uniform(0.0, 1.0, xi.size))
        at_nodes = list(f)
        between = list(rng.uniform(f[0], f[-1], 200))
        next_to_nodes = ([np.nextafter(v, np.inf) for v in f[:-1]]
                         + [np.nextafter(v, -np.inf) for v in f[1:]])
        outside = [f[0] - 0.1 * D, f[-1] + 0.1 * D]
        end_intervals = [0.5 * (f[0] + f[1]), 0.5 * (f[-2] + f[-1])]
        for x in at_nodes + between + next_to_nodes + outside + end_intervals:
            x = float(x)
            want = tuple(float(np.interp(x, f, fp)) for fp in fps)
            # the last node at or left of x, -1 left of every node
            j = int(np.searchsorted(f, x, side="right")) - 1
            # hints left of, at and right of the true bracket, the two end
            # intervals, and hints off the nodes' index range
            hints = {j - 2, j - 1, j, j + 1, j + 2, 0, xi.size - 2, -1, xi.size - 1, xi.size}
            for xs in (xi, xi.tolist()):
                assert affine_interp(x, a, D, xs, fps) == (want, j), (n, x)
                for hint in hints:
                    assert affine_interp(x, a, D, xs, fps, hint) == (want, j), (n, x, hint)


def test_cumint_inverse_linear_integrates_piecewise_linear_u_exactly():
    def segment(h, u0, u1):
        """int of 1/u over one interval of linear u, in closed form."""
        if u0 == u1:
            return h / u0
        if abs(u1 - u0) < 1e-6 * u0:      # log(u1/u0) would lose digits
            return h * math.log1p((u1 - u0) / u0) / (u1 - u0)
        return h * math.log(u1 / u0) / (u1 - u0)

    x = [0.0, 1e-6, 0.3, 0.7, 1.0, 1.5, 2.25, 3.0, 4.0]
    u = [1e-9, 2e-7, 0.3, 0.3,          # a flat interval
         0.3 * (1.0 + 3e-13),            # a nearly flat one: |du| <= 1e-12 u
         2.0, 0.25, 3.0, 1e-3]           # rising, falling, toward a degenerate end
    want = [0.0]
    for i in range(len(x) - 1):
        want.append(want[-1] + segment(x[i + 1] - x[i], u[i], u[i + 1]))
    got = cumint_inverse_linear(x, u)
    assert got[0] == 0.0
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    # two-node grids, alone and as the columns of one 2-D call (the r-chart's
    # partial intervals)
    cols = cumint_inverse_linear([x[:-1], x[1:]], [u[:-1], u[1:]])
    assert np.all(cols[0] == 0.0)
    for i in range(len(x) - 1):
        two = cumint_inverse_linear(x[i:i + 2], u[i:i + 2])
        assert two[0] == 0.0 and two[1] == cols[1, i]
        assert two[1] == pytest.approx(segment(x[i + 1] - x[i], u[i], u[i + 1]),
                                       rel=1e-14, abs=0.0)
    for bad in ([1.0, 0.0, 2.0], [1.0, -1e-3, 2.0]):
        with pytest.raises(ValueError, match="requires u > 0"):
            cumint_inverse_linear([0.0, 1.0, 2.0], bad)


def test_hermite_boundary_on_floats_matches_numpy_scalars():
    # the engines feed the boundary stencil plain floats; the result must be
    # the one numpy float64 scalars give, bit for bit
    rng = np.random.default_rng(5)
    for _ in range(2000):
        D = rng.uniform(0.1, 10.0)
        xi1 = np.float64(rng.uniform(1e-7, 1e-3))
        xi2 = xi1 + np.float64(rng.uniform(1e-7, 1e-3))
        u = rng.uniform(0.0, 1.0, 2) * 10.0 ** rng.uniform(-8.0, 0.0)
        for s, (d1, d2) in ((1.0, (xi1 * D, xi2 * D)),
                            (-1.0, (((1.0 - xi1) - 1.0) * D,
                                    ((1.0 - xi2) - 1.0) * D))):
            ref = hermite_boundary(d1, d2, 0.0, s, u[0], u[1])
            got = hermite_boundary(float(d1), float(d2), 0.0, s,
                                   float(u[0]), float(u[1]))
            assert got == ref


def _weight_form(x):
    """The three-point stencils as the weights of u[i-1], u[i], u[i+1]: the
    form the difference weights replaced, kept as their reference."""
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    W1 = (-h2 / (h1 * (h1 + h2)), (h2 - h1) / (h1 * h2), h1 / (h2 * (h1 + h2)))
    W2 = (2.0 / (h1 * (h1 + h2)), -2.0 / (h1 * h2), 2.0 / (h2 * (h1 + h2)))
    return W1, W2


def test_difference_stencils_are_exact_for_quadratics_and_match_the_weight_form():
    rng = np.random.default_rng(13)
    eps = np.finfo(float).eps
    sizes = list(range(3, 12)) + list(rng.integers(12, 3001, 120)) + [3000]
    for n in sizes:
        # a random mesh graded toward its left end by a random power
        s = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]))
        s = s ** rng.uniform(1.0, 3.0)
        x = np.unique(rng.uniform(-5.0, 5.0) + rng.uniform(0.1, 10.0) * s)
        m = x.size - 2
        w = A, B, C, E = difference_weights(x)
        ux, uxx, tmp = np.empty(m), np.empty(m), np.empty(m)
        # a quadratic, to rounding: the error a stencil makes from the
        # rounded values alone, on the scale of the quadratic's terms
        al, be, ga = rng.standard_normal(3)
        u = al + be * x + ga * x * x
        d = np.diff(u)
        difference_stencils(w, d[:-1], d[1:], ux, uxx, tmp)
        scale = np.abs(al) + np.abs(be * x) + np.abs(ga * x * x)
        near = np.maximum(np.maximum(scale[:-2], scale[1:-1]), scale[2:])
        xi = x[1:-1]
        assert np.all(np.abs(ux - (be + 2.0 * ga * xi))
                      <= 8.0 * eps * (near * (A + B) + abs(be) + np.abs(2.0 * ga * xi))), n
        assert np.all(np.abs(uxx - 2.0 * ga)
                      <= 8.0 * eps * (near * (C + E) + abs(2.0 * ga))), n
        # the weight form, on values whose u_ff is set by the spacing
        v = rng.standard_normal(x.size)
        d = np.diff(v)
        difference_stencils(w, d[:-1], d[1:], ux, uxx, tmp)
        for got, W in zip((ux, uxx), _weight_form(x)):
            want = W[0] * v[:-2] + W[1] * v[1:-1] + W[2] * v[2:]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n
        # derivatives() takes its interior values from the same stencils
        dx, dxx = derivatives(x, v)
        assert np.array_equal(dx[1:-1], ux) and np.array_equal(dxx[1:-1], uxx)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8, 126, 254, 255, 256, 2046])
def test_tridiagonal_solver_matches_a_dense_solve(m):
    # sizes 2^k - 1 need no padding, the others do; lower[0] and upper[-1]
    # hold junk that must not be read
    rng = np.random.default_rng(m)
    lower, upper = rng.standard_normal(m), rng.standard_normal(m)
    diag = 2.5 + np.abs(lower) + np.abs(upper)
    diag[::2] *= -1.0
    A = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    solve = tridiagonal_solver(lower, diag, upper)
    for r in rng.standard_normal((2, m)):
        x = solve(r)
        want = np.linalg.solve(A, r)
        assert x.shape == (m,)
        assert np.max(np.abs(x - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_pchip_matches_scipy_bit_for_bit():
    from scipy.interpolate import PchipInterpolator
    rng = np.random.default_rng(17)
    sizes = [2, 3] * 20 + list(rng.integers(4, 3000, 160))
    for k, n in enumerate(sizes):
        x = np.cumsum(rng.exponential(1.0, n) ** rng.uniform(0.5, 3.0)) - rng.uniform(0, 20)
        x = np.unique(x)
        kind = k % 4
        if kind == 0:                       # noise: a sign change at every other node
            y = rng.standard_normal(x.size)
        elif kind == 1:                     # rounded: flat runs, repeated zeros
            y = np.round(2.0 * rng.standard_normal(x.size)) * 0.5
            y[::3] = -0.0
        elif kind == 2:                     # smooth, large
            y = 1e3 * np.sin(x)
        else:                               # a flow profile: positive, zero ends
            y = (x - x[0]) * (x[-1] - x) * rng.uniform(0.5, 1.5, x.size)
        w = x[-1] - x[0]
        q = np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                            rng.uniform(x[0] - 0.3 * w, x[-1] + 0.3 * w, 300),
                            np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
        want = PchipInterpolator(x, y)(q)
        got = pchip(x, y)(q)
        assert np.array_equal(got, want), (n, kind)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (n, kind)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0]),
    ([0.0, 1.0, 2.0], [0.0, np.inf, 1.0]),
], ids=["x_repeated", "x_decreasing", "y_nan", "y_inf"])
def test_pchip_rejects_bad_input(x, y):
    with pytest.raises(GridError):
        pchip(x, y)


@pytest.mark.parametrize("u_of_delta, a, b, t_left, n, composite", [
    # the dilated frame's stationary window: one equidistributed grid
    (lambda d: fik_y(1.0 + d), 1.0, 50.0, 1.0, 512, False),
    # parabola data late in a run, vanishing at both ends of [a, b]: the
    # inner window gets its quota
    (lambda d: np.clip(d * (9.996 - d) / 9.996, 0.0, None), 1e-3, 9.997, 1e-3,
     256, True),
])
def test_window_mesh_law(monkeypatch, u_of_delta, a, b, t_left, n, composite):
    tails = []
    tail = grids.stretched_tail
    monkeypatch.setattr(grids, "stretched_tail",
                        lambda *args: (tails.append(args), tail(*args))[1])
    x = window_mesh(u_of_delta, a, b, t_left, n)
    assert bool(tails) == composite
    assert x.size == n and x[0] == a and x[-1] == b
    assert np.all(np.diff(x) > 0)
    # the inner window [a, a + 10 (T - t)] holds at least a quarter of the nodes
    assert np.count_nonzero(x <= a + 10.0 * t_left) >= n / 4


def _bisected_nodes(width, n, h_floor, coeff):
    """equidistributed_nodes with lam found by geometric bisection, the
    reference for the Newton solve."""
    g = np.geomspace(max(width * 1e-12, h_floor * 1e-3), 0.5 * width, 1000)
    d = np.unique(np.concatenate(([0.0, width], g, width - g)))
    c = np.clip(np.asarray(coeff(d), dtype=float), 0.0, None)

    def count(lam):
        return np.trapezoid(1.0 / np.maximum(h_floor, np.sqrt(lam * c)), d)

    lo, hi = 1e-18 * width, 1e6 * width
    while hi / lo >= 1 + 1e-12:
        lam = np.sqrt(lo * hi)
        lo, hi = (lam, hi) if count(lam) > n else (lo, lam)
    h = np.maximum(h_floor, np.sqrt(np.sqrt(lo * hi) * c))
    F = np.concatenate(([0.0], np.cumsum(0.5 * (1.0 / h[1:] + 1.0 / h[:-1]) * np.diff(d))))
    nodes = np.interp(np.linspace(0.0, F[-1], n + 1), F, d)
    nodes[0], nodes[-1] = 0.0, width
    return nodes


@pytest.mark.parametrize("width, n, h_floor, coeff, uniform", [
    # the dilated window of test_window_mesh_law
    (49.0, 511, 3e-4, lambda d: fik_y(1.0 + d), False),
    # the late parabola's inner window, [a, a + 10 (T - t)] with its quota
    (0.01, 64, 3e-7, lambda d: np.clip(d * (9.996 - d) / 9.996, 0.0, None), False),
    (2.0, 200, 1e-6, lambda d: d * (2.0 - d), False),
    (3.0, 300, 1e-4, lambda d: np.full_like(d, 2.0), True),
    # n h_floor just below the width: the floor binds nearly everywhere
    (1.0, 999, 1e-3 * (1.0 - 1e-7), lambda d: 1e-12 * (1.0 + d), False),
    # zero throughout: every cell on the floor, which the budget spreads evenly
    (1e6, 10, 1e-3, lambda d: np.zeros_like(d), True),
], ids=["fik_y", "parabola_inner", "vanishing_ends", "constant", "floor", "zero"])
def test_equidistributed_nodes_match_the_bisected_lambda(width, n, h_floor, coeff,
                                                         uniform):
    x = grids.equidistributed_nodes(width, n, h_floor, coeff)
    ref = _bisected_nodes(width, n, h_floor, coeff)
    assert x.size == n + 1 and x[0] == 0.0 and x[-1] == width
    assert np.all(np.diff(x) > 0)
    assert np.max(np.abs(x - ref)) <= 1e-9 * np.min(np.diff(ref))
    if uniform:
        assert np.max(np.abs(np.diff(x) - width / n)) <= 1e-9 * width / n


def _full_array_tail(start, end, n, h0):
    """stretched_tail evaluating the whole grading at every bisection step."""
    L, p = end - start, grids._GRADING
    s = np.arange(n + 1) / n
    grade = lambda eps: ((s + eps) ** p - eps ** p) / ((1 + eps) ** p - eps ** p)
    lo, hi = 1e-12, 1e12
    for _ in range(200):
        eps = np.sqrt(lo * hi)
        lo, hi = (eps, hi) if L * grade(eps)[1] < h0 else (lo, eps)
        if hi / lo < 1 + 1e-12:
            break
    nodes = start + L * grade(np.sqrt(lo * hi))
    nodes[0], nodes[-1] = start, end
    return nodes


@pytest.mark.parametrize("start, end, n, h0", [
    (0.01, 9.996, 191, 1.3e-4), (1e-3, 1.0, 16, 1e-5), (10.0, 50.0, 383, 0.05),
    (0.5, 0.75, 4, 1e-9), (2.0, 3.0, 1000, 9e-4),
])
def test_stretched_tail_matches_the_full_array_bisection(start, end, n, h0):
    assert np.array_equal(grids.stretched_tail(start, end, n, h0),
                          _full_array_tail(start, end, n, h0))
