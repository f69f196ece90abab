import numpy as np
import pytest

from krflow.barriers import (BARRIER_DELTA, LAMBDA_INIT, SandwichMonitor,
                             barrier_residual_sub,
                             barrier_residual_sub_split, barrier_residual_sup,
                             barrier_y1, barrier_y2, bilinear_part,
                             class_c_check, comparison_check, fit_lambda0,
                             full_operator, linear_part, quadratic_part,
                             write_violation_csv, ViolationRecord)
from krflow.grids import derivatives
from krflow.soliton import fik_y, fik_y_derivs
from krflow.states import DilatedState

RT2 = np.sqrt(2.0)


def smooth_test_functions(rng, phi):
    """Random smooth (y, y_p, y_pp) triples with analytic derivatives."""
    a, b, w = rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)
    y = a + b * np.sin(w * phi)
    yp = b * w * np.cos(w * phi)
    ypp = -b * w * w * np.sin(w * phi)
    return y, yp, ypp


# ---------------------------------------------------------------------------
# operator split identities
# ---------------------------------------------------------------------------

def test_split_reassembles_full_operator():
    rng = np.random.default_rng(0)
    phi = np.linspace(1.0, 20.0, 400)
    for _ in range(20):
        y, yp, ypp = smooth_test_functions(rng, phi)
        lhs = full_operator(phi, y, yp, ypp)
        rhs = linear_part(phi, y, yp) + quadratic_part(phi, y, yp, ypp)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_bilinear_identities():
    rng = np.random.default_rng(1)
    phi = np.linspace(1.0, 10.0, 300)
    for _ in range(20):
        y, yp, ypp = smooth_test_functions(rng, phi)
        s1, s1p, s1pp = smooth_test_functions(rng, phi)
        s2, s2p, s2pp = smooth_test_functions(rng, phi)
        m12 = bilinear_part(phi, y, yp, ypp, s1 + s2, s1p + s2p, s1pp + s2pp)
        m1 = bilinear_part(phi, y, yp, ypp, s1, s1p, s1pp)
        m2 = bilinear_part(phi, y, yp, ypp, s2, s2p, s2pp)
        assert np.max(np.abs(m12 - (m1 + m2))) < 1e-11
        # E[y+s] = E[y] + E[s] + M[y, s]
        lhs = full_operator(phi, y + s1, yp + s1p, ypp + s1pp)
        rhs = (full_operator(phi, y, yp, ypp)
               + full_operator(phi, s1, s1p, s1pp) + m1)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_stationarity_of_fik():
    phi = np.linspace(1.0, 100.0, 20001)
    y, yp, ypp = fik_y_derivs(phi)
    assert np.max(np.abs(full_operator(phi, y, yp, ypp))) < 1e-10


def operator_on_state(d):
    """E[y] on a dilated state's nodes, derivatives from grid stencils."""
    slope = 1.0 if d.y[0] == 0.0 else None
    y_p, y_pp = derivatives(d.phi, d.y, slope_left=slope)
    return full_operator(d.phi, d.y, y_p, y_pp)


def test_operator_on_state_matches_analytic():
    phi = 1.0 + np.linspace(0.0, 1.0, 2001) ** 2 * 30.0
    d = DilatedState(0.0, phi, fik_y(phi))
    assert np.max(np.abs(operator_on_state(d)[1:-1])) < 2e-4


# ---------------------------------------------------------------------------
# class membership
# ---------------------------------------------------------------------------

def test_class_c_on_fik():
    phi = np.linspace(1.0, 30.0, 1000)
    res = class_c_check(DilatedState(0.0, phi, fik_y(phi)))
    assert res.ok
    assert res.margin == pytest.approx(0.2, abs=1e-12)


def test_class_c_boundary_case():
    phi = np.linspace(1.0, 30.0, 1000)
    res = class_c_check(DilatedState(0.0, phi, fik_y(phi) - phi ** 2 / 5.0))
    assert not res.ok
    assert res.margin == pytest.approx(0.0, abs=1e-12)


def test_class_c_parabola_and_barrier_peak():
    phi = np.linspace(1.0, 10.0, 20001)
    y = (phi - 1.0) * (10.0 - phi) / 9.0
    res = class_c_check(DilatedState(0.0, phi, y))
    assert res.ok and res.margin > 0
    barrier = fik_y(phi) - phi ** 2 / 5.0
    peak = np.max(barrier)
    assert 0 < peak < 0.06
    assert abs(phi[np.argmax(barrier)] - 2.0) < 0.1


# ---------------------------------------------------------------------------
# barrier values and residual certificates
# ---------------------------------------------------------------------------

def test_barrier_values():
    assert (BARRIER_DELTA, LAMBDA_INIT) == (1e-7, 0.2)
    assert barrier_y1(1.0, 0.0) == pytest.approx(-0.2, abs=1e-15)
    assert barrier_y2(1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    # squeeze monotonically to the stationary profile on fixed phi
    taus = np.array([0.0, 5.0, 50.0, 500.0])
    y1 = np.array([float(barrier_y1(2.0, t)) for t in taus])
    y2 = np.array([float(barrier_y2(2.0, t, 1.0)) for t in taus])
    assert np.all(np.diff(y1) > 0) and np.all(np.diff(y2) < 0)
    assert abs(y2[-1] - fik_y(2.0)) < 1e-15
    assert y1[-1] < fik_y(2.0)


def test_residual_sub_examples():
    assert barrier_residual_sub(1.0, 0.2, 0.0) == pytest.approx(
        0.2 * (-0.4 - (2.0 - RT2)), abs=1e-14)
    assert barrier_residual_sub(1.0, 1.0 / 3.0, 1.0) == pytest.approx(
        (RT2 - 1.0) / 3.0, abs=1e-14)


def test_residual_split_path_agrees():
    rng = np.random.default_rng(7)
    for _ in range(100):
        phi = rng.uniform(1.0, 50.0)
        lam = rng.uniform(1e-4, 0.5)
        delta = rng.uniform(0.0, 1.0)
        a = barrier_residual_sub(phi, lam, delta)
        b = barrier_residual_sub_split(phi, lam, delta)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_subsolution_certificate():
    phi = np.geomspace(1.0, 1e4, 401)
    taus = np.linspace(0.0, 60.0, 25)
    for delta in (1e-7, 1e-6):
        for tau in taus:
            lam = 0.2 * np.exp(-delta * tau)
            assert np.all(barrier_residual_sub(phi, lam, delta) < 0)


def test_supersolution_certificate():
    phi = np.geomspace(1.0, 1e4, 401)
    for lam in (1e-6, 1e-3, 0.011, 1.0, 37.0):
        assert np.all(barrier_residual_sup(phi, lam) > 0)


def test_boundary_admissibility_of_subsolution():
    for a0, b0 in ((1.0, 10.0), (1.0, 3.1)):
        taus = np.linspace(0.0, 60.0, 601)
        phi_b = (b0 - 3.0 * a0) * np.exp(taus) + 3.0
        vals = np.array([float(barrier_y1(pb, t)) for pb, t in zip(phi_b, taus)])
        assert np.all(vals < 0)


# ---------------------------------------------------------------------------
# lambda0 fitting and the monitor
# ---------------------------------------------------------------------------

def test_fit_lambda0_floor_and_construction():
    phi = np.linspace(1.0, 10.0, 2001)
    assert fit_lambda0(DilatedState(0.0, phi, fik_y(phi))) == 1e-3
    y = (phi - 1.0) * (10.0 - phi) / 9.0
    lam0 = fit_lambda0(DilatedState(0.0, phi, y))
    assert lam0 == pytest.approx(1.1 * np.max((y - fik_y(phi)) / phi ** 2), rel=1e-12)
    below = np.clip(fik_y(phi) - 0.1, 0.0, None)
    assert fit_lambda0(DilatedState(0.0, phi, below)) == 1e-3


def _check(mon, steps, taus, phi, y):
    """mon.check on explicit (K, n) rows, bounded by their row-wise least
    and largest values, which is sound for any rows."""
    mon.check(steps, taus,
              lambda: (phi.min(axis=0), phi.max(axis=0), y.min(axis=0), y.max(axis=0)),
              lambda: (phi, y))


def test_sandwich_monitor_flags_constructed_violation(tmp_path):
    phi = np.linspace(1.0, 10.0, 501)
    mon = SandwichMonitor(1.0, tau0=0.0)
    y = fik_y(phi)
    _check(mon, (0,), (0.0,), phi[None], y[None])
    assert not mon.violations           # stationary profile is inside the sandwich
    bad = y.copy()
    k = 250
    bad[k] = barrier_y1(phi[k], 0.0) - 1e-3
    _check(mon, (1,), (0.0,), phi[None], bad[None])
    assert len(mon.violations) == 1
    v = mon.violations[0]
    assert v.kind == "sub" and v.step == 1 and v.node_phi == phi[k]
    path = tmp_path / "viol.csv"
    write_violation_csv(mon.violations, path)
    assert path.read_bytes() == (b"step,tau,node_phi,kind,deficit\r\n"
                                 b"1,0,5.5,sub,0.00099998999999988993\r\n")


@pytest.mark.parametrize("lambda0", [0.0, -1e-3, float("nan")])
def test_sandwich_monitor_rejects_non_positive_amplitude(lambda0):
    with pytest.raises(ValueError, match="lambda0 must be positive"):
        SandwichMonitor(lambda0, tau0=0.0)


def _reference_violations(lambda0, tau0, slack, step, tau, phi, y):
    """The monitor's verdict evaluated through barrier_y1 / barrier_y2."""
    s = tau - tau0
    out = []
    for kind, deficit in (("sub", barrier_y1(phi, s) - y - slack),
                          ("super", y - barrier_y2(phi, s, lambda0) - slack)):
        if np.any(deficit > 0):
            k = int(np.argmax(deficit))
            out.append(ViolationRecord(step, float(tau), float(phi[k]), kind,
                                       float(deficit[k])))
    return out


def test_sandwich_monitor_matches_barrier_evaluation():
    rng = np.random.default_rng(7)
    lambda0, tau0, slack = 2e-3, 0.4, 1e-8
    mon = SandwichMonitor(lambda0, tau0=tau0)
    block = SandwichMonitor(lambda0, tau0=tau0)
    expected = []
    for n, rows in ((301, 2), (97, 1), (2048, 3), (501, 40)):
        steps, taus, phis, ys = [], [], [], []
        for r in range(rows):
            phi = np.sort(rng.uniform(1.0, 40.0, n))
            phi[0] = 1.0
            tau = tau0 + rng.uniform(0.0, 7.0)
            s = tau - tau0
            y1, y2 = barrier_y1(phi, s), barrier_y2(phi, s, lambda0)
            y = y1 + rng.uniform(0.0, 1.0, n) * (y2 - y1)      # inside the sandwich
            for k in rng.choice(n, 3, replace=False):
                y[k] = y1[k] - rng.uniform(1e-9, 1e-2)            # below y1
            for k in rng.choice(n, 3, replace=False):
                y[k] = y2[k] + rng.uniform(1e-9, 1e-2)            # above y2
            if r == 1:
                y = np.minimum(y, y2)                             # sub side only
            for yy in (y, 0.5 * (y1 + y2)):
                step = len(steps)
                _check(mon, (step,), (tau,), phi[None], yy[None])
                expected += _reference_violations(lambda0, tau0, slack, step, tau,
                                                  phi, yy)
                steps.append(step)
                taus.append(tau)
                phis.append(phi)
                ys.append(yy)
        _check(block, steps, taus, np.array(phis), np.array(ys))
    assert {v.kind for v in expected} == {"sub", "super"}
    assert mon.violations == expected    # exact: same node, same deficit bits
    assert block.violations == expected  # a block checks as its rows one by one


def _block_inside(rng, n, rows, lambda0, tau0):
    """(taus, phi, y, y1, y2) of a block of rows as an engine queues them:
    at each node phi grows slowly from row to row, tau increases, and y
    lies between the barriers, a quarter of their distance from each."""
    phi0 = np.concatenate(([1.0], np.sort(rng.uniform(1.0, 40.0, n - 1))))
    phi = 1.0 + (phi0 - 1.0) * (1.0 + 1e-6 * np.arange(rows)[:, None])
    taus = tau0 + rng.uniform(0.0, 5.0) + 1e-4 * np.arange(rows)
    s = (taus - tau0)[:, None]
    y1, y2 = barrier_y1(phi, s), barrier_y2(phi, s, lambda0)
    y = y1 + rng.uniform(0.25, 0.75, (rows, n)) * (y2 - y1)
    return list(taus), phi, y, y1, y2


def test_certified_blocks_log_what_the_exact_evaluation_logs():
    # violations injected at random rows and nodes, 1e-12 to 1e-2 past
    # slack: the log equals the reference evaluation of every row, and each
    # block goes through the exact evaluation whole
    rng = np.random.default_rng(11)
    lambda0, tau0 = 2e-3, 0.4
    mon = SandwichMonitor(lambda0, tau0=tau0)
    expected, first = [], 0
    for n, rows in ((128, 16), (301, 5), (64, 64), (2048, 4), (97, 1), (256, 128)):
        for hits in (1, 1, 3):
            taus, phi, y, y1, y2 = _block_inside(rng, n, rows, lambda0, tau0)
            for _ in range(hits):
                r, k = rng.integers(rows), rng.integers(n)
                d = mon.slack + 10.0 ** rng.uniform(-12.0, -2.0)
                y[r, k] = y1[r, k] - d if rng.random() < 0.5 else y2[r, k] + d
            steps = list(range(first, first + rows))
            first += rows
            before = mon.exact_rows
            _check(mon, steps, taus, phi, y)
            for r in range(rows):
                expected += _reference_violations(lambda0, tau0, mon.slack, steps[r],
                                                  taus[r], phi[r], y[r])
            assert mon.exact_rows - before == rows
    assert {v.kind for v in expected} == {"sub", "super"} and len(expected) >= 18
    assert mon.violations == expected


def test_a_block_without_violations_never_reaches_the_exact_evaluation():
    rng = np.random.default_rng(12)
    for lambda0, tau0 in ((2e-3, 0.4), (0.5, 0.0), (1e-3, 6.0)):
        mon = SandwichMonitor(lambda0, tau0=tau0)
        for n, rows in ((128, 16), (2048, 16), (256, 128), (64, 1)):
            taus, phi, y, _, _ = _block_inside(rng, n, rows, lambda0, tau0)
            _check(mon, list(range(rows)), taus, phi, y)
        assert mon.exact_rows == 0 and not mon.violations


def test_the_certificate_takes_the_amplitudes_at_the_latest_tau():
    # the last row of each block crosses a barrier that has moved since the
    # first row's tau, and would lie inside the first row's barriers
    lambda0, tau0 = 1.0, 0.0
    phi = np.array([[1.0, 2.0, 5.0]] * 2)
    taus = [0.0, 2.0]
    y1, y2 = barrier_y1(phi, np.array(taus)[:, None]), barrier_y2(phi, np.array(taus)[:, None],
                                                                   lambda0)
    mon = SandwichMonitor(lambda0, tau0=tau0)
    expected = []
    for step, (r, k, d) in enumerate(((1, 1, -1e-10), (1, 2, 1e-6))):
        y = 0.5 * (y1 + y2)
        y[r, k] = (y1 if d < 0 else y2)[r, k] + np.sign(d) * mon.slack + d
        _check(mon, (2 * step, 2 * step + 1), taus, phi, y)
        for q in range(2):
            expected += _reference_violations(lambda0, tau0, mon.slack, 2 * step + q,
                                              taus[q], phi[q], y[q])
    assert [v.kind for v in expected] == ["sub", "super"]
    assert mon.violations == expected


def test_the_certificate_bounds_each_barrier_at_its_worst_row():
    # phi grows from row to row.  y1 rises with phi near the section and
    # falls far out, and y - y2 falls everywhere, so the certificate's bound
    # is tight for a sub violation in the last row near the section (Y at
    # phi_hi) and in the first row far out (lam1 phi_lo^2), and for a super
    # violation in the first row (Y and lam2 phi^2 at phi_lo)
    lambda0, tau0, slack = 1e-3, 0.0, SandwichMonitor.slack
    phi0 = np.array([1.0, 1.2, 1.5, 10.0])
    phi = 1.0 + (phi0 - 1.0) * (1.0 + 1e-3 * np.arange(4)[:, None])
    taus = [0.1] * 4
    y1, y2 = barrier_y1(phi, 0.1), barrier_y2(phi, 0.1, lambda0)
    mon = SandwichMonitor(lambda0, tau0=tau0)
    expected = []
    for block, (r, k, kind) in enumerate(((3, 1, "sub"), (0, 3, "sub"), (0, 2, "super"))):
        y = 0.5 * (y1 + y2)
        y[r, k] = y1[r, k] - slack - 1e-10 if kind == "sub" else y2[r, k] + slack + 1e-10
        steps = list(range(4 * block, 4 * block + 4))
        _check(mon, steps, taus, phi, y)
        for q in range(4):
            expected += _reference_violations(lambda0, tau0, slack, steps[q], taus[q],
                                              phi[q], y[q])
        assert [v.kind for v in expected[block:]] == [kind]
    assert mon.violations == expected


@pytest.mark.parametrize("kind", ["sub", "super"])
def test_the_allowance_covers_the_rounding_of_fik_y(kind):
    # fik_y is not monotone to the last bit: for a < b adjacent floats it
    # may give Y(a) > Y(b).  In a block with phi = a in one row and b in the
    # other, the certificate bounds Y by Y(phi_hi) = Y(b) on the sub side
    # and by Y(phi_lo) = Y(a) on the super side, so a row at a (sub) or at b
    # (super) whose gap exceeds slack by less than Y(a) - Y(b) is found
    # only through the allowance.  lam2 phi^2 = 1e-30 phi^2 rounds away.
    rng = np.random.default_rng(13)
    a = np.sort(rng.uniform(1.5, 3.0, 20_000))
    b = np.nextafter(a, np.inf)
    k = int(np.flatnonzero(fik_y(b) < fik_y(a))[0])
    a, b = a[k], b[k]
    lambda0, slack = 1e-30, SandwichMonitor.slack
    if kind == "sub":
        row, other, toward = a, b, -np.inf
        y = barrier_y1(a, 0.0) - slack
        gap = lambda y: barrier_y1(a, 0.0) - y
        bound = lambda y: (fik_y(b) - LAMBDA_INIT * a ** 2) - y
    else:
        row, other, toward = b, a, np.inf
        y = barrier_y2(b, 0.0, lambda0) + slack
        gap = lambda y: y - barrier_y2(b, 0.0, lambda0)
        bound = lambda y: y - (fik_y(a) + lambda0 * a ** 2)
    while not gap(y) > slack:
        y = np.nextafter(y, toward)
    assert bound(y) <= slack            # the bound without the allowance clears it
    phi = np.array([[1.0, other], [1.0, row]])
    ys = np.array([[0.0, fik_y(other)], [0.0, y]])
    mon = SandwichMonitor(lambda0, tau0=0.0)
    _check(mon, (0, 1), (0.0, 0.0), phi, ys)
    expected = _reference_violations(lambda0, 0.0, slack, 1, 0.0, phi[1], ys[1])
    assert [v.kind for v in expected] == [kind]
    assert mon.violations == expected


# ---------------------------------------------------------------------------
# comparison harness
# ---------------------------------------------------------------------------

def _history(phi, fn, taus):
    return np.array([fn(phi, t) for t in taus])


def test_comparison_ordered_pair():
    phi = np.linspace(1.0, 20.0, 301)
    taus = np.linspace(0.0, 2.0, 21)
    ym = _history(phi, lambda p, t: fik_y(p), taus)
    yp = _history(phi, lambda p, t: fik_y(p) + 0.1, taus)
    v = comparison_check(taus, phi, ym, yp, c_bound=2.0)
    assert v.ordered and v.hypotheses_ok
    assert v.lambda_used == pytest.approx(3.5)


def test_comparison_detects_crossing():
    phi = np.linspace(1.0, 20.0, 301)
    taus = np.linspace(0.0, 2.0, 21)
    ym = _history(phi, lambda p, t: fik_y(p), taus)
    yp = ym + 0.1
    yp[10:, 150] = ym[10:, 150] - 0.05   # forced mid-run dip below y-
    v = comparison_check(taus, phi, ym, yp, c_bound=2.0)
    assert not v.ordered
    tau_x, phi_x, deficit = v.first_crossing
    assert tau_x == pytest.approx(taus[10])
    assert phi_x == pytest.approx(phi[150])
    assert deficit < 0


def test_comparison_flags_hypothesis_violations():
    phi = np.linspace(1.0, 20.0, 301)
    taus = np.linspace(0.0, 2.0, 11)
    ym = _history(phi, lambda p, t: fik_y(p), taus)
    yp = ym.copy()
    yp[:, -1] -= 1.0    # boundary ordering broken at the outer edge
    v = comparison_check(taus, phi, ym, yp, c_bound=2.0)
    assert not v.hypotheses_ok
    assert any("boundary" in h for h in v.failed_hypotheses)
    # curvature bound hypothesis
    v2 = comparison_check(taus, phi, ym, ym + 0.1, c_bound=1e-9)
    assert not v2.hypotheses_ok
    assert any("second-derivative" in h for h in v2.failed_hypotheses)


def test_comparison_alpha_ladder_stability():
    phi = np.linspace(1.0, 20.0, 301)
    taus = np.linspace(0.0, 2.0, 21)
    ym = _history(phi, lambda p, t: fik_y(p), taus)
    yp = ym + 0.05
    for alphas in ((1e-2, 1e-5, 1e-8), (1e-3,), tuple(10.0 ** (-k) for k in range(2, 12))):
        v = comparison_check(taus, phi, ym, yp, c_bound=2.0, alphas=alphas)
        assert v.ordered
    with pytest.raises(ValueError):
        comparison_check(taus, phi[:-1], ym, yp, c_bound=2.0)
