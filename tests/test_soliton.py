import numpy as np
import pytest

from krflow.geometry import curvature, validate_profile
from krflow.soliton import (SolitonProfile, SolitonSpec, cao_koiso_profile, cao_koiso_u,
                            closed_form_weight_integral, fik_profile, fik_y,
                            fik_y_derivs, find_cao_koiso_constant,
                            find_fik_constant, soliton_ode_residual,
                            soliton_shoot_r, weight_integral)
from krflow.geometry import RadialProfile

RT2 = np.sqrt(2.0)
C_KC = 0.527619519896963   # root of e^{2C}(2-C^2) = 3C^2+4C+2, frozen


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_fik_values():
    assert fik_y(1.0) == 0.0
    assert fik_y(np.array([1.0]))[0] == 0.0
    assert fik_y(2.0) == pytest.approx((2.0 + RT2) / 4.0, abs=1e-15)
    y, yp, ypp = fik_y_derivs(1.0)
    assert y == pytest.approx(0.0, abs=1e-15)
    assert yp == pytest.approx(1.0, abs=1e-15)
    assert ypp == pytest.approx(RT2 - 2.0, abs=1e-15)
    with pytest.raises(ValueError):
        fik_y(0.5)


def test_fik_factored_form_matches_the_expanded_closed_form():
    # fik_y evaluates (phi - 1)(phi + sqrt2 - 1)/(sqrt2 phi); the expanded
    # (phi (phi - 2) + sqrt2 (phi - 1) + 1)/(sqrt2 phi) is the same
    # polynomial, and the two must agree to a few units in the last place
    rng = np.random.default_rng(7)
    phi = np.concatenate([np.linspace(1.0, 3.0, 20001), 1.0 + np.geomspace(1e-12, 1.0, 2001),
                          10.0 ** rng.uniform(0.0, 3.0, 20000), [1e3]])
    old = (phi * (phi - 2.0) + RT2 * (phi - 1.0) + 1.0) / (RT2 * phi)
    new = fik_y(phi)
    assert np.all(np.abs(new - old) <= 4.0 * np.spacing(np.maximum(np.abs(old), 1.0)))


def test_fik_derivs_match_finite_differences():
    errs = []
    for n in (2001, 4001):
        phi = np.linspace(1.0, 100.0, n)
        h = phi[1] - phi[0]
        y, yp, ypp = fik_y_derivs(phi)
        yp_fd = (y[2:] - y[:-2]) / (2 * h)
        ypp_fd = (y[2:] - 2 * y[1:-1] + y[:-2]) / h ** 2
        # central-difference error bounds h^2 |y'''|/6 and h^2 |y''''|/12
        assert np.max(np.abs(yp_fd - yp[1:-1])) < 0.5 * h ** 2
        assert np.max(np.abs(ypp_fd - ypp[1:-1])) < 2.0 * h ** 2
        errs.append(np.max(np.abs(yp_fd - yp[1:-1])))
    assert 3.0 < errs[0] / errs[1] < 5.0   # O(h^2)


def test_fik_cone_asymptote():
    assert abs((fik_y(1e3) - 1e3 / RT2) - (1.0 - RT2)) < 1e-3


def test_fik_positive_beyond_section():
    phi = np.linspace(1.0 + 1e-8, 200.0, 10000)
    assert np.all(fik_y(phi) > 0)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_weight_integral_against_closed_form():
    for C in (0.5, 1.0, 2.0):
        assert abs(weight_integral(C) - closed_form_weight_integral(C)) < 1e-12
    assert weight_integral(1.0) == pytest.approx(-np.exp(-1.0), abs=1e-12)
    assert weight_integral(2.0) == pytest.approx(0.25 * np.exp(-2.0), abs=1e-12)


def test_find_fik_constant():
    assert abs(find_fik_constant() - RT2) < 1e-10


def test_profiles_take_the_closed_form_constants():
    # runs and profiles use sqrt(2) and the reduced root; the quadrature
    # roots only check them
    from krflow.soliton import SQRT2, _cao_koiso_reduced_root
    assert fik_profile(128).spec.C == SQRT2
    c = _cao_koiso_reduced_root()
    assert cao_koiso_profile(128).spec.C == c
    assert abs(c - find_cao_koiso_constant()) <= 1e-14


def test_find_cao_koiso_constant():
    c = find_cao_koiso_constant()
    assert 0.5 < c < 1.0
    assert abs(c - C_KC) < 1e-9
    # quadrature sign bracketing the root
    assert weight_integral(0.5, upper=3.0) < 0
    assert weight_integral(0.6, upper=3.0) > 0


# ---------------------------------------------------------------------------
# profile construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, f_max", [(64, 1.5), (256, 20.0), (2048, 50.0)])
def test_fik_profile_samples_the_closed_form(n, f_max):
    p = fik_profile(n, f_max)
    f = p.profile.f
    assert np.array_equal(f, np.linspace(1.0, f_max, n))
    assert np.array_equal(p.profile.u, fik_y(f))
    assert p.profile.u[0] == 0.0
    assert p.spec.base == "L"


def test_quadrature_cao_koiso_endpoint():
    p = cao_koiso_profile(1024)
    u, f = p.profile.u, p.profile.f
    assert u[-1] == 0.0
    assert np.all(u[1:-1] > 0)
    assert p.spec.base == "M"
    # one-sided 3-point slopes; the ODE forces u_f = 2 - f at the zeros
    from krflow.grids import derivatives
    uf, _ = derivatives(f, u)
    assert abs(uf[0] - 1.0) < 1e-3
    assert abs(uf[-1] + 1.0) < 1e-3


def test_quadrature_node_doubling_invariance():
    a = cao_koiso_profile(1025)
    b = cao_koiso_profile(2049)
    assert np.max(np.abs(b.profile.u[::2] - a.profile.u)) < 1e-10


def test_cao_koiso_profile_contract():
    p = cao_koiso_profile(1024)
    assert validate_profile(p.profile).ok
    rep = curvature(p.profile)
    assert min(rep.lambda1.min(), rep.lambda2.min()) > 0
    a, b = p.profile.a, p.profile.b
    assert (a, b) == (1.0, 3.0)
    assert not b > 3.0 * a      # the compact soliton's class is not singular
    # the residual is relative to each node's largest term, here f <= 3
    # (|u_f| <= 1, u/f and C u below 1): 5e-5 / 3 keeps the absolute
    # residual below 5e-5 (it reads 8.5e-7, 1.7e-6 absolute)
    assert soliton_ode_residual(p) < 5e-5 / 3.0


@pytest.mark.parametrize("n", [64, 1024, 4097])
def test_cao_koiso_u_is_the_profile(n):
    # the flow's initial data and the profile are one formula
    p = cao_koiso_profile(n).profile
    u = cao_koiso_u(p.f)
    assert np.array_equal(u[1:-1], p.u[1:-1])
    # f = 3 is the root of the integral, left as the running sum's rounding
    assert u[0] == 0.0 and abs(u[-1]) < 1e-14


def test_cao_koiso_u_at_lone_and_clipped_points():
    dense = cao_koiso_profile(4097).profile
    for k in (700, 2048, 2867, 3500):
        assert cao_koiso_u([dense.f[k]])[0] == pytest.approx(dense.u[k], rel=1e-14)
    assert np.array_equal(cao_koiso_u([0.5, 1.0, 2.0, 3.0, 3.5]),
                          cao_koiso_u([1.0, 1.0, 2.0, 3.0, 3.0]))


def test_fik_profile_mixed_ricci_sign():
    # lambda2 = (1 - sqrt2)/phi^2 on the noncompact soliton: negative near the
    # section (and everywhere, approaching zero), while lambda1 stays positive
    p = fik_profile(2048, f_max=50.0)
    rep = curvature(p.profile)
    f = p.profile.f
    assert np.all(rep.lambda2[f < 1.5] < 0)
    assert np.all(rep.lambda1 > 0)
    interior = slice(1, -1)
    assert np.max(np.abs(rep.lambda2[interior] - (1.0 - RT2) / f[interior] ** 2)) < 5e-4
    assert abs(rep.lambda2[np.searchsorted(f, 45.0)]) < 1e-3   # -> 0 at infinity


# ---------------------------------------------------------------------------
# ODE residual
# ---------------------------------------------------------------------------

def test_residual_fik_analytic():
    # each node's residual is divided by its largest term, so the exact
    # profile reads at rounding level however far out it reaches
    for f_max, n in ((50.0, 2001), (1e30, 2001), (1e30, 64)):
        f = np.linspace(1.0, f_max, n)
        y, yp, _ = fik_y_derivs(f)
        p = SolitonProfile(SolitonSpec(RT2, "L"), RadialProfile(f, y))
        assert soliton_ode_residual(p, u_f=yp) < 1e-15
    # with stencil derivatives, as `krflow soliton --f-max 1e30` prints it
    # (it read 1.4e14 as an absolute residual)
    assert soliton_ode_residual(fik_profile(64, f_max=1e30)) < 1e-15


def test_residual_wrong_constant():
    # the residual (sqrt2 - 1) y over the largest term f (at least 2): on
    # [1, 10] y_f < 1, y / f < 1 and y < f
    f = np.linspace(1.0, 10.0, 1001)
    y, yp, _ = fik_y_derivs(f)
    p = SolitonProfile(SolitonSpec(1.0, "L"), RadialProfile(f, y))
    res = soliton_ode_residual(p, u_f=yp)
    want = np.max((RT2 - 1.0) * y[1:-1] / np.maximum(f[1:-1], 2.0))
    assert res == pytest.approx(want, rel=1e-10)


def test_residual_zero_profile():
    f = np.linspace(1.0, 10.0, 101)
    p = SolitonProfile(SolitonSpec(0.7, "M"), RadialProfile(f, np.zeros_like(f)))
    want = np.max(np.abs(f[1:-1] - 2.0) / np.maximum(f[1:-1], 2.0))
    assert soliton_ode_residual(p) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# r-coordinate shooting cross-check
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_shoot_fik_matches_closed_form():
    p = soliton_shoot_r(RT2)
    f = p.profile.f
    mask = (f > 1.0 + 1e-6) & (f < p.profile.b)
    err = np.max(np.abs(p.profile.u[mask] - fik_y(f[mask])))
    assert err < 1e-6
    assert p.profile.b > 10.0   # reached deep into the cone region


@pytest.mark.slow
def test_shoot_cao_koiso_reaches_outer_zero():
    p = soliton_shoot_r(C_KC)
    assert p.profile.b > 3.0 - 2e-3
    assert p.profile.u[-1] < 1e-3
    # cross-check against the integrating-factor profile in (f, u)
    q = cao_koiso_profile(4097)
    mask = (p.profile.f > 1.001) & (p.profile.f < 2.995)
    uq = np.interp(p.profile.f[mask], q.profile.f, q.profile.u)
    assert np.max(np.abs(p.profile.u[mask] - uq)) < 1e-6


@pytest.mark.slow
def test_shoot_translation_invariance():
    from scipy.interpolate import CubicSpline
    p1 = soliton_shoot_r(RT2, a1_guess=1.0)
    p2 = soliton_shoot_r(RT2, a1_guess=10.0)
    lo = max(p1.profile.a, p2.profile.a) + 1e-4
    hi = min(p1.profile.b, p2.profile.b) - 1e-4
    f = np.linspace(lo, hi, 500)
    u1 = CubicSpline(p1.profile.f, p1.profile.u)(f)
    u2 = CubicSpline(p2.profile.f, p2.profile.u)(f)
    assert np.max(np.abs(u1 - u2)) < 1e-7


def test_soliton_spec_family_constraints():
    with pytest.raises(ValueError):
        SolitonSpec(-1.0, "L")
    with pytest.raises(ValueError):
        SolitonSpec(1.0, "X")
