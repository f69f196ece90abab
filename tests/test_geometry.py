import numpy as np
import pytest

from krflow.geometry import (CalabiAsymptotics, LogProfile, RadialProfile,
                             DegenerateProfileError, asymptotic_eigenvalues,
                             curvature, read_profile_csv, to_log, to_radial,
                             validate_profile, write_profile_csv)
from krflow.grids import GridError
from krflow.soliton import fik_y, fik_y_derivs

RT2 = np.sqrt(2.0)


def parabola_profile(n=257, a=1.0, b=10.0):
    f = np.linspace(a, b, n)
    u = (f - a) * (b - f) / (b - a)
    return RadialProfile(f, u)


# ---------------------------------------------------------------------------
# types and validation
# ---------------------------------------------------------------------------

def test_validate_fik_restriction_flags_outer_endpoint():
    f = np.linspace(1.0, 3.0, 64)
    p = RadialProfile(f, fik_y(f))
    rep = validate_profile(p)
    assert not rep.ok
    assert "u(b) != 0" in rep.codes()
    assert fik_y(3.0) > 0


def test_validate_parabola_ok():
    rep = validate_profile(parabola_profile())
    assert rep.ok, rep.codes()


def test_validate_interior_zero():
    p = parabola_profile(65)
    u = p.u.copy()
    u[30] = -u[30]
    rep = validate_profile(RadialProfile(p.f, u))
    assert "u <= 0 at interior node" in rep.codes()


def test_validate_wrong_slope():
    f = np.linspace(1.0, 10.0, 2049)   # tolerance 10*h ~ 0.044
    u = 0.5 * (f - 1.0) * (10.0 - f) / 9.0   # slopes 0.5/-0.5
    rep = validate_profile(RadialProfile(f, u))
    assert "u_f(a) != +1" in rep.codes()
    assert "u_f(b) != -1" in rep.codes()


def test_validate_structural_errors():
    f = np.linspace(1.0, 2.0, 12)
    f2 = f.copy()
    f2[5] = f2[4]
    with pytest.raises(ValueError):
        RadialProfile(f[:3], np.zeros(4))
    with pytest.raises(GridError):
        validate_profile(RadialProfile(f2, np.ones(12)))
    with pytest.raises(GridError):
        validate_profile(RadialProfile(f[:5], np.ones(5)))


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------

def test_to_radial_exponential_is_identity_slope():
    r = np.linspace(0.0, 1.0, 101)
    p = to_radial(LogProfile(r, np.exp(r), np.exp(r)))
    assert np.allclose(p.u, p.f, rtol=0, atol=1e-14)
    assert abs(p.a - 1.0) < 1e-14 and abs(p.b - np.e) < 1e-14


def test_to_radial_calabi_expansion():
    # phi = 1 + e^r near the inner end gives u ~ f - 1
    r = np.linspace(-12.0, -4.0, 201)
    w = np.exp(r)
    p = to_radial(LogProfile(r, 1.0 + w, w))
    assert np.max(np.abs(p.u - (p.f - 1.0))) < 1e-14


def test_to_radial_degenerate():
    r = np.linspace(0.0, 1.0, 33)
    with pytest.raises(DegenerateProfileError):
        to_radial(LogProfile(r, np.ones_like(r), np.zeros_like(r)))


def test_to_log_linear_profile():
    f = np.linspace(1.0, np.e, 301)
    lp = to_log(RadialProfile(f, f.copy()), anchor=(1.0, 0.0))
    assert np.max(np.abs(lp.r - np.log(lp.phi))) < 1e-6


def test_to_log_parabola_log_divergence():
    p = parabola_profile(2001)
    lp = to_log(p, anchor=(5.5, 0.0))
    assert np.all(np.diff(lp.r) > 0)
    # near f = 1 the chart behaves like log(f-1): equal log-steps in delta
    d = lp.phi - 1.0
    k = np.searchsorted(d, [1e-2, 1e-1])
    ratio = (lp.r[k[1]] - lp.r[k[0]]) / np.log(d[k[1]] / d[k[0]])
    assert abs(ratio - 1.0) < 0.05


def test_to_log_anchor_at_degenerate_endpoint_errors():
    with pytest.raises(ValueError):
        to_log(parabola_profile(), anchor=(1.0, 0.0))


def test_round_trip_log_radial_log():
    r = np.linspace(-2.0, 2.0, 401)
    phi = np.exp(r) + np.exp(2.0 * r)
    phi_r = np.exp(r) + 2.0 * np.exp(2.0 * r)
    lp = LogProfile(r, phi, phi_r)
    rp = to_radial(lp)
    lp2 = to_log(rp, anchor=(float(phi[200]), float(r[200])))
    assert np.allclose(lp2.phi, phi, rtol=0, atol=0)
    assert np.max(np.abs(lp2.r - r)) < 2e-5


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def fik_truncated(n=513, f_max=40.0):
    f = 1.0 + np.linspace(0.0, 1.0, n) ** 2 * (f_max - 1.0)
    return RadialProfile(f, fik_y(f))


def test_curvature_fik_at_section():
    p = fik_truncated()
    rep = curvature(p)
    assert abs(rep.lambda1[0] - 1.0) < 1e-12
    assert abs(rep.lambda2[0] - (1.0 - RT2)) < 1e-6
    assert abs(rep.scalar[0] - (4.0 - 2.0 * RT2)) < 2e-6


def test_curvature_flat():
    f = np.linspace(1.0, np.e, 64)
    rep = curvature(RadialProfile(f, f.copy()))
    for arr in (rep.psi, rep.lambda1, rep.lambda2, rep.scalar):
        assert np.max(np.abs(arr)) < 1e-12


def test_curvature_cao_koiso_positive_ricci():
    from krflow.soliton import cao_koiso_profile
    rep = curvature(cao_koiso_profile(1024).profile)
    assert rep.lambda1.min() > 0
    assert rep.lambda2.min() > 0


def test_scalar_identity_exact():
    rep = curvature(parabola_profile())
    assert np.array_equal(rep.scalar, 2.0 * (rep.lambda1 + rep.lambda2))


def test_curvature_needs_nodes():
    f = np.linspace(1.0, 2.0, 10)
    with pytest.raises(GridError):
        curvature(RadialProfile(f, np.ones_like(f)))


def test_asymptotic_eigenvalues():
    c = CalabiAsymptotics(1.0, 1.0, 0.0, 3.0, -1.0, 0.0)
    assert asymptotic_eigenvalues(c, "minus_infinity") == (1.0, -1.0)
    assert asymptotic_eigenvalues(c, "plus_infinity") == (1.0, 1.0 / 3.0)
    c2 = CalabiAsymptotics(1.0, 1.0, -1.0, 3.0, -1.0, 0.0)
    assert asymptotic_eigenvalues(c2, "minus_infinity") == (1.0, 1.0)
    with pytest.raises(ValueError):
        CalabiAsymptotics(1.0, -1.0, 0.0, 3.0, -1.0, 0.0)


def test_asymptotics_match_synthesized_profile():
    # curvature near the inner end of a profile built from the expansion
    a0, a1, a2 = 1.0, 1.0, 0.3
    r = np.linspace(-14.0, -5.0, 401)
    w = np.exp(r)
    phi = a0 + a1 * w + a2 * w * w
    phi_r = a1 * w + 2.0 * a2 * w * w
    rep = curvature(to_radial(LogProfile(r, phi, phi_r)))
    lam1_t, lam2_t = asymptotic_eigenvalues(
        CalabiAsymptotics(a0, a1, a2, 3.0, -1.0, 0.0), "minus_infinity")
    k = 200   # r ~ -9.5, next-order correction ~ e^r
    corr = 50.0 * np.exp(r[k])
    assert abs(rep.lambda1[k] - lam1_t) < corr
    assert abs(rep.lambda2[k] - lam2_t) < corr


def test_chain_rule_consistency_second_order():
    # analytic r-form curvature for phi = e^r + e^{2r}
    def analytic(r):
        w = np.exp(r)
        p = w + w * w
        p1 = w + 2 * w * w
        p2 = w + 4 * w * w
        p3 = w + 8 * w * w
        psi = 2.0 - p1 / p - p2 / p1
        lam1 = psi / p
        psi_r = -(p2 * p - p1 * p1) / p ** 2 - (p3 * p1 - p2 * p2) / p1 ** 2
        lam2 = psi_r / p1
        return lam1, lam2

    errs = []
    for n in (201, 401):
        r = np.linspace(-2.0, 2.0, n)
        w = np.exp(r)
        rp = to_radial(LogProfile(r, w + w * w, w + 2 * w * w))
        rep = curvature(rp)
        lam1_t, lam2_t = analytic(r)
        sl = slice(2, -2)
        errs.append(max(np.max(np.abs(rep.lambda1[sl] - lam1_t[sl])),
                        np.max(np.abs(rep.lambda2[sl] - lam2_t[sl]))))
    assert errs[0] < 1e-3
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.5   # O(h^2) under refinement


# ---------------------------------------------------------------------------
# reduced Riemann bound
# ---------------------------------------------------------------------------

def test_riemann_components_fik():
    phi = 1.0 + np.linspace(0.0, 1.0, 513) ** 2 * 30.0
    rm = curvature(RadialProfile(phi, fik_y(phi)))
    assert abs(rm.rm1[0] - 2.0 * (2.0 - RT2)) < 1e-5
    assert abs(rm.rm2[0] - 4.0) < 1e-12
    assert abs(rm.rm3[0] - 2.0) < 1e-12


def _rm_max(rep):
    return np.max(np.maximum(rep.rm1, np.maximum(rep.rm2, rep.rm3)))


def test_riemann_components_flat_and_max():
    f = np.linspace(1.0, 5.0, 129)
    assert _rm_max(curvature(RadialProfile(f, f.copy()))) < 1e-12
    assert np.isfinite(_rm_max(curvature(parabola_profile())))


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def test_profile_csv_round_trip(tmp_path):
    p = parabola_profile(64)
    path = tmp_path / "p.csv"
    write_profile_csv(p, path)
    q = read_profile_csv(path)
    assert isinstance(q, RadialProfile)
    assert np.array_equal(q.f, p.f) and np.array_equal(q.u, p.u)

    lp = to_log(p, anchor=(5.5, 0.0))
    path2 = tmp_path / "l.csv"
    write_profile_csv(lp, path2)
    q2 = read_profile_csv(path2)
    assert isinstance(q2, LogProfile)
    assert np.array_equal(q2.r, lp.r)


def test_curvature_csv():
    # the first two rows of (f, psi, lambda1, lambda2, R, rm1, rm2, rm3),
    # pinned as their %.17g CSV rows
    rep = curvature(parabola_profile(64))
    cols = (rep.f, rep.psi, rep.lambda1, rep.lambda2, rep.scalar,
            rep.rm1, rep.rm2, rep.rm3)
    rows = [",".join("%.17g" % v for v in row) for row in zip(*cols)]
    assert rows[:2] == [
        "1,1,1,-0.77777777777777368,0.44444444444445264,0.44444444444445252,4,2",
        "1.1428571428571428,0.90873015873015872,0.79513888888888895,"
        "-0.51736111111111538,0.55555555555554714,0.44444444444443615,"
        "3.0694444444444446,1.479166666666667"]
