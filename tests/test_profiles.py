import numpy as np
import pytest
from scipy.integrate import quad

from prandtl_lab.grid import Field, Grid2D, dx_m, dy_j
from prandtl_lab.profiles import (ShearProfile, build_perturbation, build_shear_profile,
                                  check_compatibility, validate_assumption)

from conftest import REF


def test_bare_normalization_integral():
    # with y0=2, alpha=2 and the correction dropped, the normalization
    # integral is 1/2 (so the bare amplitude would be 2); quadrature oracle
    val, err = quad(lambda y: (2.0 - y) * (1.0 + y) ** -3, 0, np.inf)
    assert err < 1e-10
    assert abs(val - 0.5) < 1e-10


def test_profile_construction(grid, profile):
    p = profile
    assert p.u0s[0] == 0.0
    assert abs(p.derivs[1][0]) <= 1e-10          # forced u''(0) = 0
    assert abs(p.u0s[-1] - 1.0) <= 1e-6
    # critical point exactly at y0: the derivative factor changes sign there
    d1 = p.derivs[0]
    i = np.searchsorted(grid.y_nodes, p.y0)
    assert d1[i - 1] > 0 > d1[i + 1]
    # correction constant
    assert np.isclose(p.correction, (1 + 3 * 2.0) / 2.0)


def test_profile_rejects_bad_inputs(grid):
    with pytest.raises(ValueError):
        build_shear_profile(grid, -1.0, 2.0)
    with pytest.raises(ValueError):
        build_shear_profile(grid, 2.0, 0.5)


def test_validate_assumption_reference(assumption):
    assert assumption.all_pass
    assert assumption.c0 > 0
    assert 0 < assumption.c1 < 1
    assert 0 < assumption.delta < 1.0


@pytest.mark.parametrize("y0,alpha", [(1.5, 1.5), (2.0, 2.5), (3.0, 2.0)])
def test_assumption_passes_over_family(y0, alpha):
    g = Grid2D(64, 257)
    p = build_shear_profile(g, y0, alpha)
    rep = validate_assumption(p)
    assert rep.all_pass, rep.failing


def test_monotone_profile_fails_clause_i(grid):
    y = grid.y_nodes
    u0s = 1.0 - np.exp(-y)
    derivs = np.array([np.exp(-y) * s for s in (1, -1, 1, -1, 1, -1)])
    p = ShearProfile(grid=grid, y0=2.0, alpha=2.0, amplitude=1.0, correction=0.0,
                     u0s=u0s, derivs=derivs)
    rep = validate_assumption(p)
    assert not rep.passes["i"]


def test_curved_wall_profile_fails_clause_iii(grid, profile):
    bad = ShearProfile(grid=grid, y0=profile.y0, alpha=profile.alpha,
                       amplitude=profile.amplitude, correction=profile.correction,
                       u0s=profile.u0s.copy(), derivs=profile.derivs.copy())
    bad.derivs = bad.derivs.copy()
    bad.derivs[1] = bad.derivs[1] + 0.05    # u''(0) != 0 now
    rep = validate_assumption(bad)
    assert not rep.passes["iii"]


def test_zero_perturbation(grid, profile):
    z = build_perturbation(grid, 0.0, 1, profile)
    assert np.all(z.values == 0.0)
    cr = check_compatibility(z, profile)
    assert cr.res_value == cr.res_dyomega == cr.res_third == 0.0


def test_compatibility_of_built_perturbation(grid, profile, u0):
    cr = check_compatibility(u0, profile)
    tol = 1e-8 * REF["amp"]
    assert cr.res_value <= tol
    assert cr.res_dyomega <= tol
    assert cr.res_third <= tol


@pytest.mark.parametrize("amp,kx", [(1e-4, 1), (1e-2, 2), (1e-1, 3)])
def test_compatibility_across_amplitudes(grid, profile, amp, kx):
    u = build_perturbation(grid, amp, kx, profile)
    cr = check_compatibility(u, profile)
    assert max(cr.res_value, cr.res_dyomega, cr.res_third) <= 1e-8 * amp


def test_perturbation_guards(grid, profile):
    with pytest.raises(ValueError):
        build_perturbation(grid, 1e-3, grid.Nx // 8 + 1, profile)
    with pytest.raises(ValueError):
        build_perturbation(grid, -1.0, 1, profile)


def test_first_pass_linearity(grid, profile):
    """Pass one is exactly linear in amp; the full construction differs only
    by the correction, whose coefficient splits into amp and amp^2 parts."""
    u1 = build_perturbation(grid, 1e-3, 1, profile)
    u2 = build_perturbation(grid, 2e-3, 1, profile)
    # Richardson: B(amp) = c1*amp + c2*amp^2  =>  2*u(amp) - u(2amp) isolates
    # the quadratic part, which is O(amp^2) small
    resid = 2.0 * u1.values - u2.values
    assert np.max(np.abs(resid)) <= 5.0 * (1e-3) ** 2


def test_correction_fourth_derivative_matches_coefficient(grid, profile):
    """The wall d_y^4 of the added correction equals its x-coefficient."""
    amp, kx = 1e-3, 1
    u_full = build_perturbation(grid, amp, kx, profile)
    phi = grid.y_nodes * 0.0
    from prandtl_lab.profiles import perturbation_envelope
    phi = perturbation_envelope(grid)
    sx = np.sin(2 * np.pi * kx * grid.x_nodes / grid.Lx)
    u1 = Field(grid, np.outer(amp * sx, phi))
    corr = Field(grid, u_full.values - u1.values)
    om1 = dy_j(u1, 1)
    B = (profile.omega0s[0] + om1.values[:, 0]) * dx_m(om1, 1).values[:, 0] \
        - dy_j(om1, 3).values[:, 0]
    got = dy_j(dy_j(corr, 1), 3).values[:, 0]
    assert np.max(np.abs(got - B)) <= 1e-10 * max(np.max(np.abs(B)), 1e-30)


def test_third_condition_hand_oracle(grid, profile):
    """u = sin(x) * y: first two conditions hold on the nose, the third
    residual equals max |(omega0s(0) + sin x) cos x| over the x-nodes."""
    u = Field.from_function(grid, lambda X, Y: np.sin(X) * Y)
    cr = check_compatibility(u, profile)
    assert cr.res_value == 0.0
    assert cr.res_dyomega <= 1e-12
    x = grid.x_nodes
    expect = np.max(np.abs((profile.omega0s[0] + np.sin(x)) * np.cos(x)))
    assert np.isclose(cr.res_third, expect, rtol=1e-10)
