import math
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import prandtl_lab.cutoffs as CU
from prandtl_lab.cutoffs import AuxWorkspace
from prandtl_lab.grid import Field, dy_j, weighted_l2, x_spectrum
from prandtl_lab.norms import (GevreyParams, _weighted_norms_all_m, full_raw, gevrey_norm,
                               gevrey_raw, lifespan_norm)
from prandtl_lab.shear import evolve_shear
import prandtl_lab.verify as V

from conftest import REF, sampled


def _raw(u, p, profile):
    """The base seminorms of u, read from its bundle with the t = 0 shear
    state (the base group does not read the shear)."""
    return gevrey_raw(AuxWorkspace(u, evolve_shear(profile, 0.0)), p)


def _base(u, p, profile):
    return gevrey_norm(_raw(u, p, profile), p)


def _extended(u, st, cut, p):
    return gevrey_norm(full_raw(u, st, cut, p), p, with_aux=True)


def _entries(raw):
    """Every rho-independent seminorm of a raw, flattened."""
    return np.concatenate([raw.tang_u, raw.tang_om, list(raw.mixed.values())])


def test_params_validation():
    with pytest.raises(ValueError, match="sigma"):
        GevreyParams(rho=0.3, sigma=2.5)
    with pytest.raises(ValueError, match="ell"):
        GevreyParams(rho=0.3, ell=2.6, alpha=2.0)    # ell >= alpha + 1/2
    with pytest.raises(ValueError, match="Mmax"):
        GevreyParams(rho=0.3, Mmax=5)
    with pytest.raises(ValueError, match="rho"):
        GevreyParams(rho=-1.0)


def test_zero_field(grid, params, profile):
    raw = _raw(Field(grid, np.zeros((grid.Nx, grid.Ny))), params, profile)
    assert gevrey_norm(raw, params) == 0.0
    assert np.all(_entries(raw) == 0.0)


def test_single_mode_hand_value(grid, params, profile):
    """u = a sin(kx) phi(y): the tangential-u supremand at order m is
    rho^(m-5)/((m-6)!)^sigma * k^m * a * |<y>^(l-1) phi|_{L2_y} * sqrt(Lx/2)."""
    a = 0.37
    phi = np.exp(-grid.y_nodes)
    for k, m in ((1, 6), (2, 7)):
        u = Field(grid, a * np.outer(np.sin(k * grid.x_nodes), phi))
        raw = _raw(u, params, profile)
        wy = grid.trapz_weights()
        phin = np.sqrt(np.sum(wy * (1 + grid.y_nodes) ** (2 * (params.ell - 1)) * phi**2))
        expect = (params.rho ** (m - 5) / math.factorial(m - 6) ** params.sigma
                  * float(k) ** m * a * phin * np.sqrt(grid.Lx / 2.0))
        got = params.weight(m) * raw.tang_u[m]
        assert np.isclose(got, expect, rtol=1e-10)


def test_rho_monotonicity(grid, params, profile):
    rng = np.random.default_rng(2)
    for _ in range(20):
        vals = np.zeros((grid.Nx, grid.Ny))
        for k in range(1, 6):
            vals += rng.normal() / k**2 * np.outer(np.sin(k * grid.x_nodes + rng.normal()),
                                                   np.exp(-grid.y_nodes / rng.uniform(1, 4)))
        u = Field(grid, vals)
        lo = _base(u, replace(params, rho=0.2), profile)
        hi = _base(u, replace(params, rho=0.8), profile)
        assert lo <= hi + 1e-12


def test_homogeneity_of_base_norm(grid, params, profile, cutoffs, u0):
    raw1 = _raw(u0, params, profile)
    raw2 = _raw(Field(grid, 2.0 * u0.values), params, profile)
    assert np.allclose(_entries(raw2), 2.0 * _entries(raw1), rtol=1e-9, atol=1e-300)
    assert np.isclose(gevrey_norm(raw2, params), 2.0 * gevrey_norm(raw1, params), rtol=1e-9)
    # the extended norm is NOT homogeneous: aux functions are nonlinear in u
    st = evolve_shear(profile, 0.0)
    f1 = _extended(u0, st, cutoffs, params)
    f2 = _extended(Field(grid, 2.0 * u0.values), st, cutoffs, params)
    assert abs(f2 - 2.0 * f1) > 1e-9 * f1


def test_parseval_path_equals_physical(grid, params, profile, u0):
    from prandtl_lab.grid import dx_m
    m = 7
    direct = weighted_l2(dx_m(u0, m), params.ell - 1.0)
    got = _raw(u0, params, profile).tang_u[m]
    assert np.isclose(direct, got, rtol=1e-10)


def _aux_oracle(ws, cut, m, ell):
    """The four cancellation-group seminorms at order m, summed in physical
    space from the bundle's fields and the cut-offs."""
    chi1, chi2 = cut.chi1[None, :], cut.chi2[None, :]
    f, h = Field(ws.grid, chi1 * ws.q_f(m)), Field(ws.grid, chi2 * ws.q_h(m))
    chi2_dyom = Field(ws.grid, chi2 * ws.dxdyom(m).values)
    return (weighted_l2(ws.g(m), 0.0), weighted_l2(f, ell),
            weighted_l2(h, 0.0), weighted_l2(chi2_dyom, 0.0))


@pytest.mark.parametrize("datum", ["reference_row", "two_modes"])
def test_aux_groups_equal_physical_sums(grid, params, profile, cutoffs, traj_picard, datum):
    """full_raw takes g_m and chi2 d_y dx^m omega by Parseval from the
    bundle's spectra and folds the cut-offs into the y-weights of f_m and
    h_m; every entry matches the physical-space sum to 1e-13, on a stored
    row of the reference run and on a datum with modes kx = 3 and 7, whose
    g1 spectrum reaches mode 14."""
    from prandtl_lab.profiles import build_perturbation
    if datum == "reference_row":
        u, st = traj_picard.u[16], evolve_shear(traj_picard.profile, traj_picard.times[16])
    else:
        u = Field(grid, build_perturbation(grid, 1e-3, 3, profile).values
                  + build_perturbation(grid, 4e-4, 7, profile).values)
        st = evolve_shear(profile, 0.0)
    raw = full_raw(u, st, cutoffs, params)
    ws = AuxWorkspace(u, st, cutoffs)
    assert sorted(raw.aux) == list(range(1, params.Mmax + 1))
    for m, got in raw.aux.items():
        np.testing.assert_allclose(got, _aux_oracle(ws, cutoffs, m, params.ell), rtol=1e-13, atol=0.0)
    if datum == "two_modes":
        assert np.count_nonzero(np.abs(ws.spec_g1).max(axis=1)) >= 4


def test_norm_ordering(grid, params, profile, cutoffs, u0):
    st = evolve_shear(profile, 0.0)
    assert _base(u0, params, profile) <= _extended(u0, st, cutoffs, params)


def test_truncation_stability(grid, profile, cutoffs, u0):
    """Raising Mmax by 2 moves the total by well under a percent."""
    st = evolve_shear(profile, 0.0)
    t10 = _extended(u0, st, cutoffs, GevreyParams(rho=0.3, Mmax=10))
    t12 = _extended(u0, st, cutoffs, GevreyParams(rho=0.3, Mmax=12))
    assert abs(t12 - t10) <= 1e-2 * t10


def test_mmax_guard(profile, u0):
    with pytest.raises(ValueError, match="anti-aliasing"):
        _raw(u0, GevreyParams(rho=0.3, Mmax=33), profile)


def test_lifespan_zero_and_t0(grid, params, profile, cutoffs, u0, traj_imex):
    # two stored times: the second lies past T = 0 and is never read
    times = traj_imex.times[:2]
    states = [evolve_shear(traj_imex.profile, t) for t in times]
    zero = Field(grid, np.zeros((grid.Nx, grid.Ny)))
    zero_raws = [full_raw(zero, st, cutoffs, params) for st in states]
    assert lifespan_norm(zero_raws, times, 1.0, 0.0, params, 0.5) == 0.0

    # at T=0 the sup over rho reduces to the largest admissible grid radius
    raws = [full_raw(u, st, cutoffs, params) for u, st in zip(traj_imex.u, states)]
    val = lifespan_norm(raws, times, 1.0, 0.0, params, 0.5)
    rhos = 0.5 * (np.arange(16) + 1.0) / 17.0
    st = states[0]
    expect = _extended(traj_imex.u[0], st, cutoffs, replace(params, rho=float(rhos[-1])))
    assert np.isclose(val, expect, rtol=1e-9)


def test_lifespan_guard(params, traj_imex):
    with pytest.raises(ValueError, match="rho0/lambda"):
        lifespan_norm([], traj_imex.times, 100.0, 1.0, params, 0.5)


def test_extended_norm_zero_field(grid, profile, cutoffs, params):
    st = evolve_shear(profile, 0.0)
    assert _extended(Field(grid, np.zeros((grid.Nx, grid.Ny))), st, cutoffs, params) == 0.0


def test_aux_group_dominance_tracks_support(grid, assumption, profile, cutoffs, params):
    """A perturbation living on the critical strip loads the h-type terms;
    one supported away from it loads the f-type terms instead."""
    from prandtl_lab.grid import weighted_l2 as wl2
    st = evolve_shear(profile, 0.0)
    y0 = assumption.y0
    on_strip = sampled(grid, lambda X, Y: 1e-3 * np.sin(X) * np.exp(-80.0 * (Y - y0) ** 2))
    off_strip = sampled(grid, lambda X, Y: 1e-3 * np.sin(X) * Y * np.exp(-2.0 * Y**2))

    def f_h_weight(u):
        ws = AuxWorkspace(u, st, cutoffs)
        f = max(wl2(Field(grid, cutoffs.chi1[None, :] * ws.q_f(m)), params.ell) for m in (1, 2, 3))
        h = max(wl2(Field(grid, cutoffs.chi2[None, :] * ws.q_h(m)), 0.0) for m in (1, 2, 3))
        return f, h

    f_on, h_on = f_h_weight(on_strip)
    f_off, h_off = f_h_weight(off_strip)
    assert h_on > f_on
    assert f_off > h_off


@pytest.mark.parametrize("sigma", [1.5, 2.0])
def test_sigma_range_endpoints(grid, profile, cutoffs, u0, sigma):
    """Both endpoints of the admissible tangential-regularity index work."""
    st = evolve_shear(profile, 0.0)
    p = GevreyParams(rho=0.3, sigma=sigma)
    total = _extended(u0, st, cutoffs, p)
    assert np.isfinite(total) and total > 0
    # stronger factorial damping (larger sigma) cannot increase the total
    softer = _extended(u0, st, cutoffs, GevreyParams(rho=0.3, sigma=1.5))
    assert total <= softer + 1e-12


def test_full_raw_holds_one_tangential_order(traj_picard, cutoffs, params, monkeypatch):
    """While full_raw reads order m, its bundle holds no x-derivative of
    another order: every x-derivative the bundle serves is watched by a weak
    reference, and as each is read none of another order is alive.  Each
    derivative of u, omega and d_y omega is still formed once per order, and
    the seminorms equal those of a bundle that keeps every order."""
    seen, stale, formed = [], [], []
    real_dx, real_spec = AuxWorkspace._dx, CU.dx_m_spec

    def watched(self, name, m):
        out = real_dx(self, name, m)
        seen.append((m, weakref.ref(out.values)))
        stale.extend((k, m) for k, r in seen if k != m and r() is not None)
        return out

    monkeypatch.setattr(AuxWorkspace, "_dx", watched)
    monkeypatch.setattr(CU, "dx_m_spec", lambda g, spec, m: formed.append(m) or real_spec(g, spec, m))
    u, t = traj_picard.u[-1], traj_picard.times[-1]
    st = evolve_shear(traj_picard.profile, t)
    raw = full_raw(u, st, cutoffs, params)
    assert sorted(raw.aux) == list(range(1, params.Mmax + 1))
    assert stale == []
    assert Counter(formed) == {m: 3 for m in range(1, params.Mmax + 1)}
    monkeypatch.setattr(AuxWorkspace, "release", lambda self, *members: None)
    kept = full_raw(u, st, cutoffs, params)
    assert np.array_equal(kept.tang_u, raw.tang_u) and np.array_equal(kept.tang_om, raw.tang_om)
    assert (kept.mixed, kept.aux) == (raw.mixed, raw.aux)


# relative gap allowed between the base norms of the reference grid and its
# dy-refinement companion at one node, fixed before the test was first run:
# the two grids differ by 10% at t = 0
_DY_REFINEMENT_BOUND = 0.25


@pytest.mark.xfail(strict=True, reason="ROADMAP direction 1: for t > 0 the base norm comes "
                   "mostly from the far-field y-rows, so it is not resolved in dy")
def test_base_norm_agrees_under_dy_refinement(lab, traj_imex, traj_fine, params):
    """At every residual node (each evaluation triple), the base Gevrey norm
    of the imex solve at cfg.nt on the reference grid (Ny = 257) and on the
    dy-refinement companion (Ny = 513) agree within _DY_REFINEMENT_BOUND of
    the latter."""
    coarse = traj_imex
    assert len(coarse.times) == len(traj_fine.times) == REF.nt + 1
    for i in sorted({j for c in V._eval_indices(REF.nt) for j in (c - 1, c, c + 1)}):
        st_c, st_f = (evolve_shear(t.profile, t.times[i]) for t in (coarse, traj_fine))
        norm_c = gevrey_norm(full_raw(coarse.u[i], st_c, lab.cut, params), params)
        norm_f = gevrey_norm(full_raw(traj_fine.u[i], st_f, lab.fine.cut, params), params)
        assert abs(norm_c - norm_f) <= _DY_REFINEMENT_BOUND * norm_f, (i, norm_c, norm_f)


# the last y-rows that the far-field test weighs, and the share of the
# squared seminorm they may carry, both fixed before the test was first run
_FAR_ROWS = 5
_FAR_SHARE = 0.1


@pytest.mark.xfail(strict=True, reason="ROADMAP direction 1: the sine basis puts a far-field "
                   "layer at Ymax, which carries most of the d_y^4 omega seminorm for t > 0")
def test_far_field_rows_carry_little_of_the_mixed_seminorm(traj_picard, params):
    """At every t > 0 node of the reference Picard solve, the last _FAR_ROWS
    y-rows carry under _FAR_SHARE of the squared |<y>^(ell+1) d_x d_y^4 omega|
    seminorm, the sup of the norm's dominant mixed group: the seminorm
    without them (those quadrature weights zeroed) keeps the rest.  Measured
    at the parent: a share of 0 at t = 0, 0.49 at T/32 and 0.99 at T."""
    g = traj_picard.grid
    w = g.y_weights(params.ell + 1.0)
    w_near = w.copy()
    w_near[-_FAR_ROWS:] = 0.0
    shares = []
    for u in traj_picard.u[1:]:
        spec = x_spectrum(dy_j(dy_j(u, 1), 4).values)
        [whole], [near] = (_weighted_norms_all_m(g, spec, wy, [1]) for wy in (w, w_near))
        shares.append(1.0 - (near / whole) ** 2)
    assert max(shares) < _FAR_SHARE, shares
