import copy
import math

import numpy as np
import pytest

from prandtl_lab.cutoffs import build_cutoffs
from prandtl_lab.grid import Field, weighted_l2
from prandtl_lab.norms import (GevreyParams, _traj_raw_cache, full_norm, gevrey_norm,
                               lifespan_norm)
from prandtl_lab.shear import evolve_shear
from prandtl_lab.solver import Trajectory, recover_v


def test_params_validation():
    with pytest.raises(ValueError, match="sigma"):
        GevreyParams(rho=0.3, sigma=2.5)
    with pytest.raises(ValueError, match="ell"):
        GevreyParams(rho=0.3, ell=2.6, alpha=2.0)    # ell >= alpha + 1/2
    with pytest.raises(ValueError, match="Mmax"):
        GevreyParams(rho=0.3, Mmax=5)
    with pytest.raises(ValueError, match="rho"):
        GevreyParams(rho=-1.0)


def test_zero_field(grid, params):
    rep = gevrey_norm(Field.zeros(grid), params)
    assert rep.total == 0.0
    assert all(v == 0.0 for v in rep.entries.values())


def test_single_mode_hand_value(grid, params):
    """u = a sin(kx) phi(y): the tangential-u supremand at order m is
    rho^(m-5)/((m-6)!)^sigma * k^m * a * |<y>^(l-1) phi|_{L2_y} * sqrt(Lx/2)."""
    a = 0.37
    phi = np.exp(-grid.y_nodes)
    for k, m in ((1, 6), (2, 7)):
        u = Field(grid, a * np.outer(np.sin(k * grid.x_nodes), phi))
        rep = gevrey_norm(u, params)
        wy = grid.trapz_weights()
        phin = np.sqrt(np.sum(wy * (1 + grid.y_nodes) ** (2 * (params.ell - 1)) * phi**2))
        expect = (params.rho ** (m - 5) / math.factorial(m - 6) ** params.sigma
                  * float(k) ** m * a * phin * np.sqrt(grid.Lx / 2.0))
        got = rep.entries[f"u:m={m}"]
        assert np.isclose(got, expect, rtol=1e-10)


def test_rho_monotonicity(grid, params):
    rng = np.random.default_rng(2)
    for _ in range(20):
        vals = np.zeros((grid.Nx, grid.Ny))
        for k in range(1, 6):
            vals += rng.normal() / k**2 * np.outer(np.sin(k * grid.x_nodes + rng.normal()),
                                                   np.exp(-grid.y_nodes / rng.uniform(1, 4)))
        u = Field(grid, vals)
        lo = gevrey_norm(u, params.with_rho(0.2)).total
        hi = gevrey_norm(u, params.with_rho(0.8)).total
        assert lo <= hi + 1e-12


def test_homogeneity_of_base_norm(grid, params, profile, cutoffs, u0):
    rep1 = gevrey_norm(u0, params)
    rep2 = gevrey_norm(Field(grid, 2.0 * u0.values), params)
    for k, v in rep1.entries.items():
        assert np.isclose(rep2.entries[k], 2.0 * v, rtol=1e-9, atol=1e-300)
    # the extended norm is NOT homogeneous: aux functions are nonlinear in u
    st = evolve_shear(profile, 0.0)
    f1 = full_norm(u0, st, cutoffs, params).total
    f2 = full_norm(Field(grid, 2.0 * u0.values), st, cutoffs, params).total
    assert abs(f2 - 2.0 * f1) > 1e-9 * f1


def test_parseval_path_equals_physical(grid, params, u0):
    from prandtl_lab.grid import dx_m
    raw_repr = gevrey_norm(u0, params)
    m = 7
    direct = weighted_l2(dx_m(u0, m), params.ell - 1.0)
    got = raw_repr.entries[f"u:m={m}"] / params.weight(m)
    assert np.isclose(direct, got, rtol=1e-10)


def test_norm_ordering_and_argmax(grid, params, profile, cutoffs, u0):
    st = evolve_shear(profile, 0.0)
    base = gevrey_norm(u0, params)
    ext = full_norm(u0, st, cutoffs, params)
    assert base.total <= ext.total
    assert ext.argmax in ext.entries
    assert np.isclose(ext.entries[ext.argmax], max(ext.entries.values()))


def test_truncation_stability(grid, profile, cutoffs, u0):
    """Raising Mmax by 2 moves the total by well under a percent."""
    st = evolve_shear(profile, 0.0)
    t10 = full_norm(u0, st, cutoffs, GevreyParams(rho=0.3, Mmax=10)).total
    t12 = full_norm(u0, st, cutoffs, GevreyParams(rho=0.3, Mmax=12)).total
    assert abs(t12 - t10) <= 1e-2 * t10
    rep = gevrey_norm(u0, GevreyParams(rho=0.3, Mmax=10))
    assert np.isfinite(rep.truncation_tail)


def test_mmax_guard(u0):
    with pytest.raises(ValueError, match="anti-aliasing"):
        gevrey_norm(u0, GevreyParams(rho=0.3, Mmax=33))


def test_lifespan_zero_and_t0(grid, params, profile, cutoffs, u0, traj_imex):
    import dataclasses
    # replace() gives the copy its own memo caches; a shallow copy would share them
    zero_traj = dataclasses.replace(traj_imex, u=[Field.zeros(grid) for _ in traj_imex.times])
    assert lifespan_norm(zero_traj, 1.0, 0.0, params, 0.5, cutoffs) == 0.0

    # at T=0 the sup over rho reduces to the largest admissible grid radius
    val = lifespan_norm(traj_imex, 1.0, 0.0, params, 0.5, cutoffs)
    rhos = 0.5 * (np.arange(16) + 1.0) / 17.0
    st = traj_imex.shear[0]
    expect = full_norm(traj_imex.u[0], st, cutoffs, params.with_rho(float(rhos[-1]))).total
    assert np.isclose(val, expect, rtol=1e-9)


def test_lifespan_guard(params, cutoffs, traj_imex):
    with pytest.raises(ValueError, match="rho0/lambda"):
        lifespan_norm(traj_imex, 100.0, 1.0, params, 0.5, cutoffs)


def test_report_serialization(tmp_path, params, u0):
    rep = gevrey_norm(u0, params)
    path = tmp_path / "norm.json"
    rep.to_json(path)
    import json
    data = json.loads(path.read_text())
    assert np.isclose(data["total"], rep.total)
    assert data["argmax"] == rep.argmax


def test_full_norm_zero_field(grid, profile, cutoffs, params):
    st = evolve_shear(profile, 0.0)
    rep = full_norm(Field.zeros(grid), st, cutoffs, params)
    assert rep.total == 0.0


def test_aux_group_dominance_tracks_support(grid, assumption, profile, cutoffs, params):
    """A perturbation living on the critical strip loads the h-type terms;
    one supported away from it loads the f-type terms instead."""
    from prandtl_lab.cutoffs import AuxWorkspace
    from prandtl_lab.grid import weighted_l2 as wl2
    st = evolve_shear(profile, 0.0)
    y0 = assumption.y0
    on_strip = Field.from_function(
        grid, lambda X, Y: 1e-3 * np.sin(X) * np.exp(-80.0 * (Y - y0) ** 2))
    off_strip = Field.from_function(
        grid, lambda X, Y: 1e-3 * np.sin(X) * Y * np.exp(-2.0 * Y**2))

    def f_h_weight(u):
        ws = AuxWorkspace(u, st, cutoffs)
        f = max(wl2(ws.f(m), params.ell) for m in (1, 2, 3))
        h = max(wl2(ws.h(m), 0.0) for m in (1, 2, 3))
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
    rep = full_norm(u0, st, cutoffs, p)
    assert np.isfinite(rep.total) and rep.total > 0
    # stronger factorial damping (larger sigma) cannot increase the total
    softer = full_norm(u0, st, cutoffs, GevreyParams(rho=0.3, sigma=1.5)).total
    assert rep.total <= softer + 1e-12


def test_raw_cache_keyed_by_value(grid, assumption, profile, u0, params):
    """Equal-valued cut-off sets share the cached seminorms, and a set with
    another delta never gets theirs (object ids are reused after collection,
    so they cannot serve as the key)."""
    st = evolve_shear(profile, 0.0)
    traj = Trajectory(grid=grid, times=np.array([0.0]), u=[u0], v=[recover_v(u0)],
                      shear=[st], scheme="imex", eps=0.1)
    y0, d = assumption.y0, assumption.delta
    cut_a, cut_b = build_cutoffs(grid, y0, d), build_cutoffs(grid, y0, d)
    first = _traj_raw_cache(traj, cut_a, params)(0)
    assert _traj_raw_cache(traj, cut_b, params)(0) is first
    other = _traj_raw_cache(traj, build_cutoffs(grid, y0, 0.8 * d), params)(0)
    assert other is not first
    assert other.aux[1] != first.aux[1]


def test_trajectory_copy_gets_fresh_memos(grid, profile, u0, cutoffs, params):
    """A copy whose u is replaced must not be served the original's cached
    seminorms (a shallow copy would share the memo dicts)."""
    st = evolve_shear(profile, 0.0)
    traj = Trajectory(grid=grid, times=np.array([0.0]), u=[u0], v=[recover_v(u0)],
                      shear=[st], scheme="imex", eps=0.1)
    real = _traj_raw_cache(traj, cutoffs, params)(0)
    zero = copy.copy(traj)
    zero.u = [Field.zeros(grid)]
    assert zero.raw_cache is not traj.raw_cache
    assert zero.residuals is not traj.residuals
    raw = _traj_raw_cache(zero, cutoffs, params)(0)
    assert raw is not real
    assert np.all(raw.tang_u == 0.0)
    assert _traj_raw_cache(traj, cutoffs, params)(0) is real
