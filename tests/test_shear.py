import dataclasses

import numpy as np
import pytest
from scipy.special import erf

from prandtl_lab.grid import Grid2D
from prandtl_lab.profiles import ShearProfile, build_shear_profile
import prandtl_lab.shear as S
from prandtl_lab.shear import (_kernel_derivs_upto, _lift, check_proposition_shear,
                               evolve_shear, proposition_clauses)

from conftest import REF


def _dense_quadrature(p, t):
    """Rows d_y^j u^s, j = 0..6, from the kernel evaluated on the full
    Ny x Nf arrays y_i - s_k and y_i + s_k."""
    y, yq = p.grid.y_nodes, p.y_fine
    h = yq[1] - yq[0]
    wq = np.full(yq.shape, h)
    wq[0] = wq[-1] = 0.5 * h
    w0w = (p.u0s_fine - _lift(yq, 0.0, 0)) * wq
    kd = _kernel_derivs_upto(y[:, None] - yq[None, :], t, 6)
    ks = _kernel_derivs_upto(y[:, None] + yq[None, :], t, 6)
    return np.array([(kd[j] - ks[j]) @ w0w + _lift(y, t, j) for j in range(7)])


def _rows(s):
    return np.vstack([s.us, s.omegas, s.dj_omegas, s.dj_omegas_high])


def test_t0_returns_profile_exactly(profile):
    s = evolve_shear(profile, 0.0)
    assert np.array_equal(s.us, profile.u0s)
    assert np.array_equal(s.omegas, profile.derivs[0])
    assert np.array_equal(s.dj_omegas, profile.derivs[1:4])
    assert np.array_equal(s.dj_omegas_high, profile.derivs[4:6])
    assert profile.state_cache[0.0] is s


def test_orders_above_one_formed_once_on_first_read(profile, monkeypatch):
    """evolve_shear forms rows 0-1 only; the first dj_omegas read forms rows
    2-4 as one block and the first dj_omegas_high read rows 5-6 as another,
    and the state keeps both.  Reading the first block forms no row 5-6."""
    fresh = dataclasses.replace(profile)          # an empty state cache
    calls = []
    real = S._quadrature_rows

    def counting(p, t, j0, j1):
        calls.append((t, j0, j1))
        return real(p, t, j0, j1)

    monkeypatch.setattr(S, "_quadrature_rows", counting)
    t = REF.t_final / 4
    s = evolve_shear(fresh, t)
    assert calls == [(t, 0, 2)]
    d = s.dj_omegas
    assert calls == [(t, 0, 2), (t, 2, 5)]
    assert d.shape == (3, profile.grid.Ny)
    high = s.dj_omegas_high
    assert calls == [(t, 0, 2), (t, 2, 5), (t, 5, 7)]
    assert high.shape == (2, profile.grid.Ny)
    assert s.dj_omegas is d and s.dj_omegas_high is high
    assert evolve_shear(fresh, t).dj_omegas is d
    zero = evolve_shear(fresh, 0.0)
    assert (zero.dj_omegas.shape, zero.dj_omegas_high.shape) == ((3, profile.grid.Ny),
                                                                 (2, profile.grid.Ny))
    assert len(calls) == 3


def test_kernel_table_equals_dense_sum(profile):
    """dy = 30/256 makes every offset h*m exact, so reading the kernel from
    the 1-D table is bitwise the dense double sum, orders 0..6."""
    T = REF.t_final
    for t in (T / 128, T / 32, T, 0.5):
        s = evolve_shear(profile, t)
        assert np.array_equal(_rows(s), _dense_quadrature(profile, t))
        assert s.us[0] == 0.0


def test_kernel_table_off_binary_grid():
    """On Ny = 200 dy is not a binary fraction: offsets round differently
    from y_i -/+ s_k, and the two forms agree to rounding."""
    p = build_shear_profile(Grid2D(REF.nx, 200, REF.lx, REF.ymax),
                            REF.y0, REF.alpha)
    for t in (0.01, 0.05, 0.5):
        got, ref = _rows(evolve_shear(p, t)), _dense_quadrature(p, t)
        for j in range(7):
            assert np.max(np.abs(got[j] - ref[j])) <= 1e-12 * np.max(np.abs(ref[j]))


def test_misaligned_fine_grid_rejected(profile):
    h = profile.y_fine[1] - profile.y_fine[0]
    for y_fine in (profile.y_fine + 0.5 * h, 0.5 * profile.y_fine):
        bad = dataclasses.replace(profile, y_fine=y_fine)
        with pytest.raises(ValueError, match="refinement"):
            evolve_shear(bad, 0.05)


def test_erf_datum_is_self_similar(grid):
    """u0s = erf(y/2) is the lift itself, so the quadrature term vanishes and
    the evolution reproduces the closed-form heat solution exactly."""
    y = grid.y_nodes
    h_fine = grid.dy / 8
    y_fine = h_fine * np.arange(8 * (grid.Ny - 1) + int(np.ceil(8.0 / h_fine)) + 1)
    p = ShearProfile(grid=grid, y0=2.0, alpha=2.0, amplitude=1.0, correction=0.0,
                     u0s=erf(y / 2), derivs=np.zeros((6, grid.Ny)),
                     y_fine=y_fine, u0s_fine=erf(y_fine / 2))
    for t in (0.05, 0.3):
        s = evolve_shear(p, t)
        expect = erf(y / (2.0 * np.sqrt(1.0 + t)))
        assert np.max(np.abs(s.us - expect)) <= 1e-12


def test_wall_value_stays_zero(profile):
    for t in (0.01, 0.3, 1.0):
        s = evolve_shear(profile, t)
        assert abs(s.us[0]) <= 1e-10


def test_negative_time_rejected(profile):
    with pytest.raises(ValueError):
        evolve_shear(profile, -0.1)


def test_kernel_width_warning(profile):
    with pytest.warns(UserWarning, match="truncation"):
        evolve_shear(profile, 4.0)


def test_min_resolved_step_state_is_finite(profile):
    """At the least step the quadrature resolves, every shear order is finite."""
    st = evolve_shear(profile, S.min_resolved_step(profile.grid))
    assert all(np.isfinite(a).all()
               for a in (st.us, st.omegas, st.dj_omegas, st.dj_omegas_high))


def test_maximum_principle(profile):
    lo = profile.u0s.min()
    hi = max(1.0, profile.u0s.max())
    for t in (0.05, 0.5, 1.0):
        s = evolve_shear(profile, t)
        assert s.us.min() >= lo - 1e-9
        assert s.us.max() <= hi + 1e-9


def test_heat_residual_refines_in_dt(profile):
    """|d_t u^s - d_y^2 u^s| with centered time differences, first order+ in dt."""
    t0 = 0.1
    s0 = evolve_shear(profile, t0)
    errs = []
    for h in (2e-3, 1e-3):
        sp = evolve_shear(profile, t0 + h)
        sm = evolve_shear(profile, t0 - h)
        dudt = (sp.us - sm.us) / (2 * h)
        errs.append(np.max(np.abs(dudt - s0.dj_omegas[0])))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.0


def test_proposition_clauses_at_zero(profile, assumption):
    s0 = evolve_shear(profile, 0.0)
    clauses = proposition_clauses(s0, assumption, profile.grid.y_nodes)
    assert all(clauses.values())


def test_proposition_scan(profile, assumption):
    rep = check_proposition_shear(profile, assumption)
    assert rep.ok
    assert rep.T_s >= 0.1
    assert not rep.inconsistent_at_zero


def test_proposition_detects_inflated_c0(profile, assumption):
    inflated = dataclasses.replace(assumption, c0=10.0 * assumption.c0)
    s0 = evolve_shear(profile, 0.0)
    clauses = proposition_clauses(s0, inflated, profile.grid.y_nodes)
    assert not clauses["i"]
