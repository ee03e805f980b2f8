from collections import Counter

import numpy as np
import pytest
import sympy as sp

import prandtl_lab.cutoffs as C
from prandtl_lab.cutoffs import AuxWorkspace, DenominatorFloorError, build_cutoffs
from prandtl_lab.grid import Field, dy_j
from prandtl_lab.shear import evolve_shear
import prandtl_lab.verify as V


def test_cutoff_plateaus(grid, assumption, cutoffs):
    y = grid.y_nodes
    y0, d = assumption.y0, assumption.delta
    iy0 = np.argmin(np.abs(y - y0))
    assert cutoffs.chi1[iy0] == 0.0
    assert cutoffs.chi2[iy0] == 1.0
    outside = np.abs(y - y0) >= 1.5 * d + 1e-12
    assert np.all(cutoffs.chi1[outside] == 1.0)
    assert np.all(cutoffs.chi2[np.abs(y - y0) >= 1.75 * d + 1e-12] == 0.0)
    assert np.all((cutoffs.chi1 >= 0) & (cutoffs.chi1 <= 1))
    assert np.all((cutoffs.chi2 >= 0) & (cutoffs.chi2 <= 1))


def test_support_identities_exact(cutoffs):
    """On values: chi2 == 1 across chi1's transition band, chi1 == 1 across
    chi2's (empty at the reference delta: no node falls inside it)."""
    c = cutoffs
    band1 = (c.chi1 > 0.0) & (c.chi1 < 1.0)
    band2 = (c.chi2 > 0.0) & (c.chi2 < 1.0)
    assert band1.any()
    assert np.all(c.chi2[band1] == 1.0)
    assert np.all(c.chi1[band2] == 1.0)
    assert np.max(np.abs((1 - c.chi2) - (1 - c.chi2) * c.chi1)) == 0.0


def test_plateau_coverage(cutoffs):
    assert np.min(cutoffs.chi1 + cutoffs.chi2) >= 1.0


def test_band_fit_rejection(grid):
    with pytest.raises(ValueError):
        build_cutoffs(grid, 2.0, 1.5)      # delta >= y0/2
    with pytest.raises(ValueError):
        build_cutoffs(grid, 14.0, 6.0)     # y0 + 3 delta >= Ymax


@pytest.fixture(scope="module")
def shear_state(profile):
    return evolve_shear(profile, 0.0)


def test_shear_only_aux_vanish(grid, shear_state, cutoffs):
    z = Field.zeros(grid)
    ws = AuxWorkspace(z, shear_state, cutoffs)
    for m in (1, 2):
        assert np.max(np.abs(ws.f(m).values)) == 0.0
        assert np.max(np.abs(ws.h(m).values)) == 0.0
        assert np.max(np.abs(AuxWorkspace(z, shear_state).g(m).values)) == 0.0


def test_f_supports(grid, assumption, shear_state, cutoffs, u0):
    ws = AuxWorkspace(u0, shear_state, cutoffs)
    f1 = ws.f(1)
    strip = np.abs(grid.y_nodes - assumption.y0) <= 1.25 * assumption.delta
    assert np.max(np.abs(f1.values[:, strip])) == 0.0
    h1 = ws.h(1)
    off = np.abs(grid.y_nodes - assumption.y0) >= 1.75 * assumption.delta + 1e-12
    assert np.max(np.abs(h1.values[:, off])) == 0.0


def _gtilde(ws, m):
    """gtilde_m = omega_tot dx^m omega - (d_y omega_tot) dx^m u: the top
    x-derivative kept outside the bracket of g_m (test oracle)."""
    return Field(ws.grid, ws.om_tot * ws.dxom(m).values - ws.dyom_tot * ws.dxu(m).values)


def test_g1_equals_gtilde1(grid, shear_state, u0):
    ws = AuxWorkspace(u0, shear_state)
    g1, gt1 = ws.g(1), _gtilde(ws, 1)
    assert np.max(np.abs(g1.values - gt1.values)) <= 1e-15


def test_leibniz_difference_oracle(grid, shear_state, cutoffs, u0):
    """g_m - gtilde_m equals the explicit binomial sum, evaluated
    independently term by term (band-limited data: no aliasing)."""
    ws = AuxWorkspace(u0, shear_state, cutoffs)
    m = 3
    gm, gtm = ws.g(m), _gtilde(ws, m)
    from math import comb
    total = np.zeros((grid.Nx, grid.Ny))
    for j in range(1, m):
        total += comb(m - 1, j) * (ws.dxom(j).values * ws.dxom(m - j).values
                                   - ws.dxdyom(j).values * ws.dxu(m - j).values)
    diff = gm.values - gtm.values
    assert np.max(np.abs(diff - total)) <= 1e-8 * np.max(np.abs(diff)) + 1e-12


def test_two_form_cancellation(grid, assumption, shear_state, cutoffs, u0):
    """Difference form against chi1*(omega_tot)*d_y(quotient), compared away
    from the critical point where the quotient is resolvable."""
    ws = AuxWorkspace(u0, shear_state, cutoffs)
    m = 2
    fm = ws.f(m)
    quot = np.zeros_like(ws.om_tot)
    np.divide(ws.dxu(m).values, ws.om_tot, out=quot, where=np.abs(ws.om_tot) > 1e-12)
    form2 = cutoffs.chi1[None, :] * ws.om_tot * dy_j(Field(grid, quot), 1).values
    mask = np.abs(grid.y_nodes - assumption.y0) >= 1.5
    mask[:2] = mask[-4:] = False
    rowmax = np.max(np.abs(fm.values), axis=0)
    mask &= rowmax >= 0.02 * rowmax.max()
    rel = np.linalg.norm((fm.values - form2)[:, mask]) / np.linalg.norm(fm.values[:, mask])
    assert rel <= 1e-2        # order-4 interior stencil at reference dy


def test_f1_symbolic_probe(grid, profile, cutoffs):
    """Hand-expanded f_1 for u = a sin(x) phi(y) at probe nodes, with phi and
    the shear coefficients taken symbolically."""
    sp_y, sp_x = sp.symbols("y x")
    a_amp = 1e-3
    phi = sp_y * sp.exp(-sp_y**2 / 2)
    u_sym = a_amp * sp.sin(sp_x) * phi
    om_sym = sp.diff(u_sym, sp_y)

    state = evolve_shear(profile, 0.0)
    u = Field.from_function(grid, sp.lambdify((sp_x, sp_y), u_sym, "numpy"))
    f1 = AuxWorkspace(u, state, cutoffs).f(1)

    dxom_sym = sp.lambdify((sp_x, sp_y), sp.diff(om_sym, sp_x), "numpy")
    dxu_sym = sp.lambdify((sp_x, sp_y), sp.diff(u_sym, sp_x), "numpy")
    om_pert = sp.lambdify((sp_x, sp_y), om_sym, "numpy")
    dyom_pert = sp.lambdify((sp_x, sp_y), sp.diff(om_sym, sp_y), "numpy")

    for ix, iy in ((3, 4), (17, 8), (40, 100)):
        xv, yv = grid.x_nodes[ix], grid.y_nodes[iy]
        om_s = profile.derivs[0][iy]
        dyom_s = profile.derivs[1][iy]
        a_coef = (dyom_s + dyom_pert(xv, yv)) / (om_s + om_pert(xv, yv))
        expect = cutoffs.chi1[iy] * (dxom_sym(xv, yv) - a_coef * dxu_sym(xv, yv))
        assert abs(f1.values[ix, iy] - expect) <= 5e-5 * max(abs(expect), a_amp)


def test_h1_symbolic_probe(grid, profile, cutoffs, assumption):
    sp_y, sp_x = sp.symbols("y x")
    a_amp = 1e-3
    u_sym = a_amp * sp.sin(sp_x) * sp_y * sp.exp(-sp_y**2 / 2)
    om_sym = sp.diff(u_sym, sp_y)
    state = evolve_shear(profile, 0.0)
    u = Field.from_function(grid, sp.lambdify((sp_x, sp_y), u_sym, "numpy"))
    h1 = AuxWorkspace(u, state, cutoffs).h(1)

    fdxdyom = sp.lambdify((sp_x, sp_y), sp.diff(om_sym, sp_x, sp_y), "numpy")
    fdxom = sp.lambdify((sp_x, sp_y), sp.diff(om_sym, sp_x), "numpy")
    fdyom = sp.lambdify((sp_x, sp_y), sp.diff(om_sym, sp_y), "numpy")
    fd2yom = sp.lambdify((sp_x, sp_y), sp.diff(om_sym, sp_y, 2), "numpy")
    iy = np.argmin(np.abs(grid.y_nodes - assumption.y0))
    for ix in (5, 50):
        xv, yv = grid.x_nodes[ix], grid.y_nodes[iy]
        b_coef = (profile.derivs[2][iy] + fd2yom(xv, yv)) \
            / (profile.derivs[1][iy] + fdyom(xv, yv))
        expect = cutoffs.chi2[iy] * (fdxdyom(xv, yv) - b_coef * fdxom(xv, yv))
        assert abs(h1.values[ix, iy] - expect) <= 2e-4 * max(abs(expect), a_amp)


def test_denominator_floor_rejection(shear_state, cutoffs, u0, monkeypatch):
    for name, what in (("_FLOOR_F", "f_m coefficient"), ("_FLOOR_H", "h_m coefficient")):
        with monkeypatch.context() as mp:
            mp.setattr(C, name, 10.0)
            with pytest.raises(DenominatorFloorError, match=f"{what}.*floor"):
                AuxWorkspace(u0, shear_state, cutoffs)


def test_frozen_coefficient_linearity(grid, shear_state, cutoffs, u0):
    """With the quotient coefficient frozen (computed once from u), the map
    u -> chi1*(dx^m omega - a dx^m u) is linear in the top derivative."""
    ws = AuxWorkspace(u0, shear_state, cutoffs)
    a = ws.a
    w = Field(grid, 0.5 * u0.values)

    def frozen_f(field):
        wsf = AuxWorkspace(field, shear_state, cutoffs)
        return cutoffs.chi1[None, :] * (wsf.dxom(2).values - a * wsf.dxu(2).values)

    lhs = frozen_f(Field(grid, u0.values + w.values))
    rhs = frozen_f(u0) + frozen_f(w)
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * max(np.max(np.abs(rhs)), 1e-30) + 1e-15


def _count_dx_calls(monkeypatch):
    """Counts dx_m_spec calls per (spectrum object, order)."""
    calls = Counter()
    real = C.dx_m_spec

    def counting(grid, spec, m):
        calls[id(spec), m] += 1
        return real(grid, spec, m)

    monkeypatch.setattr(C, "dx_m_spec", counting)
    return calls


def test_bundle_computes_each_x_derivative_once(grid, shear_state, cutoffs, u0, monkeypatch):
    """f, h, g and chi2 d_y omega share their x-derivatives: each (spectrum,
    order) pair reaches dx_m_spec once per bundle, and is read-only."""
    calls = _count_dx_calls(monkeypatch)
    ws = AuxWorkspace(u0, shear_state, cutoffs)
    for _ in range(2):
        for m in (1, 2, 3):
            ws.f(m), ws.h(m), ws.g(m), ws.chi2_dyom(m)
    assert max(calls.values()) == 1
    assert len(calls) == 3 * 3 + 3       # u, omega, d_y omega at m = 1..3; g1 at 0..2
    assert ws.dxom(2) is ws.dxom(2)
    with pytest.raises(ValueError, match="read-only"):
        ws.dxu(1).values[0, 0] = 1.0


def test_snapshot_memo_and_read_only_packs(traj_imex, monkeypatch):
    calls = _count_dx_calls(monkeypatch)
    s = V.Snapshot(traj_imex, 4)
    for _ in range(2):
        for m in range(4):
            s.dxu(m), s.dxom(m), s.dxdyom(m), s.dxd2yom(m), s.dxv(m), s.g(m + 1)
        s.quotient_pack_f, s.quotient_pack_h
    assert max(calls.values()) == 1
    assert len(calls) == 6 * 4
    assert s.quotient_pack_f is s.quotient_pack_f
    for arr in s.quotient_pack_f + s.quotient_pack_h:
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        s.g(2).values[0, 0] = 1.0
