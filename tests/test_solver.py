import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.fft import dst, idst

import prandtl_lab.scipy_ext as E
import prandtl_lab.solver as S
import prandtl_lab.verify as V
from prandtl_lab.grid import Field, dx_m, dy_j, linf, weighted_l2
from prandtl_lab.profiles import build_perturbation
from prandtl_lab.shear import evolve_shear
from prandtl_lab.solver import (SolverConfig, SolverDivergence, heat_propagate, imex_solve,
                                mild_solution, picard_solve, recover_v)

from conftest import REF, _solve, missing_extension, sampled


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0, T=0.1, Nt=8)
    with pytest.raises(ValueError):
        SolverConfig(eps=0.1, T=0.1, Nt=2)
    with pytest.raises(ValueError, match="tol must be positive"):
        SolverConfig(eps=0.1, T=0.1, Nt=8, tol=-1.0)   # every Picard solve would run jmax sweeps


def test_horizon_warning_names_caller(u0, profile):
    """A Picard run that stops at jmax with its update still above tol warns,
    and the warning points at the line that called picard_solve."""
    cfg = SolverConfig(eps=REF.eps, T=REF.t_final, Nt=8, jmax=2, tol=1e-12)
    with pytest.warns(UserWarning, match="jmax=2") as rec:
        traj = picard_solve(u0, profile, cfg)
    assert len(traj.contraction) == 2 and traj.contraction[-1] > cfg.tol
    assert rec[0].filename == __file__


@pytest.mark.parametrize("which", ["reference", "fine"])
def test_modal_transforms_are_scipys(lab, which):
    """_to_modal and _from_modal on the file-loaded DST-I are bitwise the
    ones scipy.fft.dst and idst(type=1) give, on the reference grid and on
    its Ny = 513 companion."""
    assert E.routes()["pocketfft"] == "direct"
    g = (lab if which == "reference" else lab.fine).grid
    vals = np.random.default_rng(g.Ny).standard_normal((g.Nx, g.Ny))
    modal = S._to_modal(g, vals)
    assert np.array_equal(modal, np.fft.rfft(dst(vals[:, 1:-1], type=1, axis=1), axis=0))
    out = np.zeros((g.Nx, g.Ny))
    out[:, 1:-1] = idst(np.fft.irfft(modal, n=g.Nx, axis=0), type=1, axis=1)
    assert np.array_equal(S._from_modal(g, modal), out)


def test_missing_pocketfft_falls_back_to_scipy_fft(fresh_extensions, u0):
    """When the loader finds no pypocketfft, scipy.fft's DST-I propagates
    bitwise the same."""
    heat = heat_propagate(u0, 0.02, REF.eps).values
    missing_extension(fresh_extensions, "pocketfft")
    assert E.compiled("pocketfft") is None
    assert E.routes()["pocketfft"] == "scipy.fft"
    assert np.array_equal(heat_propagate(u0, 0.02, REF.eps).values, heat)


def test_heat_propagate_identity(grid):
    f = sampled(grid, lambda X, Y: np.sin(X) * np.sin(np.pi * Y / grid.Ymax))
    out = heat_propagate(f, 0.0, 0.1)
    assert linf(out - f) <= 1e-12


def test_heat_propagate_eigenfunction(grid):
    f = sampled(grid, lambda X, Y: np.sin(2 * np.pi * X / grid.Lx)
                * np.sin(np.pi * Y / grid.Ymax))
    eps, t = 0.1, 0.3
    lam = (2 * np.pi / grid.Lx) ** 2 * eps + (np.pi / grid.Ymax) ** 2
    out = heat_propagate(f, t, eps)
    assert linf(Field(grid, out.values - np.exp(-lam * t) * f.values)) <= 1e-13


def test_heat_propagate_semigroup(grid):
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(grid.Nx, grid.Ny)) * np.sin(np.pi * grid.y_nodes / grid.Ymax)
    f = Field(grid, vals)
    a = heat_propagate(heat_propagate(f, 0.07, 0.2), 0.13, 0.2)
    b = heat_propagate(f, 0.2, 0.2)
    assert linf(a - b) <= 1e-10 * max(linf(b), 1.0)


def test_duhamel_zero_forcing(grid):
    times = np.linspace(0, 0.1, 9)
    zero = Field(grid, np.zeros((grid.Nx, grid.Ny)))
    out = list(mild_solution(zero, [zero] * len(times), 0.1, times))[8]
    assert linf(out) == 0.0


def test_duhamel_constant_eigenforcing(grid):
    """Constant-in-time joint eigenfunction forcing has the closed form
    (1 - e^{-lam t})/lam; trapezoid quadrature is O(dt^2) accurate."""
    eps = 0.1
    zero = Field(grid, np.zeros((grid.Nx, grid.Ny)))
    f = sampled(grid, lambda X, Y: np.sin(2 * np.pi * X / grid.Lx)
                * np.sin(np.pi * Y / grid.Ymax))
    lam = (2 * np.pi / grid.Lx) ** 2 * eps + (np.pi / grid.Ymax) ** 2
    errs = []
    for nt in (16, 32):
        times = np.linspace(0, 0.5, nt + 1)
        forcing = [f for _ in times]
        out = -list(mild_solution(zero, forcing, eps, times))[nt].values
        expect = (1.0 - np.exp(-lam * 0.5)) / lam
        errs.append(linf(Field(grid, out - expect * f.values)))
    assert errs[0] <= 1e-4
    assert np.log2(errs[0] / errs[1]) >= 1.8


def test_duhamel_forcing_consistency(grid):
    """d_t(D) - L(D) - forcing -> 0, D the Duhamel term, at first order under dt refinement."""
    eps = 0.1
    zero = Field(grid, np.zeros((grid.Nx, grid.Ny)))
    f = sampled(grid, lambda X, Y: np.sin(2 * np.pi * X / grid.Lx)
                * np.sin(2 * np.pi * Y / grid.Ymax) * np.exp(-Y / 5))
    lam_op = lambda u: dy_j(u, 2).values + eps * dx_m(u, 2).values
    errs = []
    for nt in (32, 64):
        times = np.linspace(0, 0.2, nt + 1)
        forcing = [Field(grid, np.cos(3 * t) * f.values) for t in times]
        k = nt // 2
        duh = list(mild_solution(zero, forcing, eps, times))
        dm, d0, dp = (Field(grid, -d.values) for d in duh[k - 1:k + 2])
        dt = times[1] - times[0]
        resid = (dp.values - dm.values) / (2 * dt) - lam_op(d0) - forcing[k].values
        errs.append(np.max(np.abs(resid[:, 5:-5])))
    assert np.log2(errs[0] / errs[1]) >= 0.9


def test_mild_solution_matches_direct_sum(grid):
    """The recursion equals the weighted trapezoid sum
    M1(t_i) u0 - sum_s w_s/2 M1(t_i - t_s) f(t_s) at every node, and with
    zero forcing it is the semigroup applied to u0."""
    eps = 0.1
    rng = np.random.default_rng(3)
    sine = np.sin(np.pi * grid.y_nodes / grid.Ymax)[None, :]
    u0 = Field(grid, rng.normal(size=(grid.Nx, grid.Ny)) * sine)
    times = np.linspace(0, 0.2, 13)
    forcing = [Field(grid, rng.normal(size=(grid.Nx, grid.Ny)) * sine) for _ in times]
    out = list(mild_solution(u0, forcing, eps, times))
    assert len(out) == len(times)
    for i in range(1, len(times)):
        expect = heat_propagate(u0, times[i], eps).values
        for s in range(i + 1):
            w = times[min(s + 1, i)] - times[max(s - 1, 0)]
            expect -= 0.5 * w * heat_propagate(forcing[s], times[i] - times[s], eps).values
        assert linf(Field(grid, out[i].values - expect)) <= 1e-13 * np.max(np.abs(expect))
    zero = Field(grid, np.zeros((grid.Nx, grid.Ny)))
    free = list(mild_solution(u0, [zero] * len(times), eps, times))
    for i, t in enumerate(times):
        assert linf(free[i] - heat_propagate(u0, t, eps)) <= 1e-13 * linf(u0)


def test_recover_v(grid):
    u = sampled(grid, lambda X, Y: np.sin(Y) * 0 + 1.0)
    assert linf(recover_v(u, dx_m(u, 1))) <= 1e-13      # x-independent -> v = 0
    u = sampled(grid, lambda X, Y: np.sin(X) * Y)
    v = recover_v(u, dx_m(u, 1))
    expect = -np.cos(grid.x_nodes)[:, None] * grid.y_nodes[None, :] ** 2 / 2.0
    assert np.max(np.abs(v.values - expect)) <= 1e-9
    # divergence-free pairing
    div = dx_m(u, 1).values + dy_j(v, 1).values
    assert np.max(np.abs(div[:, 2:-2])) <= 1e-7


def test_zero_initial_data_stays_zero(grid, profile):
    z = Field(grid, np.zeros((grid.Nx, grid.Ny)))
    tp = _solve(z, profile, "picard", 8)
    ti = _solve(z, profile, "imex", 8)
    assert max(linf(u) for u in tp.u) == 0.0
    assert max(linf(u) for u in ti.u) == 0.0


def test_picard_converges_and_contracts(traj_picard):
    c = traj_picard.contraction
    assert len(c) >= 3
    ratios = [c[i + 1] / c[i] for i in range(len(c) - 1)]
    assert all(r <= 0.5 for r in ratios[1:])
    assert c[-1] <= 1e-10


def test_trajectory_boundary_values(traj_picard, traj_imex):
    for traj in (traj_picard, traj_imex):
        for u in traj.u[:: len(traj.u) // 4]:
            assert np.max(np.abs(u.values[:, 0])) == 0.0
            assert np.max(np.abs(u.values[:, -1])) <= 1e-12


def test_sine_basis_pins_the_end_rows(lab, traj_picard, traj_imex, traj_fine, monkeypatch):
    """Every node of the Picard, imex and companion solves has exactly-zero
    first and last y-rows: the datum is built so, and every later node comes
    out of the sine expansion, which sets both rows to 0.0, so no check of
    |u| at y = Ymax on a node can fire.  Along a check-only march every
    heat_propagate input has an exactly-zero wall row too, which is why its
    wall-row warning is silent in runs."""
    for traj in (traj_picard, traj_imex, traj_fine):
        assert all(not u.values[:, [0, -1]].any() for u in traj.u)
    walls, real = [], S.heat_propagate

    def recording(f, t, eps):
        walls.append(float(np.max(np.abs(f.values[:, 0]))))
        return real(f, t, eps)

    monkeypatch.setattr(S, "heat_propagate", recording)
    for _ in lab.check_solve(REF.nt).u:
        pass
    assert walls == [0.0] * REF.nt


def test_cross_solver_agreement(traj_picard, traj_imex):
    d = weighted_l2(traj_picard.u[-1] - traj_imex.u[-1], 0.0)
    sup = linf(traj_picard.u[-1])
    tol = max(5.0 * (REF.t_final / REF.nt) * sup, 1e-6)
    assert d <= tol


def test_near_linear_regime(grid, profile):
    """At tiny amplitude the two schemes differ only through their time
    discretization of the shear-coupled linear terms: the relative gap is
    O(dt) and does not grow as amp -> 0."""
    gaps = []
    for amp in (1e-6, 1e-3):
        u0 = build_perturbation(grid, amp, 1, profile)
        tp = _solve(u0, profile, "picard", REF.nt)
        ti = _solve(u0, profile, "imex", REF.nt)
        gaps.append(weighted_l2(tp.u[-1] - ti.u[-1], 0.0)
                    / max(weighted_l2(tp.u[-1], 0.0), 1e-300))
    assert gaps[0] <= 5.0 * REF.t_final / REF.nt
    assert 0.5 <= gaps[0] / gaps[1] <= 2.0


def test_imex_reduces_to_heat_propagate(grid, profile, monkeypatch):
    """With the transport forcing switched off the march is exactly the
    semigroup step applied repeatedly."""
    monkeypatch.setattr(S, "_forcing", lambda u, state: Field(u.grid, np.zeros_like(u.values)))
    u0 = sampled(grid, lambda X, Y: np.sin(X) * np.sin(np.pi * Y / grid.Ymax))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        *_, last = imex_solve(u0, profile, SolverConfig(eps=0.1, T=0.04, Nt=8)).u
    direct = heat_propagate(u0, 0.04, 0.1)
    assert linf(last - direct) <= 1e-11


def test_pde_residual_refines(u0, profile):
    """The raw residual carries a dt-independent spatial floor, so the dt
    component is isolated by differencing residual fields of consecutive
    levels at one shared physical time (floor cancels on the common grid)."""
    g = u0.grid
    fields = []
    for nt in V.ladder_nts(REF.nt):
        traj = _solve(u0, profile, "imex", nt)
        i = int(0.875 * (len(traj.times) - 1))
        u, st = traj.u[i], evolve_shear(traj.profile, traj.times[i])
        dt2 = traj.times[i + 1] - traj.times[i - 1]
        r = V._material_derivative(V.Snapshot(traj, i),
                                   traj.u[i + 1].values - traj.u[i - 1].values, u.values,
                                   dy_j(u, 1).values, dy_j(u, 2).values, dt2, traj.eps)
        r += recover_v(u, dx_m(u, 1)).values * st.omegas[None, :]
        r[:, :4] = r[:, -4:] = 0.0
        fields.append(r)
    d1 = weighted_l2(Field(g, fields[0] - fields[1]), 0.0)
    d2 = weighted_l2(Field(g, fields[1] - fields[2]), 0.0)
    assert np.log2(d1 / d2) >= 1.0


def test_picard_is_fixed_point_of_mild_solution(traj_picard):
    """Mapping the converged iterate once more moves it by less than 10 tol."""
    traj = traj_picard
    forcing = [S._forcing(u, evolve_shear(traj.profile, t)) for u, t in zip(traj.u, traj.times)]
    mapped = list(mild_solution(traj.u[0], forcing, traj.eps, traj.times))
    xi = max(weighted_l2(a - b, 0.0) for a, b in zip(mapped, traj.u))
    assert xi <= 10 * 1e-12          # conftest._solve runs Picard with tol = 1e-12


def test_picard_sweep_holds_one_trajectory(u0, profile, monkeypatch):
    """At nt = 8 no more than Nt + 3 of picard_solve's node fields are alive
    at any point of a sweep: the initial guess and the previous sweep's
    nodes (each field the transport term reads) and every field
    mild_solution hands out are watched by weak references, and counted as
    each forcing is formed and as each node is handed out.  A sweep that
    returns its nodes in a list counts every node it holds; holding it whole
    beside the previous sweep (and Nt + 1 copies of u0 as the initial guess)
    keeps about 2 (Nt + 1)."""
    nt = 8
    refs, counts = [], []

    def watch(f):
        refs.append(weakref.ref(f.values))
        counts.append(len({id(r()) for r in refs if r() is not None}))

    real_forcing, real_mild = S._forcing, S.mild_solution

    def forcing(u, state):
        watch(u)
        return real_forcing(u, state)

    def handed_out(nodes):
        for f in nodes:
            watch(f)
            yield f

    def mild(*args):
        nodes = real_mild(*args)
        if isinstance(nodes, list):
            for f in nodes:
                watch(f)
            return nodes
        return handed_out(nodes)

    monkeypatch.setattr(S, "_forcing", forcing)
    monkeypatch.setattr(S, "mild_solution", mild)
    traj = _solve(u0, profile, "picard", nt)
    assert len(traj.contraction) >= 2 and len(traj.u) == nt + 1
    assert max(counts) <= nt + 3, counts


def test_divergence_detector(grid, profile):
    u0 = build_perturbation(grid, 1e-3, 1, profile)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SolverDivergence):
            picard_solve(u0, profile, SolverConfig(eps=0.001, T=5.0, Nt=8, jmax=12))


def test_trajectory_save(tmp_path, traj_picard):
    """trajectory.npz holds the solution exactly and is the only file.  save
    writes u node by node: its traced peak stays below two nodes, where a
    stacked copy (and np.savez's bytes copy of it) held twice the trajectory."""
    tracemalloc.start()
    try:
        traj_picard.save(tmp_path / "tr")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj_picard.u) > 4 and peak < 2 * traj_picard.u[0].values.nbytes
    assert [f.name for f in (tmp_path / "tr").iterdir()] == ["trajectory.npz"]
    with np.load(tmp_path / "tr" / "trajectory.npz") as z:
        assert np.array_equal(z["times"], traj_picard.times)
        assert np.array_equal(z["u"], np.stack([f.values for f in traj_picard.u]))
        assert z["contraction"].tolist() == traj_picard.contraction
        assert z["scheme"] == "picard" and z["eps"] == traj_picard.eps
