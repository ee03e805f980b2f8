import copy

import numpy as np
import pytest

from prandtl_lab.cutoffs import AuxWorkspace
from prandtl_lab.grid import Field, weighted_l2
from prandtl_lab.norms import _report_from_raw, trajectory_raws
from prandtl_lab.shear import evolve_shear
import prandtl_lab.verify as V

from conftest import REF, _solve, alive


# ---------------------------------------------------------------- residuals

@pytest.fixture(scope="module")
def zero_traj(grid, profile):
    return _solve(Field.zeros(grid), profile, "imex", 8)


def test_residuals_vanish_on_shear_only(zero_traj, cutoffs, assumption):
    cutf = V.wide_f_cutoffs(zero_traj.grid, assumption)
    jobs = [job for m in (1, 2) for job in (V.ResidualJob("g", m), V.ResidualJob("f", m, cutf),
                                            V.ResidualJob("h", m, cutoffs))]
    bound = {"g": 1e-14, "f": 1e-12, "h": 1e-11}
    for job, (r, s, d) in zip(jobs, V._evaluate_at(zero_traj, jobs, 4)):
        assert r <= bound[job.kind]


def test_residual_orders(traj_ladder, cutoffs, assumption):
    cutf = V.wide_f_cutoffs(traj_ladder[0].grid, assumption)
    jobs = [job for m in (1, 2) for job in (V.ResidualJob("g", m), V.ResidualJob("f", m, cutf),
                                            V.ResidualJob("h", m, cutoffs))]
    study = {"f": V.residual_f, "g": V.residual_g, "h": V.residual_h}
    for job, rows in zip(jobs, V.evaluate_residuals(traj_ladder, jobs)):
        assert study[job.kind](traj_ladder, job.m, rows).observed_order >= 1.0


def test_residual_h_ablation(traj_imex, cutoffs, monkeypatch):
    """Zeroing the g_{m+1} input must move the residual by about its norm:
    every right-hand-side term is wired in."""
    m = 1
    i = V._eval_indices(traj_imex)[1]
    job = V.ResidualJob("h", m, cutoffs)
    [(r_full, scale, d_full)] = V._evaluate_at(traj_imex, [job], i)
    g_term = cutoffs.chi2[None, :] * V.Snapshot(traj_imex, i).g(m + 1).values
    real_g = V.Snapshot.g
    monkeypatch.setattr(V.Snapshot, "g", lambda self, k: Field.zeros(self.grid) if k == m + 1
                        else real_g(self, k))
    [(r_ablate, _, d_ablate)] = V._evaluate_at(traj_imex, [job], i)
    gnorm = V._interior_l2(traj_imex.grid, g_term)
    moved = V._interior_l2(traj_imex.grid, d_ablate - d_full)
    assert np.isclose(moved, gnorm, rtol=1e-10)
    assert gnorm > 0.01 * scale   # the ablated term is not numerically negligible


def test_residual_g_eps_wiring(u0, profile):
    """Doubling eps and re-solving changes the eps-labelled right-hand side
    groups by about a factor two."""
    def eps_terms(traj, i):
        s0 = V.Snapshot(traj, i)
        m = 2
        total = np.zeros((traj.grid.Nx, traj.grid.Ny))
        from math import comb
        for j in range(0, m):
            c = comb(m - 1, j)
            total += 2.0 * traj.eps * c * (
                s0.dxdyom(j + 1).values * s0.dxu(m - j + 1).values
                - s0.dxom(j + 1).values * s0.dxom(m - j + 1).values)
        return weighted_l2(Field(traj.grid, total), 0.0)

    tr1 = _solve(u0, profile, "imex", 16, eps=0.1)
    tr2 = _solve(u0, profile, "imex", 16, eps=0.2)
    a, b = eps_terms(tr1, 8), eps_terms(tr2, 8)
    assert 1.6 <= b / a <= 2.4


# ----------------------------------------------------------------- boundary

def test_boundary_zero_perturbation(zero_traj, assumption):
    rep = V.boundary_checks([zero_traj], assumption)
    lv = next(iter(rep.evidence["levels"].values()))
    assert lv["dy_g_wall"] <= 1e-13
    assert lv["dy_f_wall"] <= 1e-13
    assert lv["third_trace"] <= 1e-10
    assert lv["fifth_trace"] <= 1e-8


def test_boundary_checks_drop_their_snapshots(zero_traj, assumption, snapshot_refs):
    V.boundary_checks([zero_traj], assumption)
    assert len(snapshot_refs) == 3 * len(V._eval_indices(zero_traj))
    assert alive(snapshot_refs) == []


def test_boundary_orders(traj_imex, fine_setup, assumption):
    rep = V.boundary_checks([traj_imex, fine_setup["traj"]], assumption)
    assert rep.passed, rep.evidence
    assert rep.evidence["orders"]["third_trace"] >= 2.0
    assert rep.evidence["orders"]["fifth_trace"] >= 1.0


# ------------------------------------------------------------- cancellation

def test_cancellation_identity(grid, profile, cutoffs, assumption, u0):
    st = evolve_shear(profile, 0.0)
    rep = V.cancellation_check(u0, st, cutoffs, assumption)
    assert rep.passed
    assert rep.evidence["worst_rel"] <= 1e-4


def test_cancellation_refines(fine_setup, grid, profile, cutoffs, assumption, u0):
    st = evolve_shear(profile, 0.0)
    coarse = V.cancellation_check(u0, st, cutoffs, assumption).evidence["worst_rel"]
    fs = fine_setup
    st_f = evolve_shear(fs["profile"], 0.0)
    fine = V.cancellation_check(fs["u0"], st_f, fs["cut"], fs["report"]).evidence["worst_rel"]
    assert np.log2(coarse / fine) >= 3.0


def test_cancellation_detects_dropped_term(profile, cutoffs, assumption, u0, monkeypatch):
    """Negative control: f_m without its a dx^m u term no longer matches the
    quotient form, and the check fails."""
    monkeypatch.setattr(AuxWorkspace, "f", lambda self, m: Field(
        self.grid, self.cut.chi1[None, :] * self.dxom(m).values))
    rep = V.cancellation_check(u0, evolve_shear(profile, 0.0), cutoffs, assumption)
    assert not rep.passed
    assert rep.evidence["worst_rel"] > 1e-4


# ------------------------------------------------------- pointwise analysis

def test_sobolev_hundred_fields(grid):
    rep = V.sobolev_check(grid, seed=12)
    assert rep.passed
    assert rep.evidence["violations"] == 0
    assert rep.evidence["max_ratio"] < 1.0


def test_sobolev_single_example(grid):
    from prandtl_lab.grid import dx_m, dy_j, linf
    h = Field.from_function(grid, lambda X, Y: np.sin(X) * np.exp(-Y))
    bound = np.sqrt(2) * (weighted_l2(h, 0) + weighted_l2(dx_m(h, 1), 0)
                          + weighted_l2(dy_j(h, 1), 0)
                          + weighted_l2(dy_j(dx_m(h, 1), 1), 0))
    assert linf(h) <= bound


def test_inequality_suite():
    rep = V.inequality_suite()
    assert rep.passed
    assert rep.evidence["factorial_violations"] == []
    assert rep.evidence["geometric_violations"] == []
    # spot values: 3!4! <= 7!, and k=10, rho=0.5, tr=1.0
    import math
    assert math.factorial(3) * math.factorial(4) == 144 <= 5040
    assert 10 * 0.5**10 <= 1.0 / 0.5


# ----------------------------------------------------------------- monitors

def test_condi_passes_at_reference(traj_picard, assumption, params, snapshot_refs):
    rep = V.condi_monitor(traj_picard, assumption, params)
    assert len(snapshot_refs) == len(traj_picard.times)
    assert alive(snapshot_refs) == []      # each snapshot read once, then dropped
    assert rep.passed
    assert rep.evidence["first_failure_time"] is None
    assert rep.evidence["clause4_max"] <= 1.0


def test_condi_detects_large_amplitude(grid, profile, assumption, params):
    from prandtl_lab.profiles import build_perturbation
    big = build_perturbation(grid, 0.5, 1, profile)
    traj = _solve(big, profile, "imex", 16)
    rep = V.condi_monitor(traj, assumption, params)
    assert not rep.passed
    assert rep.evidence["first_failure_time"] is not None
    assert rep.evidence["first_failure_time"] < REF["T"]


def test_energy_monitor(traj_picard, picard_raws, params):
    rep = V.energy_monitor(picard_raws, traj_picard.times, params, (0.3, 0.4))
    assert rep.passed
    assert np.isfinite(rep.evidence["C_max"])


def test_energy_monitor_vacuous(zero_traj, params, cutoffs):
    raws = trajectory_raws(zero_traj, cutoffs, params)
    rep = V.energy_monitor(raws, zero_traj.times, params, (0.3, 0.4))
    assert rep.passed
    assert rep.evidence["vacuous"] is True


def test_energy_rho_gap_wiring(picard_raws, params):
    """Halving rho_tilde - rho roughly doubles the final 1/(gap) integral when
    the norm is insensitive to rho_tilde in that range."""
    vals = {}
    for gap in (0.1, 0.05):
        tot = 0.0
        for raw in (picard_raws[0], picard_raws[-1]):
            v = _report_from_raw(raw, params.with_rho(0.3 + gap), with_aux=True).total
            tot += v**2 / gap
        vals[gap] = tot
    assert 1.5 <= vals[0.05] / vals[0.1] <= 2.5


def test_radius_decay(traj_picard, picard_raws, params):
    em = V.energy_monitor(picard_raws, traj_picard.times, params, (0.3, 0.4))
    rep = V.radius_decay_check(picard_raws, traj_picard.times, params, 0.5,
                               max(1.0, em.evidence["C_max"]))
    assert rep.passed
    assert rep.evidence["margin"] > 0


def test_lambda_arithmetic():
    """lambda from the half-contraction balance: C*=1, R=1 gives 24."""
    c_star, R = 1.0, 1.0
    lam = 4.0 * (5.0 * c_star + c_star * R**2)
    assert lam == 24.0


def test_contraction_check(traj_picard):
    rep = V.picard_contraction_check(traj_picard)
    assert rep.passed
    assert rep.evidence["geometric_rate"] <= 0.75
    assert not rep.evidence["inconclusive"]


def test_contraction_detects_slow_decay(traj_picard):
    """Negative control: update norms shrinking by 0.8 per sweep fail the
    0.75 tail-ratio bound."""
    slow = copy.copy(traj_picard)
    slow.contraction = [traj_picard.contraction[0] * 0.8 ** k for k in range(5)]
    rep = V.picard_contraction_check(slow)
    assert not rep.passed
    assert min(rep.evidence["ratios"][1:]) > 0.75


def test_contraction_inconclusive(traj_picard):
    short = copy.copy(traj_picard)
    short.contraction = traj_picard.contraction[:2]
    rep = V.picard_contraction_check(short)
    assert not rep.passed
    assert rep.evidence["inconclusive"]


def test_condi_zero_perturbation(zero_traj, assumption, params):
    """Shear alone within the persistence window satisfies the relaxed
    pointwise conditions (clause four is trivially zero)."""
    rep = V.condi_monitor(zero_traj, assumption, params)
    assert rep.passed
    assert rep.evidence["clause4_max"] == 0.0


def test_radius_zero_trajectory(zero_traj, params, cutoffs):
    raws = trajectory_raws(zero_traj, cutoffs, params)
    rep = V.radius_decay_check(raws, zero_traj.times, params, 0.5, 1.0)
    assert rep.evidence["lifespan_norm"] == 0.0
    assert rep.passed

