"""Acceptance gate: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion (run with -s to see them inline).

Reference configuration: configs/reference.ini, read through the session
Lab of conftest.
"""

from dataclasses import replace

import numpy as np

from prandtl_lab.grid import linf, weighted_l2
from prandtl_lab.norms import full_raw, gevrey_norm
from prandtl_lab.profiles import build_perturbation, check_compatibility
from prandtl_lab.shear import check_proposition_shear, evolve_shear
import prandtl_lab.verify as V

from conftest import REF, _solve, condition_report, seminorm_table, wall_levels


def _criterion(num, desc, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    line = f"[{tag}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_assumption_and_persistence(profile, assumption):
    prop = check_proposition_shear(profile, assumption)
    ok = assumption.all_pass and prop.ok and prop.T_s >= 0.1
    _criterion(1, "assumption clauses hold and persistence T_s >= 0.1", ok,
               f"c0={assumption.c0:.3g} c1={assumption.c1:.3g} "
               f"delta={assumption.delta:.3g} T_s={prop.T_s:.2f}")


def test_criterion_02_compatibility(u0, profile):
    cr = check_compatibility(u0, profile)
    worst = max(cr.res_value, cr.res_dyomega, cr.res_third)
    tol = 1e-8 * REF.amp
    _criterion(2, "compatibility residuals <= 1e-8*amp", worst <= tol,
               f"worst={worst:.2e} tol={tol:.1e}")


def test_criterion_03_cancellation(lab, profile, cutoffs, assumption, u0):
    st = evolve_shear(profile, 0.0)
    coarse = V.cancellation_check(u0, st, cutoffs, assumption)
    fs = lab.fine
    fine = V.cancellation_check(fs.u0, evolve_shear(fs.profile, 0.0), fs.cut, fs.report)
    c, f = coarse.evidence["worst_rel"], fine.evidence["worst_rel"]
    order = np.log2(c / f)
    ok = coarse.passed and order >= 3.0
    _criterion(3, "two-form cancellation agreement <= 1e-4, order >= 3 in dy", ok,
               f"rel={c:.2e} order={order:.2f}")


def test_criterion_04_appendix_residual_orders(ladder_rows):
    details = []
    ok = True
    for job, levels in ladder_rows:
        rep = V.residual_report(job, levels)
        ok &= rep.observed_order >= 1.0
        details.append(f"{job.kind}{job.m}:{rep.observed_order:.2f}")
    _criterion(4, "f/h/g evolution-identity residual orders >= 1 in dt",
               ok, " ".join(details))


def test_criterion_05_boundary_identities(traj_imex, traj_fine, assumption):
    rep = V.boundary_checks(wall_levels([traj_imex, traj_fine], assumption))
    orders = rep.evidence["orders"]
    ok = rep.passed and orders["third_trace"] >= 2.0 and orders["fifth_trace"] >= 1.0
    _criterion(5, "wall identities hold; trace orders >= 2 and >= 1", ok,
               f"third={orders['third_trace']:.2f} fifth={orders['fifth_trace']:.2f}")


def test_criterion_06_sobolev(grid):
    rep = V.sobolev_check(grid, seed=0)
    _criterion(6, "sqrt(2) Sobolev inequality on 100 random fields",
               rep.passed, f"max ratio {rep.evidence['max_ratio']:.3f}")


def test_criterion_07_inequalities():
    rep = V.inequality_suite()
    _criterion(7, "factorial and geometric-weight inequality grids", rep.passed)


def test_criterion_08_solver_cross_validation(traj_picard, traj_imex):
    d = weighted_l2(traj_picard.u[-1] - traj_imex.u[-1], 0.0)
    sup = linf(traj_picard.u[-1])
    tol = max(5.0 * traj_picard.dt * sup, 1e-6)
    con = V.picard_contraction_check(traj_picard)
    ok = d <= tol and con.passed
    _criterion(8, "picard/imex agree at T; contraction rate <= 0.75", ok,
               f"diff={d:.2e} tol={tol:.1e} rate={con.evidence['geometric_rate']:.3f}")


def _sandwich_fit(u_fields, states, cut, params):
    c_fit = 0.0
    lo, hi = replace(params, rho=0.3), replace(params, rho=0.5)
    ordered = True
    for u, st in zip(u_fields, states):
        raw = full_raw(u, st, cut, lo)
        base_lo = gevrey_norm(raw, lo)
        ext_lo = gevrey_norm(raw, lo, with_aux=True)
        base_hi = gevrey_norm(raw, hi)     # the seminorms do not depend on rho
        ordered &= base_lo <= ext_lo + 1e-12
        denom = base_hi + base_hi**2
        if denom > 0:
            c_fit = max(c_fit, ext_lo / denom)
    return c_fit, ordered


def test_criterion_09_norm_sandwich(lab, traj_picard, cutoffs, params, traj_fine):
    idx = [0, len(traj_picard.times) // 2, -1]
    c_coarse, ordered = _sandwich_fit([traj_picard.u[i] for i in idx],
                                      [evolve_shear(traj_picard.profile, traj_picard.times[i])
                                       for i in idx],
                                      cutoffs, params)
    c_fine, ordered_f = _sandwich_fit([traj_fine.u[i] for i in idx],
                                      [evolve_shear(traj_fine.profile, traj_fine.times[i])
                                       for i in idx],
                                      lab.fine.cut, params)
    ratio = c_coarse / c_fine
    ok = ordered and ordered_f and 0.5 <= ratio <= 2.0
    _criterion(9, "norm sandwich ordered; fitted C stable under refinement", ok,
               f"C={c_coarse:.3f} refined C={c_fine:.3f} ratio={ratio:.2f}")


def test_criterion_10_energy_monitor(lab, traj_picard, picard_raws, params, cutoffs, traj_fine,
                                    eps_family):
    base = V.energy_monitor(picard_raws, traj_picard.times, params, (0.3, 0.4))
    c_base = base.evidence["C_max"]
    fine = V.energy_monitor(seminorm_table(traj_fine, lab.fine.cut, params), traj_fine.times,
                            params, (0.3, 0.4))
    ratios = [c_base / fine.evidence["C_max"]]
    for eps, traj in eps_family.items():
        other = V.energy_monitor(seminorm_table(traj, cutoffs, params), traj.times, params,
                                 (0.3, 0.4))
        ratios.append(c_base / other.evidence["C_max"])
    ok = np.isfinite(c_base) and all(0.5 <= r <= 2.0 for r in ratios)
    _criterion(10, "energy-inequality constant finite, stable across grid and eps",
               ok, f"C_max={c_base:.3f} ratios={[f'{r:.2f}' for r in ratios]}")


def test_criterion_11_radius_decay(traj_picard, picard_raws, params):
    em = V.energy_monitor(picard_raws, traj_picard.times, params, (0.3, 0.4))
    rep = V.radius_decay_check(picard_raws, traj_picard.times, params, 0.5,
                               max(1.0, em.evidence["C_max"]))
    ok = rep.passed and rep.evidence["margin"] > 0
    _criterion(11, "lifespan norm below R on the shrinking-radius horizon", ok,
               f"value={rep.evidence['lifespan_norm']:.2f} R={rep.evidence['R']:.2f} "
               f"margin={rep.evidence['margin']:.2f}")


def test_criterion_12_condition_monitor(grid, profile, assumption, params, traj_picard):
    ok_ref = condition_report(traj_picard, assumption, params)
    big = build_perturbation(grid, 0.5, 1, profile)
    traj_big = _solve(big, profile, "imex", 16)
    bad = condition_report(traj_big, assumption, params)
    ok = ok_ref.passed and (not bad.passed) \
        and bad.evidence["first_failure_time"] is not None
    _criterion(12, "persistence conditions pass at reference, fail at amp=0.5", ok,
               f"clause4_max={ok_ref.evidence['clause4_max']:.2f} "
               f"failure_t={bad.evidence['first_failure_time']}")
