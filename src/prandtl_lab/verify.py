"""Numerical certification of the identities, boundary values, and
inequality structure that the well-posedness argument rests on.

Residual checks evaluate both sides of the evolution equations satisfied by
the cancellation functions f_m, h_m, g_m along a computed trajectory; time
derivatives use centered differences on stored snapshots, no derivative of
a cut-off is formed (the cut-off terms cancel algebraically, so the checks
evaluate the interior form of each identity), and quotient coefficients and
their derivatives are evaluated from closed quotient-rule formulas (never by
differentiating a masked ratio through its unsafe region).  Each residual is
reported over a ladder of time resolutions together with the observed
convergence order.

The f-identity is checked with its own wider-delta chi1 so that no finite
difference stencil reaches the zero set of omega^s + omega; the identity
holds for any admissible cut-off, while the condition monitor keeps the
delta certified by the assumption scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cutoffs import AuxWorkspace, CutoffSet, build_cutoffs
from .grid import Field, Grid2D, clean_spectrum, dx_m, dx_m_spec, dy_j, linf, weighted_l2
from .norms import GevreyParams, _report_from_raw, lifespan_norm
from .profiles import AssumptionReport
from .solver import Trajectory

__all__ = [
    "ResidualReport", "CheckReport", "ResidualJob", "evaluate_residuals",
    "residual_f", "residual_h", "residual_g",
    "boundary_checks", "cancellation_check", "sobolev_check", "inequality_suite",
    "condi_monitor", "energy_monitor", "radius_decay_check", "picard_contraction_check",
]

_SLACK = 1e-12
_ORDERS = (1, 2, 3)         # tangential orders of the boundary and cancellation checks


@dataclass
class ResidualReport:
    name: str
    grid_levels: list                 # (dt, dy, Nx) per level
    residual_norms: list
    scales: list
    observed_order: float
    pairwise_orders: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.observed_order >= 1.0 - 1e-9)

    def to_dict(self) -> dict:
        return {"name": self.name, "grid_levels": [list(g) for g in self.grid_levels],
                "residual_norms": list(self.residual_norms), "scales": list(self.scales),
                "observed_order": self.observed_order,
                "pairwise_orders": list(self.pairwise_orders), "pass": self.ok}


@dataclass
class CheckReport:
    name: str
    passed: bool
    evidence: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": bool(self.passed),
                "evidence": _jsonable(self.evidence)}


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


class Snapshot(AuxWorkspace):
    """Derivative bundle of one stored trajectory time, shared by checks.

    The y-derivative ladder uses wide (9-point) stencils so the spatial
    floor of the residual studies sits well below their dt signal; the
    production operators elsewhere keep the standard order-4 stencils.
    On top of the shared bundle it keeps what only the residual identities
    read: v, d_y^3 omega_tot, the spectra of v and d_y^2 omega, and the two
    quotient packs (each computed once, read-only).
    """

    def __init__(self, traj: Trajectory, i: int):
        super().__init__(traj.u[i], traj.shear[i], npts=9)
        self.v = traj.v[i]
        self.spec_v = clean_spectrum(np.fft.rfft(self.v.values, axis=0))
        self.spec_d2yom = clean_spectrum(np.fft.rfft(self.d2yom.values, axis=0))
        self.d3yom_tot = (self.state.dj_omegas[2][None, :]
                          + dy_j(self.omega, 3, npts=9).values)

    def dxv(self, k):
        return self._dx("spec_v", k)

    def dxd2yom(self, k):
        return self._dx("spec_d2yom", k)

    @cached_property
    def quotient_pack_f(self) -> tuple:
        """a = P/Q with analytic d_y a and d_x a, masked off the safe set."""
        Q, P, N = self.om_tot, self.dyom_tot, self.d2yom_tot
        hair = max(1e-9 * float(np.max(np.abs(Q))), 1e-300)
        safe = np.abs(Q) > hair
        inv = np.zeros_like(Q)
        np.divide(1.0, Q, out=inv, where=safe)
        a = P * inv
        dya = N * inv - a * P * inv
        dxom1 = self.dxom(1).values
        dxdyom1 = self.dxdyom(1).values
        dxa = dxdyom1 * inv - a * dxom1 * inv
        d2ya = self.d3yom_tot * inv - 3.0 * N * P * inv**2 + 2.0 * P**3 * inv**3
        return _read_only(a, dya, dxa, d2ya, inv)

    @cached_property
    def quotient_pack_h(self) -> tuple:
        """b = N/D with d_x b analytic and d_y b by a narrow stencil on the
        (smooth, safe) b field itself: the analytic form would put pointwise
        d_y^3 omega values into the residual, which the sine-represented
        solution resolves too roughly during the initial transient."""
        D = self.dyom_tot
        hair = max(1e-9 * float(np.max(np.abs(D))), 1e-300)
        safe = np.abs(D) > hair
        inv = np.zeros_like(D)
        np.divide(1.0, D, out=inv, where=safe)
        b = self.d2yom_tot * inv
        dyb = dy_j(Field(self.grid, b), 1).values
        dxdyom1 = self.dxdyom(1).values
        dxd2yom1 = self.dxd2yom(1).values
        dxb = dxd2yom1 * inv - b * dxdyom1 * inv
        return _read_only(b, dyb, dxb, inv)


def _read_only(*arrays) -> tuple:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _triple(traj: Trajectory, i: int) -> tuple:
    """Snapshots at time indices i - 1, i, i + 1 (the centered d_t stencil)."""
    return Snapshot(traj, i - 1), Snapshot(traj, i), Snapshot(traj, i + 1)


# evaluation times are exact eighths of the horizon so that every time
# ladder (Nt divisible by 8, which RunConfig.validate requires of the
# residual checks) lands on identical physical times and the Richardson
# differences never compare shifted snapshots
_EVAL_FRACS = (0.375, 0.625, 0.875)


def _eval_indices(traj: Trajectory) -> list:
    n = len(traj.times) - 1
    return sorted({min(max(int(round(f * n)), 1), n - 1) for f in _EVAL_FRACS})


def _material_derivative(snap: Snapshot, q_prev: np.ndarray, q_next: np.ndarray,
                         q: np.ndarray, dyq: np.ndarray, d2yq: np.ndarray,
                         dt2: float, eps: float) -> np.ndarray:
    """(d_t + (u^s+u) d_x + v d_y - d_y^2 - eps d_x^2) q, d_t centered.

    The caller supplies d_y q and d_y^2 q (analytic for the quotient fields,
    so no stencil crosses their unsafe regions); both x-derivatives come from
    one cleaned spectrum of q."""
    g = snap.grid
    spec = clean_spectrum(np.fft.rfft(q, axis=0))
    return ((q_next - q_prev) / dt2
            + (snap.state.us[None, :] + snap.u.values) * dx_m_spec(g, spec, 1).values
            + snap.v.values * dyq
            - d2yq
            - eps * dx_m_spec(g, spec, 2).values)


# Residual norms are taken over interior rows: the evolution identities are
# interior statements, the wall traces have their own dedicated checks, and
# one-sided composite stencils at the first rows would otherwise dominate
# every norm with a dt-independent floor.
_EDGE_ROWS = 4


def _interior_l2(grid: Grid2D, values: np.ndarray) -> float:
    masked = values.copy()
    masked[:, :_EDGE_ROWS] = 0.0
    masked[:, -_EDGE_ROWS:] = 0.0
    return weighted_l2(Field(grid, masked), 0.0)


def _q_f(snap: Snapshot, m: int, a: np.ndarray) -> np.ndarray:
    return snap.dxom(m).values - a * snap.dxu(m).values


def _q_h(snap: Snapshot, m: int, b: np.ndarray) -> np.ndarray:
    return snap.dxdyom(m).values - b * snap.dxom(m).values


def _f_identity(traj: Trajectory, i: int, snaps: tuple, m: int, cut: CutoffSet) -> tuple:
    """(residual L2 norm, f_m scale, residual field) of the f_m evolution
    identity at node i, from the snapshot triple at i - 1, i, i + 1.

    The cut-off bookkeeping (all chi', chi'' terms) cancels algebraically
    between the two sides, so the check evaluates the surviving interior
    identity weighted by chi1; stencils never cross the critical strip
    because the f-cutoff hole is wider than their reach.
    """
    g = traj.grid
    eps = traj.eps
    sm, s0, sp = snaps
    dt2 = traj.times[i + 1] - traj.times[i - 1]
    a0, dya, dxa, d2ya, inv = s0.quotient_pack_f
    am = sm.quotient_pack_f[0]
    ap = sp.quotient_pack_f[0]

    chi = cut.chi1[None, :]
    q0 = _q_f(s0, m, a0)
    dxm_u, dxm_om, dxm_dyom = s0.dxu(m).values, s0.dxom(m).values, s0.dxdyom(m).values
    dyq = dxm_dyom - dya * dxm_u - a0 * dxm_om
    d2yq = s0.dxd2yom(m).values - d2ya * dxm_u - 2.0 * dya * dxm_om - a0 * dxm_dyom
    lhs = _material_derivative(
        s0, _q_f(sm, m, am), _q_f(sp, m, ap), q0, dyq, d2yq, dt2, eps)

    rhs = np.zeros_like(q0)
    for k in range(1, m + 1):
        c = math.comb(m, k)
        rhs -= c * s0.dxu(k).values * s0.dxom(m - k + 1).values
        rhs += a0 * c * s0.dxu(k).values * s0.dxu(m - k + 1).values
    for k in range(1, m):
        c = math.comb(m, k)
        rhs -= c * s0.dxv(k).values * s0.dxdyom(m - k).values
        rhs += a0 * c * s0.dxv(k).values * s0.dxom(m - k).values
    dxu1 = s0.dxu(1).values
    dxom1 = s0.dxom(1).values
    rhs += (dxom1 - dxu1 * a0 - 2.0 * a0 * dya
            - 2.0 * eps * dxom1 * inv * dxa) * dxm_u
    rhs += 2.0 * dya * dxm_om + 2.0 * eps * dxa * s0.dxu(m + 1).values

    diff = chi * (lhs - rhs)
    res = _interior_l2(g, diff)
    scale = max(_interior_l2(g, chi * q0), 1e-300)
    return res, scale, diff


def _h_identity(traj: Trajectory, i: int, snaps: tuple, m: int, cut: CutoffSet) -> tuple:
    """Interior form of the h_m evolution identity (cut-off terms cancel
    algebraically as in the f-check); the coefficient block uses the
    g1-corrected quotient calculus."""
    g = traj.grid
    eps = traj.eps
    sm, s0, sp = snaps
    dt2 = traj.times[i + 1] - traj.times[i - 1]
    b0, dyb, dxb, invD = s0.quotient_pack_h
    bm = sm.quotient_pack_h[0]
    bp = sp.quotient_pack_h[0]

    chi = cut.chi2[None, :]
    q0 = _q_h(s0, m, b0)
    dxm_om, dxm_dyom, dxm_d2yom = s0.dxom(m).values, s0.dxdyom(m).values, s0.dxd2yom(m).values
    dyq = dxm_d2yom - dyb * dxm_om - b0 * dxm_dyom
    # one narrow FD derivative of the analytic first derivative: avoids both
    # pointwise d_y^3(omega)-level roughness and wide stencils crossing the
    # denominator's thin safe margin
    d2yq = dy_j(Field(g, dyq), 1).values
    lhs = _material_derivative(
        s0, _q_h(sm, m, bm), _q_h(sp, m, bp), q0, dyq, d2yq, dt2, eps)

    dxdyom1 = s0.dxdyom(1).values
    dxu1 = s0.dxu(1).values
    # the third and fourth lines of the coefficient block regroup exactly as
    # -2 b d_y b - 2 eps r d_y r with r = (d_x d_y omega)/D, which keeps every
    # pointwise value at the two-derivative level
    r_quot = dxdyom1 * invD
    p_blk = (2.0 * (s0.om_tot * dxdyom1 - dxu1 * s0.d2yom_tot) * invD
             - s0.g1 * s0.d2yom_tot * invD**2
             - 2.0 * b0 * dyb
             - 2.0 * eps * r_quot * dy_j(Field(g, r_quot), 1).values) * s0.dxom(m).values

    rhs = p_blk
    rhs += 2.0 * dyb * dxm_dyom
    rhs += 2.0 * eps * dxb * s0.dxom(m + 1).values
    for k in range(1, m + 1):
        c = math.comb(m, k)
        rhs += b0 * c * s0.dxu(k).values * s0.dxom(m - k + 1).values
        rhs -= c * s0.dxu(k).values * s0.dxdyom(m - k + 1).values
    for k in range(1, m):
        c = math.comb(m, k)
        rhs += b0 * c * s0.dxv(k).values * s0.dxdyom(m - k).values
        rhs -= c * s0.dxv(k).values * s0.dxd2yom(m - k).values
    rhs -= s0.g(m + 1).values

    diff = chi * (lhs - rhs)
    res = _interior_l2(g, diff)
    scale = max(_interior_l2(g, chi * q0), 1e-300)
    return res, scale, diff


def _g_identity(traj: Trajectory, i: int, snaps: tuple, m: int) -> tuple:
    g = traj.grid
    eps = traj.eps
    sm, s0, sp = snaps
    dt2 = traj.times[i + 1] - traj.times[i - 1]
    q0 = s0.g(m).values
    dyq = q0 @ g.deriv_matrix_y(1, 9).T
    d2yq = q0 @ g.deriv_matrix_y(2, 9).T
    lhs = _material_derivative(s0, sm.g(m).values, sp.g(m).values, q0, dyq, d2yq, dt2, eps)

    rhs = np.zeros_like(q0)
    for j in range(1, m):
        c = math.comb(m - 1, j)
        rhs -= c * s0.dxu(j).values * s0.g(m - j + 1).values
        rhs -= c * s0.dxv(j).values * dy_j(s0.g(m - j), 1).values
    for j in range(0, m):
        c = math.comb(m - 1, j)
        if j == 0:
            d2 = s0.d2yom_tot
            d1 = s0.dyom_tot
        else:
            d2 = s0.dxd2yom(j).values
            d1 = s0.dxdyom(j).values
        rhs += 2.0 * c * d2 * s0.dxom(m - j).values
        rhs -= 2.0 * c * d1 * s0.dxdyom(m - j).values
        rhs += 2.0 * eps * c * s0.dxdyom(j + 1).values * s0.dxu(m - j + 1).values
        rhs -= 2.0 * eps * c * s0.dxom(j + 1).values * s0.dxom(m - j + 1).values

    diff = lhs - rhs
    res = _interior_l2(g, diff)
    scale = max(_interior_l2(g, q0), 1e-300)
    return res, scale, diff


class ResidualJob(NamedTuple):
    """One residual identity: kind "f", "g" or "h" at tangential order m."""
    kind: str
    m: int
    cut: CutoffSet | None = None          # f and h only


def _evaluate_at(traj: Trajectory, jobs, i: int) -> list:
    """(res, scale, diff) of each job at node i, from one snapshot triple
    that is dropped on return."""
    snaps = _triple(traj, i)
    out = []
    for job in jobs:
        if job.kind == "f":
            out.append(_f_identity(traj, i, snaps, job.m, job.cut))
        elif job.kind == "h":
            out.append(_h_identity(traj, i, snaps, job.m, job.cut))
        else:
            out.append(_g_identity(traj, i, snaps, job.m))
    return out


def evaluate_residuals(trajs, jobs) -> list:
    """For each job, its (res, scale, diff) rows: one list per trajectory,
    one row per evaluation node.  Each node's snapshot triple is built once
    for all jobs, so at most three snapshots are alive at once."""
    rows = [[] for _ in jobs]
    for traj in trajs:
        nodes = [_evaluate_at(traj, jobs, i) for i in _eval_indices(traj)]
        for k, job_rows in enumerate(rows):
            job_rows.append([node[k] for node in nodes])
    return rows


def _residual_study(name: str, trajs, rows) -> ResidualReport:
    """Residual norms per time-resolution level plus the dt-order.

    The raw residual carries a dt-independent spatial floor, so the
    convergence order is measured on Richardson differences of the residual
    fields between consecutive levels at matching physical times: the floor
    cancels exactly on the shared space grid and the dt component remains.
    """
    norms, scales, levels = [], [], []
    fields = []
    for traj, level_rows in zip(trajs, rows):
        vals, sc, flds = zip(*level_rows)
        norms.append(max(vals))
        scales.append(max(sc))
        fields.append(flds)
        levels.append((traj.dt, traj.grid.dy, traj.grid.Nx))
    orders = []
    if len(trajs) >= 3 and all(t.grid.same_as(trajs[0].grid) for t in trajs):
        g = trajs[0].grid
        diffs = []
        for k in range(len(trajs) - 1):
            diffs.append(max(_interior_l2(g, a - b) for a, b in zip(fields[k], fields[k + 1])))
        for k in range(len(diffs) - 1):
            h1, h2 = levels[k][0], levels[k + 1][0]
            if diffs[k + 1] > 0:
                orders.append(math.log(diffs[k] / diffs[k + 1]) / math.log(h1 / h2))
    observed = float(np.mean(orders)) if orders else float("nan")
    return ResidualReport(name=name, grid_levels=levels, residual_norms=norms,
                          scales=scales, observed_order=observed, pairwise_orders=orders)


def residual_f(trajs, m: int, rows) -> ResidualReport:
    """Residual ladder for the f_m evolution identity from its
    evaluate_residuals rows (one level per trajectory)."""
    return _residual_study(f"residual_f[m={m}]", trajs, rows)


def residual_h(trajs, m: int, rows) -> ResidualReport:
    return _residual_study(f"residual_h[m={m}]", trajs, rows)


def residual_g(trajs, m: int, rows) -> ResidualReport:
    return _residual_study(f"residual_g[m={m}]", trajs, rows)


_DELTA_F = 0.5


def wide_f_cutoffs(grid: Grid2D, rep: AssumptionReport) -> CutoffSet:
    """chi1 with a wider hole (delta = _DELTA_F, capped below y0/2) for the
    f-identity checks, so that no stencil reaches the zero set of
    omega^s + omega."""
    return build_cutoffs(grid, rep.y0, min(_DELTA_F, 0.499 * rep.y0))


def boundary_checks(trajs, rep: AssumptionReport) -> CheckReport:
    """Wall identities: d_y g_m = 0, d_y f_m = 0, and the third- and
    fifth-derivative trace formulas at y = 0.

    The trace formulas are evaluated through the vorticity equation's
    representation of d_y^2 omega (one resp. three further derivatives),
    exactly as they are derived; forming d_y^5 omega directly from nodal
    values would amplify solution noise by 1/dy^5 and sits in the blind
    spot of the sine representation.  The raw direct evaluation is reported
    as unchecked evidence.
    """
    levels = {}
    for traj in trajs:
        g = traj.grid
        cut = build_cutoffs(g, rep.y0, rep.delta)
        eps = traj.eps
        r_g, r_f, r_3, r_5, r_5raw = 0.0, 0.0, 0.0, 0.0, 0.0
        s_g, s_f, s_3, s_5 = 1e-300, 1e-300, 1e-300, 1e-300
        for i in _eval_indices(traj):
            sm, s0, sp = _triple(traj, i)
            dt2 = traj.times[i + 1] - traj.times[i - 1]
            a0 = s0.quotient_pack_f[0]
            for m in _ORDERS:
                gm = s0.g(m)
                r_g = max(r_g, float(np.max(np.abs(dy_j(gm, 1).values[:, 0]))))
                s_g = max(s_g, linf(Field(g, dy_j(gm, 1).values)))
                fm = Field(g, cut.chi1[None, :] * _q_f(s0, m, a0))
                r_f = max(r_f, float(np.max(np.abs(dy_j(fm, 1).values[:, 0]))))
                s_f = max(s_f, linf(Field(g, dy_j(fm, 1).values)))
            om_tot0 = s0.om_tot[:, 0]
            dxom0 = s0.dxom(1).values[:, 0]
            # d_y^2 omega represented through the evolution equation
            eqrhs = Field(g, (sp.omega.values - sm.omega.values) / dt2
                          + (s0.state.us[None, :] + s0.u.values) * s0.dxom(1).values
                          + s0.v.values * s0.dyom_tot
                          - eps * s0.dxom(2).values)
            third = dy_j(eqrhs, 1).values[:, 0] - om_tot0 * dxom0
            r_3 = max(r_3, float(np.max(np.abs(third))))
            s_3 = max(s_3, float(np.max(np.abs(om_tot0 * dxom0))))
            rhs5 = (-s0.d2yom_tot[:, 0] * dxom0
                    + 4.0 * om_tot0 * s0.dxd2yom(1).values[:, 0]
                    - 2.0 * eps * dxom0 * s0.dxom(2).values[:, 0])
            fifth = dy_j(eqrhs, 3).values[:, 0] - rhs5
            r_5 = max(r_5, float(np.max(np.abs(fifth))))
            s_5 = max(s_5, float(np.max(np.abs(rhs5))))
            r_5raw = max(r_5raw, float(np.max(np.abs(
                dy_j(s0.omega, 5).values[:, 0] - rhs5))))
        levels[(traj.grid.Ny, traj.dt)] = {
            "dy_g_wall": r_g, "dy_g_scale": s_g,
            "dy_f_wall": r_f, "dy_f_scale": s_f,
            "third_trace": r_3, "third_scale": s_3,
            "fifth_trace": r_5, "fifth_scale": s_5,
            "fifth_trace_direct_unchecked": r_5raw,
            "dy": traj.grid.dy,
        }
    keys = sorted(levels, key=lambda k: -levels[k]["dy"])
    ev = {"levels": {str(k): levels[k] for k in keys}}
    orders = {}
    if len(keys) >= 2:
        for fieldname in ("third_trace", "fifth_trace", "dy_g_wall", "dy_f_wall"):
            a, b = levels[keys[0]], levels[keys[-1]]
            if b[fieldname] > 0 and a["dy"] != b["dy"]:
                orders[fieldname] = math.log(a[fieldname] / b[fieldname]) \
                    / math.log(a["dy"] / b["dy"])
    ev["orders"] = orders
    fin = levels[keys[-1]]
    passed = (fin["dy_g_wall"] <= 5e-2 * fin["dy_g_scale"] + _SLACK
              and fin["dy_f_wall"] <= 5e-2 * fin["dy_f_scale"] + _SLACK
              and fin["third_trace"] <= 1e-2 * fin["third_scale"] + _SLACK)
    if orders:
        passed = passed and orders.get("third_trace", 2.0) >= 2.0 - 1e-9 \
            and orders.get("fifth_trace", 1.0) >= 1.0 - 1e-9
    return CheckReport(name="boundary_checks", passed=passed, evidence=ev)


# cancellation_check: comparison rows lie at least _CANCEL_MARGIN from the
# critical point and carry at least _CANCEL_FLOOR_FRAC of the sup of f_m; the
# check passes when the worst relative L2 gap is at most _CANCEL_TOL
_CANCEL_MARGIN = 1.2
_CANCEL_FLOOR_FRAC = 0.02
_CANCEL_TOL = 1e-4


def cancellation_check(u: Field, state, cut: CutoffSet, rep: AssumptionReport) -> CheckReport:
    """Two-form agreement of the f_m definition.

    Form one is the difference form; form two finite-differences the raw
    quotient dx^m u / (omega^s + omega) with a high-order stencil.  The
    comparison region keeps interior rows away from the critical point,
    where the quotient has a genuine pole on the critical curve, and away
    from the boundary rows, whose one-sided stencils are of a different
    accuracy class.
    """
    g = u.grid
    ws = AuxWorkspace(u, state, cut)
    D = g.deriv_matrix_y(1, 9)
    evidence = {}
    worst = 0.0
    for m in _ORDERS:
        fm = ws.f(m).values
        quot = np.zeros_like(ws.om_tot)
        np.divide(ws.dxu(m).values, ws.om_tot, out=quot,
                  where=np.abs(ws.om_tot) > 1e-12)
        form2 = cut.chi1[None, :] * ws.om_tot * (quot @ D.T)
        rowmax = np.max(np.abs(fm), axis=0)
        mask = (np.abs(g.y_nodes - rep.y0) >= _CANCEL_MARGIN) \
            & (rowmax >= _CANCEL_FLOOR_FRAC * rowmax.max())
        mask[:2] = False
        mask[-4:] = False
        num = np.linalg.norm((fm - form2)[:, mask])
        den = max(np.linalg.norm(fm[:, mask]), 1e-300)
        rel = num / den
        evidence[f"m={m}"] = {"rel_l2": rel, "rows": int(mask.sum())}
        worst = max(worst, rel)
    evidence["worst_rel"] = worst
    return CheckReport(name="cancellation_identity", passed=worst <= _CANCEL_TOL,
                       evidence=evidence)


_SOBOLEV_COUNT = 100


def sobolev_check(grid: Grid2D, seed: int = 0) -> CheckReport:
    """linf(h) <= sqrt(2)(|h| + |d_x h| + |d_y h| + |d_x d_y h|) on
    _SOBOLEV_COUNT random band-limited fields with y-decay."""
    rng = np.random.default_rng(seed)
    kmax = max(grid.Nx // 8, 2)
    violations = 0
    max_ratio = 0.0
    for _ in range(_SOBOLEV_COUNT):
        vals = np.zeros((grid.Nx, grid.Ny))
        X, Y = np.meshgrid(grid.x_nodes, grid.y_nodes, indexing="ij")
        for _ in range(rng.integers(1, 4)):
            k = int(rng.integers(0, kmax + 1))
            phase = rng.uniform(0, 2 * np.pi)
            c = rng.uniform(0.2, 3.0)
            q = rng.uniform(0.1, 1.5)
            p = int(rng.integers(0, 3))
            amp = rng.uniform(0.1, 2.0)
            vals += amp * np.cos(2 * np.pi * k * X / grid.Lx + phase) \
                * (Y ** p) * np.exp(-q * (Y - c) ** 2)
        h = Field(grid, vals)
        hx = dx_m(h, 1)
        hy = dy_j(h, 1)
        hxy = dy_j(hx, 1)
        bound = np.sqrt(2.0) * (weighted_l2(h, 0) + weighted_l2(hx, 0)
                                + weighted_l2(hy, 0) + weighted_l2(hxy, 0))
        ratio = linf(h) / bound
        max_ratio = max(max_ratio, ratio)
        if linf(h) > bound + _SLACK:
            violations += 1
    return CheckReport(name="sobolev_inequality",
                       passed=violations == 0,
                       evidence={"count": _SOBOLEV_COUNT, "violations": violations,
                                 "max_ratio": max_ratio})


def inequality_suite() -> CheckReport:
    """Exhaustive checks of the factorial and geometric-weight inequalities."""
    viol_fact = []
    for pp in range(21):
        for qq in range(21):
            if math.factorial(pp) * math.factorial(qq) > math.factorial(pp + qq):
                viol_fact.append((pp, qq))
    viol_geo = []
    worst_margin = float("inf")
    for k in range(1, 61):
        for tr in np.linspace(0.05, 1.0, 20):
            for frac in np.linspace(0.05, 0.95, 19):
                rho = frac * tr
                lhs1 = k * (rho / tr) ** k
                mid = lhs1 / tr
                rhs = 1.0 / (tr - rho)
                if lhs1 > mid + _SLACK or mid > rhs + _SLACK:
                    viol_geo.append((k, float(rho), float(tr)))
                worst_margin = min(worst_margin, rhs - mid)
    passed = not viol_fact and not viol_geo
    return CheckReport(name="inequality_suite", passed=passed,
                       evidence={"factorial_violations": viol_fact,
                                 "geometric_violations": viol_geo[:5],
                                 "geometric_worst_margin": worst_margin})


def condi_monitor(traj: Trajectory, rep: AssumptionReport, p: GevreyParams) -> CheckReport:
    """Pointwise persistence conditions along the trajectory; returns the
    first failure time (None if the full horizon passes)."""
    g = traj.grid
    y = g.y_nodes
    first_fail = None
    fail_clause = None
    margins = []
    strip = np.abs(y - rep.y0) <= 1.75 * rep.delta + _SLACK
    off = np.abs(y - rep.y0) >= 1.25 * rep.delta - _SLACK
    wy_a = (1.0 + y) ** (-rep.alpha)
    wy_a1 = (1.0 + y) ** (-rep.alpha - 1.0)
    w_lm1 = (1.0 + y) ** (p.ell - 1.0)
    w_l = (1.0 + y) ** p.ell
    w_lp1 = (1.0 + y) ** (p.ell + 1.0)
    for i, t in enumerate(traj.times):
        s0 = Snapshot(traj, i)
        cl = {}
        cl["1"] = bool(np.all(np.abs(s0.dyom_tot[:, strip]) >= rep.c0 / 4.0 - _SLACK))
        mag = np.abs(s0.om_tot[:, off])
        cl["2"] = bool(np.all(mag >= 0.25 * rep.c1 * wy_a[None, off] - _SLACK)
                       and np.all(mag <= 4.0 / rep.c1 * wy_a[None, off] + _SLACK))
        cl["3"] = bool(np.all(np.abs(s0.dyom_tot) <= 4.0 / rep.c1 * wy_a1[None, :] + _SLACK))
        total = 0.0
        for j in (1, 2):
            total += linf(Field(g, w_lm1[None, :] * s0.dxu(j).values))
            total += linf(s0.dxv(j - 1))
            total += linf(Field(g, w_l[None, :] * s0.dxom(j).values))
        for ii in (1, 2):
            total += linf(Field(g, w_lp1[None, :] * s0.dxdyom(ii).values))
            total += linf(Field(g, w_lp1[None, :] * s0.dxd2yom(ii).values))
        cl["4"] = bool(total <= 1.0 + _SLACK)
        margins.append(total)
        if not all(cl.values()) and first_fail is None:
            first_fail = float(t)
            fail_clause = [k for k, v in cl.items() if not v]
    return CheckReport(
        name="conditions_monitor", passed=first_fail is None,
        evidence={"first_failure_time": first_fail, "failing_clauses": fail_clause,
                  "clause4_max": max(margins), "horizon": float(traj.times[-1])})


def energy_monitor(raws: list, times: np.ndarray, p: GevreyParams,
                   rho_pair: tuple) -> CheckReport:
    """Minimal constant making the radius-pair energy inequality hold at each
    stored time; reports its maximum over the horizon.  raws are the
    trajectory's norms.trajectory_raws."""
    rho, rho_t = rho_pair
    if not (0.0 < rho < rho_t):
        raise ValueError("need 0 < rho < rho_tilde")
    n = len(times)
    lhs = np.empty(n)
    nr4 = np.empty(n)
    nt2 = np.empty(n)
    for i, raw in enumerate(raws):
        v_rho = _report_from_raw(raw, p.with_rho(rho), with_aux=True).total
        v_rt = _report_from_raw(raw, p.with_rho(rho_t), with_aux=True).total
        lhs[i] = v_rho ** 2
        nr4[i] = v_rho ** 4
        nt2[i] = v_rt ** 2 / (rho_t - rho)
    if np.all(lhs == 0.0):
        return CheckReport(name="energy_monitor", passed=True,
                           evidence={"vacuous": True, "C_max": None})
    dt = np.diff(times)
    cum = lambda f: np.concatenate(([0.0], np.cumsum(0.5 * dt * (f[1:] + f[:-1]))))
    int_r = cum(lhs + nr4)
    int_t = cum(nt2)
    cs = lhs / (lhs[0] + int_r + int_t)
    return CheckReport(name="energy_monitor", passed=bool(np.isfinite(cs).all()),
                       evidence={"vacuous": False, "C_max": float(np.max(cs)),
                                 "C_at_T": float(cs[-1]), "rho": rho, "rho_tilde": rho_t})


def radius_decay_check(raws: list, times: np.ndarray, p: GevreyParams, rho0: float,
                       c_star: float) -> CheckReport:
    """Shrinking-radius bound: with R and lambda built from the fitted
    constants, the lifespan norm stays below R on [0, rho0/(4 lambda)].
    raws are the trajectory's norms.trajectory_raws; raws[0] gives u0's
    base and extended norms."""
    base0 = _report_from_raw(raws[0], p.with_rho(2.0 * rho0), with_aux=False).total
    ext0 = _report_from_raw(raws[0], p.with_rho(rho0), with_aux=True).total
    denom = base0 + base0 ** 2
    c_hat = ext0 / denom if denom > 0 else 1.0
    R = 4.0 * c_star * c_hat * denom
    lam = 4.0 * (5.0 * c_star + c_star * R ** 2)
    horizon = rho0 / (4.0 * lam)
    restricted = horizon > times[-1] + 1e-14
    T_eff = min(horizon, float(times[-1]))
    value = lifespan_norm(raws, times, lam, T_eff, p, rho0)
    return CheckReport(
        name="radius_decay", passed=bool(value <= R + _SLACK),
        evidence={"R": R, "lambda": lam, "C_star": c_star, "C_hat": c_hat,
                  "lifespan_norm": value, "margin": R - value,
                  "horizon": horizon, "restricted_to_computed_horizon": restricted})


def picard_contraction_check(traj: Trajectory) -> CheckReport:
    """Geometric decay of the Picard update norms recorded by the solver."""
    xs = [x for x in traj.contraction if x > 0.0]
    if len(xs) < 3:
        return CheckReport(name="picard_contraction", passed=False,
                           evidence={"inconclusive": True, "updates": xs})
    ratios = [xs[i + 1] / xs[i] for i in range(len(xs) - 1)]
    tail = ratios[1:]
    rate = float(np.exp(np.mean(np.log(tail)))) if tail else float("nan")
    passed = all(r <= 0.75 + _SLACK for r in tail)
    return CheckReport(name="picard_contraction", passed=passed,
                       evidence={"updates": xs, "ratios": ratios,
                                 "geometric_rate": rate, "inconclusive": False})
