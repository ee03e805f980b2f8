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

One frame (_time_differences, then _residual) serves the three identities:
each kind supplies only d_y q, d_y^2 q and its right-hand side, and the
frame forms q on the time triple, the material derivative, the cut-off
weighting (residual_jobs: f a wider-hole chi1, h the certified chi2) and
the interior norms, with one snapshot alive at a time.  One transport
commutator (_commutator) serves the three right-hand sides, which add only
their own coefficient blocks.

One node walk (walk) reads the check-only solves, which stream their nodes:
it advances the residual ladder's levels in lockstep, each through a
three-node window, folds each job's Richardson difference across the levels
at every node, and lets the first level's centre snapshot serve the
boundary check's wall traces too; a second walk reads the dy-refinement
companion, and boundary_checks reduces the wall traces of both walks.  At
each level the jobs are evaluated kind by kind (f, g, then h), each kind's
wall slopes after its jobs, and before each step the centre snapshot
releases what no step still to come reads (_READS), so that each kind's
own members die with its last job.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field as dc_field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cutoffs import AuxWorkspace, CutoffSet, build_cutoffs, read_only
from .grid import (Field, Grid2D, dx_m, dx_m_spec, dy_j, l2_y_weighted, linf, weighted_l2,
                   x_spectrum)
from .norms import GevreyParams, gevrey_norm, lifespan_norm
from .profiles import _SLACK, AssumptionReport
from .shear import evolve_shear
from .solver import Trajectory, recover_v

__all__ = [
    "ResidualReport", "CheckReport", "ResidualJob", "residual_jobs", "ladder_nts",
    "walk", "residual_report", "boundary_checks", "cancellation_check", "sobolev_check",
    "inequality_suite", "condition_row", "condi_monitor", "energy_monitor",
    "radius_decay_check", "picard_contraction_check",
]

_ORDERS = (1, 2, 3)         # tangential orders of every identity check
_WIDE = 9                   # points of the wide y-stencils of the residual studies


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
        return {**asdict(self), "pass": self.ok}


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

    The y-derivative ladder uses wide (_WIDE-point) stencils so the spatial
    floor of the residual studies sits well below their dt signal; the
    production operators elsewhere keep the standard order-4 stencils.
    On top of the shared bundle it keeps what only the residual identities
    and the condition monitor read, each formed on first read: v (recovered
    from u and the bundle's d_x u; trajectories store u alone) with its
    spectrum, d_y^3 omega_tot, and the two quotient packs, the derivatives
    of the bundle's a and b (read-only).

    A snapshot holds tens of fields, so every walk over a trajectory's nodes
    (walk, whose centre snapshot serves both the residual identities and
    the wall traces, and the configured solve's pass through condition_row)
    reduces each node to what it reads and drops the node's snapshot before
    it builds the next: one snapshot is alive at a time, and walk's centre
    snapshot releases each member once no step still to come reads it.
    """

    def __init__(self, traj: Trajectory, i: int):
        super().__init__(traj.u[i], evolve_shear(traj.profile, float(traj.times[i])), npts=_WIDE)

    @cached_property
    def v(self) -> Field:
        return recover_v(self.u, self.dxu(1))

    @cached_property
    def spec_v(self) -> np.ndarray:
        return x_spectrum(self.v.values)

    @cached_property
    def d3yom_tot(self) -> np.ndarray:
        return self.state.dj_omegas[2][None, :] + dy_j(self.omega, 3, npts=_WIDE).values

    def dxv(self, k):
        return self._dx("spec_v", k)

    @cached_property
    def quotient_pack_f(self) -> tuple:
        """(d_y a, d_x a, d_y^2 a) of the bundle's a = P/Q, analytic in its
        masked reciprocal inv = 1/Q."""
        P, N, a, inv = self.dyom_tot, self.d2yom_tot, self.a, self.inv_om
        dya = N * inv - a * P * inv
        dxom1 = self.dxom(1).values
        dxdyom1 = self.dxdyom(1).values
        dxa = dxdyom1 * inv - a * dxom1 * inv
        d2ya = self.d3yom_tot * inv - 3.0 * N * P * inv**2 + 2.0 * P**3 * inv**3
        return read_only(dya, dxa, d2ya)

    @cached_property
    def quotient_pack_h(self) -> tuple:
        """(d_y b, d_x b) of the bundle's b = N/D: d_x b analytic, d_y b by a
        narrow stencil on the (smooth, safe) b field itself: the analytic
        form would put pointwise d_y^3 omega values into the residual, which
        the sine-represented solution resolves too roughly during the initial
        transient."""
        b, inv = self.b, self.inv_dyom
        dyb = dy_j(Field(self.grid, b), 1).values
        dxdyom1 = self.dxdyom(1).values
        dxd2yom1 = self.dxd2yom(1).values
        dxb = dxd2yom1 * inv - b * dxdyom1 * inv
        return read_only(dyb, dxb)


# evaluation times are exact eighths of the horizon so that every time
# ladder (Nt divisible by 8, which ladder_nts requires) lands on identical
# physical times and the Richardson differences never compare shifted
# snapshots
_EVAL_FRACS = (0.375, 0.625, 0.875)


def ladder_nts(nt: int) -> list:
    """Step counts of the residual ladder's levels, each halving dt: three
    levels give the two Richardson differences that the dt-order needs; nt
    must be a multiple of 8 (_EVAL_FRACS)."""
    if nt % 8:
        raise ValueError(f"nt must be a multiple of 8 when a residual check is enabled "
                         f"(every ladder level is read at 3T/8, 5T/8, 7T/8), got {nt}")
    return [nt, 2 * nt, 4 * nt]


def _eval_indices(nt: int) -> list:
    """Centre indices of the evaluation triples on a time grid of nt steps."""
    return sorted({min(max(int(round(f * nt)), 1), nt - 1) for f in _EVAL_FRACS})


def _windows(traj: Trajectory):
    """Reads traj.u once in time order and yields, at each evaluation index
    i (_eval_indices), the three-node Trajectory of the nodes i - 1, i and
    i + 1 (read it at index 1); then reads traj.u to its end, so that a
    streamed solve marches and checks its last steps.  Of the nodes read it
    keeps only those a window still to come reads, and of a window's nodes,
    once yielded, only those the next window reads: each window owns its
    node list, so its nodes die with its reader's last reference but for
    those.  So at most three of traj's nodes are alive, the one being
    marched included, and between windows only the next window's shared
    nodes (and the node last read, which a stream holds to march from)."""
    idx = _eval_indices(len(traj.times) - 1)
    held = {}       # node index -> field, of the nodes a window still to come reads
    for j, u in enumerate(traj.u):
        if any(abs(j - i) <= 1 for i in idx):
            held[j] = u
        if j - 1 in idx:
            first = min((i - 1 for i in idx if i >= j), default=j + 1)   # next window's first
            yield replace(traj, times=traj.times[j - 2:j + 1],
                          u=[held[k] if k >= first else held.pop(k) for k in range(j - 2, j + 1)])


def _material_derivative(snap: Snapshot, dq: np.ndarray, q: np.ndarray, dyq: np.ndarray,
                         d2yq: np.ndarray, dt2: float, eps: float) -> np.ndarray:
    """(d_t + (u^s+u) d_x + v d_y - d_y^2 - eps d_x^2) q, d_t centered: dq is
    q at the next node minus q at the previous one, dt2 their time gap.

    The caller supplies d_y q and d_y^2 q (analytic for the quotient fields,
    so no stencil crosses their unsafe regions); both x-derivatives come from
    one cleaned spectrum of q.  The sum is formed in place, in its order,
    in dq's storage: dq is spent."""
    g = snap.grid
    spec = x_spectrum(q)
    out = np.divide(dq, dt2, out=dq)
    term = dx_m_spec(g, spec, 1).values
    term *= snap.state.us[None, :] + snap.u.values
    out += term
    out += np.multiply(snap.v.values, dyq, out=term)
    out -= d2yq
    del term
    out -= eps * dx_m_spec(g, spec, 2).values
    return out


# Residual norms are taken over interior rows: the evolution identities are
# interior statements, the wall traces have their own dedicated checks, and
# one-sided composite stencils at the first rows would otherwise dominate
# every norm with a dt-independent floor.
_EDGE_ROWS = 4


def _interior_l2(grid: Grid2D, values: np.ndarray) -> float:
    wy = grid.y_weights(0.0)
    wy[:_EDGE_ROWS] = wy[-_EDGE_ROWS:] = 0.0
    return l2_y_weighted(grid, values, wy)


def _f_dy(s0: Snapshot, m: int) -> tuple:
    """(d_y q, d_y^2 q) of the f_m identity, q = f_m before its cut-off,
    from the quotient pack of a (analytic)."""
    a0 = s0.a
    dya, _, d2ya = s0.quotient_pack_f
    dxm_u, dxm_om, dxm_dyom = s0.dxu(m).values, s0.dxom(m).values, s0.dxdyom(m).values
    dyq = dxm_dyom - dya * dxm_u - a0 * dxm_om
    d2yq = s0.dxd2yom(m).values - d2ya * dxm_u - 2.0 * dya * dxm_om - a0 * dxm_dyom
    return dyq, d2yq


def _commutator(s0: Snapshot, n: int, q, r, v_top: int) -> np.ndarray:
    """[d_x^n, u d_x + v d_y] as one identity reads it: the sum over k = 1..n
    of C(n,k) d_x^k u q(n-k+1) plus that over k = 1..v_top of C(n,k) d_x^k v
    r(n-k).  f and h stop at v_top = n - 1: their k = n term, d_x^n v times
    d_y omega_tot - a omega_tot (resp. d_y^2 omega_tot - b d_y omega_tot),
    is zero by the definition of a (resp. b)."""
    out = np.zeros_like(s0.om_tot)
    for k in range(1, n + 1):
        out += math.comb(n, k) * s0.dxu(k).values * q(n - k + 1)
    for k in range(1, v_top + 1):
        out += math.comb(n, k) * s0.dxv(k).values * r(n - k)
    return out


def _f_rhs(s0: Snapshot, m: int, eps: float) -> np.ndarray:
    """Right-hand side of the f_m identity."""
    a0, inv = s0.a, s0.inv_om
    dya, dxa, _ = s0.quotient_pack_f
    dxm_u, dxm_om = s0.dxu(m).values, s0.dxom(m).values
    rhs = -_commutator(s0, m, s0.q_f,
                       lambda j: s0.dxdyom(j).values - a0 * s0.dxom(j).values, m - 1)
    dxu1 = s0.dxu(1).values
    dxom1 = s0.dxom(1).values
    rhs += (dxom1 - dxu1 * a0 - 2.0 * a0 * dya
            - 2.0 * eps * dxom1 * inv * dxa) * dxm_u
    rhs += 2.0 * dya * dxm_om + 2.0 * eps * dxa * s0.dxu(m + 1).values
    return rhs


def _h_dy(s0: Snapshot, m: int) -> tuple:
    """(d_y q, d_y^2 q) of the h_m identity, q = h_m before its cut-off."""
    dyb, _ = s0.quotient_pack_h
    dyq = s0.dxd2yom(m).values - dyb * s0.dxom(m).values - s0.b * s0.dxdyom(m).values
    # one narrow FD derivative of the analytic first derivative: avoids both
    # pointwise d_y^3(omega)-level roughness and wide stencils crossing the
    # denominator's thin safe margin
    return dyq, dy_j(Field(s0.grid, dyq), 1).values


def _h_rhs(s0: Snapshot, m: int, eps: float) -> np.ndarray:
    """Right-hand side of the h_m identity; the coefficient block uses the
    g1-corrected quotient calculus."""
    g = s0.grid
    b0, invD = s0.b, s0.inv_dyom
    dyb, dxb = s0.quotient_pack_h
    dxdyom1 = s0.dxdyom(1).values
    dxu1 = s0.dxu(1).values
    # the third and fourth lines of the coefficient block regroup exactly as
    # -2 b d_y b - 2 eps r d_y r with r = (d_x d_y omega)/D, which keeps every
    # pointwise value at the two-derivative level
    r_quot = dxdyom1 * invD
    rhs = (2.0 * (s0.om_tot * dxdyom1 - dxu1 * s0.d2yom_tot) * invD
           - s0.g1 * s0.d2yom_tot * invD**2
           - 2.0 * b0 * dyb
           - 2.0 * eps * r_quot * dy_j(Field(g, r_quot), 1).values) * s0.dxom(m).values
    rhs += 2.0 * dyb * s0.dxdyom(m).values
    rhs += 2.0 * eps * dxb * s0.dxom(m + 1).values
    rhs -= _commutator(s0, m, s0.q_h,
                       lambda j: s0.dxd2yom(j).values - b0 * s0.dxdyom(j).values, m - 1)
    rhs -= s0.g(m + 1).values
    return rhs


def _g_dy(s0: Snapshot, m: int) -> tuple:
    """(d_y q, d_y^2 q) of the g_m identity, q = g_m (wide stencils)."""
    q0 = s0.g(m)
    return dy_j(q0, 1, npts=_WIDE).values, dy_j(q0, 2, npts=_WIDE).values


def _g_rhs(s0: Snapshot, m: int, eps: float) -> np.ndarray:
    """Right-hand side of the g_m identity."""
    rhs = -_commutator(s0, m - 1, lambda j: s0.g(j + 1).values,
                       lambda j: dy_j(s0.g(j + 1), 1).values, m - 1)
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
    return rhs


# per kind: q on one snapshot (f_m, h_m before their cut-offs; g_m), looked
# up on the snapshot when called, the identity's (d_y q, d_y^2 q) and its
# right-hand side
_KINDS = {"f": (lambda s, m: s.q_f(m), _f_dy, _f_rhs),
          "g": (lambda s, m: s.g(m).values, _g_dy, _g_rhs),
          "h": (lambda s, m: s.q_h(m), _h_dy, _h_rhs)}


class ResidualJob(NamedTuple):
    """One residual identity: kind "f", "g" or "h" at tangential order m,
    weighted by the cut-off row chi (None: unweighted)."""
    kind: str
    m: int
    chi: np.ndarray | None = None


_DELTA_F = 0.5


def residual_jobs(grid: Grid2D, rep: AssumptionReport, cut: CutoffSet, kinds) -> list:
    """The residual jobs of the given kinds ("f", "g", "h") at m = 1, 2, 3,
    in report order.  h is weighted by chi2 of the certified cut, g by
    nothing, and f by chi1 of a cut with a wider hole (delta = _DELTA_F,
    capped below y0/2), so that no stencil reaches the zero set of
    omega^s + omega."""
    chi = {"g": None, "h": cut.chi2,
           "f": build_cutoffs(grid, rep.y0, min(_DELTA_F, 0.499 * rep.y0)).chi1
           if "f" in kinds else None}
    return [ResidualJob(kind, m, chi[kind]) for m in _ORDERS for kind in "fgh"
            if kind in kinds]


def _time_differences(traj: Trajectory, jobs, i: int, walls: bool = False) -> list:
    """Each job's q(i + 1) - q(i - 1), the difference the centered d_t
    reads, then, with walls, that of omega, which the trace formulas read
    (_wall_traces).  The neighbour i - 1 is reduced to its values and
    dropped before i + 1 is built, and each value there is folded with the
    i - 1 value at once; with no job no neighbour is built."""
    if not jobs:
        return []
    s = Snapshot(traj, i - 1)
    dq = [_KINDS[kind][0](s, m) for kind, m, _ in jobs] + [s.omega.values] * walls
    del s
    s = Snapshot(traj, i + 1)
    for k, (kind, m, _) in enumerate(jobs):
        dq[k] = _KINDS[kind][0](s, m) - dq[k]
    if walls:
        dq[-1] = s.omega.values - dq[-1]
    return dq


def _residual(traj: Trajectory, jobs, k: int, i: int, s0: Snapshot, dq: list) -> tuple:
    """(res, scale, diff) of jobs[k] at node i, from the centre snapshot s0
    and the jobs' _time_differences dq: diff is chi times the identity's
    residual (material derivative of q minus its right-hand side), res its
    interior L2 norm and scale that of chi q.

    The job's difference dq[k] is released once its material derivative is
    formed, before its right-hand side.  The cut-off bookkeeping (all chi',
    chi'' terms) cancels algebraically between the two sides, so each check
    evaluates the surviving interior identity weighted by chi; stencils
    never cross the critical strip because the f cut-off's hole is wider
    than their reach."""
    kind, m, chi = jobs[k]
    q, d_y, rhs = _KINDS[kind]
    q0 = q(s0, m)
    dt2 = traj.times[i + 1] - traj.times[i - 1]
    diff = _material_derivative(s0, dq[k], q0, *d_y(s0, m), dt2, traj.eps)
    dq[k] = None
    diff -= rhs(s0, m, traj.eps)
    if chi is not None:
        diff, q0 = chi[None, :] * diff, chi[None, :] * q0
    return _interior_l2(traj.grid, diff), max(_interior_l2(traj.grid, q0), 1e-300), diff


# What each step of a level's evaluation at a node (_steps) reads of the
# centre snapshot's members that the walk releases: attributes by name,
# memoised x-derivatives as (spectrum, order) keys (a job at order m: of
# u, omega, d_y omega, d_y^2 omega and v, the orders from 1 up to its
# tops).  A spectrum counts as read where one of its derivatives still to
# be formed is, and so does the member that a product (a spectrum, the f
# quotient pack, or d_y^3 omega_tot) is formed from (_SOURCES) where the
# product still to be formed is, transitively: the pack is formed from
# d_y^3 omega_tot, and that from omega.
_U, _OM, _DY, _D2, _V, _G = "spec_u", "spec_om", "spec_dyom", "spec_d2yom", "spec_v", "spec_g1"
_READS = {
    **{(kind, m): names | {(spec, j) for spec, top in zip((_U, _OM, _DY, _D2, _V), tops)
                           for j in range(1, top + 1)}
       for m in _ORDERS
       for kind, names, tops in (
           ("f", {"a", "inv_om", "quotient_pack_f"}, (m + 1, m, m, m, m - 1)),
           ("g", {(_G, j) for j in range(m)}, (m + 1, m + 1, m, m - 1, m - 1)),
           ("h", {"b", "inv_dyom", "quotient_pack_h", "g1", (_G, m)}, (m, m + 1, m, m, m - 1)))},
    **{("dy_f", m): {"a", (_U, m), (_OM, m)} for m in _ORDERS},
    **{("dy_g", m): {(_G, m - 1), (_U, 1), (_OM, 1)} for m in _ORDERS},
    ("traces", 0): {"omega", (_U, 1), (_OM, 1), (_OM, 2), (_D2, 1)},
}
# a product comes before any product formed from its source
_SOURCES = {_DY: "dyom", _D2: "d2yom", _G: "g1", "quotient_pack_f": "d3yom_tot",
            "d3yom_tot": "omega"}
_RELEASED = set().union(*_READS.values(), _SOURCES, _SOURCES.values(), (_U, _OM, _V))


def _steps(jobs, walls: bool) -> list:
    """The steps of one level's evaluation at a node, in walk order, each
    as (its _READS key, its job's index or None): the jobs kind by kind, on
    the wall level each kind followed by its wall slopes (f and g, the
    identities d_y f_m = 0 and d_y g_m = 0, at each order), then the trace
    formulas."""
    out = []
    for kind in "fgh":
        out += [((kind, job.m), k) for k, job in enumerate(jobs) if job.kind == kind]
        if walls and kind != "h":
            out += [((f"dy_{kind}", m), None) for m in _ORDERS]
    return out + [(("traces", 0), None)] * walls


def _spent(s0: Snapshot, later) -> list:
    """The members of s0 that the walk releases (_READS) and that s0 holds
    but no step in later reads: neither the member itself nor, for a
    spectrum, a derivative still to be formed nor, for a source
    (_SOURCES), a product still to be formed (or one formed from it)."""
    reads = set().union(*(_READS[step] for step in later))
    reads |= {key[0] for key in reads if isinstance(key, tuple) and not s0.formed(key)}
    for product, src in _SOURCES.items():
        if product in reads and not s0.formed(product):
            reads.add(src)
    return [member for member in _RELEASED - reads if s0.formed(member)]


class ResidualLevel(NamedTuple):
    """One ladder level of one residual job.  richardson is the largest
    interior L2 norm, over the evaluation nodes, of the residual field's
    change from the previous level; it is None on the first level."""
    dt: float
    grid: Grid2D
    norms: tuple                  # residual L2 norm per evaluation node
    scales: tuple                 # identity scale per evaluation node
    richardson: float | None


def _walk_node(streams, jobs, acc: list, chi1) -> dict:
    """One evaluation node of walk, its levels in turn: each level's window
    is taken from its stream (_windows), evaluated and dropped before the
    next level's is asked for, so that window and snapshot are the level's
    alone.  A level reads its neighbours' nodes only for the time
    differences (on the wall level omega's too, which its trace formulas
    read; with no job, for the trace formulas alone) and then releases
    them.  It evaluates its jobs kind by kind, f, g, then h, each in order
    m, the wall slopes of f and g after their kind's jobs (_steps), and
    before each step its centre snapshot releases every member that no
    step still to come reads (_spent): d_y^3 omega_tot once the f pack is
    formed from it, the quotient a with its reciprocal and pack after f_3,
    omega, d_y omega and d_y^2 omega once no product still to be formed
    needs them, g_1 after the job g_1 (h reads g_2 to g_4), g1 and its
    spectrum after h_3, and each spectrum once every derivative still to
    be read of it is formed.  Appends each job's residual norm, scale and,
    from the second level on, the interior L2 norm of its residual field's
    change from the previous level to acc[k][level]; with chi1, returns the
    first level's wall traces (else an empty dict).  What it forms dies on
    return."""
    coarser = [None] * len(jobs)        # each job's residual field on the previous level
    traces = {}
    for level, stream in enumerate(streams):
        walls = level == 0 and chi1 is not None
        steps = _steps(jobs, walls)
        win = next(stream)
        dq = _time_differences(win, jobs, 1, walls)
        if jobs or not walls:
            win.u[0] = win.u[2] = None      # nodes i -/+ 1, read for the last time
        s0 = Snapshot(win, 1)
        for n, ((name, m), k) in enumerate(steps):
            s0.release(*_spent(s0, [step for step, _ in steps[n:]]))
            if k is not None:
                res, scale, diff = _residual(win, jobs, k, 1, s0, dq)
                norms, scales, gaps = acc[k][level]
                norms.append(res)
                scales.append(scale)
                if coarser[k] is not None:
                    gaps.append(_interior_l2(win.grid, coarser[k] - diff))
                coarser[k] = diff
            elif name == "traces":
                traces.update(_wall_traces(win, 1, s0, dq.pop() if jobs else None))
            else:
                for key, value in _wall_slope(s0, name[-1], m, chi1).items():
                    traces[key] = max(traces.get(key, 0.0), value)
        del s0, win     # before the next level's nodes are marched
    return traces


def walk(trajs, jobs=(), rep: AssumptionReport | None = None) -> tuple:
    """The node walk of the check-only solves: (rows, walls).  rows holds,
    for each job, one ResidualLevel per trajectory (the residual ladder's
    levels, each halving dt of the last, all on one space grid); walls, with
    rep, the boundary check's wall-trace maxima of the first trajectory,
    keyed by (Ny, dt) with its dy (boundary_checks).

    The trajectories advance in lockstep, one evaluation node at a time, each
    through its three-node window (_windows: a stream is read once and
    drained).  At a node the levels are marched to their windows and
    evaluated in turn, with one window and one snapshot alive at a time
    (each other level keeps only the nodes its next window shares), and
    each job's residual field is folded at once into the Richardson
    difference against the previous level's field of that job and node,
    then takes its place (_walk_node): the dt-independent spatial floor
    cancels in the difference and the dt component remains.  A level
    evaluates its jobs kind by kind and releases each snapshot member once
    no step still to come reads it; rows keep the jobs' order.  The first
    level's centre snapshot also serves the wall traces."""
    trajs = list(trajs)
    first = trajs[0]
    chi1 = None if rep is None else build_cutoffs(first.grid, rep.y0, rep.delta).chi1[None, :]
    acc = [[([], [], []) for _ in trajs] for _ in jobs]     # per job and level: norms, scales, gaps
    wall = {}
    nodes = {len(_eval_indices(len(traj.times) - 1)) for traj in trajs}
    if len(nodes) > 1:
        raise ValueError(f"the trajectories' evaluation node counts differ: {sorted(nodes)}")
    streams = [_windows(traj) for traj in trajs]
    for _ in range(nodes.pop()):
        for key, value in _walk_node(streams, jobs, acc, chi1).items():
            # running maxima over the nodes, a scale's from 1e-300
            wall[key] = max(wall.get(key, 1e-300 if key.endswith("_scale") else 0.0), value)
    for stream in streams:
        next(stream, None)      # drains it: its solve marches its last steps
    walls = {} if rep is None else {(first.grid.Ny, first.dt): {**wall, "dy": first.grid.dy}}
    rows = [[ResidualLevel(traj.dt, traj.grid, tuple(norms), tuple(scales),
                           max(gaps) if gaps else None)
             for traj, (norms, scales, gaps) in zip(trajs, levels)] for levels in acc]
    return rows, walls


def _order(e1: float, e2: float, h1: float, h2: float) -> float:
    """The observed order of errors e1, e2 at resolutions h1, h2."""
    return math.log(e1 / e2) / math.log(h1 / h2)


def residual_report(job: ResidualJob, levels) -> ResidualReport:
    """The job's residual norms per time-resolution level (its walk rows)
    plus the dt-order, measured on the levels' Richardson differences."""
    grid_levels = [(lvl.dt, lvl.grid.dy, lvl.grid.Nx) for lvl in levels]
    diffs = [lvl.richardson for lvl in levels[1:]]
    orders = []
    for k in range(len(diffs) - 1):
        h1, h2 = grid_levels[k][0], grid_levels[k + 1][0]
        if diffs[k + 1] > 0:
            orders.append(_order(diffs[k], diffs[k + 1], h1, h2))
    observed = float(np.mean(orders)) if orders else float("nan")
    return ResidualReport(name=f"residual_{job.kind}[m={job.m}]", grid_levels=grid_levels,
                          residual_norms=[max(lvl.norms) for lvl in levels],
                          scales=[max(lvl.scales) for lvl in levels],
                          observed_order=observed, pairwise_orders=orders)


# the per-kind names perfbench/tracer.py wraps; each is residual_report
residual_f = residual_g = residual_h = residual_report


def _peak(values: np.ndarray) -> float:
    """The largest magnitude of the values."""
    return float(np.max(np.abs(values)))


def _wall_slope(s0: Snapshot, kind: str, m: int, chi1: np.ndarray) -> dict:
    """The wall identity d_y q = 0 of kind "f" (q = chi1 f_m) or "g"
    (q = g_m) at snapshot s0, reduced to floats: the largest magnitude of
    d_y q at the wall and over the node."""
    q = s0.g(m) if kind == "g" else Field(s0.grid, chi1 * s0.q_f(m))
    dyq = dy_j(q, 1).values
    return {f"dy_{kind}_wall": _peak(dyq[:, 0]), f"dy_{kind}_scale": _peak(dyq)}


def _wall_traces(traj: Trajectory, i: int, s0: Snapshot, dom=None) -> dict:
    """The trace formulas at node i of traj, from its snapshot s0, reduced
    to floats: per boundary_checks key, the largest magnitude of the defect
    or scale at the wall.  d_y^2 omega is represented through the evolution
    equation, whose centered d_t reads only dom, omega (Snapshot.omega's
    stencil) at i + 1 minus omega at i - 1: the time differences' where jobs
    built the neighbours' snapshots (_time_differences), else formed here
    from traj's nodes, which are released once read.  The temporaries die
    on return."""
    g, eps = traj.grid, traj.eps
    om_tot0 = s0.om_tot[:, 0]
    dxom0 = s0.dxom(1).values[:, 0]
    if dom is None:
        dom = dy_j(traj.u[i + 1], 1, npts=_WIDE).values - dy_j(traj.u[i - 1], 1, npts=_WIDE).values
        traj.u[i - 1] = traj.u[i + 1] = None
    dt2 = traj.times[i + 1] - traj.times[i - 1]
    eqrhs = Field(g, _material_derivative(s0, dom, s0.omega.values, s0.dyom_tot, 0.0,
                                          dt2, eps))
    del dom
    out = {"third_trace": _peak(dy_j(eqrhs, 1).values[:, 0] - om_tot0 * dxom0),
           "third_scale": _peak(om_tot0 * dxom0)}
    rhs5 = (-s0.d2yom_tot[:, 0] * dxom0
            + 4.0 * om_tot0 * s0.dxd2yom(1).values[:, 0]
            - 2.0 * eps * dxom0 * s0.dxom(2).values[:, 0])
    return {**out, "fifth_trace": _peak(dy_j(eqrhs, 3).values[:, 0] - rhs5),
            "fifth_scale": _peak(rhs5),
            "fifth_trace_direct_unchecked": _peak(dy_j(s0.omega, 5).values[:, 0] - rhs5)}


def boundary_checks(levels: dict) -> CheckReport:
    """Wall identities: d_y g_m = 0, d_y f_m = 0, and the third- and
    fifth-derivative trace formulas at y = 0, with their dy-orders between
    the coarsest and the finest level.

    levels holds the wall-trace maxima that walk returns with rep, one
    level per trajectory read; this reduces them and walks nothing.  The
    trace formulas are evaluated through the vorticity equation's
    representation of d_y^2 omega (one resp. three further derivatives),
    exactly as they are derived; forming d_y^5 omega directly from nodal
    values would amplify solution noise by 1/dy^5 and sits in the blind
    spot of the sine representation.  The raw direct evaluation is reported
    as unchecked evidence.
    """
    keys = sorted(levels, key=lambda k: -levels[k]["dy"])
    ev = {"levels": {str(k): levels[k] for k in keys}}
    orders = {}
    if len(keys) >= 2:
        for fieldname in ("third_trace", "fifth_trace", "dy_g_wall", "dy_f_wall"):
            a, b = levels[keys[0]], levels[keys[-1]]
            if b[fieldname] > 0 and a["dy"] != b["dy"]:
                orders[fieldname] = _order(a[fieldname], b[fieldname], a["dy"], b["dy"])
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
    evidence = {}
    worst = 0.0
    for m in _ORDERS:
        fm = cut.chi1[None, :] * ws.q_f(m)
        quot = ws.dxu(m).values * ws.inv_om
        form2 = cut.chi1[None, :] * ws.om_tot * dy_j(Field(g, quot), 1, npts=_WIDE).values
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
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash, whose constant advances by mult per call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _seed_pcg64(seed: int) -> tuple:
    """(state, sequence) that numpy's PCG64 takes from SeedSequence(seed):
    the seed's 32-bit words, least significant first, hash-mixed into a pool
    of four words, then hashed out into four uint64 words (two 32-bit words
    each, little-endian): the first two are the 128-bit state, the last
    two the sequence."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        pool = [mix(x, hashmix(word)) for x in pool]
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    words = [out(pool[i % 4]) for i in range(8)]
    w = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


class _DefaultRng:
    """numpy.random.default_rng(seed)'s stream, bit for bit, for the two
    methods _sobolev_field calls: PCG64 (XSL-RR 128/64, O'Neill 2014) seeded
    through SeedSequence, numpy's 32-bit Lemire rejection for `integers`
    (drawing from the half-word buffer of next_uint32) and its 53-bit
    doubles for `uniform`.  Pure Python, so the run never imports
    numpy.random (and with it secrets, hashlib and OpenSSL)."""

    def __init__(self, seed: int):
        state, seq = _seed_pcg64(seed)
        self._state, self._inc = 0, (seq << 1 | 1) & _MASK128
        self._step()
        self._state = (self._state + state) & _MASK128
        self._step()
        self._half = None       # the upper half of the last 64-bit draw, not yet used

    def _step(self):
        self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128

    def _next64(self) -> int:
        self._step()
        hi = self._state >> 64
        x, rot = (hi ^ self._state) & _MASK64, hi >> 58
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def integers(self, lo: int, hi: int) -> int:
        """An integer in [lo, hi)."""
        rng = hi - lo - 1
        if not 0 <= rng <= _MASK32:
            raise ValueError(f"integers({lo}, {hi}): the range must be 1 to 2**32 wide")
        if rng == 0:
            return lo
        excl = rng + 1
        m = self._next32() * excl
        if m & _MASK32 < excl:
            threshold = (_MASK32 - rng) % excl
            while m & _MASK32 < threshold:
                m = self._next32() * excl
        return lo + (m >> 32)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * ((self._next64() >> 11) * 2.0**-53)


def _sobolev_field(grid: Grid2D, rng) -> Field:
    """Sum of 1 to 3 terms amp cos(2 pi k x / Lx + phase) y^p exp(-q (y-c)^2),
    each the product of its x and y factors (bitwise as on a meshgrid)."""
    kmax = max(grid.Nx // 8, 2)
    y = grid.y_nodes
    vals = np.zeros((grid.Nx, grid.Ny))
    for _ in range(rng.integers(1, 4)):
        k = int(rng.integers(0, kmax + 1))
        phase = rng.uniform(0, 2 * np.pi)
        c = rng.uniform(0.2, 3.0)
        q = rng.uniform(0.1, 1.5)
        p = int(rng.integers(0, 3))
        amp = rng.uniform(0.1, 2.0)
        x_fac = amp * np.cos(2 * np.pi * k * grid.x_nodes / grid.Lx + phase)
        vals += x_fac[:, None] * (y ** p)[None, :] * np.exp(-q * (y - c) ** 2)[None, :]
    return Field(grid, vals)


def sobolev_check(grid: Grid2D, seed: int = 0) -> CheckReport:
    """linf(h) <= sqrt(2)(|h| + |d_x h| + |d_y h| + |d_x d_y h|) on
    _SOBOLEV_COUNT random band-limited fields with y-decay."""
    rng = _DefaultRng(seed)
    violations = 0
    max_ratio = 0.0
    for _ in range(_SOBOLEV_COUNT):
        h = _sobolev_field(grid, rng)
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


def condition_row(traj: Trajectory, i: int, rep: AssumptionReport, p: GevreyParams) -> tuple:
    """The pointwise persistence conditions at node i of traj: (clauses,
    clause 4's sum).  Its snapshot releases each member once read (d_x u
    once v is formed from it, a spectrum once its last derivative is, d_y
    omega and d_y^2 omega once their spectra are) and dies on return."""
    g = traj.grid
    y = g.y_nodes
    s0 = Snapshot(traj, i)
    # clauses 1-3: the hypotheses on omega_tot with the constants relaxed by 4
    hyp = rep.clauses(s0.om_tot, s0.dyom_tot, (s0.dyom_tot,), y, 4.0)
    s0.release("omega", "om_tot", "dyom_tot", "d2yom_tot")
    cl = {"1": hyp["i"], "2": hyp["ii"], "3": hyp["iii"]}
    w_lm1 = (1.0 + y) ** (p.ell - 1.0)
    w_l = (1.0 + y) ** p.ell
    w_lp1 = (1.0 + y) ** (p.ell + 1.0)
    total = 0.0
    for j in (1, 2):
        total += linf(Field(g, w_lm1[None, :] * s0.dxu(j).values))
        total += linf(s0.dxv(j - 1))
        total += linf(Field(g, w_l[None, :] * s0.dxom(j).values))
        s0.release("v", (_U, j), (_V, j - 1), (_OM, j))
    s0.release(_U, _OM, _V)
    for ii in (1, 2):
        total += linf(Field(g, w_lp1[None, :] * s0.dxdyom(ii).values))
        total += linf(Field(g, w_lp1[None, :] * s0.dxd2yom(ii).values))
        s0.release("dyom", "d2yom", (_DY, ii), (_D2, ii))
    cl["4"] = bool(total <= 1.0 + _SLACK)
    return cl, total


def condi_monitor(rows: list, times: np.ndarray) -> CheckReport:
    """Reduces a trajectory's condition rows (condition_row at each stored
    time) to the first time a clause fails and the clauses failing there
    (None and None if every row passes), and clause 4's largest sum."""
    fails = [(float(t), [k for k, v in cl.items() if not v])
             for (cl, _), t in zip(rows, times) if not all(cl.values())]
    first_fail, fail_clause = fails[0] if fails else (None, None)
    return CheckReport(
        name="conditions_monitor", passed=not fails,
        evidence={"first_failure_time": first_fail, "failing_clauses": fail_clause,
                  "clause4_max": max(s for _, s in rows), "horizon": float(times[-1])})


def energy_monitor(raws: list, times: np.ndarray, p: GevreyParams,
                   rho_pair: tuple) -> CheckReport:
    """Minimal constant making the radius-pair energy inequality hold at each
    stored time; reports its maximum over the horizon.  raws are the
    trajectory's seminorm table, norms.full_raw at each stored time."""
    rho, rho_t = rho_pair
    if not (0.0 < rho < rho_t):
        raise ValueError("need 0 < rho < rho_tilde")
    n = len(times)
    lhs = np.empty(n)
    nr4 = np.empty(n)
    nt2 = np.empty(n)
    for i, raw in enumerate(raws):
        v_rho = gevrey_norm(raw, replace(p, rho=rho), with_aux=True)
        v_rt = gevrey_norm(raw, replace(p, rho=rho_t), with_aux=True)
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
    raws are the trajectory's seminorm table (energy_monitor); raws[0]
    gives u0's base and extended norms."""
    base0 = gevrey_norm(raws[0], replace(p, rho=2.0 * rho0))
    ext0 = gevrey_norm(raws[0], replace(p, rho=rho0), with_aux=True)
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


def picard_contraction_check(solve) -> CheckReport:
    """Geometric decay of the Picard update norms, solve.contraction."""
    xs = [x for x in solve.contraction if x > 0.0]
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
