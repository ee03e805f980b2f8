"""Heat evolution of the shear profile and persistence certification.

The half-line Dirichlet problem is solved by writing u^s = H_t + w, where
H_t(y) = erf(y / (2*sqrt(1+t))) is an exact self-similar solution carrying
the boundary values (0 at the wall, 1 at infinity), and w evolves the
residual w0 = u0s - H_0 by Gaussian-kernel quadrature against its odd
extension.  The image-kernel difference G(t, y-s) - G(t, y+s) keeps the wall
value exactly zero (antisymmetry is exact nodewise), and the y->infinity
limit is exact because the profile normalization makes w0 vanish at Ymax.

Derivatives up to order 6 come from differentiating the kernel and the lift
analytically (Hermite polynomials), never from finite differences, so shear
coefficients entering the verification identities carry quadrature accuracy.

Each order is formed only where it is read.  evolve_shear forms u^s and
omega^s, all that the perturbation equation (the solvers' forcing) reads.
Orders 2..4 (ShearState.dj_omegas, d_y^j omega^s for j = 1..3) are formed
once, as one block, on the state's first read of them, and kept: the
derivative bundle (cutoffs.AuxWorkspace, orders 2-3) and the residual
snapshot (verify.Snapshot, order 4) read them.  At t = 0 they are the
profile's derivatives.  The persistence scan (check_proposition_shear)
forms orders 1..6 at each of its times in one call and builds no state; the
profile keeps its report alone, keyed by what the scan reads.

The quadrature nodes s_k = h*k (h = dy/r, r = profiles._FINE_REFINE) refine
the grid, y_i = h*r*i, so both kernel arguments are integer multiples of h:
y_i - s_k = h*(r*i - k) and y_i + s_k = h*(r*i + k).  Each time therefore
evaluates the kernel derivatives once, on the 1-D table of offsets
h*m, m = -(Nf-1) .. r*(Ny-1) + Nf-1, and reads the direct (Toeplitz) and
image (Hankel) Ny x Nf matrices from it as strided views.  When h*m is exact
(dy a binary fraction, as on the reference grids) every entry is bitwise the
one the dense double sum y_i -/+ s_k would give.

The difference direct - image is never formed whole (20 MB at Ny = 513):
it is formed 32 rows at a time, each block reduced by its own gemv.  The
rows are bitwise those of the one-call single-thread product, and unlike
that product's they do not depend on the BLAS thread count.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .profiles import _FINE_REFINE, AssumptionReport, ShearProfile
from .scipy_ext import compiled

__all__ = ["ShearState", "PropositionReport", "evolve_shear", "min_resolved_step",
           "proposition_clauses", "check_proposition_shear"]


@dataclass
class ShearState:
    """Shear flow at one time: u^s, omega^s = d_y u^s, and d_y^j omega^s.

    The state keeps its profile so that dj_omegas can be formed when first
    read; the profile's state cache keeps both alive together."""

    t: float
    us: np.ndarray
    omegas: np.ndarray
    profile: ShearProfile = field(repr=False, compare=False)

    @cached_property
    def dj_omegas(self) -> np.ndarray:
        """Shape (3, Ny); row j-1 holds d_y^j omega^s, j = 1..3."""
        if self.t == 0.0:
            return self.profile.derivs[1:4].copy()
        return _quadrature_rows(self.profile, self.t, 2, 5)


def _erf(x: np.ndarray) -> np.ndarray:
    """scipy.special.erf, from the file-loaded _special_ufuncs when found."""
    erf = compiled("special_ufuncs")
    if erf is None:
        from scipy.special import erf
    return erf(x)


def _hermite(n: int, x: np.ndarray) -> np.ndarray:
    """The physicists' Hermite polynomial H_n(x) as scipy.special.eval_hermite
    computes it, bitwise: the probabilists' recurrence y_k = xs y_{k+1} -
    k y_{k+2}, k = n .. 1, on xs = sqrt(2) x, times 2^(n/2)."""
    xs = np.sqrt(2.0) * x
    y1, y2 = np.ones_like(xs), np.zeros_like(xs)
    for k in range(n, 0, -1):
        y1, y2 = xs * y1 - k * y2, y1
    return y1 * 2.0 ** (n / 2)


def _lift(y: np.ndarray, t: float, j: int) -> np.ndarray:
    """d_y^j of erf(y / (2 sqrt(1+t)))."""
    s = 2.0 * np.sqrt(1.0 + t)
    eta = y / s
    if j == 0:
        return _erf(eta)
    sign = -1.0 if (j - 1) % 2 else 1.0
    return (2.0 / np.sqrt(np.pi)) * s ** (-j) * sign * _hermite(j - 1, eta) * np.exp(-eta * eta)


def _kernel_derivs_upto(z: np.ndarray, t: float, j0: int, j1: int) -> list[np.ndarray]:
    """[d_z^j kernel for j0 <= j < j1] with one exponential; the Hermite
    recurrence runs from order 0, the products only for the orders kept."""
    s = np.sqrt(4.0 * t)
    x = z / s
    e = np.exp(-x * x) / np.sqrt(4.0 * np.pi * t)
    h_prev = np.ones_like(x)
    h_cur = 2.0 * x
    out = [e.copy()] if j0 == 0 else []
    for j in range(1, j1):
        if j > 1:
            h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * (j - 1) * h_prev
        if j >= j0:
            out.append((-1.0) ** j * s ** (-j) * h_cur * e)
    return out


_BLOCK = 32     # rows of the kernel difference formed at once


def _row_spans(ny: int) -> list[tuple[int, int]]:
    """[a, b) row spans of _BLOCK rows; a tail under 4 rows joins the span
    before it, so every span but the last is a multiple of 4 rows and the
    last ends in the same Ny mod 4 rows as one Ny-row product would."""
    edges = list(range(0, ny, _BLOCK)) + [ny]
    if len(edges) > 2 and edges[-1] - edges[-2] < 4:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _kernel_operands(p: ShearProfile, t: float, j0: int, j1: int) -> tuple:
    """(w0w, views): the weighted datum w0 * quadrature weights on y_fine,
    and per order j0 <= j < j1 the (direct, image) Ny x Nf kernel views,
    read from one table of d^j kernel at h*m."""
    grid = p.grid
    r, ny = _FINE_REFINE, grid.Ny
    yq = p.y_fine
    nf = len(yq)
    if nf <= r * (ny - 1) or not np.allclose(
            yq, (grid.dy / r) * np.arange(nf), rtol=0.0, atol=1e-9 * grid.dy):
        raise ValueError(f"y_fine must be a {r}-fold refinement of the grid's y-nodes")
    h = yq[1] - yq[0]
    w0 = p.u0s_fine - _lift(yq, 0.0, 0)
    wq = np.full(yq.shape, h)
    wq[0] = wq[-1] = 0.5 * h
    w0w = w0 * wq

    # tab[j - j0][m + nf - 1] = d^j kernel at h*m.  The direct view is read
    # from a reversed copy of the table so that its columns run forward: the
    # subtraction in _quadrature_rows is slower on a negative column stride
    tab = _kernel_derivs_upto(h * np.arange(-(nf - 1), r * (ny - 1) + nf), t, j0, j1)
    n = len(tab[0])
    views = []
    for row in tab:
        rev = sliding_window_view(row[::-1].copy(), nf)
        views.append((rev[n - nf::-r][:ny],                      # [i, k] -> h*(r*i - k)
                      sliding_window_view(row, nf)[nf - 1::r][:ny]))  # h*(r*i + k)
    return w0w, views


def _quadrature_rows(p: ShearProfile, t: float, j0: int, j1: int) -> np.ndarray:
    """Rows d_y^j u^s(t) for j = j0 .. j1-1 (t > 0), shape (j1-j0, Ny).

    direct - image is formed one _row_spans span at a time in one reused
    buffer, each span reduced by its own gemv; a row is the same whichever
    block of orders it is formed in."""
    w0w, views = _kernel_operands(p, t, j0, j1)
    ny = p.grid.Ny
    spans = _row_spans(ny)
    buf = np.empty((max(b - a for a, b in spans), len(w0w)))
    out = np.empty((j1 - j0, ny))
    for j, (direct, image), row in zip(range(j0, j1), views, out):
        for a, b in spans:
            row[a:b] = np.subtract(direct[a:b], image[a:b], out=buf[:b - a]) @ w0w
        row += _lift(p.grid.y_nodes, t, j)
    return out


def min_resolved_step(grid) -> float:
    """Least time t > 0 whose heat-kernel width sqrt(4 t) reaches the
    quadrature spacing dy/r; a narrower kernel is not resolved by the
    quadrature of evolve_shear."""
    return (grid.dy / _FINE_REFINE) ** 2 / 4.0


def _warn_width(p: ShearProfile, t: float) -> None:
    """Warns when the heat kernel at time t is too wide for the y-domain;
    the stack level names the caller of evolve_shear or of
    check_proposition_shear."""
    if 4.0 * np.sqrt(t) > p.grid.Ymax / 4.0:
        warnings.warn(
            f"heat kernel width 4*sqrt(t)={4 * np.sqrt(t):.2f} exceeds Ymax/4; "
            "y-truncation unsafe at this time", stacklevel=3)


def evolve_shear(p: ShearProfile, t: float) -> ShearState:
    """Shear state at time t >= 0; t=0 returns the profile samples exactly.

    Only u^s and omega^s are formed here; d_y^j omega^s (j = 1..3) follows on
    first read of the state's dj_omegas."""
    if t < 0:
        raise ValueError("t must be non-negative")
    cache = p.state_cache
    if t in cache:
        return cache[t]
    if t == 0.0:
        state = ShearState(t=0.0, us=p.u0s.copy(), omegas=p.derivs[0].copy(), profile=p)
        cache[t] = state
        return state
    _warn_width(p, t)
    us, omegas = _quadrature_rows(p, t, 0, 2)
    state = ShearState(t=t, us=us, omegas=omegas, profile=p)
    cache[t] = state
    return state


@dataclass
class PropositionReport:
    T_s: float
    t_checked: list
    clauses_at_failure: dict | None
    inconsistent_at_zero: bool

    @property
    def ok(self) -> bool:
        return not self.inconsistent_at_zero and self.T_s >= _T_S_MIN

    def to_dict(self) -> dict:
        return {**asdict(self), "pass": self.ok}


def proposition_clauses(rows: np.ndarray, rep: AssumptionReport,
                        y: np.ndarray) -> dict[str, bool]:
    """Clause-by-clause persistence check on rows = d_y^j u^s, j = 1..6 (at
    t = 0 the profile's derivs): the hypotheses on omega^s with
    halved/doubled constants, clause (iii) on d_y^j omega^s, j = 1..5."""
    return rep.clauses(rows[0], rows[1], rows[1:], y, 2.0)


_T_SCAN = 0.5       # horizon of the persistence scan
_T_S_MIN = 0.1      # least persistence time T_s that passes
_SCAN_STEP = 1e-2   # time step of the persistence scan


def check_proposition_shear(p: ShearProfile, rep: AssumptionReport) -> PropositionReport:
    """Largest T_s <= _T_SCAN up to which all persistence clauses hold.

    Each scan time t > 0 forms orders 1..6 in one quadrature call, read
    once and dropped; no state is kept.  The profile keeps the report, keyed
    by all that the scan reads: rep's constants and the scan grid."""
    if not rep.all_pass:
        raise ValueError("assumption report must pass before persistence is scanned")
    key = (rep.y0, rep.alpha, rep.c0, rep.c1, rep.delta, _T_SCAN, _SCAN_STEP)
    if key in p.scan_reports:
        return p.scan_reports[key]
    y = p.grid.y_nodes
    T_s, checked, failure = 0.0, [], None
    for t in np.arange(0.0, _T_SCAN + 0.5 * _SCAN_STEP, _SCAN_STEP):
        t = float(t)
        _warn_width(p, t)
        clauses = proposition_clauses(_quadrature_rows(p, t, 1, 7) if t > 0.0 else p.derivs,
                                      rep, y)
        checked.append(t)
        if not all(clauses.values()):
            failure = clauses
            break
        T_s = t
    report = p.scan_reports[key] = PropositionReport(
        T_s=T_s, t_checked=checked, clauses_at_failure=failure,
        inconsistent_at_zero=failure is not None and t == 0.0)
    return report
