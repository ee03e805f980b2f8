"""Gevrey-type norms in the tangential variable.

The base norm combines five groups: weighted L2 norms of dx^m u and
dx^m omega with geometric/factorial weights rho^(m-5)/((m-6)!)^sigma for
m >= 6, their unweighted low-order versions for m <= 5, and the analogous
mixed-derivative groups on dx^i dy^j omega with 1 <= j <= 4.  The extended
norm adds, with the same weights, the cancellation-function group
m*|g_m| + |<y>^ell f_m| + |h_m| + |chi2 d_y dx^m omega| (note the extra
factor m on the g-term).  Each norm value is the sum of its group suprema.

The supremum over all m is truncated at Mmax: on band-limited-in-x discrete
fields the summand decays factorially once m - 5 exceeds roughly
rho_*k_max^(1/sigma), and the report carries a geometric tail estimate so
the truncation is auditable.

L2 norms in x are evaluated per Fourier mode (Parseval, modal multiplier
k^m) and weighted y-quadrature, which matches the physical-space evaluation
to rounding and costs one FFT per underlying field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cutoffs import AuxWorkspace, CutoffSet
from .grid import Field, Grid2D, dy_j, weighted_l2
from .shear import ShearState

__all__ = ["GevreyParams", "NormReport", "GevreyRaw", "gevrey_raw", "full_raw",
           "trajectory_raws", "gevrey_norm", "full_norm", "lifespan_norm"]


@dataclass
class GevreyParams:
    rho: float
    sigma: float = 1.75
    ell: float = 2.25
    alpha: float = 2.0
    Mmax: int = 10

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
        if not (1.5 <= self.sigma <= 2.0):
            raise ValueError(f"sigma must lie in [1.5, 2], got {self.sigma}")
        if not (self.ell > 1.5):
            raise ValueError(f"ell must exceed 3/2, got {self.ell}")
        if not (self.alpha <= self.ell < self.alpha + 0.5):
            raise ValueError(
                f"ell must satisfy alpha <= ell < alpha + 1/2, got ell={self.ell}, alpha={self.alpha}")
        if self.Mmax < 7:
            raise ValueError(f"Mmax must be at least 7, got {self.Mmax}")

    def with_rho(self, rho: float) -> "GevreyParams":
        return GevreyParams(rho=rho, sigma=self.sigma, ell=self.ell,
                            alpha=self.alpha, Mmax=self.Mmax)

    def weight(self, m: int) -> float:
        """rho^(m-5) / ((m-6)!)^sigma for m >= 6, 1 otherwise."""
        if m <= 5:
            return 1.0
        return self.rho ** (m - 5) / math.factorial(m - 6) ** self.sigma


@dataclass
class NormReport:
    total: float
    groups: dict
    entries: dict
    argmax: str
    truncation_tail: float

    def to_dict(self) -> dict:
        return {"total": self.total, "groups": dict(self.groups),
                "entries": dict(self.entries), "argmax": self.argmax,
                "truncation_tail": self.truncation_tail}


@dataclass
class GevreyRaw:
    """rho-independent seminorms of one field (and optionally its aux set)."""

    Mmax: int
    kmax: float
    tang_u: np.ndarray                   # m = 0..Mmax : |<y>^(ell-1) dx^m u|
    tang_om: np.ndarray                  # m = 0..Mmax : |<y>^ell dx^m omega|
    mixed: dict                          # (i, j) -> |<y>^(ell+1) dx^i dy^j omega|
    aux: dict = dc_field(default_factory=dict)   # m -> (g, f, h, chi2dyom)


def _parseval_rows(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """Row energy c_k |F(k, y)|^2 * Lx / Nx^2; summing over k gives the exact
    x-integral of f^2 at each y."""
    from .grid import clean_spectrum
    spec = clean_spectrum(np.fft.rfft(values, axis=0))
    c = np.full(grid.Nx // 2 + 1, 2.0)
    c[0] = 1.0
    if grid.Nx % 2 == 0:
        c[-1] = 1.0
    return c[:, None] * np.abs(spec) ** 2 * (grid.Lx / grid.Nx ** 2)


def _weighted_norms_all_m(grid: Grid2D, values: np.ndarray, weight_exp: float,
                          m_list) -> np.ndarray:
    """[ |<y>^w dx^m f|_{L2} for m in m_list ] via one FFT."""
    rows = _parseval_rows(grid, values)
    wy = grid.trapz_weights() * (1.0 + grid.y_nodes) ** (2.0 * weight_exp)
    k = grid.wavenumbers
    out = np.empty(len(m_list))
    col = rows @ wy
    for idx, m in enumerate(m_list):
        out[idx] = np.sqrt(np.sum(k ** (2 * m) * col)) if m else np.sqrt(np.sum(col))
    return out


def gevrey_raw(u: Field, p: GevreyParams) -> GevreyRaw:
    g = u.grid
    if p.Mmax > g.Nx // 4:
        raise ValueError(f"Mmax={p.Mmax} exceeds the anti-aliasing guard Nx/4={g.Nx // 4}")
    ms = list(range(p.Mmax + 1))
    omega = dy_j(u, 1)
    tang_u = _weighted_norms_all_m(g, u.values, p.ell - 1.0, ms)
    tang_om = _weighted_norms_all_m(g, omega.values, p.ell, ms)
    mixed = {}
    for j in range(1, 5):
        dj_om = dy_j(omega, j)
        i_list = list(range(0, p.Mmax - j + 1))
        vals = _weighted_norms_all_m(g, dj_om.values, p.ell + 1.0, i_list)
        for i, v in zip(i_list, vals):
            mixed[(i, j)] = float(v)
    kmax = float(np.max(g.wavenumbers))
    return GevreyRaw(Mmax=p.Mmax, kmax=kmax, tang_u=tang_u, tang_om=tang_om, mixed=mixed)


def full_raw(u: Field, state: ShearState, cut: CutoffSet, p: GevreyParams) -> GevreyRaw:
    raw = gevrey_raw(u, p)
    ws = AuxWorkspace(u, state, cut)
    for m in range(1, p.Mmax + 1):
        raw.aux[m] = (
            weighted_l2(ws.g(m), 0.0),
            weighted_l2(ws.f(m), p.ell),
            weighted_l2(ws.h(m), 0.0),
            weighted_l2(ws.chi2_dyom(m), 0.0),
        )
    return raw


def trajectory_raws(traj, cut: CutoffSet, p: GevreyParams) -> list:
    """full_raw of the trajectory at every stored time.  The seminorms do
    not depend on rho, so one list serves every radius a reader asks for."""
    return [full_raw(u, st, cut, p) for u, st in zip(traj.u, traj.shear)]


def _tail_estimate(p: GevreyParams, top_value: float, kmax: float) -> float:
    """Geometric bound on the dropped m > Mmax supremands, assuming each
    extra dx multiplies the L2 norm by at most kmax (band-limited data)."""
    m = p.Mmax + 1
    ratio = p.rho * kmax / max(m - 5, 1) ** p.sigma
    first = top_value * p.rho * kmax / (m - 6 if m - 6 > 0 else 1) ** p.sigma
    if ratio >= 1.0:
        return float("inf") if first > 0 else 0.0
    return first / (1.0 - ratio)


def _report_from_raw(raw: GevreyRaw, p: GevreyParams, with_aux: bool) -> NormReport:
    entries = {}
    groups = {}

    hi = range(6, p.Mmax + 1)
    g1 = {f"u:m={m}": p.weight(m) * raw.tang_u[m] for m in hi}
    g2 = {f"om:m={m}": p.weight(m) * raw.tang_om[m] for m in hi}
    g3 = {f"low:m={m}": raw.tang_u[m] + raw.tang_om[m] for m in range(6)}
    g4 = {f"mixed:i={i},j={j}": p.weight(i + j) * v
          for (i, j), v in raw.mixed.items() if i + j >= 6}
    g5 = {f"mixed-low:i={i},j={j}": v
          for (i, j), v in raw.mixed.items() if i + j <= 5}
    named = [("tangential-u", g1), ("tangential-omega", g2), ("low-order", g3),
             ("mixed", g4), ("mixed-low", g5)]
    if with_aux:
        g6 = {f"aux:m={m}": m * raw.aux[m][0] + raw.aux[m][1] + raw.aux[m][2] + raw.aux[m][3]
              for m in range(1, min(5, p.Mmax) + 1)}
        g7 = {f"aux-hi:m={m}": p.weight(m) * (m * raw.aux[m][0] + raw.aux[m][1]
                                              + raw.aux[m][2] + raw.aux[m][3])
              for m in range(6, p.Mmax + 1)}
        named += [("aux-low", g6), ("aux-hi", g7)]

    total = 0.0
    for name, d in named:
        entries.update(d)
        groups[name] = max(d.values()) if d else 0.0
        total += groups[name]
    argmax = max(entries, key=entries.get) if entries else ""
    top = max(raw.tang_u[p.Mmax], raw.tang_om[p.Mmax])
    tail = _tail_estimate(p, p.weight(p.Mmax) * top, raw.kmax)
    return NormReport(total=float(total), groups=groups, entries=entries,
                      argmax=argmax, truncation_tail=float(tail))


def gevrey_norm(u: Field, p: GevreyParams) -> NormReport:
    """Base Gevrey norm of a field (five supremum groups, summed)."""
    return _report_from_raw(gevrey_raw(u, p), p, with_aux=False)


def full_norm(u: Field, state: ShearState, cut: CutoffSet, p: GevreyParams) -> NormReport:
    """Extended norm: base groups plus the cancellation-function groups."""
    return _report_from_raw(full_raw(u, state, cut, p), p, with_aux=True)


_N_RHO = 16     # radii sampled in (0, rho0) by the lifespan supremum


def lifespan_norm(raws: list, times: np.ndarray, lam: float, T: float, p: GevreyParams,
                  rho0: float) -> float:
    """sup over (rho, t) with rho + lam*t < rho0, t <= T of
    sqrt((rho0-rho-lam t)/(rho0-rho)) * |u(t)|_{rho,sigma}, from the
    trajectory_raws of u at the stored times."""
    if T > rho0 / lam + 1e-12:
        raise ValueError(f"T={T} exceeds rho0/lambda={rho0 / lam}")
    rhos = rho0 * (np.arange(_N_RHO) + 1.0) / (_N_RHO + 1.0)
    best = 0.0
    for raw, t in zip(raws, times):
        if t > T + 1e-14:
            break
        for rho in rhos:
            if rho + lam * t >= rho0:
                continue
            val = _report_from_raw(raw, p.with_rho(float(rho)), with_aux=True).total
            best = max(best, np.sqrt((rho0 - rho - lam * t) / (rho0 - rho)) * val)
    return float(best)
