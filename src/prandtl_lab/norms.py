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
rho_*k_max^(1/sigma).

L2 norms in x are evaluated per Fourier mode (Parseval, modal multiplier
k^m) and weighted y-quadrature, which matches the physical-space evaluation
to rounding and reads the cleaned spectra the derivative bundle already
holds; only f_m and h_m, whose coefficients vary in x, are summed in
physical space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .cutoffs import AuxWorkspace, CutoffSet
from .grid import Field, Grid2D, dy_j, l2_y_weighted, x_spectrum
from .shear import ShearState

__all__ = ["GevreyParams", "GevreyRaw", "gevrey_raw", "full_raw", "gevrey_norm",
           "lifespan_norm"]


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

    def weight(self, m: int) -> float:
        """rho^(m-5) / ((m-6)!)^sigma for m >= 6, 1 otherwise."""
        if m <= 5:
            return 1.0
        return self.rho ** (m - 5) / math.factorial(m - 6) ** self.sigma


@dataclass
class GevreyRaw:
    """rho-independent seminorms of one field (and optionally its aux set)."""

    tang_u: np.ndarray                   # m = 0..Mmax : |<y>^(ell-1) dx^m u|
    tang_om: np.ndarray                  # m = 0..Mmax : |<y>^ell dx^m omega|
    mixed: dict                          # (i, j) -> |<y>^(ell+1) dx^i dy^j omega|
    aux: dict = dc_field(default_factory=dict)   # m -> (g, f, h, chi2dyom)


def _weighted_norms_all_m(grid: Grid2D, spec: np.ndarray, wy: np.ndarray,
                          m_list) -> np.ndarray:
    """[ |sqrt(wy) dx^m f|_{L2} for m in m_list ] from the cleaned rfft
    spectrum of f (Parseval: mode k carries c_k |F(k, y)|^2 Lx / Nx^2, and
    dx^m multiplies it by k^(2m)); wy holds the y-quadrature weights."""
    c = np.full(grid.Nx // 2 + 1, 2.0)
    c[0] = 1.0
    if grid.Nx % 2 == 0:
        c[-1] = 1.0
    rows = c[:, None] * np.abs(spec) ** 2 * (grid.Lx / grid.Nx ** 2)
    k = grid.wavenumbers
    out = np.empty(len(m_list))
    col = rows @ wy
    for idx, m in enumerate(m_list):
        out[idx] = np.sqrt(np.sum(k ** (2 * m) * col))
    return out


def gevrey_raw(ws: AuxWorkspace, p: GevreyParams) -> GevreyRaw:
    """The base seminorms of ws.u, read from its derivative bundle ws (on the
    standard y-stencils); they do not depend on the bundle's shear state."""
    g = ws.grid
    if p.Mmax > g.Nx // 4:
        raise ValueError(f"Mmax={p.Mmax} exceeds the anti-aliasing guard Nx/4={g.Nx // 4}")
    ms = list(range(p.Mmax + 1))
    tang_u = _weighted_norms_all_m(g, ws.spec_u, g.y_weights(p.ell - 1.0), ms)
    tang_om = _weighted_norms_all_m(g, ws.spec_om, g.y_weights(p.ell), ms)
    w_mixed = g.y_weights(p.ell + 1.0)
    specs = [ws.spec_dyom, ws.spec_d2yom] + [x_spectrum(dy_j(ws.omega, j).values)
                                             for j in (3, 4)]
    mixed = {}
    for j, spec in enumerate(specs, 1):
        i_list = list(range(0, p.Mmax - j + 1))
        vals = _weighted_norms_all_m(g, spec, w_mixed, i_list)
        for i, v in zip(i_list, vals):
            mixed[(i, j)] = float(v)
    return GevreyRaw(tang_u=tang_u, tang_om=tang_om, mixed=mixed)


def full_raw(u: Field, state: ShearState, cut: CutoffSet, p: GevreyParams) -> GevreyRaw:
    """gevrey_raw plus the cancellation-function seminorms at m = 1..Mmax.
    g_m = dx^(m-1) g1 and chi2 d_y dx^m omega are a pure x-derivative times a
    y-only factor, so their norms come by Parseval from the bundle's spectra
    with chi2^2 in the y-weight; f_m and h_m, whose quotients a, b vary in x,
    are summed in physical space with chi1^2, chi2^2 folded into theirs.
    Once f_m and h_m have been read, the bundle drops its order-m
    x-derivatives of u, omega and d_y omega, which no later order reads: the
    table holds one tangential order at a time, and each is formed once."""
    ws = AuxWorkspace(u, state, cut)
    raw = gevrey_raw(ws, p)
    g = u.grid
    ms = list(range(1, p.Mmax + 1))
    w_chi2 = g.trapz_weights() * cut.chi2 ** 2
    w_f = g.y_weights(p.ell) * cut.chi1 ** 2
    gs = _weighted_norms_all_m(g, ws.spec_g1, g.y_weights(0.0), [m - 1 for m in ms])
    cs = _weighted_norms_all_m(g, ws.spec_dyom, w_chi2, ms)
    for m, g_m, c_m in zip(ms, gs, cs):
        raw.aux[m] = (float(g_m), l2_y_weighted(g, ws.q_f(m), w_f),
                      l2_y_weighted(g, ws.q_h(m), w_chi2), float(c_m))
        ws.release(*((spec, m) for spec in ("spec_u", "spec_om", "spec_dyom")))
    return raw


def gevrey_norm(raw: GevreyRaw, p: GevreyParams, with_aux: bool = False) -> float:
    """The Gevrey norm at radius p.rho from the seminorms of one field: the
    sum of the suprema of the five base groups and, with_aux, of the two
    cancellation-function groups."""
    hi = range(6, p.Mmax + 1)
    groups = [
        [p.weight(m) * raw.tang_u[m] for m in hi],
        [p.weight(m) * raw.tang_om[m] for m in hi],
        [raw.tang_u[m] + raw.tang_om[m] for m in range(6)],
        [p.weight(i + j) * v for (i, j), v in raw.mixed.items() if i + j >= 6],
        [v for (i, j), v in raw.mixed.items() if i + j <= 5],
    ]
    if with_aux:
        aux = {m: m * g + f + h + c for m, (g, f, h, c) in raw.aux.items()}
        groups += [[aux[m] for m in range(1, min(5, p.Mmax) + 1)],
                   [p.weight(m) * aux[m] for m in hi]]
    return float(sum(max(vals) for vals in groups))


_N_RHO = 16     # radii sampled in (0, rho0) by the lifespan supremum


def lifespan_norm(raws: list, times: np.ndarray, lam: float, T: float, p: GevreyParams,
                  rho0: float) -> float:
    """sup over (rho, t) with rho + lam*t < rho0, t <= T of
    sqrt((rho0-rho-lam t)/(rho0-rho)) * |u(t)|_{rho,sigma}, from the
    full_raw of u at the stored times."""
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
            val = gevrey_norm(raw, replace(p, rho=float(rho)), with_aux=True)
            best = max(best, np.sqrt((rho0 - rho - lam * t) / (rho0 - rho)) * val)
    return float(best)
