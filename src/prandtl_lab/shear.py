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

The quadrature nodes s_k = h*k (h = dy/r, r = profiles._FINE_REFINE) refine
the grid, y_i = h*r*i, so both kernel arguments are integer multiples of h:
y_i - s_k = h*(r*i - k) and y_i + s_k = h*(r*i + k).  Each time therefore
evaluates the kernel derivatives once, on the 1-D table of offsets
h*m, m = -(Nf-1) .. r*(Ny-1) + Nf-1, and reads the direct (Toeplitz) and
image (Hankel) Ny x Nf matrices from it as strided views.  When h*m is exact
(dy a binary fraction, as on the reference grids) every entry is bitwise the
one the dense double sum y_i -/+ s_k would give.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf, eval_hermite

from .profiles import _FINE_REFINE, AssumptionReport, ShearProfile

__all__ = ["ShearState", "PropositionReport", "evolve_shear",
           "proposition_clauses", "check_proposition_shear"]


@dataclass
class ShearState:
    """Shear flow at one time: u^s, omega^s = d_y u^s, and d_y^j omega^s."""

    t: float
    us: np.ndarray
    omegas: np.ndarray
    dj_omegas: np.ndarray     # shape (5, Ny); row j-1 holds d_y^j omega^s


def _lift(y: np.ndarray, t: float, j: int) -> np.ndarray:
    """d_y^j of erf(y / (2 sqrt(1+t)))."""
    s = 2.0 * np.sqrt(1.0 + t)
    eta = y / s
    if j == 0:
        return erf(eta)
    sign = -1.0 if (j - 1) % 2 else 1.0
    return (2.0 / np.sqrt(np.pi)) * s ** (-j) * sign * eval_hermite(j - 1, eta) * np.exp(-eta * eta)


def _kernel_derivs_upto(z: np.ndarray, t: float, jmax: int) -> list[np.ndarray]:
    """[d_z^j kernel for j=0..jmax] with one exponential, Hermite recurrence."""
    s = np.sqrt(4.0 * t)
    x = z / s
    e = np.exp(-x * x) / np.sqrt(4.0 * np.pi * t)
    h_prev = np.ones_like(x)
    h_cur = 2.0 * x
    out = [e.copy()]
    for j in range(1, jmax + 1):
        if j == 1:
            h = h_cur
        else:
            h = 2.0 * x * h_cur - 2.0 * (j - 1) * h_prev
            h_prev, h_cur = h_cur, h
        sign = -1.0 if j % 2 else 1.0
        out.append(sign * s ** (-j) * h * e)
    return out


def evolve_shear(p: ShearProfile, t: float) -> ShearState:
    """Shear state at time t >= 0; t=0 returns the profile samples exactly."""
    if t < 0:
        raise ValueError("t must be non-negative")
    cache = p.state_cache
    if t in cache:
        return cache[t]
    grid = p.grid
    if t == 0.0:
        state = ShearState(t=0.0, us=p.u0s.copy(), omegas=p.derivs[0].copy(),
                           dj_omegas=p.derivs[1:6].copy())
        cache[t] = state
        return state
    if 4.0 * np.sqrt(t) > grid.Ymax / 4.0:
        warnings.warn(
            f"heat kernel width 4*sqrt(t)={4 * np.sqrt(t):.2f} exceeds Ymax/4; "
            "y-truncation unsafe at this time", stacklevel=2)

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

    # tab[j][m + nf - 1] = d^j kernel at h*m
    tab = _kernel_derivs_upto(h * np.arange(-(nf - 1), r * (ny - 1) + nf), t, 6)
    y = grid.y_nodes
    out = np.empty((7, ny))
    for j in range(7):
        win = sliding_window_view(tab[j], nf)
        direct = win[:r * (ny - 1) + 1:r, ::-1]     # [i, k] -> h*(r*i - k)
        image = win[nf - 1::r][:ny]                  # [i, k] -> h*(r*i + k)
        out[j] = (direct - image) @ w0w + _lift(y, t, j)
    state = ShearState(t=t, us=out[0], omegas=out[1], dj_omegas=out[2:7])
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
        return not self.inconsistent_at_zero and self.T_s > 0.0

    def to_dict(self) -> dict:
        return {"T_s": self.T_s, "t_checked": list(self.t_checked),
                "clauses_at_failure": self.clauses_at_failure,
                "inconsistent_at_zero": self.inconsistent_at_zero,
                "pass": self.ok}


_SLACK = 1e-12


def proposition_clauses(state: ShearState, rep: AssumptionReport,
                        y: np.ndarray) -> dict[str, bool]:
    """Clause-by-clause persistence check (halved/doubled constants)."""
    y0, delta, alpha = rep.y0, rep.delta, rep.alpha
    strip = np.abs(y - y0) <= 1.75 * delta + _SLACK
    cl1 = bool(np.all(np.abs(state.dj_omegas[0][strip]) >= rep.c0 / 2.0 - _SLACK))

    off = np.abs(y - y0) >= 1.25 * delta - _SLACK
    wy = (1.0 + y[off]) ** (-alpha)
    mag = np.abs(state.omegas[off])
    cl2 = bool(np.all(mag >= 0.5 * rep.c1 * wy - _SLACK)
               and np.all(mag <= 2.0 / rep.c1 * wy + _SLACK))

    wy1 = (1.0 + y) ** (-alpha - 1.0)
    cl3 = bool(all(np.all(np.abs(state.dj_omegas[j]) <= 2.0 / rep.c1 * wy1 + _SLACK)
                   for j in range(5)))
    return {"i": cl1, "ii": cl2, "iii": cl3}


def check_proposition_shear(p: ShearProfile, rep: AssumptionReport,
                            T_scan: float = 0.5, step: float = 1e-2) -> PropositionReport:
    """Largest T_s <= T_scan up to which all persistence clauses hold."""
    if not rep.all_pass:
        raise ValueError("assumption report must pass before persistence is scanned")
    y = p.grid.y_nodes
    ts = np.arange(0.0, T_scan + 0.5 * step, step)
    T_s = 0.0
    checked = []
    for t in ts:
        state = evolve_shear(p, float(t))
        clauses = proposition_clauses(state, rep, y)
        checked.append(float(t))
        if not all(clauses.values()):
            return PropositionReport(T_s=T_s, t_checked=checked,
                                     clauses_at_failure=clauses,
                                     inconsistent_at_zero=(t == 0.0))
        T_s = float(t)
    return PropositionReport(T_s=T_s, t_checked=checked,
                             clauses_at_failure=None, inconsistent_at_zero=False)
