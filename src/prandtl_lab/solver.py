"""Time integration of the regularized perturbation equation

    d_t u + (u^s+u) d_x u + v d_y(u^s+u) - d_y^2 u - eps d_x^2 u = 0,
    u(y=0) = 0,  u -> 0 as y -> infinity,  v = -int_0^y d_x u.

Two routes solve the same equation and cross-validate each other:

  * picard_solve iterates the fixed-point map u_j = M1 u0 - M2 F(u_{j-1})
    on the whole time grid (mild_solution), where M1 is the Dirichlet heat
    semigroup of d_y^2 + eps d_x^2 (heat_propagate) and M2 its Duhamel
    convolution (trapezoid in time);
  * imex_solve marches u^{n+1} = M1(dt) (u^n - dt F(u^n)) with
    heat_propagate, diffusion exact per step, transport explicit.

The semigroup is diagonal in (Fourier in x) x (sine series in y); a sine
expansion on [0, Ymax] replaces the exact half-line image kernel, which is
justified because the perturbation vanishes at Ymax within truncation
tolerance.  Both boundary values are imposed exactly by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
from scipy.fft import dst, idst

from .grid import Field, Grid2D, dx_m, dy_j, linf, truncation_check, weighted_l2
from .profiles import ShearProfile
from .shear import ShearState, evolve_shear

__all__ = ["SolverConfig", "Trajectory", "SolverDivergence", "heat_propagate",
           "mild_solution", "picard_solve", "imex_solve", "recover_v"]


class SolverDivergence(RuntimeError):
    """Raised when an iteration or time march is detected to blow up."""


@dataclass
class SolverConfig:
    eps: float
    T: float
    Nt: int
    jmax: int = 12
    tol: float = 1e-10
    scheme: str = "picard"

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        if self.Nt < 4:
            raise ValueError(f"Nt must be at least 4, got {self.Nt}")
        if self.jmax < 2:
            raise ValueError(f"jmax must be at least 2, got {self.jmax}")
        if self.scheme not in ("picard", "imex"):
            raise ValueError(f"scheme must be 'picard' or 'imex', got {self.scheme!r}")


def _to_modal(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """(Nx, Ny) real samples -> (Nx/2+1, Ny-2) complex sine-mode amplitudes."""
    return np.fft.rfft(dst(values[:, 1:-1], type=1, axis=1), axis=0)


def _from_modal(grid: Grid2D, modal: np.ndarray) -> np.ndarray:
    s = np.fft.irfft(modal, n=grid.Nx, axis=0)
    out = np.zeros((grid.Nx, grid.Ny))
    out[:, 1:-1] = idst(s, type=1, axis=1)
    return out


def _modal_rates(grid: Grid2D, eps: float) -> np.ndarray:
    """Decay rate eps*k^2 + (n pi / Ymax)^2 of each (k, n) mode."""
    k = grid.wavenumbers
    n = np.arange(1, grid.Ny - 1)
    return eps * k[:, None] ** 2 + (n[None, :] * np.pi / grid.Ymax) ** 2


def heat_propagate(f: Field, t: float, eps: float) -> Field:
    """Dirichlet heat semigroup exp(t (d_y^2 + eps d_x^2)) applied to f.

    Exact solution operator of the linear part on the truncated domain; the
    boundary rows of the result are exactly zero.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    g = f.grid
    wall = np.max(np.abs(f.values[:, 0]))
    if wall > 1e-8 * max(1.0, np.max(np.abs(f.values))):
        warnings.warn(f"heat_propagate input has wall values up to {wall:.2e}; "
                      "the sine expansion discards them", stacklevel=2)
    modal = _to_modal(g, f.values)
    modal *= np.exp(-_modal_rates(g, eps) * t)
    return Field(g, _from_modal(g, modal))


def mild_solution(u0: Field, forcing, eps: float, times: np.ndarray) -> list[Field]:
    """M1(t_i) u0 - int_0^{t_i} M1(t_i - s) f(s) ds at every node of the
    uniform time grid, the integral by the trapezoid rule.

    ``forcing`` yields f at the nodes in order; each is reduced to its modal
    amplitudes on arrival, and the integral advances by the recursion
    I_i = e^{-L dt} I_{i-1} + dt/2 (e^{-L dt} f_{i-1} + f_i).  The value at
    t_0 is u0 itself.
    """
    g = u0.grid
    rates = _modal_rates(g, eps)
    dt = times[1] - times[0]
    e_dt = np.exp(-rates * dt)
    u0_modal = _to_modal(g, u0.values)
    out = [u0]
    acc = np.zeros_like(u0_modal)
    f_prev = None
    for t, f in zip(times, forcing):
        f_modal = _to_modal(g, f.values)
        if f_prev is not None:
            acc = e_dt * acc + 0.5 * dt * (e_dt * f_prev + f_modal)
            out.append(Field(g, _from_modal(g, np.exp(-rates * t) * u0_modal - acc)))
        f_prev = f_modal
    return out


def _cumint_y4(grid: Grid2D, vals: np.ndarray) -> np.ndarray:
    """Cumulative y-antiderivative, 4th order (cubic panels), zero at y=0.

    Exact on cubics; the order matters because the identity-residual ladders
    would otherwise be floored by the quadrature error of v."""
    h = grid.dy
    n = grid.Ny
    inc = np.empty_like(vals)
    inc[:, 1:-2] = (h / 24.0) * (-vals[:, 0:-3] + 13.0 * vals[:, 1:-2]
                                 + 13.0 * vals[:, 2:-1] - vals[:, 3:])
    inc[:, 0] = (h / 24.0) * (9.0 * vals[:, 0] + 19.0 * vals[:, 1]
                              - 5.0 * vals[:, 2] + vals[:, 3])
    inc[:, -2] = (h / 24.0) * (vals[:, -4] - 5.0 * vals[:, -3]
                               + 19.0 * vals[:, -2] + 9.0 * vals[:, -1])
    out = np.zeros((vals.shape[0], n))
    np.cumsum(inc[:, :-1], axis=1, out=out[:, 1:])
    return out


def recover_v(u: Field, dxu: Field | None = None) -> Field:
    """Normal velocity slaved to u by incompressibility: -int_0^y d_x u.

    dxu is d_x u when the caller already holds it (it also needs it for the
    transport forcing); otherwise it is computed here."""
    if dxu is None:
        dxu = dx_m(u, 1)
    return Field(u.grid, _cumint_y4(u.grid, -dxu.values))


@dataclass
class Trajectory:
    grid: Grid2D
    times: np.ndarray
    u: list                      # Field per time node
    v: list                      # Field per time node
    shear: list                  # ShearState per time node
    scheme: str
    eps: float
    contraction: list = dc_field(default_factory=list)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def save(self, outdir) -> None:
        """Write outdir/trajectory.npz: times, u stacked to (N, Nx, Ny),
        contraction, scheme and eps, all exact."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        np.savez(outdir / "trajectory.npz", times=self.times,
                 u=np.stack([f.values for f in self.u]),
                 contraction=np.asarray(self.contraction, dtype=float),
                 scheme=self.scheme, eps=self.eps)


def _forcing(u: Field, v: Field, dxu: Field, state: ShearState) -> Field:
    g = u.grid
    total_dy = state.omegas[None, :] + dy_j(u, 1).values
    vals = (state.us[None, :] + u.values) * dxu.values + v.values * total_dy
    return Field(g, vals)


def _shear_states(profile: ShearProfile, times: np.ndarray) -> list:
    return [evolve_shear(profile, float(t)) for t in times]


def picard_solve(u0: Field, profile: ShearProfile, cfg: SolverConfig) -> Trajectory:
    """Fixed-point iteration of the heat-kernel formulation on [0, T].

    Stops when the sup-in-time L2 norm of the update xi_j falls below
    cfg.tol, or after cfg.jmax sweeps with a warning that the iteration has
    not converged; raises SolverDivergence when the update norm grows three
    sweeps in a row (horizon too long for eps).
    """
    g = u0.grid
    from .profiles import check_compatibility
    cr = check_compatibility(u0, profile)
    if cr.res_third > 1e-6 * (1.0 + linf(u0)):
        warnings.warn(
            f"initial datum violates the third wall compatibility condition "
            f"by {cr.res_third:.2e}; wall traces of the solution will be rough",
            stacklevel=2)
    times = np.linspace(0.0, cfg.T, cfg.Nt + 1)
    states = _shear_states(profile, times)

    def forcing_of(us):
        for ui, st in zip(us, states):
            dxu = dx_m(ui, 1)
            yield _forcing(ui, recover_v(ui, dxu), dxu, st)

    u_prev = [u0.copy() for _ in times]
    contraction: list[float] = []
    grow = 0
    for _ in range(cfg.jmax):
        u_next = mild_solution(u0, forcing_of(u_prev), cfg.eps, times)
        xi = max(weighted_l2(u_next[i] - u_prev[i], 0.0) for i in range(len(times)))
        contraction.append(xi)
        if len(contraction) >= 2 and xi > contraction[-2]:
            grow += 1
            if grow >= 3:
                raise SolverDivergence(
                    f"Picard update grew for 3 consecutive sweeps (last |xi|={xi:.3e}); "
                    f"T={cfg.T} too large for eps={cfg.eps}")
        else:
            grow = 0
        u_prev = u_next
        if xi < cfg.tol:
            break
    else:
        warnings.warn(
            f"Picard iteration stopped at jmax={cfg.jmax} sweeps with the update "
            f"{xi:.3e} above tol={cfg.tol:.1e}", stacklevel=2)
    v_final = [recover_v(ui) for ui in u_prev]
    truncation_check(u_prev[-1], name="picard final state")
    return Trajectory(grid=g, times=times, u=u_prev, v=v_final, shear=states,
                      scheme="picard", eps=cfg.eps, contraction=contraction)


def imex_solve(u0: Field, profile: ShearProfile, cfg: SolverConfig) -> Trajectory:
    """First-order splitting: explicit transport step, exact diffusion step."""
    g = u0.grid
    times = np.linspace(0.0, cfg.T, cfg.Nt + 1)
    states = _shear_states(profile, times)
    dt = times[1] - times[0]

    us = [u0.copy()]
    vs = []
    u_cur = u0
    for n in range(cfg.Nt):
        dxu = dx_m(u_cur, 1)
        vs.append(recover_v(u_cur, dxu))
        f_cur = _forcing(u_cur, vs[-1], dxu, states[n])
        nxt = heat_propagate(Field(g, u_cur.values - dt * f_cur.values), dt, cfg.eps)
        peak_prev = max(linf(u_cur), 1e-14)
        peak = linf(nxt)
        if peak > 2.0 * peak_prev and peak > 1e-10:
            raise SolverDivergence(
                f"imex step {n}: field max doubled in one step "
                f"({peak:.3e} vs {peak_prev:.3e}); CFL-style blowup")
        u_cur = nxt
        us.append(u_cur)
    vs.append(recover_v(u_cur))
    truncation_check(us[-1], name="imex final state")
    return Trajectory(grid=g, times=times, u=us, v=vs, shear=states,
                      scheme="imex", eps=cfg.eps)

