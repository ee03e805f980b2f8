"""Time integration of the regularized perturbation equation

    d_t u + (u^s+u) d_x u + v d_y(u^s+u) - d_y^2 u - eps d_x^2 u = 0,
    u(y=0) = 0,  u -> 0 as y -> infinity,  v = -int_0^y d_x u.

Two routes solve the same equation and cross-validate each other:

  * picard_solve, the configured solve, iterates the fixed-point map
    u_j = M1 u0 - M2 F(u_{j-1}) on the whole time grid (mild_solution), where
    M1 is the Dirichlet heat semigroup of d_y^2 + eps d_x^2 (heat_propagate)
    and M2 its Duhamel convolution (trapezoid in time), one node at a time;
  * imex_solve, the checks' solve, marches u^{n+1} = M1(dt) (u^n - dt F(u^n))
    with heat_propagate, diffusion exact per step, transport explicit, and
    hands each node out as it is marched.

The semigroup is diagonal in (Fourier in x) x (sine series in y); a sine
expansion on [0, Ymax] replaces the exact half-line image kernel.  The basis
sets u = d_y^2 u = 0 at y = 0 and at y = Ymax, so every node after u0 has
exactly-zero first and last rows; nothing here checks that the half-line
solution is small at Ymax (ROADMAP direction 1 tracks the far-field layer
the basis forces there).
"""

from __future__ import annotations

import warnings
import zipfile
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .grid import Field, Grid2D, dx_m, dy_j, linf, require_finite, weighted_l2
from .profiles import ShearProfile
from .scipy_ext import compiled
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

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        if self.Nt < 4:
            raise ValueError(f"Nt must be at least 4, got {self.Nt}")
        if self.jmax < 2:
            raise ValueError(f"jmax must be at least 2, got {self.jmax}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")


def _dst1(x: np.ndarray, inverse: bool) -> np.ndarray:
    """DST-I along axis 1 of real x, as scipy.fft.dst(x, type=1, axis=1) or
    (inverse) idst computes it: pocketfft's dst with the arguments those
    pass, normalization 0 forward and 2 inverse."""
    dst = compiled("pocketfft")
    if dst is None:
        from scipy import fft
        return (fft.idst if inverse else fft.dst)(x, type=1, axis=1)
    return dst(x, 1, (1,), 2 if inverse else 0, None, 1, None)


def _to_modal(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """(Nx, Ny) real samples -> (Nx/2+1, Ny-2) complex sine-mode amplitudes."""
    return np.fft.rfft(_dst1(values[:, 1:-1], inverse=False), axis=0)


def _from_modal(grid: Grid2D, modal: np.ndarray) -> np.ndarray:
    s = np.fft.irfft(modal, n=grid.Nx, axis=0)
    out = np.zeros((grid.Nx, grid.Ny))
    out[:, 1:-1] = _dst1(s, inverse=True)
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


def mild_solution(u0: Field, forcing, eps: float, times: np.ndarray):
    """M1(t_i) u0 - int_0^{t_i} M1(t_i - s) f(s) ds at every node of the
    uniform time grid, the integral by the trapezoid rule, yielded in time
    order.

    ``forcing`` yields f at the nodes in order; f_i is read, and reduced to
    its modal amplitudes, before node i is handed out (node 0, u0 itself,
    included), so a caller may drop what f_i was formed from once node i has
    arrived.  The integral advances by the recursion
    I_i = e^{-L dt} I_{i-1} + dt/2 (e^{-L dt} f_{i-1} + f_i).  Every value
    after u0 is checked finite (NonFiniteError).
    """
    g = u0.grid
    rates = _modal_rates(g, eps)
    dt = times[1] - times[0]
    e_dt = np.exp(-rates * dt)
    u0_modal = _to_modal(g, u0.values)
    acc = np.zeros_like(u0_modal)
    f_prev = None
    for t, f in zip(times, forcing):
        f_modal = _to_modal(g, f.values)
        if f_prev is None:
            yield u0
        else:
            acc = e_dt * acc + 0.5 * dt * (e_dt * f_prev + f_modal)
            yield require_finite(Field(g, _from_modal(g, np.exp(-rates * t) * u0_modal - acc)))
        f_prev = f_modal


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


def recover_v(u: Field, dxu: Field) -> Field:
    """Normal velocity slaved to u by incompressibility: -int_0^y d_x u,
    from the caller's d_x u (every caller also reads it elsewhere)."""
    return Field(u.grid, _cumint_y4(u.grid, -dxu.values))


@dataclass
class Trajectory:
    """A solve on the uniform time grid ``times``: u holds a Field per node
    (None at a node whose field its owner has dropped, so that reading it
    fails), or, for an imex solve, an iterator that hands the fields out in
    time order once; a node's ShearState is evolve_shear(profile, t)."""

    grid: Grid2D
    times: np.ndarray
    u: list                      # Field per node (None if dropped) or a stream; v = recover_v(u)
    profile: ShearProfile
    scheme: str
    eps: float
    contraction: list = dc_field(default_factory=list)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def save(self, outdir) -> None:
        """Write outdir/trajectory.npz: times, contraction, scheme, eps and u as (N, Nx, Ny),
        all exact, u appended node by node (no stack).  Refuses a streamed
        trajectory and dropped nodes (ValueError)."""
        if not isinstance(self.u, list) or any(f is None for f in self.u):
            raise ValueError("cannot save a streamed trajectory or one with dropped time nodes")
        Path(outdir).mkdir(parents=True, exist_ok=True)
        np.savez(path := Path(outdir) / "trajectory.npz", times=self.times, scheme=self.scheme,
                 contraction=np.asarray(self.contraction, dtype=float), eps=self.eps)
        with zipfile.ZipFile(path, "a") as zf, zf.open("u.npy", "w", force_zip64=True) as fp:
            np.lib.format.write_array_header_1_0(fp, {
                "descr": "<f8", "fortran_order": False,
                "shape": (len(self.u), self.grid.Nx, self.grid.Ny)})
            for f in self.u:
                fp.write(np.ascontiguousarray(f.values, dtype="<f8"))


def _forcing(u: Field, state: ShearState) -> Field:
    """The transport term (u^s+u) d_x u + v d_y(u^s+u), v slaved to u."""
    dxu = dx_m(u, 1)
    total_dy = state.omegas[None, :] + dy_j(u, 1).values
    vals = (state.us[None, :] + u.values) * dxu.values + recover_v(u, dxu).values * total_dy
    return Field(u.grid, vals)


def _time_grid(profile: ShearProfile, cfg: SolverConfig) -> tuple:
    """The uniform time grid on [0, T] in cfg.Nt steps and its shear states."""
    times = np.linspace(0.0, cfg.T, cfg.Nt + 1)
    return times, [evolve_shear(profile, float(t)) for t in times]


def picard_solve(u0: Field, profile: ShearProfile, cfg: SolverConfig) -> Trajectory:
    """Fixed-point iteration of the heat-kernel formulation on [0, T].

    Stops when the sup-in-time L2 norm of the update xi_j falls below
    cfg.tol, or after cfg.jmax sweeps with a warning that the iteration has
    not converged; raises SolverDivergence when the update norm grows three
    sweeps in a row (horizon too long for eps).  The initial guess is u0 at
    every node.  As each node of a sweep arrives, its update norm is folded
    into xi_j and it replaces the previous sweep's node, whose forcing has
    been read: a sweep holds one trajectory.
    """
    times, states = _time_grid(profile, cfg)
    u_prev = [u0] * len(times)           # the initial guess; _forcing only reads it
    contraction: list[float] = []
    grow = 0
    for _ in range(cfg.jmax):
        xi = 0.0
        for i, u in enumerate(mild_solution(u0, map(_forcing, u_prev, states), cfg.eps, times)):
            xi = max(xi, weighted_l2(u - u_prev[i], 0.0))
            u_prev[i] = u
        contraction.append(xi)
        if len(contraction) >= 2 and xi > contraction[-2]:
            grow += 1
            if grow >= 3:
                raise SolverDivergence(
                    f"Picard update grew for 3 consecutive sweeps (last |xi|={xi:.3e}); "
                    f"T={cfg.T} too large for eps={cfg.eps}")
        else:
            grow = 0
        if xi < cfg.tol:
            break
    else:
        warnings.warn(
            f"Picard iteration stopped at jmax={cfg.jmax} sweeps with the update "
            f"{xi:.3e} above tol={cfg.tol:.1e}", stacklevel=2)
    return Trajectory(grid=u0.grid, times=times, u=u_prev, profile=profile,
                      scheme="picard", eps=cfg.eps, contraction=contraction)


def _imex_nodes(u0: Field, states: list, dt: float, eps: float):
    """The march's fields in time order, u0's copy first; each step is
    marched when its field is asked for, checked finite (NonFiniteError) and
    guarded against doubling.  Every step leaves heat_propagate, so its
    first and last rows are exactly zero."""
    yield u0.copy()
    u_cur = u0
    for n, state in enumerate(states[:-1]):
        # explicit transport, then exact diffusion; no temporary outlives the step
        nxt = require_finite(heat_propagate(
            Field(u0.grid, u_cur.values - dt * _forcing(u_cur, state).values), dt, eps))
        peak_prev = max(linf(u_cur), 1e-14)
        peak = linf(nxt)
        if peak > 2.0 * peak_prev and peak > 1e-10:
            raise SolverDivergence(
                f"imex step {n}: field max doubled in one step "
                f"({peak:.3e} vs {peak_prev:.3e}); CFL-style blowup")
        u_cur = nxt
        yield u_cur


def imex_solve(u0: Field, profile: ShearProfile, cfg: SolverConfig) -> Trajectory:
    """First-order splitting: explicit transport step, exact diffusion step.

    The trajectory's u is an iterator that hands the fields out in time
    order, once, marching each step as its field is asked for (see
    Trajectory): the reader keeps what it needs and drains the iterator, so
    every step is marched and checked."""
    times, states = _time_grid(profile, cfg)
    return Trajectory(grid=u0.grid, times=times,
                      u=_imex_nodes(u0, states, times[1] - times[0], cfg.eps),
                      profile=profile, scheme="imex", eps=cfg.eps)
