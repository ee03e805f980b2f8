"""Initial data: shear profiles with one non-degenerate critical point and
compatible tangential perturbations.

The shear datum is built from a factored derivative ansatz

    u0s'(y) = A * (y0 - y) * (1+y)^(-alpha-1) * (1 + c*y*exp(-y)),

whose single factors control each requirement separately: the critical point
sits exactly at y0, the two-sided <y>^(-alpha) decay comes from the power
factor, c = (1+(alpha+1)*y0)/y0 forces u0s''(0) = 0, and A normalizes the
total rise of u0s to 1 over the truncated domain [0, Ymax] so that
u0s(Ymax) = 1 to quadrature accuracy.

The perturbation is built in two passes.  Pass one is a single tangential
mode amp*sin(2*pi*kx*x/Lx)*phi(y) whose envelope phi is exactly linear on a
wall plateau wide enough to cover every node the composed wall stencils can
read (then tapers smoothly to zero), so those stencils see a polynomial they
differentiate exactly.  Pass two adds B(x)*q(y) with q = y^4/24 on the same
plateau, scaled against the measured discrete value of d_y^3 omega at the
wall, which makes the third compatibility condition hold to rounding rather
than to stencil accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .bump import poly_window
from .grid import Field, Grid2D, dx_m, dy_j

__all__ = [
    "ShearProfile",
    "AssumptionReport",
    "CompatibilityReport",
    "build_shear_profile",
    "validate_assumption",
    "build_perturbation",
    "check_compatibility",
]

_FINE_REFINE = 8          # refinement factor of the quadrature grid
_profile_cache: dict = {}


@dataclass
class ShearProfile:
    """Shear initial datum u0s sampled on the y-grid with derivatives 1..6.

    derivs[j-1] holds d^j u0s / dy^j.  y_fine/u0s_fine are a refined sampling
    used by the heat-kernel quadrature of the shear evolution.
    """

    grid: Grid2D
    y0: float
    alpha: float
    amplitude: float
    correction: float
    u0s: np.ndarray
    derivs: np.ndarray            # shape (6, Ny)
    y_fine: np.ndarray = field(repr=False, default=None)
    u0s_fine: np.ndarray = field(repr=False, default=None)
    # shear.evolve_shear's states by time; lives as long as the profile
    state_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def omega0s(self) -> np.ndarray:
        """Shear vorticity d u0s/dy at t=0."""
        return self.derivs[0]


@dataclass
class AssumptionReport:
    """Measured constants under which the initial-data hypotheses hold.

    c0: floor of |u0s''| on [y0-2*delta, y0+2*delta]; c1: two-sided decay
    constant; delta: the admissible half-width actually used downstream.
    """

    y0: float
    alpha: float
    c0: float
    c1: float
    delta: float
    passes: dict[str, bool]
    failing: str | None = None

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())

    def to_dict(self) -> dict:
        return {
            "y0": self.y0, "alpha": self.alpha, "c0": self.c0, "c1": self.c1,
            "delta": self.delta, "passes": dict(self.passes),
            "failing": self.failing, "pass": self.all_pass,
        }


@dataclass
class CompatibilityReport:
    res_value: float       # sup_x |u0(x, 0)|
    res_dyomega: float     # sup_x |d_y omega0 (x, 0)|
    res_third: float       # sup_x |d_y^3 omega0 - (omega0s+omega0) d_x omega0| at y=0

    def to_dict(self) -> dict:
        return {"res_value": self.res_value, "res_dyomega": self.res_dyomega,
                "res_third": self.res_third}


def _ansatz_callables(y0: float, alpha: float, c: float):
    """Lambdified u0s' and its first five derivatives (sympy, done once)."""
    import sympy as sp

    y = sp.symbols("y")
    expr = (y0 - y) * (1 + y) ** (-alpha - 1) * (1 + c * y * sp.exp(-y))
    fns = []
    d = expr
    for _ in range(6):
        fns.append(sp.lambdify(y, d, modules="numpy"))
        d = sp.diff(d, y)
    return fns


def build_shear_profile(grid: Grid2D, y0: float, alpha: float) -> ShearProfile:
    """Construct the ansatz shear profile on the given grid.

    Raises ValueError when the normalization integral is non-positive
    (y0 too small for the chosen alpha).
    """
    if not (0.0 < y0 < grid.Ymax / 3.0):
        raise ValueError(f"y0 must lie in (0, Ymax/3), got {y0}")
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    key = (grid.Nx, grid.Ny, grid.Lx, grid.Ymax, float(y0), float(alpha))
    if key in _profile_cache:
        return _profile_cache[key]

    c = (1.0 + (alpha + 1.0) * y0) / y0
    fns = _ansatz_callables(y0, alpha, c)
    bare, _ = quad(fns[0], 0.0, grid.Ymax, limit=200)
    if bare <= 0.0:
        raise ValueError(
            f"normalization integral {bare:.3e} is non-positive: y0={y0} too small for alpha={alpha}")
    A = 1.0 / bare

    ny = grid.Ny
    derivs = np.empty((6, ny))
    for j in range(6):
        derivs[j] = A * np.asarray(fns[j](grid.y_nodes), dtype=float)

    # fine quadrature grid continues past Ymax with the (un-renormalized)
    # ansatz so the heat-kernel integrand stays smooth at the truncation edge
    h_fine = grid.dy / _FINE_REFINE
    n_fine = _FINE_REFINE * (ny - 1) + int(np.ceil(8.0 / h_fine))
    y_fine = h_fine * np.arange(n_fine + 1)
    du_fine = A * np.asarray(fns[0](y_fine), dtype=float)
    u0s_fine = np.concatenate(
        ([0.0], np.cumsum(0.5 * np.diff(y_fine) * (du_fine[1:] + du_fine[:-1]))))
    u0s = u0s_fine[:_FINE_REFINE * (ny - 1) + 1:_FINE_REFINE].copy()

    prof = ShearProfile(grid=grid, y0=y0, alpha=alpha, amplitude=A, correction=c,
                        u0s=u0s, derivs=derivs, y_fine=y_fine, u0s_fine=u0s_fine)
    _profile_cache[key] = prof
    return prof


_SLACK = 1e-12


def _constants_for_delta(p: ShearProfile, delta: float):
    y = p.grid.y_nodes
    d1, d2 = p.derivs[0], p.derivs[1]
    strip2 = np.abs(y - p.y0) <= 2.0 * delta + _SLACK
    if not strip2.any():
        return 0.0, 0.0
    c0 = float(np.min(np.abs(d2[strip2])))
    off = np.abs(y - p.y0) >= delta - _SLACK
    ratio = np.abs(d1[off]) * (1.0 + y[off]) ** p.alpha
    m_low, m_high = float(np.min(ratio)), float(np.max(ratio))
    m_deriv = max(
        float(np.max(np.abs(p.derivs[j]) * (1.0 + y) ** (p.alpha + 1.0)))
        for j in range(1, 6))
    if m_low <= 0.0:
        return c0, 0.0
    c1 = min(m_low, 1.0 / m_high, 1.0 / m_deriv, 1.0 - 1e-9)
    return c0, c1


def validate_assumption(p: ShearProfile) -> AssumptionReport:
    """Scan the grid for the largest constants c0, c1 and a working delta.

    delta is chosen (over a scan of candidates in (0, y0/2) that keep the
    outermost cut-off band inside the domain) to maximize min(c0, c1); the
    clause flags report the hypotheses at that delta.
    """
    y = p.grid.y_nodes
    # clause (iii): compatibility of the shear datum
    ok_val = abs(p.u0s[0]) <= 1e-10
    ok_dd = abs(p.derivs[1][0]) <= 1e-8 * max(1.0, float(np.max(np.abs(p.derivs[1]))))
    ok_lim = abs(p.u0s[-1] - 1.0) <= 1e-6
    passes_iii = ok_val and ok_dd and ok_lim

    # clause (i) pointwise part: u0s' changes sign (or vanishes) within two
    # cells of y0 and u0s'' does not vanish there
    dy = p.grid.dy
    near = np.where(np.abs(y - p.y0) <= 2.0 * dy + _SLACK)[0]
    crit_ok = False
    if near.size >= 2:
        d1 = p.derivs[0]
        for i in near[:-1]:
            if d1[i] == 0.0 or d1[i] * d1[i + 1] < 0.0:
                crit_ok = True
                break
    d2_at_y0 = float(np.interp(p.y0, y, p.derivs[1]))
    crit_ok = crit_ok and abs(d2_at_y0) > 0.0

    # delta scan: c1 saturates at the j-derivative bound, so score by
    # c0 * delta (robust non-degeneracy floor and well-separated bands)
    delta_hi = min(0.499 * p.y0, (p.grid.Ymax - p.y0) / 3.0 - _SLACK)
    best = (None, 0.0, 0.0, -1.0)   # delta, c0, c1, score
    for delta in np.linspace(0.05 * p.y0, delta_hi, 64):
        c0, c1 = _constants_for_delta(p, delta)
        if c0 <= 0.0 or c1 <= 0.0:
            continue
        score = c0 * delta
        if score > best[3]:
            best = (float(delta), c0, c1, score)
    delta, c0, c1, score = best
    if delta is None:
        delta, c0, c1 = 0.25 * p.y0, 0.0, 0.0

    passes = {
        "i": bool(crit_ok and c0 > 0.0),
        "ii": bool(c1 > 0.0),
        "iii": bool(passes_iii),
    }
    failing = None
    if not all(passes.values()):
        failing = ", ".join(k for k, v in passes.items() if not v)
    return AssumptionReport(y0=p.y0, alpha=p.alpha, c0=c0, c1=c1, delta=delta,
                            passes=passes, failing=failing)


# Envelope geometry.  The wall plateau must cover every node the composed
# wall stencils read (nodes 0..8), and the slope factor keeps the absolute
# weighted-derivative bounds of the persistence conditions satisfied with
# margin at the reference amplitude.
_ENV_SLOPE = 0.04
_ENV_TAPER = 6.0
_CORR_TAPER = 2.0


def _wall_plateau(grid: Grid2D) -> float:
    plateau = max(1.0, 8.5 * grid.dy)
    if plateau + _ENV_TAPER > 0.75 * grid.Ymax:
        raise ValueError("grid too coarse: wall envelope does not fit below Ymax")
    return plateau


def perturbation_envelope(grid: Grid2D) -> np.ndarray:
    """phi(y): proportional to y on the wall plateau, smoothly tapered to 0."""
    plateau = _wall_plateau(grid)
    y = grid.y_nodes
    return _ENV_SLOPE * y * poly_window(y, 0.0, 0.0, plateau, plateau + _ENV_TAPER)


def build_perturbation(grid: Grid2D, amp: float, kx: int, shear: ShearProfile) -> Field:
    """Two-pass compatible perturbation amp*sin(kx x)*phi(y) + B(x)*q(y).

    phi is exactly linear on the wall plateau, so the wall stencils of the
    compatibility checks differentiate it exactly; the second pass scales
    q = (y^4/24)*window against the measured discrete wall value of
    d_y^3 omega, making the third condition hold to rounding.
    """
    if kx < 1 or kx > grid.Nx // 8:
        raise ValueError(f"kx must lie in [1, Nx/8], got {kx}")
    if amp < 0:
        raise ValueError("amp must be non-negative")
    y = grid.y_nodes
    phi = perturbation_envelope(grid)
    sx = np.sin(2.0 * np.pi * kx * grid.x_nodes / grid.Lx)
    u1 = Field(grid, np.outer(amp * sx, phi))
    if amp == 0.0:
        return u1

    omega1 = dy_j(u1, 1)
    rhs = (shear.omega0s[0] + omega1.values[:, 0]) * dx_m(omega1, 1).values[:, 0]
    lhs = dy_j(omega1, 3).values[:, 0]
    B = rhs - lhs

    plateau = _wall_plateau(grid)
    q = (y**4 / 24.0) * poly_window(y, 0.0, 0.0, plateau, plateau + _CORR_TAPER)
    D1, D3 = grid.deriv_matrix_y(1), grid.deriv_matrix_y(3)
    lq = float((D3 @ (D1 @ q))[0])   # discrete d_y^4 of q at the wall; ~1 by design
    return Field(grid, u1.values + np.outer(B / lq, q))


def check_compatibility(u0: Field, shear: ShearProfile) -> CompatibilityReport:
    """Wall residuals of the three compatibility conditions on the datum."""
    omega = dy_j(u0, 1)
    r1 = float(np.max(np.abs(u0.values[:, 0])))
    r2 = float(np.max(np.abs(dy_j(omega, 1).values[:, 0])))
    third = dy_j(omega, 3).values[:, 0] \
        - (shear.omega0s[0] + omega.values[:, 0]) * dx_m(omega, 1).values[:, 0]
    return CompatibilityReport(r1, r2, float(np.max(np.abs(third))))
