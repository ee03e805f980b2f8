"""Discretization of the periodic strip R/(Lx Z) x [0, Ymax].

The x direction is periodic and uniform (FFT-ready), the y direction is a
uniform truncation of the half-line.  All tangential derivatives are spectral
(exact on band-limited data); normal derivatives use finite-difference
stencils of order >= 4 in the interior with one-sided closures at y=0 and
y=Ymax (order 4 for derivative orders 1..3, order 3 for 4 and 5).

Conventions used throughout the package:
    * fields are (Nx, Ny) arrays, axis 0 = x, axis 1 = y;
    * <y> denotes the weight 1 + y;
    * integrals over x use the exact mean of the trigonometric interpolant
      (rectangle rule on a periodic uniform grid), integrals over y use the
      trapezoid rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Grid2D", "Field", "NonFiniteError", "require_finite", "fd_weights"]


def fd_weights(nodes: np.ndarray, x0: float, order: int) -> np.ndarray:
    """Finite-difference weights for the ``order``-th derivative at ``x0``.

    Fornberg's recursion; exact for polynomials of degree < len(nodes).
    """
    n = len(nodes)
    if order >= n:
        raise ValueError(f"need at least {order + 1} nodes for derivative order {order}")
    # c[j, m] = weight of nodes[j] for the m-th derivative
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for m in range(mn, 0, -1):
                    c[i, m] = c1 * (m * c[i - 1, m - 1] - c5 * c[i - 1, m]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for m in range(mn, 0, -1):
                c[j, m] = (c4 * c[j, m] - m * c[j, m - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


# stencil sizes: (interior centered, boundary one-sided) per y-derivative order
_STENCIL_PTS = {1: (5, 5), 2: (5, 6), 3: (7, 7), 4: (7, 8), 5: (9, 9)}


@dataclass
class Grid2D:
    """Uniform tensor grid on [0, Lx) x [0, Ymax].

    Nx must be a power of two (transform efficiency), Ny >= 32.  y_nodes[0]=0
    and y_nodes[-1]=Ymax exactly.
    """

    Nx: int
    Ny: int
    Lx: float = 2.0 * np.pi
    Ymax: float = 30.0
    x_nodes: np.ndarray = field(init=False, repr=False)
    y_nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.Nx < 4 or (self.Nx & (self.Nx - 1)) != 0:
            raise ValueError(f"Nx must be a power of two >= 4, got {self.Nx}")
        if self.Ny < 32:
            raise ValueError(f"Ny must be at least 32, got {self.Ny}")
        if not (self.Lx / self.Nx > 0 and self.Ymax / (self.Ny - 1) > 0):
            raise ValueError("Lx and Ymax must be positive, with non-zero grid spacings")
        self.x_nodes = self.Lx * np.arange(self.Nx) / self.Nx
        self.y_nodes = np.linspace(0.0, self.Ymax, self.Ny)
        self._dy_bands: dict[tuple, tuple] = {}
        self._k = 2.0 * np.pi * np.fft.rfftfreq(self.Nx, d=self.Lx / self.Nx)

    @property
    def dy(self) -> float:
        return self.Ymax / (self.Ny - 1)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Physical wavenumbers of the rfft modes, k_j = 2*pi*j/Lx."""
        return self._k

    def trapz_weights(self) -> np.ndarray:
        w = np.full(self.Ny, self.dy)
        w[0] = w[-1] = 0.5 * self.dy
        return w

    def y_weights(self, ellw: float) -> np.ndarray:
        """Trapezoid weights in y times <y>^(2 ellw)."""
        return self.trapz_weights() * (1.0 + self.y_nodes) ** (2.0 * ellw)

    def deriv_matrix_y(self, j: int, npts: int | None = None) -> np.ndarray:
        """A new dense Ny x Ny matrix applying the j-th y-derivative to a y-row.

        npts=None takes the interior and boundary widths of _STENCIL_PTS;
        an integer uses npts-point stencils on every row.  The grid keeps
        only each stencil's band: the flat positions (row * Ny + column) of
        its Fornberg weights, at most 9 per row, and the weights.  The
        matrix is formed from it on every call and belongs to the caller.
        """
        if j not in _STENCIL_PTS:
            raise ValueError(f"y-derivative order must be 1..5, got {j}")
        key = (j, npts)
        if key not in self._dy_bands:
            n_int, n_bnd = _STENCIL_PTS[j] if npts is None else (npts, npts)
            half = (n_int - 1) // 2
            y = self.y_nodes
            pos, vals = [], []
            # the grid is uniform: rows with one offset pattern share their weights
            weights = {}
            for i in range(self.Ny):
                if half <= i <= self.Ny - n_int + half:
                    lo, n = i - half, n_int
                else:
                    n = n_bnd
                    lo = min(max(i - (n - 1) // 2, 0), self.Ny - n)
                if (lo - i, n) not in weights:
                    weights[lo - i, n] = fd_weights(y[lo:lo + n], y[i], j)
                pos += range(i * self.Ny + lo, i * self.Ny + lo + n)
                vals.append(weights[lo - i, n])
            self._dy_bands[key] = np.array(pos), np.concatenate(vals)
        pos, vals = self._dy_bands[key]
        D = np.zeros(self.Ny * self.Ny)
        D[pos] = vals
        return D.reshape(self.Ny, self.Ny)


class NonFiniteError(ValueError):
    """A field with non-finite samples: the computation overflowed."""


def require_finite(f: "Field") -> "Field":
    """f itself, once every sample is checked finite.  Fields are checked
    where they enter the program (the perturbation datum, every solver
    output), not on each construction."""
    if not np.isfinite(f.values).all():
        raise NonFiniteError("field contains non-finite entries")
    return f


class Field:
    """Real scalar samples on a Grid2D."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid2D, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.Nx, grid.Ny):
            raise ValueError(f"expected shape {(grid.Nx, grid.Ny)}, got {values.shape}")
        self.grid = grid
        self.values = values

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def __sub__(self, other):
        return Field(self.grid, self.values - _vals(other))


def _vals(x):
    return x.values if isinstance(x, Field) else x


# Modes whose amplitude sits below this fraction of the spectral peak are
# rounding debris; k^m multipliers would amplify them above genuine content
# at high derivative orders, so they are zeroed before differentiation.
SPEC_FLOOR = 1e-12


def clean_spectrum(spec: np.ndarray) -> np.ndarray:
    mag = np.abs(spec)
    peak = np.max(mag)
    if peak == 0.0:
        return spec
    out = spec.copy()
    out[mag < SPEC_FLOOR * peak] = 0.0
    return out


def x_spectrum(values: np.ndarray) -> np.ndarray:
    """The cleaned rfft spectrum in x of (Nx, Ny) samples."""
    return clean_spectrum(np.fft.rfft(values, axis=0))


def dx_m(f: Field, m: int) -> Field:
    """Spectral m-th x-derivative of f: dx_m_spec of its cleaned spectrum."""
    return dx_m_spec(f.grid, x_spectrum(f.values), m)


def dx_m_spec(grid: Grid2D, spec: np.ndarray, m: int) -> Field:
    """Spectral m-th x-derivative from a (cleaned) rfft spectrum: mode k is
    multiplied by (ik)^m.  m is capped at Nx/4, the anti-aliasing guard that
    also bounds the Gevrey-norm truncation order Mmax."""
    if m < 0:
        raise ValueError("derivative order must be non-negative")
    if m > grid.Nx // 4:
        raise ValueError(
            f"x-derivative order m={m} exceeds the anti-aliasing guard Nx/4={grid.Nx // 4}")
    mult = (1j * grid.wavenumbers[:, None]) ** m
    return Field(grid, np.fft.irfft(spec * mult, n=grid.Nx, axis=0))


def dy_j(f: Field, j: int, npts: int | None = None) -> Field:
    """Finite-difference j-th y-derivative, j in 1..5.

    With the default stencils: order 4 in the interior; one-sided closures of
    order 4 (j<=3) or 3 (j in {4,5}) at the boundaries; wider npts-point
    stencils (Grid2D.deriv_matrix_y) raise both.  Exact on polynomials up to
    the stencil degree, which the tests rely on.  The product is the dense
    BLAS f @ D.T with an operator formed for it from the grid's stencil
    band and dropped after it: a banded product would round differently.
    """
    D = f.grid.deriv_matrix_y(j, npts)
    return Field(f.grid, f.values @ D.T)


def weighted_l2(f: Field, ellw: float) -> float:
    """|| <y>^ellw f ||_{L^2} with <y> = 1+y; trapezoid in y, exact mean in x."""
    return l2_y_weighted(f.grid, f.values, f.grid.y_weights(ellw))


def l2_y_weighted(grid: Grid2D, values: np.ndarray, wy: np.ndarray) -> float:
    """|| sqrt(wy) f ||_{L^2} of samples f: exact mean in x, y-quadrature
    weights wy."""
    colsq = np.einsum("ij,ij->j", values, values) * (grid.Lx / grid.Nx)
    return float(np.sqrt(np.dot(colsq, wy)))


def linf(f: Field) -> float:
    return float(np.max(np.abs(f.values)))
