"""Cut-off functions separating the monotone region from the critical strip,
and the cancellation (auxiliary) functions built on them.

chi1 kills the critical strip (it vanishes on [y0-5d/4, y0+5d/4] and is 1
outside [y0-3d/2, y0+3d/2]); chi2 covers it (1 on [y0-3d/2, y0+3d/2],
supported in [y0-7d/4, y0+7d/4]).  Each plateau is evaluated on its own
branch, so the support identities hold exactly at the nodes: wherever
0 < chi1 < 1, chi2 == 1, and wherever 0 < chi2 < 1, chi1 == 1.  No cut-off
derivative is formed: the identity checks cancel the cut-off terms
algebraically and evaluate the interior form.

For tangential order m the cancellation functions are

    f_m = chi1 * (dx^m omega - a dx^m u),      a = (d_y omega_tot)/(omega_tot)
    h_m = chi2 * (dx^m d_y omega - b dx^m omega),
                                b = (d_y^2 omega_tot)/(d_y omega_tot)
    g_m = dx^(m-1) [ omega_tot dx omega - (d_y omega_tot) dx u ]

with omega_tot = omega^s + omega.  Quotients are evaluated from the
difference forms only where their denominators are safely bounded away from
zero; the supports of the cut-offs guarantee that on every node where the
quotient is actually used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bump import window
from .grid import Field, Grid2D, clean_spectrum, dx_m_spec, dy_j
from .shear import ShearState

__all__ = ["CutoffSet", "build_cutoffs", "AuxWorkspace", "DenominatorFloorError"]


class DenominatorFloorError(ValueError):
    """A cancellation-function denominator dipped below its floor."""


# least |denominator| allowed on the support of chi1 (f_m) and chi2 (h_m)
_FLOOR_F = 1e-8
_FLOOR_H = 1e-8


@dataclass
class CutoffSet:
    y0: float
    delta: float
    chi1: np.ndarray
    chi2: np.ndarray


def build_cutoffs(grid: Grid2D, y0: float, delta: float) -> CutoffSet:
    if not (0.0 < delta < y0 / 2.0):
        raise ValueError(f"delta must lie in (0, y0/2), got {delta}")
    if y0 + 3.0 * delta >= grid.Ymax:
        # the bound of validate_assumption's delta scan
        raise ValueError(f"y0 + 3*delta = {y0 + 3.0 * delta} must lie below Ymax = {grid.Ymax}")
    y = grid.y_nodes
    d = delta
    chi1 = 1.0 - window(y, y0 - 1.5 * d, y0 - 1.25 * d, y0 + 1.25 * d, y0 + 1.5 * d)
    chi2 = window(y, y0 - 1.75 * d, y0 - 1.5 * d, y0 + 1.5 * d, y0 + 1.75 * d)
    return CutoffSet(y0=y0, delta=delta, chi1=chi1, chi2=chi2)


def _masked_quotient(num: np.ndarray, den: np.ndarray, support: np.ndarray,
                     floor: float, what: str, grid: Grid2D) -> np.ndarray:
    """num/den, zeroed where |den| is below a hair floor; rejects when the
    denominator dips under `floor` on the nodes where the quotient is used."""
    used = np.abs(den[:, support]).min(axis=0) if support.any() else np.array([np.inf])
    if support.any():
        worst = float(used.min())
        if worst < floor:
            jrel = int(np.argmin(used))
            jy = np.where(support)[0][jrel]
            raise DenominatorFloorError(
                f"{what}: |denominator| = {worst:.3e} < floor {floor:.3e} "
                f"at y = {grid.y_nodes[jy]:.4f} (node {jy})")
    hair = 1e-9 * max(float(np.max(np.abs(den))), 1e-30)
    safe = np.abs(den) > hair
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=safe)
    return out


class AuxWorkspace:
    """Derivative bundle of one (u, shear state) pair: omega and its first two
    y-derivatives, the cleaned x-spectra of u, omega and d_y omega, omega_tot
    with its first two y-derivatives, and g1.  Given a cut-off set it also
    holds the masked quotients a, b behind the cancellation functions.

    npts selects the y-stencils (None: the standard ones of Grid2D).  Each
    x-derivative of a cached spectrum is computed once per bundle and served
    read-only afterwards."""

    def __init__(self, u: Field, state: ShearState, cut: CutoffSet | None = None, *,
                 npts: int | None = None):
        g = u.grid
        self.grid = g
        self.u = u
        self.state = state
        self.cut = cut
        self._dx_memo: dict[tuple[str, int], Field] = {}
        self.omega = dy_j(u, 1, npts)
        self.dyom = dy_j(self.omega, 1, npts)
        self.d2yom = dy_j(self.omega, 2, npts)
        self.om_tot = state.omegas[None, :] + self.omega.values
        self.dyom_tot = state.dj_omegas[0][None, :] + self.dyom.values
        self.d2yom_tot = state.dj_omegas[1][None, :] + self.d2yom.values
        self.spec_u = clean_spectrum(np.fft.rfft(u.values, axis=0))
        self.spec_om = clean_spectrum(np.fft.rfft(self.omega.values, axis=0))
        self.spec_dyom = clean_spectrum(np.fft.rfft(self.dyom.values, axis=0))
        if cut is not None:
            self.a = _masked_quotient(self.dyom_tot, self.om_tot, cut.chi1 > 0.0,
                                      _FLOOR_F, "f_m coefficient (omega^s+omega)", g)
            self.b = _masked_quotient(self.d2yom_tot, self.dyom_tot, cut.chi2 > 0.0,
                                      _FLOOR_H, "h_m coefficient (d_y omega^s + d_y omega)", g)
        self.g1 = self.om_tot * self.dxom(1).values - self.dyom_tot * self.dxu(1).values
        self.spec_g1 = clean_spectrum(np.fft.rfft(self.g1, axis=0))

    def _dx(self, spec_name: str, m: int) -> Field:
        """dx^m of the spectrum held in attribute spec_name, memoised."""
        key = (spec_name, m)
        out = self._dx_memo.get(key)
        if out is None:
            out = dx_m_spec(self.grid, getattr(self, spec_name), m)
            out.values.flags.writeable = False
            self._dx_memo[key] = out
        return out

    def dxu(self, m: int) -> Field:
        return self._dx("spec_u", m)

    def dxom(self, m: int) -> Field:
        return self._dx("spec_om", m)

    def dxdyom(self, m: int) -> Field:
        return self._dx("spec_dyom", m)

    def f(self, m: int) -> Field:
        q = self.dxom(m).values - self.a * self.dxu(m).values
        return Field(self.grid, self.cut.chi1[None, :] * q)

    def h(self, m: int) -> Field:
        q = self.dxdyom(m).values - self.b * self.dxom(m).values
        return Field(self.grid, self.cut.chi2[None, :] * q)

    def g(self, m: int) -> Field:
        if m < 1:
            raise ValueError("g_m requires m >= 1")
        return self._dx("spec_g1", m - 1)

    def chi2_dyom(self, m: int) -> Field:
        return Field(self.grid, self.cut.chi2[None, :] * self.dxdyom(m).values)

