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

with omega_tot = omega^s + omega.  Each denominator has one masked
reciprocal, zero where it is within a hair (1e-9 of its peak) of zero; the
quotients a, b are formed from it.  Given a cut-off set, the bundle rejects
a denominator that dips under its floor on the cut-off's support, so the
mask never acts where a quotient is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bump import window
from .grid import Field, Grid2D, dx_m_spec, dy_j, x_spectrum
from .shear import ShearState

__all__ = ["CutoffSet", "CutoffError", "build_cutoffs", "AuxWorkspace", "DenominatorFloorError"]


class DenominatorFloorError(ValueError):
    """A cancellation-function denominator dipped below its floor."""


class CutoffError(ValueError):
    """A cut-off set that does not fit the critical strip or the grid."""


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
        raise CutoffError(f"delta must lie in (0, y0/2), got {delta}")
    if y0 + 3.0 * delta >= grid.Ymax:
        # the bound of validate_assumption's delta scan
        raise CutoffError(f"y0 + 3*delta = {y0 + 3.0 * delta} must lie below Ymax = {grid.Ymax}")
    y = grid.y_nodes
    d = delta
    chi1 = 1.0 - window(y, y0 - 1.5 * d, y0 - 1.25 * d, y0 + 1.25 * d, y0 + 1.5 * d)
    chi2 = window(y, y0 - 1.75 * d, y0 - 1.5 * d, y0 + 1.5 * d, y0 + 1.75 * d)
    return CutoffSet(y0=y0, delta=delta, chi1=chi1, chi2=chi2)


def _check_floor(den: np.ndarray, support: np.ndarray, floor: float, what: str,
                 grid: Grid2D) -> None:
    """Rejects when |den| dips under `floor` on the nodes where the quotient
    is used."""
    if not support.any():
        return
    used = np.abs(den[:, support]).min(axis=0)
    worst = float(used.min())
    if worst < floor:
        jy = np.where(support)[0][int(np.argmin(used))]
        raise DenominatorFloorError(
            f"{what}: |denominator| = {worst:.3e} < floor {floor:.3e} "
            f"at y = {grid.y_nodes[jy]:.4f} (node {jy})")


def read_only(*arrays) -> tuple:
    """The arrays, each made read-only: what a bundle serves to its readers."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _masked_reciprocal(den: np.ndarray) -> np.ndarray:
    """1/den, zeroed where |den| is below a hair of 1e-9 times its peak."""
    hair = 1e-9 * max(float(np.max(np.abs(den))), 1e-30)
    inv = np.zeros_like(den)
    np.divide(1.0, den, out=inv, where=np.abs(den) > hair)
    return inv


class AuxWorkspace:
    """Derivative bundle of one (u, shear state) pair: omega = d_y u, d_y omega
    and d_y^2 omega, the cleaned x-spectra of u and omega, and omega_tot with
    its first two y-derivatives.  Formed on first read, since many readers
    never need them (the condition monitor reads no reciprocal or quotient,
    the boundary walk neither inv_dyom nor b): the masked reciprocals
    inv_om = 1/omega_tot and inv_dyom = 1/d_y omega_tot with the quotients a
    and b of the cancellation functions, the cleaned x-spectra of d_y omega
    and d_y^2 omega (all read-only), and g1 with its cleaned spectrum.
    Given a cut-off set the bundle also checks the denominators' floors on
    its support.  q_f and q_h are f_m and h_m before their cut-offs.  npts
    selects the y-stencils (None: the standard ones of Grid2D).  Each
    x-derivative of a spectrum is computed once per bundle and served
    read-only afterwards, until its reader releases it (release):
    norms.full_raw releases order m once it has read f_m and h_m, so its
    bundle holds one order at a time, and verify.walk and
    verify.condition_row release each member of a snapshot, memoised
    derivatives included, once no read still to come needs it (asking which
    members are formed: formed)."""

    def __init__(self, u: Field, state: ShearState, cut: CutoffSet | None = None, *,
                 npts: int | None = None):
        self.grid = g = u.grid
        self.u = u
        self.state = state
        self._dx_memo: dict[tuple[str, int], Field] = {}
        self.omega = dy_j(u, 1, npts)
        self.dyom = dy_j(self.omega, 1, npts)
        self.d2yom = dy_j(self.omega, 2, npts)
        self.spec_u = x_spectrum(u.values)
        self.spec_om = x_spectrum(self.omega.values)
        self.om_tot = state.omegas[None, :] + self.omega.values
        self.dyom_tot = state.dj_omegas[0][None, :] + self.dyom.values
        self.d2yom_tot = state.dj_omegas[1][None, :] + self.d2yom.values
        if cut is not None:
            _check_floor(self.om_tot, cut.chi1 > 0.0, _FLOOR_F,
                         "f_m coefficient (omega^s+omega)", g)
            _check_floor(self.dyom_tot, cut.chi2 > 0.0, _FLOOR_H,
                         "h_m coefficient (d_y omega^s + d_y omega)", g)

    @cached_property
    def inv_om(self) -> np.ndarray:
        return read_only(_masked_reciprocal(self.om_tot))[0]

    @cached_property
    def a(self) -> np.ndarray:
        return read_only(self.dyom_tot * self.inv_om)[0]

    @cached_property
    def spec_dyom(self) -> np.ndarray:
        return read_only(x_spectrum(self.dyom.values))[0]

    @cached_property
    def spec_d2yom(self) -> np.ndarray:
        return read_only(x_spectrum(self.d2yom.values))[0]

    @cached_property
    def inv_dyom(self) -> np.ndarray:
        return read_only(_masked_reciprocal(self.dyom_tot))[0]

    @cached_property
    def b(self) -> np.ndarray:
        return read_only(self.d2yom_tot * self.inv_dyom)[0]

    def _dx(self, spec_name: str, m: int) -> Field:
        """dx^m of the spectrum held in attribute spec_name, memoised."""
        key = (spec_name, m)
        out = self._dx_memo.get(key)
        if out is None:
            out = dx_m_spec(self.grid, getattr(self, spec_name), m)
            read_only(out.values)
            self._dx_memo[key] = out
        return out

    def release(self, *members) -> None:
        """Forget the named members: attributes by name (read again, one
        formed on first read would be formed again, and any other fails) and
        memoised x-derivatives as (spectrum attribute, order) keys."""
        for member in members:
            if isinstance(member, tuple):
                self._dx_memo.pop(member, None)
            else:
                vars(self).pop(member, None)

    def formed(self, member) -> bool:
        """Whether the named member (as release names it) is held."""
        return member in (self._dx_memo if isinstance(member, tuple) else vars(self))

    def dxu(self, m: int) -> Field:
        return self._dx("spec_u", m)

    def dxom(self, m: int) -> Field:
        return self._dx("spec_om", m)

    def dxdyom(self, m: int) -> Field:
        return self._dx("spec_dyom", m)

    def dxd2yom(self, m: int) -> Field:
        return self._dx("spec_d2yom", m)

    @cached_property
    def g1(self) -> np.ndarray:
        return self.om_tot * self.dxom(1).values - self.dyom_tot * self.dxu(1).values

    @cached_property
    def spec_g1(self) -> np.ndarray:
        return x_spectrum(self.g1)

    def q_f(self, m: int) -> np.ndarray:
        """f_m before its cut-off: dx^m omega - a dx^m u."""
        return self.dxom(m).values - self.a * self.dxu(m).values

    def q_h(self, m: int) -> np.ndarray:
        """h_m before its cut-off: dx^m d_y omega - b dx^m omega."""
        return self.dxdyom(m).values - self.b * self.dxom(m).values

    def g(self, m: int) -> Field:
        if m < 1:
            raise ValueError("g_m requires m >= 1")
        return self._dx("spec_g1", m - 1)
