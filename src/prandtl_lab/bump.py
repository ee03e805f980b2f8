"""Smooth ramps: the C-infinity ramp of the cut-offs and the C^7 smoothstep
of the perturbation envelopes.

sigma(s) = e^{-1/s} / (e^{-1/s} + e^{-1/(1-s)}) rises from 0 at s<=0 to 1 at
s>=1 with all derivatives vanishing at both ends.  No derivative of a ramp
is formed: the identity checks cancel the cut-off terms algebraically.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ramp", "window", "poly_ramp", "poly_window"]


def ramp(s):
    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    sc = np.where(inside, s, 0.5)  # dummy value outside, masked below
    a = np.exp(-1.0 / sc)
    b = np.exp(-1.0 / (1.0 - sc))
    out = np.where(s >= 1.0, 1.0, 0.0)
    out = np.where(inside, a / (a + b), out)
    return out if out.ndim else float(out)


def _window(rise, y, lo_out, lo_in, hi_in, hi_out):
    """Window rising by the ramp rise: 0 outside (lo_out, hi_out), 1 on
    [lo_in, hi_in].  Either transition may be degenerate (lo_out == lo_in
    disables it)."""
    y = np.asarray(y, dtype=float)
    out = np.ones_like(y)
    if lo_in > lo_out:
        out = out * rise((y - lo_out) / (lo_in - lo_out))
    if hi_out > hi_in:
        out = out * rise((hi_out - y) / (hi_out - hi_in))
    return out


def window(y, lo_out, lo_in, hi_in, hi_out):
    """Smooth window (C-infinity ramp)."""
    return _window(ramp, y, lo_out, lo_in, hi_in, hi_out)


# Polynomial smoothstep of class C^7 (degree 15): every derivative used by
# the laboratory (up to order 6) is a fully resolvable polynomial, unlike
# the exponential ramp whose high derivatives oscillate on vanishing scales.
# Coefficients of S_7 in ascending powers s^8 .. s^15.
_S7 = (6435.0, -40040.0, 108108.0, -163800.0, 150150.0, -83160.0, 25740.0, -3432.0)


def _s7_half(sc):
    acc = np.zeros_like(sc)
    for c in reversed(_S7):
        acc = acc * sc + c
    return acc * sc**8


def poly_ramp(s):
    s = np.asarray(s, dtype=float)
    sc = np.clip(s, 0.0, 1.0)
    # symmetric evaluation S(1-s) = 1 - S(s) keeps the Horner sum in its
    # cancellation-free half
    low = sc <= 0.5
    out = np.where(low, _s7_half(np.where(low, sc, 0.0)),
                   1.0 - _s7_half(np.where(low, 0.0, 1.0 - sc)))
    out[s >= 1.0] = 1.0
    out[s <= 0.0] = 0.0
    return out if out.ndim else float(out)


def poly_window(y, lo_out, lo_in, hi_in, hi_out):
    """C^7 window, exactly 1 on [lo_in, hi_in]."""
    return _window(poly_ramp, y, lo_out, lo_in, hi_in, hi_out)
