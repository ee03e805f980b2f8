import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prandtl_lab.grid import (_STENCIL_PTS, Field, Grid2D, NonFiniteError, dx_m, dy_j,
                              fd_weights, linf, require_finite, weighted_l2)
from prandtl_lab.solver import _cumint_y4

from conftest import sampled


@pytest.fixture(scope="module")
def g():
    return Grid2D(128, 257)


def test_grid_invariants(g):
    assert g.y_nodes[0] == 0.0
    assert g.y_nodes[-1] == g.Ymax
    assert np.allclose(np.diff(g.y_nodes), g.dy)
    with pytest.raises(ValueError):
        Grid2D(100, 257)    # not a power of two
    with pytest.raises(ValueError):
        Grid2D(128, 16)     # Ny too small


def test_fd_weights_match_classic():
    # 5-point centered first derivative on a unit grid
    w = fd_weights(np.arange(5.0), 2.0, 1)
    assert np.allclose(w, [1 / 12, -2 / 3, 0, 2 / 3, -1 / 12])


# every (j, npts) kind of y-stencil the program reads
_DY_KINDS = [(j, None) for j in range(1, 6)] + [(j, 9) for j in (1, 2, 3)]


def test_deriv_matrices_match_row_by_row():
    """Weights shared per offset pattern equal one Fornberg call per row."""
    for g in (Grid2D(128, 257), Grid2D(128, 513)):
        y = g.y_nodes
        for j, npts in _DY_KINDS:
            n_int, n_bnd = _STENCIL_PTS[j] if npts is None else (npts, npts)
            half = (n_int - 1) // 2
            D = np.zeros((g.Ny, g.Ny))
            for i in range(g.Ny):
                if half <= i <= g.Ny - n_int + half:
                    lo, n = i - half, n_int
                else:
                    n = n_bnd
                    lo = min(max(i - (n - 1) // 2, 0), g.Ny - n)
                D[i, lo:lo + n] = fd_weights(y[lo:lo + n], y[i], j)
            assert np.array_equal(g.deriv_matrix_y(j, npts), D)


def test_deriv_matrix_is_new_on_each_call(g):
    """Each call forms its own operator: D1 and D3 held together never
    alias, and writing into one leaves the next call's intact."""
    D1, D3 = g.deriv_matrix_y(1), g.deriv_matrix_y(3)
    again = g.deriv_matrix_y(1)
    assert D1 is not again and not np.shares_memory(D1, again)
    assert not np.shares_memory(D1, D3)
    expect = again.copy()
    D1[:] = 0.0
    assert np.array_equal(g.deriv_matrix_y(1), expect)


def test_grid_keeps_no_dense_operator():
    """After dy_j of every stencil kind, with the results dropped, a fresh
    grid keeps only the stencils' bands: less than one Ny x Ny operator's
    bytes (eight dense operators, about 16 MB here, when they were cached)."""
    g = Grid2D(128, 513)
    f = Field(g, np.random.default_rng(0).normal(size=(g.Nx, g.Ny)))
    tracemalloc.start()
    try:
        for j, npts in _DY_KINDS:
            dy_j(f, j, npts)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < g.Ny * g.Ny * 8


def test_dx_of_constant_is_zero(g):
    f = Field(g, np.ones((g.Nx, g.Ny)))
    assert linf(dx_m(f, 1)) < 1e-14
    assert linf(dx_m(f, 3)) < 1e-12


def test_dx2_eigenfunction(g):
    f = sampled(g, lambda X, Y: np.sin(2 * np.pi * X / g.Lx) * np.exp(-Y))
    expect = -((2 * np.pi / g.Lx) ** 2)
    assert np.allclose(dx_m(f, 2).values, expect * f.values, atol=1e-11)


def test_dx3_against_finite_differences():
    g = Grid2D(256, 65, Lx=2 * np.pi, Ymax=10.0)
    rng = np.random.default_rng(3)
    # band-limited random field: modes up to 8, 1/k^2 amplitudes
    vals = np.zeros((g.Nx, g.Ny))
    X, Y = np.meshgrid(g.x_nodes, g.y_nodes, indexing="ij")
    for k in range(1, 9):
        ck, sk = rng.normal(size=2) / k**2
        vals += (ck * np.cos(k * X) + sk * np.sin(k * X)) * np.exp(-Y / 3.0)
    f = Field(g, vals)
    spectral = dx_m(f, 3).values

    # independent oracle: three applications of 8th-order centered differences
    hx = g.Lx / g.Nx
    w = fd_weights(hx * np.arange(-4.0, 5.0), 0.0, 1)
    def cdiff(a):
        out = np.zeros_like(a)
        for off, wk in zip(range(-4, 5), w):
            out += wk * np.roll(a, -off, axis=0)
        return out
    fd = cdiff(cdiff(cdiff(vals)))
    rel = np.max(np.abs(spectral - fd)) / np.max(np.abs(spectral))
    assert rel <= 1e-6


def test_dx_guard(g):
    f = Field(g, np.zeros((g.Nx, g.Ny)))
    with pytest.raises(ValueError, match="anti-aliasing"):
        dx_m(f, g.Nx // 4 + 1)


def test_dy2_polynomial_exact(g):
    f = sampled(g, lambda X, Y: Y**2)
    assert np.allclose(dy_j(f, 2).values, 2.0, atol=1e-8)


def test_dy1_exponential(g):
    f = sampled(g, lambda X, Y: np.exp(-Y))
    err = np.abs(dy_j(f, 1).values + f.values)
    assert err[:, 3:-3].max() < 1e-4          # interior O(dy^4)
    assert err.max() < 1e-3                   # one-sided rows included


def test_dy5_refinement_order():
    errs = []
    # the pair stays below the rounding floor of the 1/dy^5 amplification
    for ny in (129, 257):
        g = Grid2D(64, ny, Ymax=10.0)
        f = sampled(g, lambda X, Y: np.sin(Y))
        err = np.max(np.abs(dy_j(f, 5).values - np.cos(g.y_nodes)[None, :]))
        errs.append(err)
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.0


def test_weighted_l2_zero_and_constant(g):
    assert weighted_l2(Field(g, np.zeros((g.Nx, g.Ny))), 1.5) == 0.0
    one = Field(g, np.ones((g.Nx, g.Ny)))
    assert np.isclose(weighted_l2(one, 0.0), np.sqrt(g.Lx * g.Ymax), rtol=1e-12)


def test_weighted_l2_against_quadrature():
    """Trapezoid values converge at 2nd order to the dense quadrature oracle."""
    yy = np.linspace(0, 30.0, 240001)
    from scipy.integrate import trapezoid
    ref = np.sqrt(2 * np.pi * trapezoid((1 + yy) ** 2 * np.exp(-2 * yy), yy))
    errs = []
    for ny in (257, 513):
        g = Grid2D(32, ny)
        f = sampled(g, lambda X, Y: np.exp(-Y))
        errs.append(abs(weighted_l2(f, 1.0) - ref))
    assert errs[0] <= 3e-6 * ref
    assert np.log2(errs[0] / errs[1]) >= 1.8


def test_parseval_consistency(g):
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(g.Nx, g.Ny)) * np.exp(-g.y_nodes / 4)[None, :]
    f = Field(g, vals)
    direct = weighted_l2(f, 0.0)
    spec = np.fft.rfft(vals, axis=0)
    c = np.full(g.Nx // 2 + 1, 2.0)
    c[0] = c[-1] = 1.0
    wy = g.trapz_weights()
    modal = np.sqrt(np.sum((c[:, None] * np.abs(spec) ** 2 * g.Lx / g.Nx**2) @ wy))
    assert abs(direct - modal) <= 1e-10 * direct


def test_integrate_y(g):
    """The solver's cumulative y-antiderivative (the one recover_v uses)."""
    out = _cumint_y4(g, np.ones((g.Nx, g.Ny)))
    assert np.allclose(out, g.y_nodes[None, :], atol=1e-12)
    cosf = sampled(g, lambda X, Y: np.cos(Y))
    out = _cumint_y4(g, cosf.values)
    assert np.max(np.abs(out - np.sin(g.y_nodes)[None, :])) < 1e-5  # O(dy^4)
    assert np.max(np.abs(_cumint_y4(g, np.zeros((g.Nx, g.Ny))))) == 0.0


def test_linf(g):
    assert linf(Field(g, np.zeros((g.Nx, g.Ny)))) == 0.0
    vals = np.zeros((g.Nx, g.Ny))
    vals[5, 7] = 3.5
    assert linf(Field(g, vals)) == 3.5
    f = sampled(g, lambda X, Y: np.sin(2 * np.pi * X / g.Lx) * np.exp(-Y))
    assert linf(f) <= 1.0
    assert linf(f) >= 1.0 - 2e-2


def test_derivatives_commute(g):
    f = sampled(g, lambda X, Y: np.sin(2 * np.pi * X / g.Lx) * Y**3)
    lhs = dy_j(dx_m(f, 2), 2)
    rhs = dx_m(dy_j(f, 2), 2)
    scale = weighted_l2(f, 0.0)
    assert weighted_l2(lhs - rhs, 0.0) <= 1e-8 * scale


def test_dx_composition(g):
    f = sampled(g, lambda X, Y: np.sin(3 * 2 * np.pi * X / g.Lx) * np.exp(-Y))
    a = dx_m(dx_m(f, 2), 3)
    b = dx_m(f, 5)
    assert weighted_l2(a - b, 0.0) <= 1e-10 * max(weighted_l2(b, 0.0), 1e-30)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_require_finite_rejects_non_finite(g, bad):
    """Finiteness is checked where fields enter the program, by
    require_finite, not on every Field construction."""
    vals = np.zeros((g.Nx, g.Ny))
    f = Field(g, vals)
    assert require_finite(f) is f
    vals[3, 5] = bad
    with pytest.raises(NonFiniteError, match="non-finite"):
        require_finite(Field(g, vals))


@settings(max_examples=10, deadline=None)
@given(k=st.integers(min_value=1, max_value=8), m=st.integers(min_value=1, max_value=2))
def test_dx_eigenvalue_property(k, m):
    g = Grid2D(64, 33, Ymax=5.0)
    f = sampled(g, lambda X, Y: np.sin(k * X) * (1 + Y))
    got = dx_m(dx_m(f, m), m)
    # tolerance covers spectral rounding amplified by the top retained mode
    tol = 1e-7 * max(float(k) ** (2 * m), (g.Nx / 2.0) ** (2 * m) * 1e-6)
    assert np.allclose(got.values, (-1.0) ** m * float(k) ** (2 * m) * f.values, atol=tol)
