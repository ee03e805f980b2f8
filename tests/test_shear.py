import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf, eval_hermite

from prandtl_lab.grid import Grid2D
from prandtl_lab.profiles import ShearProfile, build_shear_profile
import prandtl_lab.scipy_ext as E
import prandtl_lab.shear as S
import prandtl_lab.verify as V
from prandtl_lab.shear import (_T_SCAN, _erf, _hermite, _kernel_derivs_upto, _lift,
                               _quadrature_rows, check_proposition_shear, evolve_shear,
                               proposition_clauses)

from conftest import REF, missing_extension


def _dense_differences(p, t):
    """d^j kernel(y_i - s_k) - d^j kernel(y_i + s_k), j = 0..6, evaluated on
    the full Ny x Nf arrays, and the weighted datum."""
    y, yq = p.grid.y_nodes, p.y_fine
    h = yq[1] - yq[0]
    wq = np.full(yq.shape, h)
    wq[0] = wq[-1] = 0.5 * h
    w0w = (p.u0s_fine - _lift(yq, 0.0, 0)) * wq
    kd = _kernel_derivs_upto(y[:, None] - yq[None, :], t, 0, 7)
    ks = _kernel_derivs_upto(y[:, None] + yq[None, :], t, 0, 7)
    return [kd[j] - ks[j] for j in range(7)], w0w


def _dense_quadrature(p, t):
    """Rows d_y^j u^s, j = 0..6, from the dense kernel differences, each
    multiplied over the same row spans as _quadrature_rows: one product of
    all Ny rows is rounded differently when BLAS runs several threads."""
    y = p.grid.y_nodes
    diffs, w0w = _dense_differences(p, t)
    spans = S._row_spans(len(y))
    return np.array([np.concatenate([d[a:b] @ w0w for a, b in spans]) + _lift(y, t, j)
                     for j, d in enumerate(diffs)])


def test_t0_returns_profile_exactly(profile):
    s = evolve_shear(profile, 0.0)
    assert np.array_equal(s.us, profile.u0s)
    assert np.array_equal(s.omegas, profile.derivs[0])
    assert np.array_equal(s.dj_omegas, profile.derivs[1:4])
    assert profile.state_cache[0.0] is s


def test_orders_above_one_formed_once_on_first_read(profile, monkeypatch):
    """evolve_shear forms rows 0-1 only; the first dj_omegas read forms rows
    2-4 as one block, which the state keeps, and no row 5-6."""
    fresh = dataclasses.replace(profile)          # an empty state cache
    calls = []
    real = S._quadrature_rows

    def counting(p, t, j0, j1):
        calls.append((t, j0, j1))
        return real(p, t, j0, j1)

    monkeypatch.setattr(S, "_quadrature_rows", counting)
    t = REF.t_final / 4
    s = evolve_shear(fresh, t)
    assert calls == [(t, 0, 2)]
    d = s.dj_omegas
    assert calls == [(t, 0, 2), (t, 2, 5)]
    assert d.shape == (3, profile.grid.Ny)
    assert s.dj_omegas is d
    assert evolve_shear(fresh, t).dj_omegas is d
    zero = evolve_shear(fresh, 0.0)
    assert zero.dj_omegas.shape == (3, profile.grid.Ny)
    assert len(calls) == 2


def test_kernel_table_equals_dense_sum(profile):
    """dy = 30/256 makes every offset h*m exact, so reading the kernel from
    the 1-D table is bitwise the dense double sum, orders 0..6."""
    T = REF.t_final
    for t in (T / 128, T / 32, T, 0.5):
        rows = _quadrature_rows(profile, t, 0, 7)
        w0w, views = S._kernel_operands(profile, t, 0, 7)
        diffs, dense_w0w = _dense_differences(profile, t)
        assert np.array_equal(w0w, dense_w0w)
        assert all(np.array_equal(direct - image, d) for (direct, image), d in zip(views, diffs))
        assert np.array_equal(rows, _dense_quadrature(profile, t))
        assert rows[0][0] == 0.0


@pytest.mark.parametrize("t", [0.01, 0.05, 0.23, 0.5])
def test_scan_block_is_the_state_blocks(profile, t):
    """The persistence scan's one block of orders 1..6 is bitwise the rows
    that the blocks 0-1 (evolve_shear), 2-4 (dj_omegas) and 5-6 form: a
    row is the same whichever block of orders it is formed in."""
    fresh = dataclasses.replace(profile)          # an empty state cache
    s = evolve_shear(fresh, t)
    blocks = np.vstack([s.us, s.omegas, s.dj_omegas, _quadrature_rows(fresh, t, 5, 7)])
    assert np.array_equal(_quadrature_rows(fresh, t, 1, 7), blocks[1:])


# Ny = 65, 66, 67 leave tails of 1, 2, 3 rows after the 32-row spans, 96 none
_BLOCK_NYS = (65, 66, 67, 96, 257, 513)
_BLOCK_TIMES = (REF.t_final / 32, REF.t_final)
_ONE_THREAD_ROWS = """
import sys
import numpy as np
from prandtl_lab.grid import Grid2D
from prandtl_lab.profiles import build_shear_profile
import prandtl_lab.shear as S

nx, lx, ymax, y0, alpha, out = sys.argv[1:]
rows = {}
for ny in %r:
    p = build_shear_profile(Grid2D(int(nx), ny, float(lx), float(ymax)), float(y0), float(alpha))
    for t in %r:
        got = S._quadrature_rows(p, t, 0, 7)
        w0w, views = S._kernel_operands(p, t, 0, 7)
        y = p.grid.y_nodes
        one_call = np.array([(d - i) @ w0w + S._lift(y, t, j) for j, (d, i) in enumerate(views)])
        assert np.array_equal(got, one_call), (ny, t)
        rows[f"{ny}_{t!r}"] = got
np.savez(out, **rows)
""" % (_BLOCK_NYS, _BLOCK_TIMES)


def test_blocked_rows_are_the_one_call_product(tmp_path):
    """Under one BLAS thread the row-blocked quadrature is bitwise the one
    product (direct - image) @ w0w, orders 0..6, whatever tail the 32-row
    spans leave; and the rows this process forms, under its own BLAS thread
    count, are bitwise the same."""
    src = Path(S.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(src))
    out = tmp_path / "rows.npz"
    subprocess.run([sys.executable, "-c", _ONE_THREAD_ROWS, str(REF.nx), repr(REF.lx),
                    repr(REF.ymax), repr(REF.y0), repr(REF.alpha), str(out)],
                   env=env, check=True)
    with np.load(out) as one_thread:
        for ny in _BLOCK_NYS:
            p = build_shear_profile(Grid2D(REF.nx, ny, REF.lx, REF.ymax), REF.y0, REF.alpha)
            for t in _BLOCK_TIMES:
                assert np.array_equal(S._quadrature_rows(p, t, 0, 7),
                                      one_thread[f"{ny}_{t!r}"]), (ny, t)


def test_quadrature_forms_no_full_kernel_difference(profile_fine):
    """Forming u^s and omega^s at Ny = 513 allocates under a quarter of the
    Ny x Nf kernel difference that one product would materialise."""
    ny, nf = profile_fine.grid.Ny, len(profile_fine.y_fine)
    tracemalloc.start()
    try:
        S._quadrature_rows(profile_fine, REF.t_final / 2, 0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ny * nf * 8 / 4


def test_kernel_table_off_binary_grid():
    """On Ny = 200 dy is not a binary fraction: offsets round differently
    from y_i -/+ s_k, and the two forms agree to rounding."""
    p = build_shear_profile(Grid2D(REF.nx, 200, REF.lx, REF.ymax),
                            REF.y0, REF.alpha)
    for t in (0.01, 0.05, 0.5):
        got, ref = _quadrature_rows(p, t, 0, 7), _dense_quadrature(p, t)
        for j in range(7):
            assert np.max(np.abs(got[j] - ref[j])) <= 1e-12 * np.max(np.abs(ref[j]))


def test_misaligned_fine_grid_rejected(profile):
    h = profile.y_fine[1] - profile.y_fine[0]
    for y_fine in (profile.y_fine + 0.5 * h, 0.5 * profile.y_fine):
        bad = dataclasses.replace(profile, y_fine=y_fine)
        with pytest.raises(ValueError, match="refinement"):
            evolve_shear(bad, 0.05)


def test_erf_datum_is_self_similar(grid):
    """u0s = erf(y/2) is the lift itself, so the quadrature term vanishes and
    the evolution reproduces the closed-form heat solution exactly."""
    y = grid.y_nodes
    h_fine = grid.dy / 8
    y_fine = h_fine * np.arange(8 * (grid.Ny - 1) + int(np.ceil(8.0 / h_fine)) + 1)
    p = ShearProfile(grid=grid, y0=2.0, alpha=2.0, amplitude=1.0, correction=0.0,
                     u0s=erf(y / 2), derivs=np.zeros((6, grid.Ny)),
                     y_fine=y_fine, u0s_fine=erf(y_fine / 2))
    for t in (0.05, 0.3):
        s = evolve_shear(p, t)
        expect = erf(y / (2.0 * np.sqrt(1.0 + t)))
        assert np.max(np.abs(s.us - expect)) <= 1e-12


def _lift_arguments(profiles) -> np.ndarray:
    """The eta = y / (2 sqrt(1+t)) that _lift reads on each profile: its
    y-nodes at every time of the persistence scan and of the residual
    ladder's solves, and its fine quadrature nodes at t = 0."""
    ts = np.concatenate([np.arange(0.0, _T_SCAN + 5e-3, 1e-2),
                         *(np.linspace(0.0, REF.t_final, nt + 1) for nt in V.ladder_nts(REF.nt))])
    return np.concatenate([z for p in profiles for z in (
        (p.grid.y_nodes[None, :] / (2.0 * np.sqrt(1.0 + ts[:, None]))).ravel(),
        p.y_fine / 2.0)])


@pytest.fixture(scope="module")
def lift_samples(profile, profile_fine):
    """A dense sample of [-40, 40] and _lift_arguments of the reference and
    the Ny = 513 profiles."""
    rng = np.random.default_rng(0)
    return {"dense": np.concatenate([np.linspace(-40.0, 40.0, 400_001),
                                     rng.standard_normal(100_000) * 6.0]),
            "grids": _lift_arguments([profile, profile_fine])}


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("sample", ["dense", "grids"])
def test_hermite_factor_is_scipys(lift_samples, sample, n):
    """The numpy Hermite factor of _lift is scipy.special.eval_hermite bitwise."""
    x = lift_samples[sample]
    assert np.array_equal(_hermite(n, x), eval_hermite(n, x))


@pytest.mark.parametrize("sample", ["dense", "grids"])
def test_erf_is_scipys(lift_samples, sample):
    """The file-loaded erf is scipy.special.erf bitwise."""
    assert E.routes()["special_ufuncs"] == "direct"
    x = lift_samples[sample]
    assert np.array_equal(_erf(x), erf(x))


def test_missing_special_ufuncs_falls_back_to_scipy_special(fresh_extensions, profile):
    """When the loader finds no _special_ufuncs, scipy.special's erf forms
    bitwise-equal shear rows."""
    rows = _quadrature_rows(profile, 0.02, 0, 2)
    missing_extension(fresh_extensions, "special_ufuncs")
    assert E.compiled("special_ufuncs") is None
    assert E.routes()["special_ufuncs"] == "scipy.special"
    assert np.array_equal(_quadrature_rows(profile, 0.02, 0, 2), rows)


def test_wall_value_stays_zero(profile):
    for t in (0.01, 0.3, 1.0):
        s = evolve_shear(profile, t)
        assert abs(s.us[0]) <= 1e-10


def test_negative_time_rejected(profile):
    with pytest.raises(ValueError):
        evolve_shear(profile, -0.1)


def test_kernel_width_warning(profile):
    with pytest.warns(UserWarning, match="truncation"):
        evolve_shear(profile, 4.0)


def test_min_resolved_step_state_is_finite(profile):
    """At the least step the quadrature resolves, every shear order is finite."""
    t = S.min_resolved_step(profile.grid)
    st = evolve_shear(profile, t)
    assert all(np.isfinite(a).all() for a in (st.us, st.omegas, st.dj_omegas,
                                               _quadrature_rows(profile, t, 0, 7)))


def test_maximum_principle(profile):
    lo = profile.u0s.min()
    hi = max(1.0, profile.u0s.max())
    for t in (0.05, 0.5, 1.0):
        s = evolve_shear(profile, t)
        assert s.us.min() >= lo - 1e-9
        assert s.us.max() <= hi + 1e-9


def test_heat_residual_refines_in_dt(profile):
    """|d_t u^s - d_y^2 u^s| with centered time differences, first order+ in dt."""
    t0 = 0.1
    s0 = evolve_shear(profile, t0)
    errs = []
    for h in (2e-3, 1e-3):
        sp = evolve_shear(profile, t0 + h)
        sm = evolve_shear(profile, t0 - h)
        dudt = (sp.us - sm.us) / (2 * h)
        errs.append(np.max(np.abs(dudt - s0.dj_omegas[0])))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.0


def test_proposition_clauses_at_zero(profile, assumption):
    clauses = proposition_clauses(profile.derivs, assumption, profile.grid.y_nodes)
    assert all(clauses.values())


def test_proposition_scan(profile, assumption):
    rep = check_proposition_shear(profile, assumption)
    assert rep.ok
    assert rep.T_s >= 0.1
    assert not rep.inconsistent_at_zero


def test_scan_keeps_its_report_not_states(profile, assumption, monkeypatch):
    """The scan forms orders 1-6 in one quadrature call per time t > 0 and
    builds no state; the profile keeps its report, keyed by all the scan
    reads, so the same report scans for free, and one with another c0
    (dataclasses.replace) scans again."""
    fresh = dataclasses.replace(profile)          # empty caches
    calls = []
    real = S._quadrature_rows
    monkeypatch.setattr(S, "_quadrature_rows",
                        lambda p, t, j0, j1: calls.append((t, j0, j1)) or real(p, t, j0, j1))
    rep = check_proposition_shear(fresh, assumption)
    scan = [(t, 1, 7) for t in rep.t_checked[1:]]
    assert calls == scan and len(scan) == 50 and fresh.state_cache == {}
    assert check_proposition_shear(fresh, assumption) is rep and calls == scan
    again = check_proposition_shear(fresh, dataclasses.replace(assumption, c0=0.5 * assumption.c0))
    assert calls == 2 * scan and again is not rep and again.to_dict() == rep.to_dict()


def test_scan_warns_of_a_wide_kernel(profile, assumption, monkeypatch):
    """The kernel-width warning of evolve_shear covers the scan's times,
    which build no state: a scan out to t = 4 (4 sqrt(t) = 8 > Ymax/4)
    warns of the truncation."""
    monkeypatch.setattr(S, "_T_SCAN", 4.0)
    monkeypatch.setattr(S, "_SCAN_STEP", 1.0)
    monkeypatch.setattr(S, "proposition_clauses", lambda rows, rep, y: {"i": True})
    assert 4.0 * np.sqrt(4.0) > profile.grid.Ymax / 4.0
    with pytest.warns(UserWarning, match="truncation"):
        assert check_proposition_shear(dataclasses.replace(profile), assumption).T_s == 4.0


def test_proposition_detects_inflated_c0(profile, assumption):
    inflated = dataclasses.replace(assumption, c0=10.0 * assumption.c0)
    clauses = proposition_clauses(profile.derivs, inflated, profile.grid.y_nodes)
    assert not clauses["i"]
