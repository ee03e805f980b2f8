import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import IntegrationWarning, quad

import prandtl_lab.profiles as P
import prandtl_lab.scipy_ext as E
from prandtl_lab.grid import Field, Grid2D, dx_m, dy_j
from prandtl_lab.profiles import (ShearProfile, _ansatz_derivs, build_perturbation,
                                  build_shear_profile, check_compatibility, validate_assumption)

from conftest import REF, missing_extension, sampled


def test_bare_normalization_integral():
    # with y0=2, alpha=2 and the correction dropped, the normalization
    # integral is 1/2 (so the bare amplitude would be 2); quadrature oracle
    val, err = quad(lambda y: (2.0 - y) * (1.0 + y) ** -3, 0, np.inf)
    assert err < 1e-10
    assert abs(val - 0.5) < 1e-10


def test_profile_construction(grid, profile):
    p = profile
    assert p.u0s[0] == 0.0
    assert abs(p.derivs[1][0]) <= 1e-10          # forced u''(0) = 0
    assert abs(p.u0s[-1] - 1.0) <= 1e-6
    # critical point exactly at y0: the derivative factor changes sign there
    d1 = p.derivs[0]
    i = np.searchsorted(grid.y_nodes, p.y0)
    assert d1[i - 1] > 0 > d1[i + 1]
    # correction constant
    assert np.isclose(p.correction, (1 + 3 * 2.0) / 2.0)


def test_profile_rejects_bad_inputs(grid):
    with pytest.raises(ValueError):
        build_shear_profile(grid, -1.0, 2.0)
    with pytest.raises(ValueError):
        build_shear_profile(grid, 2.0, 0.5)


@pytest.mark.parametrize("y0,alpha", [(2.0, 2.0), (3.0, 3.0), (1.0, 1.5)])
def test_ansatz_derivatives_match_sympy(grid, y0, alpha):
    """The closed-form Leibniz derivatives of the ansatz against sp.diff, on
    the y-grid (y = 0 included) and past Ymax, where the fine grid runs."""
    c = (1.0 + (alpha + 1.0) * y0) / y0
    y = np.concatenate((grid.y_nodes, np.linspace(grid.Ymax, grid.Ymax + 8.0, 33)))
    s = sp.symbols("y")
    expr = (y0 - s) * (1 + s) ** (-alpha - 1) * (1 + c * s * sp.exp(-s))
    ours = _ansatz_derivs(y, y0, alpha, c, 6)
    for k in range(6):
        ref = sp.lambdify(s, sp.diff(expr, s, k), "numpy")(y)
        assert np.max(np.abs(ours[k] - ref)) <= 1e-13 * np.max(np.abs(ref))


_FRESH_LAB = """
import sys
import numpy as np
import prandtl_lab.scipy_ext as E
from prandtl_lab.cli import Lab, RunConfig
from prandtl_lab.profiles import _ansatz_derivs
from prandtl_lab.shear import _quadrature_rows, evolve_shear
from prandtl_lab.solver import heat_propagate
lab = Lab(RunConfig())
p = lab.profile
direct = (evolve_shear(p, 0.01).us, heat_propagate(lab.u0, 0.01, 0.1).values)
print('sympy' in sys.modules,
      *(m in sys.modules for m in ('scipy.fft', 'scipy.special', 'scipy.integrate')))
import scipy.fft, scipy.special
from scipy.integrate import quad
bare, _ = quad(lambda s: float(_ansatz_derivs(s, p.y0, p.alpha, p.correction, 1)[0]),
               0.0, lab.grid.Ymax, limit=200)
print(p.amplitude.hex() == (1.0 / bare).hex(), E.routes() == dict.fromkeys(E.EXTENSIONS, 'direct'))
for route in ('direct', 'public'):
    E.scipy_extension.cache_clear()
    if route == 'public':
        for key, (subdir, _, name, public) in E.EXTENSIONS.items():
            E.EXTENSIONS[key] = (subdir, '_no_such_module', name, public)
    again = (_quadrature_rows(p, 0.01, 0, 1)[0], heat_propagate(lab.u0, 0.01, 0.1).values)
    print(route, all(np.array_equal(a, b) for a, b in zip(again, direct)))
print(E.routes() == {k: v[3] for k, v in E.EXTENSIONS.items()})
"""


def test_profile_build_does_not_import_sympy():
    """A Lab, a shear state at t > 0 and a heat_propagate in a fresh process
    import neither sympy nor scipy.fft, scipy.special or scipy.integrate (the
    three compiled extensions are loaded by file path).  Importing those
    packages afterwards works, quad gives the Lab's amplitude bitwise, and
    the shear state and heat_propagate come out bitwise the same both on the
    file-loaded functions (reloaded once the packages hold them) and on the
    public routes."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _FRESH_LAB], capture_output=True, text=True,
                          cwd=str(root), env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["False"] * 4          # sympy, fft, special, integrate
    assert lines[1].split() == ["True", "True"]
    assert lines[2:] == ["direct True", "public True", "True"]


_TWO_SWEEP_RUNS = """
import dataclasses, json, sys, tempfile, warnings
from prandtl_lab import cli
base = cli.RunConfig()
cfg = dataclasses.replace(base, nx=32, ny=65, mmax=8, nt=8,
                          checks=tuple(c for c in base.checks if c != "boundary"))
cfg.validate()
loaded = []
for _ in range(2):
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.run(cfg, "full", out_dir=out) in (0, 1)
    loaded.append(sorted(sys.modules))
print(json.dumps(loaded))
"""


def test_sweep_runs_import_no_random_or_hashlib():
    """Two `full` runs of the sweep's check set (every check but boundary)
    in one fresh process leave none of numpy.random, secrets, hashlib or
    _hashlib loaded (the Sobolev draws are pure Python), and the second run
    imports no module: a sweep's later members carry no import pages that
    its first member loaded after its own peak."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _TWO_SWEEP_RUNS], capture_output=True,
                          text=True, cwd=str(root), env=env)
    assert proc.returncode == 0, proc.stderr
    first, second = json.loads(proc.stdout.splitlines()[-1])
    for loaded in (first, second):
        assert sorted({"numpy.random", "secrets", "hashlib", "_hashlib"} & set(loaded)) == []
    assert sorted(set(second) - set(first)) == []


@pytest.mark.parametrize("y0,alpha,ny", [(REF.y0, REF.alpha, REF.ny),
                                         (1.5, 1.5, 257), (2.0, 2.5, 257), (3.0, 2.0, 257)])
def test_direct_normalization_is_quads(grid, y0, alpha, ny):
    """The amplitude A from the file-loaded qagse is bitwise 1 / quad's
    normalization integral, on the reference datum and on the family of
    test_assumption_passes_over_family."""
    g = grid if ny == REF.ny else Grid2D(64, ny)
    p = build_shear_profile(g, y0, alpha)
    assert E.routes()["quadpack"] == "direct"
    c = (1.0 + (alpha + 1.0) * y0) / y0
    bare, _ = quad(lambda s: float(_ansatz_derivs(s, y0, alpha, c, 1)[0]), 0.0, g.Ymax,
                   limit=200)
    assert p.amplitude.hex() == (1.0 / bare).hex()


@pytest.fixture
def fresh_quadpack(fresh_extensions):
    """fresh_extensions with an empty profile cache, which comes back as it was."""
    fresh_extensions.setattr(P, "_profile_cache", {})
    return fresh_extensions


def test_missing_qagse_falls_back_to_quad(fresh_quadpack, grid, profile):
    """When the loader finds no extension, quad builds a bitwise-equal profile."""
    missing_extension(fresh_quadpack, "quadpack")
    assert E.compiled("quadpack") is None
    assert E.routes()["quadpack"] == "scipy.integrate.quad"
    p = build_shear_profile(grid, REF.y0, REF.alpha)
    assert p.amplitude.hex() == profile.amplitude.hex()
    for k in ("u0s", "derivs", "u0s_fine"):
        assert np.array_equal(getattr(p, k), getattr(profile, k)), k


def test_qagse_error_flag_raises_quads_warning(fresh_quadpack):
    """A non-zero ier from qagse hands the integral to quad, whose warning
    the caller sees, with quad's value."""
    f = lambda s: 1.0 + np.cos(1e4 * s)    # too many oscillations for 200 subintervals
    assert E.compiled("quadpack")(f, 0.0, 30.0, (), 0, 1.49e-8, 1.49e-8, 200)[2] != 0
    assert E.routes()["quadpack"] == "direct"
    with pytest.warns(IntegrationWarning):
        value = P._integral(f, 30.0)
    assert E.routes()["quadpack"] == "scipy.integrate.quad"
    with pytest.warns(IntegrationWarning):
        assert value == quad(f, 0.0, 30.0, limit=200)[0]


def test_validate_assumption_reference(assumption):
    assert assumption.all_pass
    assert assumption.c0 > 0
    assert 0 < assumption.c1 < 1
    assert 0 < assumption.delta < 1.0


@pytest.mark.parametrize("y0,alpha", [(1.5, 1.5), (2.0, 2.5), (3.0, 2.0)])
def test_assumption_passes_over_family(y0, alpha):
    g = Grid2D(64, 257)
    p = build_shear_profile(g, y0, alpha)
    rep = validate_assumption(p)
    assert rep.all_pass, rep.failing


def _clause_inputs(profile, rep, k, broken):
    """(om, dyom, rows) of the profile at t = 0, with one value moved past
    the clause's bound relaxed by k: clause i's floor on the strip, the lower
    decay bound of clause ii off the strip, or clause iii's bound in one more
    row.  k = 4 takes two x-rows, as the conditions monitor's fields do, and
    breaks only the second."""
    y = profile.grid.y_nodes
    tile = (lambda a: np.tile(a, (2, 1))) if k == 4 else np.copy
    om, dyom = tile(profile.derivs[0]), tile(profile.derivs[1])
    rows = [tile(d) for d in profile.derivs[1:6]]
    at = (1,) if k == 4 else ()
    if broken == "i":
        j = int(np.argmin(np.abs(y - rep.y0)))
        dyom[at + (j,)] = 0.5 * rep.c0 / k
    elif broken == "ii":
        j = int(np.argmax(np.abs(y - rep.y0) >= 1.25 * rep.delta))
        om[at + (j,)] = 0.5 * rep.c1 / k * (1.0 + y[j]) ** (-rep.alpha)
    else:
        bad = np.zeros_like(om)
        bad[at + (-1,)] = 2.0 * k / rep.c1 * (1.0 + y[-1]) ** (-rep.alpha - 1.0)
        rows = [*rows, bad]
    return om, dyom, rows


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("broken", ["i", "ii", "iii"])
def test_clause_rule_flips_only_the_broken_clause(profile, assumption, k, broken):
    """Negative controls of AssumptionReport.clauses: the profile at t = 0
    passes every clause, and a value past one relaxed bound fails that
    clause alone."""
    y = profile.grid.y_nodes
    d = profile.derivs
    assert all(assumption.clauses(d[0], d[1], d[1:6], y, k).values())
    clauses = assumption.clauses(*_clause_inputs(profile, assumption, k, broken), y, k)
    assert clauses == {c: c != broken for c in ("i", "ii", "iii")}


def test_monotone_profile_fails_clause_i(grid):
    y = grid.y_nodes
    u0s = 1.0 - np.exp(-y)
    derivs = np.array([np.exp(-y) * s for s in (1, -1, 1, -1, 1, -1)])
    p = ShearProfile(grid=grid, y0=2.0, alpha=2.0, amplitude=1.0, correction=0.0,
                     u0s=u0s, derivs=derivs)
    rep = validate_assumption(p)
    assert not rep.passes["i"]


def test_curved_wall_profile_fails_clause_iii(grid, profile):
    bad = ShearProfile(grid=grid, y0=profile.y0, alpha=profile.alpha,
                       amplitude=profile.amplitude, correction=profile.correction,
                       u0s=profile.u0s.copy(), derivs=profile.derivs.copy())
    bad.derivs = bad.derivs.copy()
    bad.derivs[1] = bad.derivs[1] + 0.05    # u''(0) != 0 now
    rep = validate_assumption(bad)
    assert not rep.passes["iii"]


def test_zero_perturbation(grid, profile):
    z = build_perturbation(grid, 0.0, 1, profile)
    assert np.all(z.values == 0.0)
    cr = check_compatibility(z, profile)
    assert cr.res_value == cr.res_dyomega == cr.res_third == 0.0


def test_compatibility_of_built_perturbation(grid, profile, u0):
    cr = check_compatibility(u0, profile)
    tol = 1e-8 * REF.amp
    assert cr.res_value <= tol
    assert cr.res_dyomega <= tol
    assert cr.res_third <= tol


@pytest.mark.parametrize("amp,kx", [(1e-4, 1), (1e-2, 2), (1e-1, 3)])
def test_compatibility_across_amplitudes(grid, profile, amp, kx):
    u = build_perturbation(grid, amp, kx, profile)
    cr = check_compatibility(u, profile)
    assert max(cr.res_value, cr.res_dyomega, cr.res_third) <= 1e-8 * amp


def test_perturbation_guards(grid, profile):
    with pytest.raises(ValueError):
        build_perturbation(grid, 1e-3, grid.Nx // 8 + 1, profile)
    with pytest.raises(ValueError):
        build_perturbation(grid, -1.0, 1, profile)


def test_first_pass_linearity(grid, profile):
    """Pass one is exactly linear in amp; the full construction differs only
    by the correction, whose coefficient splits into amp and amp^2 parts."""
    u1 = build_perturbation(grid, 1e-3, 1, profile)
    u2 = build_perturbation(grid, 2e-3, 1, profile)
    # Richardson: B(amp) = c1*amp + c2*amp^2  =>  2*u(amp) - u(2amp) isolates
    # the quadratic part, which is O(amp^2) small
    resid = 2.0 * u1.values - u2.values
    assert np.max(np.abs(resid)) <= 5.0 * (1e-3) ** 2


def test_correction_fourth_derivative_matches_coefficient(grid, profile):
    """The wall d_y^4 of the added correction equals its x-coefficient."""
    amp, kx = 1e-3, 1
    u_full = build_perturbation(grid, amp, kx, profile)
    phi = grid.y_nodes * 0.0
    from prandtl_lab.profiles import perturbation_envelope
    phi = perturbation_envelope(grid)
    sx = np.sin(2 * np.pi * kx * grid.x_nodes / grid.Lx)
    u1 = Field(grid, np.outer(amp * sx, phi))
    corr = Field(grid, u_full.values - u1.values)
    om1 = dy_j(u1, 1)
    B = (profile.omega0s[0] + om1.values[:, 0]) * dx_m(om1, 1).values[:, 0] \
        - dy_j(om1, 3).values[:, 0]
    got = dy_j(dy_j(corr, 1), 3).values[:, 0]
    assert np.max(np.abs(got - B)) <= 1e-10 * max(np.max(np.abs(B)), 1e-30)


def test_third_condition_hand_oracle(grid, profile):
    """u = sin(x) * y: first two conditions hold on the nose, the third
    residual equals max |(omega0s(0) + sin x) cos x| over the x-nodes."""
    u = sampled(grid, lambda X, Y: np.sin(X) * Y)
    cr = check_compatibility(u, profile)
    assert cr.res_value == 0.0
    assert cr.res_dyomega <= 1e-12
    x = grid.x_nodes
    expect = np.max(np.abs((profile.omega0s[0] + np.sin(x)) * np.cos(x)))
    assert np.isclose(cr.res_third, expect, rtol=1e-10)
