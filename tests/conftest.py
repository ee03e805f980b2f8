"""Shared fixtures: the reference configuration artifacts are expensive
(solves, kernel quadrature), so everything heavy is session-scoped."""

import gc
import weakref

import pytest

from prandtl_lab.cutoffs import build_cutoffs
from prandtl_lab.grid import Grid2D
from prandtl_lab.norms import GevreyParams, trajectory_raws
from prandtl_lab.profiles import build_perturbation, build_shear_profile, validate_assumption
from prandtl_lab.solver import SolverConfig, imex_solve, picard_solve

REF = dict(Nx=128, Ny=257, Lx=6.283185307179586, Ymax=30.0,
           y0=2.0, alpha=2.0, amp=1e-3, kx=1,
           eps=0.1, T=0.05, Nt=32)


@pytest.fixture(scope="session")
def grid():
    return Grid2D(REF["Nx"], REF["Ny"], REF["Lx"], REF["Ymax"])


@pytest.fixture(scope="session")
def grid_fine():
    return Grid2D(REF["Nx"], 2 * REF["Ny"] - 1, REF["Lx"], REF["Ymax"])


@pytest.fixture(scope="session")
def profile(grid):
    return build_shear_profile(grid, REF["y0"], REF["alpha"])


@pytest.fixture(scope="session")
def profile_fine(grid_fine):
    return build_shear_profile(grid_fine, REF["y0"], REF["alpha"])


@pytest.fixture(scope="session")
def assumption(profile):
    rep = validate_assumption(profile)
    assert rep.all_pass
    return rep


@pytest.fixture(scope="session")
def cutoffs(grid, assumption):
    return build_cutoffs(grid, assumption.y0, assumption.delta)


@pytest.fixture(scope="session")
def u0(grid, profile):
    return build_perturbation(grid, REF["amp"], REF["kx"], profile)


@pytest.fixture(scope="session")
def params():
    return GevreyParams(rho=0.3, sigma=1.75, ell=2.25, alpha=2.0, Mmax=10)


def _solve(u0_field, profile, scheme, nt, eps=REF["eps"], T=REF["T"]):
    cfg = SolverConfig(eps=eps, T=T, Nt=nt, jmax=12, tol=1e-12, scheme=scheme)
    fn = picard_solve if scheme == "picard" else imex_solve
    return fn(u0_field, profile, cfg)


@pytest.fixture(scope="session")
def traj_ladder(u0, profile):
    """imex trajectories at Nt = 32, 64, 128 on the reference grid."""
    return [_solve(u0, profile, "imex", nt) for nt in (32, 64, 128)]


@pytest.fixture(scope="session")
def traj_imex(traj_ladder):
    return traj_ladder[0]


@pytest.fixture(scope="session")
def traj_picard(u0, profile):
    return _solve(u0, profile, "picard", REF["Nt"])


@pytest.fixture(scope="session")
def picard_raws(traj_picard, cutoffs, params):
    """norms.trajectory_raws of traj_picard, computed once per test run."""
    return trajectory_raws(traj_picard, cutoffs, params)


@pytest.fixture(scope="session")
def fine_setup(grid_fine, profile_fine):
    rep = validate_assumption(profile_fine)
    cut = build_cutoffs(grid_fine, rep.y0, rep.delta)
    u0f = build_perturbation(grid_fine, REF["amp"], REF["kx"], profile_fine)
    traj = _solve(u0f, profile_fine, "imex", REF["Nt"])
    return dict(grid=grid_fine, profile=profile_fine, report=rep, cut=cut,
                u0=u0f, traj=traj)


@pytest.fixture(scope="session")
def eps_family(u0, profile):
    """imex runs at eps = 0.2, 0.1, 0.05 (the 0.1 member reuses the ladder)."""
    return {0.2: _solve(u0, profile, "imex", REF["Nt"], eps=0.2),
            0.05: _solve(u0, profile, "imex", REF["Nt"], eps=0.05)}


@pytest.fixture
def snapshot_refs(monkeypatch):
    """Weak references to every verify.Snapshot built during the test."""
    import prandtl_lab.verify as V
    refs = []

    class Tracked(V.Snapshot):
        def __init__(self, traj, i):
            super().__init__(traj, i)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(V, "Snapshot", Tracked)
    return refs


def alive(refs) -> list:
    gc.collect()
    return [r for r in refs if r() is not None]
