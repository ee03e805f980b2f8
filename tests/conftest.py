"""Shared fixtures: the reference configuration artifacts are expensive
(solves, kernel quadrature), so everything heavy is session-scoped.  They are
read from one cli.Lab of configs/reference.ini, so the tests judge the
objects the CLI builds; only off-reference runs are solved here."""

import gc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from prandtl_lab.cli import Lab, load_config
from prandtl_lab.solver import imex_solve, picard_solve
import prandtl_lab.verify as V

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.ini"
REF = load_config(CONFIG)


@pytest.fixture(scope="session")
def lab():
    return Lab(REF)


@pytest.fixture(scope="session")
def grid(lab):
    return lab.grid


@pytest.fixture(scope="session")
def grid_fine(lab):
    return lab.fine.grid


@pytest.fixture(scope="session")
def profile(lab):
    return lab.profile


@pytest.fixture(scope="session")
def profile_fine(lab):
    return lab.fine.profile


@pytest.fixture(scope="session")
def assumption(lab):
    assert lab.report.all_pass
    return lab.report


@pytest.fixture(scope="session")
def cutoffs(lab):
    return lab.cut


@pytest.fixture(scope="session")
def u0(lab):
    return lab.u0


@pytest.fixture(scope="session")
def params(lab):
    return lab.params


def _solve(u0_field, profile, scheme, nt, eps=REF.eps):
    """An off-reference solve (another datum, Nt or eps) on the reference
    horizon and Picard settings."""
    cfg = replace(REF, eps=eps, nt=nt, scheme=scheme).build()[2]
    fn = picard_solve if scheme == "picard" else imex_solve
    return fn(u0_field, profile, cfg)


@pytest.fixture
def traj_ladder(lab):
    """The residual ladder's check-only imex solves (Nt = 32, 64, 128),
    fresh for each test: their nodes stream once."""
    return [lab.check_solve(nt) for nt in V.ladder_nts(REF.nt)]


@pytest.fixture(scope="session")
def ladder_rows(lab):
    """(job, verify.walk rows) of every residual job on the residual ladder,
    in report order."""
    jobs = V.residual_jobs(lab.grid, lab.report, lab.cut, "fgh")
    rows, _ = V.walk([lab.check_solve(nt) for nt in V.ladder_nts(REF.nt)], jobs)
    return list(zip(jobs, rows))


@pytest.fixture(scope="session")
def traj_imex(u0, profile):
    """A whole imex solve at the reference Nt: the Lab's check_solve
    streams its nodes."""
    return _solve(u0, profile, "imex", REF.nt)


@pytest.fixture(scope="session")
def traj_picard(lab):
    assert lab.cfg.scheme == "picard"
    return lab.traj


@pytest.fixture(scope="session")
def picard_raws(lab):
    """The Lab's seminorm table of traj_picard."""
    assert lab.cfg.scheme == "picard"
    return lab.raws


@pytest.fixture(scope="session")
def traj_fine(lab):
    """A whole imex solve on the dy-refinement companion, lab.fine (its
    check_solve streams its nodes)."""
    return imex_solve(lab.fine.u0, lab.fine.profile, lab.fine.solver)


@pytest.fixture(scope="session")
def eps_family(u0, profile):
    """imex runs at eps = 0.2, 0.1, 0.05 (the 0.1 member reuses the ladder)."""
    return {0.2: _solve(u0, profile, "imex", REF.nt, eps=0.2),
            0.05: _solve(u0, profile, "imex", REF.nt, eps=0.05)}


@pytest.fixture
def snapshot_refs(monkeypatch):
    """Weak references to every verify.Snapshot built during the test."""
    refs = []

    class Tracked(V.Snapshot):
        def __init__(self, traj, i):
            super().__init__(traj, i)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(V, "Snapshot", Tracked)
    return refs


@pytest.fixture
def snapshot_overlap(snapshot_refs, monkeypatch):
    """The number of verify.Snapshots alive as each one is built during the
    test, one entry per Snapshot."""
    others = []

    class Counted(V.Snapshot):
        def __init__(self, traj, i):
            others.append(sum(r() is not None for r in snapshot_refs))
            super().__init__(traj, i)

    monkeypatch.setattr(V, "Snapshot", Counted)
    return others


def evaluate_at(traj, jobs, i):
    """verify's residual frame at node i of a whole trajectory, in walk's
    order: the neighbours' time differences, then the centre snapshot;
    yields (res, scale, diff) of each job."""
    dq = V._time_differences(traj, jobs, i)
    return V._residuals(traj, jobs, i, V.Snapshot(traj, i), dq)


def alive(refs) -> list:
    gc.collect()
    return [r for r in refs if r() is not None]
