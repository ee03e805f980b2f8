"""Shared fixtures: the reference configuration artifacts are expensive
(solves, kernel quadrature), so everything heavy is session-scoped.  They are
read from one cli.Lab of configs/reference.ini, so the tests judge the
objects the CLI builds; only off-reference runs are solved here.  A test
that only observes a run reads a Record of it, made once (recorded)."""

import functools
import gc
import sys
import weakref
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest

import prandtl_lab.cli as C
import prandtl_lab.cutoffs as CU
import prandtl_lab.grid as G
import prandtl_lab.norms as N
import prandtl_lab.profiles as P
import prandtl_lab.scipy_ext as E
import prandtl_lab.shear as S
import prandtl_lab.solver as SO
import prandtl_lab.verify as V

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.ini"
PACKAGE = Path(C.__file__).parent       # the source files of prandtl_lab
REF = C.load_config(CONFIG)


def sampled(grid, fn) -> G.Field:
    """The Field of fn(X, Y) on the grid's nodes (X, Y: their (Nx, Ny)
    meshgrid)."""
    X, Y = np.meshgrid(grid.x_nodes, grid.y_nodes, indexing="ij")
    return G.Field(grid, fn(X, Y))


@pytest.fixture(scope="session")
def lab():
    return C.Lab(REF)


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


@pytest.fixture
def fresh_extensions(monkeypatch):
    """A monkeypatch under which scipy_ext starts afresh: no extension loaded
    and no public route recorded; both, and the EXTENSIONS table, come back
    as they were."""
    monkeypatch.setattr(E, "_public", set())
    E.scipy_extension.cache_clear()
    yield monkeypatch
    E.scipy_extension.cache_clear()


def missing_extension(mp, key: str) -> None:
    """Point EXTENSIONS[key] at a module this scipy does not have, through
    mp (a MonkeyPatch, so that the entry comes back)."""
    subdir, _, name, public = E.EXTENSIONS[key]
    mp.setitem(E.EXTENSIONS, key, (subdir, "_no_such_module", name, public))


def _solve(u0_field, profile, scheme, nt, eps=REF.eps):
    """A whole picard or imex solve (another datum, Nt or eps) on the
    reference horizon and Picard settings: an imex solve's stream is listed,
    so that its nodes can be read in any order and more than once."""
    cfg = replace(REF, eps=eps, nt=nt).build()[2]
    if scheme == "picard":
        return SO.picard_solve(u0_field, profile, cfg)
    traj = SO.imex_solve(u0_field, profile, cfg)
    return replace(traj, u=list(traj.u))


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


def wall_levels(trajs, rep) -> dict:
    """The wall-trace maxima that verify.boundary_checks reduces, each
    trajectory walked alone (verify.walk), as run_verify walks the
    dy-refinement companion."""
    levels = {}
    for traj in trajs:
        levels.update(V.walk([traj], rep=rep)[1])
    return levels


@pytest.fixture(scope="session")
def traj_imex(u0, profile):
    """A whole imex solve at the reference Nt (_solve)."""
    return _solve(u0, profile, "imex", REF.nt)


@pytest.fixture(scope="session")
def traj_picard(lab):
    """The Lab's configured solve, holding its fields in a list of its own:
    the Lab's pass over the solve (picard_raws) drops the Lab's."""
    return replace(lab.traj, u=list(lab.traj.u))


@pytest.fixture(scope="session")
def picard_raws(lab, traj_picard):
    """The seminorm rows of the Lab's table of traj_picard, formed once
    traj_picard holds its fields."""
    return lab.table.raws


def seminorm_table(traj, cut, p) -> list:
    """norms.full_raw of a whole trajectory at every stored time, with its
    shear state there: the seminorm rows of a Lab's table."""
    return [N.full_raw(u, S.evolve_shear(traj.profile, float(t)), cut, p)
            for u, t in zip(traj.u, traj.times)]


def condition_report(traj, rep, p):
    """verify.condi_monitor of a whole trajectory's condition rows, as a Lab's
    table holds them."""
    return V.condi_monitor([V.condition_row(traj, i, rep, p) for i in range(len(traj.times))],
                           traj.times)


@pytest.fixture(scope="session")
def traj_fine(lab):
    """A whole imex solve on the dy-refinement companion, lab.fine."""
    return _solve(lab.fine.u0, lab.fine.profile, "imex", REF.nt)


@pytest.fixture(scope="session")
def eps_family(u0, profile):
    """imex runs at eps = 0.2, 0.1, 0.05 (the 0.1 member reuses the ladder)."""
    return {0.2: _solve(u0, profile, "imex", REF.nt, eps=0.2),
            0.05: _solve(u0, profile, "imex", REF.nt, eps=0.05)}


@dataclass
class Built:
    """One verify.Snapshot built under track_snapshots."""
    ref: weakref.ref
    ny: int                     # its grid's Ny
    others: int                 # tracked Snapshots alive as it was built
    at: int                     # events recorded before it was built
    holds: object = None        # what track_snapshots' holds() returned as it was built
    formed: set = field(default_factory=set)    # its instance members, once it has died


def track_snapshots(mp, events=(), holds=lambda: None) -> list:
    """Patch verify.Snapshot through mp (a MonkeyPatch) with a subclass that
    records a Built of each Snapshot, in build order, holds() read as it is
    built; returns that list."""
    built, index = [], {}

    class Tracked(V.Snapshot):
        def __init__(self, traj, i):
            others = sum(b.ref() is not None for b in built)
            held = holds()
            super().__init__(traj, i)
            index[id(self)] = len(built)
            built.append(Built(weakref.ref(self), traj.grid.Ny, others, len(events), held))

        def __del__(self):
            if (k := index.pop(id(self), None)) is not None:
                built[k].formed.update(vars(self))

    mp.setattr(V, "Snapshot", Tracked)
    return built


@pytest.fixture
def snapshots(monkeypatch):
    """A Built of every verify.Snapshot built during the test."""
    return track_snapshots(monkeypatch)


@dataclass
class Solve:
    """One solve made during a recorded run."""
    scheme: str
    ny: int
    nt: int
    streamed: bool
    ref: weakref.ref            # to the Trajectory
    at: int                     # events recorded before it was made
    before: list                # per earlier solve, as it started: holds()
    nodes: list = field(default_factory=list)   # weak references to the fields handed out
    held: list = field(default_factory=list)    # holds() as each node is handed out; whole: once
    reads: list = field(default_factory=list)   # whole: (node, events before it) per read
    #                                             during the run

    def holds(self):
        """None if the trajectory is freed, else how many of its nodes it holds."""
        if (traj := self.ref()) is None:
            return None
        return (sum(r() is not None for r in self.nodes) if self.streamed
                else len(traj.u) - traj.u.count(None))

    def watch(self, fields):
        for f in fields:
            self.nodes.append(weakref.ref(f.values))
            self.held.append(sum(r() is not None for r in self.nodes))
            yield f


class _ReadNodes(list):
    """A whole solve's node list that, while rec's run lasts, records in
    reads (node, events before it) as each node is read, by index or in a
    loop."""

    def __init__(self, fields, reads: list, rec):
        super().__init__(fields)
        self.reads, self.rec = reads, rec

    def __getitem__(self, i):
        if isinstance(i, int) and self.rec.code is None:
            self.reads.append((range(len(self))[i], len(self.rec.events)))
        return super().__getitem__(i)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass
class Record:
    """What one cli.run did (recorded)."""
    out: Path                   # its output directory
    code: int | None = None     # its exit code
    lab: C.Lab | None = None    # the Lab that run_verify read
    reports: list | None = None     # and the reports it returned
    held: list | None = None    # Solve.holds() of each solve as run_verify started
    solves: list = field(default_factory=list)      # a Solve per solve, in order
    snapshots: list = field(default_factory=list)   # a Built per verify.Snapshot, with
    #                     holds: Solve.holds() of each solve made by then
    events: list = field(default_factory=list)      # ("stage", name) as a stage ends,
    #                     ("mark", check) and ("release", None) (_release_free_pages)
    calls: list = field(default_factory=list)       # (key, events before it) per counted call
    called: set = field(default_factory=set)        # code objects of src/ that the run called

    @property
    def marks(self) -> list:
        return [name for kind, name in self.events if kind == "mark"]

    def during(self, at: int) -> str:
        """The stage or check during which what was recorded at `at` happened."""
        return next(name for kind, name in self.events[at:] if kind != "release")


# the functions a Record counts, by name (and evolve_shear and the shear
# quadrature by their keys, _record)
_COUNTED = (SO.heat_propagate, SO.mild_solution, G.dx_m_spec, G.dy_j, N.full_raw,
            V.condi_monitor, P.check_compatibility, P.validate_assumption)


def _record(cfg, subcommand: str, out: Path) -> Record:
    """cli.run(cfg, subcommand) into out, recorded: each solve made (a whole
    solve's node reads too), every Snapshot built, the events, the counted
    calls (_COUNTED, evolve_shear by its state, the shear quadrature by its
    state and block of orders, and AuxWorkspace constructions, each
    function at every binding the package holds), what run_verify read and
    returned and what the solves held as it started and as each Snapshot was
    built, and the code objects of the package's files that the run called
    (a sys.setprofile hook).  The run starts as the CLI's process does, with
    no profile (and so no shear state) cached and no scipy extension loaded.
    The patches last for this run only."""
    rec = Record(out)
    with pytest.MonkeyPatch.context() as mp:
        def everywhere(fn, wrapper):
            for mod in [m for name, m in sys.modules.items() if name.startswith("prandtl_lab")]:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        mp.setattr(mod, attr, wrapper)

        def counted(fn, key=None):
            return lambda *a, **kw: rec.calls.append(
                (key(*a) if key else fn.__name__, len(rec.events))) or fn(*a, **kw)

        def solving(fn):
            def wrapper(u0, profile, sc, *args, **kw):
                before = [s.holds() for s in rec.solves]
                traj = fn(u0, profile, sc, *args, **kw)
                rec.solves.append(solve := Solve(
                    traj.scheme, u0.grid.Ny, sc.Nt, not isinstance(traj.u, list),
                    weakref.ref(traj), len(rec.events), before))
                if solve.streamed:
                    traj.u = solve.watch(traj.u)
                else:
                    traj.u = _ReadNodes(traj.u, solve.reads, rec)
                    solve.held.append(solve.holds())
                return traj
            return wrapper

        def verify(lab, outdir, mark):
            rec.held = [s.holds() for s in rec.solves]
            rec.lab, rec.reports = lab, run_verify(lab, outdir, mark)
            return rec.reports

        for fn in _COUNTED:
            everywhere(fn, counted(fn))
        everywhere(S.evolve_shear, counted(S.evolve_shear, lambda p, t: ("shear", p.grid.Ny, t)))
        everywhere(S._quadrature_rows, counted(S._quadrature_rows,
                                               lambda p, t, j0, j1: ("rows", p.grid.Ny, t, j0, j1)))
        for fn in (SO.imex_solve, SO.picard_solve):
            everywhere(fn, solving(fn))
        mp.setattr(CU.AuxWorkspace, "__init__",        # a Snapshot's too
                   counted(CU.AuxWorkspace.__init__, lambda *a: "AuxWorkspace"))
        rec.snapshots = track_snapshots(mp, rec.events, lambda: [s.holds() for s in rec.solves])
        mark, end, release, run_verify = (C._StageClock.mark, C._StageClock.end,
                                          C._release_free_pages, C.run_verify)
        mp.setattr(C._StageClock, "mark", lambda clock, check:
                   rec.events.append(("mark", check)) or mark(clock, check))
        mp.setattr(C._StageClock, "end", lambda clock, stage=None:
                   rec.events.append(("stage", clock.stage)) or end(clock, stage))
        mp.setattr(C, "_release_free_pages",
                   lambda: rec.events.append(("release", None)) or release())
        mp.setattr(C, "run_verify", verify)
        mp.setattr(P, "_profile_cache", {})
        mp.setattr(E, "scipy_extension", functools.cache(E.scipy_extension.__wrapped__))
        codes, previous = set(), sys.getprofile()
        sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
        try:
            rec.code = C.run(cfg, subcommand, out_dir=out)
        finally:
            sys.setprofile(previous)
    rec.called = {code for code in codes if Path(code.co_filename).parent == PACKAGE}
    return rec


@pytest.fixture(scope="session")
def recorded(tmp_path_factory):
    """recorded(cfg, subcommand="verify"): the Record of cli.run(cfg,
    subcommand), made once per session for each configuration.  Ask for it
    before the test patches anything, or the record sees the patches."""
    records = {}

    def get(cfg, subcommand="verify"):
        if (key := (subcommand, repr(cfg))) not in records:
            records[key] = _record(cfg, subcommand, tmp_path_factory.mktemp(subcommand))
        return records[key]
    return get


def evaluate_at(traj, jobs, i):
    """verify's residual frame at node i of a whole trajectory, in walk's
    order: the neighbours' time differences, then the centre snapshot;
    yields (res, scale, diff) of each job, in job order."""
    dq = V._time_differences(traj, jobs, i)
    s0 = V.Snapshot(traj, i)
    return (V._residual(traj, jobs, k, i, s0, dq) for k in range(len(jobs)))


def alive(refs) -> list:
    gc.collect()
    return [r for r in refs if r() is not None]
