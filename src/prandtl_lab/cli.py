"""Configuration loading, experiment orchestration, and report emission.

Runs are driven by an INI config with one section per module block.  The
schema is RunConfig itself: each field names its section (and its key, when
that is not the field's name) in its metadata and is parsed by the type of
its default; any other section or key is rejected by name.  Each
bound is checked once, by the object that reads the value: the grid, Gevrey
parameters and solver config when the config is loaded, the profile and
perturbation when a Lab is built (exit 2 with a manifest); the error names
the INI section.  Non-finite numbers are rejected at load time.  Subcommands:

    shear-check   the enabled shear checks: assumption scan + persistence
    solve         one trajectory, saved as trajectory/trajectory.npz
    norms         norm time series CSV for a trajectory
    verify        the enabled certification checks
    full          solve, norms and verify

The configured Picard solve is read once, by the pass of Lab.table, after
the solve stage saved it; verify runs its checks in report order.

Exit codes: 0 all enabled checks pass, 1 check failure, 2 configuration
error (a cut-off set that does not fit the grid included), 3 solver
divergence, a field that overflowed to non-finite values, or a
cancellation-function denominator under its floor.  Exits 2 and 3 write a
manifest whose error object names the stage that raised: setup (loading
and building the Lab), shear-check, solve, norms or verify.  What varies
between reruns goes to run_log.json next to the manifest (_write_run).
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()     # before the imports below

import argparse
import configparser
import ctypes
import json
import math
import os
import platform
import resource
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .cutoffs import CutoffError, DenominatorFloorError, build_cutoffs
from .grid import Grid2D, NonFiniteError, linf
from .norms import GevreyParams, full_raw, gevrey_norm
from .profiles import (build_perturbation, build_shear_profile, check_compatibility,
                       validate_assumption)
from .scipy_ext import routes
from .shear import check_proposition_shear, evolve_shear, min_resolved_step
from .solver import SolverConfig, SolverDivergence, imex_solve, picard_solve
from . import verify as V


# the import of this module and of every module it loads that the process had
# not (numpy and scipy in a fresh process); paid once per process
_IMPORT = {"wall_s": time.perf_counter() - _IMPORT_START,
           "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


# glibc's malloc, else None.  By default glibc maps each block above a
# threshold that grows with the blocks freed and unmaps it on free, and hands
# the free top of its heap back, so a walk that forms and drops fields of
# 263 KB at every node faults the same pages in again at every node.  Fixed
# thresholds keep freed blocks for the next node: 32 MB for mmap (its largest
# value) and 64 MB for the trim.
_GLIBC = ctypes.CDLL(None) if platform.libc_ver()[0] == "glibc" else None
if _GLIBC is not None:
    _GLIBC.mallopt(-3, 32 << 20)        # M_MMAP_THRESHOLD
    _GLIBC.mallopt(-1, 64 << 20)        # M_TRIM_THRESHOLD


class _MallInfo2(ctypes.Structure):
    """glibc's struct mallinfo2 (malloc.h)."""
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


# glibc's mallinfo2 (glibc 2.33 on), else None
_MALLINFO2 = getattr(_GLIBC, "mallinfo2", None)
if _MALLINFO2 is not None:
    _MALLINFO2.restype = _MallInfo2


def _heap_mb() -> tuple:
    """(in use, held) by malloc, in MB; (None, None) without mallinfo2.  In
    use: the heap's blocks handed out and the mapped ones (mallinfo2's
    uordblks + hblkhd).  Held from the system: its arenas, free blocks
    included, and the mapped blocks (arena + hblkhd); under cli's trim
    threshold no arena shrinks but by _release_free_pages, so this is the
    heap's high-water mark since the last release."""
    if _MALLINFO2 is None:
        return None, None
    info = _MALLINFO2()
    return (info.uordblks + info.hblkhd) / 2**20, (info.arena + info.hblkhd) / 2**20


def _release_free_pages() -> None:
    """Hand the pages of the heap's free blocks back to the system
    (malloc_trim), so that what one run-log span left does not count toward
    the next one's peak.  Called by _StageClock alone, after each reading."""
    if _GLIBC is not None:
        _GLIBC.malloc_trim(0)


_ALL_CHECKS = ("assumption", "proposition", "compatibility", "cancellation",
               "residual_f", "residual_g", "residual_h", "boundary", "sobolev",
               "inequalities", "conditions", "energy", "radius", "contraction")


class ConfigError(ValueError):
    pass


def _ini(section: str, default, key=None):
    """A RunConfig field read from the INI key of its name (or key) in
    [section], parsed by the type of its default."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass
class RunConfig:
    nx: int = _ini("grid", 128)
    ny: int = _ini("grid", 257)
    lx: float = _ini("grid", 2.0 * np.pi)
    ymax: float = _ini("grid", 30.0)
    y0: float = _ini("profile", 2.0)
    alpha: float = _ini("profile", 2.0)
    amp: float = _ini("perturbation", 1e-3)
    kx: int = _ini("perturbation", 1)
    eps: float = _ini("solver", 0.1)
    t_final: float = _ini("solver", 0.05)
    nt: int = _ini("solver", 32)
    jmax: int = _ini("solver", 12)
    tol: float = _ini("solver", 1e-10)
    rho: float = _ini("norms", 0.3)
    rho_tilde: float = _ini("norms", 0.4)
    rho0: float = _ini("norms", 0.5)
    sigma: float = _ini("norms", 1.75)
    ell: float = _ini("norms", 2.25)
    mmax: int = _ini("norms", 10)
    checks: tuple = _ini("verify", _ALL_CHECKS)     # whitespace- or comma-separated
    out_dir: str = _ini("output", "out", key="dir")
    seed: int = _ini("output", 0)

    def validate(self) -> tuple:
        """Reject a configuration that cannot run; return build()'s grid,
        Gevrey parameters and solver config, which the Lab takes.  Each bound
        on one value is checked by the object that reads it: those three,
        and the profile and perturbation that a Lab makes.  Only the rules
        no object owns are written here."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.metadata['section']}.{f.name} must be finite, got {value}")
        grid, params, solver = self.build()
        if self.seed < 0:
            raise ConfigError(f"output.seed must be non-negative, got {self.seed}")
        if self.mmax > self.nx // 4:
            raise ConfigError("norms.mmax must not exceed nx/4 (anti-aliasing guard)")
        if not (0.0 < self.rho < self.rho_tilde < self.rho0):
            raise ConfigError("norms require 0 < rho < rho_tilde < rho0")
        for c in self.checks:
            if c not in _ALL_CHECKS:
                raise ConfigError(f"verify.checks contains unknown check '{c}'")
        # the shear state at the first step of the finest solve must be resolved;
        # each residual ladder level halves the step
        residual = {"residual_f", "residual_g", "residual_h"} & set(self.checks)
        with _owned_by("solver"):
            halvings = len(V.ladder_nts(self.nt)) - 1 if residual else 0
        dt = math.ldexp(self.t_final / self.nt, -halvings)
        if not dt >= min_resolved_step(grid):
            raise ConfigError(
                f"solver.t_final = {self.t_final!r} is too short: the finest time step "
                f"{dt:.3e} is under {min_resolved_step(grid):.3e}, the least step the "
                f"shear quadrature resolves")
        return grid, params, solver

    def build(self) -> tuple:
        """(grid, Gevrey parameters, solver config) of this configuration."""
        with _owned_by("grid"):
            grid = Grid2D(self.nx, self.ny, self.lx, self.ymax)
        with _owned_by("norms"):
            params = GevreyParams(rho=self.rho, sigma=self.sigma, ell=self.ell,
                                  alpha=self.alpha, Mmax=self.mmax)
        with _owned_by("solver"):
            solver = SolverConfig(eps=self.eps, T=self.t_final, Nt=self.nt,
                                  jmax=self.jmax, tol=self.tol)
        return grid, params, solver


@contextmanager
def _owned_by(section: str):
    """Report a bound that an object checks on its own input as a
    ConfigError naming the INI section the input comes from."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Parse and validate an INI run configuration.

    Unknown sections (a [DEFAULT] one included) or keys, values that do
    not parse, and a file that does not parse as UTF-8 INI are rejected
    naming the file; values are read literally (no % interpolation).
    Constraint violations carry the violated bound in the message.
    """
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file not found or unreadable: {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    known = {(f.metadata["section"], f.metadata["key"] or f.name): f for f in fields(RunConfig)}
    cfg = RunConfig()
    for section in parser.sections():
        if section not in {s for s, _ in known}:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        for key, raw in parser.items(section):
            if (f := known.get((section, key))) is None:
                raise ConfigError(f"{path}: unknown key '{key}' in section [{section}]")
            typ = type(f.default)
            try:
                value = tuple(raw.replace(",", " ").split()) if typ is tuple else typ(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: cannot parse {raw!r}") from exc
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


class SolveTable(NamedTuple):
    """What the norms stage and the checks read of the configured solve."""
    times: np.ndarray
    contraction: list       # the Picard update norms
    raws: list              # per node, norms.full_raw
    conditions: list        # per node, verify.condition_row; none with that check off


class Lab:
    """Shared artifacts for one configuration.  The profile and u0 are built
    at once, so every input rule is checked when the Lab is made; the rest is
    built on first read.  The Lab keeps what several stages read: the
    profile, u0, the assumption report, the datum's compatibility report,
    the cut-offs, the configured solve (traj) and its table, and the
    dy-refinement companion.  Every other solve belongs to the check that
    reads it (check_solve) and lives with that check's caller."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.grid, self.params, self.solver = cfg.validate()
        with _owned_by("profile"):
            self.profile = build_shear_profile(self.grid, cfg.y0, cfg.alpha)
        with _owned_by("perturbation"):
            self.u0 = build_perturbation(self.grid, cfg.amp, cfg.kx, self.profile)

    @cached_property
    def report(self):
        """validate_assumption of the profile: the shear checks, the cut-offs
        and the checks' hypotheses read it."""
        return validate_assumption(self.profile)

    @cached_property
    def compatibility(self):
        """check_compatibility of u0: the solve's warning and the solve and
        compatibility reports read it."""
        return check_compatibility(self.u0, self.profile)

    @cached_property
    def cut(self):
        return build_cutoffs(self.grid, self.report.y0, self.report.delta)

    @cached_property
    def traj(self):
        """The configured solve, Picard at cfg.nt with every node: run_solve
        saves it, and table reads its fields once and drops them.  A datum
        that misses the third wall compatibility condition by more than
        1e-6 (1 + max|u0|) is warned of first."""
        if (third := self.compatibility.res_third) > 1e-6 * (1.0 + linf(self.u0)):
            warnings.warn(f"initial datum violates the third wall compatibility condition "
                          f"by {third:.2e}; wall traces of the solution will be rough")
        return picard_solve(self.u0, self.profile, self.solver)

    def check_solve(self, nt: int):
        """An imex solve at nt steps whose fields are streamed (Trajectory):
        the residual and boundary checks read each node once, in time order,
        through verify.walk, which keeps three at a time; never kept."""
        return imex_solve(self.u0, self.profile, replace(self.solver, Nt=nt))

    @cached_property
    def table(self) -> SolveTable:
        """The one pass over traj's nodes, which then keeps no field (a later
        read fails); the clock's next reading sees its peak, and then its
        pages go back.  run_norms and every check of traj read this table,
        so no field outlives the first of them."""
        traj, with_conditions = self.traj, "conditions" in self.cfg.checks
        raws, conditions = [], []
        for i, t in enumerate(traj.times):
            raws.append(full_raw(traj.u[i], evolve_shear(self.profile, float(t)), self.cut,
                                 self.params))
            if with_conditions:
                conditions.append(V.condition_row(traj, i, self.report, self.params))
        traj.u[:] = [None] * len(traj.u)
        return SolveTable(traj.times, traj.contraction, raws, conditions)

    @cached_property
    def fine(self) -> Lab:
        """The dy-refinement companion: this configuration at Ny = 2 Ny - 1
        (every coarse node kept), with no checks of its own.  Only the
        boundary check reads it, through its check_solve."""
        return Lab(replace(self.cfg, ny=2 * self.cfg.ny - 1, checks=()))


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))


def _emit(outdir: Path, *reports) -> list:
    """Write each report (a V.CheckReport or V.ResidualReport) to
    <name>.json; returns their dicts."""
    out = [r.to_dict() for r in reports]
    for d in out:
        _write_json(outdir / f"{d['name']}.json", d)
    return out


def run_shear_check(lab: Lab, outdir: Path) -> list:
    """The enabled shear checks' reports.  Either brings the assumption
    report (the proposition's precondition, so a failing assumption is never
    silent); the persistence scan runs only when proposition is enabled and
    the assumption holds."""
    enabled = set(lab.cfg.checks)
    if not {"assumption", "proposition"} & enabled:
        return []
    rep = lab.report
    reports = [V.CheckReport("assumption", rep.all_pass, rep.to_dict())]
    if "proposition" in enabled and rep.all_pass:
        prop = check_proposition_shear(lab.profile, rep)
        reports.append(V.CheckReport("proposition", prop.ok, prop.to_dict()))
    return _emit(outdir, *reports)


def run_solve(lab: Lab, outdir: Path) -> list:
    traj = lab.traj
    traj.save(outdir / "trajectory")
    return _emit(outdir, V.CheckReport("solve", True, {
        "scheme": traj.scheme, "times": len(traj.times),
        "contraction": [float(c) for c in traj.contraction],
        "compatibility": lab.compatibility.to_dict()}))


def run_norms(lab: Lab, outdir: Path) -> list:
    rows = ["t,gevrey_norm,full_norm"]
    for t, raw in zip(lab.table.times, lab.table.raws):
        base = gevrey_norm(raw, lab.params)
        ext = gevrey_norm(raw, lab.params, with_aux=True)
        rows.append(f"{float(t)!r},{base!r},{ext!r}")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "norms.csv").write_text("\n".join(rows) + "\n")
    return _emit(outdir, V.CheckReport("norms", True, {"rows": len(rows) - 1}))


def run_verify(lab: Lab, outdir: Path, mark=lambda check: None) -> list:
    """The enabled checks' reports, each written to <name>.json, in report
    order; mark(name) is called as each check ends (the shear checks are one
    check, and so is the residual ladder).  The checks of the configured
    solve come last and reduce lab.table.  Every other solve is made here
    and dies with its check, read once by verify.walk: the residual
    ladder's levels in one lockstep walk, then the boundary companion's
    solve."""
    cfg = lab.cfg
    reports = []

    def add(*check_reports, check=None):
        """Write the reports of one check and mark its end (check: the
        report's name by default)."""
        reports.extend(_emit(outdir, *check_reports))
        mark(check or reports[-1]["name"])

    enabled = set(cfg.checks)
    kinds = {c.removeprefix("residual_") for c in enabled if c.startswith("residual_")}
    if shear := run_shear_check(lab, outdir):
        reports += shear
        mark("shear-check")
    if "compatibility" in enabled:
        cr = lab.compatibility
        tol = 1e-8 * max(cfg.amp, 1e-300)
        worst = max(cr.res_value, cr.res_dyomega, cr.res_third)
        add(V.CheckReport("compatibility", worst <= tol, {**cr.to_dict(), "tolerance": tol}))
    if "cancellation" in enabled:
        add(V.cancellation_check(lab.u0, evolve_shear(lab.profile, 0.0), lab.cut, lab.report))
    if kinds or "boundary" in enabled:
        # one walk: the residual ladder's levels in lockstep, the first also
        # the boundary check's coarse level
        jobs = V.residual_jobs(lab.grid, lab.report, lab.cut, kinds)
        rows, coarse = V.walk(map(lab.check_solve, V.ladder_nts(cfg.nt) if kinds else [cfg.nt]),
                              jobs, lab.report if "boundary" in enabled else None)
        if kinds:
            add(*(V.residual_report(job, levels) for job, levels in zip(jobs, rows)),
                check="residual_ladder")
    if "boundary" in enabled:
        # the wall-trace orders need the dy-refinement companion
        _, fine = V.walk([lab.fine.check_solve(cfg.nt)], rep=lab.report)
        add(V.boundary_checks({**coarse, **fine}))
    if "sobolev" in enabled:
        add(V.sobolev_check(lab.grid, seed=cfg.seed))
    if "inequalities" in enabled:
        add(V.inequality_suite())
    if "conditions" in enabled:
        add(V.condi_monitor(lab.table.conditions, lab.table.times))
    c_star = 1.0
    if "energy" in enabled:
        add(em := V.energy_monitor(lab.table.raws, lab.table.times, lab.params,
                                   (cfg.rho, cfg.rho_tilde)))
        c_star = max(1.0, em.evidence["C_max"] or 1.0)
    if "radius" in enabled:
        add(V.radius_decay_check(lab.table.raws, lab.table.times, lab.params, cfg.rho0, c_star))
    if "contraction" in enabled:
        add(V.picard_contraction_check(lab.table))
    return reports


# exit code and label of each error that ends a run without reports
_ERROR_EXITS = ((ConfigError, 2, "configuration error"),
                (CutoffError, 2, "configuration error"),
                (SolverDivergence, 3, "solver divergence"),
                (NonFiniteError, 3, "numerical overflow"),
                (DenominatorFloorError, 3, "denominator floor"))


class _StageClock:
    """Wall seconds, process CPU seconds (user and system) and minor page
    faults of each stage of one run, and when the stage ends the process's
    ru_maxrss (MB; Linux reports KiB) and malloc's heap in use and held
    (_heap_mb: heap_in_use_mb, heap_high_water_mb, the largest of its own
    and its checks'); likewise of each check a stage marks, listed under the
    stage's "checks".  Each mark and stage end is one reading, after which
    the heap's free pages go back (_release_free_pages), so each span's
    high water is its own."""

    def __init__(self):
        self.stage, self.spans, self.checks = "setup", [], []
        self._start = self._last = self._now()

    @staticmethod
    def _now() -> tuple:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return (time.perf_counter(), ru.ru_utime + ru.ru_stime, ru.ru_minflt,
                ru.ru_maxrss / 1024, *_heap_mb())

    @classmethod
    def _read(cls, start: tuple) -> tuple:
        """(now, the span since start), read before the free pages go back."""
        now = cls._now()
        _release_free_pages()
        return now, {"wall_s": now[0] - start[0], "cpu_s": now[1] - start[1],
                     "ru_minflt": now[2] - start[2], "ru_maxrss_mb": now[3],
                     "heap_in_use_mb": now[4], "heap_high_water_mb": now[5]}

    def mark(self, check: str) -> None:
        """Close one check of the current stage."""
        self._last, span = self._read(self._last)
        self.checks.append({"check": check, **span})

    def end(self, next_stage=None) -> None:
        """Close the current stage and open next_stage."""
        now, span = self._read(self._start)
        if now[5] is not None:
            span["heap_high_water_mb"] = max([now[5], *(c["heap_high_water_mb"]
                                                        for c in self.checks)])
        self.spans.append({"stage": self.stage, **span,
                           **({"checks": self.checks} if self.checks else {})})
        self.stage, self.checks, self._start, self._last = next_stage, [], now, now


def _write_run(outdir: Path, manifest: dict, clock: _StageClock) -> None:
    """manifest.json, and next to it run_log.json: the import span of this
    module (_IMPORT), the stage timings and the environment, which vary
    between reruns and so stay out of the manifest."""
    _write_json(outdir / "manifest.json", manifest)
    _write_json(outdir / "run_log.json", {
        "import": _IMPORT,
        "stages": clock.spans,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__, **routes(),
                        "cpu_count": os.cpu_count(),
                        **{k: os.environ.get(k)
                           for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}})


def run(cfg: RunConfig, subcommand: str, out_dir=None) -> int:
    """Execute one subcommand; returns the process exit code.

    Every exit writes manifest.json and run_log.json; exits 2 and 3 record
    no reports and an error object instead, naming the stage that raised."""
    outdir = Path(out_dir if out_dir is not None else cfg.out_dir)
    manifest = {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in vars(cfg).items()},
        "versions": {"prandtl_lab": __version__, "numpy": np.__version__},
    }
    clock = _StageClock()
    # looked up per call, so that a wrapped stage function is the one run
    stages = {"shear-check": run_shear_check, "solve": run_solve, "norms": run_norms,
              "verify": lambda lab, outdir: run_verify(lab, outdir, clock.mark)}
    try:
        if subcommand != "full" and subcommand not in stages:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        lab = Lab(cfg)
        reports = []
        for stage in ("solve", "norms", "verify") if subcommand == "full" else (subcommand,):
            clock.end(stage)
            reports += stages[stage](lab, outdir)
        clock.end()
    except tuple(exc for exc, _, _ in _ERROR_EXITS) as exc:
        code, label = next((c, lbl) for e, c, lbl in _ERROR_EXITS if isinstance(exc, e))
        print(f"{label}: {exc}", file=sys.stderr)
        manifest["reports"] = []
        manifest["error"] = {"exit_code": code, "kind": type(exc).__name__,
                             "message": str(exc), "stage": clock.stage}
        clock.end()
        _write_run(outdir, manifest, clock)
        return code

    manifest["reports"] = [{"name": r["name"], "pass": bool(r["pass"]),
                            "evidence": r.get("evidence", {})} for r in reports]
    _write_run(outdir, manifest, clock)
    ok = all(r["pass"] for r in reports)
    for r in reports:
        print(f"[{'PASS' if r['pass'] else 'FAIL'}] {r['name']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="prandtl-lab",
                                 description="boundary-layer verification laboratory")
    ap.add_argument("subcommand", choices=["shear-check", "solve", "norms", "verify", "full"])
    ap.add_argument("--config", required=False, help="INI configuration file")
    ap.add_argument("--out", default=None, help="output directory (overrides config)")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(cfg, args.subcommand, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
