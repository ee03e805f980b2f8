"""Configuration loading, experiment orchestration, and report emission.

Runs are driven by an INI config with one section per module block; every
cross-field constraint is re-validated at load time with the responsible
bound named in the error.  Subcommands:

    shear-check   assumption scan + persistence certification
    solve         one trajectory, saved as trajectory/trajectory.npz
    norms         norm time series CSV for a trajectory
    verify        the enabled certification checks
    full          all of the above

Exit codes: 0 all enabled checks pass, 1 check failure, 2 configuration
error, 3 solver divergence.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .cutoffs import build_cutoffs
from .grid import Grid2D
from .norms import GevreyParams, _report_from_raw, trajectory_raws
from .profiles import build_perturbation, build_shear_profile, check_compatibility, validate_assumption
from .shear import check_proposition_shear, evolve_shear
from .solver import SolverConfig, SolverDivergence, imex_solve, picard_solve
from . import verify as V

_ALL_CHECKS = ("assumption", "proposition", "compatibility", "cancellation",
               "residual_f", "residual_g", "residual_h", "boundary", "sobolev",
               "inequalities", "conditions", "energy", "radius", "contraction")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    nx: int = 128
    ny: int = 257
    lx: float = 2.0 * np.pi
    ymax: float = 30.0
    y0: float = 2.0
    alpha: float = 2.0
    amp: float = 1e-3
    kx: int = 1
    eps: float = 0.1
    t_final: float = 0.05
    nt: int = 32
    jmax: int = 12
    tol: float = 1e-10
    scheme: str = "picard"
    rho: float = 0.3
    rho_tilde: float = 0.4
    rho0: float = 0.5
    sigma: float = 1.75
    ell: float = 2.25
    mmax: int = 10
    checks: tuple = _ALL_CHECKS
    residual_levels: int = 3
    snapshot_stride: int = 1
    out_dir: str = "out"
    seed: int = 0

    def validate(self) -> None:
        if self.nx < 4 or (self.nx & (self.nx - 1)) != 0:
            raise ConfigError("grid.nx must be a power of two (transform efficiency)")
        if self.ny < 32:
            raise ConfigError("grid.ny must be at least 32")
        if not (0.0 < self.y0 < self.ymax / 3.0):
            raise ConfigError("profile.y0 must lie in (0, Ymax/3)")
        if self.alpha <= 1.0:
            raise ConfigError("profile.alpha must exceed 1 (two-sided decay exponent)")
        if self.kx < 1 or self.kx > self.nx // 8:
            raise ConfigError("perturbation.kx must lie in [1, nx/8]")
        if self.amp < 0.0:
            raise ConfigError("perturbation.amp must be non-negative")
        if not (0.0 < self.eps <= 1.0):
            raise ConfigError("solver.eps must lie in (0, 1]")
        if self.nt < 4:
            raise ConfigError("solver.nt must be at least 4")
        if self.jmax < 2:
            raise ConfigError("solver.jmax must be at least 2")
        if self.scheme not in ("picard", "imex"):
            raise ConfigError("solver.scheme must be 'picard' or 'imex'")
        if not (1.5 <= self.sigma <= 2.0):
            raise ConfigError("norms.sigma must lie in [1.5, 2] (Gevrey index range "
                              "of the well-posedness statement)")
        if not (self.ell > 1.5):
            raise ConfigError("norms.ell must exceed 3/2")
        if not (self.alpha <= self.ell < self.alpha + 0.5):
            raise ConfigError("norms.ell must satisfy alpha <= ell < alpha + 1/2 "
                              "(weight-exponent window)")
        if self.mmax < 7 or self.mmax > self.nx // 4:
            raise ConfigError("norms.mmax must satisfy 7 <= mmax <= nx/4 "
                              "(anti-aliasing guard)")
        if not (0.0 < self.rho < self.rho_tilde < self.rho0):
            raise ConfigError("norms require 0 < rho < rho_tilde < rho0")
        for c in self.checks:
            if c not in _ALL_CHECKS:
                raise ConfigError(f"verify.checks contains unknown check '{c}'")
        if self.snapshot_stride < 1:
            raise ConfigError("verify.snapshot_stride must be positive")
        if self.residual_levels < 1:
            raise ConfigError("verify.residual_levels must be positive")
        if {"residual_f", "residual_g", "residual_h"} & set(self.checks) and self.nt % 8:
            raise ConfigError("solver.nt must be a multiple of 8 when a residual check is "
                              "enabled (every ladder level is evaluated at 3T/8, 5T/8, 7T/8)")


_SCHEMA = {
    "grid": {"nx": int, "ny": int, "lx": float, "ymax": float},
    "profile": {"y0": float, "alpha": float},
    "perturbation": {"amp": float, "kx": int},
    "solver": {"eps": float, "t_final": float, "nt": int, "jmax": int,
               "tol": float, "scheme": str},
    "norms": {"rho": float, "rho_tilde": float, "rho0": float, "sigma": float,
              "ell": float, "mmax": int},
    "verify": {"checks": "list", "residual_levels": int, "snapshot_stride": int},
    "output": {"dir": str, "seed": int},
}
_KEY_MAP = {("output", "dir"): "out_dir"}


def load_config(path) -> RunConfig:
    """Parse and validate an INI run configuration.

    Unknown sections or keys are rejected by name; constraint violations
    carry the violated bound in the message.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found or unreadable: {path}")
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            typ = _SCHEMA[section][key]
            attr = _KEY_MAP.get((section, key), key)
            if typ == "list":
                value = tuple(tok.strip() for tok in raw.replace(",", " ").split() if tok.strip())
            else:
                try:
                    value = typ(raw)
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
            setattr(cfg, attr, value)
    cfg.validate()
    return cfg


class Lab:
    """Shared artifacts for one configuration (built lazily, cached)."""

    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        self.grid = Grid2D(cfg.nx, cfg.ny, cfg.lx, cfg.ymax)
        try:
            self.profile = build_shear_profile(self.grid, cfg.y0, cfg.alpha)
        except ValueError as exc:
            raise ConfigError(f"profile: {exc}") from exc
        self.report = validate_assumption(self.profile)
        self.params = GevreyParams(rho=cfg.rho, sigma=cfg.sigma, ell=cfg.ell,
                                   alpha=cfg.alpha, Mmax=cfg.mmax)
        self._trajs = {}

    @cached_property
    def u0(self):
        return build_perturbation(self.grid, self.cfg.amp, self.cfg.kx, self.profile)

    @cached_property
    def cut(self):
        return build_cutoffs(self.grid, self.report.y0, self.report.delta)

    def trajectory(self, scheme=None, nt=None):
        scheme = scheme or self.cfg.scheme
        nt = nt or self.cfg.nt
        key = (scheme, nt)
        if key not in self._trajs:
            sc = SolverConfig(eps=self.cfg.eps, T=self.cfg.t_final, Nt=nt,
                              jmax=self.cfg.jmax, tol=self.cfg.tol, scheme=scheme)
            solve = picard_solve if scheme == "picard" else imex_solve
            self._trajs[key] = solve(self.u0, self.profile, sc)
        return self._trajs[key]

    @cached_property
    def raws(self):
        """norms.trajectory_raws of trajectory(): the seminorms that
        run_norms and the energy and radius checks read."""
        return trajectory_raws(self.trajectory(), self.cut, self.params)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))


def run_shear_check(lab: Lab, outdir: Path) -> list:
    rep = lab.report
    prop = check_proposition_shear(lab.profile, rep) if rep.all_pass else None
    reports = [{"name": "assumption", "pass": rep.all_pass, "evidence": rep.to_dict()}]
    if prop is not None:
        reports.append({"name": "proposition", "pass": prop.ok and prop.T_s >= 0.1,
                        "evidence": prop.to_dict()})
    for r in reports:
        _write_json(outdir / f"{r['name']}.json", r)
    return reports


def run_solve(lab: Lab, outdir: Path) -> list:
    traj = lab.trajectory()
    traj.save(outdir / "trajectory")
    cr = check_compatibility(lab.u0, lab.profile)
    rep = {"name": "solve", "pass": True,
           "evidence": {"scheme": traj.scheme, "times": len(traj.times),
                        "contraction": [float(c) for c in traj.contraction],
                        "compatibility": cr.to_dict()}}
    _write_json(outdir / "solve.json", rep)
    return [rep]


def run_norms(lab: Lab, outdir: Path) -> list:
    traj = lab.trajectory()
    cfg = lab.cfg
    rows = ["t,gevrey_norm,full_norm,lifespan_running"]
    running = 0.0
    lam = 1.0   # display convention: unit radius-shrink rate for the series
    for t, raw in zip(traj.times[::cfg.snapshot_stride], lab.raws[::cfg.snapshot_stride]):
        base = _report_from_raw(raw, lab.params, with_aux=False).total
        ext = _report_from_raw(raw, lab.params, with_aux=True).total
        if cfg.rho0 - lam * t > 0:
            w = np.sqrt((cfg.rho0 - cfg.rho - lam * t) / (cfg.rho0 - cfg.rho)) \
                if cfg.rho0 - cfg.rho - lam * t > 0 else 0.0
            running = max(running, w * ext)
        rows.append(f"{t!r},{base!r},{ext!r},{running!r}")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "norms.csv").write_text("\n".join(rows) + "\n")
    rep = {"name": "norms", "pass": True, "evidence": {"rows": len(rows) - 1}}
    _write_json(outdir / "norms.json", rep)
    return [rep]


def run_verify(lab: Lab, outdir: Path) -> list:
    cfg = lab.cfg
    reports = []

    def add(check_report):
        d = check_report.to_dict() if hasattr(check_report, "to_dict") else check_report
        reports.append(d)
        _write_json(outdir / f"{d['name']}.json", d)

    enabled = set(cfg.checks)
    if "assumption" in enabled or "proposition" in enabled:
        for r in run_shear_check(lab, outdir):
            if r["name"] in enabled:
                reports.append(r)
    if "compatibility" in enabled:
        cr = check_compatibility(lab.u0, lab.profile)
        tol = 1e-8 * max(cfg.amp, 1e-300)
        add({"name": "compatibility",
             "pass": max(cr.res_value, cr.res_dyomega, cr.res_third) <= tol,
             "evidence": {**cr.to_dict(), "tolerance": tol}})
    if "cancellation" in enabled:
        add(V.cancellation_check(lab.u0, evolve_shear(lab.profile, 0.0), lab.cut, lab.report))
    if {"residual_f", "residual_g", "residual_h"} & enabled:
        nts = [cfg.nt * 2**k for k in range(cfg.residual_levels)]
        trajs = [lab.trajectory("imex", nt) for nt in nts]
        cutf = V.wide_f_cutoffs(lab.grid, lab.report)
        jobs = [job for m in (1, 2, 3)
                for job in (V.ResidualJob("f", m, cutf), V.ResidualJob("g", m),
                            V.ResidualJob("h", m, lab.cut))
                if f"residual_{job.kind}" in enabled]
        rows = V.evaluate_residuals(trajs, jobs)
        study = {"f": V.residual_f, "g": V.residual_g, "h": V.residual_h}
        for job, job_rows in zip(jobs, rows):
            add(study[job.kind](trajs, job.m, job_rows))
        del rows, job_rows     # free the residual fields before the boundary companion
    if "boundary" in enabled:
        # wall-trace orders need a dy-refinement companion
        fine = RunConfig(**{**vars(cfg), "ny": 2 * cfg.ny - 1,
                            "checks": (), "out_dir": cfg.out_dir})
        lab_fine = Lab(fine)
        add(V.boundary_checks([lab.trajectory("imex", cfg.nt),
                               lab_fine.trajectory("imex", cfg.nt)], lab.report))
    if "sobolev" in enabled:
        add(V.sobolev_check(lab.grid, seed=cfg.seed))
    if "inequalities" in enabled:
        add(V.inequality_suite())
    traj = lab.trajectory() if {"conditions", "energy", "radius", "contraction"} & enabled else None
    if "conditions" in enabled:
        add(V.condi_monitor(traj, lab.report, lab.params))
    c_star = 1.0
    if "energy" in enabled:
        em = V.energy_monitor(lab.raws, traj.times, lab.params, (cfg.rho, cfg.rho_tilde))
        c_star = max(1.0, em.evidence.get("C_max") or 1.0)
        add(em)
    if "radius" in enabled:
        add(V.radius_decay_check(lab.raws, traj.times, lab.params, cfg.rho0, c_star))
    if "contraction" in enabled:
        ptraj = lab.trajectory("picard", cfg.nt)
        add(V.picard_contraction_check(ptraj))
    return reports


def run(cfg: RunConfig, subcommand: str, out_dir=None) -> int:
    """Execute one subcommand; returns the process exit code.

    Every exit writes manifest.json; exits 2 and 3 record no reports and
    an error object instead."""
    outdir = Path(out_dir if out_dir is not None else cfg.out_dir)
    manifest = {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in vars(cfg).items()},
        "versions": {"prandtl_lab": __version__, "numpy": np.__version__},
    }
    try:
        lab = Lab(cfg)
        if subcommand == "shear-check":
            reports = run_shear_check(lab, outdir)
        elif subcommand == "solve":
            reports = run_solve(lab, outdir)
        elif subcommand == "norms":
            reports = run_norms(lab, outdir)
        elif subcommand == "verify":
            reports = run_verify(lab, outdir)
        elif subcommand == "full":
            # verify re-runs the shear checks when enabled; no duplicates
            reports = run_solve(lab, outdir)
            reports += run_norms(lab, outdir)
            reports += run_verify(lab, outdir)
            if not ({"assumption", "proposition"} & set(cfg.checks)):
                reports = run_shear_check(lab, outdir) + reports
        else:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
    except (ConfigError, SolverDivergence) as exc:
        code, label = ((2, "configuration error") if isinstance(exc, ConfigError)
                       else (3, "solver divergence"))
        print(f"{label}: {exc}", file=sys.stderr)
        manifest["reports"] = []
        manifest["error"] = {"exit_code": code, "kind": type(exc).__name__,
                             "message": str(exc)}
        _write_json(outdir / "manifest.json", manifest)
        return code

    manifest["reports"] = [{"name": r["name"], "pass": bool(r["pass"]),
                            "evidence": r.get("evidence", {})} for r in reports]
    _write_json(outdir / "manifest.json", manifest)
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
    ap.add_argument("--seed", type=int, default=None, help="seed override for randomized checks")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.validate()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(cfg, args.subcommand, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
