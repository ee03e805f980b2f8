import collections
import configparser
import dataclasses
import inspect
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prandtl_lab.cli as C
import prandtl_lab.shear as S
import prandtl_lab.solver as SO
import prandtl_lab.verify as V
from prandtl_lab.cli import ConfigError, Lab, load_config, main, run, run_norms, run_verify
from prandtl_lab.grid import Field
from prandtl_lab.profiles import perturbation_envelope
from prandtl_lab.scipy_ext import routes

from conftest import (CONFIG, PACKAGE, REF, _record, _solve, alive, condition_report,
                      missing_extension, seminorm_table)


@pytest.fixture(scope="session")
def picard_verify(recorded):
    """verify at nt = 8 under Picard: the residuals, boundary and contraction."""
    return recorded(dataclasses.replace(REF, nt=8, checks=(
        "residual_f", "residual_g", "residual_h", "boundary", "contraction")))


@pytest.fixture(scope="session")
def full_run(recorded):
    """full at nt = 8 on the reference config, every check enabled."""
    return recorded(dataclasses.replace(REF, nt=8, checks=C._ALL_CHECKS), "full")


@pytest.fixture(scope="session")
def monitors_verify(recorded):
    """verify at nt = 8: residual_h, boundary and two monitors."""
    return recorded(dataclasses.replace(REF, nt=8, checks=(
        "residual_h", "boundary", "conditions", "energy")))


def _write(tmp_path, body):
    p = tmp_path / "cfg.ini"
    p.write_text(body)
    return p


def test_reference_config_loads():
    cfg = load_config(CONFIG)
    assert cfg.nx == 128 and cfg.ny == 257
    assert cfg.sigma == 1.75 and cfg.ell == 2.25


def test_reference_ini_shows_every_key():
    """configs/reference.ini shows exactly the (section, key) pairs that the
    RunConfig fields declare: a removed knob cannot linger in the INI, a new
    one cannot go undocumented.  load_config parses each key by the type of
    its field's default, which is the declared type."""
    parser = configparser.ConfigParser()
    parser.read(CONFIG)
    ini = {(s, k) for s in parser.sections() for k in parser[s]}
    declared = {(f.metadata["section"], f.metadata["key"] or f.name)
                for f in dataclasses.fields(C.RunConfig)}
    assert ini == declared
    assert all(type(f.default).__name__ == f.type for f in dataclasses.fields(C.RunConfig))


def test_unknown_key_rejected(tmp_path):
    p = _write(tmp_path, "[grid]\nnx = 128\nwobble = 3\n")
    with pytest.raises(ConfigError, match="wobble"):
        load_config(p)
    p = _write(tmp_path, "[output]\nformats = csv json\n")   # removed key
    with pytest.raises(ConfigError, match="formats"):
        load_config(p)
    # a removed key, and a known key in another field's section
    for body, message in (("[verify]\nresidual_levels = 3\n",
                           r"unknown key 'residual_levels' in section \[verify\]"),
                          ("[solver]\nscheme = imex\n",
                           r"unknown key 'scheme' in section \[solver\]"),
                          ("[grid]\neps = 0.1\n", r"unknown key 'eps' in section \[grid\]")):
        p = _write(tmp_path, body)
        with pytest.raises(ConfigError, match=message):
            load_config(p)
        assert main(["verify", "--config", str(p)]) == 2


def test_sigma_range_named(tmp_path):
    p = _write(tmp_path, "[norms]\nsigma = 2.5\n")
    with pytest.raises(ConfigError, match=r"^norms: sigma must lie in \[1.5, 2\]"):
        load_config(p)


def test_ell_alpha_window_named(tmp_path):
    p = _write(tmp_path, "[norms]\nell = 2.6\n")
    with pytest.raises(ConfigError, match="^norms: ell must satisfy alpha <= ell < alpha"):
        load_config(p)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/path.ini")


def test_mmax_guard(tmp_path):
    p = _write(tmp_path, "[norms]\nmmax = 64\n")
    with pytest.raises(ConfigError, match="mmax"):
        load_config(p)


def test_shear_check_exit_zero(tmp_path):
    cfg = load_config(CONFIG)
    assert run(cfg, "shear-check", out_dir=tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {r["name"] for r in manifest["reports"]} == {"assumption", "proposition"}
    assert all(r["pass"] for r in manifest["reports"])


def test_solve_and_norms_artifacts(tmp_path):
    cfg = dataclasses.replace(REF, nt=8)
    assert run(cfg, "solve", out_dir=tmp_path) == 0
    with np.load(tmp_path / "trajectory" / "trajectory.npz") as z:
        assert np.array_equal(z["times"], np.linspace(0.0, cfg.t_final, cfg.nt + 1))
        assert z["u"].shape == (cfg.nt + 1, cfg.nx, cfg.ny)
        assert z["scheme"] == "picard" and z["eps"] == cfg.eps
    assert run(cfg, "norms", out_dir=tmp_path) == 0
    rows = (tmp_path / "norms.csv").read_text().strip().splitlines()
    assert rows[0] == "t,gevrey_norm,full_norm"
    assert len(rows) == 1 + 9
    assert all(len(row.split(",")) == 3 for row in rows)
    assert all(np.isfinite(float(v)) for row in rows[1:] for v in row.split(","))


def test_norms_and_energy_share_seminorms(full_run):
    """run_norms and the energy and radius checks read the Lab's one
    seminorm table: one full_raw per stored time, u0's included."""
    assert {"energy_monitor", "radius_decay"} <= {r["name"] for r in full_run.reports}
    assert [k for k, _ in full_run.calls].count("full_raw") == len(full_run.lab.traj.times)


def test_sweep_member_reads_cached_shear_orders(tmp_path, monkeypatch):
    """Labs on one profile share its shear states, orders 2-6 included: after
    a first member has read them (the seminorm table orders 2-4, the shear
    check orders 2-6), a second member with another amp forms no quadrature
    row in its shear check or its seminorm table."""
    cfg = dataclasses.replace(REF, nt=8)
    first = Lab(cfg)
    monkeypatch.setattr(first.profile, "state_cache", {})
    calls = []
    real = S._quadrature_rows
    monkeypatch.setattr(S, "_quadrature_rows",
                        lambda p, t, j0, j1: calls.append((t, j0, j1)) or real(p, t, j0, j1))
    C.run_shear_check(first, tmp_path / "first")
    assert len(first.table.raws) == cfg.nt + 1
    assert (first.traj.times[-1], 2, 5) in calls
    assert any(j0 == 5 for _, j0, _ in calls)
    calls.clear()
    cfg.amp = 2e-3
    second = Lab(cfg)
    assert second.profile is first.profile
    C.run_shear_check(second, tmp_path / "second")
    assert len(second.table.raws) == cfg.nt + 1
    assert calls == []


def test_residual_ladder_needs_eighths(tmp_path):
    """With a residual check on, nt = 12 would evaluate level 0 at T/3, 2T/3
    and 5T/6 against 3T/8, 5T/8 and 7T/8 on the finer levels: rejected."""
    p = _write(tmp_path, "[solver]\nnt = 12\n")
    with pytest.raises(ConfigError, match="multiple of 8"):
        load_config(p)
    assert main(["verify", "--config", str(p)]) == 2
    p = _write(tmp_path, "[solver]\nnt = 12\n[verify]\nchecks = conditions\n")
    assert load_config(p).nt == 12


def test_proposition_fails_below_least_persistence_time(lab, tmp_path, monkeypatch):
    """A persistence time 0 < T_s < 0.1 fails the proposition: the report's
    ok, the pass in its evidence and the pass that cli writes agree."""
    short = S.PropositionReport(T_s=0.05, t_checked=[0.0, 0.05, 0.06],
                                clauses_at_failure={"i": True, "ii": False, "iii": True},
                                inconsistent_at_zero=False)
    assert short.ok is False and short.to_dict()["pass"] is False
    monkeypatch.setattr(C, "check_proposition_shear", lambda profile, rep: short)
    [_, prop] = C.run_shear_check(lab, tmp_path)
    assert prop["pass"] is False and prop["evidence"]["pass"] is False
    assert json.loads((tmp_path / "proposition.json").read_text()) == prop


def test_verify_subset_and_failure_exit(tmp_path):
    cfg = dataclasses.replace(REF, nt=8, checks=("conditions",))
    assert run(cfg, "verify", out_dir=tmp_path / "ok") == 0
    cfg.amp = 0.5
    code = run(cfg, "verify", out_dir=tmp_path / "fail")
    assert code == 1
    rep = json.loads((tmp_path / "fail" / "conditions_monitor.json").read_text())
    assert rep["pass"] is False
    assert rep["evidence"]["first_failure_time"] is not None


def _report_files(outdir) -> set:
    """The <name>.json report files a run wrote (manifest and run log aside)."""
    return {p.stem for p in Path(outdir).glob("*.json")} - {"manifest", "run_log"}


def test_enabled_checks_decide_the_reports(tmp_path, monkeypatch):
    """The enabled checks alone decide which reports a run writes: assumption
    alone runs no persistence scan, proposition brings its failing
    precondition, and full with neither shear check reports neither."""
    calls = []
    real_prop = C.check_proposition_shear
    monkeypatch.setattr(C, "check_proposition_shear",
                        lambda *a: calls.append(1) or real_prop(*a))
    cfg = C.RunConfig(nx=32, ny=129, mmax=8, nt=8, checks=("assumption",))
    assert run(cfg, "verify", out_dir=tmp_path / "assumption") == 0
    assert calls == []
    assert _report_files(tmp_path / "assumption") == {"assumption"}

    real = C.validate_assumption
    monkeypatch.setattr(C, "validate_assumption", lambda p: dataclasses.replace(
        real(p), passes={"i": False, "ii": True, "iii": True}, failing="i"))
    cfg.checks = ("proposition",)
    assert run(cfg, "verify", out_dir=tmp_path / "proposition") == 1
    manifest = json.loads((tmp_path / "proposition" / "manifest.json").read_text())
    assert [(r["name"], r["pass"]) for r in manifest["reports"]] == [("assumption", False)]
    assert calls == []
    monkeypatch.setattr(C, "validate_assumption", real)

    cfg.checks = ("sobolev",)
    assert run(cfg, "full", out_dir=tmp_path / "full") == 0
    manifest = json.loads((tmp_path / "full" / "manifest.json").read_text())
    assert [r["name"] for r in manifest["reports"]] == ["solve", "norms", "sobolev_inequality"]
    assert _report_files(tmp_path / "full") == {"solve", "norms", "sobolev_inequality"}


def test_manifest_determinism(tmp_path):
    cfg = load_config(CONFIG)
    cfg.checks = ("sobolev", "inequalities")
    run(cfg, "verify", out_dir=tmp_path / "a")
    run(cfg, "verify", out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "manifest.json").read_bytes()
    b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert a == b


def _two_openblas_threads() -> bool:
    """Whether numpy's BLAS is OpenBLAS and two CPUs can run two of its
    threads."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"].lower() and (os.cpu_count() or 1) >= 2


@pytest.mark.skipif(not _two_openblas_threads(), reason="runs OpenBLAS on 1 and 2 threads")
@pytest.mark.xfail(strict=True, reason="ROADMAP direction 19: outputs depend on the BLAS "
                   "thread count (grid.dy_j's dense product)")
def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """full at nt = 8 with the checks that reduce the configured solve's
    table writes the same manifest.json and norms.csv bytes at one and at
    two OpenBLAS threads.  Measured: both files differ."""
    script = ("import sys\n"
              "import prandtl_lab.cli as cli\n"
              "cfg = cli.load_config(sys.argv[1])\n"
              "cfg.nt, cfg.checks = 8, ('conditions', 'energy', 'radius')\n"
              "sys.exit(cli.run(cfg, 'full', out_dir=sys.argv[2]))\n")
    for n in (1, 2):
        subprocess.run([sys.executable, "-c", script, str(CONFIG), str(tmp_path / str(n))],
                       capture_output=True, check=True,
                       env={**os.environ, "OPENBLAS_NUM_THREADS": str(n),
                            "PYTHONPATH": str(Path(V.__file__).parents[1])})
    differ = [name for name in ("manifest.json", "norms.csv")
              if (tmp_path / "1" / name).read_bytes() != (tmp_path / "2" / name).read_bytes()]
    assert differ == []


def test_run_log_next_to_every_manifest(tmp_path, monkeypatch):
    """run_log.json holds each stage's wall seconds, CPU seconds and minor
    page faults and the ru_maxrss, malloc's heap in use and the heap's
    high-water mark at its end (both None without glibc's mallinfo2), under
    verify the same of each check in run order, and the environment; an
    error exit writes it too, its last stage the one that raised.  A
    high-water mark is at least the heap in use, and a stage's at least its
    checks'.  The manifest holds no timing."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cfg = load_config(CONFIG)
    cfg.checks = ("inequalities", "sobolev")
    assert run(cfg, "verify", out_dir=tmp_path / "ok") == 0
    assert "wall_s" not in (tmp_path / "ok" / "manifest.json").read_text()
    cfg.y0 = 0.3
    assert run(cfg, "shear-check", out_dir=tmp_path / "error") == 2
    for name, stages in (("ok", ["setup", "verify"]), ("error", ["setup"])):
        log = json.loads((tmp_path / name / "run_log.json").read_text())
        assert set(log) == {"import", "stages", "environment"}
        assert [s["stage"] for s in log["stages"]] == stages
        spans = ("wall_s", "cpu_s", "ru_minflt")
        heap = (lambda mb: mb is None) if C._MALLINFO2 is None else (lambda mb: mb > 0.0)
        heaps = ("heap_in_use_mb", "heap_high_water_mb")
        for s in log["stages"]:
            assert set(s) - {"checks"} == {"stage", *spans, "ru_maxrss_mb", *heaps}
            assert s["wall_s"] >= 0.0 and s["ru_maxrss_mb"] > 0.0 and all(heap(s[k]) for k in heaps)
            assert s["cpu_s"] >= 0.0 and isinstance(s["ru_minflt"], int) and s["ru_minflt"] >= 0
            marks = s.get("checks", [])
            assert [c["check"] for c in marks] == (
                ["sobolev_inequality", "inequality_suite"] if s["stage"] == "verify" else [])
            for c in marks:
                assert set(c) == {"check", *spans, "ru_maxrss_mb", *heaps}
                assert all(c[k] >= 0 for k in spans) and all(heap(c[k]) for k in heaps)
                assert 0.0 < c["ru_maxrss_mb"] <= s["ru_maxrss_mb"]
            if C._MALLINFO2 is not None:
                assert all(m["heap_high_water_mb"] >= m["heap_in_use_mb"] for m in (s, *marks))
                assert all(c["heap_high_water_mb"] <= s["heap_high_water_mb"] for c in marks)
            for k in spans:       # the marks split their stage
                assert sum(c[k] for c in marks) <= s[k] + 1e-9
        env = log["environment"]
        assert set(env) == {"python", "numpy", "scipy", "quadpack", "pocketfft",
                            "special_ufuncs", "cpu_count",
                            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
        assert {k: env[k] for k in routes()} == routes()
        assert set(routes().values()) == {"direct"}
        assert env["numpy"] == np.__version__ and env["cpu_count"] >= 1
        assert (env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"]) == ("1", None)


def test_run_log_names_public_routes(fresh_extensions, tmp_path):
    """A compiled extension that is not found is named in run_log.json's
    environment by the public import that runs in its place."""
    missing_extension(fresh_extensions, "pocketfft")
    cfg = load_config(CONFIG)
    cfg.checks = ("inequalities",)
    assert run(cfg, "verify", out_dir=tmp_path) == 0
    env = json.loads((tmp_path / "run_log.json").read_text())["environment"]
    assert [env[k] for k in routes()] == ["direct", "scipy.fft", "direct"]


def test_run_log_marks_checks_in_run_order(monitors_verify, full_run):
    """run_verify runs its checks in report order, so the verify stage's
    marks follow the manifest (the shear checks one mark, the residual
    ladder one).  The checks of the configured solve come last and reduce
    the Lab's table: under verify its pass (each full_raw) runs in the first
    of them, the condition monitor, and under full in the norms stage.  A
    call covers the mark that ends next after it starts, since marks are
    made between the checks."""
    residuals = [f"residual_{k}[m={m}]" for m in (1, 2, 3) for k in "fgh"]
    for rec, sub, marks, reports in (
            (monitors_verify, "verify",
             ["residual_ladder", "boundary_checks", "conditions_monitor", "energy_monitor"],
             [r for r in residuals if r.startswith("residual_h")]
             + ["boundary_checks", "conditions_monitor", "energy_monitor"]),
            (full_run, "full",
             ["shear-check", "compatibility", "cancellation_identity", "residual_ladder",
              "boundary_checks", "sobolev_inequality", "inequality_suite",
              "conditions_monitor", "energy_monitor", "radius_decay", "picard_contraction"],
             ["solve", "norms", "assumption", "proposition", "compatibility",
              "cancellation_identity", *residuals, "boundary_checks", "sobolev_inequality",
              "inequality_suite", "conditions_monitor", "energy_monitor", "radius_decay",
              "picard_contraction"])):
        assert rec.code == 0
        manifest = json.loads((rec.out / "manifest.json").read_text())
        assert [r["name"] for r in manifest["reports"]] == reports
        log = json.loads((rec.out / "run_log.json").read_text())
        [verify] = [s["checks"] for s in log["stages"] if s["stage"] == "verify"]
        assert [c["check"] for c in verify] == rec.marks == marks
        calls = {(key, rec.during(at)) for key, at in rec.calls
                 if key in ("condi_monitor", "full_raw")}
        assert calls == {("condi_monitor", "conditions_monitor"),
                         ("full_raw", "conditions_monitor" if sub == "verify" else "norms")}



def test_verify_releases_free_pages_between_checks(picard_verify, monitors_verify, full_run):
    """run_verify hands the heap's free pages back before it marks each
    check's end, and the Lab's pass over the configured solve once, as its
    walk ends (after its last full_raw), and at no other point, so no walk
    is interrupted."""
    for rec in (picard_verify, monitors_verify, full_run):
        at = max(at for key, at in rec.calls if key == "full_raw")
        assert rec.events[at] == ("release", None)
        assert [e for e in rec.events[:at] + rec.events[at + 1:] if e[0] != "stage"] == [
            e for m in rec.marks for e in (("release", None), ("mark", m))]


def test_run_log_records_cli_import(tmp_path):
    """run_log.json reports the import of prandtl_lab.cli, which set-up
    pays before any run starts: in a fresh process it spans the whole
    import, numpy and scipy included.  The manifest carries no timing."""
    script = (
        "import json, sys, time\n"
        "t0 = time.perf_counter()\n"
        "import prandtl_lab.cli as cli\n"
        "outer = time.perf_counter() - t0\n"
        "cfg = cli.load_config(sys.argv[1])\n"
        "cfg.checks = ('inequalities',)\n"
        "cli.run(cfg, 'verify', out_dir=sys.argv[2])\n"
        "print(json.dumps({'outer': outer, 'import': cli._IMPORT}))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(CONFIG), str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(Path(V.__file__).parents[1])})
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    log = json.loads((tmp_path / "run_log.json").read_text())
    assert log["import"] == seen["import"]
    assert set(log["import"]) == {"wall_s", "ru_maxrss_mb"}
    # the recorded span misses only the package's own __init__: it is most
    # of the import that the caller timed
    assert 0.5 * seen["outer"] <= log["import"]["wall_s"] <= seen["outer"]
    assert log["import"]["ru_maxrss_mb"] > 0.0
    assert "import" not in json.loads((tmp_path / "manifest.json").read_text())


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc only")
def test_freed_memory_is_reused():
    """Once prandtl_lab.cli is imported, freed arrays of 1-3 MB serve the
    next ones (the mallopt calls that cli makes on import, which fix glibc's
    mmap and trim thresholds): ten more rounds fault no new pages.
    Under glibc's defaults, which map, unmap and trim them, they fault about
    700 (arrays under numpy's 4 MB huge-page cut, so pages of 4 KiB)."""
    script = (
        "import resource, numpy as np, prandtl_lab.cli\n"
        "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for n in (1, 2, 3):\n"
        "    np.ones(n << 17)\n"
        "f0 = faults()\n"
        "for _ in range(10):\n"
        "    for n in (3, 1, 2):\n"
        "        np.ones(n << 17)\n"
        "print(faults() - f0)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True,
                          env={**os.environ, "PYTHONPATH": str(Path(V.__file__).parents[1])})
    assert int(proc.stdout) < 50


@pytest.mark.skipif(C._MALLINFO2 is None, reason="reads glibc's mallinfo2")
def test_heap_in_use_counts_an_array():
    """The run log's heap in use grows by an 8 MB array while it lives (a
    heap block under cli's 32 MB mmap threshold) and falls back once it is
    freed."""
    before = C._heap_in_use_mb()
    arr = np.ones(1 << 20)
    grown = C._heap_in_use_mb() - before
    del arr
    assert 7.99 < grown < 8.1
    assert abs(C._heap_in_use_mb() - before) < 0.1


@pytest.mark.skipif(C._MALLINFO2 is None, reason="reads glibc's mallinfo2")
def test_residual_ladder_mark_keeps_its_high_water(full_run):
    """The residual_ladder mark's heap high-water mark, read before the
    mark hands the free pages back, exceeds the heap in use there, which is
    what the walk left, by more than 40 fields of Nx Ny doubles: the walk's
    transient (57 fields under tracemalloc) shows in the run log.  Measured
    65 at nt = 8."""
    log = json.loads((full_run.out / "run_log.json").read_text())
    [verify] = [s["checks"] for s in log["stages"] if s["stage"] == "verify"]
    [ladder] = [c for c in verify if c["check"] == "residual_ladder"]
    field_mb = full_run.lab.grid.Nx * full_run.lab.grid.Ny * 8 / 2**20
    assert ladder["heap_high_water_mb"] - ladder["heap_in_use_mb"] > 40 * field_mb


def test_main_bad_config_exit_two(tmp_path):
    p = _write(tmp_path, "[norms]\nsigma = 9\n")
    assert main(["verify", "--config", str(p)]) == 2


@pytest.mark.parametrize("body, message", [
    (b"[grid]\nnx = 64\nnx = 64\n", "option 'nx' in section 'grid' already exists"),
    (b"[grid]\nnx = 64\n[grid]\nny = 129\n", "section 'grid' already exists"),
    (b"nx = 64\n", "contains no section headers"),
    (b"[grid]\nnx 128\n", "contains parsing errors"),
    (b"[grid]\nnx = 64\n# \xff\n", "can't decode byte 0xff"),
    (b"[DEFAULT]\nnt = 16\n", "unknown config section [DEFAULT]"),
    (b"[grid]\nnx = 128\n[DEFAULT]\nnt = 16\n", "unknown config section [DEFAULT]"),
    (b"[wobble]\nnx = 128\n", "unknown config section [wobble]"),
    (b"[grid]\nwobble = 3\n", "unknown key 'wobble' in section [grid]"),
    (b"[grid]\nnx = 12.5\n", "[grid] nx: cannot parse '12.5'"),
], ids=["duplicate_key", "duplicate_section", "no_header", "no_separator", "not_utf8",
        "default_alone", "default_beside_grid", "unknown_section", "unknown_key",
        "unparsable_value"])
def test_malformed_ini_exits_two(tmp_path, capsys, body, message):
    """An INI file that does not parse, is not UTF-8, or holds an unknown
    section or key or a value that does not parse ends through main with
    exit 2 and a configuration error that names the file, not with a
    traceback; a [DEFAULT] section is an unknown section, not defaults that
    every other section would inherit."""
    p = tmp_path / "cfg.ini"
    p.write_bytes(body)
    assert main(["verify", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert f"{p}: " in err


def test_ini_values_are_read_literally(tmp_path):
    """A % in a value is part of it: load_config does no interpolation."""
    p = _write(tmp_path, "[output]\ndir = run_50%\n")
    assert load_config(p).out_dir == "run_50%"


def test_console_entry_point(tmp_path):
    """The installed script parses --help without importing trouble."""
    proc = subprocess.run([sys.executable, "-m", "prandtl_lab.cli", "--help"],
                          capture_output=True, text=True,
                          cwd=str(Path(__file__).resolve().parent.parent))
    assert proc.returncode == 0
    assert "shear-check" in proc.stdout


def test_profile_error_is_config_error(tmp_path, capsys):
    """y0 = 0.3 passes validate() but has no admissible profile
    normalization: exit 2 with a configuration error, no traceback."""
    cfg = load_config(CONFIG)
    cfg.y0 = 0.3
    cfg.validate()
    assert run(cfg, "shear-check", out_dir=tmp_path) == 2
    assert "configuration error:" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, loads, message", [
    ("solver", "t_final", 0.0, False, r"^solver: T must be positive"),
    ("grid", "lx", 0.0, False, r"^grid: Lx and Ymax must be positive"),
    ("grid", "ymax", 8.0, True, r"^perturbation: grid too coarse"),
    ("solver", "t_final", "inf", False, r"^solver\.t_final must be finite"),
    ("grid", "lx", "inf", False, r"^grid\.lx must be finite"),
    ("grid", "ymax", "inf", False, r"^grid\.ymax must be finite"),
    ("solver", "tol", "nan", False, r"^solver\.tol must be finite"),
    ("profile", "y0", 20.0, True, r"^profile: y0 must lie in \(0, Ymax/3\)"),
    ("perturbation", "kx", 17, True, r"^perturbation: kx must lie in \[1, Nx/8\]"),
    ("perturbation", "amp", -1.0, True, r"^perturbation: amp must be non-negative"),
    ("solver", "t_final", 5e-324, False, r"^solver\.t_final = 5e-324 is too short"),
    ("solver", "t_final", 7.1e-307, False, r"^solver\.t_final = 7\.1e-307 is too short"),
    ("output", "seed", -1, False, r"^output\.seed must be non-negative"),
], ids=["t_final", "lx", "ymax", "t_final_inf", "lx_inf", "ymax_inf", "tol_nan",
        "y0", "kx", "amp", "t_final_subnormal", "t_final_tiny", "seed"])
def test_validated_space_never_crashes(tmp_path, capsys, section, key, value, loads, message):
    """The non-finite configs used to end in a traceback with no manifest,
    or (tol = nan) ran every Picard sweep and passed.  The INI route exits 2
    naming the section and the bound; run() exits 2 and writes a manifest
    whose error object names them too.  The profile and perturbation
    builders own their bounds, so such a config loads and its Lab rejects it."""
    p = _write(tmp_path, f"[{section}]\n{key} = {value}\n")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "ini")]) == 2
    err = capsys.readouterr().err
    assert re.search(message, err.removeprefix("configuration error: "))
    assert "Traceback" not in err
    assert (tmp_path / "ini" / "manifest.json").is_file() == loads
    cfg = C.RunConfig(nx=32, ny=129, mmax=8, nt=8)
    setattr(cfg, key, type(getattr(cfg, key))(value))
    assert run(cfg, "solve", out_dir=tmp_path / "run") == 2
    err = json.loads((tmp_path / "run" / "manifest.json").read_text())["error"]
    assert err["exit_code"] == 2 and err["kind"] == "ConfigError"
    assert re.search(message, err["message"])


_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
# each float field is drawn on both sides of its bounds, and so is each
# integer field that no other argument draws
_FLOAT_RANGES = {"lx": (-1.0, 20.0), "ymax": (-1.0, 60.0), "y0": (-1.0, 12.0),
                 "alpha": (0.5, 3.0), "amp": (-0.01, 0.5), "eps": (-0.2, 1.5),
                 "t_final": (-0.1, 10.0), "tol": (-1.0, 1.0), "rho": (-0.1, 0.6),
                 "rho_tilde": (-0.1, 0.6), "rho0": (-0.1, 0.6), "sigma": (1.0, 2.5),
                 "ell": (1.0, 3.0)}
_INT_RANGES = {"jmax": (-1, 14), "seed": (-3, 5)}
_OVERRIDE = st.one_of(*(st.tuples(st.just(k), st.floats(lo, hi) | _NON_FINITE)
                        for k, (lo, hi) in _FLOAT_RANGES.items()),
                      *(st.tuples(st.just(k), st.integers(lo, hi))
                        for k, (lo, hi) in _INT_RANGES.items()))
# and within them: each value passes validate() beside the defaults and
# beside any other value drawn here (the rho ranges are ordered, and every
# ell lies in [alpha, alpha + 1/2) for every alpha)
_IN_BOUND = {"lx": (4.0, 8.0), "ymax": (25.0, 40.0), "y0": (1.5, 3.0), "alpha": (1.9, 2.2),
             "amp": (1e-4, 1e-2), "eps": (0.05, 0.5), "t_final": (0.02, 0.1),
             "tol": (1e-12, 1e-8), "rho": (0.1, 0.35), "rho_tilde": (0.36, 0.45),
             "rho0": (0.46, 0.6), "sigma": (1.5, 2.0), "ell": (2.2, 2.35),
             "jmax": (2, 14), "seed": (0, 5)}
# half the draws keep every override in bound, so that they reach cli.run
_OVERRIDES = st.one_of(
    st.lists(st.one_of(*(st.tuples(st.just(k), (st.integers if isinstance(lo, int)
                                                 else st.floats)(lo, hi))
                         for k, (lo, hi) in _IN_BOUND.items())), max_size=2),
    st.lists(_OVERRIDE, max_size=3))


# kx on both sides of [1, Nx/8], in-bound values first: the draws favour the
# first entries, and 0, the least integer, would otherwise end most draws
@settings(max_examples=25, deadline=None, derandomize=True)
@given(ny=st.integers(33, 129), kx=st.sampled_from([1, 2, 3, 4, 0, 5]),
       overrides=_OVERRIDES,
       subcommand=st.sampled_from(["shear-check", "solve", "norms", "verify", "full"]),
       checks=st.sets(st.sampled_from(C._ALL_CHECKS)))
@example(ny=129, kx=1, overrides=[("t_final", math.inf)],
         subcommand="solve", checks=set(C._ALL_CHECKS))
@example(ny=53, kx=2, overrides=[("lx", 3.76e-224)],      # x-derivatives overflow
         subcommand="solve", checks=set(C._ALL_CHECKS))
@example(ny=53, kx=2, overrides=[("lx", 3.76e-224)],      # and in the IMEX march
         subcommand="verify", checks={"residual_h"})
@example(ny=129, kx=1, overrides=[("lx", 1e-20)],
         subcommand="solve", checks=set(C._ALL_CHECKS))
@example(ny=33, kx=1, overrides=[("lx", 5e-324)],      # Lx / Nx underflows
         subcommand="solve", checks=set(C._ALL_CHECKS))
@example(ny=129, kx=1, overrides=[("t_final", 5e-324)],     # kernel under-resolved
         subcommand="solve", checks=set(C._ALL_CHECKS))
@example(ny=129, kx=1, overrides=[("t_final", 7.1e-307)],
         subcommand="solve", checks=set(C._ALL_CHECKS))
@example(ny=129, kx=1, overrides=[], subcommand="verify", checks={"assumption"})
@example(ny=129, kx=1, overrides=[], subcommand="full", checks={"proposition"})
@example(ny=129, kx=1, overrides=[("seed", -1)], subcommand="verify", checks={"sobolev"})
@example(ny=65, kx=2, overrides=[("eps", 0.2)], subcommand="norms",
         checks=set(C._ALL_CHECKS))
def test_validated_config_space_property(ny, kx, overrides, subcommand, checks):
    """On small grids, a drawn config is either rejected by validate() with a
    ConfigError, or the drawn subcommand ends with a documented exit code and
    a manifest that lists exactly the <name>.json reports the run wrote; a
    solve or full that exits 0 or 1 (a failed check) wrote a trajectory whose
    every number is finite."""
    cfg = C.RunConfig(nx=32, ny=ny, mmax=8, nt=8, kx=kx, **dict(overrides),
                      checks=tuple(c for c in C._ALL_CHECKS if c in checks))
    try:
        cfg.validate()
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        # long horizons warn by design, and numpy warns on the overflows
        warnings.simplefilter("ignore", UserWarning)
        warnings.simplefilter("ignore", RuntimeWarning)
        code = run(cfg, subcommand, out_dir=out)
        assert code in ((0, 2, 3) if subcommand in ("solve", "norms") else (0, 1, 2, 3))
        manifest = json.loads((Path(out) / "manifest.json").read_text())
        assert _report_files(out) == {r["name"] for r in manifest["reports"]}
        if code in (0, 1) and subcommand in ("solve", "full"):
            with np.load(Path(out) / "trajectory" / "trajectory.npz") as z:
                assert all(np.isfinite(z[k]).all() for k in z.files if z[k].dtype.kind == "f")


def test_error_exits_write_manifest(tmp_path):
    """Exits 2 and 3 still end with a manifest: no reports, and an error
    object naming the exit code, the exception kind and its message."""
    cfg = load_config(CONFIG)
    cfg.y0 = 0.3
    assert run(cfg, "shear-check", out_dir=tmp_path / "config") == 2
    manifest = json.loads((tmp_path / "config" / "manifest.json").read_text())
    assert manifest["reports"] == []
    assert manifest["config"]["y0"] == 0.3
    err = manifest["error"]
    assert err["exit_code"] == 2 and err["kind"] == "ConfigError"
    assert err["message"].startswith("profile:")

    cfg = load_config(CONFIG)
    cfg.eps, cfg.t_final, cfg.nt = 0.001, 5.0, 8
    with pytest.warns(UserWarning):
        assert run(cfg, "solve", out_dir=tmp_path / "diverge") == 3
    manifest = json.loads((tmp_path / "diverge" / "manifest.json").read_text())
    assert manifest["reports"] == []
    err = manifest["error"]
    assert err["exit_code"] == 3 and err["kind"] == "SolverDivergence"
    assert "Picard update grew" in err["message"]


@pytest.mark.parametrize("subcommand, checks", [
    ("solve", C._ALL_CHECKS), ("verify", ("residual_h",))], ids=["picard", "imex"])
def test_nan_in_solve_exits_three(tmp_path, monkeypatch, subcommand, checks):
    """Fields are checked finite where they enter: a NaN injected into the
    transport forcing reaches a solver output (a mild_solution field of the
    configured solve; an IMEX step of a residual ladder level, which verify
    marches), and the run ends with exit 3 and a manifest naming the stage."""
    import prandtl_lab.solver as SV
    real = SV._forcing

    def poisoned(u, state):
        f = real(u, state)
        f.values[4, 20] = np.nan
        return f

    monkeypatch.setattr(SV, "_forcing", poisoned)
    cfg = C.RunConfig(nx=32, ny=129, mmax=8, nt=8, checks=checks)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run(cfg, subcommand, out_dir=tmp_path) == 3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["reports"] == []
    assert manifest["error"] == {"exit_code": 3, "kind": "NonFiniteError", "stage": subcommand,
                                 "message": "field contains non-finite entries"}


@pytest.mark.parametrize("fault, code, kind", [
    ("floor", 3, "DenominatorFloorError"), ("cutoff", 2, "CutoffError")])
def test_verify_errors_exit_with_stage(tmp_path, monkeypatch, fault, code, kind):
    """A cancellation denominator under its floor (exit 3) and a cut-off set
    that does not fit the grid (exit 2, a configuration error), raised inside
    run_verify, end with a manifest whose error names the verify stage."""
    import prandtl_lab.cutoffs as CU
    if fault == "floor":
        monkeypatch.setattr(CU, "_FLOOR_F", 1e300)
    else:
        real = C.validate_assumption
        monkeypatch.setattr(C, "validate_assumption",
                            lambda p: dataclasses.replace(real(p), delta=p.grid.Ymax))
    cfg = C.RunConfig(nx=32, ny=129, mmax=8, nt=8, checks=("compatibility", "cancellation"))
    assert run(cfg, "verify", out_dir=tmp_path) == code
    err = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert (err["exit_code"], err["kind"], err["stage"]) == (code, kind, "verify")


def _first_pass(grid, amp, kx, shear):
    """The datum's first pass alone, amp sin(kx x) phi(y), with no wall
    correction (build_perturbation's signature)."""
    sx = np.sin(2.0 * np.pi * kx * grid.x_nodes / grid.Lx)
    return Field(grid, np.outer(amp * sx, perturbation_envelope(grid)))


def test_compatibility_report_fails_without_wall_correction(tmp_path, monkeypatch):
    """Negative control for the compatibility report: the datum's first pass
    alone misses the third condition by far more than the 1e-8 amp
    tolerance, and verify exits 1."""
    monkeypatch.setattr(C, "build_perturbation", _first_pass)
    cfg = load_config(CONFIG)
    cfg.checks = ("compatibility",)
    assert run(cfg, "verify", out_dir=tmp_path) == 1
    [rep] = json.loads((tmp_path / "manifest.json").read_text())["reports"]
    ev = rep["evidence"]
    assert rep["name"] == "compatibility" and not rep["pass"]
    assert ev["tolerance"] == 1e-8 * cfg.amp
    assert max(ev["res_value"], ev["res_dyomega"]) <= ev["tolerance"] < ev["res_third"]


def test_lab_owns_the_third_condition_warning(tmp_path, monkeypatch):
    """The Lab judges the datum once.  On the first pass alone (res_third
    8.3e-5 at amp 1e-3 on this grid, above the 1e-6 (1 + max|u0|) bound)
    solve warns once of the third wall compatibility condition, from one
    check_compatibility call counted at every binding the package holds;
    picard_solve called directly on that datum warns of nothing."""
    monkeypatch.setattr(C, "build_perturbation", _first_pass)
    cfg = C.RunConfig(nx=32, ny=129, mmax=8, nt=8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = _record(cfg, "solve", tmp_path)
    assert rec.code == 0
    assert [w.category for w in caught
            if "third wall compatibility" in str(w.message)] == [UserWarning], caught
    assert [key for key, _ in rec.calls].count("check_compatibility") == 1
    lab = Lab(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SO.picard_solve(lab.u0, lab.profile, lab.solver)


def test_residual_block_matches_standalone_reports(picard_verify):
    """run_verify evaluates the residual ladders one time triple at a time,
    for all jobs at once, and drops each triple; its reports equal those of
    each job evaluated alone bitwise (on whole solves of the same levels,
    bitwise the nodes the streamed levels hand out).  The boundary
    companion's snapshots (Ny = 2 Ny - 1) are not the ladder's."""
    rec, lab = picard_verify, picard_verify.lab
    assert rec.marks == ["residual_ladder", "boundary_checks", "picard_contraction"]
    ladder = [b for b in rec.snapshots if b.ny == lab.grid.Ny]
    assert len(ladder) == 3 * 3 * len(V.ladder_nts(lab.cfg.nt))
    assert {rec.during(b.at) for b in ladder} == {"residual_ladder"}   # the ladder is one check
    assert alive(b.ref for b in rec.snapshots) == []
    whole = [_solve(lab.u0, lab.profile, "imex", nt) for nt in V.ladder_nts(lab.cfg.nt)]
    alone = []
    for job in V.residual_jobs(lab.grid, lab.report, lab.cut, "fgh"):
        [levels], _ = V.walk(whole, [job])
        alone.append(V.residual_report(job, levels))
    assert [r.name for r in alone] == [f"residual_{k}[m={m}]" for m in (1, 2, 3) for k in "fgh"]
    assert json.dumps(rec.reports[:len(alone)]) == json.dumps([r.to_dict() for r in alone])


def test_residual_ladder_holds_one_snapshot(snapshots):
    """walk keeps one snapshot and one residual field per job alive: no
    Snapshot is built while another is alive, and its memory peak on the
    three streamed levels, their marching included, stays under 60 fields
    of Nx Ny doubles, with the first level's wall traces (rep), whose reads
    come before the releases that wait for them, and without.  Measured
    57.4 either way on cold shear states (57.1 warm); the bound leaves
    about 3 fields (5%).  While each level evaluated its jobs in report
    order and its centre snapshot kept every member to the node's end, the
    walk peaked at 67.3 (71.2 on an earlier host); before the levels walked
    in lockstep, at 80.1 with the levels solved beforehand (their marching
    not counted: three live snapshots and two levels of fields had reached
    169, one snapshot and one level 94.8)."""
    cfg = dataclasses.replace(REF, nt=8)
    lab = Lab(cfg)
    jobs = V.residual_jobs(lab.grid, lab.report, lab.cut, "fgh")
    for rep in (lab.report, None):
        trajs = [lab.check_solve(nt) for nt in V.ladder_nts(cfg.nt)]
        tracemalloc.start()
        try:
            V.walk(trajs, jobs, rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60.0 * lab.grid.Nx * lab.grid.Ny * 8, rep
    assert len(snapshots) == 2 * 3 * 3 * len(V.ladder_nts(cfg.nt))
    assert max(b.others for b in snapshots) == 0    # snapshots alive as each one is built


def test_verify_check_solves_die_with_their_walk(picard_verify):
    """run_verify makes the residual ladder's levels for one lockstep walk;
    the boundary companion's solve comes after the walk, when the ladder's
    levels are all dead, and the Lab's configured Picard solve last, for the
    contraction check, when every check-only solve is dead.  Afterwards the
    one solve alive is the configured solve at cfg.nt, holding no field."""
    rec, cfg = picard_verify, picard_verify.lab.cfg
    assert [(s.scheme, s.ny, s.nt, rec.during(s.at)) for s in rec.solves] == [
        ("imex", cfg.ny, 8, "residual_ladder"), ("imex", cfg.ny, 16, "residual_ladder"),
        ("imex", cfg.ny, 32, "residual_ladder"), ("imex", 2 * cfg.ny - 1, 8, "boundary_checks"),
        ("picard", cfg.ny, 8, "picard_contraction")]
    *_, companion, picard = rec.solves
    assert companion.before == [None] * 3, "a ladder level outlived its walk"
    assert picard.before == [None] * 4, "a check-only solve outlived its walk"
    [held] = alive(s.ref for s in rec.solves)
    assert held is picard.ref and held() is rec.lab.traj and len(rec.lab.traj.times) - 1 == cfg.nt
    assert vars(rec.lab)["traj"].scheme == "picard" and picard.holds() == 0



def test_coarse_check_solve_made_once(picard_verify):
    """With boundary and a residual check enabled, the imex solve on the
    reference grid at cfg.nt is made once: it is the residual ladder's
    first level and the boundary check's coarse level in one walk."""
    rec, cfg = picard_verify, picard_verify.lab.cfg
    made = [(s.ny, s.nt) for s in rec.solves if s.scheme == "imex"]
    assert made.count((cfg.ny, cfg.nt)) == 1
    assert sorted(made) == sorted([(cfg.ny, nt) for nt in V.ladder_nts(cfg.nt)]
                                  + [(2 * cfg.ny - 1, cfg.nt)])
    # the contraction check, which comes last, aside
    assert [r["name"] for r in rec.reports][-2:] == ["boundary_checks", "picard_contraction"]


def test_check_solves_hold_three_nodes(picard_verify):
    """During run_verify no check-only imex solve (the ladder's levels, the
    boundary companion's) has more than three of its nodes alive: each field
    it hands out is watched by a weak reference, and as each is handed out
    at most three are alive, the new one included.  A solve that returns its
    nodes in a list counts every node it holds."""
    rec, cfg = picard_verify, picard_verify.lab.cfg
    imex = [s for s in rec.solves if s.scheme == "imex"]
    assert {(s.ny, s.nt) for s in imex} == \
        {(cfg.ny, nt) for nt in V.ladder_nts(cfg.nt)} | {(2 * cfg.ny - 1, cfg.nt)}
    assert all(len(s.held) == s.nt + 1 for s in imex)        # each hands out every node
    assert max(n for s in imex for n in s.held) <= 3, [s.held for s in imex]


def test_ladder_windows_die_once_evaluated(picard_verify):
    """walk holds a ladder level's window only while that level is
    evaluated: as each snapshot of a level l >= 1 is built, every lower
    level holds one node, the last its stream handed out (the stream
    marches from it; at nt = 8 the first level's next window reads it
    again).  A window kept until the next node's would hold its three."""
    rec, cfg = picard_verify, picard_verify.lab.cfg
    levels = [k for k, s in enumerate(rec.solves) if s.scheme == "imex" and s.ny == cfg.ny]
    assert [rec.solves[k].nt for k in levels] == V.ladder_nts(cfg.nt)
    ladder = [b for b in rec.snapshots if b.ny == cfg.ny]
    assert {rec.during(b.at) for b in ladder} == {"residual_ladder"}
    # at each node each level builds its three snapshots in turn
    for k, b in enumerate(ladder):
        lower = levels[:k // 3 % len(levels)]
        assert [b.holds[j] for j in lower] == [1] * len(lower), (k, b.holds)


def test_full_work_counts(full_run):
    """The work of one full at nt = 8 on the reference config, counted
    exactly: solves by (scheme, Ny, Nt), imex steps (one heat_propagate
    each), Picard sweeps (one mild_solution each), distinct shear states by
    Ny, Snapshot and AuxWorkspace constructions (a Snapshot is also a
    bundle), dx_m_spec and dy_j calls, one pass over the configured solve
    (a full_raw per node), one condition-monitor reduction, one assumption
    scan (the Lab's; the companion's report is never read) and one
    compatibility check of the datum (the Lab's, which the solve's warning
    and the solve and compatibility reports read), each function counted
    at every binding the package holds.  An extra solve, step, sweep, shear state,
    bundle or derivative fails here without any timing; a release of
    memoised x-derivatives that had them formed again would raise the
    dx_m_spec count."""
    rec = full_run
    assert rec.code == 0
    counts = collections.Counter(key for key, _ in rec.calls)
    states = collections.Counter(k[1] for k in counts if k[0] == "shear")
    work = {k: v for k, v in counts.items() if k[0] != "shear"}
    assert collections.Counter((s.scheme, s.ny, s.nt) for s in rec.solves) == {
        ("picard", 257, 8): 1, ("imex", 257, 8): 1, ("imex", 257, 16): 1, ("imex", 257, 32): 1,
        ("imex", 513, 8): 1}
    assert work == {"mild_solution": 5, "heat_propagate": 64, "AuxWorkspace": 49,
                    "dx_m_spec": 1178, "dy_j": 703, "full_raw": 9, "condi_monitor": 1,
                    "check_compatibility": 1, "validate_assumption": 1}
    assert len(rec.snapshots) == 39
    assert states == {257: 82, 513: 9}


# the functions of src/ that no cli.run calls, and why
_NOT_RUN = {
    "cli.main": "the console entry: it parses argv and the INI, then calls run",
    "cli.load_config": "parses the INI before run is called (main; conftest's REF)",
    "cli._ini": "runs while RunConfig's class body executes, at import",
    "scipy_ext.use_public": "QUADPACK's error path "
                            "(test_profiles.py::test_qagse_error_flag_raises_quads_warning)",
}


def _functions(path: Path) -> set:
    """(qualified name, first line) of every named function and method
    compiled from path: the nested code objects that are function bodies,
    not class bodies, lambdas or comprehensions."""
    found, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
            found.add((code.co_qualname, code.co_firstlineno))
    return found


def test_full_calls_every_function_of_src(full_run):
    """The runtime surface: full (full_run) calls every named function and
    method defined in src/ but the ones _NOT_RUN names, so a production
    function that only the tests call fails here by name."""
    called = {(Path(c.co_filename).stem, c.co_qualname, c.co_firstlineno)
              for c in full_run.called}
    missing = sorted(f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
                     for name, line in _functions(path) if (path.stem, name, line) not in called)
    assert missing == sorted(_NOT_RUN), f"not called: {missing}"


@pytest.mark.xfail(strict=True, reason="ROADMAP direction 3: the residual and boundary reports "
                   "pass on Richardson differences, in which a dt-independent defect cancels")
def test_verify_fails_on_a_wrong_transport_term(tmp_path, monkeypatch):
    """With the transport term 5% too large (solver._forcing scaled, so both
    solvers solve the wrong equation), at least one of the residual and
    boundary reports fails at nt = 8.  Measured: every report passes, here
    and at nt = 16."""
    real = SO._forcing
    monkeypatch.setattr(SO, "_forcing",
                        lambda u, state: Field(u.grid, 1.05 * real(u, state).values))
    cfg = dataclasses.replace(REF, nt=8, checks=("residual_f", "residual_g", "residual_h",
                                                 "boundary"))
    reports = run_verify(Lab(cfg), tmp_path)
    assert len(reports) == 10
    assert not all(r["pass"] for r in reports)


def test_check_solve_streams_the_whole_solve_nodes(tmp_path):
    """A check-only imex solve (Lab.check_solve: a residual ladder level,
    the boundary companion's) streams its nodes: read once, in time order,
    each bitwise the same node of a whole imex solve; it cannot be indexed
    or saved.  The configured solve, Lab.traj, is whole."""
    cfg = dataclasses.replace(REF, nt=8)
    lab = Lab(cfg)
    nt = 2 * cfg.nt
    traj = lab.check_solve(nt)
    assert traj.profile is lab.profile and len(traj.times) == nt + 1
    with pytest.raises(ValueError, match="streamed"):
        traj.save(tmp_path)
    assert not (tmp_path / "trajectory.npz").exists()
    with pytest.raises(TypeError):
        V.Snapshot(traj, nt // 2)
    whole = _solve(lab.u0, lab.profile, "imex", nt)
    streamed = list(traj.u)
    assert len(streamed) == len(whole.u) == nt + 1
    assert all(np.array_equal(a.values, b.values) for a, b in zip(streamed, whole.u))
    assert list(traj.u) == []
    assert all(f is not None for f in lab.traj.u)


def test_verify_releases_picard_solve_before_ladder(full_run):
    """The Lab's pass over the configured Picard solve, in the norms stage,
    drops all its fields: inside the first residual ladder solve it holds
    none, reading a node raises, its contraction history is still read, and
    the monitors' reports equal those read node by node off a fresh Lab's
    solve."""
    rec, lab = full_run, full_run.lab
    cfg = lab.cfg
    configured, first = rec.solves[:2]
    assert [(s.scheme, s.nt, rec.during(s.at)) for s in (configured, first)] == [
        ("picard", cfg.nt, "solve"), ("imex", cfg.nt, "residual_ladder")]
    assert configured.ref() is lab.traj and len(lab.traj.times) == cfg.nt + 1
    assert first.before == [0]
    with pytest.raises(AttributeError):
        V.Snapshot(lab.traj, cfg.nt // 2)
    reports = {r["name"]: r for r in rec.reports}
    assert reports["picard_contraction"]["evidence"]["updates"] == lab.traj.contraction
    fresh = Lab(cfg)
    times = fresh.traj.times
    raws = seminorm_table(fresh.traj, fresh.cut, fresh.params)
    em = V.energy_monitor(raws, times, fresh.params, (cfg.rho, cfg.rho_tilde))
    alone = [condition_report(fresh.traj, fresh.report, fresh.params), em,
             V.radius_decay_check(raws, times, fresh.params, cfg.rho0,
                                  max(1.0, em.evidence["C_max"]))]
    assert [reports[r.name] for r in alone] == [r.to_dict() for r in alone]


def test_configured_solve_read_in_one_pass(full_run):
    """Under full the Lab's pass reads the configured Picard solve in the
    norms stage, each node in one visit and in time order (its seminorm row,
    then its condition row), and drops every field, so that the solve holds
    none when the verify stage starts.  Besides the pass only run_solve's
    save reads a node."""
    rec = full_run
    [picard] = [s for s in rec.solves if s.scheme == "picard"]
    assert rec.held[rec.solves.index(picard)] == 0
    reads = [(i, rec.during(at)) for i, at in picard.reads]
    assert {stage for _, stage in reads} == {"solve", "norms"}
    nodes = [i for i, stage in reads if stage == "norms"]
    visits = [i for k, i in enumerate(nodes) if k == 0 or nodes[k - 1] != i]
    assert visits == list(range(rec.lab.cfg.nt + 1))


@pytest.mark.parametrize("checks", [("residual_h",), ("contraction",)])
def test_verify_alone_keeps_no_check_solve(recorded, checks):
    """verify run alone solves only what its checks read and keeps no field
    of it: every imex solve at cfg.nt streams its nodes (no whole solve is
    made for the residual ladder), and once run_verify returns every solve
    is dead but the Lab's configured solve, if a check made it, which holds
    no field."""
    rec = recorded(dataclasses.replace(REF, nt=8, checks=checks))
    assert rec.code == 0 and rec.lab is not None
    assert all(s.streamed for s in rec.solves if s.scheme == "imex" and s.nt == 8)
    left = [r() for r in alive(s.ref for s in rec.solves)]
    assert len(left) == ("traj" in vars(rec.lab)) and all(t is rec.lab.traj for t in left)
    assert rec.solves and all(s.holds() in (None, 0) for s in rec.solves)


def test_verify_peak_after_solve_and_norms(tmp_path):
    """The tracemalloc peak of run_verify with the sweep's checks (every
    check but boundary), run after solve and norms as full runs them, stays
    under 66 fields of Nx Ny doubles at nt = 8: 62.4 measured on cold shear
    states (57.3 warm), so the bound leaves about 3.5 fields (5%).  It read
    72.5 (67.3) while the residual ladder evaluated its jobs in report order
    and its centre snapshot kept every member to the node's end (74.3 and
    71.1 on an earlier host), 92.3 (89.1) while the residual ladder's levels were solved one after the
    other and folded through a per-node store of residual fields, and 108.4
    (104.1) while the configured Picard solve also kept its fields through
    the ladder."""
    cfg = load_config(CONFIG)
    cfg.nt = 8
    cfg.checks = tuple(c for c in cfg.checks if c != "boundary")
    lab = Lab(cfg)
    tracemalloc.start()
    try:
        C.run_solve(lab, tmp_path)
        run_norms(lab, tmp_path)
        tracemalloc.reset_peak()
        run_verify(lab, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 66.0 * lab.grid.Nx * lab.grid.Ny * 8
