import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prandtl_lab.norms as N
import prandtl_lab.verify as V
from prandtl_lab.cli import ConfigError, Lab, load_config, main, run, run_norms, run_verify

from conftest import alive

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.ini"


def _write(tmp_path, body):
    p = tmp_path / "cfg.ini"
    p.write_text(body)
    return p


def test_reference_config_loads():
    cfg = load_config(CONFIG)
    assert cfg.nx == 128 and cfg.ny == 257
    assert cfg.sigma == 1.75 and cfg.ell == 2.25


def test_unknown_key_rejected(tmp_path):
    p = _write(tmp_path, "[grid]\nnx = 128\nwobble = 3\n")
    with pytest.raises(ConfigError, match="wobble"):
        load_config(p)
    p = _write(tmp_path, "[output]\nformats = csv json\n")   # removed key
    with pytest.raises(ConfigError, match="formats"):
        load_config(p)


def test_sigma_range_named(tmp_path):
    p = _write(tmp_path, "[norms]\nsigma = 2.5\n")
    with pytest.raises(ConfigError, match=r"sigma must lie in \[1.5, 2\]"):
        load_config(p)


def test_ell_alpha_window_named(tmp_path):
    p = _write(tmp_path, "[norms]\nell = 2.6\n")
    with pytest.raises(ConfigError, match="alpha <= ell < alpha"):
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
    cfg = load_config(CONFIG)
    cfg.nt = 8
    cfg.scheme = "imex"
    assert run(cfg, "solve", out_dir=tmp_path) == 0
    with np.load(tmp_path / "trajectory" / "trajectory.npz") as z:
        assert np.array_equal(z["times"], np.linspace(0.0, cfg.t_final, cfg.nt + 1))
        assert z["u"].shape == (cfg.nt + 1, cfg.nx, cfg.ny)
        assert z["scheme"] == "imex" and z["eps"] == cfg.eps
    assert run(cfg, "norms", out_dir=tmp_path) == 0
    rows = (tmp_path / "norms.csv").read_text().strip().splitlines()
    assert rows[0].startswith("t,gevrey_norm,full_norm")
    assert len(rows) == 1 + 9


def test_norms_and_energy_share_seminorms(tmp_path, monkeypatch):
    """run_norms and the energy and radius checks read the Lab's one
    seminorm table: one full_raw per stored time, u0's included."""
    cfg = load_config(CONFIG)
    cfg.nt = 8
    cfg.scheme = "imex"
    cfg.checks = ("energy", "radius")
    lab = Lab(cfg)
    traj = lab.trajectory()
    calls = []
    full_raw = N.full_raw
    monkeypatch.setattr(N, "full_raw", lambda *a, **k: calls.append(1) or full_raw(*a, **k))
    run_norms(lab, tmp_path)
    reports = run_verify(lab, tmp_path)
    assert [r["name"] for r in reports] == ["energy_monitor", "radius_decay"]
    assert len(calls) == len(traj.times)


def test_residual_ladder_needs_eighths(tmp_path):
    """With a residual check on, nt = 12 would evaluate level 0 at T/3, 2T/3
    and 5T/6 against 3T/8, 5T/8 and 7T/8 on the finer levels: rejected."""
    p = _write(tmp_path, "[solver]\nnt = 12\n")
    with pytest.raises(ConfigError, match="multiple of 8"):
        load_config(p)
    assert main(["verify", "--config", str(p)]) == 2
    p = _write(tmp_path, "[solver]\nnt = 12\n[verify]\nchecks = conditions\n")
    assert load_config(p).nt == 12


def test_verify_subset_and_failure_exit(tmp_path):
    cfg = load_config(CONFIG)
    cfg.checks = ("conditions",)
    cfg.nt = 8
    assert run(cfg, "verify", out_dir=tmp_path / "ok") == 0
    cfg.amp = 0.5
    code = run(cfg, "verify", out_dir=tmp_path / "fail")
    assert code == 1
    rep = json.loads((tmp_path / "fail" / "conditions_monitor.json").read_text())
    assert rep["pass"] is False
    assert rep["evidence"]["first_failure_time"] is not None


def test_manifest_determinism(tmp_path):
    cfg = load_config(CONFIG)
    cfg.checks = ("sobolev", "inequalities")
    run(cfg, "verify", out_dir=tmp_path / "a")
    run(cfg, "verify", out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "manifest.json").read_bytes()
    b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert a == b


def test_main_bad_config_exit_two(tmp_path):
    p = _write(tmp_path, "[norms]\nsigma = 9\n")
    assert main(["verify", "--config", str(p)]) == 2


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
    cfg.eps, cfg.t_final, cfg.nt, cfg.scheme = 0.001, 5.0, 8, "picard"
    with pytest.warns(UserWarning):
        assert run(cfg, "solve", out_dir=tmp_path / "diverge") == 3
    manifest = json.loads((tmp_path / "diverge" / "manifest.json").read_text())
    assert manifest["reports"] == []
    err = manifest["error"]
    assert err["exit_code"] == 3 and err["kind"] == "SolverDivergence"
    assert "Picard update grew" in err["message"]


def test_residual_block_matches_standalone_reports(tmp_path, snapshot_refs):
    """run_verify evaluates the residual ladders one time triple at a time,
    for all jobs at once, and drops each triple; its reports equal those of
    each job evaluated alone bitwise."""
    cfg = load_config(CONFIG)
    cfg.nt = 8
    cfg.checks = ("residual_f", "residual_g", "residual_h")
    lab = Lab(cfg)
    reports = run_verify(lab, tmp_path)
    assert len(snapshot_refs) == 3 * 3 * cfg.residual_levels
    assert alive(snapshot_refs) == []
    trajs = [lab.trajectory("imex", cfg.nt * 2**k) for k in range(cfg.residual_levels)]
    cutf = V.wide_f_cutoffs(lab.grid, lab.report)
    study = {"f": V.residual_f, "g": V.residual_g, "h": V.residual_h}
    alone = []
    for m in (1, 2, 3):
        for job in (V.ResidualJob("f", m, cutf), V.ResidualJob("g", m),
                    V.ResidualJob("h", m, lab.cut)):
            [rows] = V.evaluate_residuals(trajs, [job])
            alone.append(study[job.kind](trajs, m, rows))
    assert json.dumps(reports) == json.dumps([r.to_dict() for r in alone])
