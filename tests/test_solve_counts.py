"""tools/solve_counts.py, the pytest plugin that counts the solves of each
test file, run on a one-test suite of its own."""

import os
import subprocess
import sys
from pathlib import Path

import prandtl_lab

ROOT = Path(__file__).resolve().parent.parent

SUITE = '''
import dataclasses
import pytest
from prandtl_lab import cli
from prandtl_lab.solver import picard_solve

def test_solves():
    lab = cli.Lab(cli.RunConfig(nx=32, ny=129, mmax=8, nt=8))
    with pytest.warns(UserWarning, match="jmax=2") as rec:
        picard_solve(lab.u0, lab.profile, dataclasses.replace(lab.solver, jmax=2, tol=1e-30))
    assert rec[0].filename == __file__
    assert len(list(lab.check_solve(8).u)) == 9
'''


def test_counts_each_file_solves_and_keeps_warnings_at_the_caller(tmp_path):
    """One Picard solve of two sweeps (two mild_solution calls) and one
    imex solve of eight steps (eight heat_propagate calls), drained: the
    summary line of the test file reads exactly these, a file that ran no
    solve reads zeros, and the Picard solve's warning still names the test's
    line, not the counting wrapper's."""
    (tmp_path / "test_one.py").write_text(SUITE)
    (tmp_path / "test_two.py").write_text("def test_nothing():\n    pass\n")
    path = os.pathsep.join([str(Path(prandtl_lab.__file__).parents[1]), str(ROOT / "tools")])
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "solve_counts"],
        cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    assert "test_one.py picard_solve=1 mild_solution=2 imex_solve=1 heat_propagate=8" in lines
    assert "test_two.py picard_solve=0 mild_solution=0 imex_solve=0 heat_propagate=0" in lines
