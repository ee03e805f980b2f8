"""Self-tests of the benchmark: generator, tracer, correctness gate.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from worker import make_config  # noqa: E402
from tracer import TARGETS, Tracer, span_name  # noqa: E402

from prandtl_lab import cli  # noqa: E402

SEEDS = range(12)


def _configs(workload, seed):
    base = cli.load_config(str(ROOT / workloads.CONFIG))
    for op in workloads.plan(workload, seed)["ops"]:
        yield make_config(base, op)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_config_validates(workload):
    for seed in SEEDS:
        assert len(list(_configs(workload, seed))) >= 1   # make_config validates


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.plan(workload, 7) == workloads.plan(workload, 7)
    assert json.dumps(workloads.plan(workload, 7)) != json.dumps(workloads.plan(workload, 8))


def test_sweep_members_stay_in_the_passing_region():
    for seed in SEEDS:
        for cfg in _configs("perturbation-sweep", seed):
            assert cfg.kx == 1
            assert workloads.SWEEP_AMP[0] <= cfg.amp <= workloads.SWEEP_AMP[1]
            assert workloads.SWEEP_EPS[0] <= cfg.eps <= workloads.SWEEP_EPS[1]
            assert "boundary" not in cfg.checks


def _small_config(out_dir):
    # the coarsest grid on which the assumption scan passes, so that every
    # traced function runs
    return cli.RunConfig(nx=32, ny=129, mmax=8, nt=8, out_dir=str(out_dir))


def _package_bindings():
    return [(name, key, value) for name, mod in sys.modules.items()
            if name.startswith("prandtl_lab") and mod is not None
            for key, value in vars(mod).items()]


def test_tracer_replaces_every_binding_site():
    originals = {id(getattr(sys.modules[f"prandtl_lab.{m}"], a)): span_name(m, a)
                 for m, a in TARGETS if "." not in a}
    before = _package_bindings()
    tracer = Tracer().install()
    try:
        left = [(mod, key) for mod, key, value in _package_bindings() if id(value) in originals]
        assert left == []
        # the names the package binds with "from .x import y" in several modules
        shear_sites = {mod for mod, key, value in before
                       if originals.get(id(value)) == "shear.evolve_shear"}
        assert {"prandtl_lab.shear", "prandtl_lab.solver", "prandtl_lab.cli"} <= shear_sites
    finally:
        tracer.uninstall()
    assert _package_bindings() == before


@pytest.fixture(scope="module")
def traced_small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    cfg = _small_config(out)
    assert cli.run(cfg, "full", out_dir=str(out / "plain")) in (0, 1)
    tracer = Tracer().install()
    try:
        tracer.recording = True
        rc = cli.run(cfg, "full", out_dir=str(out / "traced"))
        tracer.recording = False
    finally:
        tracer.uninstall()
    return out, rc, tracer.layer_metrics(1)


def test_tracer_sees_every_target_on_a_full_run(traced_small_run):
    _, rc, layers = traced_small_run
    assert rc in (0, 1)
    assert run.unseen_spans(layers, unused=()) == []
    for m, a in TARGETS:
        assert layers[f"{span_name(m, a)}.self_s"] > 0.0
    assert layers["solver.imex_solve.steps"] > 0
    assert layers["solver.picard_solve.sweeps"] > 0
    assert layers["solver.Trajectory.save.bytes"] > 0


def test_zero_call_count_is_reported(traced_small_run):
    layers = dict(traced_small_run[2])
    layers["grid.dx_m.calls"] = 0.0
    assert run.unseen_spans(layers, unused=()) == ["grid.dx_m"]
    assert run.unseen_spans(layers, unused=("grid.dx_m",)) == []


def test_tracing_does_not_change_the_manifest(traced_small_run):
    out = traced_small_run[0]
    plain = (out / "plain" / "manifest.json").read_bytes()
    assert (out / "traced" / "manifest.json").read_bytes() == plain


def test_evidence_deviation():
    ref = [{"name": "a", "pass": True, "evidence": {"x": 2.0, "v": [1e-18, 3.0], "s": "k"}}]
    same = json.loads(json.dumps(ref))
    assert run.evidence_deviation(same, ref) == (0.0, True)
    near = json.loads(json.dumps(ref))
    near[0]["evidence"]["v"][0] = 2e-18          # rounding-level value: within abs_tol
    dev, ok = run.evidence_deviation(near, ref)
    assert ok and dev == pytest.approx(0.5)
    far = json.loads(json.dumps(ref))
    far[0]["evidence"]["x"] = 2.002
    assert run.evidence_deviation(far, ref)[1] is False
    shorter = json.loads(json.dumps(ref))
    shorter[0]["evidence"]["v"].pop()
    assert run.evidence_deviation(shorter, ref) == (float("inf"), False)


def test_benchmark_json_names_only_metrics_the_benchmark_produces(traced_small_run):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(traced_small_run[2]) | {"cli.warnings", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    worker_result = {"ops": [{"wall_s": 1.0, "cpu_s": 1.0}], "peak_rss_mb": 1.0}
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(worker_result, [1.0]))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
