"""The benchmark's tracer resolves its targets by name: a module attribute
for a function, the class __dict__ for a method.  A rename in the package
would leave a target unresolved and break the traced benchmark run.  Its
workloads override RunConfig fields and drop checks by name, so a removed
field or check fails here rather than in the benchmark's set-up, and a
reordered manifest here rather than as incorrect benchmark outputs."""

import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from prandtl_lab import cli, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_TRACER = _load("tracer")


def test_every_tracer_target_resolves():
    targets = _TRACER.TARGETS
    assert targets
    for mod_name, attr in targets:
        mod = importlib.import_module(f"prandtl_lab.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), (mod_name, attr)
        else:
            assert callable(getattr(mod, attr)), (mod_name, attr)


_WORKLOADS = _load("workloads")


@pytest.mark.parametrize("workload", _WORKLOADS.WORKLOADS)
def test_workload_plan_builds_valid_configs(workload):
    """Every operation of the seed-0 plan names RunConfig fields and known
    checks, and its config (the reference config with the overrides and
    without the dropped checks, as the benchmark builds it) validates."""
    plan = _WORKLOADS.plan(workload, 0)
    base = cli.load_config(PERFBENCH.parent / plan["config"])
    names = {f.name for f in dataclasses.fields(cli.RunConfig)}
    for op in plan["ops"]:
        assert set(op["overrides"]) <= names, op
        assert set(op["drop_checks"]) <= set(cli._ALL_CHECKS), op
        checks = tuple(c for c in base.checks if c not in op["drop_checks"])
        dataclasses.replace(base, checks=checks, **op["overrides"]).validate()


@pytest.mark.parametrize("workload", _WORKLOADS.WORKLOADS)
def test_workload_report_order_matches_reference(workload, tmp_path, monkeypatch):
    """The benchmark's evidence gate compares the manifest's reports by list
    position: op 0 of the seed-0 plan, run on a small grid, lists its
    reports in the order of the kept reference manifest.  Some checks fail on
    that grid (exit 1); only the order is judged here.  The run is traced as
    the benchmark's traced run is: every traced span the plan does not list
    as unused has a call, and the imex step counter equals the steps the
    imex solves marched (one heat_propagate each), so a solve that hands out
    its nodes lazily is still marched to its end."""
    plan = _WORKLOADS.plan(workload, 0)
    base = cli.load_config(PERFBENCH.parent / plan["config"])
    op = plan["ops"][0]
    checks = tuple(c for c in base.checks if c not in op["drop_checks"])
    cfg = dataclasses.replace(base, checks=checks, **op["overrides"],
                              nx=32, ny=129, mmax=8, nt=8)
    steps = []
    real = solver.heat_propagate
    monkeypatch.setattr(solver, "heat_propagate", lambda *args: steps.append(1) or real(*args))
    tracer = _TRACER.Tracer().install()
    try:
        tracer.recording = True
        assert cli.run(cfg, op["subcommand"], out_dir=tmp_path) in (0, 1)
    finally:
        tracer.recording = False
        tracer.uninstall()
    names = [r["name"] for r in json.loads((tmp_path / "manifest.json").read_text())["reports"]]
    reference = json.loads((PERFBENCH / "reference" / workload / "op0.json").read_text())
    assert names == [r["name"] for r in reference["reports"]]
    layers = tracer.layer_metrics(1)
    spans = [_TRACER.span_name(m, a) for m, a in _TRACER.TARGETS]
    assert [n for n in spans if n not in plan["unused"] and layers[f"{n}.calls"] == 0] == []
    assert layers["solver.imex_solve.steps"] == len(steps) > 0
