"""The benchmark's tracer resolves its targets by name: a module attribute
for a function, the class __dict__ for a method.  A rename in the package
would leave a target unresolved and break the traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    for mod_name, attr in targets:
        mod = importlib.import_module(f"prandtl_lab.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), (mod_name, attr)
        else:
            assert callable(getattr(mod, attr)), (mod_name, attr)
