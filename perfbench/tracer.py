"""In-memory span tracer for the benchmark's traced run.

Each traced function becomes a span (name, start, end, parent).  A span's
self time is its duration minus the durations of its direct children; spans
are nested because the program runs on one Python thread.

The package binds functions with ``from .x import y``, so replacing the
attribute of the defining module alone would miss every other caller.
``Tracer.install`` therefore replaces the function object in every loaded
``prandtl_lab`` module that holds it.  A method (``__init__`` for a class, so
that constructions are counted) is wrapped on the class, which all bindings
share.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

# (module, attribute) of every traced callable; the span name is
# "<module>.<attribute>" with the "__init__" of a class dropped
TARGETS = (
    ("profiles", "build_shear_profile"),
    ("profiles", "validate_assumption"),
    ("profiles", "build_perturbation"),
    ("shear", "evolve_shear"),
    ("shear", "check_proposition_shear"),
    ("solver", "imex_solve"),
    ("solver", "picard_solve"),
    ("solver", "recover_v"),
    ("solver", "Trajectory.save"),
    ("grid", "dx_m"),
    ("grid", "dx_m_spec"),
    ("grid", "dy_j"),
    ("grid", "fd_weights"),
    ("cutoffs", "AuxWorkspace.__init__"),
    ("verify", "Snapshot.__init__"),
    ("norms", "gevrey_raw"),
    ("norms", "full_raw"),
    ("norms", "lifespan_norm"),
    ("verify", "residual_f"),
    ("verify", "residual_g"),
    ("verify", "residual_h"),
    ("verify", "boundary_checks"),
    ("verify", "cancellation_check"),
    ("verify", "sobolev_check"),
    ("verify", "inequality_suite"),
    ("verify", "condi_monitor"),
    ("verify", "energy_monitor"),
    ("verify", "radius_decay_check"),
    ("verify", "picard_contraction_check"),
    ("cli", "run_shear_check"),
    ("cli", "run_solve"),
    ("cli", "run_norms"),
    ("cli", "run_verify"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


def _probe_shear(tracer, args, result):
    # keyed by value, so that equal profiles built by different Labs match
    p, t = args[0], args[1]
    g = p.grid
    key = (g.Nx, g.Ny, g.Lx, g.Ymax, float(p.y0), float(p.alpha), float(t))
    if key in tracer.states_seen:
        return {}
    tracer.states_seen.add(key)
    return {"distinct": 1}


def _probe_imex(tracer, args, result):
    return {"steps": len(result.times) - 1}


def _probe_picard(tracer, args, result):
    return {"sweeps": len(result.contraction)}


def _probe_save(tracer, args, result):
    outdir = Path(args[1])
    return {"bytes": sum(f.stat().st_size for f in outdir.iterdir() if f.is_file())}


# extra counters taken from a call's arguments and result
_PROBES = {
    "shear.evolve_shear": _probe_shear,
    "solver.imex_solve": _probe_imex,
    "solver.picard_solve": _probe_picard,
    "solver.Trajectory.save": _probe_save,
}


class Tracer:
    """Wraps TARGETS; records spans and counters only while ``recording``.

    Probes run on every call, so the set of shear states already seen covers
    set-up and warm-up too, and ``distinct`` counts only states first needed
    while recording.
    """

    def __init__(self):
        self.recording = False
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.counters: dict[str, float] = {}
        self.states_seen: set = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probe(self, args, result)
                return result
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                for key, value in probe(self, args, result).items():
                    ckey = f"{name}.{key}"
                    self.counters[ckey] = self.counters.get(ckey, 0) + value
            return result

        return traced

    def install(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "prandtl_lab" or n.startswith("prandtl_lab."))]
        for mod_name, attr in TARGETS:
            mod = sys.modules[f"prandtl_lab.{mod_name}"]
            name = span_name(mod_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, original))
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation call counts, self times and probe counters.

        Names are "<span>.calls", "<span>.self_s" and "<span>.<counter>",
        plus the evolve_shear cache figures "hit_ratio" (share of calls whose
        state was needed before) and "s_per_state" (self time per new state).
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {span_name(m, a): 0 for m, a in TARGETS}
        self_s = dict.fromkeys(calls, 0.0)
        for (name, start, end, _), ch in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - ch
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_s"] = self_s[name] / n_ops
        for key in ("shear.evolve_shear.distinct", "solver.imex_solve.steps",
                    "solver.picard_solve.sweeps", "solver.Trajectory.save.bytes"):
            out[key] = self.counters.get(key, 0) / n_ops
        shear_calls = calls["shear.evolve_shear"]
        distinct = self.counters.get("shear.evolve_shear.distinct", 0)
        out["shear.evolve_shear.hit_ratio"] = 1.0 - distinct / shear_calls if shear_calls else 0.0
        out["shear.evolve_shear.s_per_state"] = (self_s["shear.evolve_shear"] / distinct
                                                 if distinct else 0.0)
        return out
