"""Seeded workload generator.

A plan lists the operations of one run.  Each operation is a ``cli.run``
call: a subcommand plus overrides of the reference configuration, and the
verdict expected from it.  The same (workload, seed) always gives the same
plan.  Inputs are drawn only from the region where every enabled check
passes, so every operation is expected to exit 0 with all reports passing.
"""

from __future__ import annotations

import math
import random

CONFIG = "configs/reference.ini"

# the seed whose manifests are kept under perfbench/reference/
DEFAULT_SEED = 0

# Sweep region.  kx >= 2 is left out: conditions_monitor fails there already
# at amp = 3e-4 on the reference grid.  With kx = 1, amp in [2e-4, 1e-3] and
# eps in [0.1, 0.4] every check passes.
SWEEP_AMP = (2e-4, 1e-3)
SWEEP_EPS = (0.1, 0.4)
SWEEP_MEMBERS = 16


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.4g}")


def _op(drop_checks=(), **overrides) -> dict:
    """A ``full`` run: ``overrides`` replace fields of the reference config and
    ``drop_checks`` are removed from its ``checks``."""
    return {"subcommand": "full", "overrides": overrides,
            "drop_checks": list(drop_checks), "expect_rc": 0}


def plan(workload: str, seed: int) -> dict:
    """{"config", "warmup", "ops", "unused"}.

    With ``warmup`` true, ops[0] runs untimed after set-up and the timed phase
    takes ops[1:] in order for as long as the run lasts.  ``unused`` names
    the traced spans the workload never calls.
    """
    if workload == "reference-full":
        # one cold full run per process: a second one would be served from the
        # profile and shear-state caches the first one filled
        return {"config": CONFIG, "warmup": False, "ops": [_op(seed=seed)], "unused": []}
    if workload == "perturbation-sweep":
        rng = random.Random(seed)
        ops = [_op(amp=_log_uniform(rng, *SWEEP_AMP), kx=1,
                   eps=_log_uniform(rng, *SWEEP_EPS),
                   seed=rng.randrange(2**31), drop_checks=["boundary"])
               for _ in range(1 + SWEEP_MEMBERS)]
        return {"config": CONFIG, "warmup": True, "ops": ops,
                "unused": ["verify.boundary_checks"]}
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("reference-full", "perturbation-sweep")
