"""prandtl-lab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is driven only through its
public API (``prandtl_lab.cli.run`` on ``RunConfig``s derived from
configs/reference.ini).  Measuring happens in worker processes started one at
a time, each a fresh interpreter, so set-up and the caches the program fills
are the same in every run.

--trace 0 prints the end-to-end metrics listed in BENCHMARK.json; --trace 1
runs the workload untraced and then traced in a second process and prints
the per-layer metrics, including the tracing overhead.  Both check every
operation's exit code and verdicts, and on the default seed compare the
manifest evidence with perfbench/reference/.  The last line of standard
output is the result object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import TARGETS, span_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# extra fresh-interpreter set-ups per untraced run, for a median of three
SETUP_SAMPLES = 2
# Workers use one BLAS thread.  With OpenBLAS's default of one thread per core
# on a 2-core host, each parallel call waits for both threads, so any other
# load on the host stalls it: one competing busy process doubled a sweep
# member's wall time, against +10% with one thread.  A second thread saved no
# wall time on either workload (reference-full: 45.5 s with two, 43.0 s with one).
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
# a run must end within this many seconds; workers are killed past it
DEADLINE_S = 175.0
# evidence gate per numeric value: math.isclose(rel_tol, abs_tol)
EVIDENCE_RTOL, EVIDENCE_ATOL = 1e-6, 1e-12


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _spawn(job: dict, tag: str, deadline: float) -> dict:
    job_path, result_path = WORK / f"{tag}.job.json", WORK / f"{tag}.result.json"
    job_path.write_text(json.dumps(job))
    with open(WORK / f"{tag}.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                stdout=log, env=WORKER_ENV, timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {tag} passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker {tag} exited with {proc.returncode}; see {log.name}")
    return json.loads(result_path.read_text())


def _leaves(x, path=""):
    if isinstance(x, dict):
        for k in sorted(x):
            yield from _leaves(x[k], f"{path}.{k}")
    elif isinstance(x, list):
        yield f"{path}#len", len(x)
        for i, v in enumerate(x):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, x


def evidence_deviation(got: list, ref: list) -> tuple[float, bool]:
    """(largest relative deviation of a numeric value, all values within the gate)
    between the ``reports`` of two manifests.  A difference in structure or in
    a non-numeric value gives (inf, False)."""
    a, b = dict(_leaves(got)), dict(_leaves(ref))
    if a.keys() != b.keys():
        return math.inf, False
    dev, ok = 0.0, True
    for key, x in a.items():
        y = b[key]
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if not numeric:
            if x != y:
                return math.inf, False
            continue
        if x != y:
            dev = max(dev, abs(x - y) / max(abs(x), abs(y)))
            ok = ok and math.isclose(x, y, rel_tol=EVIDENCE_RTOL, abs_tol=EVIDENCE_ATOL)
    return dev, ok


def check_op(rec: dict, op: dict, reference: Path | None) -> tuple[list[str], float]:
    """Problems with one operation's outcome, and its evidence deviation."""
    if rec["error"] is not None:
        return [f"raised:\n{rec['error']}"], 0.0
    problems = []
    if rec["rc"] != op["expect_rc"]:
        problems.append(f"exit code {rec['rc']}, expected {op['expect_rc']}")
    if rec["manifest"] is None:
        return problems + ["no manifest written"], 0.0
    reports = json.loads(Path(rec["manifest"]).read_text())["reports"]
    failing = [r["name"] for r in reports if not r["pass"]]
    if failing:
        problems.append(f"checks failed: {failing}")
    dev = 0.0
    if reference is not None:
        dev, ok = evidence_deviation(reports, json.loads(reference.read_text())["reports"])
        if not ok:
            problems.append(f"evidence differs from {reference.name} (largest rel. dev. {dev:.3g})")
    return problems, dev


def end_to_end(res: dict, setups: list) -> dict:
    """Medians over the timed operations of one untraced worker; set-up is the
    median over fresh interpreters plus the untimed warm-up operation."""
    walls = [r["wall_s"] for r in res["ops"]]
    warm = res["warmup"]["wall_s"] if "warmup" in res else 0.0
    return {"wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r["cpu_s"] for r in res["ops"]),
            "setup_s": statistics.median(setups) + warm,
            "peak_rss_mb": res["peak_rss_mb"]}


def unseen_spans(layers: dict, unused) -> list:
    """Traced functions with no call although the workload uses them."""
    names = (span_name(m, a) for m, a in TARGETS)
    return [n for n in names if n not in unused and layers[f"{n}.calls"] == 0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    for needed in ("src/prandtl_lab/cli.py", workloads.CONFIG):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{needed} not found under {ROOT}: run from a prandtl-lab checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = workloads.plan(args.workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    job = {"root": str(ROOT), "plan": plan, "seconds": args.seconds,
           "mode": "measure", "trace": False, "work": str(WORK / "untraced")}

    plain = _spawn(job, "untraced", deadline)
    workers = {"untraced": plain}
    problems = []
    if args.trace:
        traced = _spawn({**job, "trace": True, "work": str(WORK / "traced"),
                         "n_ops": len(plain["ops"])}, "traced", deadline)
        workers["traced"] = traced
        for a, b in zip(plain["ops"], traced["ops"]):
            if a["manifest"] and b["manifest"] and \
                    Path(a["manifest"]).read_bytes() != Path(b["manifest"]).read_bytes():
                problems.append(f"op{a['index']}: traced manifest differs from untraced")
        problems += [f"tracer saw no call of {n}, which the workload uses"
                     for n in unseen_spans(traced["layers"], plan["unused"])]
        values = dict(traced["layers"])
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced["ops"])
                                      - statistics.median(r["wall_s"] for r in plain["ops"]))
        wanted = spec["per_layer"]
    else:
        setups = [plain["setup_s"]] + [
            _spawn({**job, "mode": "setup"}, f"setup{k}", deadline)["setup_s"]
            for k in range(SETUP_SAMPLES)]
        values = end_to_end(plain, setups)
        wanted = spec["end_to_end"]

    ref_dir = HERE / "reference" / args.workload
    attempted, failed, max_dev = 0, 0, 0.0
    for tag, res in workers.items():
        for rec in ([res["warmup"]] if "warmup" in res else []) + res["ops"]:
            ref = ref_dir / f"op{rec['index']}.json"
            use_ref = args.seed == workloads.DEFAULT_SEED and ref.is_file()
            probs, dev = check_op(rec, plan["ops"][rec["index"]], ref if use_ref else None)
            attempted += 1
            max_dev = max(max_dev, dev)
            if probs:
                failed += 1
                problems += [f"{tag} op{rec['index']}: {p}" for p in probs]

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": {**plain["env"], "src_lines": _src_lines()},
            "fail_ratio": failed / attempted, "evidence_rel_dev": max_dev,
            "op_wall_s": [r["wall_s"] for r in plain["ops"]]}
    if not args.trace:
        info["setup_samples_s"] = setups
    print(json.dumps({"info": info}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


if __name__ == "__main__":
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
