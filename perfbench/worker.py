"""One measuring process of the benchmark; run.py starts it, one at a time.

    python3 perfbench/worker.py JOB_JSON RESULT_JSON

The job names the checkout root, the plan (see workloads.py), a mode and a
work directory.  Mode "setup" only times set-up; mode "measure" then runs the
optional warm-up operation and the timed operations, traced when asked.
Set-up is import, validation of every operation's config and construction
of the first operation's ``Lab`` (profile build and assumption scan).
"""

import time

T_START = time.perf_counter()   # before the program is imported

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402


def make_config(base, op):
    """The validated ``RunConfig`` of one planned operation."""
    checks = tuple(c for c in base.checks if c not in op["drop_checks"])
    cfg = dataclasses.replace(base, checks=checks, **op["overrides"])
    cfg.validate()
    return cfg


def _run_op(cli, cfg, op, out: Path, keep: Path, tracer):
    """Run one operation; returns its record.  Exceptions count as failures."""
    shutil.rmtree(out, ignore_errors=True)
    rec = {"rc": None, "error": None, "manifest": None, "warnings": 0}
    traced = tracer is not None
    # the traced process counts warnings for cli.warnings; the untraced one
    # lets them print as a user would see them
    with warnings.catch_warnings(record=True) if traced else contextlib.nullcontext() as log:
        if traced:
            warnings.simplefilter("always")
            tracer.recording = True
        # process_time: user+sys CPU of every thread of the process
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            rec["rc"] = cli.run(cfg, op["subcommand"], out_dir=str(out))
        except Exception:  # the program under test failed: record it, go on
            rec["error"] = traceback.format_exc(limit=4)
        rec["wall_s"], rec["cpu_s"] = time.perf_counter() - w0, time.process_time() - c0
        if traced:
            tracer.recording = False
            rec["warnings"] = len(log)
    manifest = out / "manifest.json"
    if manifest.is_file():
        shutil.copyfile(manifest, keep)
        rec["manifest"] = str(keep)
    shutil.rmtree(out, ignore_errors=True)
    return rec


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    root, plan, work = Path(job["root"]), job["plan"], Path(job["work"])
    sys.path.insert(0, str(root / "src"))
    from prandtl_lab import cli

    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"prandtl_lab imported from {cli.__file__}, not from the checkout")
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer().install()

    base = cli.load_config(str(root / plan["config"]))
    cfgs = [make_config(base, op) for op in plan["ops"]]
    cli.Lab(cfgs[0])
    result = {"setup_s": time.perf_counter() - T_START}
    if job["mode"] == "measure":
        work.mkdir(parents=True, exist_ok=True)
        ops = list(range(len(cfgs)))
        if plan["warmup"]:
            i = ops.pop(0)
            result["warmup"] = _run_op(cli, cfgs[i], plan["ops"][i], work / "out",
                                       work / f"manifest_{i}.json", None)
            result["warmup"]["index"] = i
        limit = job.get("n_ops") or len(ops)
        records = []
        t0 = time.perf_counter()
        for i in ops[:limit]:
            rec = _run_op(cli, cfgs[i], plan["ops"][i], work / "out",
                          work / f"manifest_{i}.json", tracer)
            rec["index"] = i
            records.append(rec)
            if job.get("n_ops") is None and time.perf_counter() - t0 >= job["seconds"]:
                break
        result["ops"] = records
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(len(records))
            result["layers"]["cli.warnings"] = sum(r["warnings"] for r in records) / len(records)
        result["env"] = _environment()
    Path(result_path).write_text(json.dumps(result))


def _environment() -> dict:
    from importlib import metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "sympy")},
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


if __name__ == "__main__":
    main(*sys.argv[1:3])
