"""Write a BENCH_*.json: perfbench medians of a change against its parent,
the traced per-layer metrics of each, each side's Tier-1 run (with per-file
test seconds) and src/ line count, in total (`src_lines`) and per file
(`src_lines_by_file`: each Python file under src/, by its path relative to
the checkout, so that a change's BENCH file shows which modules shrank).

    python3 tools/bench.py --parent DIR --out BENCH_<n>.json [--pairs N]

Run from anywhere; the change is the checkout this script lives in and DIR
is a checkout of the parent commit (for instance a `git archive` of it).
For each pair and workload, perfbench (`perfbench/run.py --seed 0`, run for
the `run_seconds` of this checkout's BENCHMARK.json) runs once in each
checkout, parent and change alternating, and the first side of a pair
alternates too, so that drift on a shared host falls on both sides.  At
least ten pairs are run (the default).  The file keeps every run's
end-to-end metrics and verdict (with the `fail_ratio` and
`evidence_rel_dev` of the run's `info` line), the per-side medians and
quartiles and, per workload and metric, how many pairs the change won and
whether that shows a gain (see `summarise`).
After the pairs, one traced run (`--trace 1`) per side and workload gives
the per-layer metrics; the pairs stay untraced, so tracing overhead never
enters the end-to-end numbers.  Each workload's `count_changes` lists the
traced metrics counted in calls or bytes whose values differ between the
sides (see `count_changes`).
Tier-1 is the suite of ROADMAP.md, run once on each side after the pairs
under pytest `--durations=0` with this checkout's solve counter loaded
(`tools/solve_counts.py`, `-p solve_counts`): each side's wall time, exit
code and summary line are kept with, per test file, the summed setup, call
and teardown seconds and the counted solves, Picard sweeps and IMEX steps.
Whole-suite wall times swing by more than a third between runs of one
commit on a shared host, so the per-file sums and counts, which say where a
change moved the suite's time and work, are the figures to compare.
Before the pairs, `full --config configs/reference.ini` runs once per side
with one BLAS thread, and the file lists the output files whose bytes differ
between the sides (an empty list: byte-identical), for each differing JSON
or CSV file whether both sides parse to the same structure and the largest
relative deviation of a number, and keeps each side's run_log.json (stage
and check marks: where the time and the peak went) and names the mark with
the largest ru_maxrss_mb, with malloc's heap in use and the heap's
high-water mark there.  The same
comparison is made of the seed-0 perturbation sweep's warm-up member and
first member, run in one process per side from that side's perfbench plan
(`perfbench/workloads.py`) and configs (`perfbench/worker.make_config`);
that comparison also keeps each side's `late_imports`: the modules loaded
when member 1's verify stage begins that were not loaded when member 0's
began, imports that the warm-up member makes late and that every later
member carries to its peak.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
WORKLOADS = ("perturbation-sweep", "reference-full")
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
MIN_PAIRS = 10
RUN_LOG = "run_log.json"     # stage and check marks, which differ between any two runs
LATE_IMPORTS = "late_imports.json"      # written by SWEEP_MEMBERS, kept per side


def _run(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    """The result object of one perfbench run (its last line), with the
    evidence gate's fail_ratio and evidence_rel_dev from the info object on
    the line before it."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    info = json.loads(info_line)["info"]
    return {**json.loads(result_line),
            **{k: info[k] for k in ("fail_ratio", "evidence_rel_dev")}}


def _verdict(result: dict) -> dict:
    return {k: result[k]
            for k in ("correct", "attempted", "failed", "fail_ratio", "evidence_rel_dev")}


def perfbench(checkout: Path, workload: str, seconds: float) -> dict:
    """End-to-end metrics and verdict of one untraced perfbench run."""
    result = _run(checkout, workload, seconds, trace=0)
    return {**{name: result["metrics"][name]["value"] for name in METRICS},
            **_verdict(result)}


def layers(checkout: Path, workload: str, seconds: float) -> dict:
    """Per-layer metrics and verdict of one traced perfbench run."""
    result = _run(checkout, workload, seconds, trace=1)
    return {"layers": {name: m["value"] for name, m in result["metrics"].items()},
            **_verdict(result)}


def count_changes(traced: dict, units: dict) -> dict:
    """The per-layer metrics of the traced runs (traced: layers() by side)
    whose unit in units (name -> BENCHMARK.json unit) is `count` or
    `bytes` and whose values differ between the sides, each with both
    values, and each side's `attempted`.  A count has no variance, so one
    traced run per side shows its change; but counts are means per timed
    operation, so a sweep's compare only when `attempted` matches
    (`comparable`)."""
    attempted = {side: t["attempted"] for side, t in traced.items()}
    values = {name: {side: t["layers"].get(name) for side, t in traced.items()}
              for name, unit in units.items() if unit in ("count", "bytes")}
    return {"attempted": attempted, "comparable": attempted["parent"] == attempted["change"],
            "metrics": {n: v for n, v in values.items() if v["parent"] != v["change"]}}


def src_lines_by_file(checkout: Path) -> dict:
    """The line count of each Python file under checkout/src, by its path
    relative to checkout."""
    return {p.relative_to(checkout).as_posix(): len(p.read_text().splitlines())
            for p in sorted((checkout / "src").rglob("*.py"))}


def tier1(checkout: Path) -> dict:
    """One Tier-1 run in checkout: its wall time, exit code, summary line
    and, per test file, the seconds of its tests' setup, call and teardown
    phases, summed (pytest --durations=0 --durations-min=0 lists every
    phase), and the calls that the solve counter of this checkout's tools/
    counted (solve_counts.py's summary lines)."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(CHANGE / "tools")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "-p", "solve_counts", "--durations=0", "--durations-min=0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    files = {}
    # pytest's duration lines read "<seconds>s <setup|call|teardown> <file>::<test>"
    for line in lines:
        if m := re.match(r"(\d+\.\d+)s (setup|call|teardown) +([^:\s]+)::", line):
            phases = files.setdefault(m[3], {"setup_s": 0.0, "call_s": 0.0, "teardown_s": 0.0})
            phases[f"{m[2]}_s"] += float(m[1])
    # solve_counts.py's lines read "<file> <name>=<calls> ..."
    for line in lines:
        if m := re.fullmatch(r"(\S+\.py)((?: \w+=\d+)+)", line):
            files.setdefault(m[1], {}).update(
                (name, int(n)) for name, n in re.findall(r"(\w+)=(\d+)", m[2]))
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": summary.strip("= "),
            "files": dict(sorted(files.items()))}


def _skeleton(name: str, data: bytes):
    """(structure, numbers) of a JSON or CSV file: the parsed content with
    every number replaced by None, and the numbers in reading order; None
    if it does not parse."""
    numbers = []

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items()}
        if isinstance(x, list):
            return [strip(v) for v in x]
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            numbers.append(float(x))
            return None
        return x

    def cell(text):
        try:
            return strip(float(text))
        except ValueError:
            return text

    try:
        if name.endswith(".json"):
            return strip(json.loads(data)), numbers
        rows = csv.reader(io.StringIO(data.decode()))
        return [[cell(c) for c in row] for row in rows], numbers
    except (ValueError, UnicodeDecodeError):
        return None


def _deviation(name: str, parent: bytes | None, change: bytes | None) -> dict | None:
    """For a JSON or CSV file (None for any other): whether both sides wrote
    it and parse to the same structure and, if so, the largest relative
    deviation |a - b| / max(|a|, |b|) of a number (0 where a == b)."""
    if not name.endswith((".json", ".csv")):
        return None
    parsed = [_skeleton(name, data) if data is not None else None for data in (parent, change)]
    if None in parsed or parsed[0][0] != parsed[1][0]:
        return {"same_structure": False, "max_rel_dev": None}
    (_, n_p), (_, n_c) = parsed
    devs = [0.0 if a == b or (math.isnan(a) and math.isnan(b))
            else abs(a - b) / max(abs(a), abs(b)) for a, b in zip(n_p, n_c)]
    return {"same_structure": True, "max_rel_dev": max(devs, default=0.0)}


# Run in a checkout with the output directory as its argument: the seed-0
# perturbation sweep's warm-up member and first member, in one process as
# perfbench runs them, from the plan of the checkout's perfbench/workloads.py
# and configs of its perfbench/worker.py, each member into its own directory,
# and LATE_IMPORTS: the modules member 1 holds as its verify stage begins
# beyond those member 0 held there.
SWEEP_MEMBERS = """
import importlib.util, json, sys
from pathlib import Path
from prandtl_lab import cli

def load(name):
    spec = importlib.util.spec_from_file_location(name, Path("perfbench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

workloads, worker = load("workloads"), load("worker")
plan = workloads.plan("perturbation-sweep", 0)
base = cli.load_config(plan["config"])
held, run_verify = [], cli.run_verify

def verify(lab, outdir, mark):
    held.append(set(sys.modules))
    return run_verify(lab, outdir, mark)

cli.run_verify = verify
codes = [cli.run(worker.make_config(base, op), op["subcommand"],
                 out_dir=str(Path(sys.argv[1], f"member_{k}")))
         for k, op in enumerate(plan["ops"][:2])]
Path(sys.argv[1], "late_imports.json").write_text(json.dumps(sorted(held[1] - held[0])))
sys.exit(max(codes))
"""


def peak_mark(log: dict) -> dict:
    """The mark of a run_log.json (a stage, or a check under its stage) with
    the largest ru_maxrss_mb, the first in run order on a tie: where the
    run's peak was set, with malloc's heap in use and the heap's high-water
    mark there (None where the log has none).  ru_maxrss is the process's
    high-water mark, so a run's first stage holds it when an earlier run in
    the process set it."""
    marks = [m for stage in log["stages"] for m in (*stage.get("checks", ()), stage)]
    peak = max(marks, key=lambda m: m["ru_maxrss_mb"])
    return {"mark": peak.get("check") or peak["stage"], "ru_maxrss_mb": peak["ru_maxrss_mb"],
            **{k: peak.get(k) for k in ("heap_in_use_mb", "heap_high_water_mb")}}


def compare_outputs(sides: dict, argv: list) -> dict:
    """Run `argv OUT` once in each checkout, with OPENBLAS_NUM_THREADS=1 and
    the checkout's src/ on the path, and compare what it writes under OUT.
    Returns each side's exit code, run_log.json files (by relative
    path) with the mark that holds each one's peak (peak_mark) and the
    content of OUT/late_imports.json (None if not written), and the
    relative paths of the files whose bytes differ between the sides, a
    file written by one side only included and every run_log.json and
    late_imports.json left out.  For each differing JSON or CSV file,
    `deviations` tells whether the two sides parse to the same structure
    and the largest relative deviation of a number (_deviation)."""
    codes, files, logs, late = {}, {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for side, checkout in sides.items():
            out = Path(tmp) / side
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout / "src"))
            codes[side] = subprocess.run([*argv, str(out)], cwd=checkout, env=env,
                                         stdout=subprocess.DEVNULL).returncode
            written = {p.relative_to(out).as_posix(): p for p in out.rglob("*") if p.is_file()}
            logs[side] = {n: json.loads(p.read_text())
                          for n, p in written.items() if p.name == RUN_LOG}
            late[side] = (json.loads(written[LATE_IMPORTS].read_text())
                          if LATE_IMPORTS in written else None)
            files[side] = {n: p.read_bytes() for n, p in written.items()
                           if p.name not in (RUN_LOG, LATE_IMPORTS)}
    peaks = {side: {n: peak_mark(log) for n, log in side_logs.items()}
             for side, side_logs in logs.items()}
    names = sorted(set(files["parent"]) | set(files["change"]))
    differing = [n for n in names if files["parent"].get(n) != files["change"].get(n)]
    deviations = {n: _deviation(n, files["parent"].get(n), files["change"].get(n))
                  for n in differing}
    return {"exit_codes": codes, "run_logs": logs, "peaks": peaks, "late_imports": late,
            "differing_files": differing,
            "deviations": {n: d for n, d in deviations.items() if d is not None}}


def summarise(by_side: dict) -> dict:
    """Per side: every run and each metric's median and quartiles.  Per
    metric (all lower-is-better): the pairs the change won, ties counting
    for neither, and whether a gain is shown, that is, the change won at
    least nine tenths of the pairs and its median lies below the parent's
    by more than the parent's interquartile distance."""
    out = {}
    for side, rs in by_side.items():
        out[side] = {"runs": rs, "median": {}, "quartiles": {}}
        for m in METRICS:
            vals = [r[m] for r in rs]
            out[side]["median"][m] = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            out[side]["quartiles"][m] = [q1, q3]
    pairs = list(zip(by_side["parent"], by_side["change"]))
    out["pairs_change_better"] = {m: sum(c[m] < p[m] for p, c in pairs) for m in METRICS}
    out["gain_shown"] = {
        m: (10 * out["pairs_change_better"][m] >= 9 * len(pairs)
            and out["parent"]["median"][m] - out["change"]["median"][m]
            > out["parent"]["quartiles"][m][1] - out["parent"]["quartiles"][m][0])
        for m in METRICS}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS,
                    help=f"alternating pairs per workload (at least {MIN_PAIRS})")
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")
    spec = json.loads((CHANGE / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    sides = {"parent": args.parent.resolve(), "change": CHANGE}
    full = [sys.executable, "-m", "prandtl_lab.cli", "full", "--config"]
    outputs = compare_outputs(sides, [*full, "configs/reference.ini", "--out"])
    print(f"reference outputs: {outputs}", file=sys.stderr)
    members = compare_outputs(sides, [sys.executable, "-c", SWEEP_MEMBERS])
    print(f"sweep member outputs: {members}", file=sys.stderr)
    runs = {w: {side: [] for side in sides} for w in WORKLOADS}
    for k in range(args.pairs):
        for w in WORKLOADS:
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                runs[w][side].append(perfbench(sides[side], w, seconds))
                print(f"pair {k} {w} {side}: {runs[w][side][-1]}", file=sys.stderr)
    workloads = {w: summarise(by_side) for w, by_side in runs.items()}
    for w in WORKLOADS:
        workloads[w]["traced"] = {side: layers(path, w, seconds) for side, path in sides.items()}
        workloads[w]["count_changes"] = count_changes(workloads[w]["traced"], units)
        print(f"traced {w}: {workloads[w]['traced']}", file=sys.stderr)
    tier = {side: tier1(path) for side, path in sides.items()}
    print(f"tier1: { {side: t['summary'] for side, t in tier.items()} }", file=sys.stderr)
    by_file = {side: src_lines_by_file(path) for side, path in sides.items()}
    payload = {
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "perfbench": {"seed": 0, "seconds": seconds, "pairs": args.pairs,
                      "workloads": workloads},
        "reference_full_outputs": outputs,
        "sweep_member_outputs": members,
        "src_lines": {side: sum(by_file[side].values()) for side in sides},
        "src_lines_by_file": by_file,
        "tier1": tier,
    }
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
