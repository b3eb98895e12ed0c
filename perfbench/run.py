#!/usr/bin/env python3
"""Benchmark of the `schreg` pipeline through its public CLI entry point.

One workload, in the form BENCHMARK.json gives (run from the repository root):

    python3 perfbench/run.py --workload periodic_gaps --seed 3 --seconds 20 --trace 0

Every workload, with a summary table (each traced run is made twice to
check that the work counters repeat exactly):

    python3 perfbench/run.py [--seed N] [--seconds S]

A run turns the seed into a fixed job list (see workloads.py) and runs it
PASSES times, each pass in a fresh worker process (worker.py) that runs the
list closed-loop through `schreg.cli.run`.  Every op's artifacts in the
first pass are checked by an oracle that shares no code with `schreg`
(oracles.py); every later pass must exit the same way and write the same
artifacts.  With `--trace 1` the job list runs once more in a traced worker
(tracer.py), which gives the per-layer metrics and the tracing overhead.

Times are reported at reference speed.  On a shared host the speed of a
fixed computation drifts by up to ~1.8x within a minute, far more than a
regression bound.  So the worker times a fixed reference kernel before its
first op and after every op, and each op's wall time is scaled by
REFERENCE_S over the mean of the two reference timings around it; the host's
drift slows both and cancels, the program's own speed does not.  A job's
time is its median over the passes; `batch_s` is the sum of the job times,
`job_p50_s` their median.  `setup_s` is the median over every fresh worker
(SETUP_STARTS with no jobs, and each pass) of the wall time from starting
the interpreter to `schreg.cli` imported and its schemas loaded, scaled by
the reference timing taken right after.  `peak_rss_mb` is the median of the
passes' peak resident memory.  The unscaled times are printed as well, and
kept in the run record.

The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` (ops), and `metrics` -- the end-to-end metrics of
BENCHMARK.json, or its per-layer metrics with `--trace 1`.  `failed`
counts op runs (over all passes) that exited non-zero or failed their
oracle; `correct` is false when any failure is not the known `bands`
defect (oracles.Problem.known).
A full record of the run, with machine details, the `src/` line count and
every op's timing and oracle verdict, goes to .bench_out/<workload>/.
The exit code is non-zero, with no result printed, when the package is
missing or an oracle cannot run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

# One thread per process, set before numpy loads here or in any child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import oracles  # noqa: E402
from worker import op_dir  # noqa: E402
from workloads import PASSES, make_jobs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RUN_BUDGET_S = 170.0      # a single run must finish well inside 180 s
# Times are reported at reference speed: scaled by REFERENCE_S over the time
# the worker's reference kernel took next to them (see scaled_op_s).
REFERENCE_S = 0.0125
SETUP_STARTS = 2          # workers started with no jobs, for set-up samples only


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SCHREG_JOBS", None)
    return env


def remaining(deadline):
    return max(1.0, deadline - time.monotonic())


def run_worker(jobs, out, deadline, traced):
    """One pass of the job list in a fresh worker process.

    Returns the worker's result and its set-up time: wall time from starting
    the interpreter to its "ready" line (schreg.cli imported, schemas loaded).
    """
    out.mkdir(parents=True)
    spec = {"out": str(out), "jobs": [[op.config for op in job] for job in jobs]}
    (out / "jobs.json").write_text(json.dumps(spec), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "worker.py"), str(out / "jobs.json"),
           str(out / "result.json")]
    if traced:
        cmd.append(str(out / "spans.jsonl"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining(deadline), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker exited with code {code}")
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    if len(result["ops"]) != sum(len(job) for job in jobs):
        raise RuntimeError("worker did not run every op")
    return result, setup_s


def check_ops(jobs, out, result):
    """Oracle verdict per op: list of [Problem], in the worker's op order."""
    verdicts = []
    for rec in result["ops"]:
        op = jobs[rec["job"]][rec["op"]]
        d = op_dir(out, rec["job"], rec["op"], op.config)
        problems = [] if rec["exit"] == 0 else [oracles.Problem(f"exit code {rec['exit']}")]
        problems += oracles.check_manifest(d)
        if not problems:
            problems = op.check(op.config, str(d))
        verdicts.append(problems)
    return verdicts


def check_repeat(jobs, first, out, result, verdicts):
    """Verdicts for a repeated pass: an op keeps the first pass's verdict
    when it exited the same way and wrote the same artifacts."""
    repeated = []
    for rec, rec0, problems in zip(result["ops"], first["out_ops"], verdicts):
        op = jobs[rec["job"]][rec["op"]]
        same = (rec["exit"] == rec0["exit"]
                and oracles.manifest_hashes(op_dir(out, rec["job"], rec["op"], op.config))
                == oracles.manifest_hashes(op_dir(first["out"], rec["job"], rec["op"],
                                                  op.config)))
        repeated.append(list(problems) if same else problems + [
            oracles.Problem(f"{out.name} differs from {first['out'].name}")])
    return repeated


def scaled_op_s(result):
    """Each op's wall time at reference speed.

    The op's time is multiplied by REFERENCE_S over the mean of the
    reference-kernel timings just before and just after it.  On a shared
    host a fixed computation's speed drifts by up to ~1.8x within a minute;
    the reference kernel slows with it, so the scaled time follows the
    program and not the host.
    """
    ref = result["reference_s"]
    return [rec["seconds"] * REFERENCE_S / (0.5 * (ref[i] + ref[i + 1]))
            for i, rec in enumerate(result["ops"])]


def job_times(jobs, result, op_s):
    job_s = [0.0] * len(jobs)
    for rec, seconds in zip(result["ops"], op_s):
        job_s[rec["job"]] += seconds
    return job_s


def tail_percentile(samples):
    """(p, value) for the highest whole percentile above the median that has
    at least ten samples beyond it, or None when there are too few samples."""
    n = len(samples)
    if n <= 20:
        return None
    return math.floor(100.0 * (n - 10) / n), sorted(samples)[n - 11]


def tail_line(job_s):
    tail = tail_percentile(job_s)
    if tail is None:
        return (f"job tail: no percentile above p50 has 10 of the "
                f"{len(job_s)} job samples beyond it")
    return f"job_p{tail[0]}_s {tail[1]:.6g} s  (n={len(job_s)})"


def machine():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "jsonschema")},
    }


def src_lines():
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*")
               if p.is_file() and "__pycache__" not in p.parts)


def run_workload(bench, workload, seed, seconds, trace, deadline):
    """Set up, run, check and measure one workload; returns the run record.

    The job list runs PASSES times, each pass in a fresh worker, so no pass
    reuses another's in-process caches.  Times are scaled to reference speed
    (scaled_op_s); a job's time is its median over the passes.  The first
    pass is checked by the oracles; every later pass must exit the same way
    and write the same artifacts.
    """
    jobs = make_jobs(workload, seed, seconds)
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    setup, raw_setup = [], []

    def add_setup(result, setup_s):
        raw_setup.append(setup_s)
        setup.append(setup_s * REFERENCE_S / result["reference_s"][0])

    for i in range(SETUP_STARTS):
        add_setup(*run_worker([], out / "setup" / f"start{i}", deadline, False))
    plain, verdicts = [], []
    for r in range(PASSES):
        pass_out = out / "plain" / f"pass{r}"
        result, setup_s = run_worker(jobs, pass_out, deadline, False)
        plain.append(result)
        add_setup(result, setup_s)
        if r == 0:
            first = {"out": pass_out, "out_ops": result["ops"]}
            first_verdicts = check_ops(jobs, pass_out, result)
            verdicts.append(first_verdicts)
        else:
            verdicts.append(check_repeat(jobs, first, pass_out, result, first_verdicts))
    pass_job_s = [job_times(jobs, p, scaled_op_s(p)) for p in plain]
    raw_pass_job_s = [job_times(jobs, p, [rec["seconds"] for rec in p["ops"]])
                      for p in plain]
    median_job_s = [statistics.median(times) for times in zip(*pass_job_s)]
    end_to_end = {
        "setup_s": (statistics.median(setup), len(setup)),
        "batch_s": (sum(median_job_s), PASSES),
        "job_p50_s": (statistics.median(median_job_s), len(median_job_s)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), PASSES),
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "jobs": len(jobs), "passes": PASSES, "machine": machine(),
        "src_lines": src_lines(), "reference_s": REFERENCE_S,
        "setup_samples_s": setup, "raw_setup_samples_s": raw_setup,
        "pass_job_s": pass_job_s, "raw_pass_job_s": raw_pass_job_s,
        "job_s": [t for times in pass_job_s for t in times],
        "raw": {"setup_s": statistics.median(raw_setup),
                "batch_s": statistics.median(sum(t) for t in raw_pass_job_s)},
        "pass_results": plain,
        "end_to_end": {k: {"value": v, "samples": n} for k, (v, n) in end_to_end.items()},
    }
    if trace:
        traced, _ = run_worker(jobs, out / "traced", deadline, True)
        verdicts.append(check_repeat(jobs, first, out / "traced", traced, first_verdicts))
        summary = traced["trace"]
        summary["trace.overhead_s"] = (sum(scaled_op_s(traced)) - statistics.median(
            sum(t) for t in pass_job_s))
        record["trace_summary"] = summary
        record["per_layer"] = {m["name"]: summary.get(m["name"], 0)
                               for m in bench["per_layer"]}
    failed = []
    for r, pass_verdicts in enumerate(verdicts):
        for rec, problems in zip(plain[0]["ops"], pass_verdicts):
            if problems:
                failed.append((r, rec["job"], jobs[rec["job"]][rec["op"]].name, problems))
    record["failures"] = [{"pass": r, "job": j, "op": name,
                           "problems": [q.text for q in p], "known": all(q.known for q in p)}
                          for r, j, name, p in failed]
    record["attempted"] = sum(len(v) for v in verdicts)
    record["failed"] = len(failed)
    record["correct"] = all(q.known for *_, p in failed for q in p)
    (out / f"record-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return record


def report(bench, record):
    """Human-readable lines, then the result object for the last line."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{record['jobs']} jobs  {record['attempted']} ops  "
          f"src {record['src_lines']} lines  {record['machine']}")
    for name, m in record["end_to_end"].items():
        print(f"  {name:<14} {m['value']:.6g} {units[name]}  (n={m['samples']})")
    print(f"  unscaled wall time: setup_s {record['raw']['setup_s']:.6g} s, "
          f"batch_s {record['raw']['batch_s']:.6g} s (medians over passes)")
    print(f"  {tail_line(record['job_s'])}")
    print(f"  failed_frac    {record['failed'] / record['attempted']:.4g}  "
          f"({record['failed']} of n={record['attempted']} ops)")
    for f in record["failures"]:
        if f["pass"] == 0 or not f["known"]:
            tag = "known defect" if f["known"] else "FAIL"
            print(f"  {tag}: pass {f['pass']} job {f['job']} {f['op']}: "
                  f"{'; '.join(f['problems'])}")
    if record["trace"]:
        values = record["per_layer"]
    else:
        values = {k: m["value"] for k, m in record["end_to_end"].items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def run_all(bench, seed, seconds):
    """Every workload, each traced twice; prints a table, returns exit code."""
    code = 0
    counters = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    for w in bench["workloads"]:
        runs = [run_workload(bench, w["name"], seed, seconds, True,
                             time.monotonic() + RUN_BUDGET_S)
                for _ in range(2)]
        for r in runs:
            report(bench, r)
        setup = [s for r in runs for s in r["setup_samples_s"]]
        job_s = [s for r in runs for s in r["job_s"]]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        def median_of(metric):
            return statistics.median(r["end_to_end"][metric]["value"] for r in runs)

        rows = [("setup_s", statistics.median(setup), "s", len(setup)),
                ("batch_s", median_of("batch_s"), "s", len(runs)),
                ("job_p50_s", statistics.median(job_s), "s", len(job_s)),
                ("peak_rss_mb", median_of("peak_rss_mb"), "MB", len(runs)),
                ("failed_frac", failed / attempted, "1", attempted),
                ("trace.overhead_s", statistics.median(
                    r["per_layer"]["trace.overhead_s"] for r in runs), "s", len(runs))]
        print(f"== {w['name']}")
        for name, value, unit, n in rows:
            print(f"  {name:<18} {value:12.6g} {unit:<5} n={n}")
        print(f"  {tail_line(job_s)}")
        for m in bench["per_layer"]:
            print(f"  {m['name']:<38} {runs[0]['per_layer'][m['name']]:14.6g} {m['unit']}")
        moved = [c for c in counters
                 if runs[0]["per_layer"][c] != runs[1]["per_layer"][c]]
        if moved:
            print(f"  counters differ between same-seed runs: {moved}")
            code = 1
        if not all(r["correct"] for r in runs):
            code = 1
    return code


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schreg" / "__init__.py").is_file():
        print(f"perfbench: no schreg package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(bench, args.seed, args.seconds)
    deadline = time.monotonic() + RUN_BUDGET_S
    record = run_workload(bench, args.workload, args.seed, args.seconds,
                          bool(args.trace), deadline)
    print(json.dumps(report(bench, record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
