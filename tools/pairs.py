#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs, summarised per metric.

    python3 tools/pairs.py PARENT CHANGE [--workload W] [--seed S] [--pairs N]
                           [--out BENCH_<n>.json]

PARENT and CHANGE are commits of the repository this is run in.  Each is
checked out with `git worktree add` into one of two sibling temporary
directories whose paths have the same length (a run's `peak_rss_mb` moves
with the length of its checkout's path), and both are removed afterwards.
For each workload (all of BENCHMARK.json's unless --workload is given) it
makes N pairs of runs of the unchanged

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

one in each checkout, the parent first in even pairs and the change first in
odd ones.  For every end-to-end metric of BENCHMARK.json it prints both
medians, the parent's quartiles and interquartile range (and the change's
range, to compare the spreads), the median paired difference (change minus
parent) and the wins: the pairs where the change
is better and those where the parent is, ties counting for neither.  It
chooses no bar.  Beside the scaled metrics it reports, for each side, the
medians over its runs of what the scaling hides: the unscaled `raw.batch_s`
and the median of the reference-kernel timings (`reference_s`) of every
pass, both read from the run record `.bench_out/W/record-trace0.json`.  The
heap an op leaves behind can slow the reference kernel after it, and so
move the scale factor without moving the op.  With --out it writes that
summary, with both commits and N, as the `pairs` block of the given JSON
file, keeping the file's other keys.  No per-run value is written.

Quartiles are those of linear interpolation between order statistics
(`statistics.quantiles(..., method="inclusive")`, numpy's default).  The
script imports nothing from `src/`.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SECONDS = 20


def summarize(parent, change, better="lower"):
    """Summary of paired samples: parent[i] and change[i] are pair i's runs.

    Returns both medians, the parent's quartiles, both interquartile ranges,
    the median of change[i] - parent[i] and the wins of each side (ties count
    for neither); `better` is "lower" or "higher".
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs, one parent and one change run each")
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, _, c3 = statistics.quantiles(change, n=4, method="inclusive")
    sign = 1.0 if better == "lower" else -1.0
    return {
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_q1": q1,
        "parent_q3": q3,
        "parent_iqr": q3 - q1,
        "change_iqr": c3 - c1,
        "median_diff": statistics.median(c - p for p, c in zip(parent, change)),
        "change_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "parent_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
    }


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def unscaled(record):
    """A run record's unscaled batch time and the median of the reference
    kernel's timings over all of its passes."""
    return {"raw_batch_s": record["raw"]["batch_s"],
            "reference_s": statistics.median(t for p in record["pass_results"]
                                             for t in p["reference_s"])}


def run_once(checkout, workload, seed):
    """The result line of one benchmark run in checkout, with the unscaled
    figures of its run record under "unscaled"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = Path(checkout, ".bench_out", workload, "record-trace0.json")
    result["unscaled"] = unscaled(json.loads(record.read_text(encoding="utf-8")))
    return result


def run_pairs(checkouts, workload, seed, n):
    """n pairs of runs of workload in the parent and change checkouts,
    alternating which goes first; returns each side's result lines."""
    runs = {"parent": [], "change": []}
    for i in range(n):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(checkouts[side], workload, seed))
        print(f"  {workload}: pair {i + 1}/{n}", file=sys.stderr)
    return runs


def workload_block(runs, metrics):
    """Summary of one workload's pairs: every run's verdicts, the medians of
    its unscaled figures, and the summary of each metric in metrics (name:
    better)."""
    block = {side: {"correct": all(r["correct"] for r in rs),
                    "failed": sum(r["failed"] for r in rs),
                    **{name: statistics.median(r["unscaled"][name] for r in rs)
                       for name in ("raw_batch_s", "reference_s")}}
             for side, rs in runs.items()}
    block["metrics"] = {
        name: dict(summarize([r["metrics"][name]["value"] for r in runs["parent"]],
                             [r["metrics"][name]["value"] for r in runs["change"]], better),
                   unit=runs["parent"][0]["metrics"][name]["unit"], better=better)
        for name, better in metrics.items()}
    return block


def print_block(workload, block):
    print(f"{workload}: parent correct {block['parent']['correct']} failed "
          f"{block['parent']['failed']}; change correct {block['change']['correct']} "
          f"failed {block['change']['failed']}")
    print("  unscaled     " + "  ".join(
        f"{side} raw_batch_s {block[side]['raw_batch_s']:.6g} s, reference_s "
        f"{block[side]['reference_s']:.6g} s" for side in ("parent", "change")))
    for name, m in block["metrics"].items():
        print(f"  {name:12s} parent {m['parent_median']:.6g} [q1 {m['parent_q1']:.6g}, "
              f"q3 {m['parent_q3']:.6g}, IQR {m['parent_iqr']:.3g}]  change "
              f"{m['change_median']:.6g} [IQR {m['change_iqr']:.3g}]  median diff {m['median_diff']:+.3g} {m['unit']}  "
              f"wins change {m['change_wins']} / parent {m['parent_wins']} "
              f"({m['better']} is better)")


def write_block(path, pairs):
    """Make pairs the `pairs` block of the JSON file at path, keeping its other keys."""
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc["pairs"] = pairs
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", default=None, help="JSON file to hold the pairs block")
    args = parser.parse_args(argv)
    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    commits = {side: git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in (("parent", args.parent), ("change", args.change))}
    bench = json.loads(git(repo, "show", f"{commits['change']}:BENCHMARK.json"))
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    base = Path(tempfile.mkdtemp(prefix="pairs-"))
    checkouts = {side: base / side for side in commits}   # "parent" and "change": same length
    try:
        for side, commit in commits.items():
            git(repo, "worktree", "add", "--detach", str(checkouts[side]), commit)
        blocks = {w: workload_block(run_pairs(checkouts, w, args.seed, args.pairs), metrics)
                  for w in workloads}
    finally:
        for path in checkouts.values():
            if path.exists():
                git(repo, "worktree", "remove", "--force", str(path))
        shutil.rmtree(base, ignore_errors=True)
        git(repo, "worktree", "prune")
    for w, block in blocks.items():
        print_block(w, block)
    pairs = {"parent": commits["parent"], "change": commits["change"], "seed": args.seed,
             "pairs": args.pairs,
             "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                        f"--seconds {SECONDS} --trace 0",
             "workloads": blocks}
    if args.out:
        write_block(args.out, pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
