"""One benchmark worker: runs a job list through `schreg.cli.run`, in order.

    python3 perfbench/worker.py JOBS.json RESULT.json [SPANS.jsonl]

JOBS.json holds {"out": dir, "jobs": [[config, ...], ...]}.  Op k of job j
writes its artifacts to <out>/<j>/<k>-<command>.  The worker is a closed
loop (one job at a time, no threads).  It prints "ready" on standard output
once `schreg.cli` is imported and its schemas are loaded, which lets the
caller time set-up.  Before the first op and after every op it times a fixed
reference kernel (`reference_s`), which tells the caller how fast the host
ran at that moment.  RESULT.json gets each op's exit code and wall time, the
reference times and the worker's peak resident memory.  Given SPANS.jsonl
it traces the layers as well (see tracer.py), writes the spans there and
adds the trace summary to RESULT.json.
"""
import json
import statistics
import sys
import time
from pathlib import Path

REFERENCE_REPEATS = 5


def op_dir(out, j, k, config):
    return Path(out) / f"{j:03d}" / f"{k}-{config['command']}"


def peak_rss_mb():
    """High-water resident memory of this process image, from VmHWM.

    getrusage's ru_maxrss is not used: Linux carries it across exec, so it
    would include the parent's footprint at the time it started the worker.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _reference_kernel(np):
    """Fixed work of the kinds `schreg` spends its time on: an interpreted
    loop, numpy ufuncs on energy-sized vectors, 2x2 matrix products and one
    longer vector pass: about 12.5 ms on a quiet 2-core x86 VM, up to ~20 ms
    when the host is busy.  Its result is discarded."""
    acc = 0
    for i in range(60000):
        acc += (i * i) % 7
    a = np.linspace(0.0, 1.0, 200)
    for _ in range(1000):
        a = np.sqrt(a * a + 1.0) - 0.5
    m, step = np.eye(2), np.array([[1.0, 1e-3], [-1e-3, 1.0]])
    for _ in range(1500):
        m = m @ step
    b = np.cumsum(np.sin(np.arange(200000) * 1e-3))
    return acc + float(a[0] + m[0, 0] + b[-1])


def reference_s():
    """Median of a few back-to-back timings of the reference kernel, in
    seconds: how fast the host runs this process at the moment."""
    import numpy as np
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        _reference_kernel(np)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(jobs_path, result_path, spans_path=None):
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from schreg import cli
    cli.load_schema("experiment_config.schema.json")
    cli.load_schema("potential_spec.schema.json")
    print("ready", flush=True)
    with open(jobs_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    ops = []
    reference = [reference_s()]
    bytes_written = 0
    for j, job in enumerate(spec["jobs"]):
        for k, config in enumerate(job):
            out = op_dir(spec["out"], j, k, config)
            t0 = time.perf_counter()
            code = cli.run(config, out_dir=str(out))
            ops.append({"job": j, "op": k, "exit": code,
                        "seconds": time.perf_counter() - t0})
            if tracer:
                bytes_written += sum(f.stat().st_size for f in out.iterdir())
            reference.append(reference_s())
    result = {"ops": ops, "reference_s": reference, "peak_rss_mb": peak_rss_mb()}
    if tracer:
        result["trace"] = dict(tracer.summary(), **{"cli.bytes_written": bytes_written})
        tracer.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
