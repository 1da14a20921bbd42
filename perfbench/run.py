"""pairtrace benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload paper_fig3 --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports pairtrace from its
`src/`. One process, one client, closed loop: each op starts when the
previous one and its output check have finished. The pool of inputs is
run in whole passes that fit in --seconds. With --trace 0 it
reports the end-to-end metrics; with --trace 1 it runs untraced for half
of the time and traced for the other half, and reports the per-layer
metrics and the tracing overhead. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
TAIL_BEYOND = 10


def configure():
    """Cap thread pools and put the checkout's src/ first; before numpy loads."""
    if not (SRC / "pairtrace" / "__init__.py").is_file():
        sys.exit(f"error: no pairtrace sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))


def probe_setup(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(WORK)],
        check=True, capture_output=True, text=True, timeout=120)
    return float(done.stdout.split()[-1])


def describe(exc):
    return traceback.format_exception_only(exc)[-1].strip()


def measure(workload, pool, seconds, tracer=None):
    """Whole passes over the pool, at least one, while the next pass is
    expected to end within `seconds`; returns the samples."""
    samples = []      # (op, seconds, problem or None)
    began = perf_counter()
    rep = 0
    while True:
        pass_began = perf_counter()
        for op in pool:
            out = WORK / "ops" / op.id
            shutil.rmtree(out, ignore_errors=True)
            op_id = f"{rep}/{op.id}"
            if tracer is not None:
                tracer.begin_op(op_id, op.kind, workload.root_span)
            start = perf_counter()
            try:
                result, problem = workload.run(op, out), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, problem = None, describe(exc)
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            if problem is None:
                try:
                    if tracer is not None:
                        for name, value in workload.counters(op, result, out).items():
                            tracer.count(op_id, name, value)
                    problem = workload.check(op, result, out)
                except Exception as exc:  # an output too malformed to check is wrong
                    problem = "output check raised " + describe(exc)
            samples.append((op, elapsed, problem))
        rep += 1
        now = perf_counter()
        if now + (now - pass_began) > began + seconds:
            return samples


def end_to_end(samples, setup_s, peak_rss_mb):
    by_op = {}
    for op, elapsed, _ in samples:
        by_op.setdefault(op.id, []).append(elapsed * 1e3)
    for op_id, times in sorted(by_op.items(), key=lambda item: statistics.median(item[1])):
        print(f"# op {op_id}: median {statistics.median(times):.1f} ms of {len(times)}")
    ms = sorted(elapsed * 1e3 for _, elapsed, _ in samples)
    n = len(ms)
    # the highest percentile with at least TAIL_BEYOND samples above it
    index = max(0, n - TAIL_BEYOND - 1)
    print(f"# op_ms_tail is p{100.0 * (index + 1) / n:.1f} of {n} samples, "
          f"{n - index - 1} beyond it")
    return {"setup_s": setup_s,
            "op_ms_p50": statistics.median(ms),
            "op_ms_tail": ms[index],
            "ops_per_s": ops_per_s(samples),
            "peak_rss_mb": peak_rss_mb}


def ops_per_s(samples):
    return len(samples) / sum(elapsed for _, elapsed, _ in samples)


def per_layer(workload, pool, seconds):
    from tracing import Tracer

    untraced = measure(workload, pool, seconds / 2.0)
    tracer = Tracer()
    print("# wrapped " + " ".join(tracer.install()))
    workload.start_tracing(WORK)
    try:
        traced = measure(workload, pool, seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / "spans.jsonl")
    for kind, counts in tracer.counts_by_kind().items():
        print(f"# counters per {kind} op: "
              + " ".join(f"{k}={v:.10g}" for k, v in counts.items()))
    metrics = tracer.per_op(len(traced))
    metrics["trace.untraced_ops_per_s"] = ops_per_s(untraced)
    metrics["trace.traced_ops_per_s"] = ops_per_s(traced)
    metrics["trace.overhead_frac"] = 1.0 - ops_per_s(traced) / ops_per_s(untraced)
    return untraced + traced, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    configure()
    import numpy as np
    import workloads

    import pairtrace
    if Path(pairtrace.__file__).resolve().parent != SRC / "pairtrace":
        sys.exit(f"error: imported pairtrace from {pairtrace.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    print("# env " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": NPROC, "machine": platform.machine(),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS}}))

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    if not args.trace:
        probe_setup(args.workload)       # the first start reads files from disk
        probes = [probe_setup(args.workload) for _ in range(SETUP_REPEATS)]
        print("# setup_s samples: " + " ".join(f"{t:.4f}" for t in probes))
        setup_s = statistics.median(probes)
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(WORK)
    pool = workload.pool(np.random.default_rng(args.seed), WORK)
    for op in pool:
        print(f"# input {op.id} [{op.kind}] " + json.dumps(op.choices))

    warm = pool[0]                       # fill caches and lazy set-up untimed
    workload.run(warm, WORK / "warmup" / warm.id)

    if args.trace:
        samples, metrics = per_layer(workload, pool, args.seconds)
    else:
        samples = measure(workload, pool, args.seconds)
        metrics = end_to_end(samples, setup_s, workload.peak_rss_mb())
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        reported = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    failures = [(op, problem) for op, _, problem in samples if problem is not None]
    unexpected = 0
    for op, problem in {op.id: (op, p) for op, p in failures}.values():
        label = f"known defect ({op.known_defect})" if op.known_defect else "FAILED"
        print(f"# {label}: {op.id} {json.dumps(op.choices)}: {problem}")
        unexpected += op.known_defect is None
    print(f"# fail_frac = {len(failures)}/{len(samples)} = {len(failures) / len(samples):.4f}")
    metrics["fail_frac"] = len(failures) / len(samples)
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))


if __name__ == "__main__":
    main()
