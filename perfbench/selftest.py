"""Self-test of the benchmark's work counters and layer split.

    python3 perfbench/selftest.py [--seed N]

Runs every workload traced twice, one pass per half, and checks that
- every work counter repeats exactly across the two runs;
- every layer a workload claims to exercise shows nonzero work;
- the layer split the workloads were built for holds: dispersion_sweep
  computes no kernel and dispersionopt has the largest self time there;
  kernel_survey runs no optimizer and spdc has the largest self time; the
  fig3a op of paper_fig3 makes 116 chain and 52 objective evaluations.
Prints each failed check and exits 1 if there is one. Takes about 2 minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

# the metric that shows a layer did work; scenario and cli have no count
EVIDENCE = {
    "materials": ("materials.index_calls",),
    "phasematch": ("phasematch.mismatch_evals",),
    "spdc": ("spdc.kernel_calls",),
    "dispersionopt": ("dispersionopt.chain_evals",),
    "delayscan": ("delayscan.fft_length", "delayscan.vmask_terms"),
    "scenario": ("scenario.build_busy_ms",),
    "cli": ("cli.startup_ms",),
}
# counters that are times, so they do not repeat
EXACT = [name for name in tracing.COUNTERS if not name.endswith("_ms")]


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=600).stdout.splitlines()
    metrics = {k: v["value"] for k, v in json.loads(out[-1])["metrics"].items()}
    per_kind = {}
    for line in out:
        if line.startswith("# counters per "):
            head, _, body = line.partition(" op: ")
            per_kind[head[len("# counters per "):]] = dict(
                (k, float(v)) for k, v in (item.split("=") for item in body.split()))
    return metrics, per_kind


def exact_counts(per_kind):
    return {kind: {c: v for c, v in counts.items() if c in EXACT}
            for kind, counts in per_kind.items()}


def largest_self_time(metrics):
    return max(tracing.LAYERS, key=lambda layer: metrics[f"{layer}.self_ms"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    problems = []
    for name, cls in workloads.WORKLOADS.items():
        first, first_kinds = traced_run(name, args.seed)
        second, second_kinds = traced_run(name, args.seed)
        for counter in EXACT:
            if first[counter] != second[counter]:
                problems.append(f"{name}: {counter} {first[counter]!r} then {second[counter]!r}")
        if exact_counts(first_kinds) != exact_counts(second_kinds):
            problems.append(f"{name}: counters per op kind differ between runs")
        for layer in cls.claims:
            if not any(first[metric] > 0 for metric in EVIDENCE[layer]):
                problems.append(f"{name}: claims {layer} but {EVIDENCE[layer]} are 0")
        if name == "dispersion_sweep":
            if first["spdc.kernel_calls"] != 0:
                problems.append(f"{name}: {first['spdc.kernel_calls']} kernel calls per op")
            if largest_self_time(first) != "dispersionopt":
                problems.append(f"{name}: largest self time is {largest_self_time(first)}")
        if name == "kernel_survey":
            if first["dispersionopt.objective_evals"] != 0:
                problems.append(f"{name}: optimizer ran")
            if largest_self_time(first) != "spdc":
                problems.append(f"{name}: largest self time is {largest_self_time(first)}")
        if name == "paper_fig3":
            fig3a = first_kinds["fig3a"]
            if (fig3a.get("dispersionopt.chain_evals"),
                    fig3a.get("dispersionopt.objective_evals")) != (116, 52):
                problems.append(f"{name}: fig3a op counts {fig3a}")
        print(f"{name}: checked", flush=True)
    for problem in problems:
        print("FAIL", problem)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
