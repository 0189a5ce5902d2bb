"""Record the committed baseline: every workload, untraced and traced.

    python3 perfbench/record_baseline.py --seed 0 --label "<commit>"

Runs ``run.py`` for each workload with ``--trace 0`` and ``--trace 1``,
for ``BENCHMARK.json``'s ``run_seconds``, and writes to
``perfbench/baseline.json`` the end-to-end medians, the per-layer
numbers, the host (``nproc``, Python version) and the outcome of the
layer predictions the benchmark was designed around (see README.md,
"Predictions").
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS

#: Self-time metrics: each is time spent in one layer and no other.
SELF_TIMES = ("startup.import_s", "experiments.plan_s", "experiments.render_s",
              "workloads.trace_build_s", "memory.warm_s", "pipeline.run_s",
              "montecarlo.sample_s", "montecarlo.evaluate_s",
              "montecarlo.reduce_s", "engine.cache_read_s",
              "engine.cache_write_s", "engine.dispatch_s")
#: Set-up, planning and dispatch (dispatch includes cache I/O).
OVERHEAD = ("startup.import_s", "experiments.plan_s", "engine.dispatch_s")


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()}}


def predictions(records: dict) -> dict:
    layer = {name: record["per_layer"]["metrics"]
             for name, record in records.items()}
    e2e = {name: record["end_to_end"]["metrics"]
           for name, record in records.items()}

    def largest(workload):
        return max(SELF_TIMES, key=lambda name: layer[workload][name])

    def overhead_share(workload):
        return sum(layer[workload][name] for name in OVERHEAD) \
            / e2e[workload]["campaign_s"]

    shares = {name: overhead_share(name) for name in records}
    return {
        "largest_self_time": {name: largest(name) for name in records},
        "pipeline_largest_on_sweep_long":
            largest("sweep-long") == "pipeline.run_s",
        "sampling_largest_on_mc_yield":
            largest("mc-yield") == "montecarlo.sample_s",
        "no_pipeline_on_mc_yield": layer["mc-yield"]["pipeline.runs"] == 0,
        "no_montecarlo_on_trace_workloads": all(
            layer[name]["montecarlo.sample_calls"] == 0
            and layer[name]["montecarlo.evaluate_calls"] == 0
            for name in ("sweep-long", "table1-pool")),
        "overhead_share_of_campaign": shares,
        "overhead_share_larger_on_table1_pool":
            shares["table1-pool"] > shares["sweep-long"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--label", default="",
                        help="what was measured, e.g. the commit id")
    args = parser.parse_args(argv)
    seconds = json.loads(
        (ROOT / "BENCHMARK.json").read_text("utf-8"))["run_seconds"]
    records = {}
    for workload in WORKLOADS:
        records[workload] = {
            "end_to_end": measure(workload, args.seed, seconds, 0),
            "per_layer": measure(workload, args.seed, seconds, 1),
        }
    baseline = {
        "label": args.label,
        "seed": args.seed,
        "run_seconds": seconds,
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": records,
        "predictions": predictions(records),
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
    print(json.dumps(baseline["predictions"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
