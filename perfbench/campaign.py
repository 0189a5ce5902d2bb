"""One benchmark client process: prepares inputs, or runs one campaign.

``run.py`` starts this script once per measurement so that every
campaign begins in a fresh process, pays the import cost a CLI
invocation pays, and reports its own peak memory::

    campaign.py prepare --workload W --seed N --work DIR
    campaign.py setup   --workload W --specs A.toml [B.toml] --cache DIR --t0 T
    campaign.py timed   --workload W --specs ... --cache DIR --t0 T [--warm]
    campaign.py traced  --workload W --specs ... --cache DIR --t0 T

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (a system-wide monotonic clock on Linux), so set-up time
includes interpreter start and ``import repro``.  The result is one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import resource
import sys
import time

from spans import MemorySink, SpanRecorder, dispatch_metrics, layer_totals

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Warm passes repeat on fresh runners until there are ``WARM_PASSES``
#: and they add up to ``WARM_BUDGET_S``.
WARM_PASSES = 2
WARM_BUDGET_S = 1.0

#: Peak resident memory (KiB) of every child reaped so far, by pid.
CHILD_PEAKS: dict[int, int] = {}


def _waitpid(pid, options):
    """``os.waitpid`` that also keeps the reaped child's peak memory.

    Pool workers are forked and reaped through ``os.waitpid``, and only
    the reaping call sees a child's own ``ru_maxrss``.
    """
    reaped, status, usage = os.wait4(pid, options)
    if reaped:
        CHILD_PEAKS[reaped] = usage.ru_maxrss
    return reaped, status


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the sum of its reaped
    children's peaks (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(CHILD_PEAKS.values())) / 1024.0


def digest(rendered) -> str:
    """Fingerprint of every rendered artifact row (floats at full repr)."""
    text = json.dumps(rendered, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def set_up(args, wl, trace_sink=None):
    """Load the specs, build the runner, plan every campaign."""
    from repro.api import Experiment, load_spec

    runner = wl.make_runner(wl.WORKLOADS[args.workload].workers, args.cache,
                            trace_sink=trace_sink)
    experiments = [Experiment(load_spec(path), runner=runner)
                   for path in args.specs]
    for experiment in experiments:
        experiment.plan()
    return runner, experiments


def warm_pass(args, wl, trace_sink=None):
    """The same specs on a fresh runner (empty memo), filled cache."""
    from repro.api import Experiment, load_spec

    runner = wl.make_runner(wl.WORKLOADS[args.workload].workers, args.cache,
                            trace_sink=trace_sink)
    experiments = [Experiment(load_spec(path), runner=runner)
                   for path in args.specs]
    start = time.perf_counter()
    rendered = wl.run_campaign(experiments)
    return time.perf_counter() - start, runner, experiments, rendered


def records_of(experiments):
    return [experiment.results.records for experiment in experiments]


def cmd_prepare(args) -> dict:
    import workloads as wl

    work = pathlib.Path(args.work)
    specs = wl.write_specs(args.workload, args.seed, ROOT, work / "specs")
    gate = wl.run_gate(args.workload, ROOT, work / "gate-cache")
    return {"specs": specs, "gate": gate}


def cmd_setup(args) -> dict:
    import workloads as wl

    set_up(args, wl)
    return {"setup_s": time.perf_counter() - args.t0}


def cmd_timed(args) -> dict:
    import workloads as wl

    runner, experiments = set_up(args, wl)
    setup_s = time.perf_counter() - args.t0
    planned = wl.planned_work(experiments)
    start = time.perf_counter()
    rendered = wl.run_campaign(experiments)
    campaign_s = time.perf_counter() - start
    checks = wl.campaign_checks(experiments, rendered, runner.stats, planned)
    result = {"setup_s": setup_s, "campaign_s": campaign_s,
              "planned": planned, "failed_shards": runner.stats.errors,
              "checks": checks, "digest": digest(rendered)}
    if args.warm:
        # A warm pass lasts from milliseconds to a second: short ones
        # repeat, and the run keeps the fastest.
        gc.collect()
        warm = []
        while len(warm) < WARM_PASSES or sum(warm) < WARM_BUDGET_S:
            warm_s, warm_runner, warm_experiments, warm_rendered = \
                warm_pass(args, wl)
            warm.append(warm_s)
            for name, ok in wl.warm_checks(
                    warm_runner.stats, warm_rendered, rendered,
                    records_of(warm_experiments),
                    records_of(experiments)).items():
                checks[name] = checks.get(name, True) and ok
            # Free this pass before the next one, so the peak memory
            # does not grow with the number of passes.
            del warm_runner, warm_experiments, warm_rendered
        result["warm_s"] = warm
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def install_wrappers(recorder: SpanRecorder) -> None:
    """Time every layer at its public boundary."""
    import numpy as np

    from repro.engine import executors
    from repro.engine.cache import ResultCache
    from repro.engine.jobs import TraceSpec
    from repro.experiments import experiment as experiment_module
    from repro.experiments.experiment import Experiment
    from repro.montecarlo import campaign, importance, sampling
    from repro.pipeline.core import InOrderCore

    def simulation(args, result):
        stalls = result.stalls
        counts = {"instructions": result.instructions,
                  "cycles": result.cycles,
                  "stall_cycles": stalls.total_stall_cycles,
                  "injected_noops": stalls.injected_noops,
                  "iraw_violations": result.iraw_violations}
        for reason, cycles in stalls.cycles.items():
            counts[f"stall.{reason.value}"] = cycles
        return counts

    recorder.wrap(Experiment, "plan", "experiments.plan",
                  lambda args, jobs: {"jobs": len(jobs)})
    recorder.wrap(Experiment, "artifact", "experiments.render")
    recorder.wrap(TraceSpec, "build", "workloads.trace_build")
    recorder.wrap(executors, "warm_caches", "memory.warm")
    recorder.wrap(InOrderCore, "run", "pipeline.run", simulation)
    recorder.wrap(sampling.DieBlock, "build", "montecarlo.sample",
                  lambda args, sample: {"dies": args[0].dies})
    recorder.wrap(sampling, "evaluate_block", "montecarlo.evaluate",
                  lambda args, block: {
                      "dies": block.dies,
                      "functional_fails": int(
                          np.count_nonzero(~block.functional))})
    recorder.wrap(campaign, "yield_curve_rows", "montecarlo.reduce")
    recorder.wrap(campaign, "vccmin_rows", "montecarlo.reduce")
    recorder.wrap(experiment_module, "yield_curve_rows", "montecarlo.reduce")
    recorder.wrap(importance, "deep_tail_rows", "montecarlo.reduce",
                  lambda args, rows: {"ess_min": min(
                      (row["ess"] for row in rows), default=0.0)})
    recorder.wrap(ResultCache, "get", "engine.cache_read")
    recorder.wrap(ResultCache, "put", "engine.cache_write")


def cmd_traced(args) -> dict:
    start = time.perf_counter()
    import repro.api  # noqa: F401  (the timed import)
    import_s = time.perf_counter() - start
    import workloads as wl
    from repro.pipeline.stats import StallReason

    workers = wl.WORKLOADS[args.workload].workers
    recorder = SpanRecorder()
    install_wrappers(recorder)
    sinks = {"cold": MemorySink(), "warm": MemorySink()}

    recorder.phase = "setup"
    runner, experiments = set_up(args, wl, trace_sink=sinks["cold"])
    recorder.phase = "checks"  # benchmark-side planning, not measured
    planned = wl.planned_work(experiments)
    recorder.phase = "cold"
    start = time.perf_counter()
    rendered = wl.run_campaign(experiments)
    campaign_s = time.perf_counter() - start
    cache_bytes = runner.cache.total_bytes()
    checks = wl.campaign_checks(experiments, rendered, runner.stats, planned)

    recorder.phase = "warm"
    _, warm_runner, warm_experiments, warm_rendered = warm_pass(
        args, wl, trace_sink=sinks["warm"])
    checks.update(wl.warm_checks(warm_runner.stats, warm_rendered, rendered,
                                 records_of(warm_experiments),
                                 records_of(experiments)))

    # Pool workers run the shards out of the wrappers' reach: split the
    # workloads/memory/pipeline layers on a serial pass over the same
    # shards instead.
    simulate_phase = "cold"
    if workers > 1:
        from repro.api import Experiment

        recorder.phase = simulate_phase = "split"
        split_runner = wl.make_runner(1, pathlib.Path(args.cache) / "split")
        split = [Experiment(experiment.spec, runner=split_runner)
                 for experiment in experiments]
        checks["serial_rows_equal_pool"] = \
            wl.run_campaign(split) == rendered
    recorder.unwrap_all()

    main = {"setup", "cold", "warm"}
    layers = layer_totals(recorder.spans, main)
    simulated = layer_totals(recorder.spans, {simulate_phase})
    pipeline = simulated.get("pipeline.run", {})
    checks["pipeline_iraw_violations_zero"] = \
        pipeline.get("iraw_violations", 0) == 0
    stats = [runner.stats, warm_runner.stats]
    obs_spans = [span for sink in sinks.values() for span in sink.spans]
    dispatch = dispatch_metrics(obs_spans, workers)

    def self_s(table, layer):
        return table.get(layer, {}).get("self_s", 0.0)

    def count(table, layer, name="calls"):
        return table.get(layer, {}).get(name, 0)

    run_s = self_s(simulated, "pipeline.run")
    cycles = count(simulated, "pipeline.run", "cycles")
    instructions = count(simulated, "pipeline.run", "instructions")
    sample_s = self_s(layers, "montecarlo.sample")
    dies_sampled = count(layers, "montecarlo.sample", "dies")
    cache_hits = sum(s.disk_hits for s in stats)
    executed = sum(s.simulated for s in stats)
    metrics = {
        "startup.import_s": import_s,
        "experiments.plan_s": self_s(layers, "experiments.plan"),
        "experiments.jobs_planned": count(layers, "experiments.plan",
                                          "jobs"),
        "experiments.render_s": self_s(layers, "experiments.render"),
        "workloads.trace_build_s": self_s(simulated,
                                          "workloads.trace_build"),
        "workloads.traces_built": count(simulated, "workloads.trace_build"),
        "memory.warm_s": self_s(simulated, "memory.warm"),
        "memory.warm_calls": count(simulated, "memory.warm"),
        "pipeline.run_s": run_s,
        "pipeline.runs": count(simulated, "pipeline.run"),
        "pipeline.instructions": instructions,
        "pipeline.cycles": cycles,
        "pipeline.stall_cycles": count(simulated, "pipeline.run",
                                       "stall_cycles"),
        "pipeline.host_ns_per_cycle": 1e9 * run_s / cycles if cycles else 0.0,
        "pipeline.instr_per_host_s": instructions / run_s if run_s else 0.0,
        "pipeline.injected_noops": count(simulated, "pipeline.run",
                                         "injected_noops"),
        "pipeline.iraw_violations": count(simulated, "pipeline.run",
                                          "iraw_violations"),
    }
    for reason in StallReason:
        metrics[f"pipeline.stall.{reason.value}"] = count(
            simulated, "pipeline.run", f"stall.{reason.value}")
    metrics.update({
        "montecarlo.sample_s": sample_s,
        "montecarlo.sample_calls": count(layers, "montecarlo.sample"),
        "montecarlo.dies_sampled": dies_sampled,
        "montecarlo.sample_dies_per_s":
            dies_sampled / sample_s if sample_s else 0.0,
        "montecarlo.evaluate_s": self_s(layers, "montecarlo.evaluate"),
        "montecarlo.evaluate_calls": count(layers, "montecarlo.evaluate"),
        "montecarlo.die_evals": count(layers, "montecarlo.evaluate", "dies"),
        "montecarlo.reduce_s": self_s(layers, "montecarlo.reduce"),
        "montecarlo.functional_fails": count(layers, "montecarlo.evaluate",
                                             "functional_fails"),
        "montecarlo.ess_min": count(layers, "montecarlo.reduce", "ess_min"),
        "engine.cache_read_s": self_s(layers, "engine.cache_read"),
        "engine.cache_write_s": self_s(layers, "engine.cache_write"),
        "engine.cache_bytes_written": cache_bytes,
        "engine.cache_hits": cache_hits,
        "engine.memo_hits": sum(s.memory_hits for s in stats),
        "engine.hit_ratio": cache_hits / (cache_hits + executed)
        if cache_hits + executed else 0.0,
        "engine.simulated": executed,
        "engine.shards": cache_hits + executed,
        "engine.dispatch_s": dispatch["dispatch_s"],
        "engine.queue_wait_s": dispatch["queue_wait_s"],
        "engine.execute_s": dispatch["execute_s"],
        "engine.worker_util": dispatch["worker_util"],
        "engine.shard_p50_ms": dispatch["shard_p50_ms"],
        "engine.shard_p90_ms": dispatch["shard_p90_ms"],
        "engine.shard_samples": dispatch["shard_samples"],
        "engine.failed": sum(s.errors for s in stats)
        + dispatch["failed_spans"],
        "engine.retried": sum(s.retried for s in stats),
    })
    return {"campaign_s": campaign_s, "planned": planned,
            "failed_shards": runner.stats.errors, "checks": checks,
            "digest": digest(rendered), "metrics": metrics}


COMMANDS = {"prepare": cmd_prepare, "setup": cmd_setup, "timed": cmd_timed,
            "traced": cmd_traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work")
    parser.add_argument("--specs", nargs="+", default=[])
    parser.add_argument("--cache")
    parser.add_argument("--t0", type=float, default=0.0)
    parser.add_argument("--warm", action="store_true",
                        help="follow the campaign with timed warm passes")
    args = parser.parse_args(argv)
    os.waitpid = _waitpid
    result = COMMANDS[args.command](args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
