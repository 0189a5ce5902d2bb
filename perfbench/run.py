"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload table1-pool --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each run first reproduces the workload's goldens (untimed), then
measures.  With ``--trace 0`` it starts one fresh client process per
campaign (closed loop, one campaign at a time, each on a fresh cache
directory) until ``--seconds`` have passed, and reports the end-to-end
metrics over those campaigns.  With ``--trace 1`` it runs one untraced and
one traced campaign and reports the per-layer metrics.  The last line
of standard output is the JSON result; a readable summary goes to
standard error.  Metric names and units come from ``BENCHMARK.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

from spans import median

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-long", "table1-pool", "mc-yield")
#: Set-up-only client processes per run, on top of one per campaign.
SETUP_PROBES = 2
#: A campaign may end at most this factor past the ``--seconds`` window.
OVERSHOOT = 1.25
#: Every client process must finish this long after the run started.
RUN_BUDGET_S = 170.0


class Tally:
    """Attempted and failed work units: shards plus correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def campaign(self, result: dict) -> None:
        self.attempted += result["planned"]["shards"]
        self.failed += result["failed_shards"]
        for name, ok in result["checks"].items():
            self.check(name, ok)


def client(command: str, workload: str, args: list, deadline: float):
    """Run one ``campaign.py`` process; its JSON result, or None."""
    env = dict(os.environ)
    for name in ("REPRO_TRACE_DIR", "REPRO_CACHE_MAX_BYTES",
                 "REPRO_QUEUE_DIR"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(ROOT / ".perfbench_work" / "default-cache")
    t0 = time.perf_counter()
    argv = [sys.executable, str(HERE / "campaign.py"), command,
            "--workload", workload, "--t0", repr(t0), *map(str, args)]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        out, err = "", f"{command} timed out\n"
    finally:
        # Its process group holds the client and any pool workers left.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(f"perfbench: {command} failed\n{err[-4000:]}")
        return None
    return json.loads(out.strip().splitlines()[-1])


def timed_metrics(workload, specs, work, seconds, deadline, tally):
    setups, campaigns, warms, rss, planned = [], [], [], [], None

    def probe_setup(count):
        for _ in range(count):
            result = client("setup", workload,
                            ["--specs", *specs, "--cache", work / "probe"],
                            deadline)
            tally.check("setup", result is not None)
            if result is not None:
                setups.append(result["setup_s"])

    start = time.perf_counter()
    # Set-up probes go on both sides of the campaigns, so a slow spell
    # of the host weighs on fewer of them.
    probe_setup(SETUP_PROBES // 2)
    longest = 0.0
    while not campaigns or time.perf_counter() - start < seconds:
        # Start another campaign only if it should end near the window.
        finish = time.perf_counter() + longest
        if campaigns and (finish - start > OVERSHOOT * seconds
                          or finish + 0.5 * longest > deadline):
            break
        began = time.perf_counter()
        cache = work / f"cache-{len(campaigns)}"
        result = client("timed", workload,
                        ["--specs", *specs, "--cache", cache, "--warm"],
                        deadline)
        shutil.rmtree(cache, ignore_errors=True)
        if result is None:
            tally.check("campaign", False)
            break
        longest = max(longest, time.perf_counter() - began)
        tally.campaign(result)
        planned = result["planned"]
        setups.append(result["setup_s"])
        campaigns.append(result["campaign_s"])
        warms.append(min(result["warm_s"]))
        rss.append(result["peak_rss_mb"])
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    if not campaigns:
        return None
    sys.stderr.write("perfbench samples " + json.dumps(
        {"setup_s": setups, "campaign_s": campaigns, "warm_s": warms})
        + "\n")
    # Warm passes repeat identical work, and interference only adds
    # time: the fastest of the run estimates their cost (README.md).
    return {"setup_s": median(setups), "campaign_s": median(campaigns),
            "warm_s": min(warms), "peak_rss_mb": median(rss),
            "_campaigns": len(campaigns), "_planned": planned}


def traced_metrics(workload, specs, work, deadline, tally):
    reference = client("timed", workload,
                       ["--specs", *specs, "--cache", work / "untraced"],
                       deadline)
    traced = client("traced", workload,
                    ["--specs", *specs, "--cache", work / "traced"],
                    deadline)
    if reference is None or traced is None:
        tally.check("traced-run", False)
        return None
    tally.campaign(reference)
    tally.campaign(traced)
    tally.check("traced_rows_equal_untraced",
                traced["digest"] == reference["digest"])
    metrics = dict(traced["metrics"])
    metrics["obs.trace_overhead_frac"] = \
        traced["campaign_s"] / reference["campaign_s"] - 1.0
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 declared: dict):
    """Gate, then measure; the result object, or None on a broken run."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    tally = Tally()
    try:
        prepared = client("prepare", workload,
                          ["--seed", seed, "--work", work], deadline)
        if prepared is None:
            return None
        for name, misses in prepared["gate"].items():
            tally.check(f"golden:{name}", not misses)
            for miss in misses[:5]:
                sys.stderr.write(f"perfbench: golden mismatch {miss}\n")
        specs = prepared["specs"]
        if trace:
            measured = traced_metrics(workload, specs, work, deadline, tally)
        else:
            measured = timed_metrics(workload, specs, work, seconds,
                                     deadline, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    if measured is None:
        return None
    names = declared["per_layer" if trace else "end_to_end"]
    missing = sorted(set(names) - set(measured))
    if missing:
        sys.stderr.write(f"perfbench: metrics not measured: {missing}\n")
        return None
    summarize(workload, seed, measured, names, tally)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": measured[name], "unit": unit}
                        for name, unit in names.items()}}


def summarize(workload, seed, measured, names, tally) -> None:
    """The readable report: every metric with its unit, and throughput."""
    lines = [f"== {workload} (seed {seed})"]
    lines += [f"  {name:<34} {measured[name]:>16.6g} {unit}"
              for name, unit in names.items()]
    planned = measured.get("_planned")
    if planned:
        lines.append(f"  {'campaigns measured':<34} "
                     f"{measured['_campaigns']:>16}")
        for key, label in (("instructions", "sim_instr_per_s instr/s"),
                           ("die_evals", "dies_per_s die-evals/s")):
            if planned[key]:
                name, unit = label.split()
                lines.append(f"  {name:<34} "
                             f"{planned[key] / measured['campaign_s']:>16.6g}"
                             f" {unit}")
    lines.append(f"  {'failed_frac':<34} "
                 f"{tally.failed / max(1, tally.attempted):>16.6g} ratio "
                 f"({tally.failed}/{tally.attempted}"
                 f"{': ' + ', '.join(tally.failures) if tally.failures else ''})")
    sys.stderr.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its client processes (see client()).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    benchmark = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not benchmark.is_file():
        sys.stderr.write("perfbench: run from a checkout holding "
                         "src/repro and BENCHMARK.json\n")
        return 2
    spec = json.loads(benchmark.read_text("utf-8"))
    declared = {kind: {metric["name"]: metric["unit"]
                       for metric in spec[kind]}
                for kind in ("end_to_end", "per_layer")}

    status = 0
    for workload in WORKLOADS if args.workload == "all" \
            else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), declared)
        if result is None:
            status = 1
            continue
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
