"""The benchmark's workloads: inputs generated from the seed, the golden
gate, and the per-run correctness checks.

Every workload is a closed loop: one client process runs one campaign
at a time and starts the next only when the previous one finished.
The seed reaches the program only through the spec files written here.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys

from repro.api import (
    ExperimentSpec,
    ImportanceSpec,
    MonteCarloSpec,
    ParallelRunner,
    ResultCache,
    load_spec,
)
from repro.engine.jobs import job_key
from repro.workloads.profiles import STANDARD_PROFILES

#: Table 1's trace length; sweep-long traces are four times longer.
TABLE1_LENGTH = 2_500
SWEEP_LENGTH = 4 * TABLE1_LENGTH
SWEEP_VCC = (700.0, 650.0, 600.0, 550.0, 500.0, 450.0, 400.0)
YIELD_VCC = (600.0, 550.0, 500.0, 450.0, 400.0)
MC_DIES = 100_000
MC_BLOCK = 8_192
#: The deep-tail acceptance point (p ~ 3e-8 for IRAW at seed 0).
DEEP_TAIL_VCC = 565.0
DEEP_TAIL_SHIFT = 2.0
#: ``benchmarks/is_scaling.py``'s default ESS floor.
ESS_FLOOR = 1000.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: Pool workers; 1 selects the serial backend.
    workers: int
    #: The goldens this workload's runner configuration must reproduce.
    goldens: tuple[str, ...]


WORKLOADS = {
    "sweep-long": Workload("sweep-long", 1, ("fig11b_500mv",)),
    "table1-pool": Workload("table1-pool", 2, ("table1",)),
    "mc-yield": Workload("mc-yield", 1,
                         ("yield_curve_500mv", "deep_tail_500mv")),
}


def seeded_profiles(seed: int):
    """Copies of the six standard families named after the seed.

    ``[population]`` has no seed offset, but the trace generator mixes
    the profile name into its RNG, so renamed copies give new traces
    with the same statistics.
    """
    return tuple(dataclasses.replace(profile, name=f"{profile.name}-s{seed}")
                 for profile in STANDARD_PROFILES)


def campaign_specs(workload: str, seed: int, root: pathlib.Path):
    """The specs one campaign of ``workload`` runs, in order."""
    if workload == "sweep-long":
        custom = seeded_profiles(seed)
        return [ExperimentSpec(
            name=f"sweep-long-s{seed}",
            profiles=tuple(profile.name for profile in custom),
            custom_profiles=custom,
            trace_length=SWEEP_LENGTH,
            vcc_mv=SWEEP_VCC,
            artifacts=("fig11b", "fig12"))]
    if workload == "table1-pool":
        committed = load_spec(root / "examples" / "table1.toml")
        custom = tuple(
            dataclasses.replace(profile, name=f"{profile.name}-s{seed}")
            for profile in committed.profile_objects())
        return [dataclasses.replace(
            committed, name=f"table1-s{seed}",
            profiles=tuple(profile.name for profile in custom),
            custom_profiles=custom)]
    if workload == "mc-yield":
        return [
            ExperimentSpec(
                name=f"yield-s{seed}", profiles=(), vcc_mv=YIELD_VCC,
                montecarlo=MonteCarloSpec(dies=MC_DIES, seed=seed,
                                          block=MC_BLOCK),
                artifacts=("yield_curve", "vccmin_dist")),
            ExperimentSpec(
                name=f"deep-tail-s{seed}", profiles=(),
                vcc_mv=(DEEP_TAIL_VCC,), schemes=("iraw",),
                montecarlo=MonteCarloSpec(
                    dies=MC_DIES, seed=seed, block=MC_BLOCK,
                    importance=ImportanceSpec(shift_sigma=DEEP_TAIL_SHIFT,
                                              ess_warn=0.0)),
                artifacts=("deep_tail",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_specs(workload: str, seed: int, root: pathlib.Path,
                directory: pathlib.Path) -> list[str]:
    """Write the workload's spec files; returns their paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, spec in enumerate(campaign_specs(workload, seed, root)):
        path = directory / f"{index}-{spec.name}.toml"
        spec.save(path)
        paths.append(str(path))
    return paths


def make_runner(workers: int, cache_dir, trace_sink=None) -> ParallelRunner:
    return ParallelRunner(workers=workers, cache=ResultCache(root=cache_dir),
                          trace_sink=trace_sink)


def run_campaign(experiments) -> dict:
    """Run every experiment and render every artifact it lists."""
    rendered = {}
    for experiment in experiments:
        experiment.run()
        rendered[experiment.spec.name] = experiment.artifacts()
    return rendered


# ----------------------------------------------------------------------
# Golden gate
# ----------------------------------------------------------------------

#: How ``tests/test_golden.py`` computes each golden from a runner.
GOLDEN_COMPUTE = {
    "table1": lambda golden, runner:
        golden.compute_artifacts(runner)["table1"],
    "fig11b_500mv": lambda golden, runner:
        golden.compute_artifacts(runner)["fig11b_500mv"],
    "yield_curve_500mv": lambda golden, runner:
        golden.compute_yield_curve(runner),
    "deep_tail_500mv": lambda golden, runner:
        golden.compute_deep_tail(runner),
}


def run_gate(workload: str, root: pathlib.Path,
             cache_dir: pathlib.Path) -> dict[str, list[str]]:
    """Reproduce the workload's goldens through its runner configuration.

    The campaigns, the goldens and the tolerance are the golden suite's
    own (``tests/test_golden.py``), so a change to any of them moves
    this gate too.  Returns the mismatch per golden (empty lists pass).
    """
    sys.path.insert(0, str(root / "tests"))
    import test_golden as golden

    outcome = {}
    workers = WORKLOADS[workload].workers
    for name in WORKLOADS[workload].goldens:
        actual = GOLDEN_COMPUTE[name](golden, make_runner(
            workers, cache_dir / name))
        try:
            golden.assert_matches_golden(actual, golden.load_golden(name),
                                         name)
        except AssertionError as exc:
            outcome[name] = [str(exc)]
        else:
            outcome[name] = []
    return outcome


# ----------------------------------------------------------------------
# Per-run checks
# ----------------------------------------------------------------------

def planned_work(experiments) -> dict:
    """Executable units and simulated work the plans imply.

    Population jobs expand to one shard per trace; every shard
    simulates the whole trace, so the instruction count is fixed by
    the plan.  Die evaluations are dies x grid points x schemes.
    """
    points = set()
    shards = instructions = die_evals = 0
    for experiment in experiments:
        spec = experiment.spec
        for job in experiment.plan():
            key = job_key(job)
            if key in points:
                continue
            points.add(key)
            if job.population is not None:
                traces = len(job.population.trace_specs())
                shards += traces
                instructions += traces * spec.trace_length
        if spec.montecarlo is not None:
            jobs = experiment.mc_jobs()
            shards += len(jobs)
            die_evals += spec.montecarlo.dies * len(spec.grid()) \
                * len(spec.schemes)
    return {"shards": shards, "instructions": instructions,
            "die_evals": die_evals}


def simulated_instructions(experiments) -> int:
    """Instructions of every distinct simulated evaluation point."""
    total = 0
    for experiment in experiments:
        if experiment.results is None:
            continue
        for record in experiment.results.records:
            if record.kind in ("sweep-point", "faulty-bits",
                               "extra-bypass"):
                total += int(record.get("instructions"))
    return total


def campaign_checks(experiments, rendered, stats, planned) -> dict:
    """Correctness checks on one cold pass (name -> passed)."""
    records = [record for experiment in experiments
               for record in experiment.results.records]
    checks = {
        "no_failed_shards": stats.errors == 0,
        "all_planned_shards_simulated": stats.simulated == planned["shards"],
    }
    if planned["instructions"]:
        checks["iraw_violations_zero"] = all(
            record.get("iraw_violations", 0) == 0 for record in records)
        checks["instructions_match_plan"] = \
            simulated_instructions(experiments) == planned["instructions"]
    yields = [record for record in records if record.kind == "mc-yield"]
    if yields:
        checks["yields_in_unit_interval"] = all(
            0.0 <= value <= 1.0 for record in yields
            for name, value in record.metrics if name.endswith("_yield"))
    tails = [row for artifacts in rendered.values()
             for row in artifacts.get("deep_tail", ())]
    if tails:
        checks["deep_tail_fails_in_unit_interval"] = all(
            0.0 <= row[name] <= 1.0 for row in tails
            for name in ("functional_fail", "frequency_fail"))
        checks["deep_tail_ess_floor"] = \
            min(row["ess"] for row in tails) >= ESS_FLOOR
    return checks


def warm_checks(stats, rendered, cold_rendered, records,
                cold_records) -> dict:
    return {
        "warm_simulates_nothing": stats.simulated == 0,
        "warm_rows_equal_cold": rendered == cold_rendered
        and records == cold_records,
    }
