"""Campaign planning and streaming reduction for die sampling.

:func:`montecarlo_jobs` compiles a :class:`MonteCarloSpec` against a
Vcc grid and scheme list into one flat batch of ``mc-die`` engine jobs
— one per (Vcc, scheme, die), in that nesting order.  Each job's
canonical key derives from the campaign's physics config plus the die
index, so every die at every grid point is an independently cacheable,
dedupable, backend-agnostic unit.

The reducers consume the result sequence *in plan order* and fold it
with streaming accumulators (O(grid x schemes + dies) state):

* :func:`yield_curve_rows` — functional and frequency (top-bin) yield
  per (Vcc, scheme) with Wilson confidence intervals, plus
  frequency-bin statistics of the die population;
* :func:`vccmin_rows` — the per-die Vccmin distribution per scheme
  (the statistical generalisation of the paper's Table 1 margins);
* :func:`per_die_rows` — one row per (scheme, die) with its Vccmin and
  sampled worst-cell sigma, for ResultSet export.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuits.frequency import FrequencySolver
from repro.engine.jobs import Job
from repro.errors import ConfigError
from repro.montecarlo.importance import warn_low_ess
from repro.montecarlo.sampling import DieBlockResult
from repro.montecarlo.spec import MonteCarloSpec
from repro.montecarlo.stats import (
    DiscreteDistribution,
    StreamingStats,
    WeightedIndicator,
    WeightedStats,
    weighted_wilson_interval,
    wilson_interval,
)


def montecarlo_jobs(mc: MonteCarloSpec, grid, schemes,
                    solver: FrequencySolver | None = None) -> list[Job]:
    """The campaign's engine jobs, in plan order.

    Without a block size, one ``mc-die`` job per (Vcc, scheme, die);
    with ``mc.block`` set, one vectorized ``mc-block`` job per
    (Vcc, scheme, contiguous die span) — spans tile ``range(dies)`` in
    order, so plan order is die order either way and the reducers
    consume both shapes identically.

    The solver's delay model and nominal frequency ride in the job
    options exactly as sweep points key them, so a recalibration
    invalidates die samples and population points alike.
    """
    grid = tuple(float(vcc) for vcc in grid)
    schemes = tuple(str(scheme) for scheme in schemes)
    if not grid:
        raise ConfigError("a montecarlo campaign needs a Vcc grid")
    if not schemes:
        raise ConfigError("a montecarlo campaign needs clock schemes")
    solver = solver or FrequencySolver()
    base_options = (
        ("mc", mc.config()),
        ("delay_model", solver.delay_model),
        ("nominal_frequency_mhz", solver.nominal_frequency_mhz),
    )
    if mc.block is not None:
        spans = [(start, min(mc.block, mc.dies - start))
                 for start in range(0, mc.dies, mc.block)]
        return [
            Job(kind="mc-block", vcc_mv=vcc, scheme=scheme,
                options=base_options + (("die_start", start),
                                        ("dies", count)))
            for vcc in grid
            for scheme in schemes
            for start, count in spans
        ]
    return [
        Job(kind="mc-die", vcc_mv=vcc, scheme=scheme,
            options=base_options + (("die", die),))
        for vcc in grid
        for scheme in schemes
        for die in range(mc.dies)
    ]


def _result_dies(result) -> int:
    """How many dies one result item carries (block vs single die)."""
    return result.dies if isinstance(result, DieBlockResult) else 1


def _grouped(results, grid, schemes, dies: int):
    """Yield ``(vcc, scheme, one_group_list)`` in plan order.

    Items are either per-die results or whole :class:`DieBlockResult`
    batches; a group is complete once its items cover ``dies`` dies.
    Groups are materialized one at a time (tiny), so a partially
    consumed group can never shift later (vcc, scheme) labels, and a
    results sequence that does not match the campaign shape fails with
    an explicit error instead of a mid-stream ``StopIteration``.
    """
    iterator = iter(results)
    for vcc in grid:
        for scheme in schemes:
            group = []
            covered = 0
            while covered < dies:
                item = next(iterator, None)
                if item is None:
                    break
                group.append(item)
                covered += _result_dies(item)
            if covered != dies:
                raise ConfigError(
                    f"montecarlo reduction expected {dies} die results "
                    f"for ({vcc:g} mV, {scheme}), got {covered}")
            yield vcc, scheme, group
    leftover = next(iterator, None)
    if leftover is not None:
        raise ConfigError(
            "montecarlo reduction got more results than "
            f"{len(grid)} Vcc x {len(schemes)} schemes x {dies} dies — "
            "dies count does not match the campaign that produced them")


def yield_curve_rows(results, grid, schemes, dies: int,
                     confidence: float = 0.95,
                     importance=None) -> list[dict]:
    """Functional and frequency yield per (Vcc, scheme), streaming.

    ``results`` must be the :func:`montecarlo_jobs` results in plan
    order (the runner returns them that way).  With ``importance`` set
    (the spec's ``[montecarlo.importance]`` section, duck-typed to its
    ``ess_warn`` threshold) each row additionally carries the
    importance-sampled columns: self-normalized weighted yields with
    Wilson intervals at the Kish effective sample size, the ESS
    diagnostics, and weighted frequency/slowdown moments.  At shift 0
    every weight is exactly 1.0 and the weighted columns are
    bit-identical to their unweighted counterparts.
    """
    weighted = importance is not None
    rows = []
    for vcc, scheme, group in _grouped(results, grid, schemes, dies):
        functional = meets = 0
        frequency = StreamingStats()
        slowdown = StreamingStats()
        if weighted:
            w_functional = WeightedIndicator()
            w_meets = WeightedIndicator()
            w_frequency = WeightedStats()
            w_slowdown = WeightedStats()
        for result in group:
            if isinstance(result, DieBlockResult):
                # Counts are order-free exact sums; the Welford streams
                # consume the arrays in die order, bit-identical to
                # per-die add() calls.
                functional += int(result.functional.sum())
                meets += int(result.meets_design.sum())
                frequency.extend(result.die_frequency_mhz.tolist())
                slowdown.extend(result.slowdown.tolist())
                if weighted:
                    values = zip(result.functional.tolist(),
                                 result.meets_design.tolist(),
                                 result.die_frequency_mhz.tolist(),
                                 result.slowdown.tolist(),
                                 result.log_weight.tolist())
                    for is_f, is_m, freq, slow, log_weight in values:
                        weight = math.exp(log_weight)
                        w_functional.add(is_f, weight)
                        w_meets.add(is_m, weight)
                        w_frequency.add(freq, weight)
                        w_slowdown.add(slow, weight)
            else:
                functional += bool(result.functional)
                meets += bool(result.meets_design)
                frequency.add(result.die_frequency_mhz)
                slowdown.add(result.slowdown)
                if weighted:
                    weight = math.exp(result.log_weight)
                    w_functional.add(bool(result.functional), weight)
                    w_meets.add(bool(result.meets_design), weight)
                    w_frequency.add(result.die_frequency_mhz, weight)
                    w_slowdown.add(result.slowdown, weight)
        f_low, f_high = wilson_interval(functional, dies, confidence)
        d_low, d_high = wilson_interval(meets, dies, confidence)
        row = {
            "vcc_mv": float(vcc),
            "scheme": str(scheme),
            "dies": dies,
            "functional_yield": functional / dies,
            "functional_low": f_low,
            "functional_high": f_high,
            "frequency_yield": meets / dies,
            "frequency_low": d_low,
            "frequency_high": d_high,
            **frequency.as_dict("frequency_mhz_"),
            "slowdown_mean": slowdown.mean,
            "slowdown_max": slowdown.maximum,
        }
        if weighted:
            ess = w_functional.ess
            warn_low_ess(ess, dies, importance.ess_warn, vcc, scheme)
            wf_low, wf_high = weighted_wilson_interval(
                w_functional.estimate, ess, confidence)
            wd_low, wd_high = weighted_wilson_interval(
                w_meets.estimate, ess, confidence)
            row.update({
                "weighted_functional_yield": w_functional.estimate,
                "weighted_functional_low": wf_low,
                "weighted_functional_high": wf_high,
                "weighted_frequency_yield": w_meets.estimate,
                "weighted_frequency_low": wd_low,
                "weighted_frequency_high": wd_high,
                "ess": ess,
                "ess_fraction": ess / dies,
                "weighted_frequency_mhz_mean": w_frequency.mean,
                "weighted_slowdown_mean": w_slowdown.mean,
            })
        rows.append(row)
    return rows


def _fold_vccmin(results, grid, schemes, dies: int,
                 with_sigma: bool = False):
    """Per-scheme Vccmin lists (index = die), plus the worst sigmas.

    A die's Vccmin is the lowest grid Vcc where it is functional; a die
    functional nowhere on the grid is *censored* (``None``) and is
    reported as a count, not a fake number.  State is O(dies) per
    scheme — the per-point results are consumed as a stream, blocks
    through their functional indices.  ``with_sigma`` also collects
    each die's worst sigma (vcc-independent, so the first grid point
    supplies it); otherwise the second value is ``None``.
    """
    best = {str(s): np.full(dies, math.inf) for s in schemes}
    sigma = [0.0] * dies if with_sigma else None
    first_group = True
    for vcc, scheme, group in _grouped(results, grid, schemes, dies):
        per_die = best[str(scheme)]
        vcc = float(vcc)
        die = 0  # plan order = die order, blocks included
        for result in group:
            if isinstance(result, DieBlockResult):
                span = slice(die, die + result.dies)
                if first_group and with_sigma:
                    sigma[span] = result.worst_sigma.tolist()
                functional = np.flatnonzero(result.functional) + die
                per_die[functional] = np.minimum(per_die[functional], vcc)
                die += result.dies
                continue
            if first_group and with_sigma:
                sigma[die] = result.worst_sigma
            if result.functional and vcc < per_die[die]:
                per_die[die] = vcc
            die += 1
        first_group = False
    vccmin = {scheme: [None if value == math.inf else value
                       for value in values.tolist()]
              for scheme, values in best.items()}
    return vccmin, sigma


def vccmin_rows(results, grid, schemes, dies: int) -> list[dict]:
    """Per-scheme Vccmin distribution rows (mean/std/percentiles)."""
    vccmin, _ = _fold_vccmin(results, grid, schemes, dies)
    floor = min(float(v) for v in grid)
    rows = []
    for scheme in schemes:
        distribution = DiscreteDistribution()
        censored = 0
        at_floor = 0
        for value in vccmin[str(scheme)]:
            if value is None:
                censored += 1
                continue
            distribution.add(value)
            at_floor += value <= floor
        rows.append({
            "scheme": str(scheme),
            "dies": dies,
            "censored": censored,
            "vccmin_mean_mv": distribution.mean,
            "vccmin_std_mv": distribution.std,
            "vccmin_p10_mv": distribution.percentile(10.0),
            "vccmin_p50_mv": distribution.percentile(50.0),
            "vccmin_p90_mv": distribution.percentile(90.0),
            "vccmin_min_mv": distribution.minimum,
            "vccmin_max_mv": distribution.maximum,
            "yield_at_floor": at_floor / dies,
        })
    return rows


def per_die_rows(results, grid, schemes, dies: int) -> list[dict]:
    """One flat row per (scheme, die): Vccmin + sampled identity.

    A censored die (functional nowhere on the grid) exports
    ``vccmin_mv = None`` — ``null`` in JSON, an empty CSV cell — never
    a NaN token that would make the JSON export unparseable.
    """
    vccmin, sigma = _fold_vccmin(results, grid, schemes, dies,
                                 with_sigma=True)
    return [
        {
            "scheme": str(scheme),
            "die": die,
            "vccmin_mv": value,
            "censored": value is None,
            "worst_sigma": sigma[die],
        }
        for scheme in schemes
        for die, value in enumerate(vccmin[str(scheme)])
    ]
