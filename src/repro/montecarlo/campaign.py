"""Campaign planning and array-at-a-time reduction for die sampling.

:func:`montecarlo_jobs` compiles a :class:`MonteCarloSpec` against a
Vcc grid and scheme list into the campaign's engine jobs in plan
order: one vectorized ``mc-block`` job per (Vcc, scheme, contiguous die
span of ``block`` dies), so the default block of 1 is one job per die.
Each job's canonical key derives from the campaign's physics config
plus its span, so every unit is independently cacheable, dedupable
and backend-agnostic.

The reducers consume the result sequence *in plan order*, one
(Vcc, scheme) group at a time: :func:`_grouped` turns each group into
:class:`DieColumns` (block arrays concatenated in die order), and
every statistic is a NumPy reduction over those columns under the
contract documented in :mod:`repro.montecarlo.stats`:

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
from repro.montecarlo.spec import MonteCarloSpec
from repro.montecarlo.stats import (
    DiscreteDistribution,
    WeightedProportion,
    importance_weights,
    moments,
    weighted_moments,
    weighted_wilson_interval,
    wilson_interval,
)


def montecarlo_jobs(mc: MonteCarloSpec, grid, schemes,
                    solver: FrequencySolver | None = None) -> list[Job]:
    """The campaign's engine jobs, in plan order.

    One vectorized ``mc-block`` job per (Vcc, scheme, contiguous die
    span of ``mc.block`` dies) — spans tile ``range(dies)`` in order,
    so plan order is die order at every block size, and a block of 1
    is one job per die.

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


class DieColumns:
    """One (Vcc, scheme) group's results, read as die-order columns.

    ``columns[name]`` is one
    :class:`~repro.montecarlo.sampling.DieBlockResult` array over the
    whole group, the block arrays concatenated in die order.  Every
    read gathers a fresh array, so a reducer holds only the columns it
    is working on (a 100k-die float column is 800 KB), never the
    group's full set.
    """

    def __init__(self, group: list) -> None:
        self._group = group

    def __getitem__(self, name: str) -> np.ndarray:
        return np.concatenate([getattr(block, name)
                               for block in self._group])


def _grouped(results, grid, schemes, dies: int):
    """Yield ``(vcc, scheme, DieColumns)`` in plan order.

    Items are :class:`~repro.montecarlo.sampling.DieBlockResult`
    batches; a group is complete once its blocks cover ``dies`` dies.
    Groups are gathered and reduced one at a time, so only one group's
    columns are alive at once, a partially consumed group can never
    shift later (vcc, scheme) labels, and a results sequence that does
    not match the campaign shape fails with an explicit error instead
    of a mid-stream ``StopIteration``.
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
                covered += item.dies
            if covered != dies:
                raise ConfigError(
                    f"montecarlo reduction expected {dies} die results "
                    f"for ({vcc:g} mV, {scheme}), got {covered}")
            yield vcc, scheme, DieColumns(group)
    leftover = next(iterator, None)
    if leftover is not None:
        raise ConfigError(
            "montecarlo reduction got more results than "
            f"{len(grid)} Vcc x {len(schemes)} schemes x {dies} dies — "
            "dies count does not match the campaign that produced them")


def yield_curve_rows(results, grid, schemes, dies: int,
                     confidence: float = 0.95,
                     importance=None) -> list[dict]:
    """Functional and frequency yield per (Vcc, scheme).

    ``results`` must be the :func:`montecarlo_jobs` results in plan
    order (the runner returns them that way).  With ``importance`` set
    (the spec's ``[montecarlo.importance]`` section, duck-typed to its
    ``ess_warn`` threshold) each row additionally carries the
    importance-sampled columns: self-normalized weighted yields with
    Wilson intervals at the Kish effective sample size, the ESS
    diagnostics, and weighted frequency/slowdown means.  At shift 0
    every weight is exactly 1.0 and the weighted columns are
    bit-identical to their unweighted counterparts.
    """
    rows = []
    for vcc, scheme, columns in _grouped(results, grid, schemes, dies):
        functional = int(np.count_nonzero(columns["functional"]))
        meets = int(np.count_nonzero(columns["meets_design"]))
        f_low, f_high = wilson_interval(functional, dies, confidence)
        d_low, d_high = wilson_interval(meets, dies, confidence)
        slowdown = moments(columns["slowdown"])
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
            **moments(columns["die_frequency_mhz"], "frequency_mhz_"),
            "slowdown_mean": slowdown["mean"],
            "slowdown_max": slowdown["max"],
        }
        if importance is not None:
            weights = importance_weights(columns["log_weight"])
            w_functional = WeightedProportion.of(columns["functional"],
                                                 weights)
            w_meets = WeightedProportion.of(columns["meets_design"],
                                            weights)
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
                "weighted_frequency_mhz_mean": weighted_moments(
                    columns["die_frequency_mhz"], weights)["mean"],
                "weighted_slowdown_mean": weighted_moments(
                    columns["slowdown"], weights)["mean"],
            })
        rows.append(row)
    return rows


def _fold_vccmin(results, grid, schemes, dies: int):
    """Per-scheme Vccmin arrays (index = die), plus the worst sigmas.

    A die's Vccmin is the lowest grid Vcc where it is functional; a die
    functional nowhere on the grid is *censored* and keeps the ``inf``
    sentinel, which the row builders report as a count or ``None``,
    never as a number.  The worst sigmas (vcc-independent, so the
    first group supplies them) are the die-order ``worst_sigma``
    column.
    """
    best = {str(s): np.full(dies, math.inf) for s in schemes}
    sigma = None
    for vcc, scheme, columns in _grouped(results, grid, schemes, dies):
        if sigma is None:
            sigma = columns["worst_sigma"]
        per_die = best[str(scheme)]
        np.minimum(per_die, np.where(columns["functional"], float(vcc),
                                     math.inf), out=per_die)
    return best, sigma


def vccmin_rows(results, grid, schemes, dies: int) -> list[dict]:
    """Per-scheme Vccmin distribution rows (mean/std/percentiles)."""
    vccmin, _ = _fold_vccmin(results, grid, schemes, dies)
    floor = min(float(v) for v in grid)
    rows = []
    for scheme in schemes:
        values = vccmin[str(scheme)]
        observed = values[np.isfinite(values)]
        distribution = DiscreteDistribution(observed)
        rows.append({
            "scheme": str(scheme),
            "dies": dies,
            "censored": dies - observed.size,
            "vccmin_mean_mv": distribution.mean,
            "vccmin_std_mv": distribution.std,
            "vccmin_p10_mv": distribution.percentile(10.0),
            "vccmin_p50_mv": distribution.percentile(50.0),
            "vccmin_p90_mv": distribution.percentile(90.0),
            "vccmin_min_mv": distribution.minimum,
            "vccmin_max_mv": distribution.maximum,
            "yield_at_floor":
                int(np.count_nonzero(observed <= floor)) / dies,
        })
    return rows


def per_die_rows(results, grid, schemes, dies: int) -> list[dict]:
    """One flat row per (scheme, die): Vccmin + sampled identity.

    A censored die (functional nowhere on the grid) exports
    ``vccmin_mv = None`` — ``null`` in JSON, an empty CSV cell — never
    a NaN token that would make the JSON export unparseable.
    """
    vccmin, sigma = _fold_vccmin(results, grid, schemes, dies)
    sigma = sigma.tolist()
    return [
        {
            "scheme": str(scheme),
            "die": die,
            "vccmin_mv": None if value == math.inf else value,
            "censored": value == math.inf,
            "worst_sigma": sigma[die],
        }
        for scheme in schemes
        for die, value in enumerate(vccmin[str(scheme)].tolist())
    ]
