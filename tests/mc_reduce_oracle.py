"""Reference Monte-Carlo reducers: the per-die Welford loops.

Test-only differential oracle for :mod:`repro.montecarlo.campaign` and
:func:`repro.montecarlo.importance.deep_tail_rows`.  This module keeps,
verbatim, the streaming accumulators (:class:`StreamingStats`,
:class:`WeightedStats`, :class:`WeightedIndicator`, the ``add``-based
:class:`DiscreteDistribution`) and the reducers that folded every die
through them one value at a time, with separate branches for
``mc-block`` results and per-die results.  The production reducers
work on whole column arrays; ``tests/test_mc_reduce.py`` holds them to
this oracle: counts, yields, unweighted Wilson bounds, min/max, ESS at
unit weights and every Vccmin value bit for bit, sums to 1e-12
relative.  Only the Wilson helpers, the ESS warning and the log10
censoring are shared with production code.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from repro.errors import ConfigError
from repro.montecarlo.importance import _log10_or_none, warn_low_ess
from repro.montecarlo.sampling import DieBlockResult
from repro.montecarlo.stats import weighted_wilson_interval, wilson_interval

_STANDARD_NORMAL = NormalDist()


class StreamingStats:
    """Welford one-pass accumulator: count, mean, std, min, max."""

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values) -> None:
        """Fold an iterable of values — bit-identical to repeated
        :meth:`add` in iteration order (the block reducers feed whole
        per-die arrays through here), just without the per-call
        attribute traffic."""
        count = self.count
        mean = self.mean
        m2 = self._m2
        minimum = self.minimum
        maximum = self.maximum
        for value in values:
            value = float(value)
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
        self.count = count
        self.mean = mean
        self._m2 = m2
        self.minimum = minimum
        self.maximum = maximum

    @property
    def std(self) -> float:
        """Population standard deviation (0.0 below two samples)."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / self.count)

    def as_dict(self, prefix: str = "") -> dict[str, float]:
        """The accumulated moments as flat row columns."""
        if not self.count:
            return {f"{prefix}mean": math.nan, f"{prefix}std": math.nan,
                    f"{prefix}min": math.nan, f"{prefix}max": math.nan}
        return {
            f"{prefix}mean": self.mean,
            f"{prefix}std": self.std,
            f"{prefix}min": self.minimum,
            f"{prefix}max": self.maximum,
        }


class DiscreteDistribution:
    """Counting distribution over a small set of discrete values.

    Per-die Vccmin takes values on the campaign's Vcc grid, so exact
    percentiles need only a counter per grid point — never a list of
    samples.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[float, int] = {}

    def add(self, value: float) -> None:
        value = float(value)
        self._counts[value] = self._counts.get(value, 0) + 1

    @property
    def count(self) -> int:
        return sum(self._counts.values())

    @property
    def mean(self) -> float:
        total = self.count
        if not total:
            return math.nan
        return sum(v * n for v, n in self._counts.items()) / total

    @property
    def std(self) -> float:
        total = self.count
        if total < 2:
            return 0.0 if total else math.nan
        mean = self.mean
        return math.sqrt(sum(n * (v - mean) ** 2
                             for v, n in self._counts.items()) / total)

    def percentile(self, p: float) -> float:
        """Exact nearest-rank percentile (``p`` in [0, 100])."""
        if not 0 <= p <= 100:
            raise ConfigError(f"percentile must be in [0, 100], got {p}")
        total = self.count
        if not total:
            return math.nan
        rank = max(1, math.ceil(p / 100.0 * total))
        seen = 0
        for value in sorted(self._counts):
            seen += self._counts[value]
            if seen >= rank:
                return value
        return max(self._counts)  # pragma: no cover - defensive

    @property
    def minimum(self) -> float:
        return min(self._counts) if self._counts else math.nan

    @property
    def maximum(self) -> float:
        return max(self._counts) if self._counts else math.nan


class WeightedStats:
    """Weighted Welford accumulator (West's algorithm).

    With every weight exactly 1.0 the update degenerates bit for bit to
    :class:`StreamingStats` — the operation order is chosen so
    ``delta * 1.0 / wsum`` and ``delta * 1.0 * (value - mean)`` reduce
    to the unweighted expressions exactly — which is what lets the
    importance-sampled reducers reuse one code path and still match the
    brute-force goldens at shift 0.  Zero-weight observations are
    skipped entirely (they carry no information and would only risk a
    0/0 on the first add).
    """

    __slots__ = ("count", "wsum", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.wsum = 0.0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float, weight: float) -> None:
        value = float(value)
        weight = float(weight)
        if not (math.isfinite(weight) and weight >= 0.0):
            raise ConfigError(f"weights must be finite and >= 0 "
                              f"(got {weight})")
        if weight == 0.0:
            return
        self.count += 1
        self.wsum += weight
        delta = value - self.mean
        self.mean += delta * weight / self.wsum
        self._m2 += delta * weight * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def std(self) -> float:
        """Weight-normalised population standard deviation (0.0 below
        two counted samples, matching :class:`StreamingStats`)."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / self.wsum)

    def as_dict(self, prefix: str = "") -> dict[str, float]:
        """The accumulated moments as flat row columns."""
        if not self.count:
            return {f"{prefix}mean": math.nan, f"{prefix}std": math.nan,
                    f"{prefix}min": math.nan, f"{prefix}max": math.nan}
        return {
            f"{prefix}mean": self.mean,
            f"{prefix}std": self.std,
            f"{prefix}min": self.minimum,
            f"{prefix}max": self.maximum,
        }


class WeightedIndicator:
    """Self-normalized importance-sampling estimator of an event
    probability.

    Accumulates ``(hit, weight)`` observations and answers the
    self-normalized estimate ``sum(w * hit) / sum(w)``, its
    delta-method variance, the Kish effective sample size
    ``sum(w)^2 / sum(w^2)``, and a clamped normal confidence interval.
    With unit weights the estimate is exactly ``hits / count`` and the
    ESS exactly ``count`` (both ratios of exactly-represented float
    integers), so shift-0 campaigns reduce identically to the plain
    counters.
    """

    __slots__ = ("count", "wsum", "w2sum", "hit_wsum", "hit_w2sum")

    def __init__(self) -> None:
        self.count = 0
        self.wsum = 0.0
        self.w2sum = 0.0
        self.hit_wsum = 0.0
        self.hit_w2sum = 0.0

    def add(self, hit: bool, weight: float) -> None:
        weight = float(weight)
        if not (math.isfinite(weight) and weight >= 0.0):
            raise ConfigError(f"weights must be finite and >= 0 "
                              f"(got {weight})")
        self.count += 1
        self.wsum += weight
        self.w2sum += weight * weight
        if hit:
            self.hit_wsum += weight
            self.hit_w2sum += weight * weight

    @property
    def estimate(self) -> float:
        """The self-normalized probability estimate (NaN when empty)."""
        if self.wsum == 0.0:
            return math.nan
        return self.hit_wsum / self.wsum

    @property
    def ess(self) -> float:
        """Kish effective sample size of the accumulated weights."""
        if self.w2sum == 0.0:
            return 0.0
        return self.wsum * self.wsum / self.w2sum

    def variance(self) -> float:
        """Delta-method variance of the self-normalized estimate:
        ``sum(w_i^2 * (hit_i - p)^2) / sum(w)^2``."""
        if self.wsum == 0.0:
            return math.nan
        p = self.estimate
        miss_w2 = self.w2sum - self.hit_w2sum
        return (self.hit_w2sum * (1.0 - p) * (1.0 - p)
                + miss_w2 * p * p) / (self.wsum * self.wsum)

    def interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """Delta-method normal interval, clamped to [0, 1]."""
        if not 0 < confidence < 1:
            raise ConfigError(
                f"confidence must be in (0, 1), got {confidence}")
        if self.wsum == 0.0:
            return (0.0, 1.0)
        z = _STANDARD_NORMAL.inv_cdf(0.5 + confidence / 2.0)
        half = z * math.sqrt(max(self.variance(), 0.0))
        p = self.estimate
        return (max(0.0, p - half), min(1.0, p + half))


# ----------------------------------------------------------------------
# Reducers (campaign.py and importance.py before array-at-a-time)
# ----------------------------------------------------------------------

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


def deep_tail_rows(results, grid, schemes, dies: int, importance,
                   confidence: float = 0.95) -> list[dict]:
    """Per-(Vcc, scheme) deep-tail failure probabilities, streaming.

    The importance-sampled counterpart of
    :func:`repro.montecarlo.campaign.yield_curve_rows`, reporting the
    *failure* side of the distribution: self-normalized functional and
    top-bin failure probabilities with delta-method intervals, their
    log10 magnitudes (``None`` where no failure mass was observed),
    and the ESS diagnostics that qualify them.  ``results`` must be
    the campaign results in plan order; per-die and ``mc-block``
    shapes reduce identically (weights are ``exp`` of the bit-equal
    per-die log weights, folded in die order).
    """
    if importance is None:
        raise ConfigError("deep_tail needs a [montecarlo.importance] "
                          "section")
    rows = []
    for vcc, scheme, group in _grouped(results, grid, schemes, dies):
        functional = WeightedIndicator()
        meets = WeightedIndicator()
        for result in group:
            if isinstance(result, DieBlockResult):
                values = zip(result.functional.tolist(),
                             result.meets_design.tolist(),
                             result.log_weight.tolist())
                for is_functional, meets_design, log_weight in values:
                    weight = math.exp(log_weight)
                    functional.add(not is_functional, weight)
                    meets.add(not meets_design, weight)
            else:
                weight = math.exp(result.log_weight)
                functional.add(not result.functional, weight)
                meets.add(not result.meets_design, weight)
        ess = functional.ess
        warn_low_ess(ess, dies, importance.ess_warn, vcc, scheme)
        f_low, f_high = functional.interval(confidence)
        m_low, m_high = meets.interval(confidence)
        rows.append({
            "vcc_mv": float(vcc),
            "scheme": str(scheme),
            "dies": dies,
            "ess": ess,
            "ess_fraction": ess / dies,
            "functional_fail": functional.estimate,
            "functional_fail_low": f_low,
            "functional_fail_high": f_high,
            "log10_functional_fail":
                _log10_or_none(functional.estimate),
            "frequency_fail": meets.estimate,
            "frequency_fail_low": m_low,
            "frequency_fail_high": m_high,
            "log10_frequency_fail": _log10_or_none(meets.estimate),
        })
    return rows
