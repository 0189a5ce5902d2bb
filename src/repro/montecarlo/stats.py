"""Array-at-a-time statistics for die-sample reductions.

Campaign reducers hand every (Vcc, scheme) group to this module as
column arrays in die order (one float64 or bool array per result
field), and each statistic is one NumPy reduction over a column:
:func:`moments` (count-normalised mean/std/min/max),
:class:`DiscreteDistribution` (exact nearest-rank percentiles from
value counts — per-die Vccmin lives on the campaign's Vcc grid), and
:func:`wilson_interval`, a confidence interval on yield fractions —
the Wilson score interval, which stays inside [0, 1] and behaves at
the 0%/100% yields small campaigns actually produce.

The weighted variants serve the importance-sampled deep-tail
estimator: :func:`importance_weights` (``exp`` of the per-die log
weights), :func:`weighted_moments`, :class:`WeightedProportion`
(self-normalized probability estimate with delta-method variance and
Kish effective sample size) and :func:`weighted_wilson_interval` (the
Wilson score at an effective sample size).

Reduction contract.  Counts, yields, Wilson bounds on unweighted
yields, min/max, the ESS at unit weights and every Vccmin value are
exact.  Sums are NumPy's pairwise ``np.sum`` over the group's
contiguous float64 column:

* mean ``np.sum(x) / n``; population std ``sqrt(np.sum(d*d) / n)``
  with ``d = x - mean``, and 0.0 below two values;
* weighted mean ``np.sum(w*x) / np.sum(w)`` and std
  ``sqrt(np.sum(d*d*w) / np.sum(w))``, after dropping zero weights;
* indicator sums ``np.sum`` of ``w``, ``w*w`` and their hit-masked
  subsets, with ``w = np.exp(log_weight)``.

Pairwise summation's rounding error grows as O(log n) ulps, against
O(n) for the sequential Welford recursion these functions replace
(kept as the test oracle in ``tests/mc_reduce_oracle.py``; the two
agree to 1e-12 relative).  ``math.fsum`` would round correctly but
costs tens of times more per column than ``np.sum``, which would give
back most of what the column reductions save.  The reducers
concatenate a group's results into one column before summing, so
every block partition of a campaign, per-die results included,
reduces to the same bits.  At unit weights ``w*x`` is ``x`` and
``np.sum(w)`` is the exact die count, so the weighted columns equal
the unweighted ones bit for bit.  Empty columns give NaN moments; a
non-finite or negative weight raises
:class:`~repro.errors.ConfigError` naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.errors import ConfigError

_STANDARD_NORMAL = NormalDist()


def _nan_moments(prefix: str) -> dict[str, float]:
    return {f"{prefix}mean": math.nan, f"{prefix}std": math.nan,
            f"{prefix}min": math.nan, f"{prefix}max": math.nan}


def moments(values: np.ndarray, prefix: str = "") -> dict[str, float]:
    """Mean, population std, min and max of a float64 column as flat
    row columns (NaN for an empty column, std 0.0 below two values)."""
    values = np.asarray(values, dtype=np.float64)
    count = values.size
    if not count:
        return _nan_moments(prefix)
    mean = float(np.sum(values) / count)
    if count < 2:
        std = 0.0
    else:
        squares = values - mean
        squares *= squares  # in place: no second column-sized temporary
        std = math.sqrt(np.sum(squares) / count)
    return {
        f"{prefix}mean": mean,
        f"{prefix}std": std,
        f"{prefix}min": float(values.min()),
        f"{prefix}max": float(values.max()),
    }


def _checked_weights(weights: np.ndarray) -> np.ndarray:
    """``weights`` as float64, or :class:`ConfigError` naming the first
    weight that is not finite and >= 0."""
    weights = np.asarray(weights, dtype=np.float64)
    bad = ~(np.isfinite(weights) & (weights >= 0.0))
    if bad.any():
        weight = float(weights[np.argmax(bad)])
        raise ConfigError(f"weights must be finite and >= 0 "
                          f"(got {weight})")
    return weights


def importance_weights(log_weight: np.ndarray) -> np.ndarray:
    """The per-die importance weights ``exp(log_weight)``, validated.

    A log weight past the float range gives an infinite weight, which
    is rejected like a NaN one rather than overflowing.
    """
    with np.errstate(over="ignore"):
        return _checked_weights(np.exp(log_weight))


def weighted_moments(values: np.ndarray, weights: np.ndarray,
                     prefix: str = "") -> dict[str, float]:
    """Weight-normalised mean, population std, min and max.

    Zero-weight values carry no information and are dropped first;
    with nothing left the columns are NaN, and the std is 0.0 below
    two weighted values, matching :func:`moments`.
    """
    weights = _checked_weights(weights)
    values = np.asarray(values, dtype=np.float64)
    kept = weights != 0.0
    if not kept.all():
        values = values[kept]
        weights = weights[kept]
    if not values.size:
        return _nan_moments(prefix)
    wsum = np.sum(weights)
    mean = float(np.sum(weights * values) / wsum)
    if values.size < 2:
        std = 0.0
    else:
        terms = values - mean
        terms *= terms
        terms *= weights
        std = math.sqrt(np.sum(terms) / wsum)
    return {
        f"{prefix}mean": mean,
        f"{prefix}std": std,
        f"{prefix}min": float(values.min()),
        f"{prefix}max": float(values.max()),
    }


class DiscreteDistribution:
    """Counting distribution over a small set of discrete values.

    Per-die Vccmin takes values on the campaign's Vcc grid, so exact
    percentiles need only a count per grid point.  Counts are kept in
    first-occurrence order of ``values``, which fixes the summation
    order of :attr:`mean` and :attr:`std`.
    """

    __slots__ = ("_counts",)

    def __init__(self, values=()) -> None:
        values = np.asarray(values, dtype=np.float64)
        unique, first, counts = np.unique(values, return_index=True,
                                          return_counts=True)
        order = np.argsort(first)
        self._counts: dict[float, int] = dict(
            zip(unique[order].tolist(), counts[order].tolist()))

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


@dataclass(frozen=True)
class WeightedProportion:
    """Self-normalized importance-sampling estimate of an event
    probability, from the weight sums of :meth:`of`.

    Answers the estimate ``sum(w * hit) / sum(w)``, its delta-method
    variance, the Kish effective sample size ``sum(w)^2 / sum(w^2)``,
    and a clamped normal confidence interval.  With unit weights the
    estimate is exactly ``hits / count`` and the ESS exactly ``count``
    (ratios of exactly-represented float integers), so shift-0
    campaigns reduce identically to the plain counters.
    """

    wsum: float
    w2sum: float
    hit_wsum: float
    hit_w2sum: float

    @classmethod
    def of(cls, hits: np.ndarray, weights: np.ndarray,
           ) -> "WeightedProportion":
        """The sums over a bool ``hits`` column and its weights."""
        weights = _checked_weights(weights)
        hits = np.asarray(hits, dtype=bool)
        squares = weights * weights
        return cls(wsum=float(np.sum(weights)),
                   w2sum=float(np.sum(squares)),
                   hit_wsum=float(np.sum(weights[hits])),
                   hit_w2sum=float(np.sum(squares[hits])))

    @property
    def estimate(self) -> float:
        """The self-normalized probability estimate (NaN when empty)."""
        if self.wsum == 0.0:
            return math.nan
        return self.hit_wsum / self.wsum

    @property
    def ess(self) -> float:
        """Kish effective sample size of the weights."""
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


def _wilson(phat: float, trials: float,
            confidence: float) -> tuple[float, float]:
    """The Wilson score core over a float proportion and trial count.

    ``trials`` may be an exact integer count or a (fractional)
    effective sample size; the integer path is bit-identical to the
    historical all-int formula because int operands convert to float
    exactly before every operation involved.
    """
    z = _STANDARD_NORMAL.inv_cdf(0.5 + confidence / 2.0)
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2.0 * trials)
    spread = z * math.sqrt(phat * (1.0 - phat) / trials
                           + z * z / (4.0 * trials * trials))
    low = (centre - spread) / denom
    high = (centre + spread) / denom
    return (max(0.0, low), min(1.0, high))


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Returns ``(low, high)`` bounds on the true yield given
    ``successes`` out of ``trials``; ``(0.0, 1.0)`` for an empty
    campaign.  Unlike the normal approximation it never leaves [0, 1]
    and stays informative at observed yields of exactly 0 or 1.
    """
    if not 0 < confidence < 1:
        raise ConfigError(
            f"confidence must be in (0, 1), got {confidence}")
    if trials < 0 or successes < 0 or successes > trials:
        raise ConfigError(
            f"wilson_interval needs 0 <= successes <= trials "
            f"(got {successes}/{trials})")
    if trials == 0:
        return (0.0, 1.0)
    return _wilson(successes / trials, trials, confidence)


def weighted_wilson_interval(phat: float, ess: float,
                             confidence: float = 0.95,
                             ) -> tuple[float, float]:
    """Wilson score interval at an *effective* sample size.

    The importance-sampled analogue of :func:`wilson_interval`: the
    self-normalized yield estimate ``phat`` is treated as a binomial
    proportion observed over ``ess`` (Kish) effective trials.  With
    unit weights ``ess`` equals the integer die count exactly and the
    bounds are bit-identical to the unweighted interval.
    """
    if not 0 < confidence < 1:
        raise ConfigError(
            f"confidence must be in (0, 1), got {confidence}")
    if not (math.isfinite(ess) and ess >= 0.0):
        raise ConfigError(f"effective sample size must be finite and "
                          f">= 0 (got {ess})")
    if ess == 0.0:
        # No effective mass at all (e.g. every weight underflowed):
        # the estimate is vacuous, like an empty campaign.
        return (0.0, 1.0)
    if math.isnan(phat) or not 0.0 <= phat <= 1.0:
        raise ConfigError(f"proportion must be in [0, 1] (got {phat})")
    return _wilson(float(phat), float(ess), confidence)
