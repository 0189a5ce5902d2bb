"""Differential test: the column reducers vs the per-die Welford oracle.

:mod:`mc_reduce_oracle` keeps the Monte-Carlo reducers as they were
before they became array-at-a-time: every die folded one value at a
time through Welford accumulators, with separate branches for blocks
and per-die results.  Both reduce the same random campaigns here —
1 to 3000 dies, long blocks mixed with runs of one-die blocks (the
per-die plan), proposal shifts 0, 1 and 2, injected zero weights —
under the reduction contract in
:mod:`repro.montecarlo.stats`:

* counts, yields, unweighted Wilson bounds, min/max, every
  ``vccmin_dist`` and ``per_die_rows`` value, and everything derived
  from weights that are all 0 or 1 (ESS and estimates at unit weights)
  are bit-identical to the oracle;
* sums (moments, weighted estimates, ESS, weighted Wilson and
  delta-method bounds) agree to 1e-12 relative;
* any block partition reduces to the same bits, and at shift 0 the
  weighted columns equal the unweighted ones bit for bit.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import mc_reduce_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executors import execute_job
from repro.errors import ConfigError
from repro.montecarlo import ImportanceSpec, MonteCarloSpec, montecarlo_jobs
from repro.montecarlo.campaign import per_die_rows, vccmin_rows, yield_curve_rows
from repro.montecarlo.importance import deep_tail_rows
from repro.montecarlo.sampling import DieBlockResult
from repro.montecarlo.stats import (
    DiscreteDistribution,
    WeightedProportion,
    importance_weights,
    moments,
    weighted_moments,
)

VCC_CHOICES = (600.0, 575.0, 550.0, 500.0, 450.0, 425.0, 400.0)
SCHEMES = ("baseline", "iraw")
#: The reducers' presentation knob: no ESS warning in these tests.
QUIET = SimpleNamespace(ess_warn=0.0)

#: Row fields that are sums over dies (moments): 1e-12 relative.
MOMENT_FIELDS = {"frequency_mhz_mean", "frequency_mhz_std", "slowdown_mean",
                 "weighted_frequency_mhz_mean", "weighted_slowdown_mean"}
#: Row fields built from weight sums: exact when every weight is 0 or
#: 1, 1e-12 relative otherwise.
WEIGHTED_FIELDS = {
    "weighted_functional_yield", "weighted_functional_low",
    "weighted_functional_high", "weighted_frequency_yield",
    "weighted_frequency_low", "weighted_frequency_high", "ess",
    "ess_fraction", "functional_fail", "functional_fail_low",
    "functional_fail_high", "log10_functional_fail", "frequency_fail",
    "frequency_fail_low", "frequency_fail_high", "log10_frequency_fail"}
#: Weighted means of a group whose weights are all zero: the oracle read
#: the accumulator's initial 0.0, the column reducers report NaN like
#: every other moment of an empty column (a declared contract change).
EMPTY_WEIGHTED_MEANS = {"weighted_frequency_mhz_mean",
                        "weighted_slowdown_mean"}


def _block(columns: dict, start: int, stop: int, vcc: float,
           scheme: str) -> DieBlockResult:
    return DieBlockResult(
        die_start=start, dies=stop - start, vcc_mv=vcc, scheme=scheme,
        design_frequency_mhz=1000.0, design_stabilization=0,
        required_stabilization=np.zeros(stop - start, dtype=np.int64),
        **{name: values[start:stop] for name, values in columns.items()})


def make_campaign(seed: int, dies: int, grid, shift: float,
                  zero_weights: float):
    """Random per-group columns: ``{(vcc, scheme): {field: array}}``.

    The worst sigma is a property of the die and shared by every group,
    as in a real campaign; functional/top-bin outcomes follow a random
    slowdown that grows as Vcc falls.  Log weights are the Gaussian
    tilt of :func:`~repro.montecarlo.sampling.shifted_offset` at unit
    sigma ratio (exactly 0.0 at shift 0), with a ``zero_weights``
    fraction of them set to ``-inf`` (weight exactly 0.0).
    """
    rng = np.random.default_rng(seed)
    worst_sigma = rng.normal(5.0, 0.5, dies)
    groups = {}
    for vcc in grid:
        for scheme in SCHEMES:
            slowdown = rng.lognormal(0.0, 0.15, dies) * (600.0 / vcc) ** 0.5
            if shift:
                z = rng.standard_normal(dies)
                log_weight = -shift * (z + shift / 2.0)
            else:
                log_weight = np.zeros(dies)
            log_weight[rng.random(dies) < zero_weights] = -math.inf
            groups[vcc, scheme] = {
                "worst_sigma": worst_sigma,
                "die_frequency_mhz": 1e3 / slowdown,
                "slowdown": slowdown,
                "functional": slowdown <= 1.25,
                "meets_design": slowdown <= 1.0,
                "log_weight": log_weight,
            }
    return groups


def partition(groups: dict, grid, cuts_seed: int, style: str) -> list:
    """The campaign as plan-order results: every group cut into blocks
    and runs of one-die blocks (``style``: one block, all one-die
    blocks, or mixed)."""
    rng = np.random.default_rng(cuts_seed)
    results = []
    for vcc in grid:
        for scheme in SCHEMES:
            columns = groups[vcc, scheme]
            dies = columns["slowdown"].size
            if style == "block":
                results.append(_block(columns, 0, dies, vcc, scheme))
                continue
            if style == "per-die":
                cuts = [0, dies]
            else:
                inner = rng.integers(1, dies, size=min(dies - 1, 6)) \
                    if dies > 1 else []
                cuts = sorted({0, dies, *map(int, inner)})
            for start, stop in zip(cuts, cuts[1:]):
                if style == "per-die" or rng.random() < 0.5:
                    results.extend(_block(columns, die, die + 1, vcc, scheme)
                                   for die in range(start, stop))
                else:
                    results.append(_block(columns, start, stop, vcc,
                                          scheme))
    return results


def reduce_all(module, results, grid, dies) -> dict:
    """Every reducer's rows (yield curve with the weighted columns)."""
    return {
        "yield": module.yield_curve_rows(results, grid, SCHEMES, dies,
                                         0.95, importance=QUIET),
        "vccmin": module.vccmin_rows(results, grid, SCHEMES, dies),
        "per_die": module.per_die_rows(results, grid, SCHEMES, dies),
        "deep": module.deep_tail_rows(results, grid, SCHEMES, dies, QUIET,
                                      0.95),
    }


PRODUCTION = SimpleNamespace(yield_curve_rows=yield_curve_rows,
                             vccmin_rows=vccmin_rows,
                             per_die_rows=per_die_rows,
                             deep_tail_rows=deep_tail_rows)


def _equal(a, b) -> bool:
    """Bit equality that treats NaN as equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def assert_rows_match(actual: list, expected: list, unit_weights: bool,
                      scale: float) -> None:
    """Hold production rows to the oracle under the contract.

    ``scale`` bounds the magnitude of the values behind the moment
    fields: a std whose true value is ~0 can only be compared to an
    absolute error of a few ulps of the values it was computed from.
    """
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert list(got) == list(want)
        for key, value in got.items():
            reference = want[key]
            if key in EMPTY_WEIGHTED_MEANS and want["ess"] == 0.0:
                assert reference == 0.0 and math.isnan(value), key
                continue
            assert type(value) is type(reference), (key, value, reference)
            exact = key not in MOMENT_FIELDS and not (
                key in WEIGHTED_FIELDS and not unit_weights)
            if exact or not isinstance(value, float):
                assert _equal(value, reference), (key, value, reference)
                continue
            if math.isnan(reference):
                assert math.isnan(value), (key, value)
                continue
            abs_tol = 1e-12 * scale if key in MOMENT_FIELDS else 1e-15
            assert math.isclose(value, reference, rel_tol=1e-12,
                                abs_tol=abs_tol), (key, value, reference)


@st.composite
def campaigns(draw):
    dies = draw(st.integers(1, 3000))
    grid = tuple(draw(st.lists(st.sampled_from(VCC_CHOICES), min_size=1,
                               max_size=3, unique=True)))
    return {
        "dies": dies,
        "grid": grid,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "shift": draw(st.sampled_from((0.0, 1.0, 2.0))),
        "zero_weights": draw(st.sampled_from((0.0, 0.1, 1.0))),
        "cuts_seed": draw(st.integers(0, 2**32 - 1)),
        "style": draw(st.sampled_from(("block", "per-die", "mixed"))),
    }


class TestOracleDifferential:
    @given(case=campaigns())
    @settings(max_examples=30, deadline=None)
    def test_rows_match_the_oracle(self, case):
        dies, grid = case["dies"], case["grid"]
        groups = make_campaign(case["seed"], dies, grid, case["shift"],
                               case["zero_weights"])
        results = partition(groups, grid, case["cuts_seed"],
                            case["style"])
        unit_weights = case["shift"] == 0.0
        scale = max(float(np.max(np.abs(columns[name])))
                    for columns in groups.values()
                    for name in ("die_frequency_mhz", "slowdown"))
        expected = reduce_all(oracle, results, grid, dies)
        actual = reduce_all(PRODUCTION, results, grid, dies)
        for name in expected:
            assert_rows_match(actual[name], expected[name], unit_weights,
                              scale)
        unweighted = yield_curve_rows(results, grid, SCHEMES, dies, 0.95)
        assert_rows_match(unweighted,
                          oracle.yield_curve_rows(results, grid, SCHEMES,
                                                  dies, 0.95),
                          unit_weights, scale)

    @given(case=campaigns())
    @settings(max_examples=15, deadline=None)
    def test_every_partition_reduces_to_the_same_bits(self, case):
        dies, grid = case["dies"], case["grid"]
        groups = make_campaign(case["seed"], dies, grid, case["shift"],
                               case["zero_weights"])
        reference = repr(reduce_all(PRODUCTION,
                                    partition(groups, grid, 0, "block"),
                                    grid, dies))
        for style in ("per-die", "mixed"):
            results = partition(groups, grid, case["cuts_seed"], style)
            assert repr(reduce_all(PRODUCTION, results, grid,
                                   dies)) == reference

    @given(case=campaigns())
    @settings(max_examples=15, deadline=None)
    def test_shift_zero_weighted_columns_equal_unweighted(self, case):
        dies, grid = case["dies"], case["grid"]
        groups = make_campaign(case["seed"], dies, grid, 0.0, 0.0)
        results = partition(groups, grid, case["cuts_seed"], case["style"])
        for row in yield_curve_rows(results, grid, SCHEMES, dies, 0.95,
                                    importance=QUIET):
            for name in ("functional_yield", "functional_low",
                         "functional_high", "frequency_yield",
                         "frequency_low", "frequency_high",
                         "frequency_mhz_mean", "slowdown_mean"):
                assert row[f"weighted_{name}"] == row[name], name
            assert row["ess"] == float(dies)
            assert row["ess_fraction"] == 1.0


class TestRealCampaigns:
    """The oracle on sampled physics: brute force and the deep tail."""

    @pytest.mark.parametrize("shift, block", [(0.0, None), (0.0, 97),
                                              (2.0, 97)])
    def test_sampled_campaign_matches_the_oracle(self, shift, block):
        grid = (550.0, 450.0)
        dies = 64 if block is None else 1000
        mc = MonteCarloSpec(dies=dies, seed=3, block=block or 1,
                            importance=ImportanceSpec(shift_sigma=shift,
                                                      ess_warn=0.0))
        results = [execute_job(job)
                   for job in montecarlo_jobs(mc, grid, SCHEMES)]
        expected = reduce_all(oracle, results, grid, dies)
        actual = reduce_all(PRODUCTION, results, grid, dies)
        for name in expected:
            assert_rows_match(actual[name], expected[name],
                              unit_weights=shift == 0.0, scale=1e4)


class TestValidationAndEdges:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_bad_log_weights_raise(self, bad):
        groups = make_campaign(0, 8, (500.0,), 1.0, 0.0)
        groups[500.0, "iraw"]["log_weight"][3] = bad
        results = partition(groups, (500.0,), 0, "mixed")
        with pytest.raises(ConfigError, match="weights must be finite"):
            yield_curve_rows(results, (500.0,), SCHEMES, 8,
                             importance=QUIET)
        with pytest.raises(ConfigError, match="weights must be finite"):
            deep_tail_rows(results, (500.0,), SCHEMES, 8, QUIET)
        # The unweighted reduction never reads the weights.
        assert len(yield_curve_rows(results, (500.0,), SCHEMES, 8)) == 2

    def test_overflowing_log_weight_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"\(got inf\)"):
            importance_weights(np.array([0.0, 1000.0]))

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
    def test_bad_weights_raise_naming_the_weight(self, bad):
        weights = np.array([1.0, bad, 2.0])
        with pytest.raises(ConfigError, match=f"got {bad}"):
            weighted_moments(np.zeros(3), weights)
        with pytest.raises(ConfigError, match=f"got {bad}"):
            WeightedProportion.of(np.ones(3, dtype=bool), weights)

    def test_empty_columns_are_nan(self):
        assert all(math.isnan(value) for value in moments([]).values())
        assert all(math.isnan(value) for value
                   in weighted_moments([1.0, 2.0], [0.0, 0.0]).values())
        proportion = WeightedProportion.of(np.array([], dtype=bool), [])
        assert math.isnan(proportion.estimate)
        assert math.isnan(proportion.variance())
        assert proportion.ess == 0.0
        assert proportion.interval(0.95) == (0.0, 1.0)
        distribution = DiscreteDistribution([])
        assert distribution.count == 0
        assert math.isnan(distribution.mean)
        assert math.isnan(distribution.percentile(50.0))

    def test_all_zero_weight_group_keeps_nan_columns(self):
        groups = make_campaign(1, 5, (450.0,), 1.0, 1.0)
        results = partition(groups, (450.0,), 0, "mixed")
        expected = reduce_all(oracle, results, (450.0,), 5)
        actual = reduce_all(PRODUCTION, results, (450.0,), 5)
        for name in expected:
            assert_rows_match(actual[name], expected[name], True, 1e4)
        row = actual["yield"][0]
        assert math.isnan(row["weighted_functional_yield"])
        assert math.isnan(row["weighted_frequency_mhz_mean"])
        assert row["ess"] == 0.0
        assert row["weighted_functional_low"] == 0.0
        assert row["weighted_functional_high"] == 1.0
        assert actual["deep"][0]["log10_functional_fail"] is None

    def test_one_die(self):
        groups = make_campaign(2, 1, (500.0, 400.0), 2.0, 0.0)
        results = partition(groups, (500.0, 400.0), 0, "per-die")
        rows = reduce_all(PRODUCTION, results, (500.0, 400.0), 1)
        for row in rows["yield"]:
            assert row["frequency_mhz_std"] == 0.0
            assert row["frequency_mhz_min"] == row["frequency_mhz_max"] \
                == row["frequency_mhz_mean"]
            assert row["ess"] == pytest.approx(1.0, rel=1e-15)
        for row in rows["vccmin"]:
            if not row["censored"]:
                assert row["vccmin_std_mv"] == 0.0
        assert len(rows["per_die"]) == len(SCHEMES)
        expected = reduce_all(oracle, results, (500.0, 400.0), 1)
        for name in expected:
            assert_rows_match(rows[name], expected[name], False, 1e4)

    def test_vccmin_mean_sums_in_first_occurrence_order(self):
        """The mean is summed over grid values in the order dies first
        reach them, as the per-die oracle inserted them."""
        values = np.array([450.0, 600.0, 450.0, 400.0, 600.0])
        distribution = DiscreteDistribution(values)
        reference = oracle.DiscreteDistribution()
        for value in values.tolist():
            reference.add(value)
        assert list(distribution._counts.items()) \
            == list(reference._counts.items())
        assert distribution.mean == reference.mean
        assert distribution.std == reference.std
