"""Monte-Carlo die sampling: yield, Vccmin and frequency binning.

The paper's low-Vcc argument is statistical — the baseline cycle time is
set for **6-sigma** weak cells, and the alternatives trade margin for
disabled capacity — but deterministic sigma margins
(:mod:`repro.circuits.variation`) only reproduce the *means*.  This
package samples whole dies: each die draws a seeded Gaussian Vth map
over the paper's SRAM arrays (a die-to-die mean shift plus the
within-die worst-case cell of every array, derived from the calibrated
:class:`~repro.circuits.variation.VariationModel`), and is then
evaluated against the *design* clock schedule at every (Vcc, scheme)
point of a campaign grid.

Each (Vcc, scheme, contiguous die span) of a campaign is an ordinary
engine job (kind ``mc-block``), evaluated as NumPy vectors: the span
and the campaign's physics fold into the canonical job key, so
deduplication, on-disk caching and all three execution backends work
unchanged.  The span length is the spec's ``block`` size; the default
of 1 makes every sampled die an independently cacheable unit, so a
256-die campaign turns every grid point into hundreds of jobs, while
``block = 8192`` runs a million dies in 123 jobs per grid point.
Reduction works one (Vcc, scheme) group at a time on die-order column
arrays (:mod:`repro.montecarlo.stats`): yields with Wilson confidence
intervals, per-die Vccmin distributions, and frequency-bin statistics.

Layering: :mod:`repro.montecarlo.sampling` sits beside ``circuits``
(imported lazily by the engine executor); :mod:`repro.montecarlo.spec`
and :mod:`repro.montecarlo.campaign` serve the declarative experiment
layer on top.
"""

from repro.montecarlo.campaign import (
    montecarlo_jobs,
    per_die_rows,
    vccmin_rows,
    yield_curve_rows,
)
from repro.montecarlo.importance import (
    EffectiveSampleSizeWarning,
    ImportanceSpec,
    deep_tail_rows,
)
from repro.montecarlo.sampling import (
    DieSample,
    MonteCarloConfig,
    sample_die,
    shifted_offset,
)
from repro.montecarlo.spec import MonteCarloSpec
from repro.montecarlo.stats import (
    DiscreteDistribution,
    WeightedProportion,
    moments,
    weighted_moments,
    weighted_wilson_interval,
    wilson_interval,
)

__all__ = [
    "DieSample",
    "DiscreteDistribution",
    "EffectiveSampleSizeWarning",
    "ImportanceSpec",
    "MonteCarloConfig",
    "MonteCarloSpec",
    "WeightedProportion",
    "deep_tail_rows",
    "moments",
    "montecarlo_jobs",
    "per_die_rows",
    "sample_die",
    "shifted_offset",
    "vccmin_rows",
    "weighted_moments",
    "weighted_wilson_interval",
    "wilson_interval",
    "yield_curve_rows",
]
