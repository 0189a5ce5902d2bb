"""Reference die evaluation: the scalar per-die path before blocks.

Test-only differential oracle for
:func:`repro.montecarlo.sampling.evaluate_block`.  This module keeps,
verbatim, the scalar :class:`DiePointResult`, :func:`evaluate_die_point`
(one die, one grid point, every solver built per call) and the block
unpacker :func:`die_results`.  Every Monte-Carlo campaign now runs as
``mc-block`` jobs, a per-die campaign as blocks of one die; the tests
hold every block size to this oracle bit for bit, per die and per
field.  Sampling (:func:`~repro.montecarlo.sampling.sample_die`) and
the frequency solver are the production ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.circuits.variation import VariationModel
from repro.montecarlo.sampling import _PHASE_EPS, MonteCarloConfig, \
    sample_die


@dataclass(frozen=True)
class DiePointResult:
    """One die evaluated at one (Vcc, scheme) point of the grid."""

    die: int
    vcc_mv: float
    scheme: str
    #: The die's effective worst-cell sigma (offset folded in).
    worst_sigma: float
    #: Frequency the die achieves clocked for its own worst cell.
    die_frequency_mhz: float
    #: Frequency the design schedule dictates at this point.
    design_frequency_mhz: float
    #: Die phase delay / design phase delay — below 1.0 for the many
    #: dies whose worst cell beats the design margin, above it for the
    #: slow tail that drives the yield curves.
    slowdown: float
    #: Die is sellable at *some* bin here (slowdown <= max_slowdown).
    functional: bool
    #: Die makes the top bin: runs at the design clock (and, for IRAW,
    #: stabilises within the design's N).
    meets_design: bool
    #: Stabilization cycles the design schedule provisions here.
    design_stabilization: int
    #: Cycles this die's worst cell needs at the design clock.
    required_stabilization: int
    #: The die's importance-sampling log weight (see
    #: :attr:`DieSample.log_weight`); 0.0 without a proposal shift.
    log_weight: float = 0.0


def evaluate_die_point(config: MonteCarloConfig, die: int, vcc_mv: float,
                       scheme: ClockScheme,
                       solver: FrequencySolver | None = None,
                       ) -> DiePointResult:
    """Evaluate one sampled die against the design schedule at one point.

    ``solver`` carries the calibrated (typical-margin) delay model and
    the nominal frequency; the design schedule re-margins it at
    ``config.design_sigma`` and the die at its own sampled worst cell.
    """
    solver = solver or FrequencySolver()
    variation = VariationModel(solver.delay_model,
                               vth_mv_per_sigma=config.sigma_mv)
    sample = sample_die(config, die)
    effective = sample.effective_sigma(config.sigma_mv)

    design_model = variation.model_at_sigma(config.design_sigma)
    die_model = variation.model_at_sigma(effective)
    nominal = solver.nominal_frequency_mhz
    design_point = FrequencySolver(
        design_model, nominal_frequency_mhz=nominal,
    ).operating_point(vcc_mv, scheme)
    die_solver = FrequencySolver(die_model, nominal_frequency_mhz=nominal)
    die_point = die_solver.operating_point(vcc_mv, scheme)

    slowdown = die_point.phase_delay / design_point.phase_delay
    # What this die's worst cell needs when run at the *design* clock:
    # for IRAW that is its stabilization count, for write-complete
    # schemes any nonzero value means the write no longer fits.
    required = die_solver.stabilization_cycles_at(
        vcc_mv, design_point.phase_delay)
    meets_design = slowdown <= 1.0 + _PHASE_EPS
    if scheme is ClockScheme.IRAW:
        meets_design = meets_design \
            and required <= design_point.stabilization_cycles
    functional = slowdown <= config.max_slowdown + _PHASE_EPS
    return DiePointResult(
        die=die,
        vcc_mv=vcc_mv,
        scheme=scheme.value,
        worst_sigma=effective,
        die_frequency_mhz=die_point.frequency_mhz,
        design_frequency_mhz=design_point.frequency_mhz,
        slowdown=slowdown,
        functional=functional,
        meets_design=meets_design,
        design_stabilization=design_point.stabilization_cycles,
        required_stabilization=required,
        log_weight=sample.log_weight,
    )


def die_results(block) -> Iterator[DiePointResult]:
    """A :class:`~repro.montecarlo.sampling.DieBlockResult` unpacked as
    scalar per-die results."""
    for index in range(block.dies):
        yield DiePointResult(
            die=block.die_start + index,
            vcc_mv=block.vcc_mv,
            scheme=block.scheme,
            worst_sigma=float(block.worst_sigma[index]),
            die_frequency_mhz=float(block.die_frequency_mhz[index]),
            design_frequency_mhz=block.design_frequency_mhz,
            slowdown=float(block.slowdown[index]),
            functional=bool(block.functional[index]),
            meets_design=bool(block.meets_design[index]),
            design_stabilization=block.design_stabilization,
            required_stabilization=int(
                block.required_stabilization[index]),
            log_weight=float(block.log_weight[index]),
        )


def unpacked(results) -> list[DiePointResult]:
    """Every die of a plan-order block result sequence, in die order."""
    return [die for block in results for die in die_results(block)]
