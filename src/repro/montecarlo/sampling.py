"""Per-die SRAM variation sampling and die-level evaluation.

A *die sample* is the statistical identity of one manufactured chip:

* a **die-to-die** mean Vth shift (one Gaussian draw, in millivolts),
  modelling the slow process corner the whole die landed on;
* the **within-die worst cell** of every SRAM array, drawn from the
  exact distribution of the maximum of ``total_bits`` i.i.d. standard
  Gaussians via inverse-CDF (one uniform per array — no per-cell loop,
  but statistically identical to sampling every cell and taking the
  max).

Both are derived from a single per-die RNG stream seeded by
``sha256("repro-mc:<seed>:<die>")``, so a die's sample depends only on
the campaign seed and the die index — never on worker count, execution
backend, or evaluation order.  That invariant is what lets any
contiguous die span, down to a single die, run at one (Vcc, scheme)
point as an independent, cacheable engine job.

Evaluation compares the die against the *design* schedule: the shipped
part clocks every die at the frequency the design margin
(``design_sigma``, the paper's 6-sigma baseline) dictates at each Vcc.
A die whose worst cell is weaker than the margin needs a longer phase;
the ratio of its own achievable phase to the design phase is its
``slowdown``.  ``meets_design`` (top frequency bin) additionally
requires an IRAW die to stabilise within the design's N at the design
clock.  ``functional`` applies the binning floor ``max_slowdown`` —
dies slower than that at a given Vcc cannot be shipped at any bin, and
the lowest grid Vcc where a die is functional is its **Vccmin**.
"""

from __future__ import annotations

import _random
import hashlib
import math
import random
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.circuits import constants
from repro.circuits.ekv import THERMAL_VOLTAGE_MV, Device, check_voltage, softplus
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.circuits.sram import silverthorne_arrays
from repro.circuits.variation import VTH_MV_PER_SIGMA, VariationModel
from repro.errors import ConfigError

#: Die-to-die mean Vth shift sigma, in millivolts.  Die-level systematic
#: variation is a sizable fraction of the cell-to-cell sigma at 45 nm;
#: 10 mV (one cell sigma at the default 10 mV/sigma) spreads sampled
#: dies across roughly +/-3 effective sigma around the within-die
#: worst-cell expectation.
DIE_SIGMA_MV = 10.0

#: Default binning floor: a die slower than this multiple of the design
#: cycle time at a given Vcc is not sellable at any frequency bin there
#: (a 25% span is a typical speed-grade ladder).  With the calibrated
#: delay model this floor starts to bind below ~500 mV, which is what
#: produces the Vccmin spread.
MAX_SLOWDOWN = 1.25

_STANDARD_NORMAL = NormalDist()

#: The clamps of :func:`worst_cell_sigma`: the uniform floor, and the
#: largest double below 1.0 as the ceiling of ``u`` and ``p``.
_U_MIN = 1e-300
_P_MAX = 1.0 - 1e-16

#: Lower edge of the region where :meth:`DieBlock.build` takes one
#: ``inv_cdf`` per die instead of one per array.  ``max_i f(p_i) ==
#: f(max_i p_i)`` for any weakly monotone ``f``, so the max over arrays
#: can be taken in p-space.  The AS241 rational behind
#: ``NormalDist.inv_cdf`` is *not* weakly monotone everywhere in
#: floating point: inside its central branch and at the central/tail
#: seam (p = 0.925) a step to the adjacent double (1.1e-16 apart)
#: moves the true quantile by about one output ulp, less than the
#: rational's own rounding, and outputs step backwards.  Above
#: ``1 - 1e-3`` the same step moves the true quantile by at least
#: ``1.1e-16 / phi(3.09) ~ 3.3e-14``, about 75 output ulps, and near
#: p = 1 - 1e-7 (where campaigns live) by ~1e-11 relative — far above
#: the few-ulp rounding error of the rational, including across its
#: inner tail seam at ``1 - e^-25``.  So outputs are weakly monotone
#: there, and every p below the edge maps strictly below every p above
#: it.  The largest array (UL1, 4.4 Mbit) keeps ``max_i p_i`` above
#: ``1 - 1.6e-4`` for every uniform the clamp admits, so full-array
#: campaigns never leave the region; a die whose max lands below it
#: (small array subsets) takes the per-array oracle path instead.
#: ``tests/test_mc_block.py`` scans adjacent doubles across the region
#: and its seams.
_P_MONOTONE = 1.0 - 1e-3

#: Tolerance absorbing float rounding in phase-delay comparisons: a die
#: whose worst cell is *stronger* than the design margin must never be
#: classed below the design bin because of last-bit noise.
_PHASE_EPS = 1e-12


@dataclass(frozen=True)
class MonteCarloConfig:
    """The job-key identity of one sampling campaign.

    Deliberately excludes presentation-only knobs (die count, confidence
    level): adding dies to a campaign or re-rendering at a different
    confidence must reuse every cached per-die result, exactly like
    adding a trace to a population re-simulates only the new trace.
    """

    seed: int = 0
    sigma_mv: float = VTH_MV_PER_SIGMA
    design_sigma: float = 6.0
    die_sigma_mv: float = DIE_SIGMA_MV
    max_slowdown: float = MAX_SLOWDOWN
    #: Array names to sample (empty = all Silverthorne arrays).
    arrays: tuple[str, ...] = ()
    #: Importance-sampling proposal shift, in cell sigmas: the
    #: die-to-die mean Vth offset (the model's Gaussian component,
    #: shared by every cell of the die) is mean-shifted so the die's
    #: effective worst-cell sigma moves exactly this far toward the
    #: failure region, and the die records the exact Gaussian log
    #: likelihood ratio of the nominal offset distribution against the
    #: proposal.  Shifting the *per-array max* draw instead would give
    #: a likelihood ratio with an infinite second moment (the max-of-N
    #: density has a doubly-exponential left flank where the shifted
    #: proposal has essentially no mass), so the Gaussian die offset is
    #: the one component that supports a mean shift with bounded
    #: weight variance — ``ESS/n = exp(-lambda^2)`` with ``lambda =
    #: shift_sigma * sigma_mv / die_sigma_mv``.  0.0 (the default) is
    #: plain Monte-Carlo; the shift changes the sampled population, so
    #: it is physics and belongs in the job key.
    shift_sigma: float = 0.0

    def __post_init__(self) -> None:
        # Canonical order: sampling iterates arrays sorted by name, so
        # author order must not leak into the job key — ["RF", "DL0"]
        # and ["DL0", "RF"] are the same campaign and the same cache.
        object.__setattr__(self, "arrays",
                           tuple(sorted({str(name)
                                         for name in self.arrays})))
        if self.sigma_mv <= 0:
            raise ConfigError("montecarlo sigma_mv must be positive")
        if self.design_sigma <= 0:
            raise ConfigError("montecarlo design_sigma must be positive")
        if self.die_sigma_mv < 0:
            raise ConfigError("montecarlo die_sigma_mv must be >= 0")
        if self.max_slowdown < 1.0:
            raise ConfigError("montecarlo max_slowdown must be >= 1.0")
        if not (math.isfinite(self.shift_sigma)
                and self.shift_sigma >= 0.0):
            raise ConfigError("montecarlo shift_sigma must be a finite "
                              f"sigma count >= 0 (got {self.shift_sigma})")
        if self.shift_sigma > 0.0 and self.die_sigma_mv == 0.0:
            raise ConfigError(
                "montecarlo shift_sigma > 0 needs die_sigma_mv > 0: the "
                "importance-sampling proposal mean-shifts the die-to-die "
                "Vth offset, which a zero-sigma campaign never draws")
        known = {array.name for array in silverthorne_arrays()}
        for name in self.arrays:
            if name not in known:
                raise ConfigError(
                    f"montecarlo: unknown SRAM array {name!r} (known: "
                    f"{', '.join(sorted(known))})")

    def array_bits(self) -> tuple[tuple[str, int], ...]:
        """(name, total_bits) of the sampled arrays, sorted by name."""
        arrays = {a.name: a.total_bits for a in silverthorne_arrays()}
        names = self.arrays or tuple(arrays)
        return tuple((name, arrays[name]) for name in sorted(names))


@dataclass(frozen=True)
class DieSample:
    """The sampled statistical identity of one die."""

    die: int
    #: Die-to-die mean Vth shift, in millivolts (positive = slow die;
    #: the importance-sampling proposal shift, if any, is folded in).
    offset_mv: float
    #: Within-die worst-cell deviation per array, in cell sigmas,
    #: sorted by array name.
    worst_sigma: tuple[tuple[str, float], ...]
    #: Exact Gaussian log likelihood ratio of the nominal offset
    #: distribution against the mean-shifted proposal — exactly 0.0
    #: for an unshifted campaign.
    log_weight: float = 0.0

    def effective_sigma(self, sigma_mv: float) -> float:
        """Worst cell across all arrays, die offset folded in, in
        units of the cell sigma (comparable to the design margin)."""
        worst = max(sigma for _, sigma in self.worst_sigma)
        return worst + self.offset_mv / sigma_mv


def die_rng(seed: int, die: int) -> random.Random:
    """The die's private RNG stream, independent of everything else."""
    digest = hashlib.sha256(f"repro-mc:{seed}:{die}".encode("ascii"))
    return random.Random(int.from_bytes(digest.digest()[:16], "big"))


def worst_cell_sigma(u: float, total_bits: int) -> float:
    """Quantile of the max of ``total_bits`` standard Gaussians.

    Inverse-CDF sampling: if the array's cells are i.i.d. N(0, 1), the
    CDF of their maximum is ``Phi(x) ** n``, so the ``u``-quantile is
    ``Phi^-1(u ** (1/n))`` — one uniform draw replaces ``n`` Gaussians
    exactly.  Computed in log space (``u ** (1/n)`` underflows its
    distance from 1.0 for large arrays).
    """
    if total_bits < 1:
        raise ConfigError("worst_cell_sigma needs at least one cell")
    u = min(max(u, 1e-300), 1.0 - 1e-16)
    p = math.exp(math.log(u) / total_bits)
    return _STANDARD_NORMAL.inv_cdf(min(p, 1.0 - 1e-16))


def shifted_offset(offset_mv: float,
                   config: MonteCarloConfig) -> tuple[float, float]:
    """Apply the IS proposal shift to one die's offset draw.

    The proposal draws the die offset from the nominal
    ``N(0, die_sigma_mv)`` and reports ``offset_mv + shift_sigma *
    sigma_mv`` — every cell of the die, and hence the die's effective
    worst-cell sigma, moves exactly ``shift_sigma`` cell sigmas toward
    the failure region.  The exact log likelihood ratio of the nominal
    density against the mean-shifted proposal at the reported value is
    the Gaussian tilt ``-lambda * (z + lambda / 2)`` with ``z =
    offset_mv / die_sigma_mv`` and ``lambda = shift_sigma * sigma_mv /
    die_sigma_mv``, so the weights are exactly lognormal and the
    expected ESS fraction is ``exp(-lambda**2)``.

    ``shift_sigma == 0`` returns the draw untouched with a bit-exact
    0.0 log weight, so an unshifted campaign is bit-identical to plain
    Monte-Carlo.

    Returns ``(reported offset_mv, log weight)``; the single shift
    implementation shared by :func:`sample_die` and
    :meth:`BlockDraws.sample` (elementwise on ndarrays there), so the
    scalar and vectorized paths agree bit for bit on both the samples
    and the weights.
    """
    shift = config.shift_sigma
    if shift == 0.0:
        return offset_mv, 0.0
    lam = shift * config.sigma_mv / config.die_sigma_mv
    z = offset_mv / config.die_sigma_mv
    return offset_mv + shift * config.sigma_mv, -lam * (z + lam / 2.0)


def sample_die(config: MonteCarloConfig, die: int) -> DieSample:
    """Draw one die's Vth map (deterministic in ``(seed, die)``).

    Draw order is part of the on-disk identity: the die offset first,
    then one uniform per array in sorted-name order.
    """
    if die < 0:
        raise ConfigError(f"die index must be >= 0 (got {die})")
    bits = config.array_bits()
    rng = die_rng(config.seed, die)
    offset_mv = rng.gauss(0.0, config.die_sigma_mv) \
        if config.die_sigma_mv > 0 else 0.0
    offset_mv, log_weight = shifted_offset(offset_mv, config)
    worst = tuple((name, worst_cell_sigma(rng.random(), total_bits))
                  for name, total_bits in bits)
    return DieSample(die=die, offset_mv=offset_mv, worst_sigma=worst,
                     log_weight=log_weight)


# ----------------------------------------------------------------------
# Vectorized block evaluation (the million-die hot tier)
# ----------------------------------------------------------------------
#
# ``evaluate_block`` is the one implementation of die evaluation: the
# scalar per-die physics (``FrequencySolver.operating_point`` on a
# die-margined delay model) folded over a contiguous die range as NumPy
# vectors.  Bit-equality per die with that scalar path is a hard
# contract (``tests/mc_die_oracle.py`` keeps it as the test oracle, and
# the golden suite locks reduced artifacts at every block size), so the
# kernel only uses float operations that IEEE 754 requires to be
# correctly rounded (+, -, *, /, max, ceil, comparisons) — those are
# bit-identical elementwise to their scalar counterparts — and keeps
# the exact evaluation order of the scalar path.  The one
# transcendental (``softplus``: exp/log1p) goes through the *scalar*
# libm implementation per element, because ``np.exp`` / ``np.log1p``
# may differ from libm in the last ulp.


@dataclass(frozen=True)
class DieBlock:
    """A contiguous die range of one campaign, sampled as one unit.

    Hashable (config + range).  Its :attr:`draw_key` names the RNG
    draws alone, so the per-process block memo shares one sampled block
    across every (Vcc, scheme) grid point that evaluates it — and
    across every campaign that differs only in how the draws are
    interpreted (proposal shift, cell sigma, design margin, binning
    floor) — sampling runs once per draw identity, not once per job.
    """

    config: MonteCarloConfig
    die_start: int
    dies: int

    def __post_init__(self) -> None:
        if self.die_start < 0:
            raise ConfigError(f"die index must be >= 0 "
                              f"(got {self.die_start})")
        if self.dies < 1:
            raise ConfigError(f"a die block needs at least one die "
                              f"(got {self.dies})")

    @property
    def draw_key(self) -> tuple:
        """Everything the block's RNG draws depend on.

        The per-die stream is seeded by ``(seed, die)``, the offset
        draw happens only when ``die_sigma_mv > 0`` and scales with
        it, and one uniform is drawn per sampled array.  ``sigma_mv``,
        ``shift_sigma``, ``design_sigma`` and ``max_slowdown`` only
        transform the draws afterwards (:meth:`BlockDraws.sample`), so
        they stay out of the key.
        """
        config = self.config
        return (config.seed, config.die_sigma_mv, config.arrays,
                self.die_start, self.dies)

    def build(self) -> "BlockDraws":
        """The block's raw per-die draws, in die order (read-only).

        Each die goes through the exact scalar :func:`sample_die` draw
        sequence — the ``(seed, die)`` stream, the offset gauss, one
        uniform per array in sorted-name order — the block is purely
        an evaluation batch, never a different sampling contract.  The
        loop is :func:`die_rng` and :func:`worst_cell_sigma` inlined
        with the same scalar libm calls, except that the max over
        arrays is taken in p-space with one ``inv_cdf`` per die (see
        :data:`_P_MONOTONE`).  One ``random.Random`` per call is
        re-seeded per die, exactly as constructing a fresh one does;
        it is a local, never module state, because the queue backend
        runs executors on threads.
        """
        config = self.config
        bits = tuple(total_bits for _, total_bits in config.array_bits())
        die_sigma_mv = config.die_sigma_mv
        prefix = f"repro-mc:{config.seed}:".encode("ascii")
        u_min, p_max_clamp = _U_MIN, _P_MAX
        # With one array there is no max to collapse: any p is exact.
        monotone = _P_MONOTONE if len(bits) > 1 else 0.0
        rng = random.Random()
        reseed = _random.Random.seed
        gauss = rng.gauss
        uniform = rng.random
        sha256 = hashlib.sha256
        from_bytes = int.from_bytes
        log = math.log
        exp = math.exp
        inv_cdf = _STANDARD_NORMAL.inv_cdf
        worst = []
        offsets = []
        for die in range(self.die_start, self.die_start + self.dies):
            digest = sha256(prefix + b"%d" % die).digest()
            reseed(rng, from_bytes(digest[:16], "big"))
            rng.gauss_next = None
            offsets.append(gauss(0.0, die_sigma_mv)
                           if die_sigma_mv > 0 else 0.0)
            p_max = 0.0
            for total_bits in bits:
                # random() never exceeds 1 - 2**-53 == _P_MAX, so only
                # the floor of the oracle's clamp can bind.
                u = uniform()
                if u < u_min:
                    u = u_min
                p = exp(log(u) / total_bits)
                if p > p_max:
                    p_max = p
            if p_max >= monotone:
                worst.append(inv_cdf(p_max if p_max < p_max_clamp
                                     else p_max_clamp))
            else:
                # Outside the verified-monotone region: take the max of
                # the per-array quantiles exactly as the oracle does.
                worst.append(max(sigma for _, sigma
                                 in sample_die(config, die).worst_sigma))
        return BlockDraws(worst_sigma=_frozen(np.array(worst)),
                          offset_mv=_frozen(np.array(offsets)))


class BlockDraws:
    """A die block's raw draws: what :meth:`DieBlock.build` samples.

    Config-independent beyond :attr:`DieBlock.draw_key` — the value the
    per-process block memo stores and :meth:`sample` interprets for
    each campaign config.  Arrays are read-only and aligned by position
    with the block's die range.
    """

    __slots__ = ("worst_sigma", "offset_mv", "_last")

    def __init__(self, worst_sigma: np.ndarray, offset_mv: np.ndarray):
        #: Worst cell across the sampled arrays, in cell sigmas.
        self.worst_sigma = worst_sigma
        #: The nominal die-to-die offset draw, in millivolts (no
        #: proposal shift applied).
        self.offset_mv = offset_mv
        self._last: tuple[MonteCarloConfig, BlockSample] | None = None

    def sample(self, config: MonteCarloConfig) -> "BlockSample":
        """The draws interpreted under ``config``.

        The proposal shift goes through the shared
        :func:`shifted_offset` elementwise — ``+ - * /`` on ndarrays
        round exactly like the scalar path and run in its order — so
        the effective sigma and the IS log weight match
        :func:`sample_die` bit for bit.  At shift 0 the log weights
        are an all-zero array.  The last derivation is kept, so every
        (Vcc, scheme) job of one campaign shares one pair of arrays
        (results reference them) instead of holding a copy each.
        """
        last = self._last
        if last is not None and last[0] == config:
            return last[1]
        offset_mv, log_weight = shifted_offset(self.offset_mv, config)
        effective = self.worst_sigma + offset_mv / config.sigma_mv
        if np.isscalar(log_weight):
            log_weight = np.zeros(effective.shape)
        sample = BlockSample(effective=_frozen(effective),
                             log_weight=_frozen(log_weight))
        self._last = (config, sample)
        return sample


@dataclass(frozen=True, eq=False)
class BlockSample:
    """A die block under one config: effective sigmas + IS log weights.

    The value :meth:`BlockDraws.sample` derives and
    :func:`evaluate_block` consumes.  Arrays are read-only and aligned
    by position with the block's die range.
    """

    effective: np.ndarray
    log_weight: np.ndarray


@dataclass(frozen=True, eq=False)
class DieBlockResult:
    """A whole die block evaluated at one (Vcc, scheme) grid point.

    Array fields are aligned by position: element ``i`` is die
    ``die_start + i``.  Arrays are read-only — a block result is a
    cacheable value, shared between memo, disk cache and reducers.
    (``eq=False``: ndarray fields make dataclass equality ambiguous.)
    """

    die_start: int
    dies: int
    vcc_mv: float
    scheme: str
    design_frequency_mhz: float
    design_stabilization: int
    worst_sigma: np.ndarray
    die_frequency_mhz: np.ndarray
    slowdown: np.ndarray
    functional: np.ndarray
    meets_design: np.ndarray
    required_stabilization: np.ndarray
    log_weight: np.ndarray


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a freshly computed kernel array read-only, in place."""
    array.flags.writeable = False
    return array


def _device_delay_array(device: Device, shift: np.ndarray,
                        vcc_mv: float) -> np.ndarray:
    """Vectorized :meth:`Device.delay` for per-die Vth-shifted devices.

    Mirrors ``Device.current``/``Device.delay`` operation by operation;
    ``softplus`` runs through the scalar libm path per element (see the
    section comment above).
    """
    vth = device.vth_mv + shift
    x = (vcc_mv - vth) / (2.0 * device.n * THERMAL_VOLTAGE_MV)
    s = np.fromiter((softplus(value) for value in x.tolist()),
                    dtype=np.float64, count=x.size)
    current = s * s
    return (device.kd * vcc_mv) / current


def _stabilization_cycles_array(write, wordline, slowdown_factor, phase):
    """Vectorized ``FrequencySolver._stabilization_cycles``.

    ``write`` is the per-die write-delay array; ``phase`` may be a
    scalar (the design phase) or a per-die array (the IRAW phase).
    """
    assisted = phase - wordline
    remaining = write - assisted
    stab_time = np.where(remaining <= 0.0, 0.0,
                         slowdown_factor * remaining)
    cycles = np.where(stab_time <= 0.0, 0.0,
                      np.ceil(stab_time / (2.0 * phase)))
    return cycles.astype(np.int64)


def evaluate_block(config: MonteCarloConfig, die_start: int, dies: int,
                   vcc_mv: float, scheme: ClockScheme,
                   solver: FrequencySolver | None = None,
                   sample: BlockSample | None = None,
                   ) -> DieBlockResult:
    """Evaluate a contiguous die block at one grid point, vectorized.

    Bit-equal per die to the scalar per-die path (see the section
    comment); a block of one die is a per-die evaluation.  ``sample``
    short-circuits sampling with a block already derived from memoized
    :meth:`DieBlock.build` draws, so executors share one sampled block
    across the whole (Vcc, scheme) grid.
    """
    solver = solver or FrequencySolver()
    if sample is None:
        sample = DieBlock(config, die_start, dies).build().sample(config)
    effective = sample.effective
    if effective.shape != (dies,):
        raise ConfigError(
            f"effective-sigma array has shape {effective.shape}, "
            f"expected ({dies},)")
    check_voltage(vcc_mv)
    variation = VariationModel(solver.delay_model,
                               vth_mv_per_sigma=config.sigma_mv)
    nominal = solver.nominal_frequency_mhz
    design_point = FrequencySolver(
        variation.model_at_sigma(config.design_sigma),
        nominal_frequency_mhz=nominal,
    ).operating_point(vcc_mv, scheme)

    # Die-independent scalar paths: only the write and flip devices
    # carry the per-die Vth shift (VariationModel.model_at_sigma), so
    # logic/wordline/read delays are shared scalars per grid point.
    model = solver.delay_model
    logic = model.logic(vcc_mv)
    wordline = model.wordline(vcc_mv)
    read_wl = model.read_with_wordline(vcc_mv)
    gamma = model.stabilization_slowdown

    shift = (effective - variation.baseline_sigma) \
        * variation.vth_mv_per_sigma
    write = _device_delay_array(model.write_device, shift, vcc_mv)

    if scheme is ClockScheme.LOGIC:
        phase = np.full(dies, logic, dtype=np.float64)
    elif scheme is ClockScheme.BASELINE:
        phase = np.maximum(np.maximum(logic, write + wordline), read_wl)
    else:
        flip = _device_delay_array(model.flip_device, shift, vcc_mv)
        iraw_phase = np.maximum(np.maximum(logic, wordline + flip),
                                read_wl)
        base_phase = np.maximum(np.maximum(logic, write + wordline),
                                read_wl)
        if vcc_mv >= constants.IRAW_DEACTIVATION_MV:
            phase = base_phase
        else:
            stab = _stabilization_cycles_array(write, wordline, gamma,
                                               iraw_phase)
            phase = np.where(stab == 0, base_phase, iraw_phase)

    phase_time_ns = 1e3 / nominal / 2.0
    frequency = 1e3 / (2.0 * phase * phase_time_ns)
    slowdown = phase / design_point.phase_delay
    required = _stabilization_cycles_array(write, wordline, gamma,
                                           design_point.phase_delay)
    meets_design = slowdown <= 1.0 + _PHASE_EPS
    if scheme is ClockScheme.IRAW:
        meets_design = meets_design \
            & (required <= design_point.stabilization_cycles)
    functional = slowdown <= config.max_slowdown + _PHASE_EPS
    return DieBlockResult(
        die_start=die_start,
        dies=dies,
        vcc_mv=vcc_mv,
        scheme=scheme.value,
        design_frequency_mhz=design_point.frequency_mhz,
        design_stabilization=design_point.stabilization_cycles,
        worst_sigma=effective,
        die_frequency_mhz=_frozen(frequency),
        slowdown=_frozen(slowdown),
        functional=_frozen(functional),
        meets_design=_frozen(meets_design),
        required_stabilization=_frozen(required),
        log_weight=sample.log_weight,
    )
