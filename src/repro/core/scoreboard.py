"""Scoreboard with IRAW-extended shift registers (paper Figures 6-8).

Each logical register owns a shift register whose most significant bit
answers "may a consumer issue *this cycle* and legally obtain the value?".
Every cycle all shift registers shift left by one, keeping the least
significant bit sticky.

When a producer with execute latency L issues, its destination's shift
register is initialized, from MSB to LSB (paper Section 4.1.2):

   (I)  L zeros            — value not yet produced,
   (II) ``bypass_levels`` ones — value available on the bypass network,
   (III) N zeros           — the IRAW stabilization bubble: a consumer
                             issuing here would read the register file
                             exactly while the cell stabilizes,
   (IV) ones               — value readable from the RF forever after.

With L=3, one bypass level and N=1 this gives the paper's ``0001011``
example.  The baseline (N=0) drops phase (III) and reduces to the classic
delayed-wakeup scoreboard (``00011`` in a 5-bit register).

Long-latency producers (divides, load misses) cannot encode their latency
at issue; their register is zeroed and a completion event later installs
the (II)/(III)/(IV) tail (Section 4.1.1).

Shift registers are *stamped*, not ticked.  Each register keeps the
pattern it was last written with plus the scoreboard clock at that
write; a read shifts lazily by the ticks elapsed since, so :meth:`tick`
only advances the clock (O(1), however many registers are in flight).
The pattern is stored in time order -- bit ``d`` is the MSB ``d`` ticks
after the write, i.e. bit ``width-1-d`` of the MSB-first pattern -- and
sign-extended with the sticky LSB, so ``timeline >> d & 1`` answers
"ready after ``d`` ticks" for every ``d >= 0`` and bits ``d .. d+width-1``
are the register's contents at that point, MSB first.
"""

from __future__ import annotations

from repro.errors import ConfigError, PipelineError


class Scoreboard:
    """Readiness control for the in-order issue stage."""

    def __init__(self, num_registers: int = 32, baseline_bits: int = 6,
                 bypass_levels: int = 1, max_stabilization_cycles: int = 2):
        if num_registers <= 0:
            raise ConfigError("need at least one register")
        if baseline_bits < 2:
            raise ConfigError("baseline shift registers need >= 2 bits")
        if bypass_levels < 0 or max_stabilization_cycles < 0:
            raise ConfigError("bypass/stabilization sizing cannot be negative")
        self.num_registers = num_registers
        self.baseline_bits = baseline_bits
        self.bypass_levels = bypass_levels
        self.max_stabilization_cycles = max_stabilization_cycles
        #: Physical width: sized at design time for the deepest N.
        self.width = baseline_bits + bypass_levels + max_stabilization_cycles
        self._full_mask = (1 << self.width) - 1
        #: Current stabilization depth (reconfigured per Vcc level).
        self._stabilization_cycles = 0
        #: Ticks since construction; registers are stamped against it.
        self._clock = 0
        #: Time-ordered patterns; -1 (ones forever) is "idle, value stable".
        self._timeline = [-1] * num_registers
        #: Clock value at each register's last write.
        self._stamp = [0] * num_registers
        #: N -> {latency: timeline}, built on first use; latency 0 is the
        #: long-latency completion tail.  ``_current`` is the entry for N.
        self._patterns: dict[int, dict[int, int]] = {}
        self._current = self._patterns.setdefault(0, {})

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    @property
    def stabilization_cycles(self) -> int:
        return self._stabilization_cycles

    def configure(self, stabilization_cycles: int) -> None:
        """Set N for subsequent producers (multi-Vcc, Section 4.1.3).

        The pipeline drains before a Vcc switch, so in-flight patterns
        built with the old N are not a concern.
        """
        if not 0 <= stabilization_cycles <= self.max_stabilization_cycles:
            raise ConfigError(
                f"N={stabilization_cycles} outside [0, "
                f"{self.max_stabilization_cycles}]"
            )
        self._stabilization_cycles = stabilization_cycles
        self._current = self._patterns.setdefault(stabilization_cycles, {})

    @property
    def max_encodable_latency(self) -> int:
        """Largest execute latency the pattern can encode (B-1 rule)."""
        return self.baseline_bits - 1

    # ------------------------------------------------------------------
    # Pattern construction
    # ------------------------------------------------------------------

    def _build_pattern(self, latency: int) -> int:
        """Bit pattern for a producer of ``latency`` cycles, MSB first."""
        n = self._stabilization_cycles
        ones_tail = self.width - latency - self.bypass_levels - n
        if ones_tail < 1:
            raise PipelineError(
                f"latency {latency} does not fit a {self.width}-bit pattern "
                f"(bypass={self.bypass_levels}, N={n})"
            )
        bits = 0
        position = self.width
        position -= latency  # (I) zeros
        for _ in range(self.bypass_levels):  # (II) ones
            position -= 1
            bits |= 1 << position
        position -= n  # (III) zeros
        bits |= (1 << position) - 1  # (IV) ones
        return bits

    def _build_tail(self) -> int:
        """Long-latency completion pattern, MSB first (Section 4.1.1)."""
        bits = 0
        position = self.width
        for _ in range(max(1, self.bypass_levels)):  # on the bypass now
            position -= 1
            bits |= 1 << position
        position -= self._stabilization_cycles
        bits |= (1 << position) - 1
        return bits

    def _timeline_of(self, pattern: int) -> int:
        """Time-ordered form of an MSB-first pattern (see module doc)."""
        width = self.width
        timeline = 0
        for ticks in range(width):
            if pattern >> (width - 1 - ticks) & 1:
                timeline |= 1 << ticks
        if pattern & 1:
            timeline |= -1 << width  # the sticky LSB, forever
        return timeline

    def _timeline_for(self, latency: int) -> int:
        """Timeline of a ``latency`` producer at the current N (latency 0:
        the long-latency completion tail), built once."""
        timeline = self._current.get(latency)
        if timeline is None:
            pattern = (self._build_tail() if latency == 0
                       else self._build_pattern(latency))
            timeline = self._current[latency] = self._timeline_of(pattern)
        return timeline

    def _value(self, reg: int) -> int:
        """The register's current contents, MSB first."""
        ticks = self._clock - self._stamp[reg]
        timeline = self._timeline[reg]
        value = 0
        for position in range(self.width):
            value = (value << 1) | (timeline >> (ticks + position) & 1)
        return value

    def pattern_string(self, reg: int) -> str:
        """The register's bits as a string, MSB first (for tests/docs)."""
        return format(self._value(reg), f"0{self.width}b")

    # ------------------------------------------------------------------
    # Pipeline interface
    # ------------------------------------------------------------------

    def is_ready(self, reg: int) -> bool:
        """May a consumer of ``reg`` issue this cycle? (MSB test)."""
        return bool(self._timeline[reg] >> (self._clock - self._stamp[reg])
                    & 1)

    def is_idle(self, reg: int) -> bool:
        """No in-flight write to ``reg`` (all-ones)."""
        return self._value(reg) == self._full_mask

    def stamped_state(self) -> tuple[list[int], list[int], int]:
        """``(timelines, stamps, clock)`` for the pipeline kernel's reads.

        The lists are the live per-register state and must be treated as
        read-only; ``clock`` is a snapshot.  While the clock stands at
        ``c``, ``reg`` is ready iff ``timelines[reg] >> (c - stamps[reg])
        & 1``, which is what :meth:`is_ready` computes -- the kernel
        evaluates it inline to avoid a call per source operand.
        """
        return self._timeline, self._stamp, self._clock

    def ticks_to_change(self, regs) -> int | None:
        """Ticks until the MSB of any of ``regs`` flips, or ``None`` if
        none will before the next write."""
        soonest = None
        for reg in regs:
            ahead = self._timeline[reg] >> (self._clock - self._stamp[reg])
            if ahead & 1:
                ahead = ~ahead
            if ahead:
                ticks = (ahead & -ahead).bit_length() - 1
                if soonest is None or ticks < soonest:
                    soonest = ticks
        return soonest

    def producer_issued(self, reg: int, latency: int) -> None:
        """A producer writing ``reg`` issued this cycle.

        ``latency`` beyond ``max_encodable_latency`` selects the
        long-latency path: the register is zeroed until
        :meth:`long_latency_completed` fires.
        """
        if latency <= 0:
            raise PipelineError(f"producer latency must be positive: {latency}")
        if latency >= self.baseline_bits:  # beyond max_encodable_latency
            self._timeline[reg] = 0
        else:
            timeline = self._current.get(latency)
            self._timeline[reg] = (self._timeline_for(latency)
                                   if timeline is None else timeline)
        self._stamp[reg] = self._clock

    def long_latency_completed(self, reg: int) -> None:
        """The value of a long-latency producer is being written now.

        Installs the tail of the pattern as if the producer were a
        single-cycle instruction completing this cycle: bypass ones,
        N stabilization zeros, then ones (paper Section 4.1.1, adapted
        to IRAW in 4.1.2).
        """
        self._timeline[reg] = self._timeline_for(0)
        self._stamp[reg] = self._clock

    def tick(self, cycles: int = 1) -> None:
        """Shift every register left ``cycles`` positions (sticky LSB)."""
        self._clock += cycles

    def flush(self) -> None:
        """Drop all in-flight state (pipeline flush/drain)."""
        # In place: :meth:`stamped_state` hands out this list.
        self._timeline[:] = [-1] * self.num_registers
