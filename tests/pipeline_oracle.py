"""Reference pipeline kernel: the per-cycle loop before stamping.

Test-only differential oracle for :meth:`repro.pipeline.core.InOrderCore.run`.
:class:`OracleCore` steps every cycle and ticks every stage: a
shift-register scoreboard that shifts each busy register every cycle,
functional units reset every cycle, the front end ticked every cycle
and the fetch buffer drained through a ``pop_ready`` helper.  The
production kernel stamps time-varying state and skips idle cycles; both
must produce equal results and equal post-run scoreboard contents.
Only this module's copies of the loop, the scoreboard and the unit
tracker are frozen; the front end, memory system and LSU are the
production ones.
"""

from __future__ import annotations

from collections import deque

from repro.core.policy import IrawPolicy
from repro.errors import ConfigError, PipelineError
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import UNPIPELINED_CLASSES, OpClass, Opcode
from repro.isa.registers import NUM_REGISTERS
from repro.pipeline import resources
from repro.pipeline.core import _INJECTED_NOOP, CoreSetup, InOrderCore
from repro.pipeline.frontend import FrontEnd
from repro.pipeline.lsu import LoadStoreUnit
from repro.pipeline.regfile import BypassNetwork, RegisterFileModel
from repro.pipeline.resources import PipelineParams
from repro.pipeline.stats import SimulationResult, StallReason
from repro.workloads.trace import Trace


class ShiftRegisterScoreboard:
    """The scoreboard as it was before stamping: every busy register
    shifts on every :meth:`tick`."""

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
        self._msb_mask = 1 << (self.width - 1)
        self._full_mask = (1 << self.width) - 1
        #: Current stabilization depth (reconfigured per Vcc level).
        self._stabilization_cycles = 0
        #: Shift registers; all-ones means "idle, value stable".
        self._regs = [self._full_mask] * num_registers
        #: Registers currently not all-ones (the only ones ticked).
        self._busy: set[int] = set()

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

    def pattern_string(self, reg: int) -> str:
        """The register's bits as a string, MSB first (for tests/docs)."""
        return format(self._regs[reg], f"0{self.width}b")

    # ------------------------------------------------------------------
    # Pipeline interface
    # ------------------------------------------------------------------

    def is_ready(self, reg: int) -> bool:
        """May a consumer of ``reg`` issue this cycle? (MSB test)."""
        return bool(self._regs[reg] & self._msb_mask)

    def is_idle(self, reg: int) -> bool:
        """No in-flight write to ``reg`` (all-ones)."""
        return self._regs[reg] == self._full_mask

    def producer_issued(self, reg: int, latency: int) -> None:
        """A producer writing ``reg`` issued this cycle.

        ``latency`` beyond ``max_encodable_latency`` selects the
        long-latency path: the register is zeroed until
        :meth:`long_latency_completed` fires.
        """
        if latency <= 0:
            raise PipelineError(f"producer latency must be positive: {latency}")
        if latency > self.max_encodable_latency:
            self._regs[reg] = 0
        else:
            self._regs[reg] = self._build_pattern(latency)
        self._busy.add(reg)

    def long_latency_completed(self, reg: int) -> None:
        """The value of a long-latency producer is being written now.

        Installs the tail of the pattern as if the producer were a
        single-cycle instruction completing this cycle: bypass ones,
        N stabilization zeros, then ones (paper Section 4.1.1, adapted
        to IRAW in 4.1.2).
        """
        n = self._stabilization_cycles
        bits = 0
        position = self.width
        levels = max(1, self.bypass_levels)
        for _ in range(levels):  # value on the result bus / bypass now
            position -= 1
            bits |= 1 << position
        position -= n
        bits |= (1 << position) - 1
        self._regs[reg] = bits
        if bits != self._full_mask:
            self._busy.add(reg)

    def tick(self) -> None:
        """Shift every busy register left one position (sticky LSB)."""
        if not self._busy:
            return
        full = self._full_mask
        done = []
        regs = self._regs
        for reg in self._busy:
            value = ((regs[reg] << 1) | (regs[reg] & 1)) & full
            regs[reg] = value
            if value == full:
                done.append(reg)
        self._busy.difference_update(done)

    def flush(self) -> None:
        """Drop all in-flight state (pipeline flush/drain)."""
        for reg in self._busy:
            self._regs[reg] = self._full_mask
        self._busy.clear()


class ResettingFunctionalUnits:
    """Functional units as they were before cycle stamps: counts are
    cleared by :meth:`begin_cycle` every cycle."""

    def __init__(self, params: PipelineParams):
        self._params = params
        self._busy_until: dict[str, int] = {}
        self._issued_this_cycle: dict[str, int] = {}
        self._cycle = -1

    def begin_cycle(self, cycle: int) -> None:
        self._cycle = cycle
        self._issued_this_cycle.clear()

    def can_accept(self, opclass: OpClass) -> bool:
        """Is the unit for ``opclass`` free this cycle?"""
        unit = resources._UNIT_OF[opclass]
        if unit is None:
            return True
        limit = 2 if unit in resources._DUAL_UNITS else 1
        if self._issued_this_cycle.get(unit, 0) >= limit:
            return False
        if opclass in UNPIPELINED_CLASSES:
            return self._busy_until.get(unit, -1) < self._cycle
        return True

    def accept(self, opclass: OpClass) -> None:
        """Commit an issue to the unit for ``opclass``."""
        unit = resources._UNIT_OF[opclass]
        if unit is None:
            return
        self._issued_this_cycle[unit] = self._issued_this_cycle.get(unit, 0) + 1
        if opclass in UNPIPELINED_CLASSES:
            latency = self._params.latency_of(opclass)
            self._busy_until[unit] = self._cycle + latency


def _pop_ready(buffer: deque, cycle: int, count: int) -> list[MicroOp]:
    """Up to ``count`` buffered ops whose front-end latency has elapsed."""
    ready: list[MicroOp] = []
    while buffer and len(ready) < count:
        op, ready_cycle = buffer[0]
        if ready_cycle > cycle:
            break
        ready.append(op)
        buffer.popleft()
    return ready


class OracleCore(InOrderCore):
    """:class:`InOrderCore` with the reference scoreboard, units and loop."""

    def __init__(self, setup: CoreSetup | None = None):
        super().__init__(setup)
        iraw = self.setup.iraw
        self.policy = IrawPolicy(config=iraw,
                                 scoreboard=shift_register_scoreboard(iraw))
        self.units = ResettingFunctionalUnits(self.setup.params)
        if self._shadow is not None:
            self._shadow = shift_register_scoreboard(iraw)
            self._shadow.configure(0)

    def run(self, trace: Trace, max_cycles: int | None = None
            ) -> SimulationResult:
        """Simulate ``trace`` to completion and return the results."""
        params = self.setup.params
        policy = self.policy
        scoreboard = policy.scoreboard
        shadow = self._shadow
        gate = policy.iq_gate
        units = self.units
        stalls = self.stalls
        check_values = self.setup.check_values and trace.has_golden_values()

        regfile = RegisterFileModel(
            trace.metadata.get("initial_registers") if check_values else None)
        bypass = BypassNetwork(levels=self.setup.iraw.bypass_levels)
        lsu = LoadStoreUnit(
            self.memory, policy,
            initial_memory=trace.metadata.get("initial_memory"),
            track_values=check_values,
        )
        frontend = FrontEnd(trace.ops, params, self.memory, policy,
                            self.tracker, self.rsb)

        total_ops = len(trace.ops)
        if total_ops == 0:
            return self._result(trace, 0, 0, frontend, lsu, regfile)
        if max_cycles is None:
            max_cycles = 200 * total_ops + 100_000

        n_active = policy.stabilization_cycles
        max_encodable = scoreboard.max_encodable_latency
        iq: deque[tuple[MicroOp, int]] = deque()
        completions: dict[int, list] = {}
        pending_write = [-1] * NUM_REGISTERS
        #: op.index of the youngest issued producer per register: an older
        #: long-latency completion (e.g. a load miss superseded by a later
        #: write, WAW) must not publish its value or mark the register
        #: ready — the younger producer owns the scoreboard entry.
        latest_writer = [-1] * NUM_REGISTERS
        #: Extra-Bypass support: next-free cycle per RF write port.
        write_cost = params.rf_write_cycles
        write_ports = [0] * params.rf_write_ports
        iraw_delayed: set[int] = set()
        completed = 0
        cycle = 0

        while completed < total_ops:
            if cycle > max_cycles:
                raise PipelineError(
                    f"{trace.name}: exceeded {max_cycles} cycles "
                    f"({completed}/{total_ops} instructions done)"
                )
            # ---------------- 1. writeback ----------------
            records = completions.pop(cycle, None)
            if records:
                for op, dest, value, long_latency in records:
                    if dest is not None:
                        if latest_writer[dest] == op.index:
                            bypass.publish(dest,
                                           value if value is not None else 0,
                                           cycle)
                            regfile.write(dest,
                                          value if value is not None else 0,
                                          cycle + 1)
                            if long_latency:
                                scoreboard.long_latency_completed(dest)
                                if shadow is not None:
                                    shadow.long_latency_completed(dest)
                        # else: superseded by a younger writer (WAW); the
                        # architectural value is dead and the younger
                        # producer owns the scoreboard entry.
                    if op.is_store:
                        lsu.commit_store(op, value, cycle)
                    if op.is_control:
                        if op.opclass is OpClass.BRANCH \
                                and op.opcode is not Opcode.JMP:
                            self.tracker.update(op.pc, op.taken, cycle)
                        frontend.branch_resolved(op.index, cycle)
                    completed += 1

            # ---------------- 2. issue ----------------
            units.begin_cycle(cycle)
            issued = 0
            reason: StallReason | None = None
            store_words: set[int] | None = None
            for _ in range(params.issue_window):
                if not iq:
                    if issued == 0 and completed < total_ops:
                        reason = StallReason.FRONTEND_EMPTY
                    break
                if not gate.allows_issue(len(iq)):
                    reason = StallReason.IQ_GATE
                    break
                op, alloc_cycle = iq[0]
                injected = op is _INJECTED_NOOP
                if n_active and not injected \
                        and cycle - alloc_cycle <= n_active \
                        and not gate.enabled:
                    # Reading a still-stabilizing IQ entry (only possible
                    # when the gate is disabled in an ablation).
                    self.iq_violations += 1
                if injected:
                    iq.popleft()
                    issued += 1
                    continue
                # Source readiness (scoreboard MSB, Figures 6-8).
                blocked_src = False
                for src in op.srcs:
                    if not scoreboard.is_ready(src):
                        blocked_src = True
                        if shadow is not None and shadow.is_ready(src):
                            reason = StallReason.RF_IRAW_BUBBLE
                            if op.index not in iraw_delayed:
                                iraw_delayed.add(op.index)
                                stalls.iraw_delayed_instructions += 1
                        else:
                            reason = StallReason.RF_DEPENDENCY
                        break
                if blocked_src:
                    break
                opclass = op.opclass
                latency = params.latency_of(opclass)
                # WAW write ordering (writes to a register must stay in
                # program order; rare with mixed latencies).
                dest = op.dest
                if dest is not None and \
                        pending_write[dest] >= cycle + latency + 1:
                    reason = StallReason.WAW_ORDER
                    break
                if not units.can_accept(opclass):
                    reason = StallReason.FU_BUSY
                    break
                write_port_index = -1
                if dest is not None and write_cost > 1:
                    # Extra Bypass: reserve an RF write port for the whole
                    # multi-cycle write, stalling on contention (Table 1).
                    writeback_cycle = cycle + latency + 1
                    for port, free_at in enumerate(write_ports):
                        if free_at <= writeback_cycle:
                            write_port_index = port
                            break
                    if write_port_index < 0:
                        reason = StallReason.WRITE_PORT
                        break
                is_load = op.is_load
                is_store = op.is_store
                value: int | None = None
                bypass_cycle = cycle + latency
                long_latency = latency > max_encodable
                if is_load or is_store:
                    blocked = lsu.access_blocked(cycle + 1)
                    if blocked is not None:
                        reason = blocked[1]
                        break
                    word = op.mem_addr & ~7
                    if is_load and store_words and word in store_words:
                        # Same-cycle older-store conflict: one-cycle
                        # memory-ordering stall.
                        reason = StallReason.MEMORY_PENDING
                        break
                # ---- commit the issue ----
                operands: list[int] | None = None
                if check_values and (op.srcs and
                                     (op.golden_result is not None
                                      or is_store or op.is_control)):
                    operands = []
                    for src in op.srcs:
                        forwarded = bypass.lookup(src, cycle)
                        if forwarded is None:
                            forwarded = regfile.read(src, cycle + 1, n_active)
                        operands.append(forwarded)
                if is_load:
                    ready, value = lsu.execute_load(op, cycle)
                    bypass_cycle = ready
                    long_latency = (ready - cycle) > max_encodable
                    if check_values and op.golden_result is not None \
                            and value != op.golden_result:
                        self.value_mismatches += 1
                elif is_store:
                    if store_words is None:
                        store_words = set()
                    store_words.add(op.mem_addr & ~7)
                    value = operands[0] if operands else op.store_value
                elif op.golden_result is not None and check_values:
                    value = self._compute(op, operands)
                    if value != op.golden_result:
                        self.value_mismatches += 1
                units.accept(opclass)
                iq.popleft()
                if dest is not None:
                    encode = (bypass_cycle - cycle) if not long_latency \
                        else max_encodable + 1
                    scoreboard.producer_issued(dest, encode)
                    if shadow is not None:
                        shadow.producer_issued(dest, encode)
                    pending_write[dest] = bypass_cycle + 1
                    latest_writer[dest] = op.index
                    if write_port_index >= 0:
                        write_ports[write_port_index] = (
                            bypass_cycle + 1 + write_cost)
                completions.setdefault(bypass_cycle, []).append(
                    (op, dest, value, long_latency))
                issued += 1
            if issued == 0 and reason is not None:
                stalls.charge(reason)

            # ---------------- 3. allocate ----------------
            free = params.iq_size - len(iq)
            if free > 0:
                incoming = _pop_ready(frontend.buffer, cycle,
                                      min(params.alloc_width, free))
                for op in incoming:
                    iq.append((op, cycle))
                if gate.enabled and iq and len(iq) < gate.threshold:
                    # Section 4.2 generalized: whenever allocation cannot
                    # keep occupancy at the Eq. 1 threshold (drains,
                    # redirects, fetch gaps), the allocator pads the queue
                    # with NOOP/invalid entries so older, already
                    # stabilized instructions are not gate-blocked.
                    needed = min(params.alloc_width - len(incoming), free,
                                 gate.threshold - len(iq))
                    for _ in range(max(0, needed)):
                        iq.append((_INJECTED_NOOP, cycle))
                        stalls.injected_noops += 1

            # ---------------- 4. fetch ----------------
            frontend.tick(cycle)

            # ---------------- 5. tick ----------------
            scoreboard.tick()
            if shadow is not None:
                shadow.tick()
            cycle += 1

        return self._result(trace, completed, cycle, frontend, lsu, regfile)


def shift_register_scoreboard(iraw) -> ShiftRegisterScoreboard:
    """The reference scoreboard sized for ``iraw`` (as ``IrawPolicy``
    sizes the production one)."""
    return ShiftRegisterScoreboard(
        num_registers=NUM_REGISTERS,
        bypass_levels=iraw.bypass_levels,
        max_stabilization_cycles=iraw.max_stabilization_cycles,
    )
