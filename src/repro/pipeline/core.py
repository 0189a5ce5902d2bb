"""Cycle-level two-wide in-order core (the paper's Figure 3 machine).

One :class:`InOrderCore` runs one trace under one configuration.  Stages
are evaluated once per cycle in reverse pipeline order so same-cycle
producer-consumer interactions resolve like hardware:

1. **writeback** — completions publish bypass values, write the register
   file (timestamped for stabilization checking), fire long-latency
   scoreboard events, commit stores through the STable, resolve branches;
2. **issue** — up to ICI oldest IQ entries issue in order, gated by the
   IRAW occupancy rule (Eq. 1), scoreboard readiness (Figures 6-8), WAW
   write ordering, functional units and the memory-side IRAW guards;
3. **allocate** — up to AI ops move from the fetch buffer into the IQ;
   when fetch is frozen (mispredict/end of trace) and the occupancy gate
   blocks issue, NOOPs are injected to drain the queue (Section 4.2);
4. **fetch** — the front end pulls from the trace through IL0/ITLB/BP/RSB;
5. **tick** — shift registers advance (O(1): they are stamped with the
   cycle of their last write rather than shifted).

A cycle in which no stage changes state and whose stall reason is in
``_SKIPPABLE`` repeats exactly until the next event that can change it;
the loop jumps there and charges the stall once per skipped cycle
(README "Simulator kernel" lists the events).

Micro-timing convention (matching the paper's Figure 7/8 example): a
producer issued at cycle ``i`` with latency ``L`` forwards its result to
consumers issuing at ``i+L`` (one bypass level), writes the RF at
``i+L+1``, and the written cell stabilizes through ``i+L+1+N``; consumers
issuing during ``[i+L+1, i+L+N]`` would read the stabilizing cell and are
therefore the ones the extended shift register blocks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.branch.iraw_effects import PredictionHazardTracker
from repro.branch.predictor import BimodalPredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.core.config import IrawConfig
from repro.core.policy import IrawPolicy
from repro.core.scoreboard import Scoreboard
from repro.errors import PipelineError
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import NUM_REGISTERS
from repro.isa.semantics import alu_result
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.pipeline.frontend import NEVER, FrontEnd
from repro.pipeline.lsu import LoadStoreUnit
from repro.pipeline.regfile import BypassNetwork, RegisterFileModel
from repro.pipeline.resources import FunctionalUnits, PipelineParams
from repro.pipeline.stats import SimulationResult, StallReason, StallStats
from repro.workloads.trace import Trace

#: Shared sentinel op for IQ-drain NOOP injection (Section 4.2).
_INJECTED_NOOP = MicroOp(0, Opcode.NOP)

#: Stall reasons of an idle cycle that the kernel may repeat without
#: stepping: nothing in them depends on time except the wake events the
#: skip in ``InOrderCore.run`` waits for.  Memory-side reasons have
#: per-probe side effects (guard and repair counters), so those cycles
#: are stepped.
_SKIPPABLE = frozenset({
    StallReason.FRONTEND_EMPTY,
    StallReason.IQ_GATE,
    StallReason.RF_DEPENDENCY,
    StallReason.RF_IRAW_BUBBLE,
})


@dataclass
class CoreSetup:
    """Everything configurable about one simulation run."""

    iraw: IrawConfig = field(default_factory=IrawConfig.disabled)
    params: PipelineParams = field(default_factory=PipelineParams)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    name: str = "core"
    #: Verify golden values when the trace carries them.
    check_values: bool = True


class InOrderCore:
    """Single-use simulator instance: build, ``run(trace)``, read stats."""

    def __init__(self, setup: CoreSetup | None = None):
        self.setup = setup or CoreSetup()
        params = self.setup.params
        iraw = self.setup.iraw
        self.policy = IrawPolicy(config=iraw)
        self.memory = MemorySystem(self.setup.memory)
        self.predictor = BimodalPredictor()
        self.tracker = PredictionHazardTracker(
            predictor=self.predictor,
            stabilization_cycles=iraw.stabilization_cycles,
            mode=iraw.determinism_mode,
        )
        self.rsb = ReturnStackBuffer()
        self.units = FunctionalUnits(params)
        self.stalls = StallStats()
        #: Shadow scoreboard with N=0 — identifies stalls that exist only
        #: because of the IRAW bubble (the paper's 13.2% / 8.52% numbers).
        self._shadow: Scoreboard | None = None
        if iraw.active and iraw.rf_enabled:
            self._shadow = Scoreboard(
                num_registers=NUM_REGISTERS,
                bypass_levels=iraw.bypass_levels,
                max_stabilization_cycles=iraw.max_stabilization_cycles,
            )
            self._shadow.configure(0)
        self.iq_violations = 0
        self.value_mismatches = 0
        #: Host-side counter: idle cycles charged without stepping the
        #: loop (never part of the result, job keys or cache entries).
        self.skipped_cycles = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

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
        latencies = params.latencies
        issue_slots = range(params.issue_window)
        iq_size = params.iq_size
        alloc_width = params.alloc_width
        gate_on = gate.enabled
        threshold = gate.threshold
        # IQ entries read while still stabilizing are counted per cycle
        # (only possible when an ablation disables the gate).
        iq_watch = n_active > 0 and not gate_on
        # Readiness is read inline from the stamped scoreboard state: at
        # kernel cycle c a scoreboard's clock stands at its base + c.
        timelines, stamps, sb_base = scoreboard.stamped_state()
        boards = (scoreboard,)
        if shadow is not None:
            shadow_timelines, shadow_stamps, shadow_base = \
                shadow.stamped_state()
            boards = (scoreboard, shadow)
        stall_cycles = stalls.cycles
        tracker = self.tracker
        # Enum members and globals cost a lookup each; bind them once.
        frontend_empty = StallReason.FRONTEND_EMPTY
        iq_gate = StallReason.IQ_GATE
        rf_dependency = StallReason.RF_DEPENDENCY
        rf_iraw_bubble = StallReason.RF_IRAW_BUBBLE
        branch_class = OpClass.BRANCH
        jmp = Opcode.JMP
        injected_noop = _INJECTED_NOOP
        buffer = frontend.buffer
        fetch_capacity = params.fetch_buffer_size
        fetch_at = frontend.wake_cycle()
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
            # Did any stage change state this cycle?  If not, the next
            # cycles repeat it until a wake event (see the skip below).
            progressed = False
            # ---------------- 1. writeback ----------------
            records = completions.pop(cycle, None)
            if records:
                progressed = True
                for op, dest, value, long_latency in records:
                    if dest is not None:
                        if latest_writer[dest] == op.index:
                            if check_values:
                                bypass.publish(
                                    dest, value if value is not None else 0,
                                    cycle)
                                regfile.write(
                                    dest, value if value is not None else 0,
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
                        if op.opclass is branch_class \
                                and op.opcode is not jmp:
                            tracker.update(op.pc, op.taken, cycle)
                        frontend.branch_resolved(op.index, cycle)
                        if fetch_at == NEVER:  # frozen behind this branch?
                            fetch_at = frontend.wake_cycle()
                    completed += 1

            # ---------------- 2. issue ----------------
            issued = 0
            reason: StallReason | None = None
            store_words: set[int] | None = None
            now = sb_base + cycle
            for _ in issue_slots:
                if not iq:
                    if issued == 0 and completed < total_ops:
                        reason = frontend_empty
                    break
                if gate_on and len(iq) < threshold:
                    reason = iq_gate
                    break
                op, alloc_cycle = iq[0]
                if op is injected_noop:
                    iq.popleft()
                    issued += 1
                    continue
                if iq_watch and cycle - alloc_cycle <= n_active:
                    # Reading a still-stabilizing IQ entry.
                    self.iq_violations += 1
                # Source readiness (scoreboard MSB, Figures 6-8).
                blocked_src = False
                for src in op.srcs:
                    if not timelines[src] >> (now - stamps[src]) & 1:
                        blocked_src = True
                        if shadow is not None and shadow_timelines[src] >> (
                                shadow_base + cycle - shadow_stamps[src]) & 1:
                            reason = rf_iraw_bubble
                            if op.index not in iraw_delayed:
                                iraw_delayed.add(op.index)
                                stalls.iraw_delayed_instructions += 1
                        else:
                            reason = rf_dependency
                        break
                if blocked_src:
                    break
                opclass = op.opclass
                latency = latencies[opclass]
                # WAW write ordering (writes to a register must stay in
                # program order; rare with mixed latencies).
                dest = op.dest
                if dest is not None and \
                        pending_write[dest] >= cycle + latency + 1:
                    reason = StallReason.WAW_ORDER
                    break
                if not units.can_accept(opclass, cycle):
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
                units.accept(opclass, cycle)
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
                bucket = completions.get(bypass_cycle)
                if bucket is None:
                    completions[bypass_cycle] = [(op, dest, value,
                                                  long_latency)]
                else:
                    bucket.append((op, dest, value, long_latency))
                issued += 1
            if issued:
                progressed = True
            elif reason is not None:
                stall_cycles[reason] += 1

            # ---------------- 3. allocate ----------------
            free = iq_size - len(iq)
            if free > 0:
                # Move ready fetch-buffer entries into the IQ in place.
                room = alloc_width if alloc_width < free else free
                allocated = 0
                while allocated < room and buffer and buffer[0][1] <= cycle:
                    iq.append((buffer.popleft()[0], cycle))
                    allocated += 1
                if allocated:
                    progressed = True
                if gate_on and iq and len(iq) < threshold:
                    # Section 4.2 generalized: whenever allocation cannot
                    # keep occupancy at the Eq. 1 threshold (drains,
                    # redirects, fetch gaps), the allocator pads the queue
                    # with NOOP/invalid entries so older, already
                    # stabilized instructions are not gate-blocked.
                    needed = min(alloc_width - allocated, free,
                                 threshold - len(iq))
                    if needed > 0:
                        progressed = True
                        for _ in range(needed):
                            iq.append((injected_noop, cycle))
                        stalls.injected_noops += needed

            # ---------------- 4. fetch ----------------
            if cycle >= fetch_at and len(buffer) < fetch_capacity:
                frontend.tick(cycle)
                fetch_at = frontend.wake_cycle()
                progressed = True

            # ---------------- 5. tick (or skip) ----------------
            if not progressed and reason in _SKIPPABLE:
                # Nothing changed state, so the following cycles repeat
                # this one until the first event that can change it.
                wake = max_cycles + 1
                if completions:
                    wake = min(wake, min(completions))
                if fetch_at < wake and len(buffer) < fetch_capacity:
                    wake = fetch_at
                if free > 0 and buffer and buffer[0][1] < wake:
                    wake = buffer[0][1]
                watched = False
                if iq:
                    op, alloc_cycle = iq[0]
                    # Per-cycle IQ violations stop at the window's end.
                    watched = iq_watch and cycle - alloc_cycle <= n_active
                    if watched:
                        wake = min(wake, alloc_cycle + n_active + 1)
                    if reason is rf_dependency or reason is rf_iraw_bubble:
                        # Which source blocks, and why, changes only with
                        # an MSB flip on either scoreboard.
                        for board in boards:
                            ticks = board.ticks_to_change(op.srcs)
                            if ticks is not None:
                                wake = min(wake, cycle + ticks)
                if wake > cycle + 1:
                    repeats = wake - cycle - 1
                    stall_cycles[reason] += repeats
                    if watched:
                        self.iq_violations += repeats
                    self.skipped_cycles += repeats
                    for board in boards:
                        board.tick(repeats + 1)
                    cycle = wake
                    continue
            for board in boards:
                board.tick()
            cycle += 1

        return self._result(trace, completed, cycle, frontend, lsu, regfile)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _compute(op: MicroOp, operands: list[int] | None) -> int:
        """Re-run the ALU semantics on datapath operand values."""
        a = operands[0] if operands else 0
        if op.opcode in (Opcode.LI, Opcode.SHL, Opcode.SHR):
            b = 0
        else:
            b = (operands[1] if operands and len(operands) > 1 else op.imm)
        return alu_result(op.opcode, a, b, op.imm)

    def _result(self, trace: Trace, completed: int, cycles: int,
                frontend: FrontEnd, lsu: LoadStoreUnit,
                regfile: RegisterFileModel) -> SimulationResult:
        violations = (regfile.violations + lsu.iraw_violations
                      + self.iq_violations)
        return SimulationResult(
            trace_name=trace.name,
            config_name=self.setup.name,
            instructions=completed,
            cycles=cycles,
            stalls=self.stalls,
            iraw_violations=violations,
            value_mismatches=self.value_mismatches,
            branch_mispredicts=frontend.mispredicts,
            branches=frontend.branches,
            memory_stats=self.memory.stats(),
            prediction_hazards={
                "bp_potential_extra_misprediction_rate":
                    self.tracker.counts.bp_potential_extra_misprediction_rate,
                "bp_predictions": self.tracker.counts.bp_predictions,
                "bp_hazard_reads": self.tracker.counts.bp_hazard_reads,
                "bp_potential_flips": self.tracker.counts.bp_potential_flips,
                "rsb_hazard_pops": self.tracker.counts.rsb_hazard_pops,
                "rsb_pops": self.tracker.counts.rsb_pops,
                "rsb_stall_cycles": self.tracker.counts.rsb_stall_cycles,
                "stable_forwards": lsu.stable_forwards,
                "stable_full_matches": self.policy.stable.full_matches,
                "stable_set_matches": self.policy.stable.set_matches,
            },
        )


def simulate(trace: Trace, iraw: IrawConfig | None = None,
             params: PipelineParams | None = None,
             memory: MemoryConfig | None = None,
             name: str = "core", check_values: bool = True,
             max_cycles: int | None = None) -> SimulationResult:
    """One-call convenience wrapper: build a core and run a trace."""
    setup = CoreSetup(
        iraw=iraw or IrawConfig.disabled(),
        params=params or PipelineParams(),
        memory=memory or MemoryConfig(),
        name=name,
        check_values=check_values,
    )
    return InOrderCore(setup).run(trace, max_cycles=max_cycles)
