"""Front end: fetch, branch prediction, RSB, and the fetch buffer.

Trace-driven fetch walks the dynamic instruction stream in order; control
flow is pre-resolved, so prediction affects *timing only*:

* a mispredicted branch freezes fetch until it resolves in the execute
  stage plus a redirect penalty (wrong-path fetches are not simulated,
  the standard trace-driven arrangement);
* a correctly predicted taken branch costs a one-cycle fetch bubble;
* IL0/ITLB misses stall fetch until the fill returns, and under IRAW
  clocking the corresponding post-fill guard windows stall fetch again
  (paper Section 4.3);
* returns pop the RSB; in determinism mode a pop within the stabilization
  window of its push stalls instead (paper Section 4.5).
"""

from __future__ import annotations

from collections import deque

from repro.branch.iraw_effects import DeterminismMode, PredictionHazardTracker
from repro.branch.rsb import ReturnStackBuffer
from repro.core.policy import IrawPolicy
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import MemorySystem
from repro.pipeline.resources import PipelineParams


#: ``FrontEnd.wake_cycle`` when fetch is frozen behind an unresolved
#: branch or has nothing left to fetch.
NEVER = 1 << 62


class FrontEnd:
    """Fetches micro-ops from a trace into the allocation buffer."""

    def __init__(self, ops: list[MicroOp], params: PipelineParams,
                 memory: MemorySystem, policy: IrawPolicy,
                 tracker: PredictionHazardTracker,
                 rsb: ReturnStackBuffer):
        self._ops = ops
        self._params = params
        self._memory = memory
        self._policy = policy
        self._tracker = tracker
        self._rsb = rsb
        self._il0_hit_latency = memory.config.il0_hit_latency
        self._next = 0
        #: Fetched ops as (op, cycle it may allocate); the allocate stage
        #: pops ready entries off the left in place.
        self.buffer: deque[tuple[MicroOp, int]] = deque()
        self._stalled_until = 0
        #: Index of a mispredicted branch fetch is frozen behind, if any.
        self._blocked_on: int | None = None
        self._current_line = -1
        # Statistics.
        self.mispredicts = 0
        self.branches = 0
        self.icache_stall_starts = 0
        self.guard_stall_cycles = 0
        self.rsb_determinism_stalls = 0

    def wake_cycle(self) -> int:
        """Earliest cycle at which :meth:`tick` can change any state,
        provided the buffer has room (a full buffer makes it a no-op).

        :data:`NEVER` while fetch is frozen behind a mispredicted branch
        or the trace is exhausted.
        """
        if self._blocked_on is not None or self._next >= len(self._ops):
            return NEVER
        return self._stalled_until

    # ------------------------------------------------------------------
    # Branch resolution callback (from the execute/writeback stage)
    # ------------------------------------------------------------------

    def branch_resolved(self, op_index: int, cycle: int) -> None:
        """A control op finished executing; unfreeze fetch if it was ours."""
        if self._blocked_on == op_index:
            self._blocked_on = None
            self._stalled_until = max(self._stalled_until,
                                      cycle + self._params.mispredict_penalty)

    # ------------------------------------------------------------------
    # Per-cycle fetch
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Fetch up to ``fetch_width`` ops into the buffer."""
        if self._blocked_on is not None or cycle < self._stalled_until:
            return
        params = self._params
        buffer = self.buffer
        # Each fetched op either fills a buffer slot or ends the cycle.
        room = min(params.fetch_width,
                   params.fetch_buffer_size - len(buffer))
        ops = self._ops
        total = len(ops)
        ready_at = cycle + params.front_latency
        fetched = 0
        while fetched < room and self._next < total:
            op = ops[self._next]
            line = op.pc >> 6
            if line != self._current_line:
                guards = self._policy.guards
                release = guards["IL0"].blocked_until(cycle)
                if release is None:
                    release = guards["ITLB"].blocked_until(cycle)
                if release is None:
                    release = guards["IFB"].blocked_until(cycle)
                if release is not None:
                    self.guard_stall_cycles += 1
                    self._stalled_until = release
                    return
                response = self._memory.fetch(op.pc, cycle)
                if response.fills:
                    self._policy.arm_fill_guards(response.fills)
                self._current_line = line
                if response.ready_cycle > cycle + self._il0_hit_latency:
                    # Miss (or TLB walk): freeze fetch until the line is in.
                    self.icache_stall_starts += 1
                    self._stalled_until = response.ready_cycle
                    return
            fetched += 1
            if op.is_control:
                if self._handle_control(op, cycle, ready_at):
                    return
                continue
            buffer.append((op, ready_at))
            self._next += 1

    def _handle_control(self, op: MicroOp, cycle: int, ready_at: int) -> bool:
        """Predict a control op; True if fetch must stop this cycle."""
        self.branches += 1
        mispredicted = False
        if op.opclass is OpClass.BRANCH:
            if op.opcode.value == "jmp":
                predicted_taken = True  # direct target, BTB assumed clean
            else:
                predicted_taken = self._tracker.predict(op.pc, cycle)
            mispredicted = predicted_taken != op.taken
        elif op.is_call:
            self._rsb.push(op.pc + 4, cycle)
        elif op.is_return:
            mispredicted = self._predict_return(op, cycle)
            if mispredicted is None:  # determinism stall, retry next cycle
                return True
        self.buffer.append((op, ready_at))
        self._next += 1
        if mispredicted:
            self.mispredicts += 1
            self._blocked_on = op.index
            return True
        if op.taken and self._params.taken_branch_bubble > 0:
            # Resume fetching after the bubble (cycle+1 would be the very
            # next cycle, i.e. no bubble at all).
            self._stalled_until = cycle + 1 + self._params.taken_branch_bubble
            self._current_line = -1  # redirected: next line refetch
            return True
        return False

    def _predict_return(self, op: MicroOp, cycle: int) -> bool | None:
        """RSB pop; None means 'stall this cycle' (determinism mode)."""
        n = self._policy.stabilization_cycles
        deterministic = (self._tracker.mode is DeterminismMode.DETERMINISTIC)
        if deterministic and n > 0:
            top_written = self._rsb.top_written_at()
            if top_written is not None and cycle - top_written <= n:
                # Paper Section 4.5: "the RSB should be stalled after a
                # call instruction" — wait out the window.
                self.rsb_determinism_stalls += 1
                self._stalled_until = top_written + n + 1
                self._tracker.note_rsb_pop(hazardous=False, stalled_cycles=1)
                return None
        hazard_window = n if not deterministic else 0
        predicted, hazardous = self._rsb.pop(cycle, hazard_window)
        self._tracker.note_rsb_pop(hazardous=hazardous)
        return predicted != op.target
