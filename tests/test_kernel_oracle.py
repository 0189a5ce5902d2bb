"""Differential test: the stamped, event-skipping kernel vs the reference.

:mod:`pipeline_oracle` keeps the per-cycle loop the simulator had before
its scoreboard was stamped and idle cycles were skipped.  Both kernels
run the same traces under every configuration family the studies use;
the results must be equal field for field, every scoreboard register
must hold the same bits afterwards, and the skip must actually fire.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from pipeline_oracle import OracleCore, shift_register_scoreboard

from repro.baselines.faulty_bits import FaultyBitsBaseline
from repro.branch.iraw_effects import DeterminismMode
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.core.config import IrawConfig
from repro.core.controller import VccController
from repro.core.policy import IrawPolicy
from repro.engine.executors import warm_caches
from repro.errors import PipelineError
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import Opcode
from repro.pipeline.core import CoreSetup, InOrderCore
from repro.pipeline.resources import PipelineParams
from repro.workloads.kernels import kernel_trace
from repro.workloads.profiles import PROFILES_BY_NAME, STANDARD_PROFILES
from repro.workloads.synthetic import SyntheticTraceGenerator
from repro.workloads.trace import Trace


def _faulty_bits(memory) -> None:
    FaultyBitsBaseline(FrequencySolver()).apply_to_memory(memory)


#: name -> (CoreSetup, optional memory mutator applied before the run).
CONFIGS = {
    "baseline": (CoreSetup(name="baseline"), None),
    **{f"iraw-n{n}": (CoreSetup(iraw=IrawConfig(stabilization_cycles=n),
                                name=f"iraw-n{n}"), None)
       for n in range(1, IrawConfig().max_stabilization_cycles + 1)},
    "iq-off": (CoreSetup(iraw=IrawConfig(stabilization_cycles=2,
                                         iq_enabled=False)), None),
    "rf-off": (CoreSetup(iraw=IrawConfig(stabilization_cycles=1,
                                         rf_enabled=False)), None),
    "stable-off": (CoreSetup(iraw=IrawConfig(stabilization_cycles=1,
                                             stable_enabled=False)), None),
    "deterministic": (CoreSetup(iraw=IrawConfig(
        stabilization_cycles=2,
        determinism_mode=DeterminismMode.DETERMINISTIC)), None),
    "bypass-0": (CoreSetup(iraw=IrawConfig(stabilization_cycles=1,
                                           bypass_levels=0)), None),
    "extra-bypass": (CoreSetup(params=PipelineParams(rf_write_cycles=2),
                               name="extra-bypass"), None),
    "faulty-bits": (CoreSetup(name="faulty-bits"), _faulty_bits),
}


def _pair(setup: CoreSetup, mutate=None, trace: Trace | None = None,
          warm: bool = False):
    """A production core and an oracle core in identical start states."""
    cores = (InOrderCore(setup), OracleCore(setup))
    for core in cores:
        if mutate is not None:
            mutate(core.memory)
        if warm and trace is not None:
            warm_caches(core.memory, trace)
    return cores


def _registers(core) -> list[str]:
    boards = [core.policy.scoreboard]
    if core._shadow is not None:
        boards.append(core._shadow)
    return [board.pattern_string(reg) for board in boards
            for reg in range(board.num_registers)]


def _count_iterations(core) -> list[int]:
    """Record the scoreboard ticks of ``core``: one per loop iteration."""
    ticks: list[int] = []
    board = core.policy.scoreboard
    original = board.tick

    def tick(cycles: int = 1) -> None:
        ticks.append(cycles)
        original(cycles)

    board.tick = tick
    return ticks


def assert_kernels_agree(trace: Trace, setup: CoreSetup, mutate=None,
                         warm: bool = False, max_cycles: int | None = None):
    core, oracle = _pair(setup, mutate, trace, warm)
    ticks = _count_iterations(core)
    result = core.run(trace, max_cycles=max_cycles)
    expected = oracle.run(trace, max_cycles=max_cycles)
    assert result == expected
    assert _registers(core) == _registers(oracle)
    assert len(ticks) + core.skipped_cycles == result.cycles
    assert sum(ticks) == result.cycles
    return core, result


def synthetic(profile_name: str, seed: int, length: int) -> Trace:
    generator = SyntheticTraceGenerator(PROFILES_BY_NAME[profile_name],
                                        seed=seed)
    return generator.generate(length)


@settings(max_examples=60, deadline=None)
@given(profile=st.sampled_from([p.name for p in STANDARD_PROFILES]),
       seed=st.integers(min_value=0, max_value=10_000),
       length=st.integers(min_value=200, max_value=3000),
       config=st.sampled_from(sorted(CONFIGS)),
       warm=st.booleans())
def test_random_traces_match_reference(profile, seed, length, config,
                                       warm):
    setup, mutate = CONFIGS[config]
    assert_kernels_agree(synthetic(profile, seed, length), setup, mutate,
                         warm)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_every_config_matches_reference(config, warm):
    setup, mutate = CONFIGS[config]
    trace = synthetic("specint-like", 3, 800)
    assert_kernels_agree(trace, setup, mutate, warm)


@pytest.mark.parametrize("kernel,config", [
    ("pointer_chase", "iraw-n2"), ("store_forward", "iraw-n1"),
    ("calls", "deterministic"), ("crc", "stable-off"), ("sort", "rf-off"),
    ("histogram", "extra-bypass"), ("matmul", "iq-off"),
])
def test_value_checked_kernels_match_reference(kernel, config):
    trace, _ = kernel_trace(kernel, 12)
    setup, mutate = CONFIGS[config]
    assert trace.has_golden_values()
    core, result = assert_kernels_agree(trace, setup, mutate)
    if config in ("stable-off", "rf-off", "iq-off"):
        return  # ablations are allowed to corrupt values
    assert result.value_mismatches == 0


def _reindexed(ops):
    return [MicroOp(i, op.opcode, dest=op.dest, srcs=op.srcs, imm=op.imm,
                    pc=op.pc, mem_addr=op.mem_addr, taken=op.taken,
                    target=op.target) for i, op in enumerate(ops)]


def test_chained_dvfs_phases_share_one_policy():
    """Two phases on one reprogrammed policy, as ``analysis.dvfs`` runs
    them: the kernel must leave the scoreboard clock where per-cycle
    ticking leaves it, so the next phase's stamps stay consistent."""
    trace = synthetic("office-like", 5, 1200)
    phases = ((450.0, trace.ops[:700]), (650.0, trace.ops[700:]))
    outputs = []
    for kind, board in ((InOrderCore, None),
                        (OracleCore, shift_register_scoreboard(IrawConfig()))):
        controller = VccController(FrequencySolver(), ClockScheme.IRAW)
        policy = IrawPolicy(scoreboard=board)
        output = []
        for vcc_mv, segment in phases:
            config = controller.switch(policy, vcc_mv)
            part = Trace(f"{trace.name}@{vcc_mv:g}", _reindexed(segment))
            core = kind(CoreSetup(iraw=config.iraw, check_values=False))
            core.policy = policy
            warm_caches(core.memory, part)
            output.append(core.run(part))
            output.append([policy.scoreboard.pattern_string(reg)
                           for reg in range(policy.scoreboard.num_registers)])
        outputs.append(output)
        if kind is InOrderCore:
            clock = policy.scoreboard.stamped_state()[2]
            assert clock == output[0].cycles + output[2].cycles
    assert outputs[0] == outputs[1]


def test_max_cycles_raises_the_same_error():
    trace = synthetic("specfp-like", 1, 600)
    setup, _ = CONFIGS["iraw-n2"]
    core, oracle = _pair(setup)
    messages = []
    for simulator in (core, oracle):
        with pytest.raises(PipelineError) as info:
            simulator.run(trace, max_cycles=150)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert core.stalls == oracle.stalls
    assert core.policy.scoreboard.stamped_state()[2] == 151
    assert _registers(core) == _registers(oracle)


def _divide_chain(length: int) -> Trace:
    ops = [MicroOp(i, Opcode.DIV, dest=1, srcs=(1,), pc=0x1000 + 4 * (i % 8))
           for i in range(length)]
    return Trace("divide-chain", ops)


def test_skip_fires_on_a_divide_chain():
    core, result = assert_kernels_agree(_divide_chain(60),
                                        CONFIGS["iraw-n1"][0])
    assert core.skipped_cycles > 0
    # A serial divide chain idles almost all the time.
    assert core.skipped_cycles > result.cycles // 2


def test_skip_fires_on_a_table1_shard():
    """The Table 1 ``specint-like`` shard at 500 mV under IRAW clocking."""
    solver = FrequencySolver()
    point = solver.operating_point(500.0, ClockScheme.IRAW)
    setup = CoreSetup(iraw=IrawConfig.for_operating_point(point),
                      check_values=False)
    trace = synthetic("specint-like", 0, 2500)
    core, _ = assert_kernels_agree(trace, setup, warm=True)
    assert core.skipped_cycles > 0

