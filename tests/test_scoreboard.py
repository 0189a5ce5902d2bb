"""Tests for the IRAW-extended scoreboard (paper Figures 6-8).

The key test reproduces the paper's running example bit-for-bit: a 3-cycle
producer with one bypass level and N=1 initializes its destination's shift
register to ``0001011`` and blocks consumers exactly at cycle i+4.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scoreboard import Scoreboard
from repro.errors import ConfigError, PipelineError


def make_scoreboard(n=1, baseline_bits=5, bypass=1, max_n=2):
    sb = Scoreboard(num_registers=8, baseline_bits=baseline_bits,
                    bypass_levels=bypass, max_stabilization_cycles=max_n)
    sb.configure(n)
    return sb


def ready_timeline(sb: Scoreboard, reg: int, horizon: int) -> list[bool]:
    """is_ready(reg) at issue cycles i, i+1, ..., i+horizon-1."""
    timeline = []
    for _ in range(horizon):
        timeline.append(sb.is_ready(reg))
        sb.tick()
    return timeline


class TestPaperFigure8:
    def test_pattern_0001011(self):
        """The literal example of Section 4.1.2 / Figure 8."""
        sb = make_scoreboard(n=1, baseline_bits=5, bypass=1, max_n=2)
        sb.producer_issued(reg=3, latency=3)
        # Physical width is 5+1+2=8; the paper's 7-bit example maps to the
        # first 7 positions with an extra trailing '1'.
        assert sb.pattern_string(3).startswith("0001011")

    def test_readiness_windows_match_paper(self):
        """Ready at i+3 (bypass), blocked at i+4 (bubble), ready i+5+."""
        sb = make_scoreboard(n=1)
        sb.producer_issued(reg=3, latency=3)
        timeline = ready_timeline(sb, 3, 7)
        assert timeline == [False, False, False, True, False, True, True]

    def test_baseline_has_no_bubble(self):
        """N=0 reduces to the classic 00011 delayed-wakeup pattern."""
        sb = make_scoreboard(n=0)
        sb.producer_issued(reg=3, latency=3)
        assert sb.pattern_string(3).startswith("00011")
        timeline = ready_timeline(sb, 3, 6)
        assert timeline == [False, False, False, True, True, True]

    def test_single_cycle_producer(self):
        sb = make_scoreboard(n=1)
        sb.producer_issued(reg=1, latency=1)
        timeline = ready_timeline(sb, 1, 5)
        # i: not ready, i+1: bypass, i+2: bubble, i+3+: stable.
        assert timeline == [False, True, False, True, True]

    def test_n2_has_two_bubble_cycles(self):
        sb = make_scoreboard(n=2)
        sb.producer_issued(reg=1, latency=1)
        timeline = ready_timeline(sb, 1, 6)
        assert timeline == [False, True, False, False, True, True]


class TestLongLatencyPath:
    def test_long_producer_zeroes_register(self):
        sb = make_scoreboard(n=1)
        sb.producer_issued(reg=2, latency=20)  # beyond B-1
        timeline = ready_timeline(sb, 2, 10)
        assert not any(timeline)

    def test_completion_event_installs_tail(self):
        sb = make_scoreboard(n=1)
        sb.producer_issued(reg=2, latency=20)
        for _ in range(5):
            sb.tick()
        sb.long_latency_completed(2)
        timeline = ready_timeline(sb, 2, 4)
        # Ready now (result bus), bubble next cycle, then stable.
        assert timeline == [True, False, True, True]

    def test_completion_event_baseline(self):
        sb = make_scoreboard(n=0)
        sb.producer_issued(reg=2, latency=20)
        sb.long_latency_completed(2)
        assert all(ready_timeline(sb, 2, 4))


class TestBookkeeping:
    def test_idle_registers_always_ready(self):
        sb = make_scoreboard()
        assert sb.is_ready(0) and sb.is_idle(0)

    def test_flush_clears_inflight(self):
        sb = make_scoreboard()
        sb.producer_issued(reg=1, latency=3)
        sb.flush()
        assert sb.is_ready(1) and sb.is_idle(1)

    def test_reconfigure_bounds(self):
        sb = make_scoreboard(max_n=2)
        with pytest.raises(ConfigError):
            sb.configure(3)
        with pytest.raises(ConfigError):
            sb.configure(-1)

    def test_latency_must_be_positive(self):
        sb = make_scoreboard()
        with pytest.raises(PipelineError):
            sb.producer_issued(reg=1, latency=0)

    def test_max_encodable_latency(self):
        sb = make_scoreboard(baseline_bits=6)
        assert sb.max_encodable_latency == 5

    def test_sizing_validation(self):
        with pytest.raises(ConfigError):
            Scoreboard(num_registers=0)
        with pytest.raises(ConfigError):
            Scoreboard(baseline_bits=1)


@settings(max_examples=60, deadline=None)
@given(latency=st.integers(min_value=1, max_value=4),
       n=st.integers(min_value=0, max_value=3),
       bypass=st.integers(min_value=1, max_value=2))
def test_readiness_window_property(latency, n, bypass):
    """Property (paper Section 4.1.2): a consumer may issue at cycle c iff
    c is in the bypass window [i+L, i+L+bypass-1] or past the bubble
    (c >= i+L+bypass+N)."""
    sb = Scoreboard(num_registers=4, baseline_bits=6, bypass_levels=bypass,
                    max_stabilization_cycles=3)
    sb.configure(n)
    sb.producer_issued(reg=1, latency=latency)
    horizon = latency + bypass + n + 3
    timeline = ready_timeline(sb, 1, horizon)
    for offset, ready in enumerate(timeline):
        in_bypass = latency <= offset < latency + bypass
        past_bubble = offset >= latency + bypass + n
        assert ready == (in_bypass or past_bubble), (offset, timeline)


# ----------------------------------------------------------------------
# Stamped state: lazy shifting equals per-cycle shifting
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(latency=st.integers(min_value=1, max_value=12),
       n=st.integers(min_value=0, max_value=2),
       bypass=st.integers(min_value=0, max_value=2),
       complete_after=st.one_of(st.none(), st.integers(0, 12)),
       k=st.integers(min_value=0, max_value=40))
def test_tick_k_equals_k_single_ticks(latency, n, bypass, complete_after, k):
    """``tick(k)`` leaves every register exactly where ``k`` calls of
    ``tick()`` do, on the encodable and the long-latency paths."""
    boards = [make_scoreboard(n=n, baseline_bits=6, bypass=bypass, max_n=2)
              for _ in range(2)]
    for board in boards:
        board.producer_issued(reg=2, latency=latency)
        if complete_after is not None:
            board.tick(complete_after)
            board.long_latency_completed(2)
    bulk, single = boards
    bulk.tick(k)
    for _ in range(k):
        single.tick()
    for reg in range(bulk.num_registers):
        assert bulk.pattern_string(reg) == single.pattern_string(reg)
        assert bulk.is_ready(reg) == single.is_ready(reg)
        assert bulk.is_idle(reg) == single.is_idle(reg)


_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("issue"), st.integers(0, 3), st.integers(1, 9)),
    st.tuples(st.just("complete"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("tick"), st.integers(0, 12), st.just(0)),
    st.tuples(st.just("configure"), st.integers(0, 2), st.just(0)),
    st.tuples(st.just("flush"), st.just(0), st.just(0)),
), max_size=40)


def _apply(board, operation, single_ticks: bool) -> None:
    name, arg, latency = operation
    if name == "issue":
        board.producer_issued(arg, latency)
    elif name == "complete":
        board.long_latency_completed(arg)
    elif name == "tick":
        if single_ticks:
            for _ in range(arg):
                board.tick()
        else:
            board.tick(arg)
    elif name == "configure":
        board.configure(arg)
    else:
        board.flush()


@settings(max_examples=80, deadline=None)
@given(operations=_OPERATIONS, bypass=st.integers(min_value=0, max_value=2))
def test_stamped_scoreboard_matches_shift_registers(operations, bypass):
    """Any sequence of writes, ticks, reconfigurations and flushes leaves
    the stamped scoreboard bit-equal to per-cycle shift registers, and
    ``ticks_to_change`` predicts the next MSB flip exactly."""
    from pipeline_oracle import ShiftRegisterScoreboard

    stamped = Scoreboard(num_registers=4, bypass_levels=bypass)
    shifting = ShiftRegisterScoreboard(num_registers=4, bypass_levels=bypass)
    for operation in operations:
        _apply(stamped, operation, single_ticks=False)
        _apply(shifting, operation, single_ticks=True)
        for reg in range(4):
            assert stamped.pattern_string(reg) == shifting.pattern_string(reg)
            assert stamped.is_ready(reg) == shifting.is_ready(reg)
    for reg in range(4):
        predicted = stamped.ticks_to_change((reg,))
        probe = ShiftRegisterScoreboard(num_registers=4,
                                        bypass_levels=bypass)
        for operation in operations:
            _apply(probe, operation, single_ticks=True)
        ready = probe.is_ready(reg)
        flip = None
        for ticks in range(1, 2 * probe.width):
            probe.tick()
            if probe.is_ready(reg) != ready:
                flip = ticks
                break
        assert predicted == flip
    singles = [stamped.ticks_to_change((reg,)) for reg in range(4)]
    assert stamped.ticks_to_change(range(4)) == min(
        (ticks for ticks in singles if ticks is not None), default=None)
