"""Tests for the vectorized ``mc-block`` Monte-Carlo tier.

Every Monte-Carlo campaign runs as ``mc-block`` jobs; a per-die
campaign is blocks of one die.  Locks the contracts of that path: the
NumPy block kernel is **bit-equal** per die to the scalar oracle
(``tests/mc_die_oracle.py``) at every block size, block partitioning
is invariant (any block size reduces to the same rows — the
hypothesis properties), blocks ride the engine as ordinary cacheable
jobs through every backend, and the dispatch tier underneath (pool
chunks, broker batch claims with hardlinked heartbeats, the worker
supervisor) preserves results while amortizing per-job overhead.
"""

import math
import os
import sys
import threading
from collections import OrderedDict
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mc_die_oracle import die_results, evaluate_die_point, unpacked
from mc_reduce_oracle import StreamingStats

from repro.circuits.frequency import ClockScheme
from repro.engine import (
    Job,
    ParallelRunner,
    PoolBackend,
    QueueBackend,
    ResultCache,
    job_key,
    shard_jobs,
)
from repro.engine import executors
from repro.engine.broker import SpoolBroker, WorkerSupervisor, \
    run_worker_loop
from repro.engine.executors import execute_chunk, execute_job
from repro.errors import ConfigError
from repro.montecarlo import (
    ImportanceSpec,
    MonteCarloConfig,
    MonteCarloSpec,
    moments,
    montecarlo_jobs,
    sample_die,
    vccmin_rows,
    yield_curve_rows,
)
from repro.montecarlo.sampling import (
    _P_MAX,
    _P_MONOTONE,
    DieBlock,
    evaluate_block,
)

pytestmark = pytest.mark.engine

GRID = (550.0, 450.0)
SCHEMES = ("baseline", "iraw")


def campaign_rows(dies, block, grid=GRID, schemes=SCHEMES, seed=2,
                  runner=None):
    """Reduced (yield_curve, vccmin) rows of one campaign shape."""
    mc = MonteCarloSpec(dies=dies, seed=seed, block=block)
    jobs = montecarlo_jobs(mc, grid, schemes)
    if runner is None:
        results = [execute_job(job) for job in jobs]
    else:
        results = runner.run(jobs, label="mc-block-test")
    return (yield_curve_rows(results, grid, schemes, dies, mc.confidence),
            vccmin_rows(results, grid, schemes, dies))


# ----------------------------------------------------------------------
# The vectorized kernel vs the scalar path
# ----------------------------------------------------------------------

class TestBlockKernel:
    def test_block_build_matches_scalar_sampling_bit_for_bit(self):
        config = MonteCarloConfig(seed=3)
        block = DieBlock(config, die_start=5, dies=32).build().sample(config)
        scalar = [sample_die(config, die).effective_sigma(config.sigma_mv)
                  for die in range(5, 37)]
        assert block.effective.tolist() == scalar  # exact, not approx
        assert block.log_weight.tolist() == [0.0] * 32

    def test_block_build_honours_array_subset_and_zero_offset(self):
        config = MonteCarloConfig(seed=1, arrays=("RF", "DL0"),
                                  die_sigma_mv=0.0)
        block = DieBlock(config, die_start=0, dies=16).build().sample(config)
        scalar = [sample_die(config, die).effective_sigma(config.sigma_mv)
                  for die in range(16)]
        assert block.effective.tolist() == scalar

    @pytest.mark.parametrize("scheme", list(ClockScheme))
    def test_block_evaluation_is_bit_equal_per_die(self, scheme):
        """The hard contract: every DiePointResult field identical
        between the NumPy kernel and the scalar path — including at
        600 mV, the IRAW deactivation boundary."""
        config = MonteCarloConfig(seed=0)
        for vcc in (600.0, 500.0, 420.0):
            result = evaluate_block(config, 0, 12, vcc, scheme)
            scalar = [evaluate_die_point(config, die, vcc, scheme)
                      for die in range(12)]
            assert list(die_results(result)) == scalar

    def test_block_arrays_are_read_only(self):
        config = MonteCarloConfig(seed=0)
        sampled = DieBlock(config, 0, 4).build().sample(config)
        with pytest.raises(ValueError):
            sampled.effective[0] = 0.0
        with pytest.raises(ValueError):
            sampled.log_weight[0] = 0.0
        result = evaluate_block(config, 0, 4, 500.0, ClockScheme.IRAW)
        with pytest.raises(ValueError):
            result.slowdown[0] = 0.0

    def test_block_validation(self):
        config = MonteCarloConfig(seed=0)
        with pytest.raises(ConfigError, match="die index"):
            DieBlock(config, die_start=-1, dies=4)
        with pytest.raises(ConfigError, match="at least one die"):
            DieBlock(config, die_start=0, dies=0)
        bad_shape = DieBlock(config, 0, 4).build().sample(config)
        with pytest.raises(ConfigError, match="shape"):
            evaluate_block(config, 0, 8, 500.0, ClockScheme.BASELINE,
                           sample=bad_shape)


# ----------------------------------------------------------------------
# Sampler exactness: the one-pass block sampler vs the scalar oracle
# ----------------------------------------------------------------------

EXACT_DIES = 4096


def oracle(config, dies):
    """``sample_die`` per die: (effective sigmas, log weights)."""
    samples = [sample_die(config, die) for die in range(dies)]
    return ([sample.effective_sigma(config.sigma_mv) for sample in samples],
            [sample.log_weight for sample in samples])


def executed_block(config, dies=EXACT_DIES):
    """The block as the engine executor samples it (through the memo)."""
    mc = MonteCarloSpec(
        dies=dies, seed=config.seed, block=dies, arrays=config.arrays,
        die_sigma_mv=config.die_sigma_mv,
        importance=ImportanceSpec(shift_sigma=config.shift_sigma)
        if config.shift_sigma else None)
    assert mc.config() == config
    [job] = montecarlo_jobs(mc, (500.0,), ("iraw",))
    result = execute_job(job)
    return result.worst_sigma.tolist(), result.log_weight.tolist()


class TestSamplerExactness:
    @pytest.mark.parametrize("seed", [0, 7919])
    @pytest.mark.parametrize("shifted_first", [True, False])
    def test_shared_draws_match_the_oracle_in_either_order(
            self, monkeypatch, seed, shifted_first):
        """Shift 0 and 2.0 share one memoized draw block; whichever
        config builds it, both read back the oracle bit for bit."""
        monkeypatch.setattr(executors, "_BLOCK_DRAWS", OrderedDict())
        configs = [MonteCarloConfig(seed=seed, shift_sigma=2.0),
                   MonteCarloConfig(seed=seed)]
        if not shifted_first:
            configs.reverse()
        for config in configs:
            assert executed_block(config) == oracle(config, EXACT_DIES)
        assert len(executors._BLOCK_DRAWS) == 1  # drawn once, shared

    def test_threads_sharing_draws_each_read_their_own_config(
            self, monkeypatch):
        """Queue workers run executors on threads: jobs of two configs
        racing on one memoized draw block (and its last-derivation
        slot) must each still read back their own config's oracle."""
        monkeypatch.setattr(executors, "_BLOCK_DRAWS", OrderedDict())
        configs = [MonteCarloConfig(seed=11), MonteCarloConfig(
            seed=11, shift_sigma=2.0)]
        expected = [oracle(config, 64) for config in configs]
        mismatches = []

        def work(index):
            for _ in range(20):
                config = configs[index % 2]
                if executed_block(config, dies=64) \
                        != expected[index % 2]:
                    mismatches.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_array_subset_matches_the_oracle(self):
        """RF + RSB are small enough that many dies' max p falls below
        the monotone edge, so the per-array fallback is exercised."""
        config = MonteCarloConfig(seed=7919, arrays=("RF", "RSB"))
        expected = oracle(config, EXACT_DIES)
        below = sum(NormalDist().cdf(max(sigma for _, sigma in
                                         sample_die(config, die).worst_sigma))
                    < _P_MONOTONE for die in range(EXACT_DIES))
        assert below > 0
        assert executed_block(config) == expected
        sample = DieBlock(config, 0, EXACT_DIES).build().sample(config)
        assert (sample.effective.tolist(),
                sample.log_weight.tolist()) == expected

    def test_zero_die_sigma_matches_the_oracle(self):
        config = MonteCarloConfig(seed=0, die_sigma_mv=0.0)
        draws = DieBlock(config, 0, EXACT_DIES).build()
        assert draws.offset_mv.tolist() == [0.0] * EXACT_DIES
        assert executed_block(config) == oracle(config, EXACT_DIES)

    def test_draw_key_ignores_how_draws_are_interpreted(self):
        base = MonteCarloConfig(seed=3)
        remargined = MonteCarloConfig(seed=3, shift_sigma=1.0,
                                      sigma_mv=12.0, design_sigma=5.0,
                                      max_slowdown=1.5)
        assert DieBlock(base, 0, 8).draw_key \
            == DieBlock(remargined, 0, 8).draw_key
        for other in (MonteCarloConfig(seed=4),
                      MonteCarloConfig(seed=3, die_sigma_mv=5.0),
                      MonteCarloConfig(seed=3, arrays=("RF",))):
            assert DieBlock(other, 0, 8).draw_key \
                != DieBlock(base, 0, 8).draw_key
        assert DieBlock(base, 1, 8).draw_key != DieBlock(base, 0, 8).draw_key


def _quantile(p):
    return NormalDist().inv_cdf(min(p, _P_MAX))


def _stepped(p, steps):
    """``p`` moved ``steps`` adjacent doubles (clamped to (0, 1])."""
    toward = 2.0 if steps > 0 else 0.0
    for _ in range(abs(steps)):
        p = math.nextafter(p, toward)
    return min(p, 1.0)


#: Anchors of the region the block sampler collapses in: its edge, the
#: AS241 inner tail seam (r = 5, p = 1 - e^-25), where campaigns live,
#: and the top doubles below 1.
_ANCHORS = (_P_MONOTONE, 1.0 - math.exp(-25.0), 1.0 - 1e-7, _P_MAX)


class TestPSpaceCollapse:
    """``inv_cdf(max p) == max inv_cdf(p)`` wherever the sampler uses it.

    The collapse is exact where ``NormalDist.inv_cdf`` is weakly
    monotone.  It is not at the central/tail seam p = 0.925 (adjacent
    doubles there step backwards by an ulp), which is why the sampler
    collapses only when the die's max p is at or above ``_P_MONOTONE``.
    """

    @given(base=st.sampled_from(_ANCHORS)
           | st.floats(_P_MONOTONE, 1.0),
           steps=st.lists(st.integers(-64, 64), max_size=10),
           others=st.lists(st.floats(0.0, 1.0, exclude_min=True,
                                     exclude_max=True), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_collapse_is_exact_above_the_edge(self, base, steps, others):
        ps = [base] + [_stepped(base, k) for k in steps] + others
        assert max(ps) >= _P_MONOTONE
        assert _quantile(max(ps)) == max(_quantile(p) for p in ps)

    @pytest.mark.parametrize("anchor", _ANCHORS)
    def test_adjacent_doubles_are_weakly_monotone(self, anchor):
        p = _stepped(anchor, -5000)
        previous = _quantile(p)
        for _ in range(10000):
            p = math.nextafter(p, 2.0)
            if p >= 1.0:
                break
            value = _quantile(p)
            assert value >= previous, p
            previous = value


# ----------------------------------------------------------------------
# Planning: mc-block jobs are ordinary engine units
# ----------------------------------------------------------------------

class TestBlockPlanning:
    def test_spans_tile_the_die_range_in_order(self):
        mc = MonteCarloSpec(dies=10, seed=2, block=4)
        jobs = montecarlo_jobs(mc, (500.0,), ("iraw",))
        spans = [(job.option("die_start"), job.option("dies"))
                 for job in jobs]
        assert spans == [(0, 4), (4, 4), (8, 2)]
        assert all(job.kind == "mc-block" for job in jobs)

    def test_block_size_is_part_of_the_job_key(self):
        grid, schemes = (500.0,), ("iraw",)
        four = montecarlo_jobs(MonteCarloSpec(dies=8, seed=2, block=4),
                               grid, schemes)
        eight = montecarlo_jobs(MonteCarloSpec(dies=8, seed=2, block=8),
                                grid, schemes)
        per_die = montecarlo_jobs(MonteCarloSpec(dies=8, seed=2),
                                  grid, schemes)
        keys = {job_key(job) for job in four + eight + per_die}
        assert len(keys) == len(four) + len(eight) + len(per_die)

    def test_mc_block_jobs_are_atomic_units(self):
        mc = MonteCarloSpec(dies=8, seed=2, block=4)
        jobs = montecarlo_jobs(mc, GRID, SCHEMES)
        assert all(shard_jobs(job) is None for job in jobs)

    def test_executor_validates_options(self):
        job = Job(kind="mc-block", vcc_mv=500.0, scheme="iraw")
        with pytest.raises(ConfigError, match="mc-block job needs"):
            execute_job(job)


# ----------------------------------------------------------------------
# Satellite: block partitioning invariance (hypothesis)
# ----------------------------------------------------------------------

class TestBlockPartitionInvariance:
    @given(dies=st.integers(1, 16), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_any_block_size_reduces_to_the_per_die_rows(self, dies, data):
        """Property: for arbitrary campaign sizes and block sizes, the
        blocked plan yields the same per-die samples and the same
        reduced yield_curve / vccmin_dist rows as the per-die plan —
        the block is an evaluation batch, never a sampling contract."""
        block = data.draw(st.integers(1, dies), label="block")
        reference = campaign_rows(dies, 1, seed=5)
        assert campaign_rows(dies, block, seed=5) == reference

    def test_named_block_sizes_match_per_die(self):
        """The spec-level anchors: 1, 7, 64 (= dies) on a 64-die
        campaign, plus per-die sample equality block by block."""
        reference = campaign_rows(64, 1)
        for block in (1, 7, 64):
            assert campaign_rows(64, block) == reference
        mc = MonteCarloSpec(dies=64, seed=2, block=7)
        blocked = [execute_job(job)
                   for job in montecarlo_jobs(mc, (500.0,), ("iraw",))]
        per_die = [execute_job(job)
                   for job in montecarlo_jobs(MonteCarloSpec(dies=64, seed=2),
                                              (500.0,), ("iraw",))]
        scalar = [evaluate_die_point(mc.config(), die, 500.0,
                                     ClockScheme.IRAW)
                  for die in range(64)]
        assert unpacked(blocked) == unpacked(per_die) == scalar


# ----------------------------------------------------------------------
# One job kind: one-die blocks, k-die blocks and the scalar oracle
# ----------------------------------------------------------------------

class TestPerDieOracle:
    @given(dies=st.integers(1, 300), seed=st.integers(0, 2**32),
           shift=st.sampled_from([0.0, 2.0]),
           arrays=st.sampled_from([(), ("RF", "RSB")]),
           vcc=st.sampled_from([600.0, 500.0, 420.0]),
           scheme=st.sampled_from(list(ClockScheme)), data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_block_one_block_k_and_the_oracle_agree_per_die(
            self, dies, seed, shift, arrays, vcc, scheme, data):
        """Property: a per-die campaign (block 1, the default) and any
        k-die block plan evaluate every die to the scalar oracle's
        result, every field bit for bit.  The RF + RSB subset puts
        many dies' max p below the monotone edge, so the per-array
        sampling fallback is exercised too."""
        block = data.draw(st.integers(2, max(2, dies)), label="block")
        importance = ImportanceSpec(shift_sigma=shift) if shift else None

        def executed(block):
            mc = MonteCarloSpec(dies=dies, seed=seed, block=block,
                                arrays=arrays, importance=importance)
            jobs = montecarlo_jobs(mc, (vcc,), (scheme.value,))
            return mc.config(), [execute_job(job) for job in jobs]

        config, per_die = executed(1)
        _, blocked = executed(block)
        assert len(per_die) == dies
        scalar = [evaluate_die_point(config, die, vcc, scheme)
                  for die in range(dies)]
        assert unpacked(per_die) == unpacked(blocked) == scalar


# ----------------------------------------------------------------------
# Backends: blocked campaigns through serial / pool / queue + cache
# ----------------------------------------------------------------------

class TestBlockBackends:
    DIES = 64
    BLOCK = 16

    def test_serial_pool_and_queue_are_bit_identical(self, tmp_path):
        serial = campaign_rows(self.DIES, self.BLOCK,
                               runner=ParallelRunner(workers=1))
        pool = campaign_rows(self.DIES, self.BLOCK, runner=ParallelRunner(
            backend=PoolBackend(workers=2, batch=3)))
        queue = campaign_rows(self.DIES, self.BLOCK, runner=ParallelRunner(
            backend=QueueBackend(tmp_path / "spool", local_workers=2,
                                 claim_batch=4, lease_timeout=60.0,
                                 poll_interval=0.01)))
        assert serial == pool == queue
        assert serial == campaign_rows(self.DIES, 1)  # one job per die

    def test_warm_cache_rerun_simulates_nothing(self, tmp_path):
        cold = ParallelRunner(workers=1,
                              cache=ResultCache(root=tmp_path / "cache"))
        reference = campaign_rows(self.DIES, self.BLOCK, runner=cold)
        # 4 blocks x 2 Vcc x 2 schemes, each counted as one unit.
        assert cold.stats.simulated == 16
        warm = ParallelRunner(workers=1,
                              cache=ResultCache(root=tmp_path / "cache"))
        assert campaign_rows(self.DIES, self.BLOCK, runner=warm) \
            == reference
        assert warm.stats.simulated == 0

    def test_streaming_extend_matches_repeated_add(self):
        """Blocks of a column (an empty one included) reduce to the
        bits of the whole column; in the reference accumulator,
        ``extend`` over the blocks matches repeated ``add``."""
        values = [0.5, -1.25, 3.0, 3.0, 0.0, 7.5, -2.0]
        one_by_one = StreamingStats()
        for value in values:
            one_by_one.add(value)
        batched = StreamingStats()
        batched.extend(values[:3])
        batched.extend([])
        batched.extend(values[3:])
        assert batched.as_dict() == one_by_one.as_dict()
        assert batched.count == one_by_one.count
        column = np.concatenate([values[:3], [], values[3:]])
        assert moments(column) == moments(np.array(values))
        assert moments(column) == pytest.approx(one_by_one.as_dict(),
                                                rel=1e-12)


# ----------------------------------------------------------------------
# Dispatch tier: pool chunks, broker batch claims, the supervisor
# ----------------------------------------------------------------------

class TestPoolChunking:
    def test_auto_chunk_size_scales_with_the_batch(self):
        backend = PoolBackend(workers=2)
        assert backend._chunk_size(4) == 1       # tiny batch: legacy path
        assert backend._chunk_size(160) == 10    # ~8 chunks per worker
        assert backend._chunk_size(100_000) == 32  # capped
        assert PoolBackend(workers=2, batch=5)._chunk_size(100_000) == 5

    def test_batch_validation(self):
        with pytest.raises(ConfigError, match="batch"):
            PoolBackend(workers=2, batch=0)

    def test_execute_chunk_isolates_member_failures(self):
        good = Job(kind="engine-selftest-sleep", vcc_mv=500.0,
                   scheme="iraw", options=(("note", "ok"),))
        bad = Job(kind="engine-selftest-crash", vcc_mv=500.0,
                  scheme="iraw", options=(("note", "boom"),))
        outcomes = execute_chunk([good, bad, good])
        assert [tag for tag, _ in outcomes] == ["ok", "err", "ok"]
        assert outcomes[0][1] == {"note": "ok"}
        assert isinstance(outcomes[1][1], RuntimeError)


def spool_jobs(broker, count):
    """Spool ``count`` trivial self-test jobs; returns their keys."""
    keys = []
    for index in range(count):
        job = Job(kind="engine-selftest-sleep", vcc_mv=500.0,
                  scheme="iraw", options=(("note", f"n{index}"),))
        key = job_key(job)
        assert broker.submit(key, job)
        keys.append(key)
    return keys


class TestClaimBatch:
    def test_claims_share_one_hardlinked_lease_inode(self, tmp_path):
        broker = SpoolBroker(tmp_path / "spool", lease_timeout=60.0)
        keys = spool_jobs(broker, 5)
        claims = broker.claim_batch("w1", limit=3)
        assert len(claims) == 3
        assert {claim.key for claim in claims} <= set(keys)
        inodes = {os.stat(claim.heartbeat_path).st_ino
                  for claim in claims}
        assert len(inodes) == 1  # one utime refreshes the whole batch
        assert all(claim.owns() for claim in claims)
        # The rest stayed pending; a second batch picks them up.
        rest = broker.claim_batch("w2", limit=10)
        assert len(rest) == 2

    def test_limit_one_degrades_to_claim_next(self, tmp_path):
        broker = SpoolBroker(tmp_path / "spool", lease_timeout=60.0)
        spool_jobs(broker, 2)
        assert len(broker.claim_batch("w", limit=1)) == 1
        assert len(broker.claim_batch("w", limit=0)) == 1  # <= 1: next
        assert broker.claim_batch("w", limit=5) == []  # spool empty

    def test_worker_loop_drains_in_batches(self, tmp_path):
        broker = SpoolBroker(tmp_path / "spool", lease_timeout=60.0)
        keys = spool_jobs(broker, 7)
        completed, failed = run_worker_loop(
            broker, poll_interval=0.01, idle_exit=0.05, claim_batch=3)
        assert (completed, failed) == (7, 0)
        done = {path.stem for path in broker.done_dir.glob("*.pkl")}
        assert done == set(keys)

    def test_worker_loop_rejects_bad_claim_batch(self, tmp_path):
        broker = SpoolBroker(tmp_path / "spool", lease_timeout=60.0)
        with pytest.raises(ConfigError, match="claim_batch"):
            run_worker_loop(broker, claim_batch=0, idle_exit=0.01)


class _ThreadWorker:
    """Supervisor test double: a worker 'process' backed by a thread."""

    def __init__(self, broker):
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._serve,
                                        args=(broker,), daemon=True)
        self._thread.start()

    def _serve(self, broker):
        try:
            run_worker_loop(broker, poll_interval=0.01, idle_exit=0.05,
                            claim_batch=2)
        finally:
            self._done.set()

    def is_alive(self):
        return self._thread.is_alive()

    @property
    def exitcode(self):
        return 0 if self._done.is_set() else None

    def join(self, timeout=None):
        self._thread.join(timeout)


class _CrashedWorker:
    """Supervisor test double that is already dead with a bad exit."""

    exitcode = 1

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass


class TestWorkerSupervisor:
    def test_fleet_sizes_to_queue_depth(self, tmp_path):
        supervisor = WorkerSupervisor(tmp_path / "spool", max_workers=3,
                                      shards_per_worker=4,
                                      spawn=lambda: _ThreadWorker(None))
        assert supervisor.desired(0) == 0
        assert supervisor.desired(1) == 1
        assert supervisor.desired(4) == 1
        assert supervisor.desired(5) == 2
        assert supervisor.desired(1000) == 3  # clamped to max_workers
        floor = WorkerSupervisor(tmp_path / "spool2", max_workers=3,
                                 min_workers=2, shards_per_worker=4,
                                 spawn=lambda: _ThreadWorker(None))
        assert floor.desired(0) == 2

    def test_supervises_the_spool_to_drained(self, tmp_path):
        supervisor = WorkerSupervisor(
            tmp_path / "spool", max_workers=2, shards_per_worker=4,
            poll_interval=0.02,
            spawn=lambda: _ThreadWorker(supervisor.broker))
        keys = spool_jobs(supervisor.broker, 7)
        status = supervisor.run()
        assert status["backlog"] == 0
        assert supervisor.spawned == 2  # ceil(7 / 4), clamped to max
        assert supervisor.crashed == 0
        done = {p.stem for p in supervisor.broker.done_dir.glob("*.pkl")}
        assert done == set(keys)

    def test_crash_loop_exhausts_the_respawn_budget(self, tmp_path):
        supervisor = WorkerSupervisor(tmp_path / "spool", max_workers=1,
                                      max_respawns=2,
                                      spawn=lambda: _CrashedWorker())
        spool_jobs(supervisor.broker, 4)
        supervisor.poll_once()  # spawns the first (already dead) worker
        supervisor.poll_once()  # crash 1 charged, respawn
        supervisor.poll_once()  # crash 2 charged, respawn
        with pytest.raises(RuntimeError, match="respawn budget"):
            supervisor.poll_once()
        assert supervisor.crashed == 3

    def test_validation(self, tmp_path):
        root = tmp_path / "spool"
        with pytest.raises(ConfigError, match="max_workers"):
            WorkerSupervisor(root, max_workers=0)
        with pytest.raises(ConfigError, match="min_workers"):
            WorkerSupervisor(root, max_workers=2, min_workers=3)
        with pytest.raises(ConfigError, match="shards_per_worker"):
            WorkerSupervisor(root, max_workers=1, shards_per_worker=0)
        with pytest.raises(ConfigError, match="claim_batch"):
            WorkerSupervisor(root, max_workers=1, claim_batch=0)


# ----------------------------------------------------------------------
# CLI: the supervisor and batch flags end to end (empty spool)
# ----------------------------------------------------------------------

class TestWorkerCli:
    def test_supervise_exits_cleanly_on_an_empty_spool(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        assert main(["worker", "--queue", str(tmp_path / "spool"),
                     "--supervise", "--concurrency", "2"]) == 0
        captured = capsys.readouterr()
        assert "supervising" in captured.err
        assert "spawned 0 worker(s)" in captured.out

    def test_claim_batch_flag_is_validated(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["worker", "--queue", str(tmp_path / "spool"),
                     "--claim-batch", "0", "--max-shards", "0"])
        assert code == 2
        assert "--claim-batch" in capsys.readouterr().err
