import itertools
import math
import multiprocessing
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import linkbound as lb
from linkbound import cli, simulator
from linkbound.simulator import _BLOCK_CELLS, _DRAIN_CHUNK, DELAY_SEARCH_CAP


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            lb.SimConfig(horizon_slots=0)
        with pytest.raises(ValueError):
            lb.SimConfig(replications=0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="master_seed"):
            lb.SimConfig(master_seed=-1)

    def test_replications_bounded_by_spawn_word(self):
        assert lb.SimConfig(replications=2**32).replications == 2**32
        with pytest.raises(ValueError, match="replications"):
            lb.SimConfig(replications=2**32 + 1)

    @pytest.mark.parametrize("field", ["horizon_slots", "replications", "master_seed"])
    @pytest.mark.parametrize("value", [200.0, 10.5, True, "200", None])
    def test_fields_must_be_integers(self, field, value):
        with pytest.raises(TypeError, match=field):
            lb.SimConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = lb.SimConfig(np.int64(50), np.uint32(3), np.int64(2))
        assert [type(v) for v in (cfg.horizon_slots, cfg.replications, cfg.master_seed)] == [int] * 3
        env = lb.AffineEnvelope(0.0, 1e9)
        channel = lb.ShadowingChannel(25.0, 8.0, 500e6, 1.0)
        out = lb.run_experiment(env, channel, cfg)
        _assert_same_outcome(out, lb.run_experiment(env, channel, lb.SimConfig(50, 3, 2)))


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 3)
INDICES = (0, 255, 256, 2**31, 2**32 - 1)


def _numpy_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def _derived_words(seed: int, indices) -> np.ndarray:
    """Seed words of an index list, by one array pass, or of one int index."""
    spawn = indices if isinstance(indices, int) else np.array(indices, dtype=np.uint32)
    return simulator._seed_words(*simulator._run_pool(seed), spawn)


class TestSeeding:
    """The array-pass seed derivation is numpy's SeedSequence, word for word."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_match_numpy(self, seed):
        for words, index in zip(_derived_words(seed, INDICES), INDICES):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
            assert np.array_equal(words, ss.generate_state(4, np.uint64))

    @given(seed=st.integers(0, 2**200 - 1), index=st.integers(0, 2**32 - 1))
    def test_words_match_numpy_property(self, seed, index):
        expected = np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(
            4, np.uint64)
        assert np.array_equal(_derived_words(seed, [index])[0], expected)
        # replication_rng derives one index's words from a Python int.
        assert np.array_equal(_derived_words(seed, index), expected)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("index", INDICES)
    def test_stream_matches_numpy(self, seed, index):
        draws = lb.replication_rng(seed, index).standard_normal(16)
        assert np.array_equal(draws, _numpy_rng(seed, index).standard_normal(16))

    def test_index_range(self):
        for index in (-1, 2**32):
            with pytest.raises(ValueError, match="index"):
                lb.replication_rng(0, index)
        with pytest.raises(ValueError, match="master_seed"):
            lb.replication_rng(-1, 0)

    def test_seed_chunk_invariance(self, operating_channel, monkeypatch):
        env = lb.AffineEnvelope(0.0, 4.7e9)
        cfg = lb.SimConfig(300, 40, master_seed=6)
        reference = lb.run_experiment(env, operating_channel, cfg)
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(simulator, "_SEED_CHUNK", chunk)
            out = lb.run_experiment(env, operating_channel, cfg)
            _assert_same_outcome(out, reference)
            # A run that starts and ends inside a chunk yields numpy's streams.
            rngs = simulator._replication_rngs(2**64 + 5, np.arange(3, 20))
            for index, rng in zip(range(3, 20), rngs, strict=True):
                expected = _numpy_rng(2**64 + 5, index).standard_normal(4)
                assert np.array_equal(rng.standard_normal(4), expected)


class TestRunReplication:
    def test_zero_arrivals(self, operating_channel):
        env = lb.AffineEnvelope(0.0, 0.0)
        rng = lb.replication_rng(1, 0)
        backlog, delay, censored = lb.run_replication(env, operating_channel, 100, rng)
        assert backlog == 0.0 and delay == 0 and not censored

    def test_deterministic_underload_drains(self):
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        cap = lb.capacity_bits_per_slot(chan, chan.median_snr)
        env = lb.AffineEnvelope(0.0, cap * 0.9)
        backlog, delay, _ = lb.run_replication(env, chan, 50, lb.replication_rng(0, 0))
        assert backlog == 0.0 and delay == 0

    def test_deterministic_overload_linear_growth(self):
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        cap = lb.capacity_bits_per_slot(chan, chan.median_snr)
        env = lb.AffineEnvelope(0.0, cap * 1.25)
        horizon = 40
        backlog, _, _ = lb.run_replication(env, chan, horizon, lb.replication_rng(0, 0))
        assert backlog == pytest.approx(horizon * 0.25 * cap, rel=1e-9)

    def test_censoring(self):
        # Overloaded deterministic queue whose residual work needs more
        # service slots than the search cap.
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        cap = lb.capacity_bits_per_slot(chan, chan.median_snr)
        env = lb.AffineEnvelope(0.0, cap * 3.0)
        horizon = DELAY_SEARCH_CAP
        backlog, delay, censored = lb.run_replication(
            env, chan, horizon, lb.replication_rng(0, 0)
        )
        assert censored
        assert delay == DELAY_SEARCH_CAP

    def test_bad_horizon(self, operating_channel, gbps_env):
        with pytest.raises(ValueError):
            lb.run_replication(gbps_env, operating_channel, 0, lb.replication_rng(0, 0))


HORIZONS = (1, 17, 100, 399)


@pytest.fixture(scope="module")
def paths(operating_channel):
    """run_replication at each horizon beside the service redrawn from its stream.

    The rate is near capacity so that some horizons end with a backlog.
    Slot k's service is the k-th draw of replication_rng(seed, index); the
    draws after the horizon's are the fresh service that drains the backlog.
    """
    env = lb.AffineEnvelope(0.0, 3.9e9)
    out = []
    for horizon in HORIZONS:
        backlog, delay, censored = lb.run_replication(
            env, operating_channel, horizon, lb.replication_rng(3, 0)
        )
        rng = lb.replication_rng(3, 0)
        draws = lb.sample_snr(operating_channel, rng, horizon + DELAY_SEARCH_CAP)
        service = lb.capacity_bits_per_slot(operating_channel, draws)
        arrivals = lb.generate_arrivals(env, horizon)
        out.append((horizon, backlog, delay, censored, arrivals, service))
    return out


class TestPathInvariants:

    def test_backlog_identity(self, paths):
        # B(t) = A(0,t) - D(0,t) >= 0, with D(0,t) the bits served by slot t.
        for horizon, backlog, _, _, arrivals, service in paths:
            assert backlog >= 0.0
            served = np.sum(arrivals) - backlog
            assert 0.0 <= served <= np.sum(service[:horizon]) + 1e-6
        assert any(backlog > 0.0 for _, backlog, *_ in paths)

    def test_lindley_recursion(self, paths):
        for horizon, backlog, _, _, arrivals, service in paths:
            b = 0.0
            for a, s in zip(arrivals, service[:horizon]):
                b = max(b + a - s, 0.0)
            assert backlog == pytest.approx(b, rel=1e-12, abs=1e-6)

    def test_causality(self, paths):
        departures = [np.sum(arrivals) - backlog for _, backlog, _, _, arrivals, _ in paths]
        cum_arrivals = [np.sum(arrivals) for *_, arrivals, _ in paths]
        assert np.all(np.asarray(departures) <= np.asarray(cum_arrivals) + 1e-6)
        assert np.all(np.diff(departures) >= -1e-6)

    def test_work_conserving_min_plus_equality(self, paths):
        # D(0,t) equals the min-plus convolution of arrivals and service for
        # a work-conserving single queue.
        for t, backlog, _, _, arrivals, service in paths:
            cum_a = np.concatenate(([0.0], np.cumsum(arrivals)))
            cum_s = np.concatenate(([0.0], np.cumsum(service[:t])))
            tau = np.arange(0, t + 1)
            conv = np.min(cum_a[tau] + (cum_s[t] - cum_s[tau]))
            assert cum_a[t] - backlog == pytest.approx(conv, rel=1e-12, abs=1e-6)

    def test_virtual_delay_is_first_passage(self, paths):
        # The virtual delay is the first w whose fresh cumulative service,
        # drawn next on the same stream, reaches the backlog at the horizon.
        for horizon, backlog, delay, censored, _, service in paths:
            fresh = np.cumsum(service[horizon:])
            expected = 0 if backlog <= 0.0 else int(np.argmax(fresh >= backlog)) + 1
            assert not censored
            assert delay == expected
        assert any(delay > 1 for _, _, delay, *_ in paths)


class TestRunExperiment:
    def test_single_replication_wraps_pair(self, gbps_env, operating_channel):
        cfg = lb.SimConfig(horizon_slots=200, replications=1, master_seed=9)
        out = lb.run_experiment(gbps_env, operating_channel, cfg)
        b, w, c = lb.run_replication(
            gbps_env, operating_channel, 200, lb.replication_rng(9, 0)
        )
        assert out.replications == 1
        assert out.backlog_samples[0] == b
        assert out.delay_samples[0] == w
        assert bool(out.censored[0]) == c

    def test_seed_determinism(self, gbps_env, operating_channel):
        cfg = lb.SimConfig(horizon_slots=100, replications=50, master_seed=4)
        a = lb.run_experiment(gbps_env, operating_channel, cfg)
        b = lb.run_experiment(gbps_env, operating_channel, cfg)
        assert np.array_equal(a.backlog_samples, b.backlog_samples)
        assert np.array_equal(a.delay_samples, b.delay_samples)

    def test_different_seeds_differ(self, gbps_env, operating_channel):
        a = lb.run_experiment(
            gbps_env, operating_channel, lb.SimConfig(100, 50, master_seed=4)
        )
        b = lb.run_experiment(
            gbps_env, operating_channel, lb.SimConfig(100, 50, master_seed=5)
        )
        assert not np.array_equal(a.backlog_samples, b.backlog_samples)

    def test_evaluation_order_invariance(self, gbps_env, operating_channel):
        # Replications run in reverse index order reproduce the samples that
        # run_experiment collects in forward order.
        out = lb.run_experiment(
            gbps_env, operating_channel, lb.SimConfig(100, 53, master_seed=8)
        )
        for idx in reversed(range(53)):
            b, w, c = lb.run_replication(
                gbps_env, operating_channel, 100, lb.replication_rng(8, idx)
            )
            assert out.backlog_samples[idx] == b
            assert out.delay_samples[idx] == w
            assert bool(out.censored[idx]) == c


def _block_rows(horizon: int) -> int:
    return max(1, _BLOCK_CELLS // max(horizon, _DRAIN_CHUNK))


def _assert_matches_replications(env, channel, cfg, out):
    for idx in range(cfg.replications):
        b, w, c = lb.run_replication(
            env, channel, cfg.horizon_slots, lb.replication_rng(cfg.master_seed, idx)
        )
        assert out.backlog_samples[idx] == b
        assert out.delay_samples[idx] == w
        assert bool(out.censored[idx]) == c


def _assert_same_outcome(out, reference):
    assert np.array_equal(out.backlog_samples, reference.backlog_samples)
    assert np.array_equal(out.delay_samples, reference.delay_samples)
    assert np.array_equal(out.censored, reference.censored)


class TestBlockBoundaries:
    """run_experiment evaluates replications in blocks of rows; every index
    must still equal its lone replication bit for bit."""

    @pytest.mark.parametrize("rate, mixed", [
        (3.9e9, ("zero", "one_round")),
        (4.7e9, ("one_round", "multi_round")),
    ])
    def test_blocks_match_replications(self, operating_channel, rate, mixed):
        env = lb.AffineEnvelope(0.0, rate)
        cfg = lb.SimConfig(2000, 2 * _block_rows(2000) + 3, master_seed=3)
        out = lb.run_experiment(env, operating_channel, cfg)
        _assert_matches_replications(env, operating_channel, cfg, out)
        delay = out.delay_samples
        kinds = {
            "zero": bool(np.any(out.backlog_samples == 0.0)),
            "one_round": bool(np.any((delay > 0) & (delay <= _DRAIN_CHUNK))),
            "multi_round": bool(np.any(delay > _DRAIN_CHUNK)),
        }
        assert all(kinds[k] for k in mixed), kinds
        assert not out.censored.any()

    def test_horizon_above_block(self, operating_channel):
        env = lb.AffineEnvelope(0.0, 3.9e9)
        cfg = lb.SimConfig(_BLOCK_CELLS + 1, 3, master_seed=5)
        assert _block_rows(cfg.horizon_slots) == 1
        out = lb.run_experiment(env, operating_channel, cfg)
        _assert_matches_replications(env, operating_channel, cfg, out)

    def test_overload_censors_every_replication(self):
        # sigma = 0 at seven times capacity: each backlog needs 12000 slots
        # of fresh service, past the search cap.
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        cap = lb.capacity_bits_per_slot(chan, chan.median_snr)
        env = lb.AffineEnvelope(0.0, 7.0 * cap)
        cfg = lb.SimConfig(2000, 2 * _block_rows(2000) + 3, master_seed=2)
        out = lb.run_experiment(env, chan, cfg)
        assert out.censored.all()
        assert np.all(out.delay_samples == DELAY_SEARCH_CAP)
        _assert_matches_replications(env, chan, cfg, out)

    def test_block_size_invariance(self, operating_channel, monkeypatch):
        env = lb.AffineEnvelope(0.0, 4.7e9)
        cfg = lb.SimConfig(300, 40, master_seed=6)
        reference = lb.run_experiment(env, operating_channel, cfg)
        for cells in (1, 7 * 300, 1 << 20):
            monkeypatch.setattr(simulator, "_BLOCK_CELLS", cells)
            out = lb.run_experiment(env, operating_channel, cfg)
            _assert_same_outcome(out, reference)


def _set_workers(monkeypatch, workers):
    """The simulator at that many block workers, down to one row per worker,
    so that the small blocks of these tests still split between them."""
    monkeypatch.setattr(simulator, "_WORKERS", workers)
    monkeypatch.setattr(simulator, "_MIN_WORKER_ROWS", 1)


def _failing_on_call(fn, n, message):
    """fn, except that its call number n, counted from 0, raises RuntimeError(message)."""
    calls = itertools.count()

    def failing(*args):
        if next(calls) == n:
            raise RuntimeError(message)
        return fn(*args)

    return failing


class TestBlockWorkers:
    """Blocks run on _WORKERS threads started for each call; no sample may
    depend on the worker count, on other callers or on a failed run before
    it."""

    # 5 rows at 300 slots, split between the workers: at least 12 blocks,
    # more than workers + 1 for every worker count below.
    CELLS = 5 * 300
    CFG = lb.SimConfig(300, 60, master_seed=9)
    ENV = lb.AffineEnvelope(0.0, 4.7e9)

    @pytest.fixture
    def serial(self, operating_channel, monkeypatch):
        monkeypatch.setattr(simulator, "_BLOCK_CELLS", self.CELLS)
        _set_workers(monkeypatch, 1)
        reference = lb.run_experiment(self.ENV, operating_channel, self.CFG)
        _assert_matches_replications(self.ENV, operating_channel, self.CFG, reference)
        return reference

    def test_worker_count_invariance(self, operating_channel, monkeypatch, serial):
        assert self.CFG.replications // (self.CELLS // 300) > 3 + 1
        for workers in (1, 2, 3):
            _set_workers(monkeypatch, workers)
            out = lb.run_experiment(self.ENV, operating_channel, self.CFG)
            _assert_same_outcome(out, serial)

    def test_concurrent_callers(self, operating_channel, monkeypatch, serial):
        # Three workers, more than this suite assumes cores, and a short
        # switch interval: a buffer or generator shared between blocks or
        # callers would change some sample.
        other_cfg = lb.SimConfig(300, 45, master_seed=10)
        other_serial = lb.run_experiment(self.ENV, operating_channel, other_cfg)
        _set_workers(monkeypatch, 3)
        start = threading.Barrier(2, timeout=60)
        outs = {}

        def call(cfg):
            start.wait()
            outs[cfg] = lb.run_experiment(self.ENV, operating_channel, cfg)

        threads = [threading.Thread(target=call, args=(cfg,)) for cfg in (self.CFG, other_cfg)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        _assert_same_outcome(outs[self.CFG], serial)
        _assert_same_outcome(outs[other_cfg], other_serial)

    def test_block_error_reaches_caller(self, operating_channel, monkeypatch, serial):
        _set_workers(monkeypatch, 2)
        drain = simulator._drain
        calls = iter(range(1000))

        def failing_drain(*args):
            if next(calls) == 3:
                raise RuntimeError("block failed")
            return drain(*args)

        monkeypatch.setattr(simulator, "_drain", failing_drain)
        with pytest.raises(RuntimeError, match="block failed"):
            lb.run_experiment(self.ENV, operating_channel, self.CFG)
        monkeypatch.setattr(simulator, "_drain", drain)
        out = lb.run_experiment(self.ENV, operating_channel, self.CFG)
        _assert_same_outcome(out, serial)

    def test_seeding_error_reaches_caller(self, operating_channel, monkeypatch, serial):
        # One-row blocks: replication 40 is seeded when a worker takes its
        # block, so a worker that dropped the error would leave rows unset.
        _set_workers(monkeypatch, 3)
        before = set(threading.enumerate())
        failing = _failing_on_call(simulator._generator, 40, "seeding failed")
        monkeypatch.setattr(simulator, "_generator", failing)
        with pytest.raises(RuntimeError, match="seeding failed"):
            lb.run_experiment(self.ENV, operating_channel, self.CFG)
        assert set(threading.enumerate()) == before

    def test_no_thread_outlives_a_call(self, operating_channel, monkeypatch, serial):
        _set_workers(monkeypatch, 3)
        before = set(threading.enumerate())
        out = lb.run_experiment(self.ENV, operating_channel, self.CFG)
        _assert_same_outcome(out, serial)
        assert set(threading.enumerate()) == before
        failing = _failing_on_call(simulator._drain, 3, "block failed")
        monkeypatch.setattr(simulator, "_drain", failing)
        with pytest.raises(RuntimeError, match="block failed"):
            lb.run_experiment(self.ENV, operating_channel, self.CFG)
        assert set(threading.enumerate()) == before

    def test_one_block_starts_no_thread(self, operating_channel, monkeypatch, serial):
        _set_workers(monkeypatch, 3)
        monkeypatch.setattr(threading, "Thread", None)
        lb.run_replication(self.ENV, operating_channel, 300, lb.replication_rng(9, 0))
        _set_workers(monkeypatch, 1)
        _assert_same_outcome(lb.run_experiment(self.ENV, operating_channel, self.CFG), serial)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_simulates(self, operating_channel, monkeypatch, serial):
        # A child forked after a threaded run inherits none of its threads
        # and runs its own.
        _set_workers(monkeypatch, 3)
        _assert_same_outcome(lb.run_experiment(self.ENV, operating_channel, self.CFG), serial)
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)

        def child():
            out = lb.run_experiment(self.ENV, operating_channel, self.CFG)
            sender.send((out.backlog_samples, out.delay_samples, out.censored))

        process = ctx.Process(target=child)
        process.start()
        try:
            assert receiver.poll(60)
            samples = receiver.recv()
        finally:
            process.join(60)
        assert not process.is_alive() and process.exitcode == 0
        _assert_same_outcome(lb.SimOutcome(*samples, master_seed=self.CFG.master_seed), serial)


class TestLoneRows:
    """Every row of a run replays its replication's own stream: it equals
    run_replication on that stream alone, whatever the point, the horizon,
    the seed, the block size or the number of workers."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(rate=st.sampled_from((1.0e9, 3.9e9, 4.2e9, 5.0e9)),
           sigma=st.sampled_from((0.0, 2.0, 8.0, 9.0)), horizon=st.sampled_from((1, 60, 300)),
           replications=st.integers(1, 40), seed=st.integers(0, 2**64 - 1))
    def test_rows_equal_lone_replications(self, operating_channel, rate, sigma, horizon,
                                          replications, seed):
        env = lb.AffineEnvelope(0.0, rate)
        channel = replace(operating_channel, sigma_db=sigma)
        cfg = lb.SimConfig(horizon, replications, seed)
        for workers, cells in ((1, _BLOCK_CELLS), (3, 3 * 2 * 256)):
            with pytest.MonkeyPatch.context() as mp:
                _set_workers(mp, workers)
                mp.setattr(simulator, "_BLOCK_CELLS", cells)
                out = lb.run_experiment(env, channel, cfg)
            _assert_matches_replications(env, channel, cfg, out)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_long_drains_equal_lone_replications(self, monkeypatch, workers):
        # At and above the mean capacity (3.4 Gbps at 22/6 dB) the drains
        # take several rounds, and each round must continue the row's
        # stream where the one before it stopped.
        channel = lb.ShadowingChannel(22.0, 6.0, 5e8, 1.0)
        cfg = lb.SimConfig(2000, 60, master_seed=21)
        _set_workers(monkeypatch, workers)
        monkeypatch.setattr(simulator, "_BLOCK_CELLS", 5 * 2000)
        longest = 0
        for rate in (3.4e9, 4.2e9, 5.0e9):
            env = lb.AffineEnvelope(0.0, rate)
            out = lb.run_experiment(env, channel, cfg)
            _assert_matches_replications(env, channel, cfg, out)
            longest = max(longest, int(out.delay_samples.max()))
        assert longest > 2 * _DRAIN_CHUNK


def test_backlogs_do_not_depend_on_the_drain(operating_channel, monkeypatch):
    # The drain only continues each row's stream after its horizon: a cap
    # that stops it after three slots leaves every backlog as it was, and
    # every delay of at most three slots.
    env = lb.AffineEnvelope(0.0, 4.1e9)
    cfg = lb.SimConfig(500, 300, master_seed=12)
    full = lb.run_experiment(env, operating_channel, cfg)
    short = full.delay_samples <= 3
    assert not short.all() and np.any(full.delay_samples[short] > 0)
    monkeypatch.setattr(simulator, "DELAY_SEARCH_CAP", 3)
    capped = lb.run_experiment(env, operating_channel, cfg)
    assert np.array_equal(capped.backlog_samples, full.backlog_samples)
    assert np.array_equal(capped.delay_samples[short], full.delay_samples[short])
    assert np.array_equal(capped.censored, ~short)
    assert np.all(capped.delay_samples[~short] == 3)
    threshold = float(np.median(full.backlog_samples))
    assert capped.exceedance(threshold) == full.exceedance(threshold)


class _CumsumCounter:
    """numpy as the simulator module sees it, counting its 2-D prefix sums."""

    def __init__(self):
        self.passes = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def cumsum(self, a, *args, **kwargs):
        self.passes += np.ndim(a) == 2
        return np.cumsum(a, *args, **kwargs)


@pytest.mark.parametrize("rate, rounds", [(1.0e9, 0), (4.7e9, 5)])
def test_one_prefix_sum_per_draw(operating_channel, monkeypatch, rate, rounds):
    # A block draws its horizon's service once and each drain round once,
    # and sums each draw once; no other 2-D prefix sum runs. At 1 Gbps no
    # row has a backlog to drain, and at 4.7 Gbps every row of each of
    # the five blocks drains within one round.
    draws = []
    draw = simulator._draw_service

    def counted_draw(channel, rngs, out):
        draws.append(out.shape)
        return draw(channel, rngs, out)

    counter = _CumsumCounter()
    _set_workers(monkeypatch, 1)
    monkeypatch.setattr(simulator, "_BLOCK_CELLS", 5 * 300)
    monkeypatch.setattr(simulator, "_draw_service", counted_draw)
    monkeypatch.setattr(simulator, "np", counter)
    lb.run_experiment(lb.AffineEnvelope(0.0, rate), operating_channel, lb.SimConfig(300, 23, 4))
    assert [rows for rows, width in draws if width == 300] == [5, 5, 5, 5, 3]
    assert len(draws) == 5 + rounds
    assert counter.passes == len(draws)


# (mean_snr_db, sigma_db, load), the load against the mean of the service drawn.
PRECISION_POINTS = [(20.0, 6.0, 0.3), (20.0, 6.0, 0.9), (25.0, 2.0, 0.95), (15.0, 4.0, 1.1),
                    (30.0, 8.0, 0.5)]


@pytest.mark.parametrize("gain, sigma, load", PRECISION_POINTS)
def test_backlog_matches_long_double_walk(gain, sigma, load):
    # The centred float64 walk against the uncentred walk summed in long
    # double over the same service bits: within 0.1 bit of backlogs of up
    # to 1e12 bits, and exactly zero wherever the reference is.
    channel = lb.ShadowingChannel(gain, sigma, 500e6, 1.0)
    cfg = lb.SimConfig(2000, 400, master_seed=11)
    service = np.array([
        lb.capacity_bits_per_slot(channel, lb.sample_snr(
            channel, lb.replication_rng(cfg.master_seed, i), cfg.horizon_slots))
        for i in range(cfg.replications)])
    rate = load * float(np.mean(service))
    walk = np.cumsum(np.longdouble(rate) - service, axis=1)
    reference = walk[:, -1] - np.minimum(walk.min(axis=1), 0.0)
    out = lb.run_experiment(lb.AffineEnvelope(0.0, rate), channel, cfg)
    assert np.all(np.abs(out.backlog_samples - reference) <= 0.1)
    zero = reference == 0.0
    assert np.all(out.backlog_samples[zero] == 0.0)
    assert zero.any() == (load < 1.0)


def _drain_by_hand(channel, cfg, backlogs):
    """(delays, censored) of each replication from its own stream alone:
    the service that sample_snr draws after the horizon's, summed
    _DRAIN_CHUNK slots a round onto the service of the rounds before,
    until it reaches the backlog or simulator.DELAY_SEARCH_CAP slots."""
    cap = simulator.DELAY_SEARCH_CAP
    delays, censored = [], []
    for index, backlog in enumerate(backlogs.tolist()):
        delay, capped = 0, False
        if backlog > 0.0:
            rng = lb.replication_rng(cfg.master_seed, index)
            service = lb.capacity_bits_per_slot(
                channel, lb.sample_snr(channel, rng, cfg.horizon_slots + cap))
            fresh, drained = service[cfg.horizon_slots:], 0.0
            delay, capped = cap, True
            for w in range(0, cap, _DRAIN_CHUNK):
                cum = np.cumsum(fresh[w:w + _DRAIN_CHUNK]) + drained
                hit = np.flatnonzero(cum >= backlog)
                if hit.size:
                    delay, capped = w + int(hit[0]) + 1, False
                    break
                drained = cum[-1]
        delays.append(delay)
        censored.append(capped)
    return delays, censored


class TestDrainRounds:
    """The drain continues each row's stream round after round: its delays
    equal those summed by hand from the row's own stream, bit for bit."""

    # Caps: the default; a round and a short second one; below one round;
    # three slots.
    @pytest.mark.parametrize("cap", [DELAY_SEARCH_CAP, _DRAIN_CHUNK + 44, 200, 3])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_matches_rounds_by_hand(self, operating_channel, monkeypatch, cap, workers):
        # Mean capacity is 4.16 Gbps: at 4.1 Gbps most delays end inside
        # the first round, and at 5.5 Gbps every one runs into a third round.
        cfg = lb.SimConfig(2000, 150, master_seed=3)
        monkeypatch.setattr(simulator, "DELAY_SEARCH_CAP", cap)
        _set_workers(monkeypatch, workers)
        monkeypatch.setattr(simulator, "_BLOCK_CELLS", 14 * 2000)
        outs = []
        for rate in (4.1e9, 5.5e9):
            out = lb.run_experiment(lb.AffineEnvelope(0.0, rate), operating_channel, cfg)
            delays, censored = _drain_by_hand(operating_channel, cfg, out.backlog_samples)
            assert out.delay_samples.tolist() == delays
            assert out.censored.tolist() == censored
            outs.append(out)
        delay = np.concatenate([out.delay_samples for out in outs])
        censored = np.concatenate([out.censored for out in outs])
        assert np.any((delay > 0) & (delay <= min(cap, _DRAIN_CHUNK)) & ~censored)
        if cap == DELAY_SEARCH_CAP:
            assert np.any(delay > 2 * _DRAIN_CHUNK) and not censored.any()
        else:
            assert censored.any() and np.all(delay[censored] == cap)


def _traced_peak(env, channel, cfg) -> int:
    tracemalloc.start()
    try:
        lb.run_experiment(env, channel, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_experiment_memory_is_one_block(operating_channel):
    # One pair of block buffers per worker, which together hold 2 MiB
    # whatever the number of workers; holding every replication's path at
    # once would take 16 MiB for 1000 replications and 64 MiB for 4000.
    # The outputs aside, a run does not grow with the replication count.
    env = lb.AffineEnvelope(0.0, 3.9e9)
    small = _traced_peak(env, operating_channel, lb.SimConfig(2000, 1000, 1))
    large = _traced_peak(env, operating_channel, lb.SimConfig(2000, 4000, 1))
    assert small < 4 * 2**20
    assert large - small < 2**18


@pytest.mark.parametrize("workers", [4, 64])
def test_experiment_memory_does_not_grow_with_workers(operating_channel, monkeypatch, workers):
    # The same bounds at more workers than this suite assumes cores.
    monkeypatch.setattr(simulator, "_WORKERS", workers)
    test_experiment_memory_is_one_block(operating_channel)


def test_workers_keep_16_rows_per_block(operating_channel, monkeypatch):
    # At 2000 slots a block holds 131 rows, so 64 CPUs start only the 8
    # workers that get at least 16 rows each; the samples are those of one
    # worker.
    env = lb.AffineEnvelope(0.0, 3.9e9)
    cfg = lb.SimConfig(2000, 200, master_seed=8)
    monkeypatch.setattr(simulator, "_WORKERS", 1)
    serial = lb.run_experiment(env, operating_channel, cfg)
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(simulator, "_WORKERS", 64)
    monkeypatch.setattr(threading, "Thread", CountedThread)
    out = lb.run_experiment(env, operating_channel, cfg)
    assert len(started) == 8 - 1
    _assert_same_outcome(out, serial)


@pytest.fixture(scope="module")
def outcome(gbps_env, operating_channel):
    return lb.run_experiment(
        gbps_env, operating_channel, lb.SimConfig(500, 4000, master_seed=17)
    )


class TestSimOutcome:

    def test_delay_exceedance_counts_censored(self):
        out = lb.SimOutcome(
            backlog_samples=np.array([0.0, 1.0]),
            delay_samples=np.array([0, DELAY_SEARCH_CAP]),
            censored=np.array([False, True]),
            master_seed=0,
        )
        p, _ = out.exceedance(10 * DELAY_SEARCH_CAP, kind="delay")
        assert p == 0.5

    def test_every_run_holds_delays(self, outcome, operating_channel):
        # A delay tail counts the samples past the threshold and the
        # censored ones, on any run, even one in which no row drains.
        for threshold in (0, 1, 5):
            count = int(np.count_nonzero((outcome.delay_samples > threshold) | outcome.censored))
            assert outcome.exceedance(threshold, kind="delay") == (
                count / 4000, lb.wilson_halfwidth(count, 4000))
        idle = lb.run_experiment(lb.AffineEnvelope(0.0, 0.0), operating_channel,
                                 lb.SimConfig(50, 30, master_seed=2))
        assert not idle.delay_samples.any() and not idle.censored.any()
        assert idle.exceedance(0, kind="delay") == (0.0, lb.wilson_halfwidth(0, 30))

    def test_bad_kind(self, outcome):
        with pytest.raises(ValueError):
            outcome.exceedance(0.0, kind="latency")


class TestWilsonInterval:
    def test_halfwidth_positive_and_sane(self):
        hw = lb.wilson_halfwidth(10, 100)
        assert 0.0 < hw < 0.5

    def test_coverage(self):
        # At z = 1.96 the interval should cover the true proportion in
        # roughly 95% of repeated experiments.
        rng = np.random.default_rng(12)
        p_true, n, trials = 0.2, 400, 300
        covered = 0
        for _ in range(trials):
            k = rng.binomial(n, p_true)
            center = (k + 1.96**2 / 2) / (n + 1.96**2)
            hw = lb.wilson_halfwidth(k, n)
            covered += abs(p_true - center) <= hw
        assert covered / trials > 0.9

    def test_bad_n(self):
        with pytest.raises(ValueError):
            lb.wilson_halfwidth(0, 0)


# Stationary tails by mean-shifted importance sampling.

MS_CHANNEL = lb.ShadowingChannel(25.0, 8.0, 500e6, 1e-3)
MS_ENV = lb.AffineEnvelope(0.0, 3.6e9 * 1e-3)  # 3.6 Gbps in 1 ms slots


LONG_ENV = lb.AffineEnvelope(0.0, 3.8e9 * 1e-3)  # 3.8 Gbps in 1 ms slots
# Load 0.97 at 15 dB / 4 dB, whose mean capacity is 2.52 Gbps: rows walk for
# thousands of slots before they pass the higher of NEAR_LEVELS (bits).
NEAR_POINT = (lb.AffineEnvelope(0.0, 2.45e9), lb.ShadowingChannel(15.0, 4.0, 500e6, 1.0))
NEAR_LEVELS = [3e10, 1.2e11]


def _tails(points, kind, levels, replications=2000, seed=4, edges=None):
    return lb.stationary_tails(points, kind, levels, replications, seed, edges)


def _weights_by_hand(point, kind, level, seed, start, rows):
    """(first passage, weight) of replications start + i, i in rows, at one
    level: slots 1-112 from the group's stream, numpy's SeedSequence child
    (group, 1), 1024 normals a slot, and the rest from the row's own."""
    spec = simulator._tail_point(*point, kind, np.array([level], float), None)
    [threshold] = spec.thresholds
    group = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(start // 1024, 1))))
    prefix = group.standard_normal((112, 1024))
    out = []
    for i in rows:
        index = start + i
        own = _numpy_rng(seed, index).standard_normal(DELAY_SEARCH_CAP - 112)
        z = np.concatenate([prefix[:, index % 1024], own])
        walk = np.cumsum(spec.rate - np.log1p(np.exp(spec.offset - spec.slope * z)))
        passage = int(np.argmax(walk > threshold)) + 1
        assert walk[passage - 1] > threshold
        [weight] = np.exp(np.array([-spec.shift * np.cumsum(z)[passage - 1]
                                    - passage * spec.half_square]))
        out.append((passage, weight))
    return out


@pytest.fixture(scope="module")
def delay_at_3_6_gbps():
    # P(D > w) at w = 1 ... 4 slots; by earlier 1%-precision runs 5.45e-2,
    # 4.80e-3, 4.22e-4 and 3.71e-5.
    [tails] = _tails([(MS_ENV, MS_CHANNEL)], "delay", [[1, 2, 3, 4]], 20000, 11)
    return tails


def test_running_sums_in_either_layout():
    # A slot-major batch, as the group stream lays a piece out, is summed one
    # slot at a time across its rows; each row's sums must carry the bits of
    # numpy's cumsum along the row.
    rng = np.random.default_rng(3)
    for k, width in ((1, 1), (1, 5), (7, 1), (300, 16), (5, 256)):
        a = rng.standard_normal((k, width)) * 10.0 ** rng.integers(-8, 9, (k, width))
        expected = np.cumsum(a, axis=1)
        for batch in (a.copy(), np.ascontiguousarray(a.T).T):
            simulator._running_sums(batch)
            assert np.array_equal(batch.view(np.int64), expected.view(np.int64))


class TestStationaryTails:
    @pytest.mark.parametrize("rate, kind, levels", [
        (2e9, "backlog", [0.0, 1e8, 3e8, 6e8]),
        (2e9, "delay", [0]),
        (1.5e9, "backlog", [0.0, 2e8]),
    ])
    def test_agrees_with_plain_monte_carlo(self, operating_channel, rate, kind, levels):
        # Where plain Monte Carlo resolves the tail (P >= 1e-2), both
        # estimates agree within their combined half-widths. At loads of
        # 0.36-0.48 the backlog 200 slots after an empty start is already
        # stationary to far below these half-widths.
        env = lb.AffineEnvelope(0.0, rate)
        plain = lb.run_experiment(env, operating_channel, lb.SimConfig(200, 20000, 3))
        [tails] = _tails([(env, operating_channel)], kind, [levels], 20000, 5)
        for level, (estimate, half, capped) in zip(levels, tails):
            p, wilson = plain.exceedance(level, kind)
            assert p >= 1e-2 and capped == 0
            assert abs(estimate - p) <= half + wilson, (level, estimate, half, p, wilson)

    def test_delay_reference(self, delay_at_3_6_gbps):
        estimate, half, capped = delay_at_3_6_gbps[1]
        assert capped == 0 and half < 0.01 * estimate
        assert abs(estimate - 4.80e-3) <= half + 0.01 * 4.80e-3
        # The tail falls by about 11x a slot.
        estimates = [e for e, _, _ in delay_at_3_6_gbps]
        assert all(8 < a / b < 15 for a, b in zip(estimates, estimates[1:]))

    def test_detects_a_delay_one_slot_short(self, delay_at_3_6_gbps):
        # w = 2 slots is one short of the smallest w whose tail is <= 1e-3.
        estimate, half, _ = delay_at_3_6_gbps[1]
        assert estimate > 1e-3 + half
        estimate, half, _ = delay_at_3_6_gbps[2]
        assert estimate + half < 1e-3

    def test_backlog_reference_at_1e_6(self, operating_channel):
        # The delta = 0.01 backlog bound at 3 Gbps and epsilon = 1e-6. A
        # lattice bracket of the stationary walk put its true tail in
        # [1.08e-8, 1.19e-8].
        env = lb.AffineEnvelope(0.0, 3e9)
        [[(estimate, half, capped)]] = _tails([(env, operating_channel)], "backlog",
                                              [[11693641715.3]], 20000, 6)
        assert capped == 0 and half < 0.03 * estimate
        assert 1.08e-8 - half <= estimate <= 1.19e-8 + half

    def test_small_cap_never_lowers_an_estimate(self, monkeypatch):
        levels = [[1, 2, 3, 4]]
        [reference] = _tails([(MS_ENV, MS_CHANNEL)], "delay", levels)
        monkeypatch.setattr(simulator, "DELAY_SEARCH_CAP", 6)
        [capped] = _tails([(MS_ENV, MS_CHANNEL)], "delay", levels)
        assert all(c == 0 for _, _, c in reference)
        assert all(c > 0 for _, _, c in capped[1:])
        for (estimate, _, _), (high, half, c) in zip(reference, capped):
            assert high >= estimate
            # A level with a capped row is unresolved.
            assert (half == math.inf) == (c > 0)

    @pytest.mark.parametrize("kind, levels, extra", [("backlog", [0.0, 3e9, 1e10], 5e8),
                                                     ("delay", [0, 2], 1)])
    def test_independent_of_batches_rounds_and_other_points(self, operating_channel,
                                                            monkeypatch, kind, levels, extra):
        rates = [lb.AffineEnvelope(0.0, r) for r in (1e9, 2e9, 3e9)]
        sigmas = [replace(operating_channel, sigma_db=s) for s in (4.0, 8.0)]
        points = [(env, operating_channel) for env in rates] + [(rates[2], c) for c in sigmas]
        # A repeated point takes the union of its levels in one walk.
        points.append(points[0])
        point_levels = [levels] * (len(points) - 1) + [levels[::-1] + [extra]]
        sweep = _tails(points, kind, point_levels, 2100)
        alone = [_tails([p], kind, [lv], 2100)[0] for p, lv in zip(points, point_levels)]
        assert sweep == alone
        assert all(e > 0.0 for point in sweep for e, _, _ in point)
        # Batches of one row at the widest round, or a round schedule of
        # single slots, give the same bits.
        monkeypatch.setattr(simulator, "_ROUND_CELLS", 1)
        assert _tails(points, kind, point_levels, 2100) == sweep
        monkeypatch.setattr(simulator, "_TAIL_FIRST_ROUND", 1)
        assert _tails(points[:2], kind, point_levels[:2], 2100) == sweep[:2]

    def test_long_walks_independent_of_the_round_plan(self, monkeypatch):
        # Near capacity, rows walk past slot 2048, through many of the
        # widest rounds, each in many batches.
        [tails] = _tails([NEAR_POINT], "backlog", [NEAR_LEVELS], 300, 3)
        spec = simulator._tail_point(*NEAR_POINT, "backlog", np.array(NEAR_LEVELS), None)
        [(weights, capped)] = simulator._tail_group([spec], 3, 0, 300)
        assert not capped.any()
        by_hand = _weights_by_hand(NEAR_POINT, "backlog", NEAR_LEVELS[1], 3, 0, range(300))
        assert max(passage for passage, _ in by_hand) > 2048
        assert weights[1].tolist() == [weight for _, weight in by_hand]
        rows = [0, 1, 150, 299]
        assert weights[0][rows].tolist() == [weight for _, weight in _weights_by_hand(
            NEAR_POINT, "backlog", NEAR_LEVELS[0], 3, 0, rows)]
        # The former plan, rounds of 16 up to 1024 slots in batches of 2^14
        # slots, and batches of one row give the same bits.
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_TAIL_LAST_ROUND", 1024)
            patch.setattr(simulator, "_ROUND_CELLS", 1 << 14)
            assert _tails([NEAR_POINT], "backlog", [NEAR_LEVELS], 300, 3) == [tails]
        monkeypatch.setattr(simulator, "_ROUND_CELLS", 1)
        assert _tails([NEAR_POINT], "backlog", [NEAR_LEVELS], 300, 3) == [tails]

    def test_deterministic_walks_draw_nothing(self, operating_channel, monkeypatch):
        # Making a group stream or a replication stream fails.
        monkeypatch.setattr(simulator, "_group_rng", None)
        monkeypatch.setattr(simulator, "_replication_rngs", None)
        still = replace(operating_channel, sigma_db=0.0)
        points = [(lb.AffineEnvelope(0.0, 3e9), still), (lb.AffineEnvelope(0.0, 0.0),
                                                         operating_channel)]
        for kind in ("backlog", "delay"):
            assert _tails(points, kind, [[0.0, 5.0], [1.0]]) == [[(0.0, 0.0, 0)] * 2,
                                                                  [(0.0, 0.0, 0)]]
        with pytest.raises(ValueError, match="not stable"):
            _tails([(lb.AffineEnvelope(0.0, 5e9), still)], "backlog", [[0.0]])

    def test_weights_rebuilt_from_group_and_own_streams(self, monkeypatch):
        # At delay levels 3 and 12, row 0 passes the first within the group
        # stream's 112 slots and the second after them; it is the only row
        # of a one-replication run, whose estimate is its weight.
        point, levels = (LONG_ENV, MS_CHANNEL), [3, 12]
        [tails] = _tails([point], "delay", [levels], 1, 5)
        first = []
        for (estimate, _, _), level in zip(tails, levels):
            [(passage, weight)] = _weights_by_hand(point, "delay", level, 5, 0, [0])
            assert estimate == weight
            first.append(passage)
        assert first[0] <= simulator._TAIL_PREFIX < first[1]
        with monkeypatch.context() as patch:
            # A row that ends within the group stream's slots makes no
            # generator of its own.
            patch.setattr(simulator, "_replication_rngs", None)
            assert _tails([point], "delay", [levels[:1]], 1, 5) == [tails[:1]]
        # Rows of the second group read their column of its stream.
        spec = simulator._tail_point(*point, "delay", np.array(levels, float), None)
        [(weights, capped)] = simulator._tail_group([spec], 5, 1024, 40)
        assert not capped.any()
        last = []
        for j, level in enumerate(levels):
            by_hand = _weights_by_hand(point, "delay", level, 5, 1024, range(40))
            assert weights[j].tolist() == [weight for _, weight in by_hand]
            last.append(max(passage for passage, _ in by_hand))
        assert last[0] <= simulator._TAIL_PREFIX < last[1]

    def test_zero_shift_is_plain_monte_carlo(self, monkeypatch):
        # z_p = 0: every weight is exactly 1, and a row is capped at a level
        # iff its unshifted walk, rebuilt by hand from the group stream,
        # does not pass the level within the cap.
        cap = 60
        monkeypatch.setattr(simulator, "DELAY_SEARCH_CAP", cap)
        levels = np.array([1.0, 2.0])
        spec = simulator._tail_point(MS_ENV, MS_CHANNEL, "delay", levels, None)
        spec = replace(spec, shift=0.0, half_square=0.0,
                       offset=lb.channel.DB_TO_LN * MS_CHANNEL.mean_snr_db)
        [(weights, capped)] = simulator._tail_group([spec], 4, 0, 1024)
        assert np.all(weights == 1.0)
        group = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            entropy=4, spawn_key=(0, 1))))
        z = group.standard_normal((112, 1024))[:cap].T
        walk = np.cumsum(spec.rate - np.log1p(np.exp(spec.offset - spec.slope * z)), axis=1)
        peak = walk.max(axis=1)
        for j, threshold in enumerate(spec.thresholds):
            assert np.array_equal(capped[j], ~(peak > threshold))
            assert 0 < capped[j].sum() < 1024

    def test_rows_independent_of_replication_count(self):
        # Rows 0-999 of a group of 1000 are those of a full group.
        spec = simulator._tail_point(LONG_ENV, MS_CHANNEL, "delay", np.array([1.0, 3.0, 12.0]),
                                     None)
        [(short, short_capped)] = simulator._tail_group([spec], 9, 0, 1000)
        [(full, full_capped)] = simulator._tail_group([spec], 9, 0, 1024)
        assert np.array_equal(short, full[:, :1000])
        assert np.array_equal(short_capped, full_capped[:, :1000])

    def test_edges_handed_in_give_the_same_columns(self, operating_channel, monkeypatch):
        points = [(lb.AffineEnvelope(0.0, r), operating_channel) for r in (1e9, 3e9)]
        points.append((LONG_ENV, MS_CHANNEL))
        levels = [[0.0, 3e9], [1e10], [2e6]]
        fresh = _tails(points, "backlog", levels)
        edges = [lb.stability_region(env, lb.ServiceCharacterization(channel, exact=True))
                 .theta_upper for env, channel in points]
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "stability_region", None)  # no edge search
            assert _tails(points, "backlog", levels, edges=edges) == fresh
        # A limit-mode CLI run hands its bounds' edges in.
        doc = {"channel": {"mean_snr_db": 25.0, "sigma_db": 8.0, "bandwidth_hz": 5e8,
                           "slot_seconds": 1e-3},
               "arrival": {"rate_gbps": 3.0},
               "discretization": {"delta": "limit"},
               "query": {"kind": "delay", "epsilons": [1e-2, 1e-4]},
               "sweep": {"axis": "rate", "grid": [3.0, 3.8]},
               "sim": {"enabled": True, "replications": 1500, "seed": 2}}
        scenario = cli.Scenario.from_dict(doc)
        calls = []
        real = simulator.stationary_tails
        monkeypatch.setattr(cli, "stationary_tails",
                            lambda *args: calls.append(args) or real(*args))
        rows = cli.run_scenario(scenario)
        [(tail_points, kind, bounds, replications, seed, edges)] = calls
        assert edges == [rows[0].theta_upper, rows[2].theta_upper]
        expected = real(tail_points, kind, bounds, replications, seed)
        assert [(r.violation, r.violation_halfwidth) for r in rows] == [
            (estimate, half) for point in expected for estimate, half, _ in point]

    def test_level_no_row_passes_is_unresolved(self, operating_channel):
        # A delay of 5e8 slots at 3 Gbps: every row reaches the cap, and its
        # weight there underflows to 0.
        env = lb.AffineEnvelope(0.0, 3e9)
        [[(estimate, half, capped)]] = _tails([(env, operating_channel)], "delay", [[5e8]], 20)
        assert (estimate, half, capped) == (0.0, math.inf, 20)

    def test_infinite_level_and_one_replication(self, operating_channel):
        env = lb.AffineEnvelope(0.0, 2e9)
        [[never, once]] = _tails([(env, operating_channel)], "backlog", [[math.inf, 0.0]])
        assert never == (0.0, 0.0, 0) and once[0] > 0.0
        # One replication has no spread to measure.
        [[(estimate, half, _)]] = _tails([(env, operating_channel)], "backlog", [[0.0]], 1)
        assert half == math.inf and estimate >= 0.0

    def test_bad_arguments(self, operating_channel):
        point = (lb.AffineEnvelope(0.0, 1e9), operating_channel)
        for kind, levels, replications in (("latency", [[1.0]], 10), ("delay", [[-1.0]], 10),
                                           ("delay", [[math.nan]], 10), ("delay", [], 10),
                                           ("backlog", [[1.0]], 0)):
            with pytest.raises(ValueError):
                _tails([point], kind, levels, replications)
        # Counts and seeds are integers: a bool, a float or a string raises
        # a TypeError that names the argument, and a numpy integer is read
        # as a Python int.
        for bad in (True, 10.0, "10", 1.5, None):
            with pytest.raises(TypeError, match="replications"):
                _tails([point], "backlog", [[0.0]], bad, 4)
            with pytest.raises(TypeError, match="master_seed"):
                _tails([point], "backlog", [[0.0]], 10, bad)
        # An edge is a positive number, and finite where the walk is random:
        # a zero-rate flow, whose stability region is unbounded, takes an
        # infinite one. Each raises before any draw.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_group_rng", None)
            for edge in (math.nan, math.inf, -1.0):
                with pytest.raises(ValueError, match="edges"):
                    _tails([(lb.AffineEnvelope(0.0, 2e9), operating_channel)], "backlog",
                           [[1e9]], 200, 4, [edge])
            idle = (lb.AffineEnvelope(0.0, 0.0), operating_channel)
            assert _tails([idle], "backlog", [[1e9]], 200, 4, [math.inf]) == [[(0.0, 0.0, 0)]]
        reference = _tails([point], "backlog", [[0.0]], 10, 4)
        tails = _tails([point], "backlog", [[0.0]], np.int64(10), np.uint32(4))
        assert tails == reference
        assert all(type(v) is float for v in tails[0][0][:2])

    def test_memory_does_not_grow_with_replications(self, operating_channel):
        env = lb.AffineEnvelope(0.0, 3e9)
        peaks = []
        for replications in (2048, 8192):
            tracemalloc.start()
            try:
                _tails([(env, operating_channel)], "backlog", [[1e9, 1e10]], replications)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2**21 and peaks[1] - peaks[0] < 2**16

    def test_long_walk_memory(self):
        # Near capacity nearly every row of a group walks past the group
        # stream's slots, each on its own generator. One call's traced peak
        # holds one group, whatever the replication count. It is also no
        # higher than under the former round plan (rounds of 16 up to 1024
        # slots, in batches of 2^14 slots, every generator kept to the end
        # of its group). That plan's peaks are the lowest of four runs of
        # this test on its code, with numpy 2.4.6 on Python 3.11: 1,429,188
        # bytes at 1024 replications and 1,449,020 at 4096.
        edge = lb.stability_region(NEAR_POINT[0], lb.ServiceCharacterization(
            NEAR_POINT[1], exact=True)).theta_upper
        _tails([NEAR_POINT], "backlog", [NEAR_LEVELS], 1, 3, [edge])
        peaks = []
        for replications in (1024, 4096):
            tracemalloc.start()
            try:
                _tails([NEAR_POINT], "backlog", [NEAR_LEVELS], replications, 3, [edge])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**16
        assert peaks[0] <= 1_429_188 and peaks[1] <= 1_449_020
