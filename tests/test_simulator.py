import contextlib
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
from linkbound import simulator
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
            rngs = simulator._replication_rngs(2**64 + 5, 3, 20)
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
    monkeypatch.setattr(simulator, "_WORKERS", workers)


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


@contextlib.contextmanager
def _engine(workers: int, cells: int):
    """The simulator at that many block workers and block cells."""
    with pytest.MonkeyPatch.context() as mp:
        _set_workers(mp, workers)
        mp.setattr(simulator, "_BLOCK_CELLS", cells)
        yield


SWEEP_CHANNEL = lb.ShadowingChannel(22.0, 6.0, 5e8, 1.0)
# Grid values of each axis, below, near and above the mean capacity (3.4
# Gbps at 22/6 dB), so that most points drain some rows and not others.
SWEEP_GRIDS = {
    "rate": (1.0e9, 3.0e9, 3.4e9, 4.2e9),
    "sigma": (0.0, 2.0, 6.0, 9.0),
    "gain": (18.0, 22.0, 26.0),
}


def _sweep_point(axis: str, value: float):
    env = lb.AffineEnvelope(0.0, value if axis == "rate" else 3.0e9)
    if axis == "sigma":
        return env, replace(SWEEP_CHANNEL, sigma_db=value)
    if axis == "gain":
        return env, replace(SWEEP_CHANNEL, mean_snr_db=value)
    return env, SWEEP_CHANNEL


class TestSweepStreams:
    """Every point of a run replays the same replication streams: its
    samples equal those of run_experiment at that point alone."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(axis=st.sampled_from(sorted(SWEEP_GRIDS)), data=st.data(),
           horizon=st.sampled_from((1, 60, 300)), replications=st.integers(1, 40),
           seed=st.integers(0, 2**64 - 1), delays=st.booleans())
    def test_points_equal_lone_runs(self, axis, data, horizon, replications, seed, delays):
        # Values may repeat, and a repeated point shares one outcome.
        values = data.draw(st.lists(st.sampled_from(SWEEP_GRIDS[axis]), min_size=1,
                                    max_size=5))
        points = [_sweep_point(axis, value) for value in values]
        cfg = lb.SimConfig(horizon, replications, seed)
        lone = [lb.run_experiment(env, channel, cfg, delays=delays) for env, channel in points]
        for workers, cells in ((1, _BLOCK_CELLS), (3, 3 * 2 * 256)):
            with _engine(workers, cells):
                outs = simulator.run_experiments(points, cfg, delays=delays)
            assert len(outs) == len(points)
            for out, reference in zip(outs, lone):
                assert np.array_equal(out.backlog_samples, reference.backlog_samples)
                if delays:
                    _assert_same_outcome(out, reference)
                else:
                    assert out.delay_samples is None and out.censored is None

    @pytest.mark.parametrize("workers", [1, 3])
    def test_long_drains_equal_lone_runs(self, workers):
        # Above capacity the drains take several rounds, and each round
        # must continue the row's stream where the one before it stopped.
        points = [_sweep_point("rate", rate) for rate in (3.4e9, 4.2e9, 3.0e9, 5.0e9)]
        cfg = lb.SimConfig(2000, 60, master_seed=21)
        lone = [lb.run_experiment(env, channel, cfg) for env, channel in points]
        assert any(np.any(out.delay_samples > 2 * _DRAIN_CHUNK) for out in lone)
        with _engine(workers, 5 * 2 * 2000):
            outs = simulator.run_experiments(points, cfg)
        for out, reference in zip(outs, lone):
            _assert_same_outcome(out, reference)

    def test_equal_points_share_one_outcome(self):
        env, channel = _sweep_point("rate", 3.0e9)
        outs = simulator.run_experiments([(env, channel)] * 3, lb.SimConfig(100, 20, 4))
        assert outs[0] is outs[1] is outs[2]


class TestBacklogOnly:
    """A run without delays drains nothing and keeps its backlogs."""

    def test_backlogs_without_drain(self, operating_channel, monkeypatch):
        env = lb.AffineEnvelope(0.0, 4.1e9)
        cfg = lb.SimConfig(500, 300, master_seed=12)
        full = lb.run_experiment(env, operating_channel, cfg)

        def no_drain(*args):
            raise AssertionError("a run without delays drained a backlog")

        monkeypatch.setattr(simulator, "_drain", no_drain)
        out = lb.run_experiment(env, operating_channel, cfg, delays=False)
        assert np.array_equal(out.backlog_samples, full.backlog_samples)
        assert out.delay_samples is None and out.censored is None
        threshold = float(np.median(full.backlog_samples))
        assert out.exceedance(threshold) == full.exceedance(threshold)
        with pytest.raises(ValueError, match="without delays"):
            out.exceedance(1.0, kind="delay")


def _one_cumsum_drain(channel, rngs, backlog, buf):
    """The drain before the probe split, verbatim: every live row draws a
    whole round, and one cumsum runs over it."""
    delay = np.zeros(backlog.size, dtype=np.int64)
    live = np.flatnonzero(backlog > 0.0)
    drained = np.zeros(live.size)
    w = 0
    while live.size and w < simulator.DELAY_SEARCH_CAP:
        width = min(_DRAIN_CHUNK, simulator.DELAY_SEARCH_CAP - w)
        cum = buf[: live.size * width].reshape(live.size, width)
        simulator._draw_service(channel, [rngs[i] for i in live], cum)
        np.cumsum(cum, axis=1, out=cum)
        cum += drained[:, None]
        hit = cum >= backlog[live, None]
        first = hit.argmax(axis=1)
        done = hit[np.arange(live.size), first]
        delay[live[done]] = w + first[done] + 1
        drained = cum[~done, -1]
        live = live[~done]
        w += width
    delay[live] = simulator.DELAY_SEARCH_CAP
    censored = np.zeros(backlog.size, dtype=bool)
    censored[live] = True
    return delay, censored


class TestDrainProbe:
    """The probe's split draws and split cumsum give the delays of one
    cumsum over each whole round, bit for bit."""

    # Caps: the default; a round and a short second one; below one round;
    # a round that the probe fills.
    @pytest.mark.parametrize("cap", [DELAY_SEARCH_CAP, _DRAIN_CHUNK + 44, 200, 3])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_matches_one_cumsum_per_round(self, operating_channel, monkeypatch, cap, workers):
        # Mean capacity is 4.16 Gbps: at 4.1 Gbps most delays end inside
        # the probe, and at 5.5 Gbps every one runs into a third round.
        cfg = lb.SimConfig(2000, 150, master_seed=3)
        monkeypatch.setattr(simulator, "DELAY_SEARCH_CAP", cap)
        _set_workers(monkeypatch, workers)
        monkeypatch.setattr(simulator, "_BLOCK_CELLS", 7 * 2 * 2000)
        outs = []
        for rate in (4.1e9, 5.5e9):
            env = lb.AffineEnvelope(0.0, rate)
            with monkeypatch.context() as mp:
                mp.setattr(simulator, "_drain", _one_cumsum_drain)
                reference = lb.run_experiment(env, operating_channel, cfg)
            out = lb.run_experiment(env, operating_channel, cfg)
            _assert_same_outcome(out, reference)
            outs.append(out)
        delay = np.concatenate([out.delay_samples for out in outs])
        censored = np.concatenate([out.censored for out in outs])
        assert np.any((delay > 0) & (delay <= min(cap, simulator._DRAIN_PROBE)) & ~censored)
        if cap == DELAY_SEARCH_CAP:
            assert np.any(delay > 2 * _DRAIN_CHUNK) and not censored.any()
        else:
            assert censored.any() and np.all(delay[censored] == cap)


def _traced_peak(points, cfg) -> int:
    tracemalloc.start()
    try:
        simulator.run_experiments(points, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Output bytes of one point per replication: backlog, delay and censored.
OUTPUT_BYTES = 8 + 8 + 1


def test_experiment_memory_is_one_block(operating_channel):
    # One pair of block buffers per worker, which together hold 2 MiB
    # whatever the number of workers and points; holding every
    # replication's path at once would take 16 MiB for 1000 replications
    # and 64 MiB for 4000, and a buffer pair per point 8 MiB for a 4-point
    # sigma sweep. Beyond the other points' outputs, the sweep grows with
    # the replication count no more than its last point alone.
    env = lb.AffineEnvelope(0.0, 3.9e9)
    sweep = [(env, replace(operating_channel, sigma_db=s)) for s in (2.0, 4.0, 6.0, 8.0)]
    for points, replications in ((sweep[-1:], 4000), (sweep, 2000)):
        small = _traced_peak(points, lb.SimConfig(2000, 1000, 1))
        large = _traced_peak(points, lb.SimConfig(2000, replications, 1))
        assert small < 4 * 2**20
        more_outputs = (len(points) - 1) * (replications - 1000) * OUTPUT_BYTES
        assert large - small < 2**18 + more_outputs


@pytest.mark.parametrize("workers", [4, 64])
def test_experiment_memory_does_not_grow_with_workers(operating_channel, monkeypatch, workers):
    # The same bounds at more workers than this suite assumes cores.
    _set_workers(monkeypatch, workers)
    test_experiment_memory_is_one_block(operating_channel)


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

