import math

import numpy as np
import pytest

import linkbound as lb
from linkbound.simulator import DELAY_SEARCH_CAP


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            lb.SimConfig(horizon_slots=0)
        with pytest.raises(ValueError):
            lb.SimConfig(replications=0)


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


@pytest.fixture(scope="module")
def path(gbps_env, operating_channel):
    return lb.simulate_path(gbps_env, operating_channel, 400, lb.replication_rng(3, 0))


class TestPathInvariants:

    def test_backlog_identity(self, path):
        # B(k) = A(0,k) - D(0,k) >= 0 at every slot.
        assert np.all(path.backlog >= 0.0)
        recon = path.cumulative_arrivals - path.departures
        assert np.allclose(recon, path.backlog, rtol=0, atol=1e-6)

    def test_lindley_recursion(self, path):
        b = 0.0
        for a, s, expect in zip(path.arrivals, path.service, path.backlog):
            b = max(b + a - s, 0.0)
            assert expect == pytest.approx(b, rel=1e-12, abs=1e-6)

    def test_causality(self, path):
        assert np.all(path.departures <= path.cumulative_arrivals + 1e-6)
        assert np.all(np.diff(path.departures) >= -1e-6)

    def test_work_conserving_min_plus_equality(self, path):
        # D(0,t) equals the min-plus convolution of arrivals and service for
        # a work-conserving single queue.
        cum_a = np.concatenate(([0.0], path.cumulative_arrivals))
        cum_s = np.concatenate(([0.0], np.cumsum(path.service)))
        for t in (1, 17, 100, 399):
            tau = np.arange(0, t + 1)
            conv = np.min(cum_a[tau] + (cum_s[t] - cum_s[tau]))
            assert path.departures[t - 1] == pytest.approx(conv, rel=1e-12, abs=1e-6)


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


@pytest.fixture(scope="module")
def outcome(gbps_env, operating_channel):
    return lb.run_experiment(
        gbps_env, operating_channel, lb.SimConfig(500, 4000, master_seed=17)
    )


class TestSimOutcome:

    def test_ccdf_monotone(self, outcome):
        thresholds = np.linspace(0.0, float(outcome.backlog_samples.max()) + 1.0, 30)
        probs, _ = outcome.ccdf(thresholds, kind="backlog")
        assert np.all(np.diff(probs) <= 0.0)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

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


def test_write_raw_samples(tmp_path, gbps_env, operating_channel):
    out = lb.run_experiment(
        gbps_env, operating_channel, lb.SimConfig(100, 25, master_seed=2)
    )
    path = tmp_path / "samples.csv"
    lb.write_raw_samples(out, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "replication,backlog_bits,delay_slots,censored"
    assert len(lines) == 26
    idx, backlog, delay, censored = lines[13].split(",")
    assert int(idx) == 12
    assert float(backlog) == out.backlog_samples[12]
    assert int(delay) == out.delay_samples[12]
    assert int(censored) in (0, 1)
