import math

import numpy as np
import pytest
from scipy import stats

import linkbound as lb

TABLE_BUDGET = lb.LinkBudget(
    transmit_power_dbm=0.0,  # 1 mW
    antenna_gain_tx_db=20.0,
    antenna_gain_rx_db=20.0,
    noise_density_dbm_per_mhz=-114.0,
    bandwidth_hz=500e6,
    distance_m=100.0,
    pathloss_intercept_db=70.0,
    pathloss_exponent=2.45,
)


class TestSystemGain:
    def test_all_terms_cancel(self):
        budget = lb.LinkBudget(
            transmit_power_dbm=0.0,
            antenna_gain_tx_db=0.0,
            antenna_gain_rx_db=0.0,
            noise_density_dbm_per_mhz=0.0,
            bandwidth_hz=1e6,  # 10*log10(1 MHz / 1 MHz) = 0
            distance_m=1.0,  # log10(1) = 0
            pathloss_intercept_db=0.0,
            pathloss_exponent=2.0,
        )
        assert lb.system_gain_db(budget) == 0.0

    def test_reference_budget_value(self):
        # Independent dB arithmetic: 0 dBm + 40 dB gains
        # - (70 + 24.5 * log10(100)) path loss - (-114 + 10*log10(500)) noise.
        expected = 0.0 + 40.0 - (70.0 + 24.5 * 2.0) - (-114.0 + 10.0 * math.log10(500.0))
        got = lb.system_gain_db(TABLE_BUDGET)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(8.010299956639813, abs=1e-12)

    def test_doubling_distance_slope(self):
        from dataclasses import replace

        near = lb.system_gain_db(TABLE_BUDGET)
        far = lb.system_gain_db(replace(TABLE_BUDGET, distance_m=200.0))
        assert far - near == pytest.approx(-10.0 * 2.45 * math.log10(2.0), rel=1e-12)

    def test_budget_validation(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(TABLE_BUDGET, bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            replace(TABLE_BUDGET, distance_m=-1.0)
        with pytest.raises(ValueError):
            replace(TABLE_BUDGET, pathloss_exponent=0.0)


class TestSnrCdf:
    def test_median(self, operating_channel):
        x_med = 10.0 ** (operating_channel.mean_snr_db / 10.0)
        assert lb.snr_cdf(operating_channel, x_med) == pytest.approx(0.5, abs=1e-14)

    def test_limits(self, operating_channel):
        assert lb.snr_cdf(operating_channel, 1e-200) < 1e-12
        assert lb.snr_cdf(operating_channel, 1e200) > 1.0 - 1e-12

    def test_one_sigma_above_mean(self, operating_channel):
        # 33 dB is one shadowing standard deviation above the 25 dB mean, so
        # the CDF there is the standard normal CDF at +1.
        val = lb.snr_cdf(operating_channel, 10.0 ** (33.0 / 10.0))
        assert val == pytest.approx(0.8413447460685429, abs=1e-12)

    def test_matches_normal_cdf_along_sigma_grid(self, operating_channel):
        mpmath = pytest.importorskip("mpmath")
        mean_db, sigma = operating_channel.mean_snr_db, operating_channel.sigma_db
        for c in (-3.0, -1.5, -0.5, 0.0, 0.5, 1.0, 2.5, 4.0):
            x = 10.0 ** ((mean_db + c * sigma) / 10.0)
            expected = float(mpmath.ncdf(c))
            assert lb.snr_cdf(operating_channel, x) == pytest.approx(expected, abs=1e-12)

    def test_monotone_and_range(self, operating_channel):
        xs = np.geomspace(1e-6, 1e9, 400)
        vals = lb.snr_cdf(operating_channel, xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals > 0.0) & (vals < 1.0))

    def test_domain_error(self, operating_channel):
        with pytest.raises(ValueError):
            lb.snr_cdf(operating_channel, 0.0)
        with pytest.raises(ValueError):
            lb.snr_cdf(operating_channel, np.array([1.0, -2.0]))

    @pytest.mark.parametrize("sigma_db", [0.0, 8.0])
    def test_nan_rejected(self, sigma_db):
        # Every comparison with NaN is False, so "any x <= 0" let NaN through
        # and the CDF returned NaN.
        chan = lb.ShadowingChannel(25.0, sigma_db, 5e8)
        with pytest.raises(ValueError, match="positive SNR only"):
            lb.snr_cdf(chan, float("nan"))
        with pytest.raises(ValueError, match="positive SNR only"):
            lb.snr_cdf(chan, np.array([1.0, np.nan]))

    def test_sigma_zero_step(self):
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        med = chan.median_snr
        assert lb.snr_cdf(chan, med * 0.999) < 1e-12
        assert lb.snr_cdf(chan, med) > 1.0 - 1e-12
        assert lb.snr_cdf(chan, med * 1.001) > 1.0 - 1e-12

    def test_exact_tails(self, operating_channel):
        # No clamp: far tails and the sigma = 0 step are exactly 0 and 1.
        assert lb.snr_cdf(operating_channel, 1e-200) == 0.0
        assert lb.snr_cdf(operating_channel, 1e200) == 1.0
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        med = chan.median_snr
        vals = lb.snr_cdf(chan, np.array([1e-6, med * 0.999, med, med * 1.001, 1e200]))
        assert vals.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]

    def test_erfc_precision(self):
        # The CDF is built on erfc; require near-machine relative accuracy
        # on the working range of arguments.
        mpmath = pytest.importorskip("mpmath")
        from scipy import special

        for arg in np.linspace(-6.0, 6.0, 49):
            exact = float(mpmath.erfc(mpmath.mpf(float(arg))))
            assert float(special.erfc(arg)) == pytest.approx(exact, rel=1e-12)


class TestSampleSnr:
    def test_sigma_zero_deterministic(self):
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        rng = np.random.default_rng(0)
        draws = lb.sample_snr(chan, rng, 100)
        assert np.all(draws == chan.median_snr)

    def test_log_mean(self, operating_channel):
        rng = np.random.default_rng(2024)
        n = 1_000_000
        draws = lb.sample_snr(operating_channel, rng, n)
        ln_mean = math.log(10.0) / 10.0 * operating_channel.mean_snr_db
        ln_sigma = math.log(10.0) / 10.0 * operating_channel.sigma_db
        err = abs(np.log(draws).mean() - ln_mean)
        assert err < 3.0 * ln_sigma / math.sqrt(n)

    def test_median_fraction(self, operating_channel):
        rng = np.random.default_rng(7)
        n = 200_000
        draws = lb.sample_snr(operating_channel, rng, n)
        frac = float(np.mean(draws < operating_channel.median_snr))
        assert abs(frac - 0.5) < 3.0 * 0.5 / math.sqrt(n)

    def test_kolmogorov_smirnov(self, operating_channel):
        rng = np.random.default_rng(123)
        n = 100_000
        draws = lb.sample_snr(operating_channel, rng, n)
        res = stats.kstest(draws, lambda x: lb.snr_cdf(operating_channel, x))
        assert res.statistic < 1.6276 / math.sqrt(n)  # 1% critical value

    def test_reproducible(self, operating_channel):
        a = lb.sample_snr(operating_channel, np.random.default_rng(5), 50)
        b = lb.sample_snr(operating_channel, np.random.default_rng(5), 50)
        assert np.array_equal(a, b)


class TestCapacity:
    def test_zero_snr(self, operating_channel):
        assert lb.capacity_bits_per_slot(operating_channel, 0.0) == 0.0

    def test_unit_snr(self, operating_channel):
        # log2(1 + 1) = 1, so one slot carries exactly the bandwidth in bits.
        got = lb.capacity_bits_per_slot(operating_channel, 1.0)
        assert got == pytest.approx(5e8, rel=1e-12)

    def test_at_25_db(self, operating_channel):
        gamma = 10.0 ** (25.0 / 10.0)
        expected = 500e6 * math.log2(1.0 + gamma)
        got = lb.capacity_bits_per_slot(operating_channel, gamma)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(4.155e9, rel=1e-3)

    def test_concave_increasing(self, operating_channel):
        gammas = np.linspace(0.0, 1000.0, 500)
        caps = lb.capacity_bits_per_slot(operating_channel, gammas)
        first = np.diff(caps)
        assert np.all(first > 0.0)
        assert np.all(np.diff(first) <= 1e-6)

    def test_domain_error(self, operating_channel):
        with pytest.raises(ValueError):
            lb.capacity_bits_per_slot(operating_channel, -0.5)


def test_channel_validation():
    with pytest.raises(ValueError):
        lb.ShadowingChannel(25.0, -1.0, 500e6, 1.0)
    with pytest.raises(ValueError):
        lb.ShadowingChannel(25.0, 8.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        lb.ShadowingChannel(25.0, 8.0, 500e6, 0.0)


@pytest.mark.parametrize("mean_snr_db", [4000.0, 3082.6, math.inf, math.nan])
def test_overflowing_mean_snr_rejected(mean_snr_db):
    # Past about 3082.5 dB the linear SNR is no finite float.
    with pytest.raises(ValueError, match="mean_snr_db"):
        lb.ShadowingChannel(mean_snr_db, 8.0, 500e6, 1.0)


def test_largest_mean_snr_evaluates():
    # At the largest accepted gain the CDF and the exact-mode factor still
    # compute without overflow.
    chan = lb.ShadowingChannel(3080.0, 8.0, 500e6, 1.0)
    assert chan.median_snr == pytest.approx(1e308, rel=1e-12)
    svc = lb.ServiceCharacterization(chan, exact=True)
    lf, slope = svc.log_per_slot_bound(1e-9, with_slope=True)
    assert lf < 0.0 and slope <= 0.0
    cdf = lb.snr_cdf(chan, np.asarray([1.0, 1e300]))
    assert np.all(np.isfinite(cdf))
