import hashlib
import math
import os
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import linkbound as lb
from linkbound import inverse_moment, simulator
from linkbound.channel import DB_TO_LN
from linkbound.inverse_moment import (
    _FACTOR_FLOOR,
    _PREFIX_RTOL,
    _SEARCH_CEIL,
    _SEARCH_X0,
    _SEGMENT_WIDTH,
    _SERIES_TERMS,
    _SLACK_TOL,
    _TABLE_CHUNK,
    StieltjesTable,
    _log_integrand_peak,
    _lognormal_log_exact,
    _pairwise_prefixes,
    _staircase_sum,
    truncation_point,
)


def lognormal_cdf(channel):
    return lambda x: lb.snr_cdf(channel, x)


def step_cdf(atoms, cum_probs):
    """Right-continuous step CDF of a discrete distribution, vectorized."""
    xs = np.asarray(atoms, dtype=float)
    ps = np.asarray(cum_probs, dtype=float)

    def cdf(x):
        idx = np.searchsorted(xs, np.asarray(x, dtype=float), side="right")
        return np.where(idx > 0, ps[np.maximum(idx - 1, 0)], 0.0)

    return cdf


class TestConfigValidation:
    def test_bad_fields(self):
        with pytest.raises(ValueError):
            lb.DiscretizationConfig(step_delta=0.0)
        with pytest.raises(ValueError):
            lb.DiscretizationConfig(tail_mass_tol=0.0)
        with pytest.raises(ValueError):
            lb.DiscretizationConfig(tail_mass_tol=1.0)
        for step_delta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="step_delta"):
                lb.DiscretizationConfig(step_delta=step_delta)


class TestDiscretizedBound:
    def test_theta_zero_is_one(self, operating_channel):
        cfg = lb.DiscretizationConfig()
        assert lb.inverse_moment_bound(lognormal_cdf(operating_channel), 0.0, cfg) == 1.0

    def test_degenerate_at_zero_telescopes_to_one(self):
        cdf = lambda x: np.ones_like(np.asarray(x, dtype=float))
        cfg = lb.DiscretizationConfig()
        for theta in (0.5, 3.0, 20.0):
            val = lb.inverse_moment_bound(cdf, theta, cfg)
            assert val == pytest.approx(1.0, abs=1e-14)

    def test_point_mass_brackets(self):
        g = 17.3
        cdf = step_cdf([g], [1.0])
        cfg = lb.DiscretizationConfig(step_delta=1e-2)
        for theta in (0.5, 2.0, 7.0):
            val = lb.inverse_moment_bound(cdf, theta, cfg)
            exact = (1.0 + g) ** (-theta)
            upper = (1.0 + g - cfg.step_delta) ** (-theta)
            assert exact <= val <= upper + 1e-15

    def test_negative_theta_rejected(self, operating_channel):
        with pytest.raises(ValueError):
            lb.inverse_moment_bound(lognormal_cdf(operating_channel), -1.0, lb.DiscretizationConfig())

    def test_dominates_exact(self, operating_channel):
        cdf = lognormal_cdf(operating_channel)
        for delta in (1.0, 1e-1, 1e-2):
            cfg = lb.DiscretizationConfig(step_delta=delta)
            thetas = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
            bounds = lb.inverse_moment_bound_many(cdf, thetas, cfg)
            for theta, bound in zip(thetas, bounds):
                exact = lb.exact_inverse_moment(operating_channel, theta)
                assert bound >= exact * (1.0 - 1e-12)

    def test_monotone_refinement_halving(self, operating_channel):
        cdf = lognormal_cdf(operating_channel)
        for theta in (0.5, 2.0, 10.0):
            prev = None
            for delta in (0.04, 0.02, 0.01, 0.005):
                val = lb.inverse_moment_bound(
                    cdf, theta, lb.DiscretizationConfig(step_delta=delta)
                )
                if prev is not None:
                    assert val <= prev + 1e-12
                prev = val

    def test_truncation_monotone_in_tail_mass_tol(self, operating_channel):
        # A smaller tolerance moves the cut right, which only tightens the
        # bound; at theta = 5 the residual slack decides the cut throughout.
        cdf = lognormal_cdf(operating_channel)
        prev = None
        for tol in (0.5, 1e-1, 1e-2, 1e-3, 1e-4):
            vals = lb.inverse_moment_bound_many(
                cdf, [0.1, 1.0, 5.0], lb.DiscretizationConfig(step_delta=1e-2, tail_mass_tol=tol)
            )
            if prev is not None:
                assert np.all(vals <= prev)
            prev = vals

    def test_range(self, operating_channel):
        cdf = lognormal_cdf(operating_channel)
        cfg = lb.DiscretizationConfig(step_delta=0.05)
        for theta in (1e-6, 0.3, 4.0, 40.0):
            val = lb.inverse_moment_bound(cdf, theta, cfg)
            assert 0.0 < val <= 1.0

    def test_non_monotone_cdf_rejected(self):
        def bad(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < 1.0, 0.5, 0.2)

        with pytest.raises(lb.CdfContractError):
            lb.inverse_moment_bound(bad, 1.0, lb.DiscretizationConfig(step_delta=0.5))

    def test_out_of_range_cdf_rejected(self):
        bad = lambda x: np.full_like(np.asarray(x, dtype=float), 1.5)
        with pytest.raises(lb.CdfContractError):
            lb.inverse_moment_bound(bad, 1.0, lb.DiscretizationConfig(step_delta=0.5))

    @pytest.mark.parametrize("cdf", [
        lambda x: 0.5,  # a scalar for every input
        lambda x: np.full(3, 0.5),  # a fixed-length array
    ])
    def test_cdf_of_another_shape_rejected(self, cdf):
        with pytest.raises(lb.CdfContractError, match="shape"):
            lb.inverse_moment_bound(cdf, 1.0, lb.DiscretizationConfig(step_delta=0.5))
        with pytest.raises(lb.CdfContractError, match="shape"):
            StieltjesTable(cdf, 0.5, 100, block_log_width=2e-5)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.floats(0.0, 50.0), st.floats(0.01, 1.0)), min_size=1, max_size=5
        ),
        theta=st.floats(0.0, 20.0),
    )
    def test_dominates_exact_on_discrete_distributions(self, data, theta):
        atoms = sorted(x for x, _ in data)
        weights = np.asarray([w for _, w in data])
        probs = weights / weights.sum()
        cdf = step_cdf(atoms, np.cumsum(probs))
        exact = float(np.sum(probs * (1.0 + np.asarray(atoms)) ** (-theta)))
        cfg = lb.DiscretizationConfig(step_delta=0.05)
        val = lb.inverse_moment_bound(cdf, theta, cfg)
        assert val >= exact * (1.0 - 1e-12) - 1e-15


class TestExactInverseMoment:
    def test_theta_zero(self, operating_channel):
        assert lb.exact_inverse_moment(operating_channel, 0.0) == 1.0

    def test_negative_theta_rejected(self, operating_channel):
        with pytest.raises(ValueError):
            lb.exact_inverse_moment(operating_channel, -0.1)

    def test_monte_carlo_cross_check(self, operating_channel):
        rng = np.random.default_rng(99)
        n = 10_000_000
        draws = lb.sample_snr(operating_channel, rng, n)
        log1p_draws = np.log1p(draws)
        for theta in (0.5, 2.0, 10.0):
            samples = np.exp(-theta * log1p_draws)
            mean = float(samples.mean())
            se = float(samples.std(ddof=1)) / math.sqrt(n)
            exact = lb.exact_inverse_moment(operating_channel, theta)
            assert abs(exact - mean) < 3.0 * se

    @pytest.mark.parametrize(
        "exponent, reference",
        # mpmath.quad at 30 digits over z in [-60, 12], split at every integer.
        [(20.0, 9.95767086146874e-34), (50.0, 6.27721532181348e-50)],
    )
    def test_integrand_peak_below_minus_ten(self, exponent, reference):
        # At 25 dB and sigma = 2 dB the integrand peaks near or below z = -10,
        # outside a fixed [-10, 10] range.
        chan = lb.ShadowingChannel(25.0, 2.0, 500e6, 1.0)
        assert lb.exact_inverse_moment(chan, exponent) == pytest.approx(reference, rel=1e-6)

    def test_rejects_other_distributions(self):
        with pytest.raises(TypeError):
            lb.exact_inverse_moment(lambda x: 1.0 - math.exp(-x), 1.0)

    @pytest.mark.parametrize(
        "mean_db, sigma_db, exponent",
        [(25.0, 0.5, 2.0), (25.0, 0.5, 7.2e10), (12.0, 2.0, 1e-3),
         # The peak lies near z = -12.2, below a fixed [-10, 10] range.
         (25.0, 2.0, 50.0), (5.0, 2.0, 300.0),
         (25.0, 8.0, 0.5), (25.0, 8.0, 20.0), (40.0, 8.0, 7.2e10)],
    )
    def test_matches_mpmath(self, mean_db, sigma_db, exponent):
        reference = mp_log_inverse_moment(mean_db, sigma_db, exponent)
        chan = lb.ShadowingChannel(mean_db, sigma_db, 500e6, 1.0)
        assert _lognormal_log_exact(chan, exponent)[0] == pytest.approx(reference, rel=1e-10)
        assert lb.exact_inverse_moment(chan, exponent) == pytest.approx(
            max(math.exp(reference), 1e-300), rel=1e-10
        )

    def test_log_is_not_clamped(self):
        # At 25 dB and sigma = 0.5 dB this exponent lies near the true
        # stability edge of a 1 Gbps arrival, where the factor is exp(-2216).
        chan = lb.ShadowingChannel(25.0, 0.5, 500e6, 1.0)
        reference = mp_log_inverse_moment(25.0, 0.5, 1600.0)
        assert reference < -690.0
        log_value, _ = _lognormal_log_exact(chan, 1600.0)
        assert math.isfinite(log_value)
        assert log_value == pytest.approx(reference, rel=1e-10)
        assert lb.exact_inverse_moment(chan, 1600.0) == 1e-300

    def test_sigma_zero_takes_the_floor(self):
        # A point mass at 25 dB: the moment exp(-t ln(1 + SNR)) gets the
        # same added floor as the trapezoid rule's, and the slope the same
        # scaling by moment / value. At t = 1000 the moment underflows to 0.
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        log_gain = math.log1p(chan.median_snr)
        assert lb.exact_inverse_moment(chan, 1000.0, with_slope=True) == (_FACTOR_FLOOR, 0.0)
        value, slope = lb.exact_inverse_moment(chan, 5.0, with_slope=True)
        assert (value, slope) == (math.exp(-5.0 * log_gain), -log_gain)
        # Where the moment equals the floor, the value is twice the floor
        # and the slope half the moment's.
        value, slope = lb.exact_inverse_moment(chan, math.log(1e300) / log_gain, with_slope=True)
        assert value == pytest.approx(2.0 * _FACTOR_FLOOR, rel=1e-12)
        assert slope == pytest.approx(-0.5 * log_gain, rel=1e-12)

    @pytest.mark.parametrize("exponent", [0.5, 5.0, 721.0, 7.2e10])
    @pytest.mark.parametrize("mean_db, sigma_db", [(25.0, 8.0), (25.0, 0.5), (5.0, 2.0),
                                                   (40.0, 8.0), (-10.0, 12.0), (3080.0, 4.0)])
    def test_window_centre_within_tolerance_of_peak(self, mean_db, sigma_db, exponent):
        # The Newton search stops once |f'| <= 0.025, and f'' <= -1 puts the
        # centre within 0.025 of the argmax.
        centre = _log_integrand_peak(DB_TO_LN * mean_db, DB_TO_LN * sigma_db, exponent)
        argmax = float(mp_integrand_peak(mean_db, sigma_db, exponent))
        assert abs(centre - argmax) <= 0.025

    def test_step_and_window_are_certified(self):
        # Halving the step or widening the window by 4 moves nothing that
        # the rule reports, from the smallest exponents to the theta cap.
        # Both variants run the lattice rule, and each moves some value by
        # rounding at least, so neither is a call of the default rule.
        step = inverse_moment._TRAPEZOID_STEP
        half_width = inverse_moment._TRAPEZOID_HALF_WIDTH
        variants = ((step / 2, half_width), (step, half_width + 4.0))
        moved_any = [False, False]
        for mean_db in (5.0, 12.0, 25.0, 40.0):
            for sigma_db in (0.5, 2.0, 4.0, 8.0):
                chan = lb.ShadowingChannel(mean_db, sigma_db, 500e6, 1.0)
                for exponent in np.geomspace(1e-3, 1e11, 40):
                    base = _lognormal_log_exact(chan, exponent)[0]
                    for i, variant in enumerate(variants):
                        moved = _lognormal_log_exact(chan, exponent, *variant)[0] - base
                        assert abs(moved) <= 1e-12 * abs(base), (mean_db, sigma_db, exponent)
                        moved_any[i] |= moved != 0.0
        assert moved_any == [True, True]

    def test_lattice_matches_peak_centred_rule(self):
        # Nodes on the fixed lattice k * 0.05 instead of at offsets from the
        # peak: the trapezoid rule hardly depends on where its nodes sit.
        for mean_db in (5.0, 12.0, 25.0, 40.0):
            for sigma_db in (0.5, 1.0, 2.0, 4.0, 8.0):
                chan = lb.ShadowingChannel(mean_db, sigma_db, 500e6, 1.0)
                for exponent in np.geomspace(1e-3, 1e11, 40):
                    log_value, slope = _lognormal_log_exact(chan, exponent)
                    ref_value, ref_slope = peak_centred_log_exact(chan, exponent)
                    where = (mean_db, sigma_db, exponent)
                    assert abs(log_value - ref_value) <= 1e-12 * abs(ref_value), where
                    assert slope == pytest.approx(ref_slope, rel=1e-12), where


def peak_centred_log_exact(channel, theta, step=0.05, half_width=12.0):
    """The exact rule with its nodes at k * step, k = -240..240, from the estimated peak."""
    ln_mean = DB_TO_LN * channel.mean_snr_db
    ln_sigma = DB_TO_LN * channel.sigma_db
    k = round(half_width / step)
    z = step * np.arange(-k, k + 1.0) + _log_integrand_peak(ln_mean, ln_sigma, theta)
    log_gain = np.logaddexp(0.0, ln_mean + ln_sigma * z)
    f = -0.5 * z * z - theta * log_gain
    top = float(f.max())
    weights = np.exp(f - top)
    total = float(weights.sum())
    weights *= log_gain
    ln_weight = math.log(step / math.sqrt(2.0 * math.pi))
    return top + math.log(total) + ln_weight, -float(weights.sum()) / total


class TestNodeLattice:
    """An exact factor depends on (channel, theta) alone, whatever the shared node values hold."""

    CHANNEL = lb.ShadowingChannel(25.0, 0.5, 500e6, 1.0)
    # Each differs from CHANNEL in one of the two parameters of the nodes.
    OTHERS = (lb.ShadowingChannel(25.0, 6.0, 500e6, 1.0),
              lb.ShadowingChannel(20.0, 0.5, 500e6, 1.0))
    # The stability search's floor and cap at 1 s slots and 500 MHz, and
    # the exponents between.
    EXPONENTS = [1e-14 * CHANNEL.bits_per_nat, 0.5, 5.0, 143.0, 1600.0, 7.2e5,
                 1e2 * CHANNEL.bits_per_nat]

    @pytest.fixture(autouse=True)
    def cleared_nodes(self, monkeypatch):
        monkeypatch.setattr(inverse_moment, "_nodes", None)

    def cold(self, monkeypatch, channel, exponent):
        monkeypatch.setattr(inverse_moment, "_nodes", None)
        return lb.exact_inverse_moment(channel, exponent, with_slope=True)

    @pytest.mark.parametrize("other", OTHERS, ids=["sigma", "mean"])
    def test_cold_warm_and_after_another_channel(self, monkeypatch, other):
        reference = {t: self.cold(monkeypatch, self.CHANNEL, t) for t in self.EXPONENTS}
        others = {t: self.cold(monkeypatch, other, t) for t in self.EXPONENTS}
        monkeypatch.setattr(inverse_moment, "_nodes", None)
        for t in self.EXPONENTS + self.EXPONENTS[::-1]:
            assert lb.exact_inverse_moment(self.CHANNEL, t, with_slope=True) == reference[t], t
        for t in self.EXPONENTS:
            assert lb.exact_inverse_moment(other, t, with_slope=True) == others[t], t
            assert lb.exact_inverse_moment(self.CHANNEL, t, with_slope=True) == reference[t], t

    def test_after_a_cap_probe_extends_the_range(self, monkeypatch):
        cap = self.EXPONENTS[-1]
        reference = {t: self.cold(monkeypatch, self.CHANNEL, t) for t in self.EXPONENTS}
        monkeypatch.setattr(inverse_moment, "_nodes", None)
        lb.exact_inverse_moment(self.CHANNEL, self.EXPONENTS[0])
        before = inverse_moment._nodes
        assert (before.k_lo, before.k_hi) == (-240, 241)
        lb.exact_inverse_moment(self.CHANNEL, cap)
        after = inverse_moment._nodes
        # The cap's window lies near z = -202, and the range now spans it,
        # the floor's window and, as the peak falls with theta, every
        # window between.
        assert after.k_lo < -4000 and after.k_hi == before.k_hi
        assert not after.log_gain.flags.writeable
        for t in self.EXPONENTS:
            assert lb.exact_inverse_moment(self.CHANNEL, t, with_slope=True) == reference[t], t
        assert inverse_moment._nodes is after

    def test_far_window_replaces_the_range(self, monkeypatch):
        # At sigma = 0.01 dB the cap's peak lies near z = -8000: the union
        # with a window near 0 would pass the size cap, so the far window
        # replaces the range instead, and the values are those of a cold call.
        chan = lb.ShadowingChannel(25.0, 0.01, 500e6, 1.0)
        cap = 1e2 * chan.bits_per_nat
        reference = {t: self.cold(monkeypatch, chan, t) for t in (0.5, cap)}
        lb.exact_inverse_moment(chan, 0.5)
        assert lb.exact_inverse_moment(chan, cap, with_slope=True) == reference[cap]
        nodes = inverse_moment._nodes
        assert nodes.k_hi - nodes.k_lo == 481
        assert lb.exact_inverse_moment(chan, 0.5, with_slope=True) == reference[0.5]

    def test_concurrent_threads(self, monkeypatch):
        # Four threads, two per channel, each walking the exponents up or
        # down, so that the snapshot is swapped and extended under them.
        per_channel = {chan: [(chan, t) for t in self.EXPONENTS]
                       for chan in (self.CHANNEL, self.OTHERS[0])}
        reference = {job: self.cold(monkeypatch, *job)
                     for jobs in per_channel.values() for job in jobs}
        picks = [jobs[::step] for jobs in per_channel.values() for step in (1, -1)] * 3
        monkeypatch.setattr(inverse_moment, "_nodes", None)

        def factors(jobs):
            return [lb.exact_inverse_moment(*job, with_slope=True) for job in jobs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(factors, jobs) for jobs in picks]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [[reference[job] for job in jobs] for jobs in picks]


@pytest.mark.parametrize("theta", [math.nan, math.inf])
@pytest.mark.parametrize("route", ["grid", "exact", "service"])
def test_non_finite_exponent_rejected(operating_channel, route, theta):
    svc = lb.ServiceCharacterization(operating_channel)
    evaluate = {
        "grid": lambda: lb.inverse_moment_bound_many(
            lognormal_cdf(operating_channel), [1.0, theta], lb.DiscretizationConfig()),
        "exact": lambda: lb.exact_inverse_moment(operating_channel, theta),
        "service": lambda: svc.log_per_slot_bound(theta),
    }[route]
    with pytest.raises(ValueError, match="finite"):
        evaluate()
    assert not svc._log_cache


def mp_integrand_peak(mean_db, sigma_db, exponent):
    """Argmax of the log-integrand -z^2/2 - t ln(1 + x(z)), by 200 bisections at 30 digits."""
    with mpmath.workdps(30):
        a = mpmath.log(10) / 10 * mean_db
        b = mpmath.log(10) / 10 * sigma_db
        t = mpmath.mpf(exponent)
        lo, hi = -t * b, mpmath.mpf(0)
        for _ in range(200):
            mid = (lo + hi) / 2
            if -mid - t * b / (1 + mpmath.exp(-(a + b * mid))) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def mp_log_inverse_moment(mean_db, sigma_db, exponent):
    """ln E[(1+X)^(-exponent)] of the log-normal SNR by mpmath.quad at 30 digits.

    The Gaussian variable z is integrated within 30 of the log-integrand's
    peak (``mp_integrand_peak``), with a break at every integer offset.
    """
    with mpmath.workdps(30):
        a = mpmath.log(10) / 10 * mean_db
        b = mpmath.log(10) / 10 * sigma_db
        t = mpmath.mpf(exponent)

        def log_integrand(z):
            return -z * z / 2 - t * mpmath.log1p(mpmath.exp(a + b * z))

        peak = mp_integrand_peak(mean_db, sigma_db, exponent)
        top = log_integrand(peak)
        value = mpmath.quad(lambda z: mpmath.exp(log_integrand(z) - top),
                            [peak + k for k in range(-30, 31)])
        return float(top + mpmath.log(value) - mpmath.log(2 * mpmath.pi) / 2)


def scalar_truncation_point(cdf, theta, config):
    """Point-by-point doubling-and-bisection search, the reference for truncation_point."""

    def stopped(x):
        surv = 1.0 - float(cdf(np.asarray([x]))[0])
        if surv <= config.tail_mass_tol:
            return True
        return surv * math.exp(-theta * math.log1p(x)) <= _SLACK_TOL

    x = _SEARCH_X0
    if stopped(x):
        return x
    while x < _SEARCH_CEIL and not stopped(2.0 * x):
        x *= 2.0
    if x >= _SEARCH_CEIL:
        return _SEARCH_CEIL
    lo, hi = x, 2.0 * x
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if stopped(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestTruncationAndTable:
    def test_truncation_point_is_step_independent(self, operating_channel):
        cdf = lognormal_cdf(operating_channel)
        a = truncation_point(cdf, 2.0, lb.DiscretizationConfig(step_delta=1.0))
        b = truncation_point(cdf, 2.0, lb.DiscretizationConfig(step_delta=1e-3))
        assert a == b

    @settings(max_examples=150, deadline=None)
    @given(
        mean_snr_db=st.floats(-10.0, 45.0),
        sigma_db=st.one_of(st.just(0.0), st.floats(0.1, 12.0)),
        theta=st.one_of(st.just(0.0), st.floats(-6.0, 2.0).map(lambda e: 10.0**e)),
        tail_mass_tol=st.one_of(
            st.floats(-12.0, -0.01).map(lambda e: 10.0**e),
            st.floats(-12.0, -1.0).map(lambda e: 1.0 - 10.0**e),
        ),
    )
    @example(mean_snr_db=25.0, sigma_db=0.0, theta=0.0, tail_mass_tol=2e-3)
    @example(mean_snr_db=25.0, sigma_db=8.0, theta=0.0, tail_mass_tol=2e-3)
    @example(mean_snr_db=25.0, sigma_db=8.0, theta=2.0, tail_mass_tol=1.0 - 1e-12)
    @example(mean_snr_db=25.0, sigma_db=8.0, theta=0.0, tail_mass_tol=1e-12)
    @example(mean_snr_db=40.0, sigma_db=12.0, theta=1e-6, tail_mass_tol=1e-12)
    def test_truncation_point_matches_scalar_search(
        self, mean_snr_db, sigma_db, theta, tail_mass_tol
    ):
        cdf = lognormal_cdf(lb.ShadowingChannel(mean_snr_db, sigma_db, 5e8))
        cfg = lb.DiscretizationConfig(tail_mass_tol=tail_mass_tol)
        assert truncation_point(cdf, theta, cfg) == scalar_truncation_point(cdf, theta, cfg)

    def test_truncation_point_search_ceiling(self):
        # Survival 1 everywhere: no tolerance is met before the search cap.
        cdf = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        cfg = lb.DiscretizationConfig()
        assert truncation_point(cdf, 0.0, cfg) == _SEARCH_CEIL
        assert scalar_truncation_point(cdf, 0.0, cfg) == _SEARCH_CEIL

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_grid_refuses_a_cut_past_the_search_ceiling(self, theta):
        # Survival 1 everywhere: at theta = 0.5 no rule fires below the
        # 1e12 ceiling, and at theta = 1 the slack rule fires just past it.
        # A grid to either cut would stream 1e14 cells; the truncation
        # search evaluates at most 1025 points at once, the grid 2e6.
        def zero_cdf(x):
            assert x.size <= 1025, "the grid evaluated the CDF"
            return np.zeros_like(x)

        cfg = lb.DiscretizationConfig()
        assert truncation_point(zero_cdf, theta, cfg) >= _SEARCH_CEIL
        with pytest.raises(ValueError, match="tail rules do not stop the grid"):
            lb.inverse_moment_bound(zero_cdf, theta, cfg)
        with pytest.raises(ValueError, match="tail rules do not stop the grid"):
            lb.inverse_moment_bound_many(zero_cdf, [0.0, 3.0, theta], cfg)

    def test_truncation_point_rejects_nan_cdf(self, operating_channel):
        # A NaN survival used to read as "not stopped", so the search walked
        # to the 1e12 ceiling and the grid then asked for 1e14 cells.
        cdf = lognormal_cdf(operating_channel)
        nan_above_5 = lambda x: np.where(x > 5.0, np.nan, cdf(x))
        cfg = lb.DiscretizationConfig()
        with pytest.raises(lb.CdfContractError, match="non-finite"):
            truncation_point(nan_above_5, 1.0, cfg)
        with pytest.raises(lb.CdfContractError, match="non-finite"):
            lb.inverse_moment_bound(nan_above_5, 1.0, cfg)

    def test_table_upper_bounds_grid_value(self, operating_channel):
        cdf = lognormal_cdf(operating_channel)
        cfg = lb.DiscretizationConfig(step_delta=1e-2)
        n = int(math.ceil(truncation_point(cdf, 0.0, cfg) / cfg.step_delta))
        table = StieltjesTable(cdf, cfg.step_delta, n, block_log_width=2e-5)
        for theta in (0.5, 1.0, 3.0):
            grid_val = lb.inverse_moment_bound(cdf, theta, cfg)
            table_val = table.bound(theta)[0]
            exact = lb.exact_inverse_moment(operating_channel, theta)
            assert table_val >= exact
            # Within the advertised looseness of the unmerged grid value.
            assert table_val <= grid_val * (1.0 + theta * 2e-5) + 1e-15

    def test_single_cell_blocks_match_grid_exactly(self):
        # At 10 dB and sigma = 4 dB every block of a delta = 0.01 table is one
        # grid cell, and the survival alone cuts the grid at theta = 0.5 and 2
        # as at theta = 0: the table's staircase then adds the same terms in
        # one sum as the grid. Its bound sums them segment by segment, to
        # rounding.
        chan = lb.ShadowingChannel(10.0, 4.0, 5e8)
        cdf = lognormal_cdf(chan)
        cfg = lb.DiscretizationConfig(step_delta=1e-2)
        n = int(math.ceil(truncation_point(cdf, 0.0, cfg) / cfg.step_delta))
        table = StieltjesTable(cdf, cfg.step_delta, n, block_log_width=2e-5)
        assert table.mass.size == n
        for theta in (0.5, 2.0):
            grid = lb.inverse_moment_bound(cdf, theta, cfg)
            staircase = _staircase_sum(table.log_edges, table.mass, theta)
            staircase += table.end_survival * math.exp(-theta * table.end_log_edge)
            assert staircase == grid
            assert table.bound(theta)[0] == pytest.approx(grid, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mean_snr_db, sigma_db", [(25.0, 8.0), (25.0, 2.0),
                                                       (10.0, 4.0), (30.0, 6.0)])
    def test_segment_series_matches_exp_pass(self, mean_snr_db, sigma_db):
        # Up to t = 1 / _SEGMENT_WIDTH the table sums its segment-local
        # series; on either side of that cut, and on either side of
        # t * end_log_edge = 1, it must give the staircase to rounding.
        cdf = lognormal_cdf(lb.ShadowingChannel(mean_snr_db, sigma_db, 5e8))
        cfg = lb.DiscretizationConfig(step_delta=1e-2)
        n = int(math.ceil(truncation_point(cdf, 0.0, cfg) / cfg.step_delta))
        table = StieltjesTable(cdf, cfg.step_delta, n, block_log_width=2e-5)
        thetas = [r / _SEGMENT_WIDTH for r in (1e-6, 0.5, 0.99, 1.0, 1.01, 2.0)]
        thetas += [r / table.end_log_edge for r in (0.5, 2.0)]
        for theta in thetas:
            staircase = _staircase_sum(table.log_edges, table.mass, theta)
            staircase += table.end_survival * math.exp(-theta * table.end_log_edge)
            assert table.bound(theta)[0] == pytest.approx(staircase, rel=1e-13, abs=0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        mean_snr_db=st.floats(5.0, 40.0),
        sigma_db=st.floats(0.5, 10.0),
        thetas=st.lists(
            st.floats(math.log10(64.0), 11.0).map(lambda e: 10.0**e).filter(lambda t: t > 64.0),
            min_size=1, max_size=4,
        ),
    )
    @example(mean_snr_db=25.0, sigma_db=8.0, thetas=[721.0, 7.2e10])
    @example(mean_snr_db=5.0, sigma_db=0.5, thetas=[64.000001, 1e11])
    @example(mean_snr_db=40.0, sigma_db=10.0, thetas=[64.000001, 1e3])
    def test_short_exp_pass_meets_full_pass(self, mean_snr_db, sigma_db, thetas):
        # Above 1 / _SEGMENT_WIDTH the bound sums a prefix of the blocks and
        # charges the rest of the mass at the prefix's cut: never below the
        # full exp pass, and above it by rounding at most.
        cdf = lognormal_cdf(lb.ShadowingChannel(mean_snr_db, sigma_db, 5e8))
        cfg = lb.DiscretizationConfig(step_delta=1e-2)
        n = int(math.ceil(truncation_point(cdf, 0.0, cfg) / cfg.step_delta))
        table = StieltjesTable(cdf, cfg.step_delta, n, block_log_width=2e-5)
        for theta in thetas:
            full = _staircase_sum(table.log_edges, table.mass, theta)
            full += table.end_survival * math.exp(-theta * table.end_log_edge)
            full = min(full + _FACTOR_FLOOR, 1.0)
            assert full <= table.bound(theta)[0] <= full * (1.0 + 2.0**-50)

    @pytest.mark.parametrize("kind, bound", [("backlog", lb.backlog_bound),
                                             ("delay", lb.delay_bound)])
    def test_cold_bound_exp_passes(self, monkeypatch, gbps_env, operating_channel, kind,
                                   bound):
        # Every exponent up to 1 / _SEGMENT_WIDTH takes the segment series, so
        # a cold bound pays only a few exp passes. At 25/8 dB the only one is
        # the stability search's probe at the cap, t = 7.2e10, which sums a
        # short prefix of the 292k blocks, not all of them, once for the
        # factor and once for its slope.
        calls = []
        real = inverse_moment._staircase_sum

        def counting(log_left, mass, theta):
            calls.append((theta, mass.size))
            return real(log_left, mass, theta)

        monkeypatch.setattr(inverse_moment, "_staircase_sum", counting)
        svc = lb.ServiceCharacterization(operating_channel)
        bound(gbps_env, svc, lb.BoundQuery(epsilon=1e-3, kind=kind))
        assert len(calls) <= 4
        thetas = {round(theta) for theta, _ in calls}
        assert thetas == {72_134_752_044}
        assert max(size for _, size in calls) <= 512


    def test_slope_is_minus_a_tilted_mean(self, operating_channel):
        # The slope is minus a mean of log1p(x) under a tilted distribution:
        # never positive, and above minus the grid's last log edge, on the
        # series and on the exp pass.
        cdf = lognormal_cdf(operating_channel)
        cfg = lb.DiscretizationConfig(step_delta=1e-2)
        n = int(math.ceil(truncation_point(cdf, 0.0, cfg) / cfg.step_delta))
        table = StieltjesTable(cdf, cfg.step_delta, n, block_log_width=2e-5)
        for theta in np.geomspace(1e-3, 1e11, 200).tolist():
            value, slope = table.bound(theta)
            assert 0.0 < value <= 1.0
            assert -table.end_log_edge <= slope <= 0.0

    @pytest.mark.parametrize("theta", [65.0, 721.0, 7.2e10])
    def test_exp_pass_tail_memo_is_bit_identical(self, operating_channel, theta):
        # The mass past each prefix cut is summed once per table; the pass
        # gives the float of one that sums it afresh, on a cold memo and a
        # warm one.
        cdf = lognormal_cdf(operating_channel)
        cfg = lb.DiscretizationConfig(step_delta=1e-2)
        n = int(math.ceil(truncation_point(cdf, 0.0, cfg) / cfg.step_delta))
        table = StieltjesTable(cdf, cfg.step_delta, n, block_log_width=2e-5)
        expected = unmemoised_exp_pass(table, theta)
        assert table._exp_pass(theta)[0] == expected
        assert table._tail_mass
        assert table._exp_pass(theta)[0] == expected


def unmemoised_exp_pass(table, theta):
    """The table's exp pass, summing the mass past each prefix cut on every call."""
    n = table.mass.size
    val, k = 0.0, 0
    for cut in _pairwise_prefixes(n):
        val += _staircase_sum(table.log_edges[k:cut], table.mass[k:cut], theta)
        k = cut
        if k == n:
            break
        survival = float(table.mass[k:].sum()) + table.end_survival
        charge = survival * math.exp(-theta * float(table.log_edges[k]))
        if charge <= _PREFIX_RTOL * val:
            return val + charge
    return val + table.end_survival * math.exp(-theta * table.end_log_edge)


def cell_by_cell_table(cdf, delta, n_terms, block_log_width, chunk=2_000_000):
    """Cell-by-cell table build, the reference for StieltjesTable's block-lattice build.

    Evaluates the CDF at every grid cell in chunks, tags each cell with the
    lattice id of its left edge and sums cell masses over runs of equal id.
    Returns (log_edges, mass, end_survival).
    """
    masses, edges = [], []
    prev_f, last_id = 0.0, -1
    for k0 in range(1, n_terms + 1, chunk):
        k1 = min(k0 + chunk - 1, n_terms)
        k = np.arange(k0, k1 + 1, dtype=float)
        f = np.asarray(cdf(k * delta), dtype=float)
        log_left = np.log1p((k - 1.0) * delta)
        mass = np.diff(np.concatenate(([prev_f], f)))
        ids = np.floor(log_left / block_log_width).astype(np.int64)
        starts = np.concatenate(([0], np.nonzero(np.diff(ids))[0] + 1))
        block_mass = np.add.reduceat(mass, starts)
        block_edge = log_left[starts]
        if last_id >= 0 and ids[0] == last_id:
            masses[-1][-1] += block_mass[0]
            block_mass, block_edge = block_mass[1:], block_edge[1:]
        if block_mass.size:
            masses.append(block_mass)
            edges.append(block_edge)
            last_id = int(ids[-1])
        prev_f = float(f[-1])
    return np.concatenate(edges), np.concatenate(masses), 1.0 - prev_f


def segment_moments_reference(log_edges: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left edge L_s, moments sum mass * (l - L_s)^k / k! by k and s) of each segment.

    Segment s holds the blocks whose log edge l has floor(l / width) = s,
    that is s * width <= l; only segments that hold a block are kept.
    Moments are summed over chunks of whole segments, in two buffers sized
    to the longest chunk, so the temporaries stay cache-sized.
    """
    # The two-pass build's moment pass, verbatim: the reference for the
    # moments that the one-pass build sums chunk by chunk.
    n = log_edges.size
    lattice = np.arange(math.floor(log_edges[-1] / _SEGMENT_WIDTH) + 1.0) * _SEGMENT_WIDTH
    first = np.searchsorted(log_edges, lattice)
    held = np.diff(first, append=n) > 0
    first, seg_left = first[held], lattice[held]
    moments = np.empty((_SERIES_TERMS + 1, first.size))
    # Each chunk starts at the first block of the segment that holds a
    # multiple of _TABLE_CHUNK, so that no segment is split.
    cuts = np.unique(np.searchsorted(first, np.arange(0, n, _TABLE_CHUNK), side="right") - 1)
    block_of = np.append(first, n)
    longest = int(np.diff(block_of[np.append(cuts, first.size)]).max())
    offset_buf, power_buf = np.empty(longest), np.empty(longest)
    for c0, c1 in zip(cuts.tolist(), cuts[1:].tolist() + [first.size]):
        b0, b1 = int(block_of[c0]), int(block_of[c1])
        edges = log_edges[b0:b1]
        # offset = edges - floor(edges / width) * width
        offset = np.divide(edges, _SEGMENT_WIDTH, out=offset_buf[:b1 - b0])
        np.floor(offset, out=offset)
        offset *= _SEGMENT_WIDTH
        np.subtract(edges, offset, out=offset)
        local = first[c0:c1] - b0
        powers = power_buf[:b1 - b0]
        powers[:] = mass[b0:b1]
        moments[0, c0:c1] = np.add.reduceat(powers, local)
        for k in range(1, _SERIES_TERMS + 1):
            powers *= offset
            moments[k, c0:c1] = np.add.reduceat(powers, local)
    moments /= np.cumprod(np.arange(_SERIES_TERMS + 1.0).clip(1.0))[:, None]
    return seg_left, moments


def assert_moments_match_reference(table):
    seg_left, moments = segment_moments_reference(table.log_edges, table.mass)
    assert np.array_equal(table._seg_left, seg_left)
    # The moments, then the same moments times each segment's left edge.
    assert np.array_equal(table._seg_moments, np.concatenate((moments, moments * seg_left)))


class TestBlockLatticeBuild:
    @pytest.mark.parametrize(
        "mean_snr_db, sigma_db, delta, width, n_terms",
        [
            (25.0, 8.0, 1e-2, 2e-5, 1),
            (25.0, 8.0, 1e-2, 2e-5, None),  # 6.3e6 cells, one to many cells per block
            (30.0, 8.0, 1e-2, 2e-5, None),  # 2.0e7 cells, several reference chunks
            (25.0, 2.0, 1e-2, 2e-5, None),
            (10.0, 4.0, 1e-2, 2e-5, None),  # every block a single cell
            # expm1(j * width) / delta lands on a whole cell at every j that is a
            # multiple of 1000; there the first guess of a block start is one
            # cell off, in either direction.
            (50.0, 8.0, 1.0, math.log(2.0) / 1000, 1_000_000),
        ],
    )
    def test_matches_cell_by_cell_build(self, mean_snr_db, sigma_db, delta, width, n_terms):
        cdf = lognormal_cdf(lb.ShadowingChannel(mean_snr_db, sigma_db, 5e8))
        if n_terms is None:
            cfg = lb.DiscretizationConfig(step_delta=delta)
            n_terms = int(math.ceil(truncation_point(cdf, 0.0, cfg) / delta))
        table = StieltjesTable(cdf, delta, n_terms, block_log_width=width)
        log_edges, mass, end_survival = cell_by_cell_table(cdf, delta, n_terms, width)
        assert np.array_equal(table.log_edges, log_edges)
        assert np.array_equal(table.mass, mass)
        assert table.end_survival == end_survival
        assert_moments_match_reference(table)

    def test_read_only_cdf_output(self, operating_channel):
        # The build reads the CDF's arrays and writes to none of them.
        cdf = lognormal_cdf(operating_channel)

        def read_only(x):
            f = cdf(x)
            f.flags.writeable = False
            return f

        n = int(math.ceil(truncation_point(cdf, 0.0, lb.DiscretizationConfig()) / 1e-2))
        assert table_digest(read_only, 1e-2, n) == table_digest(cdf, 1e-2, n)

    def test_out_of_range_cdf_rejected(self):
        bad = lambda x: np.full_like(np.asarray(x, dtype=float), 1.5)
        with pytest.raises(lb.CdfContractError):
            StieltjesTable(bad, 0.01, 100_000, block_log_width=2e-5)

    def test_nan_cdf_rejected(self, operating_channel):
        # Every comparison with NaN is False, so the range and monotonicity
        # checks of the build passed a NaN on to the masses.
        cdf = lognormal_cdf(operating_channel)
        nan_above_5 = lambda x: np.where(x > 5.0, np.nan, cdf(x))
        with pytest.raises(lb.CdfContractError, match="non-finite"):
            StieltjesTable(nan_above_5, 0.01, 100_000, block_log_width=2e-5)

    def test_build_peak_stays_near_the_table(self, operating_channel):
        # The build writes into its output arrays chunk by chunk: at 25/8 dB
        # (292k blocks) its peak traced allocation exceeds what the table
        # keeps by less than 4 MiB.
        cdf = lognormal_cdf(operating_channel)
        n = int(math.ceil(truncation_point(cdf, 0.0, lb.DiscretizationConfig()) / 1e-2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = StieltjesTable(cdf, 1e-2, n, block_log_width=2e-5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (table.log_edges, table.mass, table._seg_left,
                                      table._seg_moments))
        assert table.mass.size > 290_000
        assert peak < kept + 4 * 2**20

    @pytest.mark.parametrize("delta", [1e-11, 1e-12])
    def test_lattice_settles_up_to_2_53_cells(self, operating_channel, delta):
        # Near 2^53 cells the block starts' expm1 guesses are tens of cells
        # off; the build still places every one, in order.
        table = StieltjesTable(lognormal_cdf(operating_channel), delta, 2**53,
                               block_log_width=2e-5)
        assert np.all(np.diff(table.log_edges) > 0.0)
        assert np.all(table.mass >= 0.0)

    def test_beyond_2_53_cells_rejected(self):
        def unreachable(x):
            raise AssertionError("the CDF is not evaluated")

        with pytest.raises(ValueError, match="grid step 1e-12 is too fine"):
            StieltjesTable(unreachable, 1e-12, 2**53 + 1, block_log_width=2e-5)

    def test_non_monotone_across_block_edges_rejected(self):
        # Blocks above x = 500 span many cells; the CDF drops between two of them.
        def bad(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < 800.0, x / 1000.0, 0.1)

        with pytest.raises(lb.CdfContractError):
            StieltjesTable(bad, 0.01, 100_000, block_log_width=2e-5)


def table_digest(cdf, delta, n_terms, width=2e-5) -> str:
    """SHA-256 of every array and scalar of a new StieltjesTable, shapes included."""
    table = StieltjesTable(cdf, delta, n_terms, block_log_width=width)
    digest = hashlib.sha256()
    for a in (table.log_edges, table.mass, table._seg_left, table._seg_moments,
              np.asarray([table.end_survival, table.end_log_edge])):
        digest.update(repr(a.shape).encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _lattice_cases():
    """(id, channel, two steps, block width, cell counts in ascending order)."""
    cases = []
    for name, (mean_snr_db, sigma_db), steps, width, extra in (
        ("25/8 dB", (25.0, 8.0), (1e-2, 2e-2), 2e-5, [820_000, 15_000_000, 2**40, 2**53]),
        # The case of test_matches_cell_by_cell_build whose first guesses of
        # a block start are a cell off.
        ("50/8 dB adversarial", (50.0, 8.0), (1.0, 2.0), math.log(2.0) / 1000, [1_000_000]),
    ):
        dense = math.ceil(1.0 / width)
        ns = [1, dense - 1, dense, dense + 1, 100_000] + extra
        cases.append(pytest.param(lb.ShadowingChannel(mean_snr_db, sigma_db, 5e8), steps,
                                  width, ns, id=name))
    return cases


class TestSharedLattice:
    """Every table slices one block lattice per (delta, width); none places its own."""

    @pytest.fixture(autouse=True)
    def cleared_lattice(self, monkeypatch):
        monkeypatch.setattr(inverse_moment, "_lattice", None)

    @pytest.mark.parametrize("channel, steps, width, ns", _lattice_cases())
    def test_prefix_matches_a_cleared_lattice(self, monkeypatch, channel, steps, width, ns):
        # Ascending counts grow the lattice table by table; after the
        # 2^53-cell table the descending order slices every smaller table's
        # x and log edges from the largest lattice.
        cdf = lognormal_cdf(channel)
        reference = {}
        for delta in steps:
            for n in ns:
                monkeypatch.setattr(inverse_moment, "_lattice", None)
                reference[delta, n] = table_digest(cdf, delta, n, width)
        orders = {
            "ascending": [(steps[0], n) for n in ns],
            "descending": [(steps[0], n) for n in reversed(ns)],
            "alternating steps": [(delta, n) for n in ns for delta in steps],
        }
        for order, builds in orders.items():
            monkeypatch.setattr(inverse_moment, "_lattice", None)
            for delta, n in builds:
                assert table_digest(cdf, delta, n, width) == reference[delta, n], (order, delta, n)

    @pytest.mark.parametrize("channel, steps, width, ns", _lattice_cases())
    def test_moments_match_a_separate_pass(self, channel, steps, width, ns):
        # The build sums each chunk's segment moments right after its
        # masses; they must equal a separate pass over the finished table.
        cdf = lognormal_cdf(channel)
        for n in ns:
            assert_moments_match_reference(StieltjesTable(cdf, steps[0], n, width))

    @pytest.mark.parametrize("delta, n_terms", [(1e-2, 2**40), (1e-2, 2**53), (1e-11, 2**53)])
    def test_starts_are_the_placed_cells(self, delta, n_terms):
        # The lattice keeps every start x = m delta as placed; recovering x
        # from its log edge instead would be up to 32 cells off at 2^53.
        lattice = inverse_moment._place_lattice(delta, n_terms, 2e-5)
        placed = np.concatenate([x for x, _ in inverse_moment._block_starts(delta, n_terms, 2e-5)])
        assert np.array_equal(lattice.x, placed)
        assert lattice.prefix(n_terms) == placed.size

    @pytest.mark.parametrize("delta, n_base, n_terms", [
        (1e-2, 49_999, 50_001),  # across cell ceil(1 / width), where the capacity changes form
        (1e-2, 100_000, 2**40),
        (1e-11, 2**40, 2**53),
        # Cells wider than many lattice steps, where cell 1 is the start
        # of id 1 and most ids hold no cell.
        (1.0, 1, 2),
        (1.0, 2, 50_001),
        (2.0, 1, 2),
        (2.0, 2, 50_001),
    ])
    def test_smaller_lattice_is_a_prefix(self, delta, n_base, n_terms):
        # A table of fewer cells slices the larger lattice, so the starts of
        # its own placement must be exactly the larger one's first starts.
        base = inverse_moment._place_lattice(delta, n_base, 2e-5)
        grown = inverse_moment._place_lattice(delta, n_terms, 2e-5)
        kept = grown.prefix(n_base)
        assert kept == base.x.size
        assert np.array_equal(grown.x[:kept], base.x)
        assert np.array_equal(grown.log_edges[:kept], base.log_edges)
        if n_terms <= 50_001:
            # A block starts at each cell whose id exceeds the last cell's.
            x = np.arange(n_terms, dtype=float) * delta
            ids = np.floor(np.log1p(x) / 2e-5)
            assert np.array_equal(grown.x, x[np.diff(ids, prepend=-1.0) != 0])

    def test_growth_releases_the_old_lattice_first(self, monkeypatch):
        # With no table alive only the shared slot holds the lattice, so a
        # growth places the larger one with the smaller one already freed.
        inverse_moment._shared_lattice(1e-2, 1_000_000, 2e-5)
        old = weakref.ref(inverse_moment._lattice)
        place = inverse_moment._place_lattice
        placed = []

        def place_after_release(*args):
            assert old() is None
            placed.append(args)
            return place(*args)

        monkeypatch.setattr(inverse_moment, "_place_lattice", place_after_release)
        assert inverse_moment._shared_lattice(1e-2, 15_000_000, 2e-5).n_terms == 15_000_000
        assert placed == [(1e-2, 15_000_000, 2e-5)]

    def test_second_table_allocates_no_log_edges(self, operating_channel):
        # At 25/8 dB the log edges take 2.3 MB; a table at the same step and
        # no more cells slices them and allocates only its masses and moments.
        cdf = lognormal_cdf(operating_channel)
        n = int(math.ceil(truncation_point(cdf, 0.0, lb.DiscretizationConfig()) / 1e-2))
        first = StieltjesTable(cdf, 1e-2, n, block_log_width=2e-5)
        for n_second in (n, n - 1000):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                second = StieltjesTable(cdf, 1e-2, n_second, block_log_width=2e-5)
                retained, peak = tracemalloc.get_traced_memory()
                large = [t.size for t in tracemalloc.take_snapshot().traces
                         if t.size >= second.mass.nbytes]
            finally:
                tracemalloc.stop()
            own = sum(a.nbytes for a in (second.mass, second._seg_left, second._seg_moments))
            assert np.shares_memory(first.log_edges, second.log_edges)
            assert large == [second.mass.nbytes]
            assert retained - before < own + 64 * 2**10
            assert peak - before < own + second.log_edges.nbytes // 2

    def test_concurrent_tables_match_a_cleared_lattice(self, monkeypatch, operating_channel):
        # The CLI builds every table on its calling thread, but a library
        # caller may build tables from several threads; the lattice is then
        # placed, grown, swapped and sliced concurrently.
        cdf = lognormal_cdf(operating_channel)
        jobs = [(delta, n) for delta in (1e-2, 2e-2) for n in (50_001, 400_000, 820_000)]
        reference = {}
        for delta, n in jobs:
            monkeypatch.setattr(inverse_moment, "_lattice", None)
            reference[delta, n] = table_digest(cdf, delta, n)
        monkeypatch.setattr(inverse_moment, "_lattice", None)
        order = [jobs[i] for i in np.random.default_rng(3).permutation(len(jobs) * 3) % len(jobs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(table_digest, cdf, *job) for job in order]
                digests = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert digests == [reference[job] for job in order]

    def test_switching_step_releases_the_lattice(self, operating_channel):
        cdf = lognormal_cdf(operating_channel)
        table = StieltjesTable(cdf, 1e-2, 100_000, block_log_width=2e-5)
        lattice = weakref.ref(inverse_moment._lattice)
        edges = weakref.ref(table.log_edges.base)
        del table
        StieltjesTable(cdf, 2e-2, 100_000, block_log_width=2e-5)
        assert lattice() is None
        assert edges() is None


def _set_parts(monkeypatch, parts):
    """Build every table in up to that many parts, however few its blocks."""
    monkeypatch.setattr(inverse_moment, "_WORKERS", parts)
    monkeypatch.setattr(inverse_moment, "_MAX_PARTS", parts)
    monkeypatch.setattr(inverse_moment, "_MIN_SPLIT_BLOCKS", 1)


def _part_starts(delta, n_terms, width, parts):
    """(lattice x, first block of each part) of the table build at that many parts."""
    lattice = inverse_moment._shared_lattice(delta, n_terms, width)
    _, first, cuts = inverse_moment._segments(lattice.log_edges[:lattice.prefix(n_terms)])
    split = inverse_moment._split_chunks(cuts, first, parts)
    return lattice.x, [int(first[part[0][0]]) for part in split]


class TestSplitBuild:
    """A large table is built in contiguous parts of its chunks, one per worker;
    no bit of it, and no error it raises, may depend on the number of parts."""

    @pytest.mark.parametrize(
        "mean_snr_db, sigma_db, delta, width, n_terms, chunks",
        [
            (25.0, 8.0, 1e-2, 2e-5, None, 9),
            (30.0, 8.0, 1e-2, 2e-5, None, 11),
            (10.0, 4.0, 1e-2, 2e-5, None, 1),
            # The grid whose first guesses of a block start are a cell off.
            (50.0, 8.0, 1.0, math.log(2.0) / 1000, 2**53, 2),
        ],
        ids=["25/8 dB", "30/8 dB", "10/4 dB", "delta 1, width ln 2 / 1000"],
    )
    def test_parts_move_no_bit(self, monkeypatch, mean_snr_db, sigma_db, delta, width, n_terms,
                               chunks):
        cdf = lognormal_cdf(lb.ShadowingChannel(mean_snr_db, sigma_db, 5e8))
        if n_terms is None:
            cfg = lb.DiscretizationConfig(step_delta=delta)
            n_terms = int(math.ceil(truncation_point(cdf, 0.0, cfg) / delta))
        lattice = inverse_moment._shared_lattice(delta, n_terms, width)
        cuts = inverse_moment._segments(lattice.log_edges[:lattice.prefix(n_terms)])[2]
        assert len(cuts) - 1 == chunks
        digests = []
        for parts in (1, 2, 3):
            _set_parts(monkeypatch, parts)
            digests.append(table_digest(cdf, delta, n_terms, width))
        assert digests == digests[:1] * 3

    def test_many_parts_under_fast_switching(self, monkeypatch, operating_channel):
        # Eight parts at once, with the interpreter switching threads
        # every microsecond, write the masses and moments of disjoint chunks.
        cdf = lognormal_cdf(operating_channel)
        n = int(math.ceil(truncation_point(cdf, 0.0, lb.DiscretizationConfig()) / 1e-2))
        reference = table_digest(cdf, 1e-2, n)
        _set_parts(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            digests = [table_digest(cdf, 1e-2, n) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert digests == [reference] * 3

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_large_tables_split_by_default(self, monkeypatch, operating_channel, workers):
        # The CPUs this process may run on decide the simulator's workers and
        # a table's parts: the 25/8 dB table (292k blocks) takes up to two,
        # a table of 100k cells (and blocks) one.
        assert simulator._WORKERS is inverse_moment._WORKERS
        assert inverse_moment._WORKERS == len(os.sched_getaffinity(0))
        monkeypatch.setattr(inverse_moment, "_WORKERS", workers)
        split, parts = inverse_moment._split_chunks, []

        def counted(*args):
            parts.append(len(split(*args)))
            return split(*args)

        monkeypatch.setattr(inverse_moment, "_split_chunks", counted)
        cdf = lognormal_cdf(operating_channel)
        n = int(math.ceil(truncation_point(cdf, 0.0, lb.DiscretizationConfig()) / 1e-2))
        StieltjesTable(cdf, 1e-2, n, block_log_width=2e-5)
        StieltjesTable(cdf, 1e-2, 100_000, block_log_width=2e-5)
        assert parts == [min(workers, 2), 1]

    @pytest.fixture
    def operating_cdf(self, operating_channel):
        """(cdf, cells) of the 25/8 dB table: 292k blocks in 9 chunks."""
        cdf = lognormal_cdf(operating_channel)
        return cdf, int(math.ceil(truncation_point(cdf, 0.0, lb.DiscretizationConfig()) / 1e-2))

    @staticmethod
    def _raised(monkeypatch, cdf, n, parts):
        """(type, message) of the failed build in that many parts; no thread outlives it."""
        _set_parts(monkeypatch, parts)
        before = set(threading.enumerate())
        with pytest.raises(lb.CdfContractError) as info:
            StieltjesTable(cdf, 1e-2, n, block_log_width=2e-5)
        assert set(threading.enumerate()) == before
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("parts", [2, 3])
    def test_nan_in_the_last_part(self, monkeypatch, operating_cdf, parts):
        cdf, n = operating_cdf
        x, starts = _part_starts(1e-2, n, 2e-5, parts)
        assert len(starts) == parts
        # The right edges of the last part's blocks lie past its first block's left edge.
        edge = x[starts[-1]]
        broken = lambda x: np.where(x > edge, np.nan, cdf(x))
        expected = (lb.CdfContractError, "cdf returned a non-finite value on the evaluation grid")
        assert self._raised(monkeypatch, broken, n, 1) == expected
        assert self._raised(monkeypatch, broken, n, parts) == expected

    @pytest.mark.parametrize("parts", [2, 3])
    def test_first_part_error_wins(self, monkeypatch, operating_cdf, parts):
        # The last part fails on its first chunk, before the first part
        # fails at its very last right edge.
        cdf, n = operating_cdf
        x, starts = _part_starts(1e-2, n, 2e-5, parts)
        last, bad = x[starts[-1]], x[starts[1]]
        broken = lambda x: np.where(x > last, np.nan, np.where(x == bad, 1.5, cdf(x)))
        expected = (lb.CdfContractError, "cdf values outside [0, 1] on the evaluation grid")
        assert self._raised(monkeypatch, broken, n, 1) == expected
        assert self._raised(monkeypatch, broken, n, parts) == expected

    @pytest.mark.parametrize("parts, boundary", [(2, 1), (3, 1), (3, 2)])
    def test_drop_at_a_part_boundary(self, monkeypatch, operating_cdf, parts, boundary):
        # The CDF drops by 0.01 between the last right edge of one part and
        # the first of the next, and nowhere else.
        cdf, n = operating_cdf
        x, starts = _part_starts(1e-2, n, 2e-5, parts)
        edge = x[starts[boundary]]
        broken = lambda x: cdf(x) - np.where(x > edge, 0.01, 0.0)
        expected = (lb.CdfContractError, "cdf is not monotone non-decreasing on the evaluation grid")
        assert self._raised(monkeypatch, broken, n, 1) == expected
        assert self._raised(monkeypatch, broken, n, parts) == expected

    def test_no_thread_outlives_a_build(self, monkeypatch, operating_channel):
        cdf = lognormal_cdf(operating_channel)
        _set_parts(monkeypatch, 3)
        before = set(threading.enumerate())
        StieltjesTable(cdf, 1e-2, 6_000_000, block_log_width=2e-5)
        assert set(threading.enumerate()) == before

        def failing(x):
            if x[0] > 100.0:
                raise RuntimeError("cdf failed")
            return cdf(x)

        with pytest.raises(RuntimeError, match="cdf failed"):
            StieltjesTable(failing, 1e-2, 6_000_000, block_log_width=2e-5)
        assert set(threading.enumerate()) == before
