import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import linkbound as lb
from linkbound import inverse_moment
from linkbound.inverse_moment import (
    _FACTOR_FLOOR,
    _SEARCH_CEIL,
    _SEARCH_X0,
    _SEGMENT_WIDTH,
    _SLACK_TOL,
    StieltjesTable,
    _lognormal_log_exact,
    _staircase_sum,
    _trapezoid_nodes,
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
        assert _lognormal_log_exact(chan, exponent) == pytest.approx(reference, rel=1e-10)
        assert lb.exact_inverse_moment(chan, exponent) == pytest.approx(
            max(math.exp(reference), 1e-300), rel=1e-10
        )

    def test_log_is_not_clamped(self):
        # At 25 dB and sigma = 0.5 dB this exponent lies near the true
        # stability edge of a 1 Gbps arrival, where the factor is exp(-2216).
        chan = lb.ShadowingChannel(25.0, 0.5, 500e6, 1.0)
        reference = mp_log_inverse_moment(25.0, 0.5, 1600.0)
        assert reference < -690.0
        log_value = _lognormal_log_exact(chan, 1600.0)
        assert math.isfinite(log_value)
        assert log_value == pytest.approx(reference, rel=1e-10)
        assert lb.exact_inverse_moment(chan, 1600.0) == 1e-300

    def test_step_and_window_are_certified(self):
        # Halving the step or widening the window by 4 moves nothing that
        # the rule reports, from the smallest exponents to the theta cap.
        step = inverse_moment._TRAPEZOID_STEP
        half_width = inverse_moment._TRAPEZOID_HALF_WIDTH
        variants = (_trapezoid_nodes(step / 2, half_width),
                    _trapezoid_nodes(step, half_width + 4.0))
        for mean_db in (5.0, 12.0, 25.0, 40.0):
            for sigma_db in (0.5, 2.0, 4.0, 8.0):
                chan = lb.ShadowingChannel(mean_db, sigma_db, 500e6, 1.0)
                for exponent in np.geomspace(1e-3, 1e11, 40):
                    base = _lognormal_log_exact(chan, exponent)
                    for nodes in variants:
                        moved = _lognormal_log_exact(chan, exponent, nodes) - base
                        assert abs(moved) <= 1e-12 * abs(base), (mean_db, sigma_db, exponent)


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


def mp_log_inverse_moment(mean_db, sigma_db, exponent):
    """ln E[(1+X)^(-exponent)] of the log-normal SNR by mpmath.quad at 30 digits.

    The Gaussian variable z is integrated within 30 of the log-integrand's
    peak, found by bisection, with a break at every integer offset.
    """
    with mpmath.workdps(30):
        a = mpmath.log(10) / 10 * mean_db
        b = mpmath.log(10) / 10 * sigma_db
        t = mpmath.mpf(exponent)

        def log_integrand(z):
            return -z * z / 2 - t * mpmath.log1p(mpmath.exp(a + b * z))

        lo, hi = -t * b, mpmath.mpf(0)
        for _ in range(200):
            mid = (lo + hi) / 2
            if -mid - t * b / (1 + mpmath.exp(-(a + b * mid))) > 0:
                lo = mid
            else:
                hi = mid
        peak = (lo + hi) / 2
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

    def test_table_upper_bounds_grid_value(self, operating_channel):
        cdf = lognormal_cdf(operating_channel)
        cfg = lb.DiscretizationConfig(step_delta=1e-2)
        n = int(math.ceil(truncation_point(cdf, 0.0, cfg) / cfg.step_delta))
        table = StieltjesTable(cdf, cfg.step_delta, n, block_log_width=2e-5)
        for theta in (0.5, 1.0, 3.0):
            grid_val = lb.inverse_moment_bound(cdf, theta, cfg)
            table_val = table.bound(theta)
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
            assert table.bound(theta) == pytest.approx(grid, rel=1e-14, abs=0.0)

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
            assert table.bound(theta) == pytest.approx(staircase, rel=1e-13, abs=0.0)

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
            full = min(max(full, _FACTOR_FLOOR), 1.0)
            assert full <= table.bound(theta) <= full * (1.0 + 2.0**-50)

    @pytest.mark.parametrize("kind, bound", [("backlog", lb.backlog_bound),
                                             ("delay", lb.delay_bound)])
    def test_cold_bound_exp_passes(self, monkeypatch, gbps_env, operating_channel, kind,
                                   bound):
        # Every exponent up to 1 / _SEGMENT_WIDTH takes the segment series, so
        # a cold bound pays only a few exp passes. At 25/8 dB those are the
        # stability search's probes t = 721 and 7.2e10, and each sums a
        # short prefix of the 292k blocks, not all of them.
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
        assert {721, 72_134_752_044} <= thetas
        assert max(size for _, size in calls) <= 512


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

    def test_out_of_range_cdf_rejected(self):
        bad = lambda x: np.full_like(np.asarray(x, dtype=float), 1.5)
        with pytest.raises(lb.CdfContractError):
            StieltjesTable(bad, 0.01, 100_000, block_log_width=2e-5)

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
