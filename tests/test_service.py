import math
import weakref

import numpy as np
import pytest

import linkbound as lb
from linkbound.inverse_moment import _lognormal_log_exact, _staircase_sum
from linkbound.service import _BLOCK_LOG_WIDTH


class TestPerSlotBound:
    def test_tends_to_one_for_small_theta(self, operating_svc):
        val = operating_svc.per_slot_bound(1e-13)
        assert 1.0 - 1e-3 < val <= 1.0

    def test_sigma_zero_closed_form(self):
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        svc = lb.ServiceCharacterization(chan)
        theta = 2e-9
        expected = math.exp(-theta * chan.bits_per_nat * math.log1p(chan.median_snr))
        assert svc.per_slot_bound(theta) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
    def test_sigma_zero_log_not_floored(self, exact):
        # The closed form holds far below ln(1e-300), in both modes.
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        svc = lb.ServiceCharacterization(chan, exact=exact)
        theta = 100.0
        expected = -svc.composite_exponent(theta) * math.log1p(chan.median_snr)
        assert expected < math.log(1e-300)
        assert svc.log_per_slot_bound(theta) == pytest.approx(expected, rel=1e-12)

    def test_dominates_exact_inverse_moment(self, operating_channel, operating_svc):
        theta = 1e-9  # composite exponent ~0.72 at this operating point
        exact = lb.exact_inverse_moment(
            operating_channel, operating_svc.composite_exponent(theta)
        )
        assert operating_svc.per_slot_bound(theta) >= exact

    def test_dominates_exact_across_regimes(self, operating_channel, operating_svc):
        # Composite exponents 0.007 to 36, all on the table's segment series
        # (t <= 64); TestTableRoute also reaches its exp pass above.
        for theta in (1e-11, 1e-9, 3e-9, 1e-8, 5e-8):
            exact = lb.exact_inverse_moment(
                operating_channel, operating_svc.composite_exponent(theta)
            )
            assert operating_svc.per_slot_bound(theta) >= exact

    def test_non_increasing_in_theta(self, operating_svc):
        thetas = np.geomspace(1e-13, 5e-8, 40)
        vals = [operating_svc.per_slot_bound(float(t)) for t in thetas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_in_unit_interval(self, operating_svc):
        for theta in (1e-12, 1e-9, 1e-7):
            assert 0.0 < operating_svc.per_slot_bound(theta) <= 1.0

    def test_memoized(self, operating_channel):
        svc = lb.ServiceCharacterization(operating_channel)
        first = svc.per_slot_bound(2e-9)
        assert 2e-9 in svc._log_cache
        assert svc.per_slot_bound(2e-9) == first

    def test_memo_key_is_exact_theta(self, operating_channel, monkeypatch):
        # A neighbouring float theta is computed afresh, never served the
        # cached value of a theta that merely agrees in its leading digits.
        svc = lb.ServiceCharacterization(operating_channel)
        theta = 2e-9
        svc.log_per_slot_bound(theta)
        computed = []
        real = svc._compute_log

        def counting(t):
            computed.append(t)
            return real(t)

        monkeypatch.setattr(svc, "_compute_log", counting)
        svc.log_per_slot_bound(theta)
        assert computed == []
        neighbour = math.nextafter(theta, 1.0)
        svc.log_per_slot_bound(neighbour)
        assert computed == [neighbour]

    def test_domain_error(self, operating_svc):
        with pytest.raises(ValueError):
            operating_svc.per_slot_bound(0.0)
        with pytest.raises(ValueError):
            operating_svc.per_slot_bound(-1e-9)

    def test_exact_mode_matches_quadrature(self, operating_channel):
        svc = lb.ServiceCharacterization(operating_channel, exact=True)
        theta = 3e-9
        expected = lb.exact_inverse_moment(
            operating_channel, svc.composite_exponent(theta)
        )
        assert svc.per_slot_bound(theta) == pytest.approx(expected, rel=1e-9)


class TestMultiSlotBound:
    def test_zero_slots_is_one(self, operating_svc):
        assert operating_svc.mgf_bound(2e-9, 0) == 1.0

    def test_two_slots_is_square(self, operating_svc):
        theta = 2e-9
        q = operating_svc.per_slot_bound(theta)
        assert operating_svc.mgf_bound(theta, 2) == pytest.approx(q * q, rel=1e-12)

    def test_multiplicative(self, operating_svc):
        theta = 3e-9
        for n, m in ((1, 1), (3, 4), (10, 25)):
            lhs = operating_svc.log_mgf_bound(theta, n + m)
            rhs = operating_svc.log_mgf_bound(theta, n) + operating_svc.log_mgf_bound(theta, m)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monotone_in_theta_and_slots(self, operating_svc):
        thetas = (1e-9, 3e-9, 6e-9)
        vals = [operating_svc.mgf_bound(t, 5) for t in thetas]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        ns = (0, 1, 5, 20)
        vals = [operating_svc.mgf_bound(2e-9, n) for n in ns]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_no_underflow_for_long_windows(self, operating_svc):
        # Direct powers of the per-slot factor underflow long before this.
        lv = operating_svc.log_mgf_bound(6e-9, 500)
        assert math.isfinite(lv)

    def test_negative_slots_rejected(self, operating_svc):
        with pytest.raises(ValueError):
            operating_svc.mgf_bound(2e-9, -1)

    def test_monte_carlo_dominance(self, operating_channel, operating_svc):
        rng = np.random.default_rng(31)
        n_paths, n_slots = 100_000, 10
        theta = 2.0 / operating_channel.bits_per_nat
        draws = lb.sample_snr(operating_channel, rng, (n_paths, n_slots))
        samples = np.exp(-2.0 * np.log1p(draws).sum(axis=1))
        mean = float(samples.mean())
        se = float(samples.std(ddof=1)) / math.sqrt(n_paths)
        assert operating_svc.mgf_bound(theta, n_slots) >= mean - 3.0 * se



class TestTableRoute:
    def test_fine_step_table_reaches_tail_cut(self, operating_channel):
        # The table takes every cell up to the tail-mass cut, with no term
        # cap: 6.3e9 cells at this step.
        cfg = lb.DiscretizationConfig(step_delta=1e-5)
        table = lb.ServiceCharacterization(operating_channel, cfg)._ensure_table()
        assert table.end_survival <= cfg.tail_mass_tol

    def test_table_does_not_keep_its_service_alive(self, operating_channel):
        # The table refers to no service, so a dropped service is freed at
        # once, without waiting for the cycle collector.
        svc = lb.ServiceCharacterization(operating_channel)
        table = svc._ensure_table()
        ref = weakref.ref(svc)
        del svc
        assert ref() is None
        assert table.mass.size > 0

    def test_too_fine_step_rejected(self, operating_channel):
        svc = lb.ServiceCharacterization(
            operating_channel, lb.DiscretizationConfig(step_delta=1e-12))
        with pytest.raises(ValueError, match="grid step 1e-12 is too fine"):
            svc.log_per_slot_bound(1e-9)

    @pytest.mark.parametrize("mean_snr_db, sigma_db", [(25.0, 8.0), (25.0, 2.0),
                                                       (10.0, 4.0), (30.0, 6.0)])
    def test_log_factor_convex_in_small_exponents(self, mean_snr_db, sigma_db):
        # The factor is a Laplace transform, so its log is convex in the
        # exponent, also as the table's segment series sums it.
        chan = lb.ShadowingChannel(mean_snr_db, sigma_db, 500e6, 1.0)
        svc = lb.ServiceCharacterization(chan)
        lf = np.array([svc.log_per_slot_bound(t / chan.bits_per_nat)
                       for t in np.linspace(0.01, 0.2, 400)])
        second = lf[:-2] - 2.0 * lf[1:-1] + lf[2:]
        assert np.all(second >= -1e-12 * np.abs(lf[1:-1]))

    @pytest.mark.parametrize("sigma_db", [2.0, 4.0, 8.0])
    def test_between_exact_and_unmerged_grid(self, sigma_db):
        # Every discretized factor comes from the table, by its series or its
        # exp pass: never below the exact moment, and looser than the grid
        # truncated for its own exponent by at most the block factor
        # exp(t * width).
        chan = lb.ShadowingChannel(25.0, sigma_db, 500e6, 1.0)
        svc = lb.ServiceCharacterization(chan)
        cdf = lambda x: lb.snr_cdf(chan, x)
        for target in (1e-3, 0.01, 0.05, 0.1, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0):
            theta = target / chan.bits_per_nat
            t = svc.composite_exponent(theta)
            factor = svc.per_slot_bound(theta)
            grid = lb.inverse_moment_bound(cdf, t, svc.config)
            assert lb.exact_inverse_moment(chan, t) <= factor
            assert factor <= grid * math.exp(t * _BLOCK_LOG_WIDTH)

    def test_stability_edge_and_tail_follow_sigma(self, gbps_env):
        # A residual floor on the per-slot factor once pinned the stability
        # edge of sigma = 2 and 4 dB to the same theta and left the
        # sigma = 4 dB backlog bound 29% above exact mode at 1e-6.
        def svc(sigma_db, exact=False):
            return lb.ServiceCharacterization(
                lb.ShadowingChannel(25.0, sigma_db, 500e6, 1.0), exact=exact
            )

        # Exact mode once integrated z over [-10, 10] only, which missed the
        # integrand's peak at sigma = 2 dB and put its bounds below the truth.
        query = lb.BoundQuery(epsilon=1e-6, kind="backlog")
        edges = {}
        for sigma_db in (2.0, 4.0):
            edges[sigma_db] = lb.stability_region(gbps_env, svc(sigma_db)).theta_upper
            exact_edge = lb.stability_region(gbps_env, svc(sigma_db, exact=True)).theta_upper
            assert exact_edge >= edges[sigma_db]
            disc = lb.backlog_bound(gbps_env, svc(sigma_db), query).value
            exact = lb.backlog_bound(gbps_env, svc(sigma_db, exact=True), query).value
            assert exact <= disc <= 1.01 * exact
        assert edges[2.0] > edges[4.0]


class TestFactorSlope:
    """The slope returned beside each log factor is its derivative in theta."""

    @staticmethod
    def central_difference(svc, theta, rel=1e-4):
        h = rel * theta
        return (svc.log_per_slot_bound(theta + h) - svc.log_per_slot_bound(theta - h)) / (2 * h)

    @pytest.mark.parametrize(
        "exact, exponent",
        # The table sums t <= 64 as its segment series and larger t by an
        # exp pass over a prefix of its blocks; exact mode by its trapezoid rule.
        [(False, 5.0), (False, 63.0), (False, 65.0), (False, 721.0),
         (True, 0.5), (True, 5.0), (True, 721.0)],
        ids=["series-5", "series-63", "exp-65", "exp-721", "exact-0.5", "exact-5", "exact-721"],
    )
    def test_matches_central_difference(self, operating_channel, exact, exponent):
        svc = lb.ServiceCharacterization(operating_channel, exact=exact)
        theta = exponent / operating_channel.bits_per_nat
        lf, slope = svc.log_per_slot_bound(theta, with_slope=True)
        assert lf == svc.log_per_slot_bound(theta)
        assert slope < 0.0
        assert slope == pytest.approx(self.central_difference(svc, theta), rel=1e-6)

    @pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
    def test_sigma_zero_closed_form(self, exact):
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        svc = lb.ServiceCharacterization(chan, exact=exact)
        for theta in (1e-9, 100.0):
            _, slope = svc.log_per_slot_bound(theta, with_slope=True)
            assert slope == -chan.bits_per_nat * math.log1p(chan.median_snr)

    @pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
    def test_floored_factor_is_flat(self, exact):
        # At 25 dB and sigma = 0.5 dB the factor at t = 1600 is exp(-2216),
        # floored at 1e-300 in both modes: flat in theta.
        chan = lb.ShadowingChannel(25.0, 0.5, 500e6, 1.0)
        svc = lb.ServiceCharacterization(chan, exact=exact)
        theta = 1600.0 / chan.bits_per_nat
        lf, slope = svc.log_per_slot_bound(theta, with_slope=True)
        assert lf == math.log(1e-300)
        assert slope == 0.0 == self.central_difference(svc, theta)

    @pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
    def test_slope_continuous_across_the_floor(self, exact):
        # The floor is added to the route's sum, so the log factor is
        # ln(v + 1e-300), smooth in theta: where the unfloored sum v equals
        # the floor, its slope is half v's own. At 25 dB and sigma = 0.5 dB
        # that exponent is about 143 in both modes.
        chan = lb.ShadowingChannel(25.0, 0.5, 500e6, 1.0)
        svc = lb.ServiceCharacterization(chan, exact=exact)
        if exact:
            def unfloored(t):
                return _lognormal_log_exact(chan, t)
        else:
            table = svc._ensure_table()

            def unfloored(t):
                # The full exp pass over every block, plus the end term.
                end = table.end_survival * math.exp(-t * table.end_log_edge)
                total = _staircase_sum(table.log_edges, table.mass, t) + end
                first = _staircase_sum(table.log_edges, table.mass * table.log_edges, t)
                return math.log(total), -(first + end * table.end_log_edge) / total

        # Newton steps on the convex ln v - ln(1e-300) from below its root.
        t = 100.0
        for _ in range(50):
            log_v, dlog_v = unfloored(t)
            step = (log_v - math.log(1e-300)) / dlog_v
            t -= step
            if abs(step) <= 1e-12 * t:
                break
        assert 140.0 < t < 146.0
        log_v, dlog_v = unfloored(t)
        theta = t / chan.bits_per_nat
        lf, slope = svc.log_per_slot_bound(theta, with_slope=True)
        assert lf == pytest.approx(math.log(2e-300), rel=1e-12)
        assert slope == pytest.approx(0.5 * chan.bits_per_nat * dlog_v, rel=1e-9)
        assert slope == pytest.approx(self.central_difference(svc, theta, rel=1e-7), rel=1e-4)

    def test_memo_keeps_probed_thetas_in_order(self, operating_channel):
        svc = lb.ServiceCharacterization(operating_channel, exact=True)
        for theta in (3e-9, 1e-9, 2e-9, 1e-9):
            svc.log_per_slot_bound(theta)
        assert svc.probed(0.0, 1.0) == [1e-9, 2e-9, 3e-9]
        assert svc.probed(1e-9, 3e-9) == [2e-9]
