import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import linkbound as lb
from linkbound.bounds import (
    EXTEND_THETA_CAP,
    SCAN_THETA_FLOOR,
    _log_kernel,
    _stable_at,
    log_kernel_bound,
)


def _counting_service(monkeypatch, channel, exact):
    """A fresh service and the list of thetas its per-slot misses compute."""
    svc = lb.ServiceCharacterization(channel, exact=exact)
    probes = []
    real = svc._compute_log

    def counting(theta):
        probes.append(theta)
        return real(theta)

    monkeypatch.setattr(svc, "_compute_log", counting)
    return svc, probes


class TestBoundQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            lb.BoundQuery(epsilon=0.0, kind="backlog")
        with pytest.raises(ValueError):
            lb.BoundQuery(epsilon=1.0, kind="delay")
        with pytest.raises(ValueError):
            lb.BoundQuery(epsilon=0.5, kind="sojourn")


class TestKernel:
    def test_equal_endpoints_no_burst(self, gbps_env, operating_svc):
        theta = 5e-9
        q = operating_svc.per_slot_bound(theta)
        pa_q = math.exp(theta * gbps_env.rate_bits_per_slot) * q
        expected = 1.0 / (1.0 - pa_q)
        got = math.exp(log_kernel_bound(gbps_env, operating_svc, theta, 7, 7))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_diverges_at_stability_boundary(self, gbps_env, operating_svc):
        region = lb.stability_region(gbps_env, operating_svc)
        mid = log_kernel_bound(gbps_env, operating_svc, region.theta_upper * 0.5, 0, 0)
        near = log_kernel_bound(gbps_env, operating_svc, region.theta_upper * 0.999999, 0, 0)
        assert math.exp(near) > 100.0 * math.exp(mid)

    def test_unstable_theta_raises(self, gbps_env, operating_svc):
        region = lb.stability_region(gbps_env, operating_svc)
        with pytest.raises(lb.UnstableSystemError):
            log_kernel_bound(gbps_env, operating_svc, region.theta_upper * 1.01, 0, 0)

    def test_dominates_truncated_double_sum(self, gbps_env, operating_svc):
        # Direct evaluation of the geometric kernel sum over the shared slot
        # index, truncated at the horizon; the closed form extends that sum
        # to infinity so it must dominate.
        t = 10
        for theta in (2e-9, 6e-9):
            lps = operating_svc.log_per_slot_bound(theta)
            lpa = theta * gbps_env.rate_bits_per_slot
            for w in (0, 3):
                s = t + w
                u = np.arange(0, min(s, t) + 1)
                terms = theta * gbps_env.burst_bits + (t - u) * lpa + (s - u) * lps
                direct = float(np.logaddexp.reduce(terms))
                closed = log_kernel_bound(gbps_env, operating_svc, theta, s, t)
                assert closed >= direct - 1e-12

    def test_negative_indices_rejected(self, gbps_env, operating_svc):
        with pytest.raises(ValueError):
            log_kernel_bound(gbps_env, operating_svc, 2e-9, -1, 0)


class TestStabilityRegion:
    def test_zero_rate_every_theta_stable(self, operating_svc):
        env = lb.AffineEnvelope(0.0, 0.0)
        region = lb.stability_region(env, operating_svc)
        assert not region.is_empty
        assert region.unbounded_above

    def test_deterministic_overload_empty(self):
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        cap = lb.capacity_bits_per_slot(chan, chan.median_snr)
        svc = lb.ServiceCharacterization(chan)
        region = lb.stability_region(lb.AffineEnvelope(0.0, cap * 1.01), svc)
        assert region.is_empty

    @pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
    def test_deterministic_link_oracle(self, gbps_env, exact):
        # A 25 dB link with no shadowing carries 4.15 Gbps in every slot, so
        # a 1 Gbps flow never queues: the region reaches the search cap and
        # the backlog bound is ln(1/eps) / 100 bits, with no floor on the
        # closed-form factor to cut the region short.
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        svc = lb.ServiceCharacterization(chan, exact=exact)
        region = lb.stability_region(gbps_env, svc)
        assert region.unbounded_above and region.theta_upper == EXTEND_THETA_CAP
        res = lb.backlog_bound(gbps_env, svc, lb.BoundQuery(1e-3, "backlog"))
        assert 0.0 <= res.value <= 1.0

    def test_operating_point_boundary(self, gbps_env, operating_channel, operating_svc):
        # The bisection stops at relative width 1e-6 around the unique root.
        for svc in (operating_svc, lb.ServiceCharacterization(operating_channel, exact=True)):
            region = lb.stability_region(gbps_env, svc)
            assert not region.is_empty
            assert 1e-9 < region.theta_upper < 2e-8
            ok = region.theta_upper * (1.0 - 2e-6)
            bad = region.theta_upper * (1.0 + 2e-6)
            assert ok * gbps_env.rate_bits_per_slot + svc.log_per_slot_bound(ok) < 0
            assert bad * gbps_env.rate_bits_per_slot + svc.log_per_slot_bound(bad) >= 0

    @pytest.mark.parametrize("slot_seconds", [1.0, 1e-3])
    @pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
    def test_one_bracket_probe_count(self, monkeypatch, slot_seconds, exact):
        # Floor, cap, a few Newton steps down from the cap and one stable
        # probe just below the root: at most 10 per-slot evaluations, where
        # a geometric bisection to 1e-6 takes 28.
        chan = lb.ShadowingChannel(25.0, 8.0, 500e6, slot_seconds)
        svc, probes = _counting_service(monkeypatch, chan, exact)
        if not exact:
            svc._ensure_table()
        env = lb.AffineEnvelope(0.0, 1e9 * slot_seconds)
        region = lb.stability_region(env, svc)
        assert not region.is_empty and not region.unbounded_above
        assert len(probes) <= 10


class TestBacklogBound:
    def test_epsilon_monotone(self, gbps_env, operating_svc):
        values = [
            lb.backlog_bound(gbps_env, operating_svc, lb.BoundQuery(eps, "backlog")).value
            for eps in (1e-1, 1e-2, 1e-3, 1e-5)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rate_monotone(self, operating_svc):
        values = [
            lb.backlog_bound(
                lb.AffineEnvelope(0.0, r * 1e9), operating_svc, lb.BoundQuery(1e-6, "backlog")
            ).value
            for r in (1.0, 2.0, 3.0)
        ]
        assert values[0] < values[1] < values[2]

    def test_regression_values(self, gbps_env, operating_channel, operating_svc):
        # Frozen after verifying simulation dominance at the operating point.
        res = lb.backlog_bound(gbps_env, operating_svc, lb.BoundQuery(1e-5, "backlog"))
        assert res.value == pytest.approx(1369873199.04, rel=1e-6)
        svc_exact = lb.ServiceCharacterization(operating_channel, exact=True)
        res_limit = lb.backlog_bound(gbps_env, svc_exact, lb.BoundQuery(1e-5, "backlog"))
        assert res_limit.value == pytest.approx(1365074633.38, rel=1e-5)
        assert res.value >= res_limit.value

    def test_theta_search_soundness(self, gbps_env, operating_svc):
        res = lb.backlog_bound(gbps_env, operating_svc, lb.BoundQuery(1e-3, "backlog"))
        grid_min = min(obj for _, obj in res.trace)
        assert res.value <= grid_min + 1e-9 * abs(grid_min)

    def test_optimal_theta_inside_region(self, gbps_env, operating_svc):
        res = lb.backlog_bound(gbps_env, operating_svc, lb.BoundQuery(1e-3, "backlog"))
        assert 0.0 < res.optimal_theta <= res.stability.theta_upper * (1.0 + 1e-9)

    def test_zero_rate_zero_backlog(self, operating_svc):
        env = lb.AffineEnvelope(0.0, 0.0)
        for eps in (1e-1, 1e-3, 1e-6):
            res = lb.backlog_bound(env, operating_svc, lb.BoundQuery(eps, "backlog"))
            assert res.value == 0.0

    def test_zero_rate_with_burst(self, operating_svc):
        env = lb.AffineEnvelope(5e6, 0.0)
        res = lb.backlog_bound(env, operating_svc, lb.BoundQuery(1e-3, "backlog"))
        assert res.value == pytest.approx(5e6, rel=1e-12)

    def test_huge_burst_kernel_overflows_to_inf(self, gbps_env, operating_svc):
        # theta * burst is far past exp's range at the optimum; the bound is
        # still the zero-burst bound shifted by the burst.
        query = lb.BoundQuery(1e-3, "backlog")
        res = lb.backlog_bound(lb.AffineEnvelope(1e12, 1e9), operating_svc, query)
        base = lb.backlog_bound(gbps_env, operating_svc, query)
        assert math.isfinite(res.value)
        assert res.value == pytest.approx(1e12 + base.value, rel=1e-12)
        assert res.kernel_at_optimum == math.inf

    def test_unstable_raises(self):
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        cap = lb.capacity_bits_per_slot(chan, chan.median_snr)
        svc = lb.ServiceCharacterization(chan)
        env = lb.AffineEnvelope(0.0, cap * 2.0)
        with pytest.raises(lb.UnstableSystemError):
            lb.backlog_bound(env, svc, lb.BoundQuery(1e-3, "backlog"))

    def test_wrong_kind_rejected(self, gbps_env, operating_svc):
        with pytest.raises(ValueError):
            lb.backlog_bound(gbps_env, operating_svc, lb.BoundQuery(1e-3, "delay"))

    def test_non_increasing_in_gain(self, gbps_env):
        values = []
        for gain in (15.0, 25.0, 35.0):
            chan = lb.ShadowingChannel(gain, 8.0, 500e6, 1.0)
            svc = lb.ServiceCharacterization(chan, exact=True)
            values.append(
                lb.backlog_bound(gbps_env, svc, lb.BoundQuery(1e-3, "backlog")).value
            )
        assert values[0] > values[1] > values[2]


class TestDelayBound:
    def test_epsilon_monotone(self, gbps_env, operating_svc):
        values = [
            lb.delay_bound(gbps_env, operating_svc, lb.BoundQuery(eps, "delay")).value
            for eps in (1e-1, 1e-3, 1e-6, 1e-9)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_kernel_at_optimum_meets_target(self, gbps_env, operating_svc):
        for eps in (1e-1, 1e-3, 1e-6):
            res = lb.delay_bound(gbps_env, operating_svc, lb.BoundQuery(eps, "delay"))
            assert res.kernel_at_optimum <= eps * (1.0 + 1e-9)

    def test_minimality(self, gbps_env, operating_svc):
        # One slot less must violate the target at every theta of a dense grid.
        res = lb.delay_bound(gbps_env, operating_svc, lb.BoundQuery(1e-6, "delay"))
        w = res.value
        assert w >= 1
        for theta in np.geomspace(SCAN_THETA_FLOOR, res.stability.theta_upper, 2000).tolist():
            assert log_kernel_bound(gbps_env, operating_svc, theta, w - 1, 0) > math.log(1e-6)

    def test_sigma_non_decreasing(self, gbps_env):
        values = []
        for sigma in (2.0, 4.0, 6.0, 8.0):
            chan = lb.ShadowingChannel(25.0, sigma, 500e6, 1.0)
            svc = lb.ServiceCharacterization(chan)
            values.append(
                lb.delay_bound(gbps_env, svc, lb.BoundQuery(1e-6, "delay")).value
            )
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_tiny_load_minimal_delay(self, operating_svc):
        # The geometric kernel at w=0 is 1/(1 - p*q) >= 1, so no epsilon < 1
        # is certifiable there; one slot is the smallest possible bound.
        env = lb.AffineEnvelope(0.0, 1e3)
        res = lb.delay_bound(env, operating_svc, lb.BoundQuery(1e-1, "delay"))
        assert res.value == 1
        assert res.kernel_at_optimum < 1e-6

    @pytest.mark.parametrize("exact", [False, True], ids=["discretized", "limit"])
    def test_zero_rate(self, operating_channel, operating_svc, exact):
        # Every theta is stable; the search stops at the extension cap.
        svc = lb.ServiceCharacterization(operating_channel, exact=True) if exact else operating_svc
        for burst, eps, slots in ((0.0, 1e-1, 1), (0.0, 1e-6, 1), (1e9, 1e-1, 1), (1e9, 1e-6, 3)):
            res = lb.delay_bound(lb.AffineEnvelope(burst, 0.0), svc, lb.BoundQuery(eps, "delay"))
            assert res.value == slots
            assert res.kernel_at_optimum <= eps
            assert math.isinf(res.stability.theta_upper)

    def test_integer_slots(self, gbps_env, operating_svc):
        res = lb.delay_bound(gbps_env, operating_svc, lb.BoundQuery(1e-3, "delay"))
        assert isinstance(res.value, int)

    def test_unstable_raises(self):
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        cap = lb.capacity_bits_per_slot(chan, chan.median_snr)
        svc = lb.ServiceCharacterization(chan)
        with pytest.raises(lb.UnstableSystemError):
            lb.delay_bound(
                lb.AffineEnvelope(0.0, cap * 2.0), svc, lb.BoundQuery(1e-3, "delay")
            )

    def test_wrong_kind_rejected(self, gbps_env, operating_svc):
        with pytest.raises(ValueError):
            lb.delay_bound(gbps_env, operating_svc, lb.BoundQuery(1e-3, "backlog"))


def _mean_capacity(channel):
    z, weights = np.polynomial.hermite_e.hermegauss(64)
    snr = channel.median_snr * 10.0 ** (channel.sigma_db * z / 10.0)
    return float(np.dot(weights, lb.capacity_bits_per_slot(channel, snr))) / math.sqrt(
        2.0 * math.pi
    )


@pytest.mark.parametrize("slot_seconds", [1.0, 1e-3])
@pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
def test_bound_probe_count(monkeypatch, slot_seconds, exact):
    # With the stability edge known, a cold bound is one root search over
    # [floor, edge], whose inner probes are all new.
    chan = lb.ShadowingChannel(25.0, 8.0, 500e6, slot_seconds)
    env = lb.AffineEnvelope(0.0, 1e9 * slot_seconds)
    for kind, bound in (("backlog", lb.backlog_bound), ("delay", lb.delay_bound)):
        svc, probes = _counting_service(monkeypatch, chan, exact)
        lb.stability_region(env, svc)
        probes.clear()
        bound(env, svc, lb.BoundQuery(1e-3, kind))
        assert 0 < len(probes) <= 12, (kind, len(probes))


@pytest.mark.parametrize("slot_seconds", [1.0, 1e-3])
@pytest.mark.parametrize("gain, sigma", [(10.0, 2.0), (18.0, 4.0), (25.0, 8.0), (30.0, 6.0)])
def test_bounds_match_dense_grid(gain, sigma, slot_seconds):
    # Millisecond slots with a 1e9-bit burst reach delays of hundreds of slots.
    chan = lb.ShadowingChannel(gain, sigma, 500e6, slot_seconds)
    counts = []
    for exact in (False, True):
        svc = lb.ServiceCharacterization(chan, exact=exact)
        for load in (0.1, 0.5, 0.9):
            rate = load * _mean_capacity(chan)
            region = lb.stability_region(lb.AffineEnvelope(0.0, rate), svc)
            hi = min(region.theta_upper, EXTEND_THETA_CAP)
            for burst in (0.0, 1e9):
                env = lb.AffineEnvelope(burst, rate)
                # Every grid theta is stable: _stable_at returns a pair.
                grid = [(t, *_stable_at(env, svc, t))
                        for t in np.geomspace(SCAN_THETA_FLOOR, hi, 2000).tolist()]
                for eps in (1e-1, 1e-3, 1e-6, 1e-9):
                    log_eps = math.log(eps)
                    backlog = lb.backlog_bound(env, svc, lb.BoundQuery(eps, "backlog")).value
                    grid_min = min(burst + (-lg - log_eps) / t for t, lf, lg in grid)
                    assert backlog <= grid_min * (1.0 + 1e-9)
                    w = lb.delay_bound(env, svc, lb.BoundQuery(eps, "delay")).value
                    grid_w = min(math.ceil((t * burst - lg - log_eps) / -lf) for t, lf, lg in grid)
                    assert w <= grid_w
                    assert all(_log_kernel(env, t, lf, lg, w - 1) > log_eps for t, lf, lg in grid)
                    counts.append(w)
    assert len(set(counts)) >= 5


class TestSearchEdgeCases:
    def test_zero_rate_probes_nothing_for_the_edge(self, monkeypatch, operating_channel):
        svc, probes = _counting_service(monkeypatch, operating_channel, exact=False)
        region = lb.stability_region(lb.AffineEnvelope(1e9, 0.0), svc)
        assert region.unbounded_above and region.theta_upper == math.inf
        assert probes == []
        res = lb.delay_bound(lb.AffineEnvelope(1e9, 0.0), svc, lb.BoundQuery(1e-6, "delay"))
        assert res.value == 3 and 0.0 < res.optimal_theta <= EXTEND_THETA_CAP

    @pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
    def test_empty_region_costs_one_probe(self, monkeypatch, operating_channel, exact):
        # Above the mean capacity the floor itself is unstable.
        svc, probes = _counting_service(monkeypatch, operating_channel, exact)
        rate = 1.01 * _mean_capacity(operating_channel)
        region = lb.stability_region(lb.AffineEnvelope(0.0, rate), svc)
        assert region.is_empty
        assert probes == [SCAN_THETA_FLOOR]

    @pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
    @pytest.mark.parametrize("burst", [0.0, 1e6])
    @pytest.mark.parametrize("eps", [1e-1, 1e-6])
    def test_region_capped_at_the_cap(self, gbps_env, exact, burst, eps):
        # At the cap the gap 1 - exp(g) has g = -3.2e11: its slope factor
        # exp(g) / (1 - exp(g)) must underflow to 0, not overflow. Both
        # objectives fall all the way to the cap.
        chan = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
        svc = lb.ServiceCharacterization(chan, exact=exact)
        env = lb.AffineEnvelope(burst, gbps_env.rate_bits_per_slot)
        backlog = lb.backlog_bound(env, svc, lb.BoundQuery(eps, "backlog"))
        assert backlog.stability.unbounded_above
        assert backlog.optimal_theta == EXTEND_THETA_CAP
        assert backlog.value == pytest.approx(burst + math.log(1.0 / eps) / 100.0, rel=1e-12)
        delay = lb.delay_bound(env, svc, lb.BoundQuery(eps, "delay"))
        assert delay.optimal_theta == EXTEND_THETA_CAP
        assert delay.value == 1

    @pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
    def test_clamp_decided_edge(self, monkeypatch, gbps_env, exact):
        # At 25 dB, sigma = 0.5 dB and 1 Gbps the factor reaches the 1e-300
        # floor before the flow's own edge (2.2e-6), so the floor sets the
        # edge at ln(1e300) / 1e9: a flat log factor, on which one Newton
        # step from the cap lands on the root.
        chan = lb.ShadowingChannel(25.0, 0.5, 500e6, 1.0)
        svc, probes = _counting_service(monkeypatch, chan, exact)
        region = lb.stability_region(gbps_env, svc)
        root = math.log(1e300) / gbps_env.rate_bits_per_slot
        assert root * (1.0 - 1e-6) <= region.theta_upper < root
        assert f"{region.theta_upper:.6e}" == "6.907755e-07"
        assert _stable_at(gbps_env, svc, region.theta_upper) is not None
        assert len(probes) <= 6


@pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
@pytest.mark.parametrize("kind, bound", [("backlog", lb.backlog_bound),
                                         ("delay", lb.delay_bound)])
def test_bound_does_not_depend_on_earlier_searches(operating_channel, exact, kind, bound):
    # The points of a sweep share one service, and each search starts
    # between thetas that earlier searches probed; it still ends on the same
    # pair of lattice thetas, so a point's row is that of the point alone.
    query = lb.BoundQuery(1e-6, kind)
    env = lb.AffineEnvelope(0.0, 2e9)
    alone = bound(env, lb.ServiceCharacterization(operating_channel, exact=exact), query)
    svc = lb.ServiceCharacterization(operating_channel, exact=exact)
    for rate in (1e9, 3e9):
        for eps in (1e-1, 1e-3, 1e-9):
            bound(lb.AffineEnvelope(0.0, rate), svc, lb.BoundQuery(eps, kind))
    shared = bound(env, svc, query)
    assert (shared.value, shared.optimal_theta) == (alone.value, alone.optimal_theta)
    assert (shared.kernel_at_optimum, shared.stability) == (alone.kernel_at_optimum,
                                                           alone.stability)


def reference_edge(env, svc) -> float:
    """Largest stable theta of a geometric bisection of [floor, cap] to 1e-6 relative."""
    lo, hi = SCAN_THETA_FLOOR, EXTEND_THETA_CAP
    while hi - lo > 1e-6 * hi:
        mid = math.sqrt(lo * hi)
        if _stable_at(env, svc, mid) is None:
            hi = mid
        else:
            lo = mid
    return lo


def reference_minimum(env, svc, hi: float, objective) -> float:
    """scipy's bounded Brent minimum of objective(theta, lf, log gap) over ln theta in
    [ln SCAN_THETA_FLOOR, ln hi], to 1e-6; an unstable theta reads as infinity."""
    from scipy.optimize import minimize_scalar

    def at(u):
        stable = _stable_at(env, svc, math.exp(u))
        return math.inf if stable is None else objective(math.exp(u), *stable)

    with np.errstate(invalid="ignore"):  # scipy's numpy scalars warn on inf - inf
        res = minimize_scalar(at, bounds=(math.log(SCAN_THETA_FLOOR), math.log(hi)),
                              method="bounded", options={"xatol": 1e-6})
    return float(res.fun)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    channel=st.sampled_from([(25.0, 8.0), (10.0, 4.0), (30.0, 6.0), (18.0, 2.0), (25.0, 1.5),
                             (25.0, 0.5)]),
    exact=st.booleans(),
    kind=st.sampled_from(["backlog", "delay"]),
    burst=st.sampled_from([0.0, 1e6, 1e9]),
    load=st.floats(0.1, 0.99),
    epsilons=st.lists(st.sampled_from([1e-1, 1e-3, 1e-6, 1e-9]), min_size=2, max_size=2),
)
@example(channel=(25.0, 8.0), exact=False, kind="backlog", burst=0.0, load=0.99,
         epsilons=[1e-9, 1e-1])
@example(channel=(25.0, 1.5), exact=True, kind="delay", burst=1e9, load=0.1,
         epsilons=[1e-1, 1e-6])
# The factor floor starts to bind just above the minimum. Added to the sum,
# it leaves the objective smooth there, with no kink for a lattice theta to
# straddle.
@example(channel=(25.0, 0.5), exact=True, kind="delay", burst=1e6, load=0.496,
         epsilons=[1e-1, 1e-6])
def test_search_matches_bounded_reference(channel, exact, kind, burst, load, epsilons):
    # The slope-steered searches against scipy's derivative-free bounded
    # Brent over the same region: no objective at the reported optimum
    # above the reference's minimum by more than 1e-10 relative, and an
    # edge evaluated as stable within 1e-6 of a geometric bisection's. The second epsilon's search starts from
    # the first one's probes. The references run last, so that their probes
    # do not seed the searches.
    svc = lb.ServiceCharacterization(lb.ShadowingChannel(*channel, 500e6, 1.0), exact=exact)
    env = lb.AffineEnvelope(burst, load * _mean_capacity(svc.channel))
    region = lb.stability_region(env, svc)
    bound = lb.backlog_bound if kind == "backlog" else lb.delay_bound
    results = [bound(env, svc, lb.BoundQuery(eps, kind)) for eps in epsilons]

    assert not region.is_empty and not region.unbounded_above
    assert _stable_at(env, svc, region.theta_upper) is not None
    edge = reference_edge(env, svc)
    assert abs(region.theta_upper - edge) <= 1e-6 * max(region.theta_upper, edge)
    hi = min(region.theta_upper, EXTEND_THETA_CAP)
    for eps, res in zip(epsilons, results):
        log_eps = math.log(eps)
        assert 0.0 < res.optimal_theta <= region.theta_upper
        if kind == "backlog":
            ref = reference_minimum(env, svc, hi, lambda t, lf, lg: burst + (-lg - log_eps) / t)
            assert res.value <= ref * (1.0 + 1e-10)
        else:
            ref = reference_minimum(
                env, svc, hi,
                lambda t, lf, lg: math.inf if lf == 0.0 else (t * burst - lg - log_eps) / -lf)
            assert dict(res.trace)[res.optimal_theta] <= ref * (1.0 + 1e-10)
            assert res.value <= math.ceil(ref * (1.0 + 1e-10))
