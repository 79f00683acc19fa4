"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.

Tail-validation criteria stop at violation probabilities Monte Carlo can
resolve at desk scale (1e-3 with 1e5 replications); the 1e-5 to 1e-6
region is deliberately out of scope here.
"""

import math
import time

import numpy as np
import pytest

import linkbound as lb
from linkbound.bounds import log_kernel_bound
from linkbound.inverse_moment import truncation_point

CHANNEL = lb.ShadowingChannel(mean_snr_db=25.0, sigma_db=8.0, bandwidth_hz=500e6,
                              slot_seconds=1.0)
GBPS = 1e9  # bits per 1 s slot


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def test_criterion_1_inverse_moment_dominance_and_convergence():
    start = time.time()
    cdf = lambda x: lb.snr_cdf(CHANNEL, x)
    exponents = [0.5, 1.0, 2.0, 5.0, 10.0]
    exact = {t: lb.exact_inverse_moment(CHANNEL, t) for t in exponents}

    deltas = (1.0, 1e-1, 1e-2, 1e-3)
    by_delta = {
        d: lb.inverse_moment_bound_many(cdf, exponents, lb.DiscretizationConfig(step_delta=d))
        for d in deltas
    }
    dominated = all(
        by_delta[d][i] >= exact[t] * (1.0 - 1e-12)
        for d in deltas
        for i, t in enumerate(exponents)
    )
    tightening = all(
        by_delta[a][i] >= by_delta[b][i] - 1e-12
        for a, b in zip(deltas, deltas[1:])
        for i in range(len(exponents))
    )

    # First-order convergence: since 1 - (1+u)^(-t) <= t u, each cell
    # overestimates by at most t * delta times its own term, so the grid
    # lies within t * delta * g + end of the exact value, where end is the
    # survival at the cut n * delta charged at the cut.
    def end_term(d, t):
        x_cut = truncation_point(cdf, t, lb.DiscretizationConfig(step_delta=d))
        cut = max(1, math.ceil(x_cut / d)) * d
        return (1.0 - float(cdf(np.asarray([cut]))[0])) * (1.0 + cut) ** -t

    converged = all(
        by_delta[d][i] <= exact[t] + t * d * by_delta[d][i] + end_term(d, t)
        for d in deltas
        for i, t in enumerate(exponents)
    )

    elapsed = time.time() - start
    _report(
        "1 (inverse-moment dominance/convergence)",
        dominated and tightening and converged and elapsed < 10.0,
        f"dominated={dominated} tightening={tightening} converged={converged} "
        f"runtime={elapsed:.1f}s<10s",
    )


def test_criterion_2_service_mgf_dominance():
    start = time.time()
    svc = lb.ServiceCharacterization(CHANNEL)
    rng = np.random.default_rng(2718)
    n_paths = 1_000_000
    draws = lb.sample_snr(CHANNEL, rng, (n_paths, 10))
    cum_log = np.cumsum(np.log1p(draws), axis=1)

    ok = True
    worst = math.inf
    for exponent in (0.5, 1.0, 2.0, 5.0, 10.0):
        theta = exponent / CHANNEL.bits_per_nat
        for n in (1, 5, 10):
            samples = np.exp(-exponent * cum_log[:, n - 1])
            mean = float(samples.mean())
            se = float(samples.std(ddof=1)) / math.sqrt(n_paths)
            bound = svc.mgf_bound(theta, n)
            margin = (bound - (mean - 3.0 * se)) / mean
            worst = min(worst, margin)
            ok &= bound >= mean - 3.0 * se
    elapsed = time.time() - start
    _report(
        "2 (service transform dominance vs Monte Carlo)",
        ok and elapsed < 60.0,
        f"worst margin {worst:.3g} of mean, runtime={elapsed:.1f}s<60s",
    )


def test_criterion_3_bound_validity_against_simulation():
    start = time.time()
    svc = lb.ServiceCharacterization(CHANNEL)
    replications = 100_000
    epsilons = (1e-1, 1e-2, 1e-3)
    ok = True
    details = []
    for i, rate_gbps in enumerate((1.0, 2.0)):
        env = lb.AffineEnvelope(0.0, rate_gbps * GBPS)
        backlog = {
            eps: lb.backlog_bound(env, svc, lb.BoundQuery(eps, "backlog")).value
            for eps in epsilons
        }
        delay = {
            eps: lb.delay_bound(env, svc, lb.BoundQuery(eps, "delay")).value
            for eps in epsilons
        }
        outcome = lb.run_experiment(
            env, CHANNEL, lb.SimConfig(horizon_slots=2000, replications=replications,
                                       master_seed=1000 + i)
        )
        for eps in epsilons:
            allowance = eps + 3.0 * math.sqrt(eps / replications)
            p_b, _ = outcome.exceedance(backlog[eps], kind="backlog")
            p_w, _ = outcome.exceedance(delay[eps], kind="delay")
            ok &= p_b <= allowance and p_w <= allowance
            details.append(f"rate={rate_gbps} eps={eps}: P(B>b)={p_b:.2e} P(W>w)={p_w:.2e}")
    elapsed = time.time() - start
    _report(
        "3 (bound validity vs simulation)",
        ok and elapsed < 600.0,
        "; ".join(details) + f"; runtime={elapsed:.0f}s<600s",
    )


def test_criterion_4_qualitative_trends():
    start = time.time()

    # (a) backlog strictly increasing in the arrival rate at fixed epsilon.
    svc = lb.ServiceCharacterization(CHANNEL)
    b_rate = [
        lb.backlog_bound(lb.AffineEnvelope(0.0, r * GBPS), svc,
                         lb.BoundQuery(1e-6, "backlog")).value
        for r in (1.0, 2.0, 3.0)
    ]
    trend_a = b_rate[0] < b_rate[1] < b_rate[2]

    # (b) delay non-decreasing in the shadowing deviation.
    env = lb.AffineEnvelope(0.0, GBPS)
    w_sigma = []
    for sigma in (2.0, 4.0, 6.0, 8.0):
        chan = lb.ShadowingChannel(25.0, sigma, 500e6, 1.0)
        w_sigma.append(
            lb.delay_bound(env, lb.ServiceCharacterization(chan),
                           lb.BoundQuery(1e-3, "delay")).value
        )
    trend_b = all(a <= b for a, b in zip(w_sigma, w_sigma[1:]))

    # (c) delay non-increasing in the system gain with diminishing returns
    # (first improvement at least the last; front half at least the back).
    gains = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    w_gain = []
    for gain in gains:
        chan = lb.ShadowingChannel(gain, 8.0, 500e6, 1.0)
        w_gain.append(
            lb.delay_bound(env, lb.ServiceCharacterization(chan, exact=True),
                           lb.BoundQuery(1e-3, "delay")).value
        )
    drops = [a - b for a, b in zip(w_gain, w_gain[1:])]
    half = len(drops) // 2
    trend_c = (
        all(d >= 0 for d in drops)
        and drops[0] >= drops[-1]
        and sum(drops[:half]) >= sum(drops[half:])
    )

    # (d) coarse-step bounds dominate limit-mode bounds everywhere, and the
    # coarse step's looseness grows with network load. At moderate
    # utilization the absolute gap is nearly flat (the 1/theta amplification
    # offsets the shrinking composite exponent); the growth shows as the
    # rate approaches the sustainable service (~4.16 Gbps here), so the
    # growth grid extends into that region.
    svc_limit = lb.ServiceCharacterization(CHANNEL, exact=True)
    gaps = {}
    dominated = True
    for r in (1.0, 2.0, 3.0, 3.5, 3.8):
        env_r = lb.AffineEnvelope(0.0, r * GBPS)
        coarse = lb.backlog_bound(env_r, svc, lb.BoundQuery(1e-5, "backlog")).value
        limit = lb.backlog_bound(env_r, svc_limit, lb.BoundQuery(1e-5, "backlog")).value
        dominated &= coarse >= limit
        gaps[r] = coarse - limit
    growth_grid = (1.0, 3.0, 3.5, 3.8)
    trend_d = dominated and all(
        gaps[a] < gaps[b] for a, b in zip(growth_grid, growth_grid[1:])
    )

    elapsed = time.time() - start
    gap_text = " ".join(f"{r}:{g:.3g}" for r, g in gaps.items())
    _report(
        "4 (qualitative trends)",
        trend_a and trend_b and trend_c and trend_d and elapsed < 120.0,
        f"a={trend_a} b={trend_b}(w={w_sigma}) c={trend_c}(w={w_gain}) "
        f"d={trend_d}(gaps {gap_text}) runtime={elapsed:.0f}s<120s",
    )


def test_criterion_5_stability_detection():
    start = time.time()
    # Deterministic overload: no transform parameter is stable.
    chan0 = lb.ShadowingChannel(25.0, 0.0, 500e6, 1.0)
    cap = lb.capacity_bits_per_slot(chan0, chan0.median_snr)
    svc0 = lb.ServiceCharacterization(chan0)
    overload_flagged = lb.stability_region(
        lb.AffineEnvelope(0.0, cap * 1.1), svc0
    ).is_empty

    # Zero arrivals: stable with zero backlog bound at every epsilon.
    svc = lb.ServiceCharacterization(CHANNEL)
    env0 = lb.AffineEnvelope(0.0, 0.0)
    zero_ok = not lb.stability_region(env0, svc).is_empty
    for eps in (1e-1, 1e-3, 1e-6):
        res = lb.backlog_bound(env0, svc, lb.BoundQuery(eps, "backlog"))
        zero_ok &= res.value == 0.0
    elapsed = time.time() - start
    _report(
        "5 (stability detection)",
        overload_flagged and zero_ok and elapsed < 1.0,
        f"overload_unstable={overload_flagged} zero_rate_zero_backlog={zero_ok} "
        f"runtime={elapsed:.2f}s<1s",
    )


def test_criterion_6_kernel_vs_truncated_sum():
    start = time.time()
    svc = lb.ServiceCharacterization(CHANNEL)
    env = lb.AffineEnvelope(0.0, GBPS)
    region = lb.stability_region(env, svc)
    thetas = np.geomspace(region.theta_upper * 1e-2, region.theta_upper * 0.9, 10)
    t = 20
    ok = True
    for theta in thetas:
        theta = float(theta)
        lps = svc.log_per_slot_bound(theta)
        lpa = theta * env.rate_bits_per_slot
        for w in range(10):
            s = t + w
            u = np.arange(0, min(s, t) + 1)
            terms = theta * env.burst_bits + (t - u) * lpa + (s - u) * lps
            direct = float(np.logaddexp.reduce(terms))
            closed = log_kernel_bound(env, svc, theta, s, t)
            ok &= closed >= direct - 1e-12
    elapsed = time.time() - start
    _report(
        "6 (kernel dominates truncated sum)",
        ok and elapsed < 10.0,
        f"10x10 grid at horizon {t}, runtime={elapsed:.1f}s<10s",
    )
