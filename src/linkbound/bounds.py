"""Steady-state probabilistic backlog and delay bounds for the buffered link.

Both bounds come from a geometric-sum kernel over the arrival and service
transforms. For a transform parameter theta the system is stable when
exp(theta * rate) times the per-slot service factor is below one; inside
that region the backlog bound minimizes a Chernoff-style objective over
theta and the delay bound is the smallest slot count whose kernel drops
below the target violation probability. The log service factor is convex
in theta, which makes both objectives quasiconvex over the region. The
service returns the log factor's slope in theta beside its value, and
every theta search is steered by it: the stability edge is found by
Newton steps on the convex excess theta*rate + log factor, and each bound
by a Brent-Dekker root search on the sign of its objective's slope in
log theta, started between the two nearest thetas the service has
already probed and ended on a fixed lattice in log theta, so that the
result does not depend on what was probed before. The slope only
steers: every reported edge, optimum and bound is the factor's own value
at a probed theta. All kernel arithmetic stays in the log domain; the gap
1 - exp(g) is evaluated through expm1 so the pole at the stability
boundary does not poison nearby values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arrival import AffineEnvelope
from .service import ServiceCharacterization

SCAN_THETA_FLOOR = 1e-14
EXTEND_THETA_CAP = 1e2
XATOL = 1e-6
# Relative width at which the stability search stops.
_EDGE_RTOL = 1e-6


class UnstableSystemError(RuntimeError):
    """No transform parameter satisfies the stability condition."""


@dataclass(frozen=True)
class BoundQuery:
    """A bound request: target violation probability and bound kind."""

    epsilon: float
    kind: str  # "backlog" | "delay"

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        if self.kind not in ("backlog", "delay"):
            raise ValueError("kind must be 'backlog' or 'delay'")


@dataclass(frozen=True)
class StabilityRegion:
    """Interval of transform parameters with arrival/service product below one.

    The region is an interval starting at zero (exclusive). When nothing is
    stable, ``is_empty`` is set. When the region reaches the search cap,
    ``unbounded_above`` is set and ``theta_upper`` holds the cap (infinity
    for a zero-rate flow).
    """

    theta_lower: float
    theta_upper: float
    is_empty: bool = False
    unbounded_above: bool = False


@dataclass
class BoundResult:
    """A computed bound with the optimizing parameter and diagnostics.

    ``value`` is bits for backlog, whole slots for delay. ``trace`` lists
    the search's (theta, objective) probes: the backlog bound for backlog,
    the continuous slot count w*(theta) for delay. The objective is
    quasiconvex in theta, and the reported optimum is the better of the
    two neighbouring lattice thetas, XATOL apart in ln theta, between which
    its slope changes sign: a probe beats it by at most what the objective
    moves within that step.
    """

    value: float
    optimal_theta: float
    kernel_at_optimum: float
    stability: StabilityRegion
    epsilon: float
    kind: str
    trace: list = field(default_factory=list)


def _log1mexp(g: float) -> float:
    """log(1 - exp(g)) for g < 0, stable near both ends."""
    return math.log(-math.expm1(g))


def _log_kernel(env: AffineEnvelope, theta, log_factor, log_gap, slots_back, slots_fwd=0):
    """ln of exp(theta*burst) * exp(theta*rate)^slots_fwd * factor^slots_back / gap.

    Every kernel value comes from here.
    """
    return (
        theta * env.burst_bits
        + slots_fwd * theta * env.rate_bits_per_slot
        + slots_back * log_factor
        - log_gap
    )


def _stable_at(env: AffineEnvelope, svc: ServiceCharacterization, theta: float):
    """(log factor, log gap) at theta, or None when theta is not stable."""
    lf = svc.log_per_slot_bound(theta)
    g = theta * env.rate_bits_per_slot + lf
    if g >= 0.0:
        return None
    return lf, _log1mexp(g)


def log_kernel_bound(
    env: AffineEnvelope, svc: ServiceCharacterization, theta: float, s: int, t: int
) -> float:
    """ln of the closed-form kernel bound for interval endpoints (s, t).

    exp(theta*burst) * exp(theta*rate)^max(t-s,0) * factor^max(s-t,0)
    divided by the stability gap; upper-bounds the full geometric sum over
    the intermediate slot.
    """
    if s < 0 or t < 0:
        raise ValueError("s and t must be non-negative slot indices")
    stable = _stable_at(env, svc, theta)
    if stable is None:
        raise UnstableSystemError(f"stability condition violated at theta={theta:.6g}")
    return _log_kernel(env, theta, *stable, max(s - t, 0), max(t - s, 0))


def stability_region(env: AffineEnvelope, svc: ServiceCharacterization) -> StabilityRegion:
    """Locate {theta > 0 : exp(theta*rate) * per_slot_bound(theta) < 1}.

    The per-slot factor is a Laplace transform in every mode, so the log of
    the product, h(theta) = theta*rate + log factor, is convex in theta
    with value zero at theta = 0: the stable set is an interval
    (0, theta*), and theta* is the unique positive root of h. One bracket
    [SCAN_THETA_FLOOR, EXTEND_THETA_CAP] decides it, with no scan: the
    region is empty when the floor is unstable and unbounded, reported at
    the cap, when the cap is stable. Otherwise Newton steps on h, whose
    slope the service returns with each factor, walk down from the cap:
    convexity keeps each Newton point at or above theta*, on the unstable
    side. Once a step is within a quarter of the tolerance, the search
    probes below the Newton point by twice that step (at least 1e-8
    relative), and a stable probe there ends it. A Newton point at or
    below a stable theta, which only rounding produces, is replaced by a
    probe just above that theta; one outside the bracket, and every step
    after two stable probes that did not end the search, by geometric
    bisection. The search stops at relative width 1e-6, and
    ``theta_upper`` is the largest theta evaluated as stable. A zero-rate
    flow is unbounded without a probe.
    """
    rate = env.rate_bits_per_slot
    if rate == 0.0:
        return StabilityRegion(0.0, math.inf, unbounded_above=True)

    def excess(theta: float) -> tuple[float, float]:
        """h(theta) and its slope."""
        lf, slope = svc.log_per_slot_bound(theta, with_slope=True)
        return rate * theta + lf, rate + slope

    lo, hi = SCAN_THETA_FLOOR, EXTEND_THETA_CAP
    if excess(lo)[0] >= 0.0:
        return StabilityRegion(0.0, 0.0, is_empty=True)
    h_hi, dh_hi = excess(hi)
    if h_hi < 0.0:
        return StabilityRegion(0.0, hi, unbounded_above=True)
    # A stable probe that does not end the search breaks convexity's
    # promise, by rounding; after two, bisection takes over.
    strikes = 0
    while hi - lo > _EDGE_RTOL * hi:
        newton = strikes < 2 and dh_hi > 0.0
        theta = hi - h_hi / dh_hi if newton else lo
        if lo < theta < hi and hi - theta <= 0.25 * _EDGE_RTOL * hi:
            # Newton has all but converged: the root lies just below theta.
            theta = hi - max(2.0 * (hi - theta), 1e-8 * hi)
        elif newton and theta <= lo:
            # The Newton point, at or above the root, is at or below a
            # stable theta: lo is within rounding of the root.
            theta = lo * (1.0 + 0.5 * _EDGE_RTOL)
        if not lo < theta < hi:
            theta = math.sqrt(lo * hi)
        h, dh = excess(theta)
        if h < 0.0:
            lo = theta
            strikes += 1
        else:
            hi, h_hi, dh_hi = theta, h, dh
    return StabilityRegion(0.0, lo)


def _gap_ratio(g: float, log_gap: float) -> float:
    """exp(g) / (1 - exp(g)) for g < 0, which log gap's derivative carries, with no overflow."""
    return math.exp(min(g - log_gap, 709.0))


def _lattice_theta(k: float) -> float:
    """Point k of the search lattice: theta = exp(k * XATOL)."""
    return math.exp(k * XATOL)


def _root_search(phi, a: float, fa: float, b: float, fb: float, inside) -> tuple[float, float]:
    """Brent-Dekker root search of phi over lattice positions, where fa < 0 <= fb.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 4:
    inverse quadratic or secant steps, kept only while they shrink the
    bracket fast enough, else bisection. Each probe is rounded to a lattice
    point strictly inside the bracket, ``inside(x, y)`` giving the first
    and last of those between x < y, and the search ends when there is
    none. It returns that bracket: two neighbouring positions, phi < 0 at
    one and phi >= 0 at the other, the same whatever the start when phi
    changes sign once.
    """
    c, fc = a, fa
    step = prev_step = b - a
    while True:
        if (fb >= 0.0) == (fc >= 0.0):
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        k_lo, k_hi = inside(min(b, c), max(b, c))
        if k_lo > k_hi:
            return b, c
        half = 0.5 * (c - b)
        if abs(prev_step) >= 1.0 and abs(fa) > abs(fb) and fc != 0.0:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * half * q - abs(q), abs(prev_step * q)):
                prev_step, step = step, p / q
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        a, fa = b, fb
        b = min(max(float(round(b + step)), k_lo), k_hi)
        fb = phi(b)


def _minimize(env, svc, region: StabilityRegion, objective, slope):
    """Minimize objective(theta, lf, log gap) over the stability region.

    The objective is quasiconvex in u = ln theta, so the sign of its
    derivative changes once, from negative to positive, at the minimum.
    slope(theta, lf, lf', gap ratio, log gap) splits that derivative into
    a rising and a falling part, both non-negative; the search steers by
    their share (rising - falling) / (rising + falling), 0 where both
    vanish (a flat objective), which has the derivative's sign but stays
    in [-1, 1], even next to the pole at the stability edge, so that its
    interpolation stays useful over a wide bracket. The gap ratio is
    exp(g) / (1 - exp(g)).

    The candidates are the lattice thetas exp(k * XATOL), k an integer,
    inside the region, and its two ends, SCAN_THETA_FLOOR and
    min(theta*, EXTEND_THETA_CAP), which the stability search has probed.
    When the share is not positive at the upper end, or not negative at
    the lower one, that end is the minimum. Otherwise a binary search over
    the thetas the service has already probed (memo hits, no new factor)
    narrows the bracket to two of them; the candidates at or beyond those
    bracket the sign change too, and a Brent-Dekker root search
    (``_root_search``) closes it to two neighbouring candidates, XATOL
    apart in u (relative in theta). The result is the better of the two.
    Since they are the same pair whatever the service probed before, a
    bound does not depend on the sweep points or epsilons searched before
    it. The log factor, floor included, is smooth in theta, so the better
    of the two lies above the minimum by about the objective's curvature
    times XATOL^2. An unstable probe reads as a share of 1.
    Returns (theta, value) of that candidate and the (theta, value) probe
    list: the slope only steers, and every reported value is the
    objective at a probed theta.
    """
    probes = []
    values = {}
    rate = env.rate_bits_per_slot

    def at(theta: float) -> float:
        lf, dlf = svc.log_per_slot_bound(theta, with_slope=True)
        g = theta * rate + lf
        if g >= 0.0:
            value, rising, falling = math.inf, 1.0, 0.0
        else:
            lg = _log1mexp(g)
            value = objective(theta, lf, lg)
            rising, falling = slope(theta, lf, dlf, _gap_ratio(g, lg), lg)
        probes.append((theta, value))
        values[theta] = value
        total = rising + falling
        return (rising - falling) / total if total > 0.0 else 0.0

    # A candidate's position is k for a lattice theta, ln(theta) / XATOL for an end.
    lo, hi = SCAN_THETA_FLOOR, min(region.theta_upper, EXTEND_THETA_CAP)
    ends = {math.log(lo) / XATOL: lo, math.log(hi) / XATOL: hi}

    def theta_at(x: float) -> float:
        return ends.get(x) or _lattice_theta(x)

    def inside(x: float, y: float) -> tuple[float, float]:
        k_lo, k_hi = math.floor(x) + 1.0, math.ceil(y) - 1.0
        if _lattice_theta(k_lo) <= theta_at(x):
            k_lo += 1.0
        if _lattice_theta(k_hi) >= theta_at(y):
            k_hi -= 1.0
        return k_lo, k_hi

    def candidate(theta: float, below: bool) -> float:
        """Position of the nearest candidate at or below (else above) theta."""
        if theta in (lo, hi):
            return math.log(theta) / XATOL
        x = (math.floor if below else math.ceil)(math.log(theta) / XATOL)
        if below:
            while _lattice_theta(x) > theta:
                x -= 1
            return x if _lattice_theta(x) > lo else math.log(lo) / XATOL
        while _lattice_theta(x) < theta:
            x += 1
        return x if _lattice_theta(x) < hi else math.log(hi) / XATOL

    f_lo, f_hi = at(lo), at(hi)
    pair = (lo, hi)
    if f_lo < 0.0 < f_hi:
        a, f_a, b, f_b = lo, f_lo, hi, f_hi
        known = svc.probed(lo, hi)
        i, j = 0, len(known)
        while i < j:
            mid = (i + j) // 2
            f = at(known[mid])
            if f < 0.0:
                a, f_a, i = known[mid], f, mid + 1
            else:
                b, f_b, j = known[mid], f, mid
        # The candidates at or beyond a and b have the signs there; their
        # shares, where not probed yet, are read as those of a and b.
        x, y = _root_search(lambda k: at(theta_at(k)), float(candidate(a, True)), f_a,
                            float(candidate(b, False)), f_b, inside)
        pair = sorted((theta_at(x), theta_at(y)))
    for theta in pair:
        if theta not in values:
            at(theta)
    best_t = min(pair, key=values.__getitem__)
    return best_t, values[best_t], probes


def _checked_region(env, svc, query: BoundQuery, kind: str) -> StabilityRegion:
    if query.kind != kind:
        raise ValueError(f"query.kind must be '{kind}'")
    region = stability_region(env, svc)
    if region.is_empty:
        raise UnstableSystemError("arrival rate exceeds sustainable service; no bound exists")
    return region


def backlog_bound(
    env: AffineEnvelope, svc: ServiceCharacterization, query: BoundQuery
) -> BoundResult:
    """Smallest provable backlog threshold exceeded with probability <= epsilon.

    Minimizes burst + (-log gap - log epsilon) / theta over the stability
    region. Its sublevel sets are those of theta*burst - log gap - log
    epsilon - theta*b, convex in theta because the log factor is, so the
    objective is quasiconvex and one root search on the sign of its slope,
    theta A' - A + ln epsilon with A = -log gap, finds it. The result is
    clamped below at zero. ``kernel_at_optimum`` is infinite when the
    kernel overflows a float.
    """
    region = _checked_region(env, svc, query, "backlog")
    log_eps = math.log(query.epsilon)

    if env.rate_bits_per_slot == 0.0:
        # Objective tends to the burst alone as theta grows without bound.
        best_t, best_f, kernel, trace = math.inf, env.burst_bits, math.nan, []
    else:
        best_t, best_f, trace = _minimize(
            env, svc, region,
            lambda theta, lf, lg: env.burst_bits + (-lg - log_eps) / theta,
            # The derivative in ln theta is A' - (A - ln epsilon) / theta,
            # with A = -log gap and A' = (rate + lf') * gap ratio.
            lambda theta, lf, dlf, ratio, lg: (
                env.rate_bits_per_slot * ratio, -dlf * ratio + (-lg - log_eps) / theta),
        )
        try:
            kernel = math.exp(_log_kernel(env, best_t, *_stable_at(env, svc, best_t), 0))
        except OverflowError:
            kernel = math.inf
    return BoundResult(
        value=max(0.0, best_f),
        optimal_theta=best_t,
        kernel_at_optimum=kernel,
        stability=region,
        epsilon=query.epsilon,
        kind="backlog",
        trace=trace,
    )


def delay_bound(
    env: AffineEnvelope, svc: ServiceCharacterization, query: BoundQuery
) -> BoundResult:
    """Smallest whole number of slots w with kernel(theta, t+w, t) <= epsilon.

    The log kernel theta*burst + w*lf - log gap falls linearly in w, so at
    each theta it meets log epsilon from the continuous slot count
    w*(theta) = (theta*burst - log gap - log epsilon) / (-lf) on. That is
    a convex positive numerator over a concave positive denominator, hence
    quasiconvex in theta, and one root search on the sign of its slope
    minimizes it. Time
    is slotted, so w = ceil(min w*), stepped up against the kernel at the
    optimal theta only if rounding requires it.
    """
    region = _checked_region(env, svc, query, "delay")
    log_eps = math.log(query.epsilon)

    def slots(theta: float, lf: float, lg: float) -> float:
        return math.inf if lf == 0.0 else (theta * env.burst_bits - lg - log_eps) / -lf

    def slots_slope(theta, lf, dlf, ratio, lg):
        """Rising and falling parts of the derivative of slots in ln theta:
        theta ((b + A')(-lf) + (theta b + A + ln(1/epsilon)) lf') / lf^2,
        with A = -log gap and A' = (rate + lf') * gap ratio. Where lf = 0
        the slot count is infinite and falls."""
        if lf == 0.0:
            return 0.0, 1.0
        burst = env.burst_bits
        return (theta * (burst + env.rate_bits_per_slot * ratio) / -lf,
                theta * -dlf * (ratio + (theta * burst - lg - log_eps) / -lf) / -lf)

    best_t, best_w, trace = _minimize(env, svc, region, slots, slots_slope)
    stable = _stable_at(env, svc, best_t)
    w = math.ceil(min(best_w, 2.0**40 + 1))
    while w <= 2**40 and _log_kernel(env, best_t, *stable, w) > log_eps:
        w += 1
    if w > 2**40:
        raise RuntimeError("delay search exceeded 2^40 slots; epsilon unreachable")
    return BoundResult(
        value=w,
        optimal_theta=best_t,
        kernel_at_optimum=math.exp(_log_kernel(env, best_t, *stable, w)),
        stability=region,
        epsilon=query.epsilon,
        kind="delay",
        trace=trace,
    )
