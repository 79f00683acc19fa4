"""Steady-state probabilistic backlog and delay bounds for the buffered link.

Both bounds come from a geometric-sum kernel over the arrival and service
transforms. For a transform parameter theta the system is stable when
exp(theta * rate) times the per-slot service factor is below one; inside
that region the backlog bound minimizes a Chernoff-style objective over
theta and the delay bound is the smallest slot count whose kernel drops
below the target violation probability. The log service factor is convex
in theta, which makes both objectives quasiconvex over the region, so each
bound is one bounded Brent search in log theta. That search is an in-repo
port of scipy's bounded Brent minimizer that probes the same points, so
importing this module loads none of scipy's optimizers. All kernel arithmetic
stays in the log domain; the gap 1 - exp(g) is evaluated through expm1 so
the pole at the stability boundary does not poison nearby values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arrival import AffineEnvelope
from .service import ServiceCharacterization

SCAN_THETA_FLOOR = 1e-14
EXTEND_THETA_CAP = 1e2
XATOL = 1e-6


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
    quasiconvex in theta, so the best probe is the optimum to the search
    tolerance, and the reported optimum is no worse than any probe.
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
    the product is convex in theta with value zero at theta = 0: the stable
    set is an interval (0, theta*), and theta* is the unique positive root.
    One bracket [SCAN_THETA_FLOOR, EXTEND_THETA_CAP] decides it, with no
    scan: the region is empty when the floor is unstable and unbounded,
    reported at the cap, when the cap is stable; otherwise the root is
    bisected geometrically to relative width 1e-6. A zero-rate flow is
    unbounded without a probe.
    """
    if env.rate_bits_per_slot == 0.0:
        return StabilityRegion(0.0, math.inf, unbounded_above=True)

    def stable(theta: float) -> bool:
        return env.rate_bits_per_slot * theta + svc.log_per_slot_bound(theta) < 0.0

    lo, hi = SCAN_THETA_FLOOR, EXTEND_THETA_CAP
    if not stable(lo):
        return StabilityRegion(0.0, 0.0, is_empty=True)
    if stable(hi):
        return StabilityRegion(0.0, hi, unbounded_above=True)
    while hi - lo > 1e-6 * hi:
        mid = math.sqrt(lo * hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return StabilityRegion(0.0, lo)


def _sign(x: float) -> int:
    """np.sign(x) + (x == 0): the step direction, +1 at zero."""
    return (x > 0) - (x < 0) + (x == 0)


def _brent_bounded(func, a: float, b: float, xatol: float) -> None:
    """Brent's bounded minimization of func over [a, b], to xatol in x.

    A step-for-step port of scipy's ``_minimize_scalar_bounded``
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 5)
    in plain float arithmetic: the same golden ratio, tolerances,
    parabola acceptance test, sign rule and 500-call stop, so it calls
    func at exactly the points scipy's ``minimize_scalar(method="bounded")``
    does, in the same order. The caller reads the result off its own
    probes.
    """
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    sqrt_eps = math.sqrt(2.2e-16)
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = ffulc = fnfc = func(xf)
    num = 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while num < 500 and abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1


def _minimize(env, svc, region: StabilityRegion, objective):
    """Minimize objective(theta, log factor, log gap) over the stability region.

    One bounded Brent search (``_brent_bounded``) in u = ln theta on
    [ln SCAN_THETA_FLOOR, ln min(theta*, EXTEND_THETA_CAP)], to XATOL in u
    (relative in theta). Both objectives are quasiconvex in theta, so the
    search is unimodal. Returns (theta, value) of the best probe and the
    (theta, value) probe list.
    """
    probes = []

    def at(u: float) -> float:
        theta = math.exp(u)
        stable = _stable_at(env, svc, theta)
        value = math.inf if stable is None else objective(theta, *stable)
        probes.append((theta, value))
        return value

    hi = min(region.theta_upper, EXTEND_THETA_CAP)
    _brent_bounded(at, math.log(SCAN_THETA_FLOOR), math.log(hi), XATOL)
    best_t, best_f = min(probes, key=lambda probe: probe[1])
    return best_t, best_f, probes


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
    objective is quasiconvex and one bounded Brent search finds it. The
    result is clamped below at zero. ``kernel_at_optimum`` is infinite when
    the kernel overflows a float.
    """
    region = _checked_region(env, svc, query, "backlog")
    log_eps = math.log(query.epsilon)

    if env.rate_bits_per_slot == 0.0:
        # Objective tends to the burst alone as theta grows without bound.
        best_t, best_f, kernel, trace = math.inf, env.burst_bits, math.nan, []
    else:
        best_t, best_f, trace = _minimize(
            env, svc, region, lambda theta, lf, lg: env.burst_bits + (-lg - log_eps) / theta
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
    quasiconvex in theta, and one bounded Brent search minimizes it. Time
    is slotted, so w = ceil(min w*), stepped up against the kernel at the
    optimal theta only if rounding requires it.
    """
    region = _checked_region(env, svc, query, "delay")
    log_eps = math.log(query.epsilon)

    def slots(theta: float, lf: float, lg: float) -> float:
        return math.inf if lf == 0.0 else (theta * env.burst_bits - lg - log_eps) / -lf

    best_t, best_w, trace = _minimize(env, svc, region, slots)
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
