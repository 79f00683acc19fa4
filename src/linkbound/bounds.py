"""Steady-state probabilistic backlog and delay bounds for the buffered link.

Both bounds come from a geometric-sum kernel over the arrival and service
transforms. For a transform parameter theta the system is stable when
exp(theta * rate) times the per-slot service factor is below one; inside
that region the backlog bound minimizes a Chernoff-style objective over
theta and the delay bound is the smallest slot count whose kernel drops
below the target violation probability. Both refine theta through one
minimizer. All kernel arithmetic stays in the log domain; the gap
1 - exp(g) is evaluated through expm1 so the pole at the stability
boundary does not poison nearby values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arrival import AffineEnvelope
from .service import ServiceCharacterization

SCAN_THETA_FLOOR = 1e-14
EXTEND_THETA_CAP = 1e2
GRID_POINTS = 200
GRID_LOG_TRIM = 1e-3
GOLDEN_REL_TOL = 1e-6


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
    (theta, objective) pairs from the search grid, certifying the reported
    optimum within grid resolution.
    """

    value: float
    optimal_theta: float
    kernel_at_optimum: float
    stability: StabilityRegion
    epsilon: float
    kind: str
    trace: list = field(default_factory=list)


def _log1mexp(g):
    """log(1 - exp(g)) for g < 0, stable near both ends."""
    return np.log(-np.expm1(g))


def _log_kernel(env: AffineEnvelope, theta, log_factor, log_gap, slots_back, slots_fwd=0):
    """ln of exp(theta*burst) * exp(theta*rate)^slots_fwd * factor^slots_back / gap.

    Takes scalars or grid arrays alike; every kernel value comes from here.
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
    return lf, float(_log1mexp(g))


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


def _theta_grid(region: StabilityRegion) -> np.ndarray:
    """Log-spaced search grid over the region, capped at EXTEND_THETA_CAP."""
    lo = max(region.theta_lower, SCAN_THETA_FLOOR)
    hi = min(region.theta_upper, EXTEND_THETA_CAP)
    if hi <= lo:
        return np.asarray([lo])
    span = math.log10(hi / lo)
    lo_trim = lo * 10.0 ** (GRID_LOG_TRIM * span)
    hi_trim = hi * 10.0 ** (-GRID_LOG_TRIM * span)
    return np.geomspace(lo_trim, hi_trim, GRID_POINTS)


def _golden_min(fn, theta_lo: float, theta_hi: float):
    """Golden-section minimum of fn over [theta_lo, theta_hi] in log space."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(theta_lo), math.log(theta_hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(math.exp(c)), fn(math.exp(d))
    best_t, best_f = (math.exp(c), fc) if fc <= fd else (math.exp(d), fd)
    while b - a > GOLDEN_REL_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(math.exp(c))
            if fc < best_f:
                best_t, best_f = math.exp(c), fc
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(math.exp(d))
            if fd < best_f:
                best_t, best_f = math.exp(d), fd
    return best_t, best_f


def _stable_grid_objective(env, svc, grid):
    """Grid thetas with their log service factors and stability gaps.

    Returns (thetas, log_factors, log_gaps) restricted to stable points.
    """
    lps = svc.log_per_slot_bound_many(grid)
    g = grid * env.rate_bits_per_slot + lps
    ok = g < 0.0
    if not np.any(ok):
        raise UnstableSystemError("no stable theta on the optimization grid")
    return grid[ok], lps[ok], _log1mexp(g[ok])


def _minimize(env, svc, grid, objective):
    """Minimize objective(theta, log factor, log gap) over theta.

    Takes the argmin on the stable grid (thetas, log factors, log gaps),
    refines it by golden section between the neighbouring grid points,
    and keeps the grid point if the refinement did not beat it. Returns
    (theta, value, grid values).
    """
    thetas, lps, log_gaps = grid
    values = objective(thetas, lps, log_gaps)
    i = int(np.argmin(values))

    def at(theta: float) -> float:
        stable = _stable_at(env, svc, theta)
        return math.inf if stable is None else objective(theta, *stable)

    lo, hi = float(thetas[max(i - 1, 0)]), float(thetas[min(i + 1, thetas.size - 1)])
    if hi <= lo:  # a one-point grid
        lo, hi = lo * 0.999, lo * 1.001
    best_t, best_f = _golden_min(at, lo, hi)
    if values[i] < best_f:
        best_t, best_f = float(thetas[i]), float(values[i])
    return best_t, best_f, values


def _grid_slot_count(env, grid, log_eps: float) -> int:
    """Smallest w whose log kernel is <= log_eps at some grid theta.

    Each grid point's log kernel falls linearly in w with slope log factor
    < 0, so its threshold is a ceiling; the minimum over the grid is then
    corrected against the exact predicate in case rounding moved it.
    """
    thetas, lps, log_gaps = grid

    def meets(w: int) -> bool:
        return float(np.min(_log_kernel(env, thetas, lps, log_gaps, w))) <= log_eps

    w = float(np.min(np.ceil((log_eps - thetas * env.burst_bits + log_gaps) / lps)))
    w = int(min(max(w, 0.0), 2.0**40 + 1))
    while w > 0 and meets(w - 1):
        w -= 1
    while w <= 2**40 and not meets(w):
        w += 1
    if w > 2**40:
        raise RuntimeError("delay search exceeded 2^40 slots; epsilon unreachable")
    return w


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

    Minimizes burst - (log gap + log epsilon) / theta over the stability
    region: a 200-point log-spaced grid guards against local minima, then a
    golden-section pass refines around the grid minimum. The result is
    clamped below at zero. ``kernel_at_optimum`` is infinite when the
    kernel overflows a float.
    """
    region = _checked_region(env, svc, query, "backlog")
    log_eps = math.log(query.epsilon)

    if env.rate_bits_per_slot == 0.0:
        # Objective tends to the burst alone as theta grows without bound.
        best_t, best_f, kernel, trace = math.inf, env.burst_bits, math.nan, []
    else:
        grid = _stable_grid_objective(env, svc, _theta_grid(region))
        best_t, best_f, values = _minimize(
            env, svc, grid, lambda theta, lf, lg: env.burst_bits + (-lg - log_eps) / theta
        )
        try:
            kernel = math.exp(_log_kernel(env, best_t, *_stable_at(env, svc, best_t), 0))
        except OverflowError:
            kernel = math.inf
        trace = list(zip(grid[0].tolist(), values.tolist()))
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

    On the shared log-spaced theta grid the log kernel falls linearly in
    w, so the smallest grid w is found in closed form, as a ceiling per
    grid point checked against the exact predicate. Golden-section
    refinement of theta then walks w back by up to five slots, so a
    smaller w between grid points is not missed. Time is slotted, so w is
    an integer.
    """
    region = _checked_region(env, svc, query, "delay")
    log_eps = math.log(query.epsilon)

    grid = _stable_grid_objective(env, svc, _theta_grid(region))

    def refined(w: int):
        return _minimize(
            env, svc, grid, lambda theta, lf, lg: _log_kernel(env, theta, lf, lg, w)
        )

    w = _grid_slot_count(env, grid, log_eps)
    # Grid resolution can overshoot by a slot; let refinement walk back.
    for _ in range(5):
        if w == 0 or refined(w - 1)[1] > log_eps:
            break
        w -= 1

    best_t, best_f, values = refined(w)
    return BoundResult(
        value=int(w),
        optimal_theta=best_t,
        kernel_at_optimum=math.exp(best_f),
        stability=region,
        epsilon=query.epsilon,
        kind="delay",
        trace=list(zip(grid[0].tolist(), values.tolist())),
    )
