"""Upper bounds and exact values for inverse moments E[(1+X)^(-theta)], X >= 0.

The discretized bound evaluates the CDF of X on a uniform grid of step
``delta`` and replaces (1+x)^(-theta) by its value at the left cell edge,
which overestimates because the integrand is decreasing. Truncating the
grid at any point keeps it an upper bound; extending the truncation or
shrinking the step only tightens it. ``exact_inverse_moment`` computes the
exact expectation of a log-normal SNR and serves as the delta -> 0
reference: a trapezoid rule in the Gaussian variable, of fixed step 0.05
over 12 either side of the log-integrand's peak, summed in the log
domain. The integrand is analytic and log-concave, so the rule converges
geometrically in the step; halving the step or widening the window moves
its log by less than 1e-12 relative.

Both discretized engines, the unmerged grid of ``inverse_moment_bound``
and the block-merged ``StieltjesTable``, compute one staircase sum:
sum of mass * (1+x_left)^(-theta) over cells, plus the survival at the cut
times (1+x_cut)^(-theta). Masses are differences of the CDF at cell right
edges, so no term cancels, whatever the exponent. The grid streams in
fixed-size chunks so that fine steps never materialize the whole grid;
the table is built in chunks of 2^15 cells or lattice ids, so that no
temporary of its build outgrows a chunk. The table sums exponents up to
64 as a short power series about the left edge of each of a few hundred
segments, with moments stored at build time. A larger exponent takes an
exp pass over the shortest prefix of the blocks past which the rest of
the mass, charged at the prefix's cut, can no longer move the sum. Both
equal the staircase to rounding, and truncating the series or charging
the rest at the cut only overestimates.
The truncation point is chosen in x-space, independent of the step, so
refining the step compares the same truncated quantity and is guaranteed
monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DB_TO_LN, ShadowingChannel

# The only floor on a per-slot factor: every inverse moment returned here,
# by the grid, the table or the exact rule, is clamped to [_FACTOR_FLOOR, 1].
_FACTOR_FLOOR = 1e-300
_CHUNK = 2_000_000
# The truncation search also stops once survival * (1+x)^(-theta) falls
# below this residual slack.
_SLACK_TOL = 1e-12
# Expanding search for the truncation point starts here and may not pass
# the ceiling even for pathologically heavy cdfs.
_SEARCH_X0 = 1e-12
_SEARCH_CEIL = 1e12
# Passes allowed to move a guessed block start onto its exact grid cell. The
# guess is off by about n * 2.2e-16 * log1p(n delta) cells at n cells: at
# most 50 at 2^53 cells, the most that float cell indices resolve.
_NUDGE_PASSES = 128
# A table groups its blocks into segments of this width in log1p(x) and
# sums every exponent t <= 1 / _SEGMENT_WIDTH as a power series in t about
# each segment's left edge L, through the t^_SERIES_TERMS term. A block
# edge l lies less than one width above L, so each exp(-t (l - L)) is
# missed by at most 1 / 19! < 1e-17 absolute, or e / 19! < 3e-17 relative;
# with K = 18 even the partial sum overestimates exp(-t (l - L)), so the
# series is still an upper bound. The width is a power of two, so L and
# l - L are exact floats.
_SERIES_TERMS = 18
_SEGMENT_WIDTH = 1.0 / 64.0
# Cells or lattice ids per chunk of the table build, and blocks per chunk
# of its segment moment pass: 256 kB per float array.
_TABLE_CHUNK = 1 << 15
# Above the series, an exponent sums a growing prefix of the blocks and
# stops once the mass past the prefix, charged at its cut, is at most this
# share of the prefix sum: 2^-6 of half an ulp.
_PREFIX_RTOL = 2.0**-60
# The exact mode's trapezoid rule: nodes at this step in the Gaussian
# variable, within this half-width of the log-integrand's peak.
_TRAPEZOID_STEP = 0.05
_TRAPEZOID_HALF_WIDTH = 12.0


class CdfContractError(ValueError):
    """The supplied CDF violated monotonicity or range on the evaluation grid."""


@dataclass(frozen=True)
class DiscretizationConfig:
    """The two parameters of the discretized inverse-moment bound.

    Attributes:
        step_delta: grid step in linear-SNR units, positive and finite.
        tail_mass_tol: truncate the grid once the survival of X drops below
            this mass; the residual looseness versus an untruncated grid is
            at most tail_mass_tol times the integrand at the cut. The grid
            of one exponent also stops once survival * (1+x)^(-theta) drops
            below the fixed slack 1e-12, which cuts far earlier for large
            exponents. The service's table is cut at theta = 0, where the
            survival alone decides.
    """

    step_delta: float = 1e-2
    tail_mass_tol: float = 2e-3

    def __post_init__(self) -> None:
        if not 0 < self.step_delta < math.inf:
            raise ValueError("step_delta must be positive and finite")
        if not 0 < self.tail_mass_tol < 1:
            raise ValueError("tail_mass_tol must lie in (0, 1)")


def _as_vectorized(cdf):
    """Return ``cdf`` as a map from float arrays to float arrays of the same shape.

    The CDF must accept an array; an output of another shape raises
    CdfContractError.
    """
    def cdfv(x: np.ndarray) -> np.ndarray:
        out = np.asarray(cdf(x), dtype=float)
        if out.shape != x.shape:
            raise CdfContractError(
                f"cdf returned shape {out.shape} for an input of shape {x.shape}")
        return out

    return cdfv


def _doubling_ladder() -> list[float]:
    xs = [_SEARCH_X0]
    while xs[-1] < _SEARCH_CEIL:
        xs.append(2.0 * xs[-1])
    return xs


# Every point the doubling phase of the truncation search can probe, and
# the bisection depth that always meets its 1e-3 relative width (2^-10 < 1e-3).
_LADDER = _doubling_ladder()
_BISECT_DEPTH = 10


def _bisection_grid(lo: float, hi: float) -> np.ndarray:
    """[lo, hi] with every midpoint its bisection can probe, in increasing order.

    Each level inserts 0.5 * (left + right) between neighbouring points, the
    arithmetic of a point-by-point bisection, so the midpoint of the points
    at indices i and j is found at index (i + j) // 2.
    """
    pts = np.asarray([lo, hi])
    for _ in range(_BISECT_DEPTH):
        finer = np.empty(2 * pts.size - 1)
        finer[0::2] = pts
        finer[1::2] = 0.5 * (pts[:-1] + pts[1:])
        pts = finer
    return pts


def truncation_point(cdf, theta: float, config: DiscretizationConfig) -> float:
    """Smallest x at which the grid may stop under the configured tolerances.

    Stops where either the survival falls below tail_mass_tol or the
    residual-slack proxy survival * (1+x)^(-theta) falls below 1e-12.
    Located by doubling then bisection; deliberately independent of the
    step so that refinements truncate at the same point. The CDF is
    evaluated in two array calls, one over every doubling candidate and
    one over every midpoint the bisection can reach; the branches taken
    are those of a point-by-point search.
    """
    cdfv = _as_vectorized(cdf)

    def stopped(x: float, surv: float) -> bool:
        if surv <= config.tail_mass_tol:
            return True
        return surv * math.exp(-theta * math.log1p(x)) <= _SLACK_TOL

    ladder_surv = (1.0 - cdfv(np.asarray(_LADDER))).tolist()
    if stopped(_SEARCH_X0, ladder_surv[0]):
        return _SEARCH_X0
    j = 0
    while _LADDER[j] < _SEARCH_CEIL and not stopped(_LADDER[j + 1], ladder_surv[j + 1]):
        j += 1
    x = _LADDER[j]
    if x >= _SEARCH_CEIL:
        return _SEARCH_CEIL
    grid = _bisection_grid(x, 2.0 * x)
    pts, surv = grid.tolist(), (1.0 - cdfv(grid)).tolist()
    i_lo, i_hi = 0, len(pts) - 1
    while pts[i_hi] - pts[i_lo] > 1e-3 * pts[i_hi]:
        i_mid = (i_lo + i_hi) // 2
        if stopped(pts[i_mid], surv[i_mid]):
            i_hi = i_mid
        else:
            i_lo = i_mid
    return pts[i_hi]


def _check_chunk(f: np.ndarray, prev_last: float) -> np.ndarray:
    lo, hi = f.min(), f.max()
    if lo < -1e-9 or hi > 1.0 + 1e-9:
        raise CdfContractError("cdf values outside [0, 1] on the evaluation grid")
    if lo < 0.0 or hi > 1.0:
        f = np.clip(f, 0.0, 1.0)
    if f[0] < prev_last - 1e-12 or (f.size > 1 and np.any(np.diff(f) < -1e-12)):
        raise CdfContractError("cdf is not monotone non-decreasing on the evaluation grid")
    return f


def _staircase_sum(log_left: np.ndarray, mass: np.ndarray, theta: float) -> float:
    """Sum of mass * (1+x_left)^(-theta) over cells."""
    # numpy's pairwise sum, not a BLAS dot: single-threaded, so its
    # cost and its rounding do not depend on the BLAS thread pool.
    terms = np.exp(-theta * log_left)
    terms *= mass
    return float(terms.sum())


def inverse_moment_bound_many(cdf, thetas, config: DiscretizationConfig) -> np.ndarray:
    """Vector version of inverse_moment_bound: an upper bound for each exponent.

    One sweep over the grid, in chunks of _CHUNK cells, serves every
    exponent: the CDF and log grids are shared, each exponent stops at the
    first cell edge at or past its own truncation point, where the survival
    past the cut adds its end term, and its per-chunk partials are
    re-summed exactly.
    """
    thetas = np.asarray(thetas, dtype=float)
    if not np.all((thetas >= 0) & (thetas < math.inf)):
        raise ValueError("theta must be non-negative and finite")
    out = np.ones_like(thetas)
    active = thetas > 0
    if not np.any(active):
        return out
    act = thetas[active].tolist()
    delta = config.step_delta
    n_terms = [max(1, math.ceil(truncation_point(cdf, t, config) / delta)) for t in act]
    n_max = max(n_terms)
    cdfv = _as_vectorized(cdf)
    partials = [[] for _ in act]
    prev_right = prev_f = 0.0
    for k0 in range(1, n_max + 1, _CHUNK):
        k1 = min(k0 + _CHUNK - 1, n_max)
        right = np.arange(k0, k1 + 1, dtype=float) * delta
        f = _check_chunk(cdfv(right), prev_f)
        log_left = np.log1p(np.concatenate(([prev_right], right[:-1])))
        mass = np.diff(f, prepend=prev_f)
        for theta, n, parts in zip(act, n_terms, partials):
            if n < k0:
                continue
            m = min(k1, n) - k0 + 1
            parts.append(_staircase_sum(log_left[:m], mass[:m], theta))
            if n <= k1:
                end_survival = 1.0 - float(f[m - 1])
                parts.append(end_survival * math.exp(-theta * math.log1p(right[m - 1])))
        prev_right, prev_f = float(right[-1]), float(f[-1])
    out[active] = np.clip([math.fsum(p) for p in partials], _FACTOR_FLOOR, 1.0)
    return out


def inverse_moment_bound(cdf, theta: float, config: DiscretizationConfig) -> float:
    """Discretized upper bound on E[(1+X)^(-theta)] from the CDF of X.

    Returns the truncated staircase sum over cells k = 1..N
    ``sum_k [F(k delta) - F((k-1) delta)] * (1+(k-1) delta)^(-theta)``
    plus the end term ``[1 - F(N delta)] * (1+N delta)^(-theta)``, with
    F(0) read as 0 and N fixed by the truncation rules in ``config``. The
    value is an upper bound on the expectation for every truncation, lies
    in [_FACTOR_FLOOR, 1], and tightens monotonically as the step shrinks
    or terms are added. It is 1.0 at theta = 0. Above the floor it is
    also first-order tight: since 1 - (1+u)^(-theta) <= theta u, each
    cell overestimates by at most theta delta times its own term, so
    ``exact <= value <= exact + theta * delta * value + end term``.

    ``cdf`` maps a float array to an array of the same shape. Raises
    ValueError for a negative, infinite or NaN theta and CdfContractError
    if the CDF returns another shape or misbehaves on the grid.
    """
    return float(inverse_moment_bound_many(cdf, np.asarray([theta]), config)[0])


def _block_id(m, delta: float, width: float):
    """Lattice id floor(log1p(m delta) / width) of the block holding cell m."""
    return np.floor(np.log1p(m * delta) / width)


def _block_starts(delta: float, n_terms: int, width: float):
    """Yield (x, log1p(x)) for the left edge x = m delta of every block, in chunks.

    Cell m, [m delta, (m+1) delta], belongs to block _block_id(m), and a
    block starts at its first cell. The first ceil(1 / width) cells, which
    at the usual steps span a lattice step or more each, are assigned ids
    one by one; above them the first cell of lattice id j is guessed as
    ceil(expm1(j width) / delta) and nudged a cell per pass until it is the
    smallest m whose float id is at least j. Either way a chunk covers at
    most _TABLE_CHUNK cells or ids, and each start lands where a build of
    all of them at once puts it. Starts increase strictly, across chunks
    too.
    """
    n_dense = min(n_terms, math.ceil(1.0 / width))
    last_id = -1.0
    for m0 in range(0, n_dense, _TABLE_CHUNK):
        x = np.arange(m0, min(m0 + _TABLE_CHUNK, n_dense), dtype=float) * delta
        log_x = np.log1p(x)
        ids = np.floor(log_x / width)
        new = np.diff(ids, prepend=last_id) != 0
        last_id = float(ids[-1])
        yield x[new], log_x[new]
    top = float(_block_id(float(n_terms - 1), delta, width))
    if n_dense == n_terms or top <= last_id:
        return
    last_m = -1.0
    for j0 in np.arange(last_id + 1.0, top + 1.0, _TABLE_CHUNK).tolist():
        j = j0 + np.arange(min(_TABLE_CHUNK, top + 1.0 - j0))
        m = np.minimum(np.ceil(np.expm1(j * width) / delta), n_terms - 1.0)
        x = m * delta
        log_x = np.log1p(x)
        # A start that does not move in a pass has settled for good, so each
        # pass after the first re-checks only the starts the last one moved.
        pending = slice(None)
        for _ in range(_NUDGE_PASSES):
            m_pending, j_pending = m[pending], j[pending]
            low = np.floor(log_x[pending] / width) < j_pending
            high = ~low & (_block_id(m_pending - 1.0, delta, width) >= j_pending)
            moved = np.flatnonzero(low | high)
            if not moved.size:
                break
            m[pending] = m_pending + low - high
            pending = moved if isinstance(pending, slice) else pending[moved]
            x[pending] = m[pending] * delta
            log_x[pending] = np.log1p(x[pending])
        else:
            raise RuntimeError("block lattice starts did not settle")
        new = np.diff(m, prepend=last_m) != 0
        last_m = float(m[-1])
        yield x[new], log_x[new]


def _close_masses(cdfv, right: np.ndarray, prev_f: float, out: np.ndarray) -> float:
    """Write to ``out`` the masses of consecutive cells that end at ``right``.

    The first cell starts where the CDF is ``prev_f``. Returns the checked
    CDF at the last right edge, or ``prev_f`` if there is none.
    """
    if not right.size:
        return prev_f
    f = _check_chunk(cdfv(right), prev_f)
    out[0] = f[0] - prev_f
    np.subtract(f[1:], f[:-1], out=out[1:])
    return float(f[-1])


class StieltjesTable:
    """Mass/edge aggregation of a CDF over the uniform grid, for fast sweeps.

    Cells of the uniform grid are merged into blocks aligned to a fixed
    lattice of width ``block_log_width`` in log1p(x); each block stores its
    probability mass and the log1p of its left edge. Evaluating with the
    left edge overestimates every merged cell, so the result stays an upper
    bound on the expectation and exceeds the unmerged grid value by at most
    a factor exp(theta * block_log_width) - 1.

    The build locates the first grid cell of each block on the lattice and
    evaluates the CDF once, at the block edges and the grid end; a block's
    mass is the difference of the CDF across it. It runs in chunks of
    _TABLE_CHUNK (2^15) cells or lattice ids: each chunk places its block
    starts, takes their log1p once as the stored log edges, evaluates and
    checks the CDF there and writes the masses it closes into the two
    preallocated output arrays, so no temporary outgrows a chunk. The
    number of blocks is at most 1 + log1p(delta * n_terms) /
    block_log_width, whatever the step, and the build handles at most
    1 / block_log_width more ids than that. More than 2^53 cells raise
    ValueError.

    The build also groups the blocks into segments of width 1/64 in log1p(x)
    and stores, for each segment s with left edge L_s, the local moments
    sum of mass * (l - L_s)^k / k! for k = 0..18. An exponent t <= 64 is
    then summed as sum_s exp(-t L_s) * sum_k (-t)^k moment_{k,s}, which
    equals the staircase to rounding at the cost of one exp per segment.
    A larger exponent takes an exp pass over a growing prefix of the
    blocks: the leftmost subtrees of numpy's pairwise sum over all of
    them, 64 to 128 blocks first and about twice as many each step. It
    charges all the mass past the prefix, the end survival included, at
    the prefix's cut and stops once that charge is at most 2^-60 of the
    prefix sum, at the usual exponents within the first prefix. The result
    is still an upper bound, and it is the float the full pass gives.
    """

    def __init__(self, cdf, delta: float, n_terms: int, block_log_width: float):
        if n_terms > 2**53:
            raise ValueError(f"grid step {delta:g} is too fine: it needs {n_terms} "
                             "cells, more than the 2^53 that float indices resolve")
        self.block_log_width = width = float(block_log_width)
        cdfv = _as_vectorized(cdf)
        # Each of the first ceil(1 / width) cells starts at most one block,
        # and so does each lattice id above the last of theirs.
        n_dense = min(n_terms, math.ceil(1.0 / width))
        dense_top = float(_block_id(float(n_dense - 1), delta, width))
        top = float(_block_id(float(n_terms - 1), delta, width))
        capacity = int(min(n_dense, dense_top + 1.0) + max(top - dense_top, 0.0))
        log_edges, mass = np.empty(capacity), np.empty(capacity)
        n, prev_f = 0, 0.0
        for x, log_x in _block_starts(delta, n_terms, width):
            log_edges[n:n + x.size] = log_x
            # A block's first cell ends the block before it, so the CDF there
            # closes that block's mass; the block at x = 0 closes none.
            right = x if n else x[1:]
            n += x.size
            prev_f = _close_masses(cdfv, right, prev_f, mass[n - 1 - right.size:n - 1])
        f_end = _close_masses(cdfv, np.asarray([n_terms * delta]), prev_f, mass[n - 1:n])
        self.log_edges, self.mass = log_edges[:n], mass[:n]
        self.end_survival = 1.0 - f_end
        self.end_log_edge = math.log1p(n_terms * delta)
        self._seg_left, self._seg_moments = _segment_moments(self.log_edges, self.mass)

    def bound(self, theta: float) -> float:
        """Upper bound on E[(1+X)^(-theta)] from the aggregated blocks."""
        if theta * _SEGMENT_WIDTH <= 1.0:
            # No BLAS: einsum without optimize runs numpy's own loops, so the
            # result does not depend on the BLAS thread pool.
            by_power = np.einsum(
                "ks,s->k", self._seg_moments, np.exp(-theta * self._seg_left)
            ).tolist()
            val = 0.0
            for moment in reversed(by_power):
                val = val * -theta + moment
            val += self.end_survival * math.exp(-theta * self.end_log_edge)
        else:
            val = self._exp_pass(theta)
        return min(max(val, _FACTOR_FLOOR), 1.0)

    def _exp_pass(self, theta: float) -> float:
        """Staircase sum plus end term, from the shortest prefix of blocks that meets it.

        The prefixes are the leftmost subtrees of numpy's pairwise sum over
        all blocks, so each prefix sum is a partial result of the full pass,
        and the next one adds its right sibling's sum. The mass past a
        prefix, end survival included, lies at or above the prefix's cut;
        once that mass charged at the cut is at most _PREFIX_RTOL of the
        prefix sum, less than half an ulp of it, every later addition of
        the full pass rounds back to the prefix sum, and so does the bound.
        """
        n = self.mass.size
        val, k = 0.0, 0
        for cut in _pairwise_prefixes(n):
            val += _staircase_sum(self.log_edges[k:cut], self.mass[k:cut], theta)
            k = cut
            if k == n:
                break
            survival = float(self.mass[k:].sum()) + self.end_survival
            charge = survival * math.exp(-theta * float(self.log_edges[k]))
            if charge <= _PREFIX_RTOL * val:
                return val + charge
        return val + self.end_survival * math.exp(-theta * self.end_log_edge)


def _pairwise_prefixes(n: int) -> list[int]:
    """Sizes of the leftmost subtrees of numpy's pairwise sum of n floats, n last.

    numpy sums a contiguous array of more than 128 floats as the sum of
    its first half, rounded down to a multiple of 8, plus the sum of the
    rest, recursively; up to 128 it adds them in one unrolled loop.
    """
    sizes = [n]
    while sizes[-1] > 128:
        half = sizes[-1] // 2
        sizes.append(half - half % 8)
    return sizes[::-1]


def _segment_moments(log_edges: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left edge L_s, moments sum mass * (l - L_s)^k / k! by k and s) of each segment.

    Segment s holds the blocks whose log edge l has floor(l / width) = s,
    that is s * width <= l; only segments that hold a block are kept.
    Moments are summed over chunks of whole segments, so the temporaries
    stay cache-sized.
    """
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
    for c0, c1 in zip(cuts.tolist(), cuts[1:].tolist() + [first.size]):
        b0, b1 = int(block_of[c0]), int(block_of[c1])
        edges = log_edges[b0:b1]
        offset = edges - np.floor(edges / _SEGMENT_WIDTH) * _SEGMENT_WIDTH
        local = first[c0:c1] - b0
        powers = mass[b0:b1].copy()
        moments[0, c0:c1] = np.add.reduceat(powers, local)
        for k in range(1, _SERIES_TERMS + 1):
            powers *= offset
            moments[k, c0:c1] = np.add.reduceat(powers, local)
    moments /= np.cumprod(np.arange(_SERIES_TERMS + 1.0).clip(1.0))[:, None]
    return seg_left, moments


def _trapezoid_nodes(step: float, half_width: float) -> tuple[np.ndarray, float]:
    """(node offsets from the peak, ln of the node weight step / sqrt(2 pi))."""
    k = round(half_width / step)
    return step * np.arange(-k, k + 1.0), math.log(step / math.sqrt(2.0 * math.pi))


_TRAPEZOID_NODES = _trapezoid_nodes(_TRAPEZOID_STEP, _TRAPEZOID_HALF_WIDTH)


def _lognormal_log_exact(channel: ShadowingChannel, theta: float,
                         nodes: tuple[np.ndarray, float] = _TRAPEZOID_NODES) -> float:
    """ln E[(1+X)^(-theta)] of the log-normal SNR by a trapezoid rule in z.

    Substitutes x = exp(ln10/10 * (mean_db + sigma_db z)) with z standard
    normal. The log-integrand f(z) = -z^2/2 - theta ln(1 + x) is concave
    with curvature at most -1. The nodes lie at ``nodes``' offsets (by
    default k * 0.05, k = -240..240) from a centre within 0.025 of the
    peak of f, so past the last node the integrand is below exp(-71) of
    its peak value. exp(f) is summed relative to its largest term, so no
    exponent overflows or underflows whatever theta is.
    """
    ln_mean = DB_TO_LN * channel.mean_snr_db
    ln_sigma = DB_TO_LN * channel.sigma_db
    # The slope of f, -z - theta*ln_sigma*x/(1+x), is positive at
    # z = -theta*ln_sigma and negative at 0: bisect its root.
    lo, hi = -theta * ln_sigma, 0.0
    while hi - lo > 0.05:
        mid = 0.5 * (lo + hi)
        x = math.exp(ln_mean + ln_sigma * mid)
        if -mid - theta * ln_sigma * x / (1.0 + x) > 0.0:
            lo = mid
        else:
            hi = mid
    offsets, ln_weight = nodes
    z = offsets + 0.5 * (lo + hi)
    f = -0.5 * z * z - theta * np.logaddexp(0.0, ln_mean + ln_sigma * z)
    top = float(f.max())
    return top + math.log(float(np.exp(f - top).sum())) + ln_weight


def exact_inverse_moment(channel: ShadowingChannel, theta: float) -> float:
    """E[(1+X)^(-theta)] of a channel's SNR, the step -> 0 reference.

    A fixed-step trapezoid rule in the Gaussian variable, summed in the log
    domain (``_lognormal_log_exact``); halving its step or widening its
    window moves the log by less than 1e-12 relative. The value is clamped
    to [_FACTOR_FLOOR, 1]. Raises TypeError unless ``channel`` is a
    ShadowingChannel and ValueError for a negative, infinite or NaN theta.
    """
    if not isinstance(channel, ShadowingChannel):
        raise TypeError("exact_inverse_moment needs a ShadowingChannel")
    if not 0 <= theta < math.inf:
        raise ValueError("theta must be non-negative and finite")
    if theta == 0:
        return 1.0
    if channel.sigma_db == 0.0:
        return math.exp(-theta * math.log1p(channel.median_snr))
    return min(max(math.exp(_lognormal_log_exact(channel, theta)), _FACTOR_FLOOR), 1.0)
