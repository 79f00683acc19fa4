"""Upper bounds and exact values for inverse moments E[(1+X)^(-theta)], X >= 0.

The discretized bound evaluates the CDF of X on a uniform grid of step
``delta`` and replaces (1+x)^(-theta) by its value at the left cell edge,
which overestimates because the integrand is decreasing. Truncating the
grid at any point keeps it an upper bound; extending the truncation or
shrinking the step only tightens it. ``exact_inverse_moment`` computes the
exact expectation of a log-normal SNR and serves as the delta -> 0
reference: a trapezoid rule in the Gaussian variable on the fixed lattice
of step 0.05, over the nodes within 12 of the one nearest the
log-integrand's peak, summed in the log domain. The integrand is analytic
and log-concave, so the rule converges geometrically in the step,
whatever the offset of its nodes; halving the step, widening the window
or centring it on the peak moves its log by less than 1e-12 relative.
The node values z^2 / 2 and ln(1 + x) depend on the channel alone: they
are placed once for the last channel asked for, over the union of its
windows, so that a factor only combines two slices of them.

Both discretized engines, the unmerged grid of ``inverse_moment_bound``
and the block-merged ``StieltjesTable``, compute one staircase sum:
sum of mass * (1+x_left)^(-theta) over cells, plus the survival at the cut
times (1+x_cut)^(-theta). Masses are differences of the CDF at cell right
edges, so no term cancels, whatever the exponent. The grid streams in
fixed-size chunks so that fine steps never materialize the whole grid.
The table's block lattice, the first cell x = m delta of each block, is a
function of the step and the block width alone: it is kept for the last
(step, width) in the process, x beside its log1p, placed whole for the
most cells any table of that pair has asked for, and every table takes a
prefix of it. A table that needs more cells drops it and places a larger
one from cell 0, so a sweep places it once per growth and a single table
in a fresh process gains nothing. A table's own work is one pass over
chunks of about 2^15 blocks, whole segments each: the CDF at the chunk's
right edges, the block masses it closes and the chunk's segment moments,
so no temporary of the build outgrows a chunk. A table of 2^17 blocks or
more is built in two contiguous parts of its chunks where the process may
run on two CPUs: the calling thread takes the first, a thread started for
the build and joined before it returns or raises the second. No value
depends on the split or on the CPU count: every mass and segment moment
is that of the one-part build, bit for bit, and a failed build raises
the error the one-part build raises first. The table sums exponents
up to 64 as a short power series about the left edge of each of a few
hundred segments, with moments stored at build time. A larger exponent takes an
exp pass over the shortest prefix of the blocks past which the rest of
the mass, charged at the prefix's cut, can no longer move the sum. Both
equal the staircase to rounding, and truncating the series or charging
the rest at the cut only overestimates.
The truncation point is chosen in x-space, independent of the step, so
refining the step compares the same truncated quantity and is guaranteed
monotone. The grid refuses a truncation point at or past the search
ceiling, 1e12, where the tail rules never fired; the table accepts one,
since its cost follows the log-range.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .channel import DB_TO_LN, ShadowingChannel

# The only floor on a per-slot factor: every inverse moment returned here,
# by the grid, the table or the exact rule, is its sum plus _FACTOR_FLOOR,
# capped at 1. Added rather than clamped to, the floor keeps the factor an
# upper bound, log-convex and smooth in theta, so its slope is the true
# derivative; in float it leaves any sum above about 1e-284 bit for bit.
# It still decides the stability edge where the factor reaches it before
# the flow's own edge: ln(1e300) / rate at 25 dB, sigma = 0.5 dB, 1 Gbps.
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
# Lattice ids per chunk of the lattice placement, and blocks per chunk of a
# table build, rounded to whole segments: 256 kB per float array.
_TABLE_CHUNK = 1 << 15
# The number of CPUs this process may run on, so that taskset decides it:
# the workers of a large table build, up to _MAX_PARTS, and of the
# simulator's blocks, which imports it. No value depends on it.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# A table of at least _MIN_SPLIT_BLOCKS blocks is built in up to _MAX_PARTS
# parts, one per worker; a smaller one on the calling thread alone, as a
# second part gained nothing up to 100k blocks. Each part holds up to
# 0.5 MB of chunk temporaries at a time; more than two were not measured.
_MIN_SPLIT_BLOCKS = 1 << 17
_MAX_PARTS = 2
# Above the series, an exponent sums a growing prefix of the blocks and
# stops once the mass past the prefix, charged at its cut, is at most this
# share of the prefix sum: 2^-6 of half an ulp.
_PREFIX_RTOL = 2.0**-60
# The exact mode's trapezoid rule: nodes on the lattice of this step in the
# Gaussian variable, within this half-width of the lattice node nearest the
# log-integrand's peak. The shared node values of one channel span at most
# _NODE_LATTICE_MAX nodes (512 kB for both arrays): the union of its
# windows from the theta floor to the cap, at 500 MHz and 1 s slots, for
# sigma >= 0.1 dB at gains up to 60 dB. A window farther out replaces them.
_TRAPEZOID_STEP = 0.05
_TRAPEZOID_HALF_WIDTH = 12.0
_NODE_LATTICE_MAX = 1 << 15
# Newton steps allowed to the log-integrand's peak; it takes at most six at
# gains of -10 to 60 dB and 15 at thousands of dB.
_PEAK_STEPS = 64


class CdfContractError(ValueError):
    """The supplied CDF returned a non-finite value or broke monotonicity or range."""


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
    are those of a point-by-point search. A NaN or infinite CDF value at
    any of these points raises CdfContractError.
    """
    cdfv = _as_vectorized(cdf)

    def survival(x: np.ndarray) -> list[float]:
        f = cdfv(x)
        # A NaN would read as "not stopped" at every point of the search.
        if not np.all(np.isfinite(f)):
            raise CdfContractError("cdf returned a non-finite value in the truncation search")
        return (1.0 - f).tolist()

    def stopped(x: float, surv: float) -> bool:
        if surv <= config.tail_mass_tol:
            return True
        return surv * math.exp(-theta * math.log1p(x)) <= _SLACK_TOL

    ladder_surv = survival(np.asarray(_LADDER))
    if stopped(_SEARCH_X0, ladder_surv[0]):
        return _SEARCH_X0
    j = 0
    while _LADDER[j] < _SEARCH_CEIL and not stopped(_LADDER[j + 1], ladder_surv[j + 1]):
        j += 1
    x = _LADDER[j]
    if x >= _SEARCH_CEIL:
        return _SEARCH_CEIL
    grid = _bisection_grid(x, 2.0 * x)
    pts, surv = grid.tolist(), survival(grid)
    i_lo, i_hi = 0, len(pts) - 1
    while pts[i_hi] - pts[i_lo] > 1e-3 * pts[i_hi]:
        i_mid = (i_lo + i_hi) // 2
        if stopped(pts[i_mid], surv[i_mid]):
            i_hi = i_mid
        else:
            i_lo = i_mid
    return pts[i_hi]


def _chunk_masses(f: np.ndarray, prev_f: float, mass: np.ndarray) -> np.ndarray:
    """Check one chunk's CDF values f and write their differences into ``mass``.

    ``mass`` gets f[0] - prev_f, then each f[i] - f[i - 1]; the monotone
    check reads them, so it needs no temporary. Values within 1e-9 outside
    [0, 1] are clipped first. Returns f, clipped.
    """
    lo, hi = f.min(), f.max()
    # min and max propagate NaN, which every comparison below would pass.
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CdfContractError("cdf returned a non-finite value on the evaluation grid")
    if lo < -1e-9 or hi > 1.0 + 1e-9:
        raise CdfContractError("cdf values outside [0, 1] on the evaluation grid")
    if lo < 0.0 or hi > 1.0:
        f = np.clip(f, 0.0, 1.0)
    mass[0] = f[0] - prev_f
    np.subtract(f[1:], f[:-1], out=mass[1:])
    if f[0] < prev_f - 1e-12 or (f.size > 1 and mass[1:].min() < -1e-12):
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
    re-summed exactly. A truncation point at or past the search ceiling,
    1e12, where the tail rules never stopped the search, raises ValueError
    instead of streaming 1e12 / delta cells.
    """
    thetas = np.asarray(thetas, dtype=float)
    if not np.all((thetas >= 0) & (thetas < math.inf)):
        raise ValueError("theta must be non-negative and finite")
    out = np.ones_like(thetas)
    active = thetas > 0
    if not np.any(active):
        return out
    act = thetas[active].tolist()
    cuts = [truncation_point(cdf, t, config) for t in act]
    if max(cuts) >= _SEARCH_CEIL:
        raise ValueError(f"the tail rules do not stop the grid below x = {_SEARCH_CEIL:g}")
    delta = config.step_delta
    n_terms = [max(1, math.ceil(cut / delta)) for cut in cuts]
    n_max = max(n_terms)
    cdfv = _as_vectorized(cdf)
    partials = [[] for _ in act]
    prev_right = prev_f = 0.0
    for k0 in range(1, n_max + 1, _CHUNK):
        k1 = min(k0 + _CHUNK - 1, n_max)
        right = np.arange(k0, k1 + 1, dtype=float) * delta
        mass = np.empty(right.size)
        f = _chunk_masses(cdfv(right), prev_f, mass)
        log_left = np.log1p(np.concatenate(([prev_right], right[:-1])))
        for theta, n, parts in zip(act, n_terms, partials):
            if n < k0:
                continue
            m = min(k1, n) - k0 + 1
            parts.append(_staircase_sum(log_left[:m], mass[:m], theta))
            if n <= k1:
                end_survival = 1.0 - float(f[m - 1])
                parts.append(end_survival * math.exp(-theta * math.log1p(right[m - 1])))
        prev_right, prev_f = float(right[-1]), float(f[-1])
    out[active] = np.minimum(np.array([math.fsum(p) for p in partials]) + _FACTOR_FLOOR, 1.0)
    return out


def inverse_moment_bound(cdf, theta: float, config: DiscretizationConfig) -> float:
    """Discretized upper bound on E[(1+X)^(-theta)] from the CDF of X.

    Returns the truncated staircase sum over cells k = 1..N
    ``sum_k [F(k delta) - F((k-1) delta)] * (1+(k-1) delta)^(-theta)``
    plus the end term ``[1 - F(N delta)] * (1+N delta)^(-theta)``, with
    F(0) read as 0 and N fixed by the truncation rules in ``config``, plus
    _FACTOR_FLOOR, capped at 1. The value is an upper bound on the
    expectation for every truncation, and tightens monotonically as the
    step shrinks or terms are added. It is 1.0 at theta = 0. Above the
    floor it is also first-order tight: since 1 - (1+u)^(-theta) <=
    theta u, each cell overestimates by at most theta delta times its own
    term, so
    ``exact <= value <= exact + theta * delta * value + end term``.

    ``cdf`` maps a float array to an array of the same shape. Raises
    ValueError for a negative, infinite or NaN theta or a tail too heavy
    for the truncation rules below x = 1e12, and CdfContractError if the
    CDF returns another shape or misbehaves on the grid.
    """
    return float(inverse_moment_bound_many(cdf, np.asarray([theta]), config)[0])


def _block_id(m, delta: float, width: float):
    """Lattice id floor(log1p(m delta) / width) of the block holding cell m."""
    return np.floor(np.log1p(m * delta) / width)


def _block_starts(delta: float, n_terms: int, width: float):
    """Yield (x, log1p(x)) for the left edge x = m delta of every block, in chunks.

    Cell m, [m delta, (m+1) delta], belongs to block _block_id(m), and a
    block starts at its first cell: cell 0, then, for each lattice id j >= 1
    up to that of cell n_terms - 1, the smallest m whose float id is at
    least j. That cell is guessed as ceil(expm1(j width) / delta) and
    nudged a cell per pass until it is that smallest m, which is never
    cell 0, so the cell below it is never -1. An id that no cell holds
    finds the start of the next id and is dropped. A chunk covers at most
    _TABLE_CHUNK ids. Starts increase strictly, across chunks too.
    """
    yield np.zeros(1), np.zeros(1)
    top = float(_block_id(float(n_terms - 1), delta, width))
    last_m = 0.0
    for j0 in np.arange(1.0, top + 1.0, _TABLE_CHUNK).tolist():
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


@dataclass(frozen=True)
class _Lattice:
    """Every block start of the first ``n_terms`` cells of one (delta, width), read-only.

    ``x`` holds each start x = m delta, ``log_edges`` its log1p(x). Starts
    increase strictly with the lattice id, so the starts of the first
    n <= n_terms cells are exactly a prefix of these.
    """

    delta: float
    width: float
    n_terms: int
    log_edges: np.ndarray
    x: np.ndarray

    def prefix(self, n_terms: int) -> int:
        """Number of starts in the first ``n_terms`` cells: those with x <= (n_terms - 1) delta."""
        return int(np.searchsorted(self.x, (n_terms - 1.0) * self.delta, side="right"))


def _place_lattice(delta: float, n_terms: int, width: float) -> _Lattice:
    """Place the block starts of the first ``n_terms`` cells into one read-only lattice, whole."""
    # Each of the first ceil(1 / width) cells starts at most one block, and
    # so does each lattice id above the last of theirs.
    n_dense = min(n_terms, math.ceil(1.0 / width))
    dense_top = float(_block_id(float(n_dense - 1), delta, width))
    top = float(_block_id(float(n_terms - 1), delta, width))
    capacity = int(min(n_dense, dense_top + 1.0) + max(top - dense_top, 0.0))
    x, log_edges = np.empty(capacity), np.empty(capacity)
    n = 0
    for x_new, log_new in _block_starts(delta, n_terms, width):
        x[n:n + x_new.size], log_edges[n:n + x_new.size] = x_new, log_new
        n += x_new.size
    x, log_edges = x[:n], log_edges[:n]
    x.flags.writeable = log_edges.flags.writeable = False
    return _Lattice(delta, width, n_terms, log_edges, x)


# The lattice of the last (delta, width) a table asked for, placed for the
# most cells any table of that pair has asked for. It is swapped whole, so a
# reader that takes it once sees a key and arrays that belong together. The
# lock makes concurrent tables, the points of a sweep, wait for one
# placement instead of each placing their own.
_lattice: _Lattice | None = None
_lattice_lock = threading.Lock()


def _shared_lattice(delta: float, n_terms: int, width: float) -> _Lattice:
    """The shared lattice of (delta, width), placed anew if it has fewer than ``n_terms`` cells."""
    global _lattice
    with _lattice_lock:
        lattice = _lattice
        if (lattice is None or lattice.delta != delta or lattice.width != width
                or lattice.n_terms < n_terms):
            # The old lattice is dropped before the new one is placed, so
            # that, with no table holding it, the two never coexist.
            lattice = _lattice = None
            lattice = _lattice = _place_lattice(delta, n_terms, width)
        return lattice


class StieltjesTable:
    """Mass/edge aggregation of a CDF over the uniform grid, for fast sweeps.

    Cells of the uniform grid are merged into blocks aligned to a fixed
    lattice of width ``block_log_width`` in log1p(x); each block stores its
    probability mass and the log1p of its left edge. Evaluating with the
    left edge overestimates every merged cell, so the result stays an upper
    bound on the expectation and exceeds the unmerged grid value by at most
    a factor exp(theta * block_log_width) - 1.

    The first grid cell of each block, the block lattice, depends on delta
    and block_log_width alone, not on the CDF. It is placed whole, in
    chunks of _TABLE_CHUNK (2^15) lattice ids, and shared: the first table
    of a (delta, block_log_width) pair places it, a table of more cells
    drops it and places a larger one, and every table takes the prefix of
    the starts with x <= (n_terms - 1) delta. The lattice keeps each start
    x = m delta beside its log edge; ``log_edges`` is a read-only view of
    the prefix, so the tables of one lattice share its log edges; a single
    table in a fresh process gains nothing. The number of blocks, and of the ids the
    placement handles, is at most 1 + log1p(delta * n_terms) /
    block_log_width, whatever the step. More than 2^53 cells raise
    ValueError.

    The build groups the blocks into segments of width 1/64 in log1p(x)
    and makes one pass over chunks of whole segments, each starting at the
    segment that holds a multiple of 2^15 blocks. A chunk evaluates the
    CDF once at its blocks' right edges, the next starts read from the
    lattice and the grid end for the last block, checks it and writes the
    masses, differences of the CDF across each block, into one
    preallocated array. While they are still in cache it stores, for each
    of its segments s with left edge L_s, the local moments sum of
    mass * (l - L_s)^k / k! for k = 0..18, and after the pass the same
    moments times L_s, for the slope.

    A table of at least 2^17 blocks splits its chunks into up to two
    contiguous parts of about equal block counts, one per CPU the process
    may run on; a smaller table, or one in a process bound to one CPU, is
    built by the calling thread alone. The calling thread runs the first part's
    chunks, a thread started for the build the second's, and the build
    joins it before it returns or raises. The second part's first mass is
    the CDF at its first right edge less that at the first part's last:
    it is written after the join, with the monotonicity check across the
    boundary, and the moments of the segment that holds it are summed
    then. Each segment's moments are one reduceat over its own blocks and
    chunk cuts never split a segment, so every mass and moment is that of
    the one-part build, bit for bit. A failed build raises the error the
    one-part build raises first, by chunk order: each part stops at its
    own first failure, or once a part before it has failed.

    An exponent t <= 64 is then summed
    as sum_s exp(-t L_s) * sum_k (-t)^k moment_{k,s}, which equals the
    staircase to rounding at the cost of one exp per segment.
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
        lattice = _shared_lattice(delta, n_terms, width)
        n = lattice.prefix(n_terms)
        self.log_edges, self.mass = lattice.log_edges[:n], np.empty(n)
        self._seg_left, first, cuts = _segments(self.log_edges)
        # Rows 0..18 hold the segment moments, rows 19..37 the same moments
        # weighted by each segment's left edge L, for the slope.
        terms = _SERIES_TERMS + 1
        self._seg_moments = np.empty((2 * terms, self._seg_left.size))
        moments = self._seg_moments[:terms]
        parts = _split_chunks(cuts, first,
                              min(_WORKERS, _MAX_PARTS) if n >= _MIN_SPLIT_BLOCKS else 1)

        def close(c0, c1, prev_f):
            """Check the CDF at the right edges of segments c0..c1-1 and write their masses.

            Returns the CDF at the first and at the last right edge.
            """
            # A block closes at the next block's start, the last one at the
            # grid end; the CDF there less the CDF where the block before
            # closed is its mass. The right edges are a lattice view, or in
            # the last chunk a copy left unnamed, freed before the check.
            # The CDF's output is freed on return, before the moment pass
            # takes two buffers like it; it is not reused, as the CDF may
            # return a read-only array or one it keeps.
            b0, b1 = int(first[c0]), int(first[c1])
            f = _chunk_masses(cdfv(lattice.x[b0 + 1:b1 + 1] if b1 < n else
                                   np.append(lattice.x[b0 + 1:n], n_terms * delta)),
                              prev_f, self.mass[b0:b1])
            return float(f[0]), float(f[-1])

        def sum_moments(c0, c1):
            b0, b1 = int(first[c0]), int(first[c1])
            if b0 < b1:
                _chunk_moments(self.log_edges[b0:b1], self.mass[b0:b1], first[c0:c1] - b0,
                               moments[:, c0:c1])

        # Per part: the CDF at its first right edge, set once its first chunk
        # passes its own checks, and at its last; the exception that stopped it.
        heads, tails, errors = [None] * len(parts), [0.0] * len(parts), [None] * len(parts)

        def build(p):
            part = parts[p]
            try:
                # The CDF where the part before this one ends is not known
                # yet: a later part's first mass is written after the join,
                # and the moments of its first segment are summed then.
                (c0, c1), *rest = part
                heads[p], prev_f = close(c0, c1, -math.inf if p else 0.0)
                sum_moments(c0 + 1 if p else c0, c1)
                for c0, c1 in rest:
                    if any(errors[:p]):  # an earlier part has failed the build
                        return
                    prev_f = close(c0, c1, prev_f)[1]
                    sum_moments(c0, c1)
                tails[p] = prev_f
            except BaseException as exc:
                errors[p] = exc

        def interrupted(exc):  # outside a chunk: stops every part, raised first
            errors[0] = errors[0] or exc

        _run_workers(build, len(parts), interrupted)
        # Parts in chunk order, each boundary checked before the part's own
        # failure, which comes later in chunk order or, on its first chunk,
        # before the boundary is read: the first failure is the one-part
        # build's.
        for p, part in enumerate(parts):
            if p and heads[p] is not None:
                # The boundary mass and its check, as a one-block chunk.
                c0 = part[0][0]
                b0 = int(first[c0])
                _chunk_masses(np.asarray(heads[p:p + 1]), tails[p - 1], self.mass[b0:b0 + 1])
                sum_moments(c0, c0 + 1)
            if errors[p] is not None:
                raise errors[p]
        moments /= np.cumprod(np.arange(float(terms)).clip(1.0))[:, None]
        np.multiply(moments, self._seg_left, out=self._seg_moments[terms:])
        self.end_survival = 1.0 - tails[-1]
        self.end_log_edge = math.log1p(n_terms * delta)
        # The exp pass's mass past each prefix cut, end survival included.
        self._tail_mass: dict[int, float] = {}

    def bound(self, theta: float) -> tuple[float, float]:
        """Upper bound on E[(1+X)^(-theta)] from the aggregated blocks, and its slope.

        The bound is the staircase sum plus _FACTOR_FLOOR, capped at 1. The
        slope is the derivative of its log in theta, -(l-weighted sum) /
        (sum + floor): minus the tilted mean of log1p(x) under the blocks'
        staircase where the floor is negligible, half that where the sum
        equals the floor, and 0 where the sum underflows. It comes from the
        sums the bound forms: the contraction of the L-weighted segment
        moments beside the moments on the series, the l-weighted sum of the
        same prefix on the exp pass.
        """
        if theta * _SEGMENT_WIDTH <= 1.0:
            # No BLAS: einsum without optimize runs numpy's own loops, so the
            # result does not depend on the BLAS thread pool.
            weights = np.exp(-theta * self._seg_left)
            sums = np.einsum("ks,s->k", self._seg_moments, weights).tolist()
            by_power, by_power_l = sums[:_SERIES_TERMS + 1], sums[_SERIES_TERMS + 1:]
            val = 0.0
            for moment in reversed(by_power):
                val = val * -theta + moment
            end = self.end_survival * math.exp(-theta * self.end_log_edge)
            val += end
            # sum of mass * l * exp(-t l), with l = L + (l - L): the moments
            # contracted with exp(-t L) * L, plus the series' own derivative
            # in t.
            first = by_power_l[_SERIES_TERMS]
            for k in reversed(range(_SERIES_TERMS)):
                first = first * -theta + by_power_l[k] + (k + 1) * by_power[k + 1]
            first += end * self.end_log_edge
        else:
            val, first = self._exp_pass(theta)
        val += _FACTOR_FLOOR
        return min(val, 1.0), -first / val

    def _exp_pass(self, theta: float) -> tuple[float, float]:
        """Staircase sum plus end term, from the shortest prefix of blocks that meets it.

        The prefixes are the leftmost subtrees of numpy's pairwise sum over
        all blocks, so each prefix sum is a partial result of the full pass,
        and the next one adds its right sibling's sum. The mass past a
        prefix, end survival included, lies at or above the prefix's cut;
        once that mass charged at the cut is at most _PREFIX_RTOL of the
        prefix sum, less than half an ulp of it, every later addition of
        the full pass rounds back to the prefix sum, and so does the bound.
        The mass past each cut is summed once per table. Returns the sum
        and the sum of each term times its log edge.
        """
        n = self.mass.size
        val = first = 0.0
        k = 0
        for cut in _pairwise_prefixes(n):
            log_left, mass = self.log_edges[k:cut], self.mass[k:cut]
            val += _staircase_sum(log_left, mass, theta)
            first += _staircase_sum(log_left, mass * log_left, theta)
            k = cut
            if k == n:
                break
            survival = self._tail_mass.get(k)
            if survival is None:
                survival = self._tail_mass[k] = float(self.mass[k:].sum()) + self.end_survival
            cut_edge = float(self.log_edges[k])
            charge = survival * math.exp(-theta * cut_edge)
            if charge <= _PREFIX_RTOL * val:
                return val + charge, first + charge * cut_edge
        end = self.end_survival * math.exp(-theta * self.end_log_edge)
        return val + end, first + end * self.end_log_edge


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


def _segments(log_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(left edge L_s, first block, chunk cuts) of the segments that hold a block.

    Segment s holds the blocks whose log edge l has floor(l / width) = s,
    that is s * width <= l; it spans blocks first[s] to first[s + 1], and
    the first blocks end with the block count. A chunk runs from one cut
    to the next: it starts at the segment that holds a multiple of
    _TABLE_CHUNK blocks, so that no segment is split, and the last cut is
    the segment count.
    """
    n = log_edges.size
    lattice = np.arange(math.floor(log_edges[-1] / _SEGMENT_WIDTH) + 1.0) * _SEGMENT_WIDTH
    first = np.searchsorted(log_edges, lattice)
    held = np.diff(first, append=n) > 0
    first = np.append(first[held], n)
    cuts = np.unique(np.searchsorted(first, np.arange(0, n, _TABLE_CHUNK), side="right") - 1)
    return lattice[held], first, cuts.tolist() + [first.size - 1]


def _run_workers(work, count: int, fail) -> None:
    """Run work(0) on the calling thread and work(1), ..., work(count - 1) on threads.

    The threads are started here and joined before this returns, also if
    the calling thread is interrupted. An exception raised outside work,
    such as an interrupt while the threads start or are joined, goes to
    fail at once; work handles its own.
    """
    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, count)]
    try:
        for thread in threads:
            thread.start()
        work(0)
    except BaseException as exc:
        fail(exc)
    for thread in threads:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:
                fail(exc)


def _split_chunks(cuts: list[int], first: np.ndarray, workers: int) -> list[list[tuple[int, int]]]:
    """The chunks between ``cuts``, segment ranges (c0, c1), in up to ``workers`` contiguous parts.

    Part p starts at the chunk whose first block, first[c0], lies nearest
    p / workers of the blocks, so parts hold about equal block counts;
    parts that would start at one chunk are merged. No chunk is cut, so a
    failing build checks each chunk as the one-part build does.
    """
    starts = first[cuts[:-1]]
    targets = np.arange(workers) * (first[-1] / workers)
    bounds = sorted({int(np.abs(starts - t).argmin()) for t in targets.tolist()} | {len(starts)})
    chunks = list(zip(cuts, cuts[1:]))
    return [chunks[i:j] for i, j in zip(bounds, bounds[1:])]


def _chunk_moments(edges: np.ndarray, mass: np.ndarray, local: np.ndarray,
                   out: np.ndarray) -> None:
    """Write to out[k] the sums of mass * (l - L)^k, k = 0..18, over each segment.

    ``edges`` and ``mass`` are those of the blocks of whole segments whose
    first blocks are at ``local``; L is the left edge of a block's segment.
    """
    # offset = edges - floor(edges / width) * width
    offset = np.divide(edges, _SEGMENT_WIDTH)
    np.floor(offset, out=offset)
    offset *= _SEGMENT_WIDTH
    np.subtract(edges, offset, out=offset)
    powers = mass.copy()
    out[0] = np.add.reduceat(powers, local)
    for k in range(1, _SERIES_TERMS + 1):
        powers *= offset
        out[k] = np.add.reduceat(powers, local)


def _node_values(ln_mean: float, ln_sigma: float, step: float, k0: int, k1: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(z^2 / 2, ln(1 + x)) at the lattice nodes z = k step, k = k0..k1-1."""
    z = np.arange(k0, k1, dtype=float) * step
    return 0.5 * z * z, np.logaddexp(0.0, ln_mean + ln_sigma * z)


@dataclass(frozen=True)
class _NodeLattice:
    """The exact rule's node values for one key over k = k_lo..k_hi-1, read-only.

    The key is (ln_mean, ln_sigma, step): the channel and the lattice step.
    ``half_sq`` holds z^2 / 2 and ``log_gain`` ln(1 + x) at each node
    z = k step, x being the SNR there. Each value depends on its k alone,
    not on the range it was placed with.
    """

    key: tuple[float, float, float]
    k_lo: int
    k_hi: int
    half_sq: np.ndarray
    log_gain: np.ndarray

    def holds(self, key: tuple[float, float, float], k0: int, k1: int) -> bool:
        return self.key == key and self.k_lo <= k0 and k1 <= self.k_hi


# The node values of the last channel and step the exact rule asked for,
# over the union of the windows asked for since, up to _NODE_LATTICE_MAX
# nodes. Swapped whole, as _lattice is, so a reader that takes it once sees
# a key and arrays that belong together, and a window it holds needs no
# lock; the lock makes concurrent callers wait for one extension instead
# of each placing their own, and keeps one caller's extension from
# dropping another's.
_nodes: _NodeLattice | None = None
_nodes_lock = threading.Lock()


def _node_lattice(ln_mean: float, ln_sigma: float, step: float, k0: int, k1: int
                  ) -> _NodeLattice:
    """The shared node values, extended or replaced so that they hold k = k0..k1-1."""
    global _nodes
    key = (ln_mean, ln_sigma, step)
    nodes = _nodes
    if nodes is not None and nodes.holds(key, k0, k1):
        return nodes
    with _nodes_lock:
        nodes = _nodes
        if nodes is not None and nodes.holds(key, k0, k1):
            return nodes
        same = nodes is not None and nodes.key == key
        lo, hi = (min(k0, nodes.k_lo), max(k1, nodes.k_hi)) if same else (k0, k1)
        if same and hi - lo <= _NODE_LATTICE_MAX:
            parts = (_node_values(*key, lo, nodes.k_lo), (nodes.half_sq, nodes.log_gain),
                     _node_values(*key, nodes.k_hi, hi))
            half_sq, log_gain = (np.concatenate(arrays) for arrays in zip(*parts))
        else:
            lo, hi = k0, k1
            half_sq, log_gain = _node_values(*key, lo, hi)
        half_sq.flags.writeable = log_gain.flags.writeable = False
        nodes = _nodes = _NodeLattice(key, lo, hi, half_sq, log_gain)
        return nodes


def _log_integrand_peak(ln_mean: float, ln_sigma: float, theta: float) -> float:
    """A z within 0.025 of the peak of f(z) = -z^2/2 - theta ln(1 + exp(ln_mean + ln_sigma z)).

    f'(z) = -z - theta ln_sigma p, with p = x / (1 + x) and x the SNR at z,
    and f''(z) = -1 - theta ln_sigma^2 p (1 - p) <= -1, so any z with
    |f'(z)| <= 0.025 lies within 0.025 of the peak: the search returns the
    first such z. Its Newton steps go in s = ln(-ln_sigma z), where the
    peak equation f' = 0 reads F(s) = s + softplus(e^s - ln_mean) - c = 0,
    c = ln(theta ln_sigma^2), with F convex and increasing. From a start
    where F >= 0 they fall monotonically onto the root, in at most six
    steps at gains of -10 to 60 dB, where Newton on f' in z moves about
    1 / ln_sigma per step on the exponential side of the peak. Two upper bounds on e^s
    at the root give the start: e^c, and k = c + ln_mean when k >= 1.
    The step cap ends the search only where z is too large for its floats
    to resolve the tolerance.
    """
    if theta == 0.0:
        return 0.0
    c = math.log(theta) + 2.0 * math.log(ln_sigma)
    k = c + ln_mean
    s = c if k < 1.0 else min(c, math.log(k))
    for _ in range(_PEAK_STEPS):
        y = math.exp(s)
        # p and q = 1 - p at z = -y / ln_sigma, without overflow.
        if y < ln_mean:
            e = math.exp(y - ln_mean)
            p = 1.0 / (1.0 + e)
            q = e * p
            softplus = math.log1p(e)
        else:
            e = math.exp(ln_mean - y)
            q = 1.0 / (1.0 + e)
            p = e * q
            softplus = (y - ln_mean) + math.log1p(e)
        if abs(y / ln_sigma - theta * ln_sigma * p) <= 0.025:
            break
        s -= (s + softplus - c) / (1.0 + y * q)
    return -y / ln_sigma


def _lognormal_log_exact(channel: ShadowingChannel, theta: float,
                         step: float = _TRAPEZOID_STEP,
                         half_width: float = _TRAPEZOID_HALF_WIDTH) -> tuple[float, float]:
    """ln E[(1+X)^(-theta)] of the log-normal SNR by a trapezoid rule in z, and its slope.

    Substitutes x = exp(ln10/10 * (mean_db + sigma_db z)) with z standard
    normal. The log-integrand f(z) = -z^2/2 - theta ln(1 + x) is concave
    with curvature at most -1. The nodes lie on the fixed lattice
    z = k step (by default 0.05), the round(half_width / step) of them
    either side of the node c nearest a z within 0.025 of the peak of f
    (``_log_integrand_peak``): 481 nodes by default, reaching at least
    11.95 past the peak, so past the last node the integrand is below
    exp(-71) of its peak value. The rule is exponentially accurate in its
    step whatever its nodes' offset, so the value and slope match a rule
    centred on the peak within 1e-12 relative. z^2 / 2 and ln(1 + x) at
    the nodes come from the shared lattice of the channel and step
    (``_node_lattice``), so a call only combines them. exp(f) is summed
    relative to its largest term, so no exponent overflows or underflows
    whatever theta is. The slope, the derivative of the log in theta at
    fixed nodes, is minus the mean of ln(1 + x) under the same weights.
    """
    ln_mean = DB_TO_LN * channel.mean_snr_db
    ln_sigma = DB_TO_LN * channel.sigma_db
    half = round(half_width / step)
    centre = round(_log_integrand_peak(ln_mean, ln_sigma, theta) / step)
    nodes = _node_lattice(ln_mean, ln_sigma, step, centre - half, centre + half + 1)
    window = slice(centre - half - nodes.k_lo, centre + half + 1 - nodes.k_lo)
    log_gain = nodes.log_gain[window]
    # f = -theta ln(1 + x) - z^2 / 2, in one buffer reused for the weights.
    f = log_gain * -theta
    f -= nodes.half_sq[window]
    top = float(f.max())
    f -= top
    weights = np.exp(f, out=f)
    total = float(weights.sum())
    weights *= log_gain
    ln_weight = math.log(step / math.sqrt(2.0 * math.pi))
    return top + math.log(total) + ln_weight, -float(weights.sum()) / total


def exact_inverse_moment(channel: ShadowingChannel, theta: float, with_slope: bool = False):
    """E[(1+X)^(-theta)] of a channel's SNR, the step -> 0 reference.

    A fixed-step trapezoid rule in the Gaussian variable, summed in the log
    domain (``_lognormal_log_exact``); halving its step or widening its
    window moves the log by less than 1e-12 relative. A deterministic
    channel (sigma_db == 0) takes the closed form instead. The value is the
    moment plus _FACTOR_FLOOR, capped at 1. With ``with_slope``, returns
    (value, slope), the slope being the derivative of the value's log in
    theta: that of the moment's log scaled by moment / value, so half of
    it where the moment equals the floor. Raises TypeError unless
    ``channel`` is a ShadowingChannel and ValueError for a negative,
    infinite or NaN theta.
    """
    if not isinstance(channel, ShadowingChannel):
        raise TypeError("exact_inverse_moment needs a ShadowingChannel")
    if not 0 <= theta < math.inf:
        raise ValueError("theta must be non-negative and finite")
    if channel.sigma_db == 0.0:
        log_gain = math.log1p(channel.median_snr)
        log_value, slope = -theta * log_gain, -log_gain
    else:
        log_value, slope = _lognormal_log_exact(channel, theta)
    moment = math.exp(log_value)
    value = moment + _FACTOR_FLOOR
    slope *= moment / value
    value = 1.0 if theta == 0 else min(value, 1.0)
    return (value, slope) if with_slope else value
