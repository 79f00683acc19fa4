"""Slotted fluid-queue Monte Carlo for validating the analytical bounds.

Two estimators. ``stationary_tails``, which the CLI runs, estimates the
stationary P(B > x) and P(D > w) that the bounds speak about, by
mean-shifted importance sampling of the Loynes walk; each replication
stops at its first passage over every level, a few tens of slots in. It
reads the first 112 slots of each group of 1024 replications from one
group stream, slot after slot, and only a replication still open after
them draws on from its own stream, described below, in rounds of up to
256 slots (see its docstring).
``run_experiment`` is the plain reference: the transient backlog and
delay after a fixed horizon from an empty buffer, described below, with
every slot drawn from the replication's own stream.

Each replication draws an independent service sample path, evolves the
backlog by the max(., 0) recursion from an empty buffer, and reads the
backlog at the horizon. The virtual delay of the data present at the
horizon is the number of additional slots of fresh service needed to
drain that backlog, which under FCFS equals the first w with
D(0, t+w) >= A(0, t).

Replication i's own stream is numpy's spawn-key child of the master
seed: Generator(PCG64(SeedSequence(entropy=master_seed,
spawn_key=(i,)))), bit for bit. The seed words of many indices are
derived in one array pass over uint32 words; only the spawn word changes
with i, so the seed's share of numpy's hash is computed once per pass.

A replication's backlog at the horizon T comes from the min-plus
identity B(T) = max(0, sup_s [A(s,T) - S(s,T)]) over cumulative arrivals
A and cumulative service S, both centred on a constant c, the channel's
capacity at the median SNR: S'_k = cumsum(s - c) and A'_k = cumsum(a -
c). The walk W = A' - S' then gives B(T) = W_T - min(0, min_k W_k). The
centre keeps the sums near zero, so the backlog carries the rounding of
the walk, not of the whole service. The drain that measures the delay
continues the replication's stream from the end of its horizon draws.

Replications are evaluated in blocks of rows, one row per replication,
with each array operation applied to the whole block at once. Every row
draws from its own stream in the same order as a lone replication would,
and the arithmetic on a row does not depend on the rows beside it, so no
sample depends on the block size, the seeding chunk or the order in
which replications run. Blocks are therefore spread over one worker per
available CPU, but no more than leave each 16 rows of a block, the
caller and threads that end with the call, each with its own buffers and
rows of the outputs. numpy releases the GIL inside the normal draws and
the elementwise passes (exp, log1p, the subtractions and the minimum),
most of a block; the prefix sum holds it. The workers split one block's
worth of slots, so memory does not grow with the number of CPUs.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .arrival import AffineEnvelope, generate_arrivals
from .bounds import stability_region
from .channel import DB_TO_LN, ShadowingChannel, _snr_from_normals, capacity_bits_per_slot
# _WORKERS, one block worker per CPU this process may run on, is the table
# build's count too, so that the CPUs the process may use decide both; the
# two start and join their threads alike, by _run_workers.
from .inverse_moment import _WORKERS, _log_integrand_peak, _run_workers
from .service import ServiceCharacterization

DELAY_SEARCH_CAP = 10_000
# One spawn word, below 2^32, names each replication.
MAX_REPLICATIONS = 1 << 32
_DRAIN_CHUNK = 256
# Slots held by the block buffers of one call (2 MiB of float64): the
# _BLOCK_CELLS // max(horizon, _DRAIN_CHUNK) rows, at least one, are split
# evenly between the workers, and each worker's block has its share.
_BLOCK_CELLS = 1 << 18
# Replication indices whose seed words are derived in one array pass.
_SEED_CHUNK = 1024
# Slots that stationary_tails draws per row in its first round; each round
# doubles the last, up to the widest, which repeats up to DELAY_SEARCH_CAP.
# A row's own stream costs about 20 ns a normal and 1.4 us a draw call, so a
# round past the group prefix is cut at 256 slots: wider rounds draw more
# normals past the rows' passages than the calls they save.
_TAIL_FIRST_ROUND = 16
_TAIL_LAST_ROUND = 256
# Slots that one batch of a stationary_tails round holds (256 KiB of
# float64), or one row of the widest round if that is more: a round's rows
# are taken in batches that fit, each paying a fixed bookkeeping cost per
# point. In the prefix a group stream draws half as many slots at a time,
# _ROUND_CELLS // (2 * _TAIL_GROUP), at least one, and its batches hold one
# such piece.
_ROUND_CELLS = 1 << 15
# Replications whose stationary_tails weights are summed together, and
# whose first _TAIL_PREFIX slots come from one group stream: the first
# three rounds, 16 + 32 + 64.
_TAIL_GROUP = 1024
_TAIL_PREFIX = 112
# A call starts no more workers than leave each at least this many rows per
# block: per-block Python work and GIL hand-offs dominate smaller blocks.
_MIN_WORKER_ROWS = 16


@dataclass(frozen=True)
class SimConfig:
    """Replication plan: observation horizon, count, and seeding.

    Each field is an integer, kept as a Python int: a float, even an
    integral one, or a bool raises TypeError naming the field.
    """

    horizon_slots: int = 2000
    replications: int = 10000
    master_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("horizon_slots", "replications", "master_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be at least 1")
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise ValueError(f"replications must be between 1 and {MAX_REPLICATIONS}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")


def _integer(name: str, value) -> int:
    """value as a Python int. A float, even an integral one, a bool or a
    non-number raises TypeError naming the argument ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """Child generator for one replication, deterministic in (seed, index).

    Equal bit for bit to numpy's spawn-key scheme with a pinned PCG64 bit
    generator, Generator(PCG64(SeedSequence(entropy=master_seed,
    spawn_key=(index,)))), for 0 <= index < MAX_REPLICATIONS, so streams
    are reproducible and independent of the order in which replications
    run. The seed words come from the derivation that run_experiment
    applies to whole chunks of indices, here on one Python int.
    """
    index = operator.index(index)
    if not 0 <= index < MAX_REPLICATIONS:
        raise ValueError(f"replication index must lie in [0, {MAX_REPLICATIONS})")
    return _generator(_seed_words(*_run_pool(master_seed), index))


def _replication_rngs(master_seed: int, indices: np.ndarray):
    """Yield replication_rng(master_seed, i) for each i of indices, an
    integer array of replication indices.

    The seed words of _SEED_CHUNK indices at a time come from one array
    pass, and each generator is made when it is taken.
    """
    pool, const = _run_pool(master_seed)
    for lo in range(0, indices.size, _SEED_CHUNK):
        for words in _seed_words(pool, const, indices[lo:lo + _SEED_CHUNK].astype(np.uint32)):
            yield _generator(words)


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


class _SeedWords(ISeedSequence):
    """The four precomputed uint64 words that seed one PCG64, handed over
    once: the seeded generator holds no copy of them."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64 or self.words is None:
            raise ValueError("holds the four uint64 words of one PCG64 seed only, once")
        words, self.words = self.words, None
        return words


# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(value, const: int, mult: int = _MULT_A):
    """numpy's hashmix of value, a word or a uint32 array: (hash, next constant)."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x: int, y):
    """numpy's mix of pool word x with y, a word or a uint32 array."""
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _run_pool(master_seed: int) -> tuple[list[int], int]:
    """SeedSequence's pool and hash constant after the run entropy.

    This is mix_entropy up to the spawn word, which comes last. A spawn
    key pads the entropy words of master_seed (little-endian uint32, one
    word for 0) with zeros to the pool size.
    """
    seed = operator.index(master_seed)
    if seed < 0:
        raise ValueError("master_seed must be non-negative")
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, const


def _seed_words(pool: list[int], const: int, spawn) -> np.ndarray:
    """generate_state(4, np.uint64) of the SeedSequence of each spawn word.

    spawn is one word, a Python int, or a uint32 array of them. It is
    mixed into the pool from _run_pool, and the pool is hashed out to 8
    uint32 words, read as 4 little-endian uint64 words: shape (4,) for
    one word, (spawn.size, 4) for an array.
    """
    mixed = []
    for word in pool:
        hashed, const = _hashmix(spawn, const)
        mixed.append(_mix(word, hashed))
    state = []
    const = _INIT_B
    for j in range(2 * _POOL_SIZE):
        word, const = _hashmix(mixed[j % _POOL_SIZE], const, _MULT_B)
        state.append(word)
    state = np.ascontiguousarray(np.array(state, dtype="<u4").T)
    return state.view("<u8").astype(np.uint64)


def _draw_service(channel: ShadowingChannel, rngs, out: np.ndarray) -> None:
    """Fill row i of out with service bits from rngs[i], in place.

    The operations and their order are those of
    capacity_bits_per_slot(channel, sample_snr(channel, rng, n)), so a
    stream redrawn through those functions gives the same bits.
    """
    _draw_normals(rngs, out)
    _snr_from_normals(channel, out)
    np.log1p(out, out=out)
    out *= channel.bits_per_nat


def _draw_normals(rngs, out: np.ndarray) -> None:
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)


def _drain(
    channel: ShadowingChannel, rngs, backlog: np.ndarray, buf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slots of fresh service that clear each backlog: (delays, censored).

    Rows with a positive backlog draw _DRAIN_CHUNK slots a round from
    their own generators until the cumulative service reaches the backlog
    or DELAY_SEARCH_CAP slots have been drawn; buf holds one round.
    """
    delay = np.zeros(backlog.size, dtype=np.int64)
    live = np.flatnonzero(backlog > 0.0)
    drained = np.zeros(live.size)
    w = 0
    while live.size and w < DELAY_SEARCH_CAP:
        width = min(_DRAIN_CHUNK, DELAY_SEARCH_CAP - w)
        cum = buf[: live.size * width].reshape(live.size, width)
        _draw_service(channel, [rngs[i] for i in live], cum)
        np.cumsum(cum, axis=1, out=cum)
        cum += drained[:, None]
        hit = cum >= backlog[live, None]
        first = hit.argmax(axis=1)
        done = hit[np.arange(live.size), first]
        delay[live[done]] = w + first[done] + 1
        drained = cum[~done, -1]
        live = live[~done]
        w += width
    delay[live] = DELAY_SEARCH_CAP
    censored = np.zeros(backlog.size, dtype=bool)
    censored[live] = True
    return delay, censored


def _replicate(env: AffineEnvelope, channel: ShadowingChannel, horizon: int, rngs,
               count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replicate once for each of the count generators in rngs: (backlogs,
    delays, censored), one entry per generator.

    The generators are taken a block of rows at a time. Each row draws its
    horizon's normals and turns them, in place, into its walk W = A' - S':
    the cumulative service centred on the channel's capacity c at the
    median SNR, S' = cumsum(s - c), subtracted from the cumulative
    arrivals on the same centre, A' = cumsum(a - c), one row summed before
    the first block. The backlog is W_T - min(0, min_k W_k), and the drain
    then continues the row's stream from the end of its horizon draws. The
    rows of one block's worth of slots are split between the workers: the
    caller and threads joined before it returns or raises, as many as get
    at least 16 rows each (one if none would), each with one buffer pair
    made before any thread starts. So memory grows neither with the number
    of CPUs nor, beyond the outputs and the arrival row, with count. The
    first failure, an interrupt included, stops every worker; the call
    raises the lowest block's failure.
    """
    if horizon < 1:
        raise ValueError("horizon_slots must be at least 1")
    rngs = iter(rngs)
    rows = max(1, _BLOCK_CELLS // max(horizon, _DRAIN_CHUNK))
    workers = min(_WORKERS, max(1, rows // _MIN_WORKER_ROWS))
    rows //= workers
    centre = capacity_bits_per_slot(channel, channel.median_snr)
    cum_arrivals = np.cumsum(generate_arrivals(env, horizon) - centre)
    backlogs = np.empty(count)
    delays = np.empty(count, dtype=np.int64)
    censored = np.empty(count, dtype=bool)

    def replicate_block(start, block, walk_buf, drain_buf):
        walk = walk_buf[: len(block) * horizon].reshape(len(block), horizon)
        _draw_service(channel, block, walk)
        walk -= centre
        np.cumsum(walk, axis=1, out=walk)
        np.subtract(cum_arrivals, walk, out=walk)
        rows_of_block = slice(start, start + len(block))
        backlog = backlogs[rows_of_block]
        np.subtract(walk[:, -1], np.minimum(walk.min(axis=1), 0.0), out=backlog)
        delays[rows_of_block], censored[rows_of_block] = _drain(
            channel, block, backlog, drain_buf)

    pairs = [(np.empty(rows * horizon), np.empty(rows * _DRAIN_CHUNK))
             for _ in range(min(workers, -(-count // rows)))]
    starts = iter(range(0, count, rows))
    lock = threading.Lock()
    failures = {}  # block start -> the exception that stopped its worker

    def work(i):
        walk_buf, drain_buf = pairs[i]
        start = count
        try:
            while True:
                with lock:
                    start = next(starts, count)
                    if start == count or failures:
                        return
                    block = list(itertools.islice(rngs, rows))
                replicate_block(start, block, walk_buf, drain_buf)
        except BaseException as exc:
            failures.setdefault(start, exc)

    # An interrupt outside a block stops every worker and ranks last.
    _run_workers(work, len(pairs), lambda exc: failures.setdefault(count, exc))
    if failures:
        raise failures[min(failures)]
    return backlogs, delays, censored


def run_replication(
    env: AffineEnvelope,
    channel: ShadowingChannel,
    horizon_slots: int,
    rng: np.random.Generator,
) -> tuple[float, int, bool]:
    """One independent replication: (backlog bits, virtual delay slots, censored).

    The backlog follows B_k = max(B_{k-1} + a_k - s_k, 0) from B_0 = 0.
    The virtual delay is capped at DELAY_SEARCH_CAP; a censored sample
    counts as exceeding every finite threshold downstream.
    """
    backlog, delay, censored = _replicate(env, channel, horizon_slots, (rng,), 1)
    return float(backlog[0]), int(delay[0]), bool(censored[0])


@dataclass
class SimOutcome:
    """Empirical tail statistics across replications.

    backlog_samples and delay_samples are aligned by replication index;
    ``censored`` marks delay samples that hit the search cap and must be
    treated as exceeding every finite threshold.
    """

    backlog_samples: np.ndarray
    delay_samples: np.ndarray
    censored: np.ndarray
    master_seed: int

    @property
    def replications(self) -> int:
        return int(self.backlog_samples.size)

    def exceedance(self, threshold: float, kind: str = "backlog", z: float = 1.96):
        """Empirical P(sample > threshold) with a Wilson confidence half-width."""
        if kind == "backlog":
            count = int(np.count_nonzero(self.backlog_samples > threshold))
        elif kind == "delay":
            exceeds = (self.delay_samples > threshold) | self.censored
            count = int(np.count_nonzero(exceeds))
        else:
            raise ValueError("kind must be 'backlog' or 'delay'")
        n = self.replications
        p_hat = count / n
        half = wilson_halfwidth(count, n, z)
        return p_hat, half


def wilson_halfwidth(successes: int, n: int, z: float = 1.96) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    denom = n + z * z
    return (z / denom) * math.sqrt(successes * (n - successes) / n + z * z / 4.0)


def run_experiment(
    env: AffineEnvelope, channel: ShadowingChannel, config: SimConfig
) -> SimOutcome:
    """Run the configured replications and collect samples by index.

    Replication i runs on replication_rng(master_seed, i), so the outcome
    is identical for any execution order.
    """
    rngs = _replication_rngs(config.master_seed, np.arange(config.replications))
    backlogs, delays, censored = _replicate(env, channel, config.horizon_slots, rngs,
                                            config.replications)
    return SimOutcome(backlogs, delays, censored, config.master_seed)


@dataclass(frozen=True)
class _TailPoint:
    """The walk of one distinct (envelope, channel) of stationary_tails, in
    nats: a slot adds rate - log1p(exp(offset - slope * z0)) to W for its
    stream normal z0, that is (r - s) / bits_per_nat for the service s at
    the shifted normal z0 + shift."""

    levels: np.ndarray  # distinct, in bits (backlog) or whole slots (delay)
    finite: int  # how many levels are finite, the ones a row can pass
    thresholds: np.ndarray  # each level's threshold on W, in nats
    rate: float  # r / bits_per_nat
    slope: float  # ln_sigma
    offset: float  # ln_mean - ln_sigma * shift
    shift: float  # z_p
    half_square: float  # z_p^2 / 2, each slot's share of minus the log ratio


def _tail_point(env: AffineEnvelope, channel: ShadowingChannel, kind: str,
                levels: np.ndarray, edge: float | None) -> _TailPoint | None:
    """The walk of one point over its distinct levels, or None where the
    stable walk never rises above 0: a deterministic channel or a
    zero-rate flow. The shift comes from edge, the point's exact-mode
    stability edge, when given; otherwise the edge is searched here, and a
    point outside the exact-mode stability region raises ValueError."""
    if edge is None:
        region = stability_region(env, ServiceCharacterization(channel, exact=True))
        if region.is_empty:
            raise ValueError(f"no stationary tail: {env} on {channel} is not stable")
        edge = region.theta_upper
    if channel.sigma_db == 0.0 or env.rate_bits_per_slot == 0.0:
        return None
    if not math.isfinite(edge):
        raise ValueError(f"edges must be finite where the walk is random, got {edge!r}")
    ln_mean = DB_TO_LN * channel.mean_snr_db
    ln_sigma = DB_TO_LN * channel.sigma_db
    shift = -_log_integrand_peak(ln_mean, ln_sigma, edge * channel.bits_per_nat)
    rate = env.rate_bits_per_slot / channel.bits_per_nat
    levels = np.unique(levels)
    thresholds = levels * rate if kind == "delay" else levels / channel.bits_per_nat
    return _TailPoint(levels, int(np.isfinite(levels).sum()), thresholds, rate, ln_sigma,
                      ln_mean - ln_sigma * shift, shift, 0.5 * shift * shift)


def stationary_tails(points, kind: str, levels, replications: int, master_seed: int,
                     edges=None) -> list[list[tuple[float, float, int]]]:
    """Stationary P(B > x) or P(D > w) at each (envelope, channel) point and
    level, by mean-shifted importance sampling: per point, one (estimate,
    half-width, capped count) per level in ``levels[p]``. ``edges``, if
    given, holds each point's exact-mode stability edge theta*, the
    theta_upper of stability_region under the exact-mode service; the
    points are then taken as stable and their edges are not searched again.
    Each edge must be positive, and finite where the walk is random: an
    infinite one, a zero-rate flow's, is taken only at a point that never
    queues. Any other raises ValueError before anything is drawn.

    The tails. With constant arrivals r per slot and i.i.d. service s_i,
    Loynes' construction gives the stationary backlog as B = sup_{m>=0}
    W_m, with W_m = m*r - (s_1 + ... + s_m) over the m slots before the
    observation, latest first. So P(B > x) = P(tau < inf) for tau the first
    m with W_m > x. The delay is FCFS: the data present leave once fresh
    service reaches B, so D > w iff B > s'_1 + ... + s'_w over the next w
    slots. Put those w slots in front of the past ones: B - (s'_1 + ... +
    s'_w) = sup_{k>=0} (k*r - s'_1 - ... - s'_w - s_1 - ... - s_k), a sum of
    m = w + k i.i.d. services, so D > w iff W_m > w*r at some m >= w. As
    W_m <= m*r, no m < w passes w*r anyway: D > w iff B > w*r, and a
    delay level w is walked as the backlog level w*r. A delay level is
    read as whole slots, rounded down, since D is.

    The sampling (Siegmund 1976; Asmussen & Glynn, Stochastic Simulation,
    ch. VI). Replication i shifts each normal z0 of its path, drawn as
    described below, by z_p: the slot draws from N(z_p, 1), and the row
    carries the likelihood ratio L_m =
    prod phi(z)/phi(z - z_p) = prod exp(-z_p*z + z_p^2/2) over z = z0 + z_p,
    that is exp(-z_p * (z0_1 + ... + z0_m) - m * z_p^2 / 2). z_p is the
    peak of the normal law tilted at the Lundberg root theta*, the
    exact-mode stability edge: minus _log_integrand_peak at exponent
    theta* * bits_per_nat, the sign of z being reversed here, where a
    larger z is a deeper fade. Under the shift the walk drifts up, so a
    row stops at its first passage over every level, a few tens of slots
    in, and its weight at a level is L_tau, unbiased for any z_p. A row
    still below a level after DELAY_SEARCH_CAP slots takes L at the cap
    there and counts as capped, so in expectation the estimate errs high,
    never low: E[L_tau; cap < tau < inf] = P(cap < tau < inf) <= P(tau >
    cap) = E[L_cap; tau > cap].
    The estimate is the mean weight, and the half-width 1.96 times the
    weights' sample standard deviation over sqrt(replications) (infinite
    for one replication). L_cap is all but 0 on a long path, so a level
    with a capped row is unresolved: its half-width is infinite. A
    deterministic channel or a zero-rate flow never queues when stable:
    every estimate and half-width is 0.0, with no draws. An infinite level
    is never passed: 0.0 too.

    Streams and sums (L'Ecuyer, Simard, Chen & Kelton 2002: streams and
    substreams). Replications run in groups of _TAIL_GROUP = 1024
    indices, and group g owns one stream, numpy's
    Generator(PCG64(SeedSequence(entropy=master_seed, spawn_key=(g, 1)))),
    which no replication stream equals. Slot m <= _TAIL_PREFIX = 112 of
    replication i is normal (m - 1) * 1024 + (i mod 1024) of its group's
    stream: the group draws each slot for all 1024 indices, those of
    closed rows and of a short last group included, and stops at the
    first piece of slots in which none of its rows is open. Slot m > 112 is
    draw m - 113 of replication_rng(master_seed, i), the stream that
    run_experiment reads, made only when the row first needs it and
    dropped once the row has passed every level. So a row's normals
    depend on (master_seed, i, m) alone. Rows draw in rounds of 16, 32,
    ... slots, at most 256, until every level of every point is passed or
    the cap is reached, a group's stream in pieces of _ROUND_CELLS // 2048
    slots; each point turns the same normals into its own walk. A round's
    rows are taken in batches of at most _ROUND_CELLS slots, one piece in
    the prefix. The levels of a point are sorted, so a row passes them in
    order, and a count per row tells which it has passed. A row's walk and
    its sum of normals are sequential prefix sums, each round's added to
    the last round's end, so they carry the same bits however the rounds
    are cut and whether a batch is laid out by row or, as in the prefix,
    by slot. Nothing done to a row depends on the rows beside it, and a
    group's weights are summed per level and the group sums added in index
    order, so no result depends on the batches, the rounds, the other
    points or the replication count beyond the group: each point's
    estimates equal, bit for bit, those of the point alone, and equal
    points share one walk. Memory holds one group, whatever the
    replication count.
    """
    if kind not in ("backlog", "delay"):
        raise ValueError("kind must be 'backlog' or 'delay'")
    replications = _integer("replications", replications)
    master_seed = _integer("master_seed", master_seed)
    if not 1 <= replications <= MAX_REPLICATIONS:
        raise ValueError(f"replications must be between 1 and {MAX_REPLICATIONS}")
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    points = list(points)
    levels = [np.array(point_levels, dtype=float) for point_levels in levels]
    if len(levels) != len(points):
        raise ValueError("levels must hold one sequence per point")
    edges = [None] * len(points) if edges is None else list(edges)
    if len(edges) != len(points):
        raise ValueError("edges must hold one value per point")
    for edge in edges:
        if edge is not None and not edge > 0.0:
            raise ValueError(f"edges must be positive, got {edge!r}")
    if any(not np.all(lv >= 0.0) for lv in levels):
        raise ValueError("levels must be non-negative")
    if kind == "delay":
        levels = [np.floor(lv) for lv in levels]
    # Equal points share one walk over the union of their levels.
    merged: dict = {}
    for point, point_levels, edge in zip(points, levels, edges):
        merged.setdefault(point, (edge, []))[1].append(point_levels)
    specs = {point: _tail_point(*point, kind, np.concatenate(parts), edge)
             for point, (edge, parts) in merged.items()}
    walked = [(point, spec) for point, spec in specs.items() if spec is not None]
    sums = {point: np.zeros((3, spec.levels.size)) for point, spec in walked}
    if walked:
        for start in range(0, replications, _TAIL_GROUP):
            for (point, _), (weights, capped) in zip(walked, _tail_group(
                    [spec for _, spec in walked], master_seed, start,
                    min(_TAIL_GROUP, replications - start))):
                point_sums = sums[point]
                point_sums[0] += weights.sum(axis=1)
                np.square(weights, out=weights)
                point_sums[1] += weights.sum(axis=1)
                point_sums[2] += capped.sum(axis=1)

    n = replications
    results = []
    for point, point_levels in zip(points, levels):
        spec = specs[point]
        if spec is None:
            results.append([(0.0, 0.0, 0)] * point_levels.size)
            continue
        total, squares, capped = sums[point][:, np.searchsorted(spec.levels, point_levels)]
        row = []
        for s1, s2, c in zip(total.tolist(), squares.tolist(), capped.tolist()):
            var = max(s2 - s1 * s1 / n, 0.0) / (n - 1) if n > 1 and not c else math.inf
            row.append((s1 / n, 1.96 * math.sqrt(var / n), int(c)))
        results.append(row)
    return results


def _group_rng(master_seed: int, group: int) -> np.random.Generator:
    """The stream of stationary_tails' replication group ``group``."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(group, 1))))


def _tail_slots(piece: int):
    """Yield the slot ranges (before, end) that stationary_tails walks in
    turn: rounds of _TAIL_FIRST_ROUND slots, then twice as many each time
    up to _TAIL_LAST_ROUND, until DELAY_SEARCH_CAP, with the slots below
    _TAIL_PREFIX cut into pieces of at most ``piece``."""
    before, width = 0, _TAIL_FIRST_ROUND
    while before < DELAY_SEARCH_CAP:
        end = min(before + width, DELAY_SEARCH_CAP)
        while before < end:
            stop = min(end, _TAIL_PREFIX, before + piece) if before < _TAIL_PREFIX else end
            yield before, stop
            before = stop
        width = min(2 * width, _TAIL_LAST_ROUND)


def _tail_group(specs, master_seed: int, start: int,
                n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Walk replications start .. start + n - 1, a group, at every point:
    per point, (weights, capped), each of shape (levels, n). weights[j, i]
    is row i's likelihood ratio at its first passage over level j, or at
    the cap, where capped[j, i] is set."""
    normal_sums = np.zeros(n)  # each row's z0_1 + ... + z0_m
    walk_ends = [np.zeros(n) for _ in specs]  # each point's W_m of each row
    weights = [np.zeros((spec.levels.size, n)) for spec in specs]
    # Levels each row has passed at each point. The levels are sorted, so a
    # row passes them in order: row i is open at level j iff passed[i] <= j.
    # An infinite level is never passed, so a row with every finite level
    # passed is closed there.
    passed = [np.zeros(n, dtype=np.intp) for _ in specs]
    # A piece of the group stream: half a batch's slots, of all its rows.
    piece = np.empty((max(1, _ROUND_CELLS // (2 * _TAIL_GROUP)), _TAIL_GROUP))
    group_rng = _group_rng(master_seed, start // _TAIL_GROUP)
    # A batch's normals and its walk: in the prefix, at most a piece's worth.
    z_buf, walk_buf = (np.empty(min(piece.size, _ROUND_CELLS)) for _ in range(2))
    own = None  # each row's own stream, by row; None once it has closed
    for before, end in _tail_slots(len(piece)):
        open_rows = np.logical_or.reduce([p < spec.finite for p, spec in zip(passed, specs)])
        rows = np.flatnonzero(open_rows)
        if not rows.size:
            break
        width = end - before
        if before < _TAIL_PREFIX:
            # Slot-major: row i's normal of slot before + 1 + c is [c, i].
            group_rng.standard_normal(out=piece[:width])
        elif own is None:
            # Rows only close, so every row that will need its own stream
            # is open now. The prefix's buffers, z's view of them included,
            # go before the streams are made; the rounds after the prefix
            # take whole batches.
            piece = group_rng = z_buf = walk_buf = z = None
            z_buf, walk_buf = (np.empty(max(_ROUND_CELLS, _TAIL_LAST_ROUND)) for _ in range(2))
            own = np.empty(n, dtype=object)
            own[rows] = np.fromiter(_replication_rngs(master_seed, start + rows), object,
                                    rows.size)
        else:
            own[~open_rows] = None  # a closed row's stream is dropped
        batch = z_buf.size // width
        for lo in range(0, rows.size, batch):
            part = rows[lo:lo + batch]
            z = z_buf[: part.size * width].reshape(part.size, width)
            if piece is None:
                _draw_normals(own[part], z)
            else:
                # Slot-major, as the piece: z's slot c is one run of its rows.
                z = np.take(piece[:width], part, axis=1, out=z.reshape(width, part.size)).T
            _tail_round(specs, part, before, z, normal_sums, walk_ends, weights, passed,
                        walk_buf)
    capped = [(np.arange(spec.levels.size)[:, None] >= point_passed)
              & np.isfinite(spec.levels)[:, None] for spec, point_passed in zip(specs, passed)]
    for spec, point_weights, open_pairs in zip(specs, weights, capped):
        level, row = np.nonzero(open_pairs)
        point_weights[level, row] = np.exp(-spec.shift * normal_sums[row]
                                           - DELAY_SEARCH_CAP * spec.half_square)
    return list(zip(weights, capped))


def _tail_round(specs, rows, before, z, normal_sums, walk_ends, weights, passed,
                walk_buf) -> None:
    """Walk the given rows over slots before + 1 .. before + width, whose
    normals z holds, one row each, and record each point's first passages
    among them. z is row-major, each row's slots contiguous, or slot-major,
    each slot's rows contiguous as in a piece of the group stream; each
    point's walk is laid out as z is."""
    k, width = z.shape
    passages = []  # (point, a level's weights, rows' positions, columns) passed
    for spec, walk_end, point_weights, point_passed in zip(specs, walk_ends, weights, passed):
        done = point_passed[rows]
        sel = np.flatnonzero(done < spec.finite)
        if not sel.size:
            continue
        idx, done = rows[sel], done[sel]
        # Column c holds the step to W_m, in nats, at m = before + 1 + c, and
        # after the prefix sum W_m itself: the first step carries the last
        # round's end, so the sum runs on from it, whatever the round's cut.
        walk = _rows_like(z, walk_buf, sel.size)
        np.multiply(z if sel.size == k else _take_rows(z, sel, walk), -spec.slope, out=walk)
        walk += spec.offset
        np.exp(walk, out=walk)
        np.log1p(walk, out=walk)
        np.subtract(spec.rate, walk, out=walk)
        walk[:, 0] += walk_end[idx]
        _running_sums(walk)
        walk_end[idx] = walk[:, -1]
        # Only the rows whose peak in this round passes a level search the
        # round for their first passage; the peak passes the levels below
        # the highest it passes, so the search stops at the first it does
        # not.
        peak = walk.max(axis=1)
        for level, threshold in enumerate(spec.thresholds.tolist()):
            over = peak > threshold
            if not over.any():
                break
            row = np.flatnonzero(over & (done <= level))
            if not row.size:
                continue
            # Compared whole, then gathered: booleans, not the rows' walks.
            first = (walk > threshold)[row].argmax(axis=1)
            passages.append((spec, point_weights[level], sel[row], first))
            point_passed[idx[row]] = level + 1
    # Each row's z0_1 + ... + z0_m at m = before + 1 + c, in column c.
    z[:, 0] += normal_sums[rows]
    _running_sums(z)
    normal_sums[rows] = z[:, -1]
    for spec, level_weights, pos, first in passages:
        level_weights[rows[pos]] = np.exp(-spec.shift * z[pos, first]
                                          - (before + 1 + first) * spec.half_square)


def _rows_like(z: np.ndarray, buf: np.ndarray, k: int) -> np.ndarray:
    """A (k, width) view of buf for k of z's rows, laid out as z is:
    row-major or slot-major."""
    width = z.shape[1]
    if z.flags.c_contiguous:
        return buf[: k * width].reshape(k, width)
    return buf[: k * width].reshape(width, k).T


def _take_rows(z: np.ndarray, sel: np.ndarray, out: np.ndarray) -> np.ndarray:
    """z[sel] into out, laid out as z, with no temporary."""
    if z.flags.c_contiguous:
        return z.take(sel, axis=0, out=out)
    return np.take(z.T, sel, axis=1, out=out.T).T


def _running_sums(a: np.ndarray) -> None:
    """Each row's prefix sums, in place: a[:, c] += a[:, c - 1] for c = 1, 2,
    .... A row-major a takes numpy's cumsum along each row, one dependent
    add after another, about 4 ns a term. A slot-major one takes one vector
    add per slot, across its rows, several times faster on the hundreds of
    rows of a group stream piece. Each row's terms are added in the same
    order either way, so the sums carry the same bits."""
    if a.flags.c_contiguous:
        np.cumsum(a, axis=1, out=a)
        return
    slots = list(a.T)
    for before, slot in zip(slots, slots[1:]):
        np.add(before, slot, out=slot)
