"""Slotted fluid-queue Monte Carlo for validating the analytical bounds.

Each replication draws an independent service sample path, evolves the
backlog by the max(., 0) recursion from an empty buffer, and reads the
backlog at the horizon. The virtual delay of the data present at the
horizon is the number of additional slots of fresh service needed to
drain that backlog, which under FCFS equals the first w with
D(0, t+w) >= A(0, t).

Replication i draws from its own stream, numpy's spawn-key child of the
master seed: Generator(PCG64(SeedSequence(entropy=master_seed,
spawn_key=(i,)))), bit for bit. The seed words of many indices are
derived in one array pass over uint32 words; only the spawn word changes
with i, so the seed's share of numpy's hash is computed once per run.

A run simulates a list of (envelope, channel) points on the same
replication streams, common random numbers across a sweep: replication
i of every point replays stream i, so each point's samples equal, bit for
bit, those of a run of that point alone. The streams' normals are drawn
once and turned into service once when every point has the same channel
(a rate sweep), once per point otherwise; each point runs its own backlog
pass, and the drain that measures a point's delays continues each row's
stream from the end of its horizon draws.

Replications are evaluated in blocks of rows, one row per replication,
with each array operation applied to the whole block at once. Every row
draws from its own stream in the same order as a lone replication would,
and the arithmetic on a row does not depend on the rows beside it, so no
sample depends on the block size, the seeding chunk, the other points of
the run or the order in which replications run. Blocks are therefore
spread over one worker per available CPU, the caller and threads that
end with the call, each with its own buffers and rows of the outputs;
numpy releases the GIL inside the normal draws and the exp and log1p
passes, most of a block. The workers split one block's worth of slots,
so memory grows neither with the number of CPUs nor with the points.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .arrival import AffineEnvelope, generate_arrivals
from .channel import ShadowingChannel, _snr_from_normals

DELAY_SEARCH_CAP = 10_000
# One spawn word, below 2^32, names each replication.
MAX_REPLICATIONS = 1 << 32
_DRAIN_CHUNK = 256
# The leading slots of a drain round that every live row draws; only the
# rows they do not clear draw the rest of the round.
_DRAIN_PROBE = 8
# Slots held by the block buffers of one call (2 MiB of float64): the
# _BLOCK_CELLS // max(horizon, _DRAIN_CHUNK) rows, at least one, halved when
# several points share a row's normals, are split evenly between the
# workers, and each worker's block has its share.
_BLOCK_CELLS = 1 << 18
# Replication indices whose seed words are derived in one array pass.
_SEED_CHUNK = 1024
# Block workers: one per CPU this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@dataclass(frozen=True)
class SimConfig:
    """Replication plan: observation horizon, count, and seeding."""

    horizon_slots: int = 2000
    replications: int = 10000
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be at least 1")
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise ValueError(f"replications must be between 1 and {MAX_REPLICATIONS}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")


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


def _replication_rngs(master_seed: int, start: int, stop: int):
    """Yield replication_rng(master_seed, i) for i in range(start, stop).

    The seed words of _SEED_CHUNK indices at a time come from one array
    pass, so memory does not grow with the number of indices.
    """
    pool, const = _run_pool(master_seed)
    for lo in range(start, stop, _SEED_CHUNK):
        spawn = np.arange(lo, min(lo + _SEED_CHUNK, stop), dtype=np.uint64).astype(np.uint32)
        for words in _seed_words(pool, const, spawn):
            yield _generator(words)


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


class _SeedWords(ISeedSequence):
    """The four precomputed uint64 words that seed one PCG64."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds the four uint64 words of a PCG64 seed only")
        return self.words


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
    _to_service(channel, out)


def _draw_normals(rngs, out: np.ndarray) -> None:
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)


def _to_service(channel: ShadowingChannel, z: np.ndarray) -> None:
    """Overwrite standard normals z with the service bits they give."""
    _snr_from_normals(channel, z)
    np.log1p(z, out=z)
    z *= channel.bits_per_nat


def _drain(
    channel: ShadowingChannel, rngs, backlog: np.ndarray, buf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slots of fresh service that clear each backlog: (delays, censored).

    Rows with a positive backlog draw _DRAIN_CHUNK slots a round from
    their own generators until the cumulative service reaches the backlog
    or DELAY_SEARCH_CAP slots have been drawn; buf holds one round. A
    round draws its first _DRAIN_PROBE slots for every live row, and the
    rest only for the rows those slots do not clear. The rest's cumulative
    sum carries on from the probe's last column, so every sum is the one a
    single cumsum over the round gives, bit for bit.
    """
    delay = np.zeros(backlog.size, dtype=np.int64)
    live = np.flatnonzero(backlog > 0.0)
    drained = np.zeros(live.size)
    w = 0
    while live.size and w < DELAY_SEARCH_CAP:
        width = min(_DRAIN_CHUNK, DELAY_SEARCH_CAP - w)
        probe = min(_DRAIN_PROBE, width)
        carry = None  # each live row's sum of the round's service so far
        for lo, hi in ((0, probe), (probe, width)):
            if lo == hi or not live.size:
                break
            # One row per live row: the carried sum, if any, then hi - lo
            # fresh slots.
            lead = 0 if carry is None else 1
            seg = buf[: live.size * (lead + hi - lo)].reshape(live.size, lead + hi - lo)
            fresh = seg[:, lead:]
            if carry is not None:
                seg[:, 0] = carry
            _draw_service(channel, [rngs[i] for i in live], fresh)
            np.cumsum(seg, axis=1, out=seg)
            carry = seg[:, -1].copy()
            fresh += drained[:, None]
            hit = fresh >= backlog[live, None]
            first = hit.argmax(axis=1)
            done = hit[np.arange(live.size), first]
            delay[live[done]] = w + lo + first[done] + 1
            left = ~done
            live, drained, carry = live[left], drained[left], carry[left]
        drained += carry
        w += width
    delay[live] = DELAY_SEARCH_CAP
    censored = np.zeros(backlog.size, dtype=bool)
    censored[live] = True
    return delay, censored


def _rewind(rngs, rows, kept: dict, keep: bool) -> None:
    """Put the generator of each of rows back at the end of its horizon
    draws, from the state kept there. A row without one has not been
    drained yet; its state is kept first if keep."""
    for i in rows:
        state = kept.get(i)
        if state is not None:
            rngs[i].bit_generator.state = state
        elif keep:
            kept[i] = rngs[i].bit_generator.state


def _replicate(points, horizon: int, rngs, count: int, delays: bool = True) -> list[tuple]:
    """Replicate once for each of the count generators in rngs, at every
    (envelope, channel) point: one (backlogs, delays, censored) triple of
    arrays per point, with None for delays and censored unless delays.

    The generators are taken a block of rows at a time. Each row draws its
    horizon's normals once. When every point has the same channel, they
    become service once, in place; otherwise each point turns a copy into
    its own channel's service, the last point the normals themselves.
    Each point then runs its backlog pass, and its drain, on the row. A
    drain continues the row's stream from the end of the horizon draws:
    the generator's state there is kept before the row's first drain and
    restored before each later one. The rows of one block's worth of
    slots are split between the workers: the caller and threads joined
    before it returns or raises, at least one row each, each with one
    buffer pair made before any thread starts. So memory grows neither
    with the number of CPUs nor with the number of points, nor, beyond
    the outputs, with count. The first failure, an interrupt included,
    stops every worker; the call raises the lowest block's failure.
    """
    if horizon < 1:
        raise ValueError("horizon_slots must be at least 1")
    rngs = iter(rngs)
    # A lone point turns its normals into net arrivals in place, and its
    # second buffer holds a drain round; points that share the normals run
    # their passes and drains in a second buffer as large as the first.
    width = max(horizon, _DRAIN_CHUNK)
    shared = len(points) > 1
    rows = max(1, _BLOCK_CELLS // (width * (1 + shared)))
    net_width = width if shared else _DRAIN_CHUNK
    workers = min(_WORKERS, rows)
    rows //= workers
    arrivals = [generate_arrivals(env, horizon) for env, _ in points]
    one_channel = len({channel for _, channel in points}) == 1
    last = len(points) - 1
    outputs = [(np.empty(count), np.empty(count, dtype=np.int64) if delays else None,
                np.empty(count, dtype=bool) if delays else None) for _ in points]

    def replicate_block(start, block, z_buf, net_buf):
        z = z_buf[: len(block) * horizon].reshape(len(block), horizon)
        _draw_normals(block, z)
        rows_of_block = slice(start, start + len(block))
        if one_channel:
            _to_service(points[0][1], z)
        kept = {}  # row -> its generator's state after the horizon draws
        for p, (_, channel) in enumerate(points):
            # The last point's pass may overwrite what z holds.
            cum = z if p == last else net_buf[: z.size].reshape(z.shape)
            if one_channel:
                np.subtract(arrivals[p], z, out=cum)
            else:
                if cum is not z:
                    np.copyto(cum, z)
                _to_service(channel, cum)
                np.subtract(arrivals[p], cum, out=cum)
            np.cumsum(cum, axis=1, out=cum)
            backlogs, point_delays, censored = outputs[p]
            backlog = backlogs[rows_of_block]
            np.subtract(cum[:, -1], np.minimum(cum.min(axis=1), 0.0), out=backlog)
            if not delays:
                continue
            if shared:
                _rewind(block, np.flatnonzero(backlog > 0.0).tolist(), kept, p != last)
            point_delays[rows_of_block], censored[rows_of_block] = _drain(
                channel, block, backlog, net_buf)

    pairs = [(np.empty(rows * horizon), np.empty(rows * net_width))
             for _ in range(min(workers, -(-count // rows)))]
    starts = iter(range(0, count, rows))
    lock = threading.Lock()
    failures = {}  # block start -> the exception that stopped its worker

    def work(z_buf, net_buf):
        start = count
        try:
            while True:
                with lock:
                    start = next(starts, count)
                    if start == count or failures:
                        return
                    block = list(itertools.islice(rngs, rows))
                replicate_block(start, block, z_buf, net_buf)
        except BaseException as exc:
            failures.setdefault(start, exc)

    threads = [threading.Thread(target=work, args=pair) for pair in pairs[1:]]
    try:
        for thread in threads:
            thread.start()
        work(*pairs[0])
    except BaseException as exc:  # an interrupt outside a block
        failures.setdefault(count, exc)
    for thread in threads:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:
                failures.setdefault(count, exc)
    if failures:
        raise failures[min(failures)]
    return outputs


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
    [(backlog, delay, censored)] = _replicate([(env, channel)], horizon_slots, (rng,), 1)
    return float(backlog[0]), int(delay[0]), bool(censored[0])


@dataclass
class SimOutcome:
    """Empirical tail statistics across replications.

    backlog_samples and delay_samples are aligned by replication index;
    ``censored`` marks delay samples that hit the search cap and must be
    treated as exceeding every finite threshold. A run without delays
    holds None in delay_samples and censored.
    """

    backlog_samples: np.ndarray
    delay_samples: np.ndarray | None
    censored: np.ndarray | None
    master_seed: int

    @property
    def replications(self) -> int:
        return int(self.backlog_samples.size)

    def exceedance(self, threshold: float, kind: str = "backlog", z: float = 1.96):
        """Empirical P(sample > threshold) with a Wilson confidence half-width."""
        if kind == "backlog":
            count = int(np.count_nonzero(self.backlog_samples > threshold))
        elif kind == "delay":
            if self.delay_samples is None:
                raise ValueError("this outcome was simulated without delays")
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
    env: AffineEnvelope, channel: ShadowingChannel, config: SimConfig, *, delays: bool = True
) -> SimOutcome:
    """Run the configured replications and collect samples by index.

    Every replication seeds itself from (master_seed, index), so the
    outcome is identical for any execution order. Without delays, no
    backlog is drained and the outcome holds backlog samples only.
    """
    return run_experiments([(env, channel)], config, delays=delays)[0]


def run_experiments(points, config: SimConfig, *, delays: bool = True) -> list[SimOutcome]:
    """run_experiment at each (envelope, channel) point, all in one run.

    Every point replays the same replication streams, so each outcome
    equals, bit for bit, run_experiment of its point alone, and equal
    points share one outcome.
    """
    points = list(points)
    unique = list(dict.fromkeys(points))
    rngs = _replication_rngs(config.master_seed, 0, config.replications)
    results = _replicate(unique, config.horizon_slots, rngs, config.replications, delays)
    outcomes = {
        point: SimOutcome(backlog_samples=backlog, delay_samples=delay, censored=censored,
                          master_seed=config.master_seed)
        for point, (backlog, delay, censored) in zip(unique, results)
    }
    return [outcomes[point] for point in points]
