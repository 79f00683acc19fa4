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

Replications are evaluated in blocks of rows, one row per replication,
with each array operation applied to the whole block at once. Every row
draws from its own stream in the same order as a lone replication would,
and the arithmetic on a row does not depend on the rows beside it, so no
sample depends on the block size, the seeding chunk or the order in
which replications run. Blocks are therefore spread over one worker thread
per available CPU, each writing its own rows of the outputs; numpy
releases the GIL inside the normal draws and the exp and log1p passes,
which are most of a block. The workers split one block's worth of slots
between them, so memory does not grow with the number of CPUs.
"""

from __future__ import annotations

import collections
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
# Slots held by the block buffers of one call (2 MiB of float64): the
# _BLOCK_CELLS // max(horizon, _DRAIN_CHUNK) rows, at least one, are split
# evenly between the workers, and each worker's block has its share.
_BLOCK_CELLS = 1 << 18
# Replication indices whose seed words are derived in one array pass.
_SEED_CHUNK = 1024
# Block workers: one per CPU this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# The process-wide pool of _WORKERS block threads, started on first use.
_executor = None
_executor_lock = threading.Lock()


def _forget_executor() -> None:
    global _executor
    _executor = None


# A forked child inherits the pool but not its threads.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_executor)


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
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    _snr_from_normals(channel, out)
    np.log1p(out, out=out)
    out *= channel.bits_per_nat


def _drain(
    channel: ShadowingChannel, rngs, backlog: np.ndarray, buf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slots of fresh service that clear each backlog: (delays, censored).

    Rows with a positive backlog draw _DRAIN_CHUNK slots at a time from
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


def _replicate(
    env: AffineEnvelope, channel: ShadowingChannel, horizon: int, rngs, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replicate once for each of the count generators in rngs:
    (backlogs, delays, censored) arrays.

    The generators are taken a block of rows at a time. The rows of one
    block's worth of slots are split between the workers, at least one
    row each, and each block that runs holds one pair of buffers until it
    ends; a block writes its rows of the outputs in place. So memory grows
    neither with the number of CPUs nor, beyond the outputs, with count.
    """
    if horizon < 1:
        raise ValueError("horizon_slots must be at least 1")
    rngs = iter(rngs)
    rows = max(1, _BLOCK_CELLS // max(horizon, _DRAIN_CHUNK))
    workers = min(_WORKERS, rows)
    rows //= workers
    arrivals = generate_arrivals(env, horizon)
    backlogs = np.empty(count)
    delays = np.empty(count, dtype=np.int64)
    censored = np.empty(count, dtype=bool)
    free = []  # buffer pairs of blocks that have ended

    def replicate_block(item):
        start, block = item
        try:
            net_buf, drain_buf = free.pop()
        except IndexError:
            net_buf, drain_buf = np.empty(rows * horizon), np.empty(rows * _DRAIN_CHUNK)
        try:
            net = net_buf[: len(block) * horizon].reshape(len(block), horizon)
            _draw_service(channel, block, net)
            np.subtract(arrivals, net, out=net)
            np.cumsum(net, axis=1, out=net)
            rows_of_block = slice(start, start + len(block))
            backlog = backlogs[rows_of_block]
            np.subtract(net[:, -1], np.minimum(net.min(axis=1), 0.0), out=backlog)
            delays[rows_of_block], censored[rows_of_block] = _drain(
                channel, block, backlog, drain_buf)
        finally:
            free.append((net_buf, drain_buf))

    blocks = ((start, list(itertools.islice(rngs, rows))) for start in range(0, count, rows))
    _run_blocks(replicate_block, blocks, workers)
    return backlogs, delays, censored


def _run_blocks(fn, items, workers: int) -> None:
    """fn(item) for each item, run on the block pool.

    At most workers + 1 items are in flight at a time, and the first of
    them to fail, in item order, raises its exception in the caller. A
    lone item, or every item when there is one worker, runs on the calling
    thread.
    """
    head = list(itertools.islice(items, 2))
    if len(head) < 2 or workers == 1:
        for item in itertools.chain(head, items):
            fn(item)
        return
    pool = _pool()
    pending = collections.deque()
    try:
        for item in itertools.chain(head, items):
            if len(pending) > workers:
                pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            pending.popleft().result()
    finally:
        # After an error, no item of this call outlives it: the items not
        # started are dropped, and the caller waits out the ones running.
        for future in pending:
            if not future.cancel():
                future.exception()


def _pool():
    """The process-wide ThreadPoolExecutor of _WORKERS threads."""
    global _executor
    with _executor_lock:
        if _executor is None:
            from concurrent.futures import ThreadPoolExecutor

            _executor = ThreadPoolExecutor(_WORKERS, thread_name_prefix="linkbound-sim")
        return _executor


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

    Every replication seeds itself from (master_seed, index), so the
    outcome is identical for any execution order.
    """
    rngs = _replication_rngs(config.master_seed, 0, config.replications)
    backlog, delay, censored = _replicate(
        env, channel, config.horizon_slots, rngs, config.replications)
    return SimOutcome(
        backlog_samples=backlog,
        delay_samples=delay,
        censored=censored,
        master_seed=config.master_seed,
    )
