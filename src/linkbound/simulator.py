"""Slotted fluid-queue Monte Carlo for validating the analytical bounds.

Each replication draws an independent service sample path, evolves the
backlog by the max(., 0) recursion from an empty buffer, and reads the
backlog at the horizon. The virtual delay of the data present at the
horizon is the number of additional slots of fresh service needed to
drain that backlog, which under FCFS equals the first w with
D(0, t+w) >= A(0, t).

Replications are evaluated in blocks of rows, one row per replication,
with each array operation applied to the whole block at once. Every row
still draws from its own child stream derived from (master_seed,
replication index), in the same order as a lone replication would, and
the arithmetic on a row does not depend on the rows beside it, so no
sample depends on the block size or on the order in which replications
run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arrival import AffineEnvelope, generate_arrivals
from .channel import ShadowingChannel, _snr_from_normals

DELAY_SEARCH_CAP = 10_000
_DRAIN_CHUNK = 256
# Slots held by one block buffer (1 MiB of float64); a block has
# _BLOCK_CELLS // max(horizon, _DRAIN_CHUNK) rows, at least one.
_BLOCK_CELLS = 1 << 17


@dataclass(frozen=True)
class SimConfig:
    """Replication plan: observation horizon, count, and seeding."""

    horizon_slots: int = 2000
    replications: int = 10000
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be at least 1")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """Child generator for one replication, deterministic in (seed, index).

    Uses the documented spawn-key scheme of numpy's SeedSequence with a
    pinned PCG64 bit generator, so streams are reproducible bit-for-bit
    and independent of the order in which replications run.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


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
    env: AffineEnvelope, channel: ShadowingChannel, horizon: int, rngs
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replicate once per generator in rngs: (backlogs, delays, censored) arrays.

    The generators are taken a block of rows at a time, and one pair of
    buffers serves every block, so memory does not grow with their number.
    """
    if horizon < 1:
        raise ValueError("horizon_slots must be at least 1")
    rngs = iter(rngs)
    rows = max(1, _BLOCK_CELLS // max(horizon, _DRAIN_CHUNK))
    arrivals = generate_arrivals(env, horizon)
    net_buf = drain_buf = None
    blocks = []
    while block := list(itertools.islice(rngs, rows)):
        if net_buf is None:
            net_buf = np.empty(len(block) * horizon)
            drain_buf = np.empty(len(block) * _DRAIN_CHUNK)
        net = net_buf[: len(block) * horizon].reshape(len(block), horizon)
        _draw_service(channel, block, net)
        np.subtract(arrivals, net, out=net)
        np.cumsum(net, axis=1, out=net)
        backlog = net[:, -1] - np.minimum(net.min(axis=1), 0.0)
        blocks.append((backlog, *_drain(channel, block, backlog, drain_buf)))
    return tuple(np.concatenate(column) for column in zip(*blocks))


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
    backlog, delay, censored = _replicate(env, channel, horizon_slots, (rng,))
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
    rngs = (replication_rng(config.master_seed, i) for i in range(config.replications))
    backlog, delay, censored = _replicate(env, channel, config.horizon_slots, rngs)
    return SimOutcome(
        backlog_samples=backlog,
        delay_samples=delay,
        censored=censored,
        master_seed=config.master_seed,
    )
