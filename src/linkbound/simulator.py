"""Slotted fluid-queue Monte Carlo for validating the analytical bounds.

Each replication draws an independent service sample path, evolves the
backlog by the max(., 0) recursion from an empty buffer, and reads the
backlog at the horizon. The virtual delay of the data present at the
horizon is the number of additional slots of fresh service needed to
drain that backlog, which under FCFS equals the first w with
D(0, t+w) >= A(0, t). Replications use independent child streams derived
from (master_seed, replication index), so the order in which they run
cannot change any sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrival import AffineEnvelope, generate_arrivals
from .channel import ShadowingChannel, capacity_bits_per_slot, sample_snr

DELAY_SEARCH_CAP = 10_000
_DRAIN_CHUNK = 256


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


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """Child generator for one replication, deterministic in (seed, index).

    Uses the documented spawn-key scheme of numpy's SeedSequence with a
    pinned PCG64 bit generator, so streams are reproducible bit-for-bit
    and independent of the order in which replications run.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def _drain_slots(
    channel: ShadowingChannel, backlog_bits: float, rng: np.random.Generator
) -> tuple[int, bool]:
    """Slots of fresh service needed to clear backlog_bits; (slots, censored)."""
    if backlog_bits <= 0.0:
        return 0, False
    drained = 0.0
    w = 0
    while w < DELAY_SEARCH_CAP:
        block = min(_DRAIN_CHUNK, DELAY_SEARCH_CAP - w)
        service = capacity_bits_per_slot(channel, sample_snr(channel, rng, block))
        cum = drained + np.cumsum(service)
        hit = np.nonzero(cum >= backlog_bits)[0]
        if hit.size:
            return w + int(hit[0]) + 1, False
        drained = float(cum[-1])
        w += block
    return DELAY_SEARCH_CAP, True


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
    if horizon_slots < 1:
        raise ValueError("horizon_slots must be at least 1")
    arrivals = generate_arrivals(env, horizon_slots)
    service = capacity_bits_per_slot(channel, sample_snr(channel, rng, horizon_slots))
    net = np.cumsum(arrivals - service)
    backlog = float(net[-1] - min(0.0, float(net.min())))
    delay, censored = _drain_slots(channel, backlog, rng)
    return backlog, delay, censored


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
    n = config.replications
    backlog = np.empty(n)
    delay = np.empty(n, dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    for idx in range(n):
        rng = replication_rng(config.master_seed, idx)
        b, w, c = run_replication(env, channel, config.horizon_slots, rng)
        backlog[idx] = b
        delay[idx] = w
        censored[idx] = c
    return SimOutcome(
        backlog_samples=backlog,
        delay_samples=delay,
        censored=censored,
        master_seed=config.master_seed,
    )
