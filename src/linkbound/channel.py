"""Buffered mmWave link model: link budget, log-normal shadowing, slot capacity.

The per-slot SNR in dB is normally distributed around the deterministic
system gain, i.e. the linear SNR is log-normal. Slot-to-slot draws are
independent. All queueing-layer quantities are kept in bits and slots;
seconds and Gbps appear only at the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ln(10)/10 converts a dB quantity into the natural log of its linear value.
DB_TO_LN = math.log(10.0) / 10.0
# The largest mean SNR accepted: its linear value, 1e308, is still a finite
# float, which it is not from about 3082.5 dB on.
MAX_MEAN_SNR_DB = 3080.0


@dataclass(frozen=True)
class LinkBudget:
    """Deterministic link budget for a point-to-point mmWave hop.

    Path loss follows the floating-intercept fit
    ``intercept + 10 * exponent * log10(distance)`` (dB, distance in meters).
    Noise is specified as a density over the signal bandwidth.
    """

    transmit_power_dbm: float
    antenna_gain_tx_db: float
    antenna_gain_rx_db: float
    noise_density_dbm_per_mhz: float
    bandwidth_hz: float
    distance_m: float
    pathloss_intercept_db: float
    pathloss_exponent: float

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.distance_m <= 0:
            raise ValueError("distance_m must be positive")
        if self.pathloss_exponent <= 0:
            raise ValueError("pathloss_exponent must be positive")


def system_gain_db(budget: LinkBudget) -> float:
    """Mean received SNR in dB implied by a link budget (pure dB arithmetic).

    Transmit power plus antenna gains, minus the floating-intercept path
    loss, minus total noise power over the bandwidth.
    """
    path_loss = budget.pathloss_intercept_db + 10.0 * budget.pathloss_exponent * math.log10(
        budget.distance_m
    )
    noise_total_dbm = budget.noise_density_dbm_per_mhz + 10.0 * math.log10(
        budget.bandwidth_hz / 1e6
    )
    return (
        budget.transmit_power_dbm
        + budget.antenna_gain_tx_db
        + budget.antenna_gain_rx_db
        - path_loss
        - noise_total_dbm
    )


@dataclass(frozen=True)
class ShadowingChannel:
    """Slotted wireless channel with i.i.d. log-normal shadowing.

    Attributes:
        mean_snr_db: mean of the per-slot SNR in dB (the system gain), at
            most MAX_MEAN_SNR_DB (3080 dB), past which the linear SNR
            overflows a float.
        sigma_db: shadowing standard deviation in dB. Zero gives a
            deterministic channel, useful as an oracle case.
        bandwidth_hz: signal bandwidth in Hz.
        slot_seconds: slot duration in seconds.
    """

    mean_snr_db: float
    sigma_db: float
    bandwidth_hz: float
    slot_seconds: float = 1.0

    def __post_init__(self) -> None:
        if not self.mean_snr_db <= MAX_MEAN_SNR_DB:
            raise ValueError(f"mean_snr_db must be at most {MAX_MEAN_SNR_DB:g} dB, "
                             f"got {self.mean_snr_db!r}: its linear SNR would overflow a float")
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be non-negative")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.slot_seconds <= 0:
            raise ValueError("slot_seconds must be positive")

    @property
    def median_snr(self) -> float:
        """Median linear SNR, 10^(mean_snr_db/10)."""
        return 10.0 ** (self.mean_snr_db / 10.0)

    @property
    def bits_per_nat(self) -> float:
        """Bits carried per slot per nat of log(1+SNR): slot * W / ln 2."""
        return self.slot_seconds * self.bandwidth_hz / math.log(2.0)


def snr_cdf(channel: ShadowingChannel, x):
    """CDF of the per-slot linear SNR, evaluated at x > 0.

    For sigma_db > 0 this is the log-normal CDF written through the
    complementary error function; for sigma_db == 0 it degenerates to a
    step at the median SNR, exactly 0.0 below it and 1.0 from it on. The
    output is not clamped: far tails return exactly 0.0 or 1.0, and the
    only floor on a per-slot factor lives in ``inverse_moment``.

    scipy.special, for erfc, is imported on the first call with
    sigma_db > 0, so that exact mode and the simulator, which never
    evaluate the CDF, load no scipy module.

    Accepts scalars or arrays; raises ValueError on any x that is not
    positive, NaN included.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError("snr_cdf is defined for positive SNR only")
    if channel.sigma_db == 0.0:
        out = np.where(arr >= channel.median_snr, 1.0, 0.0)
    else:
        from scipy import special

        ln_mean = DB_TO_LN * channel.mean_snr_db
        ln_sigma = DB_TO_LN * channel.sigma_db
        # 0.5 * erfc(-(ln x - ln_mean) / (sqrt(2) ln_sigma)), step by step in
        # one buffer.
        out = np.log(arr, out=np.empty(arr.shape))
        out -= ln_mean
        np.negative(out, out=out)
        out /= math.sqrt(2.0) * ln_sigma
        special.erfc(out, out=out)
        out *= 0.5
    if np.ndim(x) == 0:
        return float(out)
    return out


def _snr_from_normals(channel: ShadowingChannel, z: np.ndarray) -> np.ndarray:
    """Overwrite standard normals z with their linear SNR and return z.

    The SNR is exp(DB_TO_LN * (mean_snr_db - sigma_db * z)). sample_snr
    and the simulator both draw through this one transform, so a stream
    redrawn through sample_snr gives the simulator's samples bit for bit.
    """
    np.multiply(z, channel.sigma_db, out=z)
    np.subtract(channel.mean_snr_db, z, out=z)
    np.multiply(z, DB_TO_LN, out=z)
    return np.exp(z, out=z)


def sample_snr(channel: ShadowingChannel, rng: np.random.Generator, size=None):
    """Draw independent linear-SNR samples, median * 10^(-xi/10), xi ~ N(0, sigma^2).

    The generator is the only mutated state; a fixed (seed, call sequence)
    reproduces samples bit-for-bit.
    """
    z = np.asarray(rng.standard_normal(size))
    return _snr_from_normals(channel, z)[()]


def capacity_bits_per_slot(channel: ShadowingChannel, gamma):
    """Instantaneous capacity of one slot in bits: slot * W * log2(1 + gamma)."""
    arr = np.asarray(gamma, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("SNR must be non-negative")
    out = channel.bits_per_nat * np.log1p(arr)
    if np.ndim(gamma) == 0:
        return float(out)
    return out
