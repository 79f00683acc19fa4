"""Affine arrival envelope and the constant-rate traffic generator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AffineEnvelope:
    """Burst-plus-rate bound on cumulative arrivals, in bits and slots.

    The log of the arrival transform over an interval of n slots is bounded
    by theta * burst_bits + n * theta * rate_bits_per_slot.
    """

    burst_bits: float
    rate_bits_per_slot: float

    def __post_init__(self) -> None:
        if self.burst_bits < 0:
            raise ValueError("burst_bits must be non-negative")
        if self.rate_bits_per_slot < 0:
            raise ValueError("rate_bits_per_slot must be non-negative")


def generate_arrivals(env: AffineEnvelope, horizon_slots: int) -> np.ndarray:
    """Per-slot arrivals of a constant-rate flow: rate_bits_per_slot every slot.

    The burst term is carried by the envelope for the transform bounds only;
    generated traffic is deterministic, so it conforms to the envelope with
    room to spare.
    """
    if horizon_slots < 0:
        raise ValueError("horizon_slots must be non-negative")
    return np.full(int(horizon_slots), float(env.rate_bits_per_slot))
