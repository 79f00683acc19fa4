"""Bounds on the Laplace transform of the cumulative service process.

One slot of service carries bits_per_nat * ln(1 + SNR) bits, so
E[exp(-theta * S)] over independent slots factors into per-slot inverse
moments with composite exponent theta * bits_per_nat. The per-slot factor
is bounded from above via the discretized inverse-moment machinery (or
its exact step -> 0 limit, by a fixed-step trapezoid rule) and the n-slot
bound is that factor to the n-th power, carried in the log domain.

The per-slot factor comes from one of two routes, each for every exponent:

  * exact mode: the exact inverse moment, by a trapezoid rule of fixed
    step 0.05 in the Gaussian variable over 12 either side of the
    log-integrand's peak, summed in the log domain;
  * discretized mode: a mass-aggregated table of the discretized grid,
    built once per service and truncated where the tail mass falls below
    the configured tolerance. It is an upper bound, looser than the
    unmerged grid by a factor of at most exp(t * _BLOCK_LOG_WIDTH).

Both return an upper bound on the exact per-slot factor, which is the
property all downstream guarantees rest on. Both are Laplace transforms of
a distribution in t, so the log factor is convex in theta. A deterministic
channel (sigma_db == 0) takes neither: its factor is exact, in closed form.
This module adds no floor, clamp or term cap; the only floor is that of
``inverse_moment`` (``_FACTOR_FLOOR``), on the table and exact routes.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ShadowingChannel, snr_cdf
from .inverse_moment import (
    DiscretizationConfig,
    StieltjesTable,
    exact_inverse_moment,
    truncation_point,
)

# Width of the table's blocks in log1p(SNR). Against the unmerged grid the
# table is looser by a factor of at most exp(t * width) - 1 in relative
# terms: 1e-4 at t = 5 and 4e-4 at t = 20, near the usual stability edge.
_BLOCK_LOG_WIDTH = 2e-5


class ServiceCharacterization:
    """Per-slot service transform bound for a shadowing channel, memoized.

    Args:
        channel: the slotted channel offering the service.
        config: discretization controls for the per-slot bound.
        exact: substitute the exact inverse moment, by the fixed-step
            trapezoid rule, for the discretized bound (the step -> 0 mode).

    The memoization cache is keyed on the exact float theta, so a cached
    value always belongs to the theta asked for.
    """

    def __init__(
        self,
        channel: ShadowingChannel,
        config: DiscretizationConfig | None = None,
        exact: bool = False,
    ):
        self.channel = channel
        self.config = config if config is not None else DiscretizationConfig()
        self.exact = exact
        self._log_cache: dict[float, float] = {}
        self._table: StieltjesTable | None = None

    def composite_exponent(self, theta: float) -> float:
        """Dimensionless exponent seen by the inverse moment: theta * slot * W / ln 2."""
        return theta * self.channel.bits_per_nat

    # -- per-slot factor -----------------------------------------------------

    def _cdf(self, x):
        return snr_cdf(self.channel, x)

    def _ensure_table(self) -> StieltjesTable:
        if self._table is None:
            # At theta = 0 only the survival decides the cut, which is never
            # earlier than a per-exponent cut. Every cell up to it is taken:
            # the build's cost follows the log-range, not the cell count.
            tail_x = truncation_point(self._cdf, 0.0, self.config)
            self._table = StieltjesTable(
                self._cdf,
                self.config.step_delta,
                max(math.ceil(tail_x / self.config.step_delta), 1),
                block_log_width=_BLOCK_LOG_WIDTH,
            )
        return self._table

    def _compute_log(self, theta: float) -> float:
        exponent = self.composite_exponent(theta)
        if self.channel.sigma_db == 0.0:
            # Degenerate channel: the inverse moment of a point mass, exactly.
            return -exponent * math.log1p(self.channel.median_snr)
        if self.exact:
            return math.log(exact_inverse_moment(self.channel, exponent))
        return math.log(self._ensure_table().bound(exponent))

    def log_per_slot_bound(self, theta: float) -> float:
        """ln of the per-slot transform bound; non-positive, and not clamped here.

        Raises ValueError unless theta is positive and finite.
        """
        if not 0 < theta < math.inf:
            raise ValueError("theta must be positive and finite")
        cached = self._log_cache.get(theta)
        if cached is None:
            cached = self._compute_log(theta)
            self._log_cache[theta] = cached
        return cached

    def log_per_slot_bound_many(self, thetas) -> np.ndarray:
        """Batched log_per_slot_bound over an array of thetas."""
        thetas = np.asarray(thetas, dtype=float)
        return np.array([self.log_per_slot_bound(float(t)) for t in thetas])

    def per_slot_bound(self, theta: float) -> float:
        """Upper bound on E[(1 + SNR)^(-theta * bits_per_nat)], in (0, 1]."""
        return math.exp(self.log_per_slot_bound(theta))

    # -- multi-slot bound ------------------------------------------------------

    def log_mgf_bound(self, theta: float, n_slots: int) -> float:
        """ln of the bound on E[exp(-theta * S(0, n))]: n times the per-slot log."""
        if n_slots < 0:
            raise ValueError("n_slots must be non-negative")
        if n_slots == 0:
            return 0.0
        return n_slots * self.log_per_slot_bound(theta)

    def mgf_bound(self, theta: float, n_slots: int) -> float:
        """Bound on E[exp(-theta * S(0, n))]; exponentiated only on demand."""
        return math.exp(self.log_mgf_bound(theta, n_slots))

