"""Bounds on the Laplace transform of the cumulative service process.

One slot of service carries bits_per_nat * ln(1 + SNR) bits, so
E[exp(-theta * S)] over independent slots factors into per-slot inverse
moments with composite exponent theta * bits_per_nat. The per-slot factor
is bounded from above via the discretized inverse-moment machinery (or
its exact step -> 0 limit, by a fixed-step trapezoid rule) and the n-slot
bound is that factor to the n-th power, carried in the log domain.

The per-slot factor comes from one of two routes, each for every exponent:

  * exact mode: the exact inverse moment, by a trapezoid rule in the
    Gaussian variable on the fixed lattice of step 0.05, over the nodes
    within 12 of the one nearest the log-integrand's peak, summed in the
    log domain from node values shared by every factor of the channel;
  * discretized mode: a mass-aggregated table of the discretized grid,
    built once per service and truncated where the tail mass falls below
    the configured tolerance. It is an upper bound, looser than the
    unmerged grid by a factor of at most exp(t * _BLOCK_LOG_WIDTH). Its
    block lattice is a function of the step and _BLOCK_LOG_WIDTH alone,
    kept, one per process, and sliced by every service's table, so the
    points of a sweep share it; a table of more cells places a larger
    one whole in its place, and a single point in a fresh process places
    it as before.

Both return an upper bound on the exact per-slot factor, which is the
property all downstream guarantees rest on. Both are Laplace transforms of
a distribution in t, so the log factor is convex in theta. A deterministic
channel (sigma_db == 0) takes neither: its factor is exact, in closed form.
Every route also returns the log factor's slope in theta, minus
bits_per_nat times the tilted mean of ln(1 + SNR), from the sums it
already forms: one more contraction of the table's segment moments or the
l-weighted sum of its exp pass, the same trapezoid nodes in exact mode,
and the closed form at sigma_db == 0. The floor is added to the factor,
not clamped to, so the slope is its log's true derivative, smooth in
theta, and falls to 0 where the route's sum underflows. The memo
keeps the (log factor, slope) pair of every theta it has computed, beside
the sorted list of those thetas, so that the bounds' searches can step by
the slope and start between known probes.
This module adds no floor, clamp or term cap; the only floor is that of
``inverse_moment`` (``_FACTOR_FLOOR``, added to the sum), on the table and
exact routes. It still decides the stability edge where the factor
reaches it first, as at 25 dB and sigma_db = 0.5.
"""

from __future__ import annotations

import bisect
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
    value always belongs to the theta asked for. Each entry holds the log
    factor and its slope in theta, and the memoized thetas are also kept
    in order (``probed``).
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
        # theta -> (ln factor, its derivative in theta), and every memoized
        # theta in increasing order, that is, in the order of ln theta.
        self._log_cache: dict[float, tuple[float, float]] = {}
        self._probed: list[float] = []
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

    def _compute_log(self, theta: float) -> tuple[float, float]:
        """(ln factor, its derivative in theta) at theta, from the route's own sums."""
        exponent = self.composite_exponent(theta)
        if self.channel.sigma_db == 0.0:
            # Degenerate channel: the inverse moment of a point mass, exactly.
            log_gain = math.log1p(self.channel.median_snr)
            return -exponent * log_gain, -self.channel.bits_per_nat * log_gain
        if self.exact:
            value, slope = exact_inverse_moment(self.channel, exponent, with_slope=True)
        else:
            value, slope = self._ensure_table().bound(exponent)
        return math.log(value), self.channel.bits_per_nat * slope

    def log_per_slot_bound(self, theta: float, with_slope: bool = False):
        """ln of the per-slot transform bound; non-positive, and not clamped here.

        With ``with_slope``, returns (ln bound, its derivative in theta):
        minus bits_per_nat times the tilted mean of ln(1 + SNR) under the
        route's distribution, scaled by sum / (sum + floor), so half of it
        where the route's sum equals the added floor and 0 where the sum
        underflows. Raises ValueError unless theta is positive and finite.
        """
        if not 0 < theta < math.inf:
            raise ValueError("theta must be positive and finite")
        cached = self._log_cache.get(theta)
        if cached is None:
            cached = self._log_cache[theta] = self._compute_log(theta)
            bisect.insort(self._probed, theta)
        return cached if with_slope else cached[0]

    def probed(self, lo: float, hi: float) -> list[float]:
        """The thetas strictly between lo and hi whose factor is memoized, in increasing order.

        A theta that two threads compute at once is listed twice, which a
        search over the list tolerates.
        """
        return self._probed[bisect.bisect_right(self._probed, lo):
                            bisect.bisect_left(self._probed, hi)]

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

