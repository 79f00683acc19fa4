"""Seeded scenario generators for the benchmark workloads.

Each workload turns a seed into a fixed plan of scenario documents, in
the JSON shape that ``linkbound --scenario`` reads. The program under test
only ever sees these documents. Plans are built in cycles: every cycle
issues each request template once, so any run that completes a few
cycles sees the same mix of sweep shapes, bound kinds and table sizes,
whatever the seed. Each template fixes a nominal operating point; the
seed jitters it slightly (gain by +-0.5 dB, sigma by +-0.2 dB, loads
within the middle fifth of their bins), so the cost of a request barely
depends on the seed.

Request shapes are those of the bundled scenarios/*.json, the record of
real requests: a 3-point rate sweep with six epsilons
(backlog_tail_vs_rate), a 6-point rate sweep with one (backlog_vs_rate_fine),
a 4-point sigma sweep with six (delay_tail_vs_sigma) and an 8-point gain
sweep with one (delay_vs_gain). The sweep length sets the CLI's pool width,
min(8, points).

Operating-point ranges, and why they are capped (deliberately):

* gain 10-30 dB and shadowing sigma 2-8 dB. The discretized table has
  about 10^((gain + 2.88 sigma) / 10) / delta cells, which spans roughly
  1e5 to 2e7 cells over this range at delta = 0.01. The cap keeps every
  request far below the 40 dB / 8 dB corner, where one delay bound alone
  takes about ten seconds and would swamp a run.
* arrival rates are set as a load rho against the mean link capacity, so
  every bound-workload point is stable; the Monte Carlo workload puts the
  last point of its 6-point rate sweep above capacity (rho about 1.1), as
  real rate sweeps do.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

BANDWIDTH_HZ = 5e8
SLOT_SECONDS = 1.0
BITS_PER_NAT = BANDWIDTH_HZ * SLOT_SECONDS / math.log(2.0)

GAIN_DB = (10.0, 30.0)
SIGMA_DB = (2.0, 8.0)
GAIN_JITTER_DB = 0.5
SIGMA_JITTER_DB = 0.2

PLAN_CYCLES = 64
SIM_REPLICATIONS = 1000
SIM_HORIZON_SLOTS = 2000
# The six-epsilon list of the bundled scenarios.
SIX_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

_Z, _W = np.polynomial.hermite_e.hermegauss(64)
_W = _W / math.sqrt(2.0 * math.pi)


class Template(NamedTuple):
    """One request shape at a nominal operating point."""

    kind: str
    axis: str  # "rate", "epsilon", "sigma", "gain" or "none"
    points: int  # sweep points
    epsilons: tuple
    gain_db: float  # top of a gain sweep
    sigma_db: float  # top of a sigma sweep
    load: tuple  # (lo, hi); a rate sweep spreads its points over it


# Table size of the heaviest point, at delta = 0.01, in the comments. The long
# sweeps cost seconds on a pool of six or eight threads even over small
# tables, so they get the small ones; the sigma sweep, whose other points
# build smaller tables, gets the largest.
BOUND_TEMPLATES = (
    Template("delay", "epsilon", 6, SIX_EPSILONS, 20.0, 4.0, (0.45, 0.55)),  # 1.4e5
    Template("backlog", "rate", 3, SIX_EPSILONS, 24.0, 5.5, (0.2, 0.85)),  # 1e6
    Template("backlog", "rate", 6, (1e-5,), 16.0, 5.0, (0.2, 0.85)),  # 1.1e5
    Template("delay", "gain", 8, (1e-3,), 22.0, 3.0, (0.45, 0.55)),  # 1.2e5
    Template("delay", "sigma", 4, SIX_EPSILONS, 29.5, 7.7, (0.45, 0.55)),  # 1.5e7
)
# Simulated requests with exact-mode bounds. The single epsilon of the 6-point
# sweep is 1e-2, so the Monte Carlo check applies to it.
MC_TEMPLATES = (
    Template("backlog", "rate", 3, SIX_EPSILONS, 20.0, 6.0, (0.3, 0.9)),
    Template("delay", "sigma", 4, SIX_EPSILONS, 25.0, 7.7, (0.45, 0.55)),
    Template("backlog", "rate", 6, (1e-2,), 15.0, 4.0, (0.3, 1.2)),
    Template("delay", "rate", 3, SIX_EPSILONS, 28.0, 3.0, (0.3, 0.9)),
    Template("delay", "none", 1, SIX_EPSILONS, 12.0, 7.0, (0.75, 0.85)),
)
# Both counts are odd so that the median request falls inside one template's
# cluster of latencies rather than in the gap between two.


def mean_capacity_gbps(gain_db: float, sigma_db: float) -> float:
    """Mean slot capacity in Gbps, by Gauss-Hermite quadrature over the shadowing.

    Computed here rather than by the program so that the inputs do not
    depend on the code being measured.
    """
    snr = 10.0 ** ((gain_db + sigma_db * _Z) / 10.0)
    return BITS_PER_NAT * float(np.dot(_W, np.log1p(snr))) / SLOT_SECONDS / 1e9


def _doc(gain, sigma, rate, delta, kind, epsilons, axis="none", grid=(),
         simulate=False, seed=0):
    return {
        "channel": {"mean_snr_db": round(gain, 6), "sigma_db": round(sigma, 6),
                    "bandwidth_hz": BANDWIDTH_HZ, "slot_seconds": SLOT_SECONDS},
        "arrival": {"rate_gbps": round(rate, 6), "burst_bits": 0.0},
        "discretization": {"delta": delta},
        "query": {"kind": kind, "epsilons": list(epsilons)},
        "sweep": {"axis": axis, "grid": [round(v, 6) for v in grid]},
        "sim": {"enabled": simulate, "replications": SIM_REPLICATIONS,
                "seed": seed, "horizon_slots": SIM_HORIZON_SLOTS},
    }


def _uniform(rng, lo, hi):
    return lo + (hi - lo) * float(rng.random())


def _increasing(rng, lo, hi, n):
    """n draws, one in the middle fifth of each of n equal bins of (lo, hi)."""
    width = (hi - lo) / n
    return [lo + width * (i + _uniform(rng, 0.4, 0.6)) for i in range(n)]


def _request(rng, t: Template, delta, simulate: bool) -> dict:
    gain = t.gain_db + _uniform(rng, -GAIN_JITTER_DB, GAIN_JITTER_DB)
    sigma = t.sigma_db + _uniform(rng, -SIGMA_JITTER_DB, SIGMA_JITTER_DB)
    seed = int(rng.integers(2**31))
    gains, sigmas, grid = [gain], [sigma], ()
    if t.axis == "gain":
        grid = gains = _increasing(rng, GAIN_DB[0], gain, t.points - 1) + [gain]
    elif t.axis == "sigma":
        grid = sigmas = _increasing(rng, SIGMA_DB[0], sigma, t.points - 1) + [sigma]
    elif t.axis == "epsilon":
        grid = sorted(t.epsilons)
    capacity = min(mean_capacity_gbps(g, s) for g in gains for s in sigmas)
    if t.axis == "rate":
        grid = [capacity * rho for rho in _increasing(rng, *t.load, t.points)]
        rate = grid[0]
    else:
        rate = capacity * _uniform(rng, *t.load)
    return _doc(gains[0], sigmas[0], rate, delta, t.kind, t.epsilons, t.axis, grid,
                simulate=simulate, seed=seed)


def _plan(seed: int, templates, delta, simulate: bool) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [_request(rng, t, delta, simulate)
            for _ in range(PLAN_CYCLES) for t in templates]


WORKLOADS = ("bounds-discretized", "bounds-exact", "mc-validation")


def plan_for(workload: str, seed: int) -> list[dict]:
    """The seeded plan of a workload; bounds-exact has bounds-discretized's points."""
    if workload == "bounds-discretized":
        return _plan(seed, BOUND_TEMPLATES, 0.01, simulate=False)
    if workload == "bounds-exact":
        return _plan(seed, BOUND_TEMPLATES, "limit", simulate=False)
    if workload == "mc-validation":
        return _plan(seed, MC_TEMPLATES, "limit", simulate=True)
    raise ValueError(f"unknown workload {workload!r}")
