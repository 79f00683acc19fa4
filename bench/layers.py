"""Isolated timings of single linkbound layers, one operating point.

Run from the repository root:

    python3 bench/layers.py [--repeats 7]

Every case runs at 25 dB gain, 8 dB shadowing, 1 Gbps and delta = 0.01
(epsilon = 1e-3 for the bounds), repeated; the output gives the median and
quartiles of each. Bounds are timed in three named service states:

* ``cold``: a fresh ServiceCharacterization, so the call builds the table
  and fills the per-slot memo;
* ``table-built``: the table exists, the per-slot memo is empty;
* ``warm``: the same query was already answered on this service object.

``table-built`` reaches into ServiceCharacterization._ensure_table, the
only way to build the table without also filling the memo.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _time(fn, repeats: int, prepare=None) -> dict:
    """Median and quartiles of fn(state) over repeats; prepare() is untimed."""
    times = []
    for i in range(repeats):
        state = prepare(i) if prepare else i
        start = time.perf_counter()
        fn(state)
        times.append(time.perf_counter() - start)
    q1, med, q3 = statistics.quantiles(times, n=4) if repeats > 1 else (times[0],) * 3
    return {"median_s": med, "q1_s": q1, "q3_s": q3, "repeats": repeats}


def cases(repeats: int) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy as np

    import linkbound as lb
    from linkbound.inverse_moment import truncation_point

    channel = lb.ShadowingChannel(25.0, 8.0, 5e8, 1.0)
    config = lb.DiscretizationConfig(step_delta=0.01)
    env = lb.AffineEnvelope(0.0, 1e9)
    backlog = lb.BoundQuery(1e-3, "backlog")
    delay = lb.BoundQuery(1e-3, "delay")
    bpn = channel.bits_per_nat

    def fresh(exact=False):
        return lb.ServiceCharacterization(channel, None if exact else config, exact=exact)

    def table_built(_):
        svc = fresh()
        svc._ensure_table()
        return svc

    def warm(query, bound):
        def prepare(_):
            svc = fresh()
            bound(env, svc, query)
            return svc
        return prepare

    grid = np.arange(1, 1_000_001) * 0.01
    out = {
        "snr_cdf.grid_1e6": _time(lambda _: lb.snr_cdf(channel, grid), repeats),
        "truncation_point.table_size": _time(
            lambda _: truncation_point(fresh()._cdf, 0.0, config), repeats),
        "truncation_point.exponent_10": _time(
            lambda _: truncation_point(fresh()._cdf, 10.0, config), repeats),
        "table.build": _time(lambda svc: svc._ensure_table(), repeats,
                             lambda _: fresh()),
    }
    # Each repeat asks a fresh service (table prebuilt for the table route), so
    # every call is a memo miss; the quadratic route's first miss includes its
    # moment quadrature.
    for route, exponent, prepare in (
        ("quadratic", 0.01, lambda _: fresh()),
        ("table", 1.0, table_built),
        ("direct", 10.0, lambda _: fresh()),
        ("exact", 1.0, lambda _: fresh(exact=True)),
    ):
        out[f"factor.{route}"] = _time(
            lambda svc, e=exponent: svc.log_per_slot_bound(e / bpn), repeats, prepare)
    out["stability_region.table-built"] = _time(
        lambda svc: lb.stability_region(env, svc), repeats, table_built)
    out["stability_region.exact"] = _time(
        lambda svc: lb.stability_region(env, svc), repeats, lambda _: fresh(exact=True))
    for name, query, bound in (("backlog_bound", backlog, lb.backlog_bound),
                               ("delay_bound", delay, lb.delay_bound)):
        run = lambda svc, q=query, b=bound: b(env, svc, q)  # noqa: E731
        out[f"{name}.cold"] = _time(run, repeats, lambda _: fresh())
        out[f"{name}.table-built"] = _time(run, repeats, table_built)
        out[f"{name}.warm"] = _time(run, repeats, warm(query, bound))
        out[f"{name}.exact-cold"] = _time(run, repeats, lambda _: fresh(exact=True))
    out["run_replication.T2000"] = _time(
        lambda i: lb.run_replication(env, channel, 2000, lb.replication_rng(7, i)),
        max(repeats, 200))
    out["run_experiment.1000reps"] = _time(
        lambda i: lb.run_experiment(env, channel, lb.SimConfig(2000, 1000, i)), repeats)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    results = cases(args.repeats)
    for name, r in results.items():
        print(f"{name:34s} median {r['median_s'] * 1e3:10.3f} ms  "
              f"IQR [{r['q1_s'] * 1e3:.3f}, {r['q3_s'] * 1e3:.3f}] ms  n={r['repeats']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
