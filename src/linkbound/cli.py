"""Scenario ingestion, sweep orchestration, and CSV/JSON result emission.

A scenario is a JSON document selecting a channel, an arrival flow, a
discretization mode, a bound query, one sweep axis, and optional
simulation settings. Unit conversions live here and nowhere else:
arrival rates enter in Gbps and become bits per slot; delay bounds leave
in seconds. Sweep points are evaluated one after another in sweep-index
order on the calling thread, output rows follow that order, and a fixed
scenario plus seed yields a byte-identical table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .arrival import AffineEnvelope
from .bounds import BoundQuery, UnstableSystemError, backlog_bound, delay_bound
from .channel import LinkBudget, ShadowingChannel, system_gain_db
from .inverse_moment import DiscretizationConfig
from .service import ServiceCharacterization
from .simulator import SimConfig, run_experiment

SWEEP_AXES = ("none", "rate", "gain", "sigma", "epsilon")


class ScenarioError(ValueError):
    """Scenario file or flag contents failed validation."""


@dataclass(frozen=True)
class Scenario:
    """One experiment description; see the bundled scenarios/ files."""

    mean_snr_db: float
    sigma_db: float
    bandwidth_hz: float
    slot_seconds: float
    rate_gbps: float
    burst_bits: float
    delta: float | str  # grid step, or the string "limit" for exact mode
    kind: str
    epsilons: tuple
    sweep_axis: str
    sweep_grid: tuple
    simulate: bool = False
    replications: int = 10000
    seed: int = 0
    horizon_slots: int = 2000

    def validate(self) -> None:
        delta = () if isinstance(self.delta, str) else (self.delta,)
        numbers = (self.mean_snr_db, self.sigma_db, self.bandwidth_hz, self.slot_seconds,
                   self.rate_gbps, self.burst_bits, *delta, *self.epsilons, *self.sweep_grid)
        if not all(math.isfinite(v) for v in numbers):
            raise ScenarioError("scenario numbers must be finite")
        if self.sigma_db < 0:
            raise ScenarioError("channel.sigma_db must be non-negative")
        if self.bandwidth_hz <= 0:
            raise ScenarioError("channel.bandwidth_hz must be positive")
        if self.slot_seconds <= 0:
            raise ScenarioError("channel.slot_seconds must be positive")
        if self.rate_gbps < 0:
            raise ScenarioError("arrival.rate_gbps must be non-negative")
        if self.burst_bits < 0:
            raise ScenarioError("arrival.burst_bits must be non-negative")
        if isinstance(self.delta, str):
            if self.delta != "limit":
                raise ScenarioError("discretization.delta must be a number or 'limit'")
        elif self.delta <= 0:
            raise ScenarioError("discretization.delta must be positive")
        if self.kind not in ("backlog", "delay"):
            raise ScenarioError("query.kind must be 'backlog' or 'delay'")
        if self.sweep_axis not in SWEEP_AXES:
            raise ScenarioError(f"sweep.axis must be one of {SWEEP_AXES}")
        if self.sweep_axis == "epsilon":
            if not self.sweep_grid:
                raise ScenarioError("sweep.grid must be non-empty")
        elif not self.epsilons:
            raise ScenarioError("query.epsilons must be non-empty")
        for eps in self.epsilons:
            if not 0 < eps < 1:
                raise ScenarioError("epsilons must lie strictly between 0 and 1")
        if self.replications < 1:
            raise ScenarioError("sim.replications must be at least 1")
        if self.seed < 0:
            raise ScenarioError("sim.seed must be non-negative")
        if self.horizon_slots < 1:
            raise ScenarioError("sim.horizon_slots must be at least 1")
        if self.sweep_axis != "none":
            grid = self.sweep_grid
            if not grid:
                raise ScenarioError("sweep.grid must be non-empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ScenarioError("sweep.grid must be strictly increasing")
            unswept = replace(self, sweep_axis="none")
            for value in grid:
                try:
                    _point_scenario(unswept, self.sweep_axis, value).validate()
                except ScenarioError as exc:
                    raise ScenarioError(f"sweep.grid value {value}: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "channel": {
                "mean_snr_db": self.mean_snr_db,
                "sigma_db": self.sigma_db,
                "bandwidth_hz": self.bandwidth_hz,
                "slot_seconds": self.slot_seconds,
            },
            "arrival": {"rate_gbps": self.rate_gbps, "burst_bits": self.burst_bits},
            "discretization": {"delta": self.delta},
            "query": {"kind": self.kind, "epsilons": list(self.epsilons)},
            "sweep": {"axis": self.sweep_axis, "grid": list(self.sweep_grid)},
            "sim": {
                "enabled": self.simulate,
                "replications": self.replications,
                "seed": self.seed,
                "horizon_slots": self.horizon_slots,
            },
        }

    @staticmethod
    def from_dict(doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError("a scenario must be a JSON object")

        def section(name, required=True):
            sec = doc.get(name)
            if sec is None:
                if required:
                    raise ScenarioError(f"missing section '{name}'")
                return {}
            if not isinstance(sec, dict):
                raise ScenarioError(f"section '{name}' must be an object")
            return sec

        def pull(sec, secname, key, cast, default=None, required=False):
            if key not in sec:
                if required:
                    raise ScenarioError(f"missing field '{secname}.{key}'")
                return default
            try:
                return cast(sec[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ScenarioError(f"invalid field '{secname}.{key}': {exc}") from exc

        def number(value):
            # JSON numbers only: float() would also take true and "1.0".
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"expected a number, got {value!r}")
            return float(value)

        def floats(values):
            return tuple(number(v) for v in values)

        def boolean(value):
            if not isinstance(value, bool):
                raise TypeError(f"expected true or false, got {value!r}")
            return value

        def integer(value):
            if isinstance(value, float) and value.is_integer():
                return int(value)
            if isinstance(value, int) and not isinstance(value, bool):
                return value
            raise TypeError(f"expected an integer, got {value!r}")

        chan = section("channel")
        if "link_budget" in chan:
            lb = chan["link_budget"]
            try:
                budget = LinkBudget(
                    transmit_power_dbm=number(lb["transmit_power_dbm"]),
                    antenna_gain_tx_db=number(lb["antenna_gain_tx_db"]),
                    antenna_gain_rx_db=number(lb["antenna_gain_rx_db"]),
                    noise_density_dbm_per_mhz=number(lb["noise_density_dbm_per_mhz"]),
                    bandwidth_hz=number(lb["bandwidth_hz"]),
                    distance_m=number(lb["distance_m"]),
                    pathloss_intercept_db=number(lb["pathloss_intercept_db"]),
                    pathloss_exponent=number(lb["pathloss_exponent"]),
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ScenarioError(f"invalid channel.link_budget: {exc}") from exc
            mean_snr = system_gain_db(budget)
            bandwidth = budget.bandwidth_hz
        else:
            mean_snr = pull(chan, "channel", "mean_snr_db", number, required=True)
            bandwidth = pull(chan, "channel", "bandwidth_hz", number, required=True)

        arr = section("arrival")
        disc = section("discretization", required=False)
        query = section("query")
        sweep = section("sweep", required=False)
        sim = section("sim", required=False)

        delta = pull(disc, "discretization", "delta",
                     lambda v: v if isinstance(v, str) else number(v), 1e-2)

        scenario = Scenario(
            mean_snr_db=mean_snr,
            sigma_db=pull(chan, "channel", "sigma_db", number, required=True),
            bandwidth_hz=bandwidth,
            slot_seconds=pull(chan, "channel", "slot_seconds", number, 1.0),
            rate_gbps=pull(arr, "arrival", "rate_gbps", number, required=True),
            burst_bits=pull(arr, "arrival", "burst_bits", number, 0.0),
            delta=delta,
            kind=pull(query, "query", "kind", str, required=True),
            epsilons=pull(query, "query", "epsilons", floats, ()),
            sweep_axis=pull(sweep, "sweep", "axis", str, "none"),
            sweep_grid=pull(sweep, "sweep", "grid", floats, ()),
            simulate=pull(sim, "sim", "enabled", boolean, False),
            replications=pull(sim, "sim", "replications", integer, 10000),
            seed=pull(sim, "sim", "seed", integer, 0),
            horizon_slots=pull(sim, "sim", "horizon_slots", integer, 2000),
        )
        scenario.validate()
        return scenario


def scenario_hash(scenario: Scenario) -> str:
    canonical = json.dumps(scenario.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class ResultRow:
    sweep_axis: str
    sweep_value: float | None
    epsilon: float
    kind: str
    stable: bool
    bound: float | None  # bits for backlog, seconds for delay
    optimal_theta: float | None
    theta_lower: float | None
    theta_upper: float | None
    violation: float | None = None
    violation_halfwidth: float | None = None


def _point_scenario(base: Scenario, axis: str, value: float) -> Scenario:
    if axis == "rate":
        return replace(base, rate_gbps=value)
    if axis == "gain":
        return replace(base, mean_snr_db=value)
    if axis == "sigma":
        return replace(base, sigma_db=value)
    if axis == "epsilon":
        return replace(base, epsilons=(value,))
    return base


def _point_seed(seed: int, index: int) -> int:
    state = np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)


def _service(point: Scenario) -> ServiceCharacterization:
    """Service characterization of a point's channel, in its discretization mode."""
    channel = ShadowingChannel(point.mean_snr_db, point.sigma_db, point.bandwidth_hz,
                               point.slot_seconds)
    if point.delta == "limit":
        return ServiceCharacterization(channel, exact=True)
    return ServiceCharacterization(
        channel, DiscretizationConfig(step_delta=float(point.delta))
    )


def _evaluate_point(point: Scenario, axis: str, value, index: int,
                    shared_svc: ServiceCharacterization | None) -> list[ResultRow]:
    svc = shared_svc if shared_svc is not None else _service(point)
    channel = svc.channel
    env = AffineEnvelope(
        burst_bits=point.burst_bits,
        rate_bits_per_slot=point.rate_gbps * 1e9 * point.slot_seconds,
    )

    rows: list[ResultRow] = []
    results = {}
    unstable = False
    for eps in point.epsilons:
        query = BoundQuery(epsilon=eps, kind=point.kind)
        try:
            if point.kind == "backlog":
                results[eps] = backlog_bound(env, svc, query)
            else:
                results[eps] = delay_bound(env, svc, query)
        except UnstableSystemError:
            unstable = True
            results[eps] = None

    outcome = None
    if point.simulate and not unstable:
        outcome = run_experiment(
            env,
            channel,
            SimConfig(
                horizon_slots=point.horizon_slots,
                replications=point.replications,
                master_seed=_point_seed(point.seed, index),
            ),
        )

    for eps in point.epsilons:
        res = results[eps]
        if res is None:
            rows.append(
                ResultRow(axis, value, eps, point.kind, stable=False, bound=None,
                          optimal_theta=None, theta_lower=None, theta_upper=None)
            )
            continue
        if point.kind == "backlog":
            out_value = res.value
            out_threshold = res.value
        else:
            out_value = res.value * point.slot_seconds
            out_threshold = res.value
        row = ResultRow(
            sweep_axis=axis,
            sweep_value=value,
            epsilon=eps,
            kind=point.kind,
            stable=True,
            bound=out_value,
            optimal_theta=res.optimal_theta,
            theta_lower=res.stability.theta_lower,
            theta_upper=res.stability.theta_upper,
        )
        if outcome is not None:
            p_hat, half = outcome.exceedance(out_threshold, kind=point.kind)
            row.violation = p_hat
            row.violation_halfwidth = half
        rows.append(row)
    return rows


def run_scenario(scenario: Scenario) -> list[ResultRow]:
    """Evaluate every (sweep point x epsilon) cell of a scenario.

    Sweep points run in sweep-index order on the calling thread; rows come
    back ordered by sweep index then by the scenario's epsilon order.
    """
    scenario.validate()
    axis = scenario.sweep_axis
    if axis == "none":
        values = [None]
    else:
        values = list(scenario.sweep_grid)
    points = [_point_scenario(scenario, axis, v) if v is not None else scenario
              for v in values]

    # A rate or epsilon sweep keeps the channel fixed: share one service
    # characterization so its memoized transform grid is computed once.
    shared_svc = None
    if axis in ("rate", "epsilon", "none") or len(points) == 1:
        shared_svc = _service(points[0])

    rows: list[ResultRow] = []
    for i, (pt, val) in enumerate(zip(points, values)):
        rows.extend(_evaluate_point(pt, axis, val, i, shared_svc))
    return rows


_CSV_COLUMNS = (
    "sweep_axis", "sweep_value", "epsilon", "kind", "stable", "bound",
    "optimal_theta", "theta_lower", "theta_upper", "violation",
    "violation_halfwidth",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.12g}"
    return str(value)


def rows_to_csv(rows: list[ResultRow], scenario: Scenario) -> str:
    lines = [f"# linkbound {__version__} scenario={scenario_hash(scenario)} schema=1"]
    lines.append(",".join(_CSV_COLUMNS))
    for row in rows:
        record = asdict(row)
        lines.append(",".join(_fmt(record[c]) for c in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[ResultRow], scenario: Scenario) -> str:
    doc = {
        "tool": "linkbound",
        "version": __version__,
        "scenario": scenario_hash(scenario),
        "rows": [
            {k: _json_value(v) for k, v in asdict(r).items()} for r in rows
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _json_value(value):
    """Non-finite floats as the strings the CSV writer prints ("inf").

    Strict JSON has no Infinity or NaN.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkbound",
        description="Backlog/delay bounds and Monte Carlo validation for a "
        "buffered wireless link with log-normal shadowing.",
    )
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("--sweep", choices=SWEEP_AXES, help="override the sweep axis")
    parser.add_argument("--epsilon", help="override epsilons, comma-separated")
    parser.add_argument("--delta", help="override grid step (number or 'limit')")
    parser.add_argument("--simulate", action="store_true", help="enable simulation")
    parser.add_argument("--replications", type=int, help="override replication count")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    if args.sweep is not None:
        scenario = replace(scenario, sweep_axis=args.sweep)
    if args.epsilon is not None:
        try:
            eps = tuple(float(tok) for tok in args.epsilon.split(",") if tok.strip())
        except ValueError as exc:
            raise ScenarioError(f"bad --epsilon list: {exc}") from exc
        scenario = replace(scenario, epsilons=eps)
    if args.delta is not None:
        try:
            delta = args.delta if args.delta == "limit" else float(args.delta)
        except ValueError as exc:
            raise ScenarioError(f"bad --delta: {exc}") from exc
        scenario = replace(scenario, delta=delta)
    if args.simulate:
        scenario = replace(scenario, simulate=True)
    if args.replications is not None:
        scenario = replace(scenario, replications=args.replications)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    scenario.validate()
    return scenario


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: scenario is not valid JSON (line {exc.lineno}, col {exc.colno}): "
              f"{exc.msg}", file=sys.stderr)
        return 2
    try:
        scenario = _apply_overrides(Scenario.from_dict(doc), args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = run_scenario(scenario)
    text = (rows_to_csv if args.format == "csv" else rows_to_json)(rows, scenario)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    unstable = [r for r in rows if not r.stable]
    for row in unstable:
        print(
            f"warning: sweep point {row.sweep_axis}={row.sweep_value} is unstable; "
            "no bound exists there",
            file=sys.stderr,
        )
    return 1 if unstable else 0


if __name__ == "__main__":
    raise SystemExit(main())
