"""Scenario ingestion, sweep orchestration, and CSV/JSON result emission.

A scenario is a JSON document selecting a channel, an arrival flow, a
discretization mode, a bound query, one sweep axis, and optional
simulation settings. ``_FIELDS`` is its schema: each field's JSON section
and key, cast, default and range rule are written there once, and
parsing, serialization and the per-field checks loop over it. An unknown
section or key is an error, and so is a ``channel.link_budget`` given
beside ``mean_snr_db`` or ``bandwidth_hz``.

Unit conversions live here and nowhere else: arrival rates enter in Gbps
and become bits per slot; delay bounds leave in seconds. Sweep points'
bounds are evaluated one after another in sweep-index order on the
calling thread, and output rows follow that order. The stable points of a
simulated scenario are then simulated together by
``simulator.stationary_tails`` at one master seed, on common random
numbers: replication i of every point reads the same normals, its first
112 slots from its group of 1024 replications' stream and any later ones
from its own. Each row's ``violation`` estimates the stationary
probability that the backlog or delay exceeds its bound, by mean-shifted
importance sampling, and ``violation_halfwidth`` is 1.96 times the sample
standard deviation of the importance weights over the square root of the
replication count, or infinite where a replication reached the slot cap.
In limit mode the simulator takes each point's stability edge from its
bounds. Each point's simulated columns are those of the point run alone,
wherever it sits in the sweep. ``sim.horizon_slots`` stays in
the schema, since unknown keys are rejected and existing documents set
it, but only the library's ``run_experiment`` reads a horizon; the
CLI's columns do not depend on it. A point whose replications reach the
simulator's slot cap gets one warning, since its estimates then err
high. A fixed scenario plus seed yields a byte-identical table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Any, Callable

import numpy as np

from . import __version__
from .arrival import AffineEnvelope
from .bounds import (
    EXTEND_THETA_CAP,
    BoundQuery,
    UnstableSystemError,
    backlog_bound,
    delay_bound,
)
from .channel import MAX_MEAN_SNR_DB, LinkBudget, ShadowingChannel, system_gain_db
from .inverse_moment import DiscretizationConfig
from .service import ServiceCharacterization
from .simulator import DELAY_SEARCH_CAP, MAX_REPLICATIONS, stationary_tails


class ScenarioError(ValueError):
    """Scenario file or flag contents failed validation."""


def _number(value) -> float:
    # JSON numbers only: float() would also take true and "1.0".
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _floats(values) -> tuple:
    return tuple(_number(v) for v in values)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _integer(value) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected an integer, got {value!r}")


_REPLICATIONS_RULE = f"between 1 and {MAX_REPLICATIONS}"
_MEAN_SNR_RULE = f"at most {MAX_MEAN_SNR_DB:g} dB"

# Range rules, keyed by the words their error message prints.
_RULES: dict[str, Callable[[Any], bool]] = {
    "non-negative": lambda v: v >= 0,
    "positive": lambda v: v > 0,
    "at least 1": lambda v: v >= 1,
    _REPLICATIONS_RULE: lambda v: 1 <= v <= MAX_REPLICATIONS,
    _MEAN_SNR_RULE: lambda v: v <= MAX_MEAN_SNR_DB,
    "positive or 'limit'": lambda v: v == "limit" or (not isinstance(v, str) and v > 0),
}

_REQUIRED = object()


@dataclass(frozen=True)
class _Field:
    """Where one Scenario attribute lives in a scenario document."""

    attr: str
    section: str
    key: str
    cast: Callable[[Any], Any]
    default: Any = _REQUIRED
    rule: str | None = None  # a key of _RULES

    def pull(self, section: dict):
        if self.key not in section:
            if self.default is _REQUIRED:
                raise ScenarioError(f"missing field '{self.section}.{self.key}'")
            return self.default
        try:
            return self.cast(section[self.key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"invalid field '{self.section}.{self.key}': {exc}") from exc

    def problem(self, value) -> str | None:
        """The error message if ``value`` breaks this field's range rule, else None."""
        if self.rule is None or _RULES[self.rule](value):
            return None
        return f"{self.section}.{self.key} must be {self.rule}"


# The scenario schema. A section is required when one of its fields is.
_FIELDS = (
    _Field("mean_snr_db", "channel", "mean_snr_db", _number, rule=_MEAN_SNR_RULE),
    _Field("sigma_db", "channel", "sigma_db", _number, rule="non-negative"),
    _Field("bandwidth_hz", "channel", "bandwidth_hz", _number, rule="positive"),
    _Field("slot_seconds", "channel", "slot_seconds", _number, 1.0, "positive"),
    _Field("rate_gbps", "arrival", "rate_gbps", _number, rule="non-negative"),
    _Field("burst_bits", "arrival", "burst_bits", _number, 0.0, "non-negative"),
    _Field("delta", "discretization", "delta",
           lambda v: v if isinstance(v, str) else _number(v), 1e-2, "positive or 'limit'"),
    _Field("kind", "query", "kind", str),
    _Field("epsilons", "query", "epsilons", _floats, ()),
    _Field("sweep_axis", "sweep", "axis", str, "none"),
    _Field("sweep_grid", "sweep", "grid", _floats, ()),
    _Field("simulate", "sim", "enabled", _boolean, False),
    _Field("replications", "sim", "replications", _integer, 10000, _REPLICATIONS_RULE),
    _Field("seed", "sim", "seed", _integer, 0, "non-negative"),
    _Field("horizon_slots", "sim", "horizon_slots", _integer, 2000, "at least 1"),
)

# Section -> its fields, in schema order; and attribute -> its field.
_SECTIONS: dict[str, list[_Field]] = {}
for _f in _FIELDS:
    _SECTIONS.setdefault(_f.section, []).append(_f)
del _f
_FIELD_OF = {f.attr: f for f in _FIELDS}


def _epsilon_problem(eps: float) -> str | None:
    """The error message if one epsilon lies outside (0, 1), else None."""
    return None if 0 < eps < 1 else "epsilons must lie strictly between 0 and 1"


# Sweep axis -> the Scenario attribute that each grid value replaces.
_AXIS_FIELDS = {"none": None, "rate": "rate_gbps", "gain": "mean_snr_db",
                "sigma": "sigma_db", "epsilon": "epsilons"}


def _reject_unknown(mapping: dict, known, where: str) -> None:
    for key in mapping:
        if key not in known:
            raise ScenarioError(
                f"unknown field '{where}.{key}'; expected one of {', '.join(known)}")


def _resolve_link_budget(chan: dict) -> dict:
    """The channel section with its link_budget replaced by the mean SNR and
    bandwidth that the budget implies."""
    if "link_budget" not in chan:
        return chan
    for key in ("mean_snr_db", "bandwidth_hz"):
        if key in chan:
            raise ScenarioError(f"channel.link_budget conflicts with channel.{key}")
    lb = chan["link_budget"]
    if not isinstance(lb, dict):
        raise ScenarioError("invalid channel.link_budget: expected an object")
    names = [f.name for f in fields(LinkBudget)]
    _reject_unknown(lb, names, "channel.link_budget")
    try:
        budget = LinkBudget(**{name: _number(lb[name]) for name in names})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"invalid channel.link_budget: {exc}") from exc
    rest = {k: v for k, v in chan.items() if k != "link_budget"}
    return {**rest, "mean_snr_db": system_gain_db(budget), "bandwidth_hz": budget.bandwidth_hz}


@dataclass(frozen=True)
class Scenario:
    """One experiment description; see the bundled scenarios/ files.

    ``_FIELDS`` gives each attribute's JSON path, cast, default and range.
    """

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
    simulate: bool
    replications: int
    seed: int
    horizon_slots: int

    def validate(self) -> None:
        """Raise ScenarioError with the first rule that the scenario breaks.

        Every number must be finite, the grid values included, and every
        field must meet its range rule. A sweep grid value replaces one
        field, so it is checked against that field's rule alone (an
        epsilon against 0 < epsilon < 1), and its error reads
        ``sweep.grid value {value}: {rule's message}``. The bandwidth
        times the slot must keep the per-slot factor's exponent finite at
        the bounds' theta cap, in either mode.
        """
        values = [getattr(self, f.attr) for f in _FIELDS]
        flat = [x for v in values for x in (v if isinstance(v, tuple) else (v,))]
        if any(isinstance(x, float) and not math.isfinite(x) for x in flat):
            raise ScenarioError("scenario numbers must be finite")
        for f, value in zip(_FIELDS, values):
            message = f.problem(value)
            if message is not None:
                raise ScenarioError(message)
        if self.kind not in ("backlog", "delay"):
            raise ScenarioError("query.kind must be 'backlog' or 'delay'")
        # Either route's factor needs a finite exponent theta * bits_per_nat
        # at every theta the bounds may probe, the cap included.
        bits_per_nat = ShadowingChannel(self.mean_snr_db, self.sigma_db, self.bandwidth_hz,
                                        self.slot_seconds).bits_per_nat
        if not math.isfinite(EXTEND_THETA_CAP * bits_per_nat):
            raise ScenarioError(
                "channel.bandwidth_hz * channel.slot_seconds is too large: "
                f"the exponent at theta = {EXTEND_THETA_CAP:g} overflows")
        if self.sweep_axis not in _AXIS_FIELDS:
            raise ScenarioError(f"sweep.axis must be one of {tuple(_AXIS_FIELDS)}")
        if self.sweep_axis != "epsilon" and not self.epsilons:
            raise ScenarioError("query.epsilons must be non-empty")
        for eps in self.epsilons:
            message = _epsilon_problem(eps)
            if message is not None:
                raise ScenarioError(message)
        if len(set(self.epsilons)) < len(self.epsilons):
            raise ScenarioError("query.epsilons must not repeat a value")
        if self.sweep_axis != "none":
            grid = self.sweep_grid
            if not grid:
                raise ScenarioError("sweep.grid must be non-empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ScenarioError("sweep.grid must be strictly increasing")
            # A grid value replaces one field of a point that is otherwise
            # this scenario, so only that field's own rule can fail there.
            attr = _AXIS_FIELDS[self.sweep_axis]
            problem = _epsilon_problem if attr == "epsilons" else _FIELD_OF[attr].problem
            for value in grid:
                message = problem(value)
                if message is not None:
                    raise ScenarioError(f"sweep.grid value {value}: {message}")

    def to_dict(self) -> dict:
        doc: dict = {}
        for f in _FIELDS:
            value = getattr(self, f.attr)
            doc.setdefault(f.section, {})[f.key] = (
                list(value) if isinstance(value, tuple) else value)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError("a scenario must be a JSON object")
        for name in doc:
            if name not in _SECTIONS:
                raise ScenarioError(
                    f"unknown section '{name}'; expected one of {', '.join(_SECTIONS)}")
        values = {}
        for name, section_fields in _SECTIONS.items():
            sec = doc.get(name)
            if sec is None:
                if any(f.default is _REQUIRED for f in section_fields):
                    raise ScenarioError(f"missing section '{name}'")
                sec = {}
            if not isinstance(sec, dict):
                raise ScenarioError(f"section '{name}' must be an object")
            if name == "channel":
                sec = _resolve_link_budget(sec)
            _reject_unknown(sec, [f.key for f in section_fields], name)
            for f in section_fields:
                values[f.attr] = f.pull(sec)
        scenario = Scenario(**values)
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
    attr = _AXIS_FIELDS[axis]
    if attr is None:
        return base
    return replace(base, **{attr: (value,) if attr == "epsilons" else value})


def _sim_seed(seed: int) -> int:
    """Master seed of a scenario's replications, derived from its sim.seed:
    the first two words of SeedSequence(seed)'s spawn child 0."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=(0,)).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)


def _service(channel: ShadowingChannel, delta: float | str) -> ServiceCharacterization:
    """Service characterization of a channel in a discretization mode."""
    if delta == "limit":
        return ServiceCharacterization(channel, exact=True)
    return ServiceCharacterization(channel, DiscretizationConfig(step_delta=float(delta)))


def _evaluate_point(point: Scenario, axis: str, value, env: AffineEnvelope,
                    svc: ServiceCharacterization) -> tuple[list[ResultRow], list | None]:
    """The rows of a sweep point, one per epsilon, and their bounds in
    simulator units: bits for backlog, whole slots for delay.

    Stability does not depend on epsilon: either every bound of the point
    exists or none does, and an unstable point has no bounds (None).
    """
    bound = backlog_bound if point.kind == "backlog" else delay_bound
    try:
        results = [bound(env, svc, BoundQuery(epsilon=eps, kind=point.kind))
                   for eps in point.epsilons]
    except UnstableSystemError:
        return [ResultRow(axis, value, eps, point.kind, stable=False, bound=None,
                          optimal_theta=None, theta_lower=None, theta_upper=None)
                for eps in point.epsilons], None

    rows = [ResultRow(
        axis, value, eps, point.kind, stable=True,
        bound=res.value if point.kind == "backlog" else res.value * point.slot_seconds,
        optimal_theta=res.optimal_theta, theta_lower=res.stability.theta_lower,
        theta_upper=res.stability.theta_upper)
        for eps, res in zip(point.epsilons, results)]
    return rows, [res.value for res in results]


def run_scenario(scenario: Scenario, capped: dict | None = None) -> list[ResultRow]:
    """Evaluate every (sweep point x epsilon) cell of a scenario.

    Sweep points' bounds run in sweep-index order on the calling thread;
    rows come back ordered by sweep index then by the scenario's epsilon
    order. Consecutive points with the same channel and delta share one
    service characterization, so its memoized per-slot factors are
    computed once. With simulation on, the stable points are simulated
    together, all at the master seed _sim_seed(seed): each row's violation
    is stationary_tails' estimate of the stationary tail at its bound,
    equal to that of the point's own run at that seed, and points with
    the same envelope and channel share one walk. In limit mode the rows'
    theta_upper, the exact-mode stability edge, is handed to the
    simulator, which would otherwise search it again. ``capped``, if given,
    maps each simulated (sweep axis, sweep value) whose rows reached
    DELAY_SEARCH_CAP to the most replications capped at one of its rows.
    """
    scenario.validate()
    axis = scenario.sweep_axis
    values = [None] if axis == "none" else list(scenario.sweep_grid)
    rows: list[ResultRow] = []
    simulated = []  # ((envelope, channel), rows, bounds) of each stable point
    key = svc = None
    for value in values:
        point = _point_scenario(scenario, axis, value)
        channel = ShadowingChannel(point.mean_snr_db, point.sigma_db, point.bandwidth_hz,
                                   point.slot_seconds)
        if key != (channel, point.delta):
            key = (channel, point.delta)
            svc = _service(*key)
        env = AffineEnvelope(burst_bits=point.burst_bits,
                             rate_bits_per_slot=point.rate_gbps * 1e9 * point.slot_seconds)
        point_rows, bounds = _evaluate_point(point, axis, value, env, svc)
        rows.extend(point_rows)
        if scenario.simulate and bounds is not None:
            simulated.append(((env, channel), point_rows, bounds))
    if simulated:
        # A limit-mode bound has found each point's exact-mode stability
        # edge, from which the simulator shifts its normals.
        edges = ([point_rows[0].theta_upper for _, point_rows, _ in simulated]
                 if scenario.delta == "limit" else None)
        tails = stationary_tails([pt for pt, _, _ in simulated], scenario.kind,
                                 [bounds for _, _, bounds in simulated],
                                 scenario.replications, _sim_seed(scenario.seed), edges)
        for (_, point_rows, _), point_tails in zip(simulated, tails):
            for row, (estimate, halfwidth, _) in zip(point_rows, point_tails):
                row.violation, row.violation_halfwidth = estimate, halfwidth
            most = max(count for _, _, count in point_tails)
            if most and capped is not None:
                capped[(point_rows[0].sweep_axis, point_rows[0].sweep_value)] = most
    return rows


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


_ROW_FIELDS = tuple(f.name for f in fields(ResultRow))


def rows_to_csv(rows: list[ResultRow], scenario: Scenario) -> str:
    lines = [f"# linkbound {__version__} scenario={scenario_hash(scenario)} schema=1",
             ",".join(_ROW_FIELDS)]
    lines.extend(",".join(_fmt(getattr(row, name)) for name in _ROW_FIELDS) for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[ResultRow], scenario: Scenario) -> str:
    doc = {
        "tool": "linkbound",
        "version": __version__,
        "scenario": scenario_hash(scenario),
        "rows": [
            {name: _json_value(getattr(r, name)) for name in _ROW_FIELDS} for r in rows
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
    parser.add_argument("--sweep", choices=_AXIS_FIELDS, help="override the sweep axis")
    parser.add_argument("--epsilon", help="override epsilons, comma-separated")
    parser.add_argument("--delta", help="override grid step (number or 'limit')")
    parser.add_argument("--simulate", action="store_true", help="enable simulation")
    parser.add_argument("--replications", type=int, help="override replication count")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    changes = {"sweep_axis": args.sweep, "simulate": args.simulate or None,
               "replications": args.replications, "seed": args.seed}
    if args.epsilon is not None:
        try:
            changes["epsilons"] = tuple(
                float(tok) for tok in args.epsilon.split(",") if tok.strip())
        except ValueError as exc:
            raise ScenarioError(f"bad --epsilon list: {exc}") from exc
    if args.delta is not None:
        try:
            changes["delta"] = args.delta if args.delta == "limit" else float(args.delta)
        except ValueError as exc:
            raise ScenarioError(f"bad --delta: {exc}") from exc
    scenario = replace(scenario, **{k: v for k, v in changes.items() if v is not None})
    scenario.validate()
    return scenario


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
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

    # Opened before the run, as a shell redirection would be, so that an
    # unwritable path fails at once.
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    capped: dict = {}
    try:
        rows = run_scenario(scenario, capped)
        out.write((rows_to_csv if args.format == "csv" else rows_to_json)(rows, scenario))
    # Such as a grid step too fine for the table (ValueError) or a delay
    # past the search's 2^40 slots (RuntimeError).
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out is not sys.stdout:
            out.close()

    unstable = dict.fromkeys((r.sweep_axis, r.sweep_value) for r in rows if not r.stable)
    for axis, value in unstable:
        print(f"warning: {_where(axis, value)} is unstable; no bound exists", file=sys.stderr)
    for (axis, value), count in capped.items():
        print(f"warning: {_where(axis, value)}: {count} of {scenario.replications} "
              f"replications reached the {DELAY_SEARCH_CAP}-slot cap; its violation "
              f"estimates err high", file=sys.stderr)
    return 1 if unstable else 0


def _where(axis: str, value) -> str:
    return "the scenario" if axis == "none" else f"sweep point {axis}={value}"


if __name__ == "__main__":
    raise SystemExit(main())
