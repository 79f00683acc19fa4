"""Byte-identity of the bundled scenarios' CSV tables.

Each bundled scenario runs with simulation off, in its own mode, and the
two limit-mode scenarios also run at delta = 0.01. The scenarios that
enable simulation also run with it on at 2000 replications (the count CI
uses), which pins the Monte Carlo columns: the estimated stationary tail
at each bound and its half-width. The expected tables live in tests/data/. A change
that moves a digit on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and lists every digit that moved.
"""

import csv
import json
import pathlib
from dataclasses import replace

import pytest

from linkbound.cli import Scenario, rows_to_csv, run_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
SIM_REPLICATIONS = 2000


def golden_cases() -> list[tuple[str, Scenario]]:
    """(file stem, scenario) of every golden table."""
    cases = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        scenario = Scenario.from_dict(json.loads(path.read_text()))
        if scenario.simulate:
            simulated = replace(scenario, replications=SIM_REPLICATIONS)
            cases.append((f"{path.stem}.sim{SIM_REPLICATIONS}", simulated))
        scenario = replace(scenario, simulate=False)
        cases.append((path.stem, scenario))
        if scenario.delta == "limit":
            cases.append((f"{path.stem}.delta0.01", replace(scenario, delta=0.01)))
    return cases


def table(scenario: Scenario) -> str:
    return rows_to_csv(run_scenario(scenario), scenario)


@pytest.mark.parametrize(
    "stem, scenario", [pytest.param(*case, id=case[0]) for case in golden_cases()]
)
def test_csv_matches_golden(stem, scenario):
    assert table(scenario) == (DATA / f"{stem}.csv").read_text()


@pytest.mark.parametrize(
    "stem", [stem for stem, scenario in golden_cases() if scenario.simulate]
)
def test_simulated_tails_respect_epsilon(stem):
    # On every stable row the estimated tail at the bound is at most
    # epsilon, within its half-width.
    lines = (DATA / f"{stem}.csv").read_text().splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    assert rows
    for row in rows:
        if row["stable"] == "1":
            assert float(row["violation"]) <= (float(row["epsilon"])
                                               + float(row["violation_halfwidth"])), row


if __name__ == "__main__":
    for stem, scenario in golden_cases():
        (DATA / f"{stem}.csv").write_text(table(scenario))
        print(f"wrote {DATA / f'{stem}.csv'}")
