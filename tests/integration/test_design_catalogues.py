"""DESIGN.md's fault-point (§9) and probe-point (§10) tables list
exactly the points their catalogues define, so the docs cannot drift
from ``repro.faults.points.CATALOGUE`` and ``repro.probe.CATALOGUE``."""

import pathlib
import re

import repro.probe as probe
from repro.faults.points import CATALOGUE as FAULT_POINTS

DESIGN = pathlib.Path(__file__).resolve().parents[2] / "DESIGN.md"


def _section(number: int) -> str:
    text = DESIGN.read_text()
    start = re.search(rf"^## {number}\. ", text, re.M)
    end = re.search(rf"^## {number + 1}\. ", text, re.M)
    assert start and end, f"DESIGN.md has no section {number}"
    return text[start.start():end.start()]


def _table(section: str) -> dict:
    """First-column point name -> second column, for each table row
    whose first cell is a backticked name."""
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", section, re.M)
    return {name: second.strip() for name, second in rows}


def test_fault_table_matches_the_catalogue():
    table = _table(_section(9))
    assert table == {point: layer
                     for point, (layer, _effect) in FAULT_POINTS.items()}


def test_fault_point_count_matches_the_catalogue():
    counts = re.findall(r"all (\d+) catalogued fault points",
                        DESIGN.read_text())
    assert counts
    assert {int(n) for n in counts} == {len(FAULT_POINTS)}


def test_probe_table_matches_the_catalogue():
    assert set(_table(_section(10))) == set(probe.CATALOGUE)
