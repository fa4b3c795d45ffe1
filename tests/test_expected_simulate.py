"""The four Monte Carlo commands of the benchmark's ``mc-experiments``
workload, at 20 replicates, against their committed outputs (see
``expected_simulate.py``). Each command's replicate-0 draw must hash as
recorded first, so that a change in numpy's random streams shows as a
changed input rather than as changed results. The text output and the
standard output must match byte for byte; CSV cells that are numbers
must agree within 1e-10 relative (NaN with NaN), and the others exactly.
"""

from __future__ import annotations

import csv
import json
import math

import pytest

import expected_simulate
from expected_simulate import COMMANDS, EXPECTED

REL = 1e-10


def _cells(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def assert_same_csv(path, expected):
    rows, reference = _cells(path), _cells(expected)
    assert len(rows) == len(reference)
    for row, want in zip(rows, reference):
        assert len(row) == len(want)
        for cell, text in zip(row, want):
            value, target = _number(cell), _number(text)
            if target is None or value is None:
                assert cell == text
            elif math.isnan(target):
                assert math.isnan(value), (cell, text)
            else:
                assert value == pytest.approx(target, rel=REL, abs=0.0), (cell, text)


@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_outputs_match_the_committed_set(command, tmp_path, monkeypatch):
    name, experiment = command[:2]
    digests = json.loads((EXPECTED / "draws.json").read_text(encoding="utf-8"))
    assert expected_simulate.draw_digest(*command[1:]) == digests[name], (
        "replicate 0's draw changed: the input moved, not the fits"
    )
    monkeypatch.chdir(tmp_path)
    code, stdout = expected_simulate.run(*command)
    expected = EXPECTED / name
    assert f"exit {code}\n{stdout}" == (expected / "stdout.txt").read_text(encoding="utf-8")
    out = tmp_path / "out" / name
    text = f"simulate_{experiment}.txt"
    assert (out / text).read_bytes() == (expected / text).read_bytes()
    assert_same_csv(out / f"simulate_{experiment}.csv", expected / f"simulate_{experiment}.csv")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        p.name for p in expected.iterdir() if p.name != "stdout.txt"
    )
