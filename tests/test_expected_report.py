"""``report`` on the two survey files of ``expected_report.py`` against
their committed outputs. Each input must hash as recorded first, so that
a change in the generator or in numpy's random streams shows as a
changed input rather than as changed results. Text and SVG outputs,
standard output and standard error must match byte for byte; CSV cells
that are numbers must agree within 1e-10 relative (NaN with NaN), and
the others exactly.
"""

from __future__ import annotations

import json

import pytest

import expected_report
from expected_report import EXPECTED, INPUTS
from test_expected_simulate import assert_same_csv


@pytest.mark.parametrize("survey", INPUTS, ids=[s[0] for s in INPUTS])
def test_outputs_match_the_committed_set(survey, tmp_path, monkeypatch):
    name = survey[0]
    digests = json.loads((EXPECTED / "inputs.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    assert expected_report.survey_csv(tmp_path / f"{name}.csv", *survey[1:]) == digests[name], (
        "the generated survey changed: the input moved, not the fits"
    )
    stdout, stderr = expected_report.run(name)
    expected = EXPECTED / name
    assert stdout == (expected / "stdout.txt").read_text(encoding="utf-8")
    assert stderr == (expected / "stderr.txt").read_text(encoding="utf-8")
    out = tmp_path / "out" / name
    files = sorted(p.name for p in expected.iterdir() if p.name not in ("stdout.txt", "stderr.txt"))
    assert sorted(p.name for p in out.iterdir()) == files
    for file in files:
        if file.endswith(".csv"):
            assert_same_csv(out / file, expected / file)
        else:
            assert (out / file).read_bytes() == (expected / file).read_bytes(), file
