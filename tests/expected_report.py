"""The expected outputs of ``report --ess-columns --format csv,text,svg``
on two survey files from the benchmark's generator
(``perfbench/survey_gen.py``): seed 1 with 5,000 rows and 30 countries,
and seed 3 with 20,000 rows and 2 countries.

``tests/expected/report/<name>/`` holds each run's CSV, text and SVG
outputs, its exit code and standard output (``stdout.txt``) and its
standard error (``stderr.txt``), and ``inputs.json`` the sha256 of each
input file. ``test_expected_report.py`` checks the package against
them. To regenerate the set, run from the root of a checkout::

    PYTHONPATH=src python tests/expected_report.py

and list each file that moved, with its largest drift, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from agecurve import cli

EXPECTED = Path(__file__).resolve().parent / "expected" / "report"
# (output directory, survey_gen seed, rows, countries)
INPUTS = (
    ("seed1-30c", 1, 5_000, 30),
    ("seed3-2c", 3, 20_000, 2),
)


def survey_csv(path: Path, seed: int, rows: int, countries: int) -> str:
    """Write the benchmark generator's survey file to ``path`` and
    return its sha256."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "survey_gen.py"
    spec = importlib.util.spec_from_file_location("survey_gen", source)
    survey_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey_gen)
    return survey_gen.survey_csv(path, seed, rows, countries)


def run(name: str) -> tuple[str, str]:
    """``report`` on ``<name>.csv`` in the current working directory,
    writing to ``out/<name>``, run in process: its exit code and standard
    output, and its standard error."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = ["report", "--input", f"{name}.csv", "--ess-columns", "--format", "csv,text,svg",
            "--out", f"out/{name}"]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return f"exit {code}\n{stdout.getvalue()}", stderr.getvalue()


def main() -> None:
    digests = {}
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, *args in INPUTS:
                digests[name] = survey_csv(Path(f"{name}.csv"), *args)
                stdout, stderr = run(name)
                (Path("out") / name / "stdout.txt").write_text(stdout, encoding="utf-8")
                (Path("out") / name / "stderr.txt").write_text(stderr, encoding="utf-8")
        finally:
            os.chdir(cwd)
        for name, *_ in INPUTS:
            target = EXPECTED / name
            if target.exists():
                shutil.rmtree(target)
            shutil.copytree(Path(work) / "out" / name, target)
    (EXPECTED / "inputs.json").write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
