"""The expected outputs of the four Monte Carlo commands that the
benchmark's ``mc-experiments`` workload runs, at 20 replicates, under
the master seeds ``perfbench/run.py`` derives from its seed 1.

``tests/expected/simulate/<name>/`` holds each command's CSV and text
outputs and its standard output, and ``draws.json`` the sha256 of each
command's replicate-0 draw. ``test_expected_simulate.py`` checks the
package against them. To regenerate the set, run from the root of a
checkout::

    PYTHONPATH=src python tests/expected_simulate.py

and list each file that moved, with its largest drift, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from agecurve import cli
from agecurve.simulate import _draw, derive_replicate_seed

EXPECTED = Path(__file__).resolve().parent / "expected" / "simulate"
REPS = 20
# (output directory, experiment, master seed, attrition strength or None)
COMMANDS = (
    ("mediator", "mediator", 633091188, None),
    ("truncation", "truncation", 4108886747, None),
    ("attrition-0.5", "attrition", 2593146821, 0.5),
    ("attrition-0", "attrition", 1166370372, 0.0),
)


def argv(name: str, experiment: str, seed: int, strength: float | None) -> list[str]:
    """The command line, writing to ``out/<name>`` under the working
    directory."""
    args = ["simulate", "--experiment", experiment, "--reps", str(REPS), "--seed", str(seed),
            "--format", "csv,text", "--out", f"out/{name}"]
    return args if strength is None else [*args, "--strength", str(strength)]


def draw_digest(experiment: str, seed: int, strength: float | None) -> str:
    """sha256 of the columns of replicate 0's draw and of the rows
    attrition drops from it."""
    config = cli.EXPERIMENTS[experiment][0](seed)
    if strength is not None:
        config = replace(config, attrition=replace(config.attrition, strength=strength))
    survey, drop = _draw(replace(config, seed=derive_replicate_seed(seed, 0)))
    digest = hashlib.sha256()
    for column in (survey.age, survey.round, survey.happiness, survey.mediator, drop):
        if column is not None:
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def run(name: str, experiment: str, seed: int, strength: float | None) -> tuple[int, str]:
    """The exit code and standard output of one command, run in process
    from the current working directory."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv(name, experiment, seed, strength))
    return code, stdout.getvalue()


def main() -> None:
    digests = {}
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for command in COMMANDS:
                code, stdout = run(*command)
                (Path("out") / command[0] / "stdout.txt").write_text(f"exit {code}\n{stdout}", encoding="utf-8")
                digests[command[0]] = draw_digest(*command[1:])
        finally:
            os.chdir(cwd)
        for command in COMMANDS:
            target = EXPECTED / command[0]
            target.mkdir(parents=True, exist_ok=True)
            for path in (Path(work) / "out" / command[0]).iterdir():
                shutil.copyfile(path, target / path.name)
    (EXPECTED / "draws.json").write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
