"""agecurve benchmark: one workload, measured end to end through the CLI.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload report-30c --seed 1 --seconds 25 --trace 0

The run generates the workload's input from ``--seed``, computes the
expected outputs with the benchmark's own oracle, then runs passes in a
closed loop with one client: each pass is a fresh interpreter
(``perfbench/child.py``) that imports the package and calls
``agecurve.cli.main``, and the next pass starts when the previous one
has ended. Passes start while the next one should end within
``--seconds``. Every pass's output files are checked against the oracle.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
holds the per-layer metrics of the fastest traced pass and the tracing
overhead. Details of every pass, the input sha256 and the environment go
to ``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import oracle
import outcheck
import survey_gen
import tracing

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench_work")
CHILD_TIMEOUT_S = 150
# Times are reported at a reference host speed, at which the
# calibration loop of child.py takes this long (see README.md,
# "Statistics").
REFERENCE_CALIBRATION_S = 0.05
# What results.json keeps of each pass's result.
PASS_FIELDS = ("setup_s", "calibration_s", "wall_s", "command_s", "peak_rss_mb", "span_cost_s")

MC_REPS = 4
# (output directory, experiment, attrition strength)
MC_RUNS = (
    ("mediator", "mediator", 0.0),
    ("truncation", "truncation", 0.0),
    ("attrition-0.5", "attrition", 0.5),
    ("attrition-0", "attrition", 0.0),
)


class SurveyWorkload:
    """A survey file generated from the seed and the oracle's outputs for
    it. Subclasses give the size, the commands and the output check."""

    ROWS: int
    COUNTRIES: int
    DETECT: bool

    def __init__(self, seed: int, work: Path) -> None:
        self.input = work / "survey.csv"
        self.rows = self.ROWS
        self.inputs: dict[str, str] = {}
        self.derived_seeds: dict[str, int] = {}
        self.expect = _screened(seed, "survey", self.derived_seeds, self._expectations)

    def _expectations(self, sub: int) -> dict | None:
        self.inputs[str(self.input)] = survey_gen.survey_csv(self.input, sub, self.ROWS, self.COUNTRIES)
        data = oracle.read_survey(self.input)
        try:
            return oracle.survey_expectations(data, oracle.QUAD_BATTERY, curves=True, detect=self.DETECT)
        except oracle.Unidentified:
            return None

    def _args(self, out: Path) -> list[str]:
        return ["--ess-columns", "--input", str(self.input), "--out", str(out)]

    def _fit_units(self, out: Path) -> dict[str, bool]:
        units: dict[str, bool] = {}
        for preset in oracle.QUAD_BATTERY:
            units.update(outcheck.check_fit(out / f"fit_{preset}.csv", self.expect, preset))
        return units

    def _curve_units(self, out: Path) -> dict[str, bool]:
        return {
            **outcheck.check_curves(out / "curves_fine.csv", self.expect),
            **outcheck.check_svg(out / "curves_fine.svg", self.expect),
        }


class ReportWorkload(SurveyWorkload):
    ROWS, COUNTRIES, DETECT = 5000, 30, True

    def commands(self, out: Path) -> list[list[str]]:
        return [["report", *self._args(out), "--format", "csv,text,svg"]]

    def check(self, out: Path, codes: list[int | None]) -> dict[str, bool]:
        """Pass/fail per unit. A unit whose command exited non-zero fails."""
        units = {**self._fit_units(out), **self._curve_units(out)}
        units.update(outcheck.check_reductions(out / "reductions.csv", self.expect))
        for rule in ("quad_t15", "range_t1", "curve_heuristic"):
            units.update(outcheck.check_detect(out / f"detect_{rule}.csv", self.expect, rule))
        return {u: ok and codes[0] == 0 for u, ok in units.items()}


class FitCurvesWorkload(SurveyWorkload):
    ROWS, COUNTRIES, DETECT = 20000, 2, False

    def commands(self, out: Path) -> list[list[str]]:
        return [
            ["fit", "--spec", "quad-battery", *self._args(out)],
            ["curves", "--scheme", "fine", "--format", "csv,svg", *self._args(out)],
        ]

    def check(self, out: Path, codes: list[int | None]) -> dict[str, bool]:
        """Pass/fail per unit. A unit whose command exited non-zero fails."""
        return {
            **{u: ok and codes[0] == 0 for u, ok in self._fit_units(out).items()},
            **{u: ok and codes[1] == 0 for u, ok in self._curve_units(out).items()},
        }


class McWorkload:
    """The Monte Carlo experiments, with master seeds derived from the
    seed, and the oracle's replicates for them."""

    def __init__(self, seed: int, _work: Path) -> None:
        self.inputs: dict[str, str] = {}
        self.derived_seeds: dict[str, int] = {}
        self.expect = {}
        for out, experiment, strength in MC_RUNS:
            self.expect[out] = _screened(
                seed, out, self.derived_seeds,
                lambda sub: oracle.experiment(experiment, sub, MC_REPS, strength),
            )
        self.rows = sum(sum(expect["rows"]) for expect in self.expect.values())

    def commands(self, out: Path) -> list[list[str]]:
        commands = []
        for sub, experiment, strength in MC_RUNS:
            argv = ["simulate", "--experiment", experiment, "--reps", str(MC_REPS),
                    "--seed", str(self.derived_seeds[sub]), "--format", "csv,text",
                    "--out", str(out / sub)]
            if experiment == "attrition":
                argv += ["--strength", str(strength)]
            commands.append(argv)
        return commands

    def check(self, out: Path, codes: list[int | None]) -> dict[str, bool]:
        """Pass/fail per experiment. One whose command exited non-zero fails."""
        return {
            sub: outcheck.check_simulation(out / sub, experiment, self.expect[sub], code)
            for (sub, experiment, _), code in zip(MC_RUNS, codes)
        }


WORKLOADS = {
    "report-30c": ReportWorkload,
    "fit-curves-2c": FitCurvesWorkload,
    "mc-experiments": McWorkload,
}


def _screened(seed: int, tag: str, chosen: dict[str, int], expect_for) -> dict:
    """Expectations for the first seed derived from ``seed`` on which no
    operation should fail, recording that seed in ``chosen[tag]``.

    A survey input is refused when one of its designs is rank deficient,
    and an experiment when the oracle's own replicates fail its
    hypothesis checks: those allow a miss beyond 3 Monte Carlo standard
    errors by chance, so an arbitrary master seed fails now and then with
    correct code."""
    for attempt in range(100):
        digest = hashlib.sha256(f"{seed}:{tag}:{attempt}".encode()).digest()
        sub = int.from_bytes(digest[:4], "little")
        expect = expect_for(sub)
        if expect is not None and expect.get("passed", True):
            chosen[tag] = sub
            return expect
    raise RuntimeError(f"no usable derived seed for {tag} under seed {seed}")


def environment(root: Path, blas_threads: str) -> dict:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "OPENBLAS_NUM_THREADS": blas_threads,
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
        if done.returncode == 0:
            env["git_commit"] = done.stdout.strip()
    return env


def run_pass(work: Path, index: int, commands_for, trace: bool, child_env: dict) -> tuple[dict | None, Path]:
    """One fresh child process; returns its result (None if it died)
    and its output directory."""
    out = work / f"pass-{index}"
    out.mkdir()
    result_path = work / f"pass-{index}.json"
    spec_path = work / f"pass-{index}.spec.json"
    spec = {
        "src": "src",
        "commands": commands_for(out),
        "trace": trace,
        "result": str(result_path),
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with (work / f"pass-{index}.log").open("w", encoding="utf-8") as log:
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                stdout=log, stderr=subprocess.STDOUT, env=child_env, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, out
    if done.returncode != 0 or not result_path.is_file():
        return None, out
    return json.loads(result_path.read_text(encoding="utf-8")), out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "agecurve" / "cli.py").is_file():
        print("error: run from the root of an agecurve checkout (no src/agecurve/cli.py here)", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    blas_threads = str(len(os.sched_getaffinity(0)))
    child_env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": blas_threads}
    env = environment(root, blas_threads)
    workload = WORKLOADS[args.workload](args.seed, work)
    print("environment:", json.dumps(env))
    print("inputs:", json.dumps({"sha256": workload.inputs, "derived_seeds": workload.derived_seeds}))

    # Warm-up: the first import compiles the package's bytecode, which a
    # user pays once per install, not once per run.
    _, out = run_pass(work, 0, lambda out: [], False, child_env)
    shutil.rmtree(out)

    n_commands = len(workload.commands(work))
    passes = []
    attempted = failed = 0
    start = time.perf_counter()
    index = 1
    pass_s = 0.0
    while True:
        # Once the run has the passes it reports on, start no pass that
        # would end after --seconds, judged by the previous pass.
        traced_one = not args.trace or any(p["traced"] for p in passes)
        if passes and traced_one and time.perf_counter() - start + pass_s > args.seconds:
            break
        pass_start = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        result, out = run_pass(work, index, workload.commands, traced, child_env)
        codes = result["exit_codes"] if result else [None] * n_commands
        unit_ok = workload.check(out, codes)
        attempted += len(unit_ok)
        failed += sum(not ok for ok in unit_ok.values())
        passes.append({
            "index": index,
            "traced": traced,
            "died": result is None,
            "exit_codes": codes,
            "failed_units": sorted(u for u, ok in unit_ok.items() if not ok),
            # Factor that scales the pass's times to the reference speed.
            "scale": REFERENCE_CALIBRATION_S / statistics.mean(result["calibration_s"]) if result else None,
            **({k: result[k] for k in PASS_FIELDS} if result else {}),
            "layers": tracing.layer_metrics(result["spans"]) if result and traced else None,
        })
        shutil.rmtree(out)
        index += 1
        pass_s = time.perf_counter() - pass_start

    plain = [p for p in passes if not p["traced"] and not p["died"]]
    traced = [p for p in passes if p["traced"] and not p["died"]]
    metrics: dict[str, float] = {}
    # The host's speed drifts by up to half within minutes, so each
    # pass's times are scaled by the speed it measured around its import
    # before the median is taken (see README.md, "Statistics").
    if plain:
        metrics["wall_s"] = statistics.median(p["wall_s"] * p["scale"] for p in plain)
        metrics["setup_s"] = statistics.median(p["setup_s"] * p["scale"] for p in plain)
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
        metrics["rows_per_s"] = workload.rows / metrics["wall_s"]
    if traced:
        fastest = min(traced, key=lambda p: p["wall_s"])
        metrics.update(fastest["layers"])
        metrics["trace.overhead_s"] = fastest["span_cost_s"] * metrics["trace.spans"]
        # Each traced pass against the untraced pass just before it.
        deltas = [
            p["wall_s"] - before["wall_s"]
            for before, p in zip(passes, passes[1:])
            if p["traced"] and not p["died"] and not before["traced"] and not before["died"]
        ]
        if deltas:
            metrics["trace.wall_delta_s"] = statistics.median(deltas)

    missing = sorted(set(units) - set(metrics))
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "inputs": workload.inputs,
        "derived_seeds": workload.derived_seeds,
        "passes": passes,
        "metrics": metrics,
    }
    (work / "results.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    if missing:
        print(f"error: no value for metrics {missing}; see {work / 'results.json'}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
