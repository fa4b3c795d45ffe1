"""Command-line interface.

Subcommands: ``fit`` (model battery to coefficient tables), ``curves``
(adjusted age-bin levels, optionally charted), ``detect`` (u-shape rules
over fitted data or the bundled reference tables), ``simulate`` (the
Monte Carlo bias experiments), and ``report`` (everything ``fit``,
``detect`` and ``curves`` write, plus coefficient reductions).

The survey commands load the file once, name their specs up front and
fit each (country, spec) once, in one fit plan; every table they write
is a view of those shared fits.

Exit codes: 0 success, 1 fatal error, 2 partial failure (some countries
failed; failures are listed on stderr and the rest of the output is
written normally), 3 ``simulate`` ran but a hypothesis check failed.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from . import fixtures
from .dataset import (
    DataError,
    ESS_SCHEMA,
    IDENTITY_SCHEMA,
    Survey,
    load_csv,
)
from .design import DesignError, FINE_BINS, scheme_bin_labels
from .models import (
    PRESETS,
    AgeCurve,
    _fit_plan,
    curve_from_fit,
    get_spec,
)
from .shape import (
    ShapeVerdict,
    classify_curve,
    depth,
    detect_quad,
    detect_quad_values,
    detect_ranges,
    detect_ranges_values,
    reduction,
)
from .simulate import (
    AttritionConfig,
    DgpConfig,
    default_attrition_config,
    default_mediator_config,
    default_truncation_config,
    experiment_attrition,
    experiment_mediator,
    experiment_truncation,
)
from .render import bin_midpoint, format_table, svg_line_chart, write_csv
from .wls import RankDeficientError

QUAD_BATTERY = tuple(name for name, spec in PRESETS.items() if spec.form == "quadratic")

FIT_HEADER = ("country", "model", "coefficient", "estimate", "std_error", "t_abs", "n", "rank")
FIT_FORMATS = ("%s", "%s", "%s", "%.5f", "%.5f", "%.2f", "%d", "%d")

RULES = ("quad_t15", "range_t1", "curve_heuristic")
# the spec whose fits each rule reads
RULE_SPECS = {"quad_t15": "quad-nocontrols-nocap", "range_t1": "ranges-coarse", "curve_heuristic": "ranges-fine"}
RULE_FIXTURES = {"quad_t15": "table2", "range_t1": "table3", "curve_heuristic": "table4"}
FORMATS = ("csv", "text", "svg")

# The default configuration and the runner of each simulation experiment.
EXPERIMENTS = {
    "mediator": (default_mediator_config, experiment_mediator),
    "truncation": (default_truncation_config, experiment_truncation),
    "attrition": (default_attrition_config, experiment_attrition),
}

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2
EXIT_CHECK_FAILED = 3


class FatalError(Exception):
    pass


def _read_config(path: str | None) -> configparser.ConfigParser:
    # values are read literally: a "%" is a character, not interpolation
    config = configparser.ConfigParser(interpolation=None)
    if path:
        if not Path(path).is_file():
            raise FatalError(f"config file not found: {path}")
        try:
            config.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            # configparser's messages span lines; the error is one
            reason = " ".join(str(exc).split())
            raise FatalError(f"cannot read config file {path}: {reason}") from None
    return config


def _load_survey(args, config: configparser.ConfigParser) -> Survey:
    """Load ``--input`` under the base mapping (identity, or ESS with
    ``--ess-columns``), overridden by the config's ``[columns]`` and then
    by ``--map``. The loader leaves out an optional field whose column
    is absent; a column named by ``--map`` must be in the file."""
    if not args.input:
        raise FatalError("this command needs --input (a survey CSV)")
    path = Path(args.input)
    if not path.is_file():
        raise FatalError(f"input file not found: {path}")
    schema = dict(ESS_SCHEMA if args.ess_columns else IDENTITY_SCHEMA)
    if config.has_section("columns"):
        schema.update(config.items("columns"))
    mapped = {}
    for mapping in args.map or []:
        if "=" not in mapping:
            raise FatalError(f"--map expects logical=column, got {mapping!r}")
        logical, column = mapping.split("=", 1)
        mapped[logical.strip()] = column.strip()
    schema.update(mapped)
    survey, report = load_csv(path, schema)
    absent = [col for logical, col in mapped.items() if logical not in report.columns]
    if absent:
        raise FatalError(f"columns not in file header: {absent}")
    print(report.summary())
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    return survey


def _setting(args, config, flag, section, key=None, cast=str):
    """``--<flag>``, else ``cast`` of the config's ``[section]`` value of
    ``key`` (``flag`` when not given), else None. A value that ``cast``
    refuses is a fatal error naming the key and the file."""
    value, key = getattr(args, flag, None), key or flag
    if value is None and config.has_option(section, key):
        try:
            value = cast(config.get(section, key))
        except ValueError as exc:
            raise FatalError(f"{key} in [{section}] of {args.config}: {exc}") from None
    return value


def _countries_arg(args, config: configparser.ConfigParser) -> list[str] | None:
    """The ``--countries`` list, else the config's, each country once in
    first-appearance order."""
    raw = _setting(args, config, "countries", "filters")
    if raw is None:
        return None
    return list(dict.fromkeys(c.strip() for c in raw.split(",") if c.strip()))


def _formats(args, config: configparser.ConfigParser) -> set[str]:
    raw = _setting(args, config, "format", "output", "formats")
    if raw is None:
        raw = "csv,text"
    formats = {f.strip() for f in raw.split(",") if f.strip()}
    unknown = formats - set(FORMATS)
    if unknown:
        raise FatalError(f"unknown output formats {sorted(unknown)}; known: {FORMATS}")
    return formats


def _out_dir(args, config: configparser.ConfigParser) -> Path:
    out = Path(_setting(args, config, "out", "output", "dir") or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


class _Fits(dict):
    """The :func:`~agecurve.models.batch_fit` results of a command's
    specs, keyed by name in the order given, from one fit plan, so every
    writer in the command shares one fit per (country, spec). ``curves``
    holds the adjusted curve of every ``ranges-<scheme>`` fit of a
    command that draws ``scheme``'s curves; a bin a country has no
    respondent in becomes a note of that fit. ``unusable`` lists
    ``"<country> [<rule>]: <reason>"`` for fitted countries that a
    detection rule cannot read."""

    def __init__(self, survey: Survey, countries: list[str] | None, names: Sequence[str], scheme: str | None):
        super().__init__(zip(names, _fit_plan(survey, [get_spec(name) for name in names], countries)))
        self.unusable: list[str] = []
        self.curves: list[AgeCurve] = []
        for res in self[f"ranges-{scheme}"] if scheme else []:
            if res.ok:
                self.curves.append(curve_from_fit(res.fit, res.country, scheme))
                res.notes.extend(self.curves[-1].notes)


def _survey_run(args, names: Sequence[str], scheme: str | None = None) -> tuple[_Fits, Path, set[str]]:
    """Load the survey once and fit the specs ``names`` of a survey
    command, and the curves of ``scheme`` when it draws them; also set
    up its output directory and formats."""
    config = _read_config(args.config)
    fits = _Fits(_load_survey(args, config), _countries_arg(args, config), names, scheme)
    formats = _formats(args, config)
    return fits, _out_dir(args, config), formats


def _report_partial(fits: _Fits) -> int:
    """List every fit's notes, every failed (country, spec) and every
    unusable fit on stderr and return the exit code: partial when
    something failed, fatal when no fit succeeded."""
    for name, results in fits.items():
        for res in results:
            for note in res.notes:
                print(f"note [{name}]: {note}", file=sys.stderr)
    failed = [
        f"{res.country} [{name}]: {res.error}"
        for name, results in fits.items()
        for res in results
        if not res.ok
    ] + fits.unusable
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    if not failed:
        return EXIT_OK
    if not any(res.ok for results in fits.values() for res in results):
        print("no country could be fitted", file=sys.stderr)
        return EXIT_FATAL
    return EXIT_PARTIAL


def _write(path: Path, content) -> None:
    """Write ``content``, a text or a ``(header, rows)`` table for
    :func:`write_csv`, to ``path`` and say so."""
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        write_csv(path, *content)
    print(f"wrote {path}")


def _write_table(out: Path, formats: set[str], stem: str, header, rows, fmts) -> None:
    """Write ``<stem>.csv`` and/or an aligned ``<stem>.txt``, as
    ``formats`` asks."""
    if "csv" in formats:
        _write(out / f"{stem}.csv", (header, rows))
    if "text" in formats:
        _write(out / f"{stem}.txt", format_table(header, rows, fmts))


def _write_fit(fits: _Fits, out: Path, formats: set[str], name: str) -> None:
    rows = [
        [res.country, name, label, coef, se, t, res.fit.n_obs, res.fit.rank]
        for res in fits[name]
        if res.ok
        for label, coef, se, t in zip(
            res.fit.labels, res.fit.coefficients.tolist(),
            res.fit.std_errors.tolist(), res.fit.t_stats.tolist(),
        )
    ]
    _write_table(out, formats, f"fit_{name}", FIT_HEADER, rows, FIT_FORMATS)


def _write_reductions(fits: _Fits, out: Path, formats: set[str]) -> None:
    """Signed coefficient reductions: the controlled, age-capped model is
    the baseline; the bare full-age model is the comparison."""
    rows = [
        [bare.country, change.label, change.old, change.new,
         change.percent_reduction, "yes" if change.sign_flipped else "no"]
        for controlled, bare in zip(fits["quad-controls-cap"], fits["quad-nocontrols-nocap"])
        if controlled.ok and bare.ok
        for change in reduction(controlled.fit, bare.fit).changes
    ]
    header = ["country", "coefficient", "with_controls", "without_controls",
              "percent_reduction", "sign_flipped"]
    _write_table(out, formats, "reductions", header, rows,
                 ["%s", "%s", "%.5f", "%.5f", "%.1f", "%s"])


def _write_curves(fits: _Fits, out: Path, formats: set[str], scheme: str, autoscale: bool) -> None:
    curves = fits.curves
    bin_order = scheme_bin_labels(scheme)
    header = ["country", *bin_order, "max", "min", "difference"]
    rows = []
    for curve in curves:
        levels = dict(zip(curve.bin_labels, curve.levels))
        extremes = depth(curve)
        rows.append([
            curve.country,
            *[levels.get(b) for b in bin_order],
            extremes.max_level,
            extremes.min_level,
            extremes.difference,
        ])
    _write_table(out, formats, f"curves_{scheme}", header, rows,
                 ["%s"] + ["%.2f"] * (len(header) - 1))
    if "svg" in formats and curves:
        series = [
            (curve.country, [(bin_midpoint(b), v) for b, v in zip(curve.bin_labels, curve.levels)])
            for curve in curves
        ]
        chart = svg_line_chart(
            series,
            title=f"Adjusted happiness by age range ({scheme} bins)",
            y_range=None if autoscale else (0.0, 10.0),
        )
        _write(out / f"curves_{scheme}.svg", chart)


def _verdicts(fits: _Fits, rule: str) -> list[ShapeVerdict]:
    if rule == "quad_t15":
        return [detect_quad(r.fit, r.country) for r in fits[RULE_SPECS[rule]] if r.ok]
    if rule == "curve_heuristic":
        return [classify_curve(curve) for curve in fits.curves]
    verdicts = []
    for res in fits[RULE_SPECS[rule]]:
        if res.ok:
            try:
                verdicts.append(detect_ranges(res.fit, res.country))
            except KeyError as exc:  # no respondent in a bin the rule reads
                fits.unusable.append(f"{res.country} [{rule}]: {exc.args[0]}")
    return verdicts


def _write_detect(out: Path, formats: set[str], rule: str, verdicts: list[ShapeVerdict]) -> None:
    evidence_keys = list(dict.fromkeys(key for v in verdicts for key in v.evidence))
    header = ["country", "rule", "is_ushape", *evidence_keys]
    rows = [
        [
            v.country,
            v.rule,
            "yes" if v.is_ushape else "no",
            *[
                (str(v.evidence[k]) if isinstance(v.evidence.get(k), tuple) else v.evidence.get(k))
                for k in evidence_keys
            ],
        ]
        for v in verdicts
    ]
    _write_table(out, formats, f"detect_{rule}", header, rows,
                 ["%s", "%s", "%s"] + ["%g"] * len(evidence_keys))

    positive = sum(v.is_ushape for v in verdicts)
    print(f"u-shape under {rule}: {positive} of {len(verdicts)} countries")


def cmd_fit(args) -> int:
    requested = QUAD_BATTERY if args.spec == "quad-battery" else (args.spec,)
    try:
        names = [get_spec(name).name for name in requested]
    except KeyError as exc:
        raise FatalError(exc.args[0]) from None
    fits, out, formats = _survey_run(args, names)
    for name in names:
        _write_fit(fits, out, formats, name)
    return _report_partial(fits)


def cmd_curves(args) -> int:
    fits, out, formats = _survey_run(args, [f"ranges-{args.scheme}"], args.scheme)
    _write_curves(fits, out, formats, args.scheme, args.autoscale)
    return _report_partial(fits)


def _fixture_curve(row: dict) -> AgeCurve:
    bins = [b[0] for b in FINE_BINS]
    return AgeCurve(
        country=str(row["country"]),
        bin_labels=tuple(bins),
        levels=tuple(float(row[b]) for b in bins),
    )


def _detect_from_fixture(rule: str) -> list:
    rows = fixtures.load(RULE_FIXTURES[rule])
    verdicts = []
    for row in rows:
        country = str(row["country"])
        if rule == "quad_t15":
            keys = ("coef_age", "t_age", "coef_age_sq", "t_age_sq")
            verdicts.append(detect_quad_values(country, *(float(row[k]) for k in keys)))
        elif rule == "range_t1":
            keys = ("coef_15-34", "t_15-34", "coef_60-74", "t_60-74")
            verdicts.append(detect_ranges_values(country, *(float(row[k]) for k in keys)))
        else:
            verdicts.append(classify_curve(_fixture_curve(row)))
    return verdicts


def cmd_detect(args) -> int:
    rule = args.rule
    if not args.fixture:
        fits, out, formats = _survey_run(args, [RULE_SPECS[rule]], "fine" if rule == "curve_heuristic" else None)
        _write_detect(out, formats, rule, _verdicts(fits, rule))
        return _report_partial(fits)
    if args.fixture != RULE_FIXTURES[rule]:
        raise FatalError(
            f"rule {rule!r} reads fixture {RULE_FIXTURES[rule]!r}, "
            f"not {args.fixture!r}"
        )
    config = _read_config(args.config)
    formats = _formats(args, config)
    verdicts = _detect_from_fixture(rule)
    _write_detect(_out_dir(args, config), formats, rule, verdicts)
    source_flags = {
        str(row["country"]): row["source_ushape"] == "yes"
        for row in fixtures.load(args.fixture)
        if "source_ushape" in row
    }
    for v in verdicts:
        flag = source_flags.get(v.country)
        if flag is not None and flag != v.is_ushape:
            print(
                f"note: {v.country} is flagged "
                f"{'u-shaped' if flag else 'not u-shaped'} in the source table "
                f"but the literal rule says "
                f"{'u-shaped' if v.is_ushape else 'not u-shaped'}"
            )
    return EXIT_OK


def _simulate_config(args, config: configparser.ConfigParser) -> tuple[DgpConfig, int]:
    def pick(name, cast, fallback):
        value = _setting(args, config, name, "simulate", cast=cast)
        return fallback if value is None else value

    default_config = EXPERIMENTS[args.experiment][0]
    seed = pick("seed", int, None)
    base = default_config() if seed is None else default_config(seed)
    flags = [f"--{name}" for name in ("strength", "knee") if getattr(args, name) is not None]
    if base.attrition is None and flags:
        raise ValueError(f"{' and '.join(flags)}: the {args.experiment} experiment has no attrition")
    if base.attrition is not None:
        strength = pick("strength", float, base.attrition.strength)
        knee = pick("knee", int, base.attrition.knee)
        base = replace(base, attrition=AttritionConfig(knee=knee, strength=strength))
    n = pick("n", int, None)
    if n is not None:
        base = replace(base, n=n)
    return base, pick("reps", int, 200)


def cmd_simulate(args) -> int:
    config = _read_config(args.config)
    formats = _formats(args, config)
    out = _out_dir(args, config)
    try:
        dgp, reps = _simulate_config(args, config)
        result = EXPERIMENTS[args.experiment][1](dgp, reps=reps)
    except ValueError as exc:  # a parameter the experiment cannot run with
        raise FatalError(str(exc)) from None

    if "csv" in formats:
        header = ["replicate", "seed", *result.estimates.keys()]
        estimates = [values.tolist() for values in result.estimates.values()]
        rows = zip(range(result.n_reps), result.seeds, *estimates)
        _write(out / f"simulate_{result.experiment}.csv", (header, rows))
    summary = result.summary()
    if "text" in formats:
        _write(out / f"simulate_{result.experiment}.txt", summary + "\n")
    print(summary)
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    """Everything ``fit --spec quad-battery``, all three ``detect`` rules
    and ``curves --scheme fine`` write, plus the reductions table, over
    one load and one fit plan of the six presets."""
    fits, out, formats = _survey_run(args, list(PRESETS), "fine")
    for name in QUAD_BATTERY:
        _write_fit(fits, out, formats, name)
    _write_reductions(fits, out, formats)
    for rule in RULES:
        _write_detect(out, formats, rule, _verdicts(fits, rule))
    _write_curves(fits, out, formats, "fine", autoscale=False)
    return _report_partial(fits)


COMMANDS = ("fit", "curves", "detect", "simulate", "report")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone. A parser
    of one subcommand names them all in its usage line, so that its help
    and its errors read as the full parser's do."""
    parser = argparse.ArgumentParser(
        prog="agecurve",
        description="Age-happiness curves from weighted survey cross-sections",
    )
    choices = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)

    def add(name, help_text, func, needs_input=True):
        """The sub-parser of ``name`` with the common options, or None
        when another command is asked for."""
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("--input", help="survey CSV file")
            p.add_argument(
                "--ess-columns",
                action="store_true",
                help="interpret columns using European Social Survey names",
            )
            p.add_argument(
                "--map",
                action="append",
                metavar="LOGICAL=COLUMN",
                help="map a logical field to a CSV column (repeatable)",
            )
            p.add_argument("--countries", help="comma-separated country filter")
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--format", help="comma-separated subset of csv,text,svg")
        p.set_defaults(func=func)
        return p

    if p := add("fit", "fit a model spec per country", cmd_fit):
        p.add_argument(
            "--spec",
            default="quad-nocontrols-nocap",
            help=f"model preset or 'quad-battery' (known: {', '.join(sorted(PRESETS))})",
        )

    if p := add("curves", "adjusted happiness level per age bin", cmd_curves):
        p.add_argument("--scheme", choices=("coarse", "fine"), default="fine")
        p.add_argument(
            "--autoscale",
            action="store_true",
            help="fit the chart's y axis to the data instead of the 0-10 scale",
        )

    if p := add("detect", "apply a u-shape detection rule", cmd_detect):
        p.add_argument("--rule", choices=RULES, required=True)
        p.add_argument(
            "--fixture",
            choices=tuple(fixtures.FIXTURE_NAMES),
            help="run the rule over a bundled reference table instead of --input",
        )

    if p := add("simulate", "run a Monte Carlo bias experiment", cmd_simulate, needs_input=False):
        p.add_argument("--experiment", choices=tuple(EXPERIMENTS), required=True)
        p.add_argument("--reps", type=int, help="number of replicates (default 200)")
        p.add_argument("--n", type=int, help="sample size per replicate")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--strength", type=float, help="attrition strength in [0,1]")
        p.add_argument("--knee", type=int, help="attrition age knee")

    add("report", "full pipeline: fits, reductions, detections, curves", cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # the full parser only for no command, top-level help or an unknown command
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_FATAL if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (FatalError, DataError, DesignError, RankDeficientError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
