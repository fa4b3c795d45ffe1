"""One benchmark pass, run in a fresh interpreter.

Usage: ``python3 perfbench/child.py PASS.json``. The JSON names the
source directory, the CLI argument lists, whether to trace, and where
to write the result. The pass times the import of ``agecurve.cli``
(which brings numpy and scipy) between two runs of a calibration loop
that measure the host's speed, then calls ``agecurve.cli.main`` once
per argument list, as the ``agecurve`` console script does, and writes
its timings, exit codes, peak resident memory and, when traced, the
spans and the measured cost of recording one span.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


CALIBRATION_LOOPS = 600_000


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))

    before = calibrate()
    start = time.perf_counter()
    import agecurve.cli as cli

    setup_s = time.perf_counter() - start
    calibration_s = [before, calibrate()]
    src = Path(spec["src"]).resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"agecurve was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    codes, command_s = [], []
    begin = time.perf_counter()
    for argv in spec["commands"]:
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        command_s.append(time.perf_counter() - t0)
        codes.append(code)
    wall_s = time.perf_counter() - begin

    result = {
        "setup_s": setup_s,
        "calibration_s": calibration_s,
        "wall_s": wall_s,
        "command_s": command_s,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer is not None else None,
        "span_cost_s": tracing.span_cost() if tracer is not None else None,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
