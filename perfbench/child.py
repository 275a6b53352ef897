"""Runs the avlinksim CLI in this fresh process and records its timings.

Usage (started by run.py, one process per invocation):

    python3 child.py --record REC.json --src SRC [--trace SPANS.json]
                     [--setup-only] -- sweep|region CLI-ARGS...

It calls avlinksim.cli.main with CLI-ARGS, exactly what
`python -m avlinksim.cli` does, and writes REC.json with CLOCK_MONOTONIC
timestamps (comparable with the parent's) of the end of setup (the
config has been loaded and validated) and of the end of the command (its
output is written), plus the peak RSS of this process and of its largest
reaped child. --setup-only exits right after setup. --trace installs the
span tracer and writes the spans when the command ends.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _write(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    import avlinksim
    from avlinksim import cli, scenario

    src = pathlib.Path(opts.src).resolve()
    if src not in pathlib.Path(avlinksim.__file__).resolve().parents:
        print(f"perfbench: imported avlinksim from {avlinksim.__file__}, not {src}",
              file=sys.stderr)
        return 90
    record = {"t_import": _now(), "t_setup": None}

    tracer = None
    if opts.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    load = getattr(scenario, "load_config", None)
    if load is None:
        print("perfbench: scenario.load_config not found; setup ends at import",
              file=sys.stderr)
        record["t_setup"] = record["t_import"]
    else:
        def timed_load(*args, **kwargs):
            config = load(*args, **kwargs)
            record["t_setup"] = _now()
            if opts.setup_only:
                _write(opts.record, record)
                os._exit(0)
            return config
        scenario.load_config = timed_load

    try:
        cli.main(args=cli_args, prog_name="avlinksim")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    record["t_done"] = _now()
    record["exit_code"] = code
    record["maxrss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["maxrss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer is not None:
        tracer.dump(opts.trace)
    _write(opts.record, record)
    return code


if __name__ == "__main__":
    sys.exit(main())
