"""One benchmark job in a fresh interpreter, as a CLI user runs it.

    python3 child.py RESULT_JSON [--trace SPANS_JSON RUN_ID] [-- CLI ARGS...]

Imports `subspec.cli` from the checkout's `src/` (the parent puts it on
PYTHONPATH), records the monotonic time at which the import finished,
then calls `cli.main(CLI ARGS)` and records its wall time.  Without CLI
args it stops after the import: a set-up sample.  With --trace, every
traced layer function is wrapped first and the spans are written to
SPANS_JSON at the end.
"""

import json
import sys
import time
from pathlib import Path

import subspec.cli as cli

t_imported = time.monotonic()


def main(argv: list[str]) -> int:
    result_path = argv[0]
    rest = argv[1:]
    trace_args = None
    if rest[:1] == ["--trace"]:
        trace_args, rest = rest[1:3], rest[3:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest

    src = (Path(__file__).resolve().parent.parent / "src").resolve()
    imported_from = Path(cli.__file__).resolve()
    if src not in imported_from.parents:
        print(f"subspec imported from {imported_from}, not from {src}", file=sys.stderr)
        return 3

    result = {"t_imported": t_imported}
    if cli_args:
        tracer = None
        if trace_args:
            import spans
            tracer = spans.Tracer(trace_args[1])
            spans.install(tracer)
        start = time.perf_counter()
        rc = tracer.span("cli", cli.main, cli_args) if tracer else cli.main(cli_args)
        result["wall_s"] = time.perf_counter() - start
        result["rc"] = rc
        if tracer is not None:
            tracer.dump(trace_args[0], {"wall_s": result["wall_s"]})
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return int(result.get("rc", 0))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
