"""Run one permsnake CLI command with layer tracing; write its spans as JSON.

Usage: python3 perfbench/traced_cli.py TRACE.json <permsnake arguments...>

The command behaves exactly as ``python3 -m permsnake.cli <arguments>``:
same stdout, stderr and exit code.  When it ends, its spans and counters
(see ``tracing.py``) are written to TRACE.json, together with the time
the import of ``permsnake.cli`` took.
"""
from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_cli.py TRACE.json <permsnake arguments...>", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import permsnake.cli as cli

    import_s = time.perf_counter() - t0

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = 2
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse errors exit from inside main
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
