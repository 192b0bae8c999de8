"""Run ``python -m repro shard-server`` with the benchmark's timing wrappers.

Usage::

    python3 bench_e2e/shard_launcher.py --trace-dir DIR -- <shard-server arguments>

Installs the server-side wrappers of :mod:`tracing`, runs the same
``shard-server`` command the untraced benchmark starts (which calls
:func:`repro.service.server.run_shard_server`), and writes the process's
spans to ``DIR`` once the server has drained and returned.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracing import SERVER_TARGETS, Installation, Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    server_args = args.server_args[1:] if args.server_args[:1] == ["--"] else args.server_args
    tracer = Tracer(args.trace_dir)
    installation = Installation(tracer, SERVER_TARGETS)
    from repro.cli import main as cli_main

    try:
        return cli_main(["shard-server", *server_args])
    finally:
        installation.remove()
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
