"""``repro-bench serve`` with the benchmark's layer wrappers installed.

The traced ``service-fig10`` run starts this script instead of the CLI.
It builds the same :class:`~repro.service.server.ServiceConfig` the
``serve`` subcommand builds from its defaults, wraps the public calls
into each layer, and serves until SIGTERM.  After the drain it writes
the tracer's snapshot as JSON to ``--stats``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import pin_environment  # noqa: E402
from serviceload import SERVICE_WORKERS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--stats", type=Path, required=True)
    args = parser.parse_args(argv)
    pin_environment()

    begin = time.perf_counter()
    from layers import LayerTracer, install_program_layers
    from repro.service.server import ServiceConfig, serve

    import_s = time.perf_counter() - begin

    tracer = LayerTracer()
    install_program_layers(tracer)
    config = ServiceConfig(port=0, workers=SERVICE_WORKERS, state_dir=args.state_dir)
    try:
        asyncio.run(serve(config))
    finally:
        tracer.uninstall()
        stats = {"import_s": import_s, **tracer.snapshot()}
        args.stats.write_text(json.dumps(stats, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
