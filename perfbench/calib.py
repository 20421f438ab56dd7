"""Host-speed probe: times one fixed piece of work whenever asked.

A measuring process starts this script once (see ``common.HostSpeed``)
and writes one line to its standard input between timed steps; the
script answers with the seconds the fixed work took.  The work mixes an
interpreter loop with small numpy products over the 35 × 819 pattern
table's shape, like the program's own mix.  It runs in its own process,
so nothing the program does in its process (threads, signal handlers,
garbage) can slow the probe and hide a regression.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import pin_environment  # noqa: E402


def main() -> int:
    pin_environment()
    import numpy

    rng = numpy.random.default_rng(0)
    table = rng.standard_normal((819, 35))
    probes = rng.standard_normal((35, 64))

    def work() -> float:
        begin = time.perf_counter()
        total = 0
        for value in range(300_000):
            total += value
        for _ in range(30):
            product = table @ probes
            product.argmax(axis=0)
            numpy.sort(product[:, 0])
        return time.perf_counter() - begin

    work()
    for _ in sys.stdin:
        print(repr(work()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
