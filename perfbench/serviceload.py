"""The ``service-fig10`` workload: a closed loop against ``repro-bench serve``.

``CLIENTS`` threads of this process each submit a ``fig10`` spec with a
fresh seed, poll its status every ``POLL_S`` until it is terminal, and
fetch the result; only then does that client submit again (a closed
loop: every ``ServiceClient`` caller waits for its own reply).  Latency
is measured from submit to terminal status.
"""

from __future__ import annotations

import http.client
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from common import ROOT

CLIENTS = 2
#: ``serve --workers``: the service's concurrent runs.
SERVICE_WORKERS = 2
#: Status poll interval.  A fig10 run takes ~10-20 ms, so
#: ``ServiceClient.wait``'s 50 ms default would quantize latency.
POLL_S = 0.001
#: At least ten latency samples beyond p90.
MIN_SAMPLES = 200
#: Untimed runs that warm the workers before timing.
WARMUP_RUNS = 20
#: The timed loop pauses this many times, with no run in flight, to
#: probe the host's speed (``common.HostSpeed``).
SEGMENTS = 6
RUN_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0


@dataclass
class Sample:
    seed: int
    latency_s: float
    polls: int
    digest: str
    #: ``latency_s`` on the reference host.
    adjusted_s: float = 0.0


@dataclass
class LoopResult:
    samples: List[Sample]
    wall_s: float
    attempted: int
    failed: int
    rejected: int
    #: ``wall_s`` on the reference host.
    adjusted_wall_s: float = 0.0


class Server:
    """A ``serve`` subprocess; ``setup_s`` runs from launch to ``/healthz``."""

    def __init__(self, command: List[str]):
        from repro.service.client import ServiceClient

        begin = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self.process.stdout.readline()
            match = re.search(r":(\d+)\s*$", line)
            if match is None:
                raise RuntimeError(f"serve did not report its port: {line!r}")
            self.client = ServiceClient(port=int(match.group(1)), timeout=RUN_TIMEOUT_S)
            deadline = begin + START_TIMEOUT_S
            while True:
                try:
                    self.client.healthz()
                    break
                except (OSError, http.client.HTTPException):
                    if time.perf_counter() > deadline:
                        raise
                    time.sleep(0.002)
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        self.setup_s = time.perf_counter() - begin

    def stop(self) -> None:
        """SIGTERM: the service drains, journals, and exits 0."""
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=START_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        if self.process.returncode != 0:
            raise RuntimeError(f"serve exited with {self.process.returncode}")


def cli_command(state_dir: Path) -> List[str]:
    """``repro-bench serve`` with a durable state dir."""
    return [
        sys.executable, "-m", "repro.cli", "serve", "--port", "0",
        "--workers", str(SERVICE_WORKERS), "--state-dir", str(state_dir),
    ]


def launcher_command(state_dir: Path, stats: Path) -> List[str]:
    """The same service, started through the tracing launcher."""
    return [
        sys.executable, str(Path(__file__).resolve().parent / "launcher.py"),
        "--state-dir", str(state_dir), "--stats", str(stats),
    ]


def run_once(client, spec, seed: int) -> Sample:
    """Submit one seed's spec, poll it to a terminal state, fetch the result."""
    from repro.service.client import TERMINAL_STATES

    started = time.perf_counter()
    run_id = client.submit(spec.with_seed(seed).to_json())["run"]
    polls = 0
    while True:
        status = client.status(run_id)
        polls += 1
        if status["status"] in TERMINAL_STATES:
            break
        if time.perf_counter() - started > RUN_TIMEOUT_S:
            raise TimeoutError(f"run {run_id} still {status['status']}")
        time.sleep(POLL_S)
    latency = time.perf_counter() - started
    if status["status"] != "done":
        raise RuntimeError(f"run {run_id} ended {status['status']}: {status['error']}")
    client.result(run_id)
    return Sample(
        seed=seed,
        latency_s=latency,
        polls=polls,
        digest=status["result_sha256"],
    )


def closed_loop(
    client, spec, seeds: Iterator[int], seconds: float, min_samples: int
) -> LoopResult:
    """Drive the service until ``seconds`` pass and ``min_samples`` finish."""
    from repro.service.client import ServiceError

    lock = threading.Lock()
    samples: List[Sample] = []
    counts = {"attempted": 0, "failed": 0, "rejected": 0}
    begin = time.perf_counter()
    stop_at = begin + seconds
    last_done = [begin]

    def next_seed() -> Optional[int]:
        with lock:
            if len(samples) >= min_samples and time.perf_counter() >= stop_at:
                return None
            if counts["failed"] > min_samples:
                return None
            counts["attempted"] += 1
            return next(seeds)

    def worker() -> None:
        while True:
            seed = next_seed()
            if seed is None:
                return
            try:
                sample = run_once(client, spec, seed)
            except ServiceError as error:
                with lock:
                    counts["failed"] += 1
                    counts["rejected"] += int(error.code == 429)
                continue
            except (OSError, http.client.HTTPException, RuntimeError) as error:
                print(f"service run failed: {error}", file=sys.stderr)
                with lock:
                    counts["failed"] += 1
                continue
            with lock:
                samples.append(sample)
                last_done[0] = time.perf_counter()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 10 * RUN_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("client threads did not finish")
    return LoopResult(
        samples=samples,
        wall_s=last_done[0] - begin,
        attempted=counts["attempted"],
        failed=counts["failed"],
        rejected=counts["rejected"],
    )


def probed_loop(
    client, spec, seeds: Iterator[int], seconds: float, min_samples: int, host
) -> LoopResult:
    """:func:`closed_loop` in ``SEGMENTS`` parts, each between two probes."""
    parts = []
    for _ in range(SEGMENTS):
        before = host.probe()
        part = closed_loop(
            client, spec, seeds, seconds / SEGMENTS, -(-min_samples // SEGMENTS)
        )
        after = host.probe()
        for sample in part.samples:
            sample.adjusted_s = host.adjust(sample.latency_s, before, after)
        part.adjusted_wall_s = host.adjust(part.wall_s, before, after)
        parts.append(part)
    return LoopResult(
        samples=[sample for part in parts for sample in part.samples],
        wall_s=sum(part.wall_s for part in parts),
        attempted=sum(part.attempted for part in parts),
        failed=sum(part.failed for part in parts),
        rejected=sum(part.rejected for part in parts),
        adjusted_wall_s=sum(part.adjusted_wall_s for part in parts),
    )


_SAMPLE_LINE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{([^}]*)\})?\s+(\S+)$")


def scrape(text: str) -> Dict[Tuple[str, frozenset], float]:
    """Prometheus text → {(name, labels): value}."""
    values: Dict[Tuple[str, frozenset], float] = {}
    for line in text.splitlines():
        match = _SAMPLE_LINE.match(line.strip())
        if match is None or line.startswith("#"):
            continue
        labels = frozenset(re.findall(r'(\w+)="([^"]*)"', match.group(2) or ""))
        values[(match.group(1), labels)] = float(match.group(3))
    return values


def metric(values, name: str, **labels: str) -> float:
    """Sum of every ``name`` sample whose labels include ``labels``."""
    wanted = set(labels.items())
    return sum(
        value
        for (sample, sample_labels), value in values.items()
        if sample == name and wanted <= sample_labels
    )


def latency_quantiles(seconds: List[float]) -> Tuple[float, float]:
    """p50 and p90 of latencies given in seconds, in ms."""
    latencies = [1000.0 * value for value in seconds]
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[8]
