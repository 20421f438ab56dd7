"""The selection pipeline's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``fig7`` — Figure 7 default spec, in-process ``ScenarioRunner(jobs=1)``;
* ``fig9-jobs2`` — Figure 9 default spec, ``ScenarioRunner(jobs=2)``;
* ``service-fig10`` — ``fig10`` specs through ``repro-bench serve``;
* ``all`` — each of the three in turn.

``--trace 0`` measures untraced and prints every end-to-end metric;
``--trace 1`` is a separate traced run that prints every per-layer
metric.  Both check the program's outputs and count every failure.
The last line of standard output is one JSON object; the lines before
it list the same metrics (and a few derived ones) by name and unit.
Exit status is 1 when a correctness check failed, 2 when the checkout
holds no program to measure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    SETUP_SAMPLES,
    SRC,
    WORKLOADS,
    HostSpeed,
    environment_info,
    fidelity,
    median,
    pin_environment,
    rep_seeds,
    self_peak_rss_mb,
    tree_peak_rss_mb,
    workload_spec,
)

HERE = Path(__file__).resolve().parent
#: Every temporary file of a run lives here, inside the checkout.
WORK_ROOT = ROOT / ".perfbench-work"
#: A child may run this long beyond ``--seconds``: set-up, the warm-up
#: run, the untimed fidelity runs and the digest checks.
CHILD_MARGIN_S = 150.0


@dataclass
class Outcome:
    """One workload's measurement."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    notes: Dict[str, object]


@dataclass
class Child:
    setup_s: float
    ready: dict
    result: Optional[dict]


def run_child(command: List[str], seconds: float) -> Child:
    """Run a benchmark child; time launch → ``READY``; collect ``RESULT``.

    The child is killed if it runs ``CHILD_MARGIN_S`` past ``seconds``.
    """
    begin = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(seconds + CHILD_MARGIN_S, process.kill)
    watchdog.start()
    setup_s, ready, result = 0.0, {}, None
    try:
        for line in process.stdout:
            tag, _, body = line.partition(" ")
            if tag == "READY":
                setup_s = time.perf_counter() - begin
                ready = json.loads(body)
            elif tag == "RESULT":
                result = json.loads(body)
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"{command[1:4]} exited with {process.returncode}")
    return Child(setup_s=setup_s, ready=ready, result=result)


def timed_setup(host: HostSpeed, start: Callable[[], float]) -> float:
    """One set-up sample (``start()`` returns its seconds), host-adjusted."""
    before = host.probe()
    seconds = start()
    return host.adjust(seconds, before, host.probe())


def run_inproc(workload: str, args, work: Path, host: HostSpeed) -> Outcome:
    base = [
        sys.executable, str(HERE / "inproc.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size,
    ]
    run_child(base + ["--mode", "warm"], 0.0)
    if args.trace:
        spill = work / "spill"
        spill.mkdir()
        child = run_child(
            base + ["--mode", "trace", "--spill-dir", str(spill)], args.seconds
        )
        layers = {name: 0.0 for name, _ in declared("per_layer")}
        layers.update(child.result["layers"])
        layers.update(child.ready)
        layers.pop("process_s")
        notes = {"environment": child.result["environment"]}
        return Outcome(layers, child.result["attempted"], child.result["failed"], notes)

    def setup_s() -> float:
        return run_child(base + ["--mode", "setup"], 0.0).setup_s

    setups = [timed_setup(host, setup_s) for _ in range(SETUP_SAMPLES // 2)]
    result = run_child(base + ["--mode", "measure"], args.seconds).result
    setups += [timed_setup(host, setup_s) for _ in range(len(setups), SETUP_SAMPLES)]
    walls = result["walls_s"]
    attempted, failed = result["attempted"], result["failed"]
    # With no repetition finished the run has failed (exit 1); its
    # times read as one repetition that took all of ``--seconds``.
    wall = median(result["adjusted_s"]) if walls else max(float(args.seconds), 1.0)
    metrics = {
        "setup_s": median(setups),
        "runs_per_s": 1.0 / wall if walls else 0.0,
        "latency_p50_ms": 1000.0 * wall,
        "success_share": 1.0 - failed / attempted,
        "peak_rss_mb": self_peak_rss_mb() + result["peak_rss_mb"],
    }
    metrics.update(result["fidelity"])
    notes = {
        "latency_p50_raw_ms": 1000.0 * median(walls),
        "trials_per_s": result["css_trials"] / wall,
        "css_trials_per_run": result["css_trials"],
        "repetitions": len(walls),
        "failed_share": failed / attempted,
        "mismatched": result["mismatched"],
        "health": result["health"],
        "environment": result["environment"],
    }
    return Outcome(metrics, attempted, failed, notes)


def run_service(args, work: Path, host: HostSpeed) -> Outcome:
    import serviceload as load

    spec = workload_spec("service-fig10", args.size)
    seeds = rep_seeds("service-fig10", args.seed, spec.seed)
    min_samples = load.MIN_SAMPLES if args.size == "default" else 20
    if args.trace:
        return trace_service(args, work, spec, seeds, min_samples)
    state_dirs = (work / f"setup-state-{n}" for n in itertools.count())

    def setup_s() -> float:
        server = load.Server(load.cli_command(next(state_dirs)))
        server.stop()
        return server.setup_s

    setups = [timed_setup(host, setup_s) for _ in range(SETUP_SAMPLES // 2)]
    server = load.Server(load.cli_command(work / "state"))
    try:
        warm = load.closed_loop(server.client, spec, seeds, 0.0, load.WARMUP_RUNS)
        loop = load.probed_loop(
            server.client, spec, seeds, args.seconds, min_samples, host
        )
        first = loop.samples[0]
        repeat = load.run_once(server.client, spec, first.seed)
        # The client's and the service's peaks, read before the checks
        # below run other specs in this process.
        peak_rss_mb = self_peak_rss_mb() + tree_peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    setups += [timed_setup(host, setup_s) for _ in range(len(setups), SETUP_SAMPLES)]
    attempted = warm.attempted + loop.attempted + 1
    failed = warm.failed + loop.failed + int(repeat.digest != first.digest)
    # The service must return what the in-process runner computes for
    # the same spec; a spread of the run's seeds is re-run here.
    from repro.runtime import ScenarioRunner

    step = max(1, len(loop.samples) // 8)
    checked = loop.samples[::step]
    with ScenarioRunner() as runner:
        for sample in checked:
            digest = runner.run(spec.with_seed(sample.seed)).manifest.result_sha256
            failed += int(digest != sample.digest)
        paper = fidelity(runner, args.size)
    attempted += len(checked)
    p50, p90 = load.latency_quantiles([s.adjusted_s for s in loop.samples])
    raw_p50, _ = load.latency_quantiles([s.latency_s for s in loop.samples])
    metrics = {
        "setup_s": median(setups),
        "runs_per_s": len(loop.samples) / loop.adjusted_wall_s,
        "latency_p50_ms": p50,
        "success_share": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update(paper)
    notes = {
        "latency_p50_raw_ms": raw_p50,
        "latency_p90_ms": p90,
        "latency_samples": len(loop.samples),
        "polls_per_run": sum(s.polls for s in loop.samples) / len(loop.samples),
        "failed_share": failed / attempted,
        "rejected": loop.rejected,
        "environment": environment_info(),
    }
    return Outcome(metrics, attempted, failed, notes)


def trace_service(args, work: Path, spec, seeds, min_samples: int) -> Outcome:
    """Untraced then traced halves; per-layer numbers from the traced one."""
    import serviceload as load
    from layers import OUTSIDE_RUN, layer_metrics

    half = args.seconds / 2.0
    server = load.Server(load.cli_command(work / "plain-state"))
    try:
        loops = [load.closed_loop(server.client, spec, seeds, 0.0, load.WARMUP_RUNS)]
        plain = load.closed_loop(server.client, spec, seeds, half, min_samples)
    finally:
        server.stop()
    stats_path = work / "launcher-stats.json"
    server = load.Server(load.launcher_command(work / "traced-state", stats_path))
    try:
        warm = load.closed_loop(server.client, spec, seeds, 0.0, load.WARMUP_RUNS)
        loops.append(warm)
        before = load.scrape(server.client.metrics())
        traced = load.closed_loop(server.client, spec, seeds, half, min_samples)
        after = load.scrape(server.client.metrics())
    finally:
        server.stop()
    stats = json.loads(stats_path.read_text())
    runs = stats["calls"]["runtime.runner.run"]
    samples = traced.samples

    def delta(name: str, **labels: str) -> float:
        return load.metric(after, name, **labels) - load.metric(before, name, **labels)

    run_s = delta("service_run_seconds_sum") / delta("service_run_seconds_count")
    p50, p90 = load.latency_quantiles([s.latency_s for s in samples])
    plain_p50, _ = load.latency_quantiles([s.latency_s for s in plain.samples])
    mean_latency = sum(s.latency_s for s in samples) / len(samples)
    layers = {name: 0.0 for name, _ in declared("per_layer")}
    layers.update(layer_metrics(stats, runs))
    # The registry's records outside the run window; its "done" record
    # falls inside, so service_run_seconds already holds it.
    registry_outside_s = stats["total"].get(OUTSIDE_RUN, 0.0) / runs
    attributed = run_s + registry_outside_s
    layers.update({
        "setup.import_s": stats["import_s"],
        "service.server.run_s": run_s,
        # Overhead is the mean latency less run_s, so run_s + overhead
        # is the mean by construction; reconcile_pct is how far that
        # mean sits from the p50 the end-to-end metric gates.
        "service.server.overhead_ms": 1000.0 * (mean_latency - run_s),
        "service.server.reconcile_pct": 100.0 * (1000.0 * mean_latency - p50) / p50,
        "service.server.http_requests_per_run": (
            delta("service_http_requests_total") / len(samples)
        ),
        "service.server.rejected": delta(
            "service_submissions_total", outcome="rejected"
        ),
        "service.registry.journal_bytes": load.metric(
            after, "service_registry_journal_bytes"
        ),
        "service.client.latency_p90_ms": p90,
        "service.client.latency_samples": float(len(samples)),
        "service.client.polls_per_run": sum(s.polls for s in samples) / len(samples),
        "obs.tracing_overhead_pct": 100.0 * (p50 / plain_p50 - 1.0),
        "obs.attributed_share": attributed / mean_latency,
        "obs.unattributed_s": mean_latency - attributed,
    })
    loops += [plain, traced]
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    return Outcome(layers, attempted, failed, {"environment": environment_info()})


def declared(section: str) -> List[Tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json declares in ``section``."""
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(entry["name"], entry["unit"]) for entry in data[section]]


def report(workload: str, outcome: Outcome, section: str) -> Dict[str, dict]:
    """Print one workload's metrics by name and unit; return them as JSON."""
    metrics = {}
    for name, unit in declared(section):
        value = float(outcome.metrics[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"{workload:14s} {name:40s} {value:14.6g} {unit}")
    for name, value in outcome.notes.items():
        print(f"{workload:14s} {name:40s} {json.dumps(value)}")
    counts = f"{outcome.attempted} / {outcome.failed}"
    print(f"{workload:14s} {'attempted / failed':40s} {counts}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS) + ["all"], default="all"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--size", choices=["default", "tiny"], default="default",
        help="tiny shrinks every spec, for the benchmark's own smoke test",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    results = {}
    try:
        # Set before numpy loads here or in any child: hermetic cache,
        # one BLAS thread per process.
        pin_environment(cache_dir=work / "cache")
        with HostSpeed() as host:
            for workload in workloads:
                scratch = work / workload
                scratch.mkdir()
                if WORKLOADS[workload][0] == "fig10":
                    results[workload] = run_service(args, scratch, host)
                else:
                    results[workload] = run_inproc(workload, args, scratch, host)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass
    metrics: Dict[str, dict] = {}
    for workload, outcome in results.items():
        shown = report(workload, outcome, section)
        prefix = "" if len(results) == 1 else f"{workload}:"
        metrics.update({prefix + name: value for name, value in shown.items()})
    attempted = sum(outcome.attempted for outcome in results.values())
    failed = sum(outcome.failed for outcome in results.values())
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
