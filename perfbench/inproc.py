"""Child process of the in-process workloads (``fig7``, ``fig9-jobs2``).

The orchestrator (``run.py``) starts this script once per set-up sample
and once per measurement, and reads two protocol lines from its
standard output: ``READY`` when set-up ends (imports, testbed memo
load, runner construction) and ``RESULT`` with the measurement.

Modes:

* ``warm`` builds the testbed memo into ``REPRO_CACHE_DIR`` (untimed);
* ``setup`` stops after ``READY``;
* ``measure`` times untraced ``ScenarioRunner.run`` repetitions, each
  with a fresh seed and between two host-speed probes, then checks
  digests;
* ``trace`` alternates untraced and traced repetitions and attributes
  the traced ones to layers (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    MIN_REPS,
    WORKLOADS,
    HostSpeed,
    emit,
    environment_info,
    fidelity,
    median,
    pin_environment,
    rep_seeds,
    tree_peak_rss_mb,
    workload_spec,
)

_LOGGER = logging.getLogger("perfbench")

#: Supervision counters of the run manifests' health section.  A
#: recovered fault is not a failure (the run still returns the right
#: result), so they are summed over the repetitions and reported.
HEALTH = ("retries", "pool_replacements")

def _counted_run(runner, spec):
    """One untimed run that also counts its CSS trials (seed-independent)."""
    from layers import LayerTracer, count_planned
    from repro.runtime import ScenarioRunner

    tracer = LayerTracer()
    tracer.wrap(ScenarioRunner, "plan_trials", "runtime.runner.plan", count_planned)
    try:
        outcome = runner.run(spec)
    finally:
        tracer.uninstall()
    return outcome, tracer.counters["css_trials"]


def measure(workload, runner, spec, seeds, seconds, size) -> dict:
    from repro.runtime import ScenarioRunner

    warm, css_trials = _counted_run(runner, spec)
    walls, adjusted, attempted, failed = [], [], 0, 0
    peak_rss_mb = tree_peak_rss_mb(os.getpid())
    health = dict.fromkeys(HEALTH, 0)
    deadline = time.perf_counter() + seconds
    with HostSpeed() as host:
        while len(walls) < MIN_REPS or time.perf_counter() < deadline:
            attempted += 1
            rep = spec.with_seed(next(seeds))
            before = host.probe()
            begin = time.perf_counter()
            try:
                outcome = runner.run(rep)
            except Exception:
                _LOGGER.exception("repetition with seed %d failed", rep.seed)
                failed += 1
                if failed > MIN_REPS:
                    break
                continue
            walls.append(time.perf_counter() - begin)
            adjusted.append(host.adjust(walls[-1], before, host.probe()))
            for key in HEALTH:
                health[key] += outcome.manifest.health.get(key, 0)
            # Sampled after every repetition, so the peak of a pool
            # worker replaced later in the run still counts; the checks
            # below, which run other specs and runners, are left out.
            peak_rss_mb = max(
                peak_rss_mb, tree_peak_rss_mb(os.getpid(), skip=[host.process.pid])
            )
    # Correctness, untimed: a repeated spec and (for jobs > 1) the
    # serial path must reproduce the warm-up digest bit for bit.
    reference = warm.manifest.result_sha256
    checks = {"repeat": runner.run(spec).manifest.result_sha256}
    if runner.jobs > 1:
        with ScenarioRunner(jobs=1) as serial:
            checks["jobs1"] = serial.run(spec).manifest.result_sha256
    mismatched = sorted(name for name, digest in checks.items() if digest != reference)
    for name in mismatched:
        _LOGGER.error("%s digest %s != %s", name, checks[name], reference)
    return {
        "walls_s": walls,
        "adjusted_s": adjusted,
        "css_trials": css_trials,
        "fidelity": fidelity(runner, size, {WORKLOADS[workload][0]: warm.result}),
        "attempted": attempted + len(checks),
        "failed": failed + len(mismatched),
        "mismatched": mismatched,
        "health": health,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment_info(),
    }


def rep_layers(snapshot: dict, wall: float) -> dict:
    """Per-layer metrics of one traced repetition."""
    from layers import attributed_s, layer_metrics

    layers = layer_metrics(snapshot)
    attributed = attributed_s(snapshot)
    layers["obs.attributed_share"] = attributed / wall
    layers["obs.unattributed_s"] = wall - attributed
    return layers


def trace(runner, spec, seeds, seconds, spill_dir: Path) -> dict:
    from layers import LayerTracer, install_program_layers
    from repro.runtime import ScenarioRunner

    tracer = LayerTracer(spill_dir)
    warm, css_trials = _counted_run(runner, spec)
    reference = warm.manifest.result_sha256
    attempted, failed = 0, 0

    def traced_run(target, rep):
        install_program_layers(tracer)
        tracer.reset()
        begin = time.perf_counter()
        try:
            outcome = target.run(rep)
        finally:
            wall = time.perf_counter() - begin
            tracer.uninstall()
            tracer.absorb_spills()
        return outcome, wall, tracer.snapshot()

    # The traced runner's pool forks while the wrappers are installed,
    # so its workers report kernel time; the untraced runner's never do.
    traced = ScenarioRunner(jobs=runner.jobs)
    try:
        traced_run(traced, spec)
        plain_walls, reps = [], []
        deadline = time.perf_counter() + seconds
        while len(reps) < MIN_REPS or time.perf_counter() < deadline:
            attempted += 2
            rep = spec.with_seed(next(seeds))
            begin = time.perf_counter()
            runner.run(rep)
            plain_walls.append(time.perf_counter() - begin)
            rep = spec.with_seed(next(seeds))
            outcome, wall, snapshot = traced_run(traced, rep)
            reps.append((rep, outcome, wall, snapshot))
        speedup = 0.0
        if runner.jobs > 1:
            # Same seed through the serial path: the pool's speed-up on
            # the execute layer, and a digest the pool must reproduce.
            rep, outcome, _, snapshot = reps[0]
            with ScenarioRunner(jobs=1) as serial:
                serial.run(spec)
                serial_outcome, _, serial_snapshot = traced_run(serial, rep)
            attempted += 1
            if serial_outcome.manifest.result_sha256 != outcome.manifest.result_sha256:
                _LOGGER.error("jobs=1 digest differs from jobs=%d", runner.jobs)
                failed += 1
            speedup = (
                serial_snapshot["total"]["runtime.runner.execute"]
                / snapshot["total"]["runtime.runner.execute"]
            )
        attempted += 1
        if traced.run(spec).manifest.result_sha256 != reference:
            _LOGGER.error("traced repeat of the canonical spec changed its digest")
            failed += 1
    finally:
        traced.close()
    per_rep = [rep_layers(snapshot, wall) for _, _, wall, snapshot in reps]
    layers = {name: median([rep[name] for rep in per_rep]) for name in per_rep[0]}
    for key in HEALTH:
        name = f"runtime.health.{key}"
        layers[name] = sum(rep[name] for rep in per_rep)
    traced_wall = median([wall for _, _, wall, _ in reps])
    layers["experiments.trials_per_s"] = css_trials / median(plain_walls)
    layers["runtime.pool.speedup"] = speedup
    overhead = traced_wall / median(plain_walls) - 1.0
    layers["obs.tracing_overhead_pct"] = 100.0 * overhead
    return {
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "environment": environment_info(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["fig7", "fig9-jobs2"])
    parser.add_argument(
        "--mode", required=True, choices=["warm", "setup", "measure", "trace"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--size", choices=["default", "tiny"], default="default")
    parser.add_argument("--spill-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    pin_environment()

    import_begin = time.perf_counter()
    from repro.runtime import ScenarioRunner
    from repro.runtime.registry import load_builtin

    load_builtin()
    import_s = time.perf_counter() - import_begin
    spec = workload_spec(args.workload, args.size)
    load_begin = time.perf_counter()
    spec.testbed.build()
    testbed_load_s = time.perf_counter() - load_begin
    if args.mode == "warm":
        return 0
    runner = ScenarioRunner(jobs=WORKLOADS[args.workload][1])
    try:
        emit(
            "READY",
            {
                "setup.import_s": import_s,
                "measurement.testbed_load_s": testbed_load_s,
                "process_s": time.perf_counter() - _STARTED,
            },
        )
        if args.mode == "setup":
            return 0
        seeds = rep_seeds(args.workload, args.seed, spec.seed)
        if args.mode == "measure":
            result = measure(
                args.workload, runner, spec, seeds, args.seconds, args.size
            )
        else:
            result = trace(runner, spec, seeds, args.seconds, args.spill_dir)
    finally:
        runner.close()
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
