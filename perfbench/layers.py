"""Benchmark-side layer tracing: timed wrappers around public calls.

The program is measured, never edited: a :class:`LayerTracer` replaces
a public function or method with a wrapper that times each call,
charges that time to the caller's open span (so every span also gets a
*self* time), and adds the call's work counts.  :meth:`uninstall` puts
every original back, so one process can alternate untraced and traced
repetitions.

Pool workers forked while the wrappers are installed keep them.  A
worker cannot reach the parent's counters, so it appends one JSON line
per call to a spill file, and :meth:`absorb_spills` folds those lines
in under ``<span>@pool`` — worker time runs beside the parent's wall
time, never inside it, so it must not count toward the parent's
attribution.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

Counts = Callable[[tuple, dict, Any], Dict[str, float]]


class LayerTracer:
    """Span totals, self times and work counters for wrapped calls."""

    def __init__(self, spill_dir: Optional[Path] = None):
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []
        #: State a counter must keep across install cycles.
        self.memo: Dict[str, Any] = {}
        self.reset()

    # -- recording ------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self.total: Dict[str, float] = defaultdict(float)
            self.self_time: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.counters: Dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, counts: Optional[Counts], original, args, kwargs):
        """Run ``original(*args, **kwargs)`` as one ``name`` span."""
        stack = self._stack()
        # A traced call nested in a span of the same name (a batched
        # kernel falling back to its scalar twin) is part of that span.
        if any(frame[0] == name for frame in stack):
            return original(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        begin = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - begin
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
        added = counts(args, kwargs, result) if counts is not None else {}
        self._record(name, elapsed, elapsed - frame[1], added)
        return result

    def _record(self, name: str, elapsed: float, own: float, added) -> None:
        if os.getpid() != self.pid:
            if self.spill_dir is not None:
                line = json.dumps({"n": name, "t": elapsed, "s": own, "c": added})
                path = self.spill_dir / f"spill-{os.getpid()}.jsonl"
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
            return
        with self._lock:
            self.total[name] += elapsed
            self.self_time[name] += own
            self.calls[name] += 1
            for key, value in added.items():
                self.counters[key] += value

    def absorb_spills(self) -> None:
        """Fold pool workers' spilled calls in as ``<span>@pool``."""
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("spill-*.jsonl")):
            lines = path.read_text(encoding="utf-8").splitlines()
            os.truncate(path, 0)
            with self._lock:
                for line in lines:
                    entry = json.loads(line)
                    name = entry["n"] + "@pool"
                    self.total[name] += entry["t"]
                    self.self_time[name] += entry["s"]
                    self.calls[name] += 1
                    for key, value in entry["c"].items():
                        self.counters[key] += value

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Copy of every span and counter recorded since :meth:`reset`."""
        with self._lock:
            return {
                "total": dict(self.total),
                "self": dict(self.self_time),
                "calls": dict(self.calls),
                "counters": dict(self.counters),
            }

    # -- installation ---------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, counts: Optional[Counts] = None):
        """Replace ``owner.attr`` with a timed wrapper recorded as ``name``."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, counts, original, args, kwargs)

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)
        self.on_uninstall(lambda: setattr(owner, attr, original))

    def on_uninstall(self, undo: Callable[[], None]) -> None:
        self._undo.append(undo)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            self._undo.pop()()


def _rows(args, kwargs, result) -> Dict[str, float]:
    sector_ids = args[1] if len(args) > 1 else kwargs["sector_ids"]
    return {"core.kernel_trials": float(len(sector_ids)), "core.kernel_calls": 1.0}


def _stacked_rows(args, kwargs, result) -> Dict[str, float]:
    parts = args[1] if len(args) > 1 else kwargs["parts"]
    return {
        "core.kernel_trials": float(sum(len(part[0]) for part in parts)),
        "core.kernel_calls": 1.0,
    }


def _single_row(args, kwargs, result) -> Dict[str, float]:
    return {"core.kernel_trials": 1.0, "core.kernel_calls": 1.0}


def count_planned(args, kwargs, result) -> Dict[str, float]:
    policy = args[1] if len(args) > 1 else kwargs["policy"]
    trials = float(sum(block.n_trials for block in result))
    counts = {"runtime.runner.plan_trials": trials}
    if getattr(policy, "name", "") == "css":
        counts["css_trials"] = trials
    return counts


def _recorded(args, kwargs, result) -> Dict[str, float]:
    return {"channel.recordings": float(len(result))}


def _each(counter: str) -> Counts:
    """Counts one ``counter`` per call."""
    return lambda args, kwargs, result: {counter: 1.0}


def _run_outcome(args, kwargs, result) -> Dict[str, float]:
    health = result.manifest.health
    return {
        "runtime.health.retries": float(health.get("retries", 0)),
        "runtime.health.pool_replacements": float(health.get("pool_replacements", 0)),
    }


def _shm_counter(seen: set) -> Counts:
    def counts(args, kwargs, result) -> Dict[str, float]:
        # publish() memoizes on its key; only a new segment copies bytes.
        if result.segment in seen:
            return {}
        seen.add(result.segment)
        arrays = args[2] if len(args) > 2 else kwargs["arrays"]
        return {
            "runtime.shm.segments": 1.0,
            "runtime.shm.bytes": float(sum(array.nbytes for array in arrays.values())),
        }

    return counts


def install_program_layers(tracer: LayerTracer) -> None:
    """Wrap the public call into every layer the benchmark attributes.

    Span names are the metric prefixes (``core.kernel``,
    ``runtime.runner.plan``, ...).  ``experiments.executor`` wraps each
    registered scenario executor through the public registry, so its
    self time is the scenario's own work: policy builds and result
    aggregation, outside recording, planning and execution.
    """
    import sys

    from repro.core.compressive import CompressiveSectorSelector
    from repro.experiments import common
    from repro.runtime import runner as runner_module
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.registry import (
        available_scenarios,
        get_scenario,
        register_scenario,
    )
    from repro.runtime.runner import ScenarioRunner
    from repro.runtime.shm import KernelPublisher
    from repro.service.registry import RunRegistry

    tracer.wrap(ScenarioRunner, "run", "runtime.runner.run", _run_outcome)
    tracer.wrap(ScenarioRunner, "plan_trials", "runtime.runner.plan", count_planned)
    tracer.wrap(ScenarioRunner, "execute", "runtime.runner.execute")
    for method, counts in (
        ("select", _single_row),
        ("select_batch", _rows),
        ("select_fused_batch", _rows),
        ("select_fused_stacked", _stacked_rows),
    ):
        tracer.wrap(CompressiveSectorSelector, method, "core.kernel", counts)
    segments = tracer.memo.setdefault("shm_segments", set())
    shm_counts = _shm_counter(segments)
    tracer.wrap(KernelPublisher, "publish", "runtime.shm.publish", shm_counts)
    tracer.wrap(CheckpointStore, "__init__", "runtime.checkpoint.open")
    journaled = _each("runtime.checkpoint.entries")
    tracer.wrap(CheckpointStore, "put", "runtime.checkpoint.put", journaled)
    _wrap_registry(tracer, RunRegistry)
    tracer.wrap(runner_module, "git_revision", "runtime.manifest.git_revision")
    tracer.wrap(runner_module, "result_digest", "runtime.manifest.digest")
    # Experiment modules import record_directions by name; wrap every
    # module-level reference so each scenario's recording is seen.
    original = common.record_directions
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro."):
            continue
        if getattr(module, "record_directions", None) is original:
            tracer.wrap(module, "record_directions", "channel.record", _recorded)
    for scenario in available_scenarios():
        entry = get_scenario(scenario)
        _wrap_executor(tracer, entry, register_scenario)


#: Registry records made outside the service's run window (admission,
#: the "running" transition, eviction).  A run's terminal transition is
#: journaled inside the window ``service_run_seconds`` times, and is
#: recorded under ``<OUTSIDE_RUN>.terminal``.
OUTSIDE_RUN = "service.registry.record"
_TERMINAL = ("done", "failed", "cancelled", "deadline")


def _wrap_registry(tracer: LayerTracer, registry_class) -> None:
    original = registry_class.record
    counts = _each("service.registry.events")

    def record(self, run_id, to, **fields):
        name = OUTSIDE_RUN + ".terminal" if to in _TERMINAL else OUTSIDE_RUN
        return tracer.call(name, counts, original, (self, run_id, to), fields)

    registry_class.record = record
    tracer.on_uninstall(lambda: setattr(registry_class, "record", original))


def _wrap_executor(tracer: LayerTracer, entry, register_scenario) -> None:
    original = entry.executor

    def executor(spec, runner):
        return tracer.call("experiments.executor", None, original, (spec, runner), {})

    register = register_scenario(entry.name, entry.default_spec, entry.description)
    register(executor)
    tracer.on_uninstall(lambda: register(original))


#: Spans whose self time is attributed to a layer.  The root span
#: (``runtime.runner.run``) is left out: its self time — manifest
#: assembly, spec hashing — is the unattributed remainder.
ATTRIBUTED = (
    "core.kernel",
    "runtime.runner.plan",
    "runtime.runner.execute",
    "channel.record",
    "experiments.executor",
    "runtime.shm.publish",
    "runtime.checkpoint.open",
    "runtime.checkpoint.put",
    "runtime.manifest.git_revision",
    "runtime.manifest.digest",
)


def attributed_s(snapshot: dict) -> float:
    """Self time of the attributed spans."""
    return sum(snapshot["self"].get(name, 0.0) for name in ATTRIBUTED)


def layer_metrics(snapshot: dict, runs: float = 1.0) -> Dict[str, float]:
    """Per-layer metrics of a snapshot covering ``runs`` runs, per run.

    Ratios are independent of ``runs``; the supervision health counters
    stay totals, because any of them is worth seeing.
    """
    total, own, counters = snapshot["total"], snapshot["self"], snapshot["counters"]

    def span(name: str) -> float:
        return total.get(name, 0.0) / runs

    def count(name: str) -> float:
        return counters.get(name, 0.0) / runs

    kernel_s = span("core.kernel") + span("core.kernel@pool")
    kernel_trials = count("core.kernel_trials")
    kernel_calls = count("core.kernel_calls")
    plan_s = span("runtime.runner.plan")
    plan_trials = count("runtime.runner.plan_trials")
    return {
        "core.kernel_s": kernel_s,
        "core.kernel_calls": kernel_calls,
        "core.trials_per_call": kernel_trials / kernel_calls if kernel_calls else 0.0,
        "core.kernel_us_per_trial": (
            1e6 * kernel_s / kernel_trials if kernel_trials else 0.0
        ),
        "runtime.runner.plan_s": plan_s,
        "runtime.runner.plan_us_per_trial": (
            1e6 * plan_s / plan_trials if plan_trials else 0.0
        ),
        "runtime.runner.execute_s": span("runtime.runner.execute"),
        "runtime.runner.supervision_s": own.get("runtime.runner.execute", 0.0) / runs,
        "channel.record_s": span("channel.record"),
        "channel.recordings": count("channel.recordings"),
        "experiments.aggregate_s": own.get("experiments.executor", 0.0) / runs,
        "runtime.shm.publish_s": span("runtime.shm.publish"),
        "runtime.shm.bytes": count("runtime.shm.bytes"),
        "runtime.shm.segments": count("runtime.shm.segments"),
        "runtime.health.retries": counters.get("runtime.health.retries", 0.0),
        "runtime.health.pool_replacements": counters.get(
            "runtime.health.pool_replacements", 0.0
        ),
        "runtime.checkpoint.open_s": span("runtime.checkpoint.open"),
        "runtime.checkpoint.put_s": span("runtime.checkpoint.put"),
        "runtime.checkpoint.entries": count("runtime.checkpoint.entries"),
        "runtime.manifest.git_revision_s": span("runtime.manifest.git_revision"),
        "runtime.manifest.digest_s": span("runtime.manifest.digest"),
        "service.registry.record_s": (
            span(OUTSIDE_RUN) + span(OUTSIDE_RUN + ".terminal")
        ),
        "service.registry.events_per_run": count("service.registry.events"),
    }
