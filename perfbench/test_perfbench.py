"""Self-tests of the benchmark: declarations, a tiny smoke run, tracing.

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke runs use ``--size tiny`` (coarse grids, two probe counts,
20 service runs), so they check plumbing and outputs, not speed.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LayerTracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in DECLARED["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def test_every_metric_has_a_valid_name_and_unit():
    names = [entry["name"] for section in ("end_to_end", "per_layer")
             for entry in DECLARED[section]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for section in ("end_to_end", "per_layer"):
        for entry in DECLARED[section]:
            assert NAME.match(entry["name"]), entry
            assert UNIT.match(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher"), entry
    bounds = {entry["name"]: entry["bound"] for entry in DECLARED["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run_emits_every_declared_metric(trace):
    done = _run("--workload", "all", "--size", "tiny", "--seconds", "0.5",
                "--seed", "3", "--trace", trace)
    assert done.returncode == 0, done.stderr[-4000:]
    lines = done.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    for workload in WORKLOADS:
        for entry in DECLARED[section]:
            reported = summary["metrics"][f"{workload}:{entry['name']}"]
            assert reported["unit"] == entry["unit"]
            assert math.isfinite(reported["value"])
            if section == "end_to_end":
                assert reported["value"] != 0, (workload, entry["name"])
            # The human-readable lines carry the same metric and unit.
            assert any(
                line.split()[:2] == [workload, entry["name"]]
                and line.split()[-1] == entry["unit"]
                for line in lines
            ), (workload, entry["name"])


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "fig7", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


class _Layer:
    def outer(self, tracer_inner):
        return tracer_inner()

    def inner(self):
        return 7


def test_tracer_splits_self_time_and_restores_originals():
    tracer = LayerTracer()
    originals = (_Layer.outer, _Layer.inner)
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner", lambda args, kwargs, res: {"units": res})
    layer = _Layer()
    assert layer.outer(layer.inner) == 7
    snapshot = tracer.snapshot()
    assert snapshot["calls"] == {"outer": 1, "inner": 1}
    assert snapshot["counters"] == {"units": 7}
    assert snapshot["self"]["outer"] == pytest.approx(
        snapshot["total"]["outer"] - snapshot["total"]["inner"]
    )
    tracer.uninstall()
    assert (_Layer.outer, _Layer.inner) == originals
