"""Results do not depend on the BLAS thread count (tier 1).

Each run starts a fresh interpreter, because BLAS reads its thread
count once, when numpy loads it.  A tiny fig7 spec runs the whole
pipeline (recording, planning, the batched kernel, aggregation) and its
``result_sha256`` must not move between one and two BLAS threads.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_RUN_TINY_FIG7 = """
from repro.experiments.fig7 import Fig7Config, fig7_spec
from repro.runtime import ScenarioRunner

spec = fig7_spec(
    Fig7Config(
        probe_counts=(4, 14),
        lab_azimuth_step_deg=20.0,
        lab_elevation_step_deg=15.0,
        conference_azimuth_step_deg=20.0,
        n_sweeps=1,
        subsamples_per_sweep=1,
    )
)
with ScenarioRunner(jobs=1) as runner:
    print(runner.run(spec).manifest.result_sha256)
"""


def _fig7_digest(blas_threads: int) -> str:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", _RUN_TINY_FIG7],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return completed.stdout.split()[-1]


def test_fig7_digest_is_blas_thread_invariant():
    one = _fig7_digest(1)
    assert len(one) == 64
    assert _fig7_digest(2) == one
