"""Shared pieces of the benchmark: workloads, seeds, environment, memory.

Nothing here imports numpy or the program at module level, so the
orchestrator can pin the BLAS thread count in the environment before
any process it starts (or itself) loads numpy.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Threads each BLAS may use in every benchmark process.  Two-CPU hosts
#: oversubscribe once a pool worker and its BLAS threads compete.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Workload → (scenario, runner jobs).  ``service-fig10`` runs its
#: scenario inside ``repro-bench serve`` with one job per worker.
WORKLOADS = {
    "fig7": ("fig7", 1),
    "fig9-jobs2": ("fig9", 2),
    "service-fig10": ("fig10", 1),
}

#: Spec parameters of the ``tiny`` size the self-tests run.  Probe
#: count 14 stays in, because the fidelity metrics read it.
TINY_PARAMS = {
    "fig7": {
        "probe_counts": [4, 14],
        "lab_azimuth_step_deg": 30.0,
        "lab_elevation_step_deg": 15.0,
        "conference_azimuth_step_deg": 30.0,
    },
    "fig9": {"probe_counts": [4, 14], "azimuth_step_deg": 30.0, "n_sweeps": 4},
    "fig10": {},
}

#: Timed repetitions a run makes even when ``--seconds`` runs out first.
MIN_REPS = 5
#: Set-ups timed per run (half before the measurement, half after, so
#: a slow spell of the host does not bias them all); the run reports
#: their median.
SETUP_SAMPLES = 7

#: What ``calib.py``'s work takes on the reference host: about its time
#: on the 2-vCPU host the benchmark was written on, so adjusted times
#: read close to raw ones there.
REFERENCE_PROBE_S = 0.020


def pin_environment(cache_dir: Optional[Path] = None) -> None:
    """Pin BLAS threads (and the artifact cache) for this process tree."""
    os.environ.update(PINNED_ENV)
    if cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    path = os.environ.get("PYTHONPATH")
    if str(SRC) not in (path or "").split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), path) if p)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sized_spec(scenario: str, size: str = "default"):
    """A scenario's canonical spec: its registered default spec.

    Its seed is the one EXPERIMENTS.md reports; timed repetitions only
    ever run it with a fresh seed from :func:`rep_seeds`.
    """
    from dataclasses import replace

    from repro.runtime.registry import scenario_spec

    spec = scenario_spec(scenario)
    if size == "tiny":
        spec = replace(spec, params={**dict(spec.params), **TINY_PARAMS[scenario]})
    return spec


def workload_spec(workload: str, size: str = "default"):
    return sized_spec(WORKLOADS[workload][0], size)


def fidelity(
    runner, size: str, known: Optional[Dict[str, object]] = None
) -> Dict[str, float]:
    """The paper-level numbers of the canonical fig7 and fig9 specs.

    ``known`` maps a scenario to a result the caller already holds.
    Every workload reports all four numbers, each through its own
    execution path, so none of them can drift unseen.
    """
    known = dict(known or {})
    for scenario in ("fig7", "fig9"):
        if scenario not in known:
            known[scenario] = runner.run(sized_spec(scenario, size)).result
    lab, conference = known["fig7"].lab, known["fig7"].conference
    return {
        "az_err_m14_lab_deg": float(lab.azimuth_median(14)),
        "az_err_m14_conf_deg": float(conference.azimuth_median(14)),
        "snr_loss_m14_db": float(known["fig9"].css_at(14)),
        "crossover_probes": float(known["fig9"].crossover_probes()),
    }


def rep_seeds(workload: str, seed: int, canonical: int) -> Iterator[int]:
    """Distinct spec seeds for every repetition, derived from ``seed``.

    No seed repeats and none equals the canonical spec's, so no
    in-process memo keyed by spec (published block segments, journals)
    ever serves a timed repetition.
    """
    rng = random.Random(f"{workload}/{seed}")
    seen = {canonical}
    while True:
        value = rng.randrange(1, 2**31)
        if value not in seen:
            seen.add(value)
            yield value


class HostSpeed:
    """A ``calib.py`` process that times its fixed work on request.

    The host this runs on is shared, and its speed drifts by up to 2×
    over tens of seconds, which moves every timing as much.  A time
    taken between two probes is scaled to the reference host by
    :meth:`adjust`.
    """

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "calib.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def probe(self) -> float:
        """Seconds the fixed work takes now."""
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    @staticmethod
    def adjust(seconds: float, before: float, after: float) -> float:
        """``seconds`` taken between two probes, on the reference host."""
        return seconds * REFERENCE_PROBE_S * 2.0 / (before + after)

    def close(self) -> None:
        # Pool workers forked meanwhile hold the pipe too, so closing it
        # would not end the probe: stop it outright.
        self.process.stdin.close()
        self.process.terminate()
        self.process.wait()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def emit(tag: str, payload) -> None:
    """One protocol line from a benchmark child to the orchestrator."""
    print(f"{tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _status_field(pid: int, field: str) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0.0


def _descendants(pid: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        # Field 4 (parent pid) follows the parenthesised command name.
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        for child in children.get(current, []):
            found.append(child)
            frontier.append(child)
    return found


def tree_peak_rss_mb(pid: int, skip: Iterable[int] = ()) -> float:
    """Peak RSS (VmHWM) of ``pid`` plus every live descendant not in
    ``skip``, in MiB."""
    pids = set([pid] + _descendants(pid)) - set(skip)
    return sum(_status_field(p, "VmHWM") for p in pids)


def self_peak_rss_mb() -> float:
    return _status_field(os.getpid(), "VmHWM")


def _blas_threads() -> Dict[str, object]:
    """The loaded OpenBLAS library and the thread count it reports."""
    import ctypes

    libraries = set()
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                libraries.add(path)
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return {
                    "blas_library": os.path.basename(path),
                    "blas_threads": getter(),
                }
    return {"blas_library": "unknown", "blas_threads": None}


def environment_info() -> Dict[str, object]:
    """What a result depends on besides the code: cores, BLAS, start method."""
    import multiprocessing

    import numpy

    from repro.runtime.manifest import git_revision

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    info: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "start_method": multiprocessing.get_start_method(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_revision(),
    }
    info.update(_blas_threads())
    return info
