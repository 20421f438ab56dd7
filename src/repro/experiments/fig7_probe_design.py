"""Probe-design search: accuracy vs. M for every registered designer.

The paper probes a uniform-random M-of-N subset (§2.2); the structured
sensing-matrix literature (arXiv:2205.11154, arXiv:2308.13268) shows
designed subsets beat random draws at the same probing budget.  This
scenario runs the design-space search on the fig7 evaluation surface:
every registered probe designer × M ∈ {6..24} × the lab (LOS) and
conference-room (multipath) environments, all on the batched
engine, and ranks the designers against the random baseline by mean
angular error.

``repro-bench run fig7_probe_design`` prints the ranked report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..channel.environment import conference_room, lab_environment
from ..geometry.angles import azimuth_difference
from ..runtime.registry import register_scenario
from ..runtime.runner import ScenarioRunner
from ..runtime.spec import PolicySpec, ScenarioSpec
from .common import record_directions

__all__ = [
    "ProbeDesignConfig",
    "DesignerSeries",
    "ProbeDesignResult",
    "probe_design_spec",
    "run_probe_design",
    "DEFAULT_DESIGNS",
]

#: The designer sweep, in evaluation (and rng-consumption) order.  The
#: random baseline runs first so its draws are independent of how many
#: deterministic designers follow; deterministic designers consume no
#: randomness, so appending one never perturbs another's series.
DEFAULT_DESIGNS: Sequence[Mapping[str, Any]] = (
    {"designer": "random"},
    {"designer": "coherence-min"},
    {
        "designer": "in-sector",
        "params": {"sector_center_deg": 0.0, "sector_width_deg": 120.0},
    },
    {"designer": "greedy-submodular"},
)


@dataclass(frozen=True)
class ProbeDesignConfig:
    """Search-space knobs.

    The azimuth/elevation sampling matches :class:`~.fig7.Fig7Config`
    coverage at the same coarse pitch; ``probe_counts`` spans the
    design-relevant budget M ∈ {6..24} from the issue (below 6 every
    designer is noise-limited, above 24 the random draw saturates).
    """

    seed: int = 7
    probe_counts: Sequence[int] = tuple(range(6, 25, 2))
    lab_azimuth_step_deg: float = 7.5
    lab_elevation_step_deg: float = 6.0
    lab_max_elevation_deg: float = 30.0
    conference_azimuth_step_deg: float = 4.0
    n_sweeps: int = 2
    subsamples_per_sweep: int = 2
    designs: Sequence[Mapping[str, Any]] = DEFAULT_DESIGNS


@dataclass
class DesignerSeries:
    """Mean/median angular error per probe count for one designer in
    one environment."""

    environment_name: str
    designer: str
    probe_counts: List[int] = field(default_factory=list)
    mean_az_error: List[float] = field(default_factory=list)
    median_az_error: List[float] = field(default_factory=list)
    trials: List[int] = field(default_factory=list)

    @property
    def overall_mean(self) -> float:
        """Mean azimuth error across the whole M sweep (the ranking
        statistic — every designer sees identical budgets)."""
        return float(np.mean(self.mean_az_error))

    def mean_at(self, n_probes: int) -> float:
        return self.mean_az_error[self.probe_counts.index(n_probes)]


@dataclass
class ProbeDesignResult:
    lab: List[DesignerSeries]
    conference: List[DesignerSeries]

    def environment(self, name: str) -> List[DesignerSeries]:
        if name == "lab":
            return self.lab
        if name == "conference-room":
            return self.conference
        raise KeyError(name)

    def series(self, environment: str, designer: str) -> DesignerSeries:
        for series in self.environment(environment):
            if series.designer == designer:
                return series
        raise KeyError(f"{designer} in {environment}")

    def ranking(self, environment: str) -> List[DesignerSeries]:
        """Designers ordered best-first by overall mean azimuth error."""
        return sorted(
            self.environment(environment), key=lambda series: series.overall_mean
        )

    def _random_series(self, environment: str) -> Optional[DesignerSeries]:
        try:
            return self.series(environment, "random")
        except KeyError:
            return None  # single-designer smoke runs carry no baseline

    def wins_vs_random(self, environment: str) -> Dict[str, int]:
        """Per designer: at how many probe budgets it strictly beats the
        random baseline's mean azimuth error (empty when the run did
        not include the random baseline)."""
        random_series = self._random_series(environment)
        if random_series is None:
            return {}
        wins: Dict[str, int] = {}
        for series in self.environment(environment):
            if series.designer == "random":
                continue
            wins[series.designer] = sum(
                1
                for index in range(len(series.probe_counts))
                if series.mean_az_error[index]
                < random_series.mean_az_error[index]
            )
        return wins

    def format_rows(self) -> List[str]:
        rows = ["fig7_probe_design: mean azimuth error (deg) vs. probe budget M"]
        for name in ("lab", "conference-room"):
            ranked = self.ranking(name)
            wins = self.wins_vs_random(name)
            counts = ranked[0].probe_counts
            rows.append(f"-- {name} --")
            header = "rank designer          | " + " ".join(
                f"M={count:<4d}" for count in counts
            )
            rows.append(header + "| sweep mean | beats random")
            for position, series in enumerate(ranked, start=1):
                cells = " ".join(
                    f"{error:6.2f}" for error in series.mean_az_error
                )
                if series.designer == "random":
                    verdict = "(baseline)"
                elif series.designer in wins:
                    verdict = f"{wins[series.designer]}/{len(counts)} budgets"
                else:
                    verdict = "(no baseline in run)"
                rows.append(
                    f"{position:4d} {series.designer:<17s}| {cells} "
                    f"| {series.overall_mean:10.2f} | {verdict}"
                )
        return rows


def probe_design_spec(
    config: ProbeDesignConfig = ProbeDesignConfig(),
) -> ScenarioSpec:
    """The declarative form of a probe-design search run."""
    params = {key: value for key, value in asdict(config).items() if key != "seed"}
    params["designs"] = [dict(design) for design in config.designs]
    return ScenarioSpec(
        scenario="fig7_probe_design", seed=config.seed, params=params
    )


def _config_from_spec(spec: ScenarioSpec) -> ProbeDesignConfig:
    params = dict(spec.params)
    designs = tuple(dict(design) for design in params.pop("designs", DEFAULT_DESIGNS))
    return ProbeDesignConfig(seed=spec.seed, designs=designs, **params)


def _design_policy_spec(
    design: Mapping[str, Any], n_probes: int
) -> PolicySpec:
    """The css policy evaluating one (designer, M) grid point.

    The ``random`` designer rides the probe_design block too (not the
    legacy inline draw) — same rng calls, so the baseline numbers are
    exactly what the undesigned policy would produce, while exercising
    the designer path end-to-end.
    """
    return PolicySpec(
        "css", {"n_probes": int(n_probes)}, probe_design=dict(design)
    )


def _evaluate_designers(
    runner: ScenarioRunner,
    spec: ScenarioSpec,
    testbed,
    recordings,
    config: ProbeDesignConfig,
    rng: np.random.Generator,
    name: str,
) -> List[DesignerSeries]:
    context = runner.context(testbed)
    tx_ids = testbed.tx_sector_ids
    all_series: List[DesignerSeries] = []
    for design in config.designs:
        series = DesignerSeries(
            environment_name=name, designer=str(design["designer"])
        )
        for n_probes in config.probe_counts:
            policy_spec = _design_policy_spec(design, n_probes)
            policy = runner.build_policy(policy_spec, context)
            blocks = runner.plan_trials(
                policy,
                recordings,
                tx_ids,
                rng,
                subsamples_per_sweep=config.subsamples_per_sweep,
            )
            records = runner.execute(
                policy,
                blocks,
                reset="recording",
                policy_spec=policy_spec,
                testbed_spec=spec.testbed,
            )
            azimuth_errors: List[float] = []
            for record in records:
                estimate = record.result.estimate
                if estimate is None:
                    continue
                recording = recordings[record.recording_index]
                azimuth_errors.append(
                    abs(
                        azimuth_difference(
                            estimate.azimuth_deg, recording.azimuth_deg
                        )
                    )
                )
            series.probe_counts.append(int(n_probes))
            series.mean_az_error.append(float(np.mean(azimuth_errors)))
            series.median_az_error.append(float(np.median(azimuth_errors)))
            series.trials.append(len(azimuth_errors))
        all_series.append(series)
    return all_series


@register_scenario("fig7_probe_design", default_spec=probe_design_spec)
def _run_probe_design_scenario(
    spec: ScenarioSpec, runner: ScenarioRunner
) -> ProbeDesignResult:
    """Probe-design search: every designer × M × environment, ranked."""
    config = _config_from_spec(spec)
    testbed = spec.testbed.build()
    rng = np.random.default_rng(config.seed)

    lab_azimuths = np.arange(-60.0, 60.0 + 1e-9, config.lab_azimuth_step_deg)
    lab_elevations = np.arange(
        0.0, config.lab_max_elevation_deg + 1e-9, config.lab_elevation_step_deg
    )
    lab_recordings = record_directions(
        testbed, lab_environment(3.0), lab_azimuths, lab_elevations, config.n_sweeps, rng
    )
    lab_series = _evaluate_designers(
        runner, spec, testbed, lab_recordings, config, rng, "lab"
    )

    conference_azimuths = np.arange(
        -60.0, 60.0 + 1e-9, config.conference_azimuth_step_deg
    )
    conference_recordings = record_directions(
        testbed, conference_room(6.0), conference_azimuths, [0.0], config.n_sweeps, rng
    )
    conference_series = _evaluate_designers(
        runner, spec, testbed, conference_recordings, config, rng, "conference-room"
    )
    return ProbeDesignResult(lab=lab_series, conference=conference_series)


def run_probe_design(
    config: ProbeDesignConfig = ProbeDesignConfig(), jobs: int = 1
) -> ProbeDesignResult:
    """Run the full probe-design search (both environments)."""
    with ScenarioRunner(jobs=jobs) as runner:
        return runner.run(probe_design_spec(config)).result
