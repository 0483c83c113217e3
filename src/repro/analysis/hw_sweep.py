"""Hardware-in-the-loop scenario sweep: every world through the cache model.

The paper validates its cache/timing/energy claims on one urban point
distribution.  :class:`HardwareScenarioSweep` runs every registered scenario
(:mod:`repro.scenarios`) end-to-end through
:class:`~repro.workloads.PipelineRunner` in hardware-in-the-loop mode
(``hardware=True``), with the baseline and the Bonsai search, and collects
the per-stage trace-driven hardware metrics — miss ratios, bytes moved per
hierarchy level, cycle and energy estimates — into one structured,
deterministic result.

The result answers, in-repo, whether the paper's byte-reduction and
cache-behaviour claims generalize beyond the urban world: dense indoor
aisles, sparse rural fields, degraded sensors.  ``bench_scenario_hw_matrix``
renders it as a table; ``tests/test_golden_hardware.py`` locks the underlying
per-scenario metrics down as golden snapshots.

The sweep runs its (scenario, backend) cells across a **process pool** when
``n_jobs > 1`` (each cell is an independent, seeded, deterministic pipeline
run) and collects the results **by task index**, so the parallel sweep
returns exactly the result the serial loop returns — same runs, same order,
same metrics — whatever order the workers complete in
(``tests/test_parallel_sweep.py`` locks this down).  That is what makes the
8-world matrix and full-resolution sensors affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["HardwareScenarioRun", "HardwareSweepResult", "HardwareScenarioSweep",
           "SweepTask", "run_sweep_task", "SWEEP_BACKENDS", "SWEEP_MODES"]

#: The execution backends every scenario runs under (backend names): the
#: baseline, then the Bonsai search.  A recorded run traces its flavour's
#: per-query walk whatever the strategy, so a hardware sweep compares the
#: two flavours and nothing else.
SWEEP_BACKENDS = ("baseline-batched", "bonsai-batched")

#: The flavours of :data:`SWEEP_BACKENDS`, in the same order: each run's
#: ``mode``, the table rows' labels and the golden-snapshot stems.
SWEEP_MODES = ("baseline", "bonsai")


@dataclass
class HardwareScenarioRun:
    """One scenario under one search configuration."""

    scenario: str
    #: The backend's flavour, one of :data:`SWEEP_MODES`.
    mode: str
    #: The full deterministic metrics dictionary of the run, including the
    #: per-stage ``"hardware"`` section (see ``PipelineRunResult.metrics``).
    metrics: Dict[str, object]
    #: Registered name of the execution backend that served the run.
    backend: str = "baseline-batched"

    @property
    def hardware(self) -> Dict[str, Dict[str, object]]:
        """The per-stage hardware section of the run's metrics."""
        return self.metrics["hardware"]  # type: ignore[return-value]


@dataclass
class HardwareSweepResult:
    """All runs of one sweep plus the sweep's sensor/sequence preset."""

    runs: List[HardwareScenarioRun]
    n_frames: int
    n_beams: int
    n_azimuth_steps: int

    def scenarios(self) -> List[str]:
        """Scenario names covered by the sweep, in run order (deduplicated)."""
        seen: Dict[str, None] = {}
        for run in self.runs:
            seen.setdefault(run.scenario, None)
        return list(seen)

    def pair(self, scenario: str) -> Tuple[HardwareScenarioRun, ...]:
        """One scenario's ``(baseline, bonsai)`` runs, which the renderers
        compare."""
        by_mode = {run.mode: run for run in self.runs if run.scenario == scenario}
        missing = [mode for mode in SWEEP_MODES if mode not in by_mode]
        if missing:
            raise KeyError(f"scenario {scenario!r} missing modes {missing} in sweep")
        return tuple(by_mode[mode] for mode in SWEEP_MODES)

    def as_dict(self) -> Dict[str, object]:
        """The whole sweep as one deterministic, JSON-serialisable mapping."""
        return {
            "preset": {
                "n_frames": self.n_frames,
                "n_beams": self.n_beams,
                "n_azimuth_steps": self.n_azimuth_steps,
            },
            "scenarios": {
                scenario: {mode: run.metrics
                           for mode, run in zip(SWEEP_MODES, self.pair(scenario))}
                for scenario in sorted(self.scenarios())
            },
        }


@dataclass(frozen=True)
class SweepTask:
    """One independent (scenario, backend) cell of a hardware sweep.

    The task is a picklable, self-contained description of one
    hardware-in-the-loop pipeline run — everything a worker process needs.
    ``cache_config`` is the optional :class:`~repro.hwmodel.cpu_config.CPUConfig`
    the recorded machine simulates (``None`` = each stage's default, the
    paper's Table IV geometry).
    """

    scenario: str
    backend: str
    n_frames: int
    seed: Optional[int]
    n_beams: int
    n_azimuth_steps: int
    cache_config: object = None


def run_sweep_task(task: SweepTask) -> HardwareScenarioRun:
    """Execute one sweep cell (in this process or a pool worker).

    A pure function of the task: scenario and seeds drive every generator,
    the cache simulation is trace-exact, and ``metrics()`` excludes
    wall-clock — so the same task returns identical metrics in any process,
    which is what lets the parallel sweep reproduce the serial (and golden)
    results bit for bit.
    """
    from ..engine import ExecutionConfig
    from ..workloads import PipelineRunner, PipelineRunnerConfig

    execution = ExecutionConfig(backend=task.backend, hardware=True,
                                cache_config=task.cache_config)
    runner = PipelineRunner.from_scenario(
        task.scenario,
        config=PipelineRunnerConfig(execution=execution),
        n_frames=task.n_frames, seed=task.seed,
        n_beams=task.n_beams, n_azimuth_steps=task.n_azimuth_steps,
    )
    return HardwareScenarioRun(scenario=task.scenario,
                               mode=execution.flavor,
                               metrics=runner.run().metrics(),
                               backend=task.backend)


class HardwareScenarioSweep:
    """Runs every scenario with the baseline and the Bonsai search
    (:data:`SWEEP_BACKENDS`) in hardware-in-the-loop mode.

    ``scenarios`` defaults to every registered scenario.  The sensor preset
    (``n_frames``/``n_beams``/``n_azimuth_steps``) applies to every run so
    the rows of the resulting matrix are comparable.

    ``n_jobs`` selects how many worker processes run the sweep's cells
    (``None``/``1`` = serial in this process).  The sweep is deterministic
    either way: same scenarios, same preset, same seeds, same result — the
    parallel path collects results by task index, so worker completion
    order never reaches the output.
    """

    def __init__(self, scenarios: Optional[Sequence[str]] = None, *,
                 n_frames: int = 3, seed: Optional[int] = None,
                 n_beams: int = 18, n_azimuth_steps: int = 180,
                 n_jobs: Optional[int] = None):
        from ..scenarios import scenario_names

        self.scenarios = list(scenarios) if scenarios is not None else scenario_names()
        self.n_frames = n_frames
        self.seed = seed
        self.n_beams = n_beams
        self.n_azimuth_steps = n_azimuth_steps
        self.n_jobs = 1 if n_jobs is None else n_jobs

    def tasks(self) -> List[SweepTask]:
        """The sweep's cells in deterministic (scenario-major) order."""
        return [
            SweepTask(scenario=scenario, backend=backend,
                      n_frames=self.n_frames, seed=self.seed,
                      n_beams=self.n_beams,
                      n_azimuth_steps=self.n_azimuth_steps)
            for scenario in self.scenarios
            for backend in SWEEP_BACKENDS
        ]

    def run(self) -> HardwareSweepResult:
        """Execute the sweep (serial or pooled) and return the result."""
        from ..engine.parallel import process_map

        runs = process_map(run_sweep_task, self.tasks(), n_jobs=self.n_jobs)
        return HardwareSweepResult(
            runs=runs, n_frames=self.n_frames,
            n_beams=self.n_beams, n_azimuth_steps=self.n_azimuth_steps)
