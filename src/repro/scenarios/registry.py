"""Scenario registry: named, seeded, parameterized worlds behind one API.

A *scenario* couples a procedural scene factory with the sequence and sensor
defaults that make it a realistic workload: a highway is long, fast and
sparse; a parking lot is short, slow and dense; a noise variant reuses an
existing world but degrades the sensor.  Every scenario is registered under a
unique name so workloads, benchmarks and the CLI can enumerate and build them
uniformly::

    from repro.scenarios import build_sequence, scenario_names

    for name in scenario_names():
        sequence = build_sequence(name, n_frames=4, seed=3)
        ...

Scenario factories take a seed and return a
:class:`~repro.pointcloud.scene.Scene`; everything else (frame count, ego
speed, LiDAR resolution, noise and dropout) lives in the spec's
:class:`ScenarioDefaults` and can be overridden per call, which is what keeps
a single registered world usable at benchmark scale and at test scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..pointcloud.lidar import LidarConfig
from ..pointcloud.scene import Scene, SceneConfig
from ..pointcloud.sequence import DrivingSequence, SequenceConfig

__all__ = [
    "ScenarioDefaults",
    "ScenarioSpec",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "build_scene",
    "build_sequence",
]


@dataclass(frozen=True)
class ScenarioDefaults:
    """Per-scenario sequence and sensor defaults (overridable per call)."""

    seed: int = 7
    n_frames: int = 12
    frame_rate_hz: float = 10.0
    ego_speed_mps: float = 8.0
    n_beams: int = 32
    n_azimuth_steps: int = 360
    range_noise_std: float = 0.02
    dropout_rate: float = 0.02


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered scenario: a seeded scene factory plus its defaults.

    A world sets its scene and its sequence/sensor defaults only; how a
    pipeline runs over it (backend, hardware mode, stage settings) is the
    runner's :class:`~repro.workloads.pipeline.PipelineRunnerConfig`.
    """

    name: str
    description: str
    scene_factory: Callable[[int], Scene]
    defaults: ScenarioDefaults = ScenarioDefaults()
    tags: Tuple[str, ...] = ()

    def scene(self, seed: Optional[int] = None) -> Scene:
        """Build the scenario's world for ``seed`` (default: the spec's)."""
        return self.scene_factory(self.defaults.seed if seed is None else seed)

    def sequence(self, n_frames: Optional[int] = None, seed: Optional[int] = None,
                 n_beams: Optional[int] = None, n_azimuth_steps: Optional[int] = None,
                 ego_speed_mps: Optional[float] = None) -> DrivingSequence:
        """Build a :class:`DrivingSequence` playing this scenario.

        All parameters default to the spec's :class:`ScenarioDefaults`; the
        LiDAR seed is derived from the scene seed so two sequences with the
        same arguments are bitwise identical.
        """
        d = self.defaults
        seed = d.seed if seed is None else seed
        scene = self.scene_factory(seed)
        config = SequenceConfig(
            n_frames=d.n_frames if n_frames is None else n_frames,
            frame_rate_hz=d.frame_rate_hz,
            ego_speed_mps=d.ego_speed_mps if ego_speed_mps is None else ego_speed_mps,
            scene=SceneConfig(seed=seed),
            lidar=LidarConfig(
                n_beams=d.n_beams if n_beams is None else n_beams,
                n_azimuth_steps=d.n_azimuth_steps if n_azimuth_steps is None
                else n_azimuth_steps,
                range_noise_std=d.range_noise_std,
                dropout_rate=d.dropout_rate,
                seed=seed * 101,
            ),
        )
        return DrivingSequence(config, scene=scene)

    def with_defaults(self, **overrides) -> "ScenarioSpec":
        """A copy of the spec with some :class:`ScenarioDefaults` replaced."""
        return replace(self, defaults=replace(self.defaults, **overrides))


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(name: str, description: str,
                      defaults: Optional[ScenarioDefaults] = None,
                      tags: Tuple[str, ...] = ()) -> Callable:
    """Decorator registering a seeded scene factory as a scenario.

    ::

        @register_scenario("tunnel", "two-lane road tunnel", tags=("indoor",))
        def make_tunnel_scene(seed: int) -> Scene:
            ...
    """

    def decorator(factory: Callable[[int], Scene]) -> Callable[[int], Scene]:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = ScenarioSpec(
            name=name,
            description=description,
            scene_factory=factory,
            defaults=defaults or ScenarioDefaults(),
            tags=tags,
        )
        return factory

    return decorator


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario; raises ``KeyError`` with the options."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(scenario_names()) or "<none>"
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from None


def scenario_names() -> List[str]:
    """Sorted names of all registered scenarios."""
    return sorted(_REGISTRY)


def all_scenarios() -> List[ScenarioSpec]:
    """All registered specs, sorted by name."""
    return [_REGISTRY[name] for name in scenario_names()]


def build_scene(name: str, seed: Optional[int] = None) -> Scene:
    """Build the named scenario's :class:`Scene`."""
    return get_scenario(name).scene(seed=seed)


def build_sequence(name: str, **overrides) -> DrivingSequence:
    """Build the named scenario's :class:`DrivingSequence` (see ``ScenarioSpec.sequence``)."""
    return get_scenario(name).sequence(**overrides)
