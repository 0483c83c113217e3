"""Differential-testing campaign engine.

Random sampling of worlds, pairwise diffing of every registered execution
backend (plus the recorded hardware backends), and automatic shrinking of
any divergence to a minimal pytest-ready reproducer — the parity suite as a
discovery tool rather than a fixed gate.

The three moving parts:

:mod:`repro.campaign.worlds`
    ``random_world(seed)``: seed-deterministic sampling of scenario,
    obstacle density, sensor degradation and query mixes into a JSON-able
    :class:`~repro.campaign.worlds.WorldSpec`.
:mod:`repro.campaign.driver`
    ``run_campaign(CampaignConfig(...))``: fires each world at every
    backend, diffs results/statistics/hardware metrics pairwise and writes
    the campaign's JSON manifest and divergence reports.
:mod:`repro.campaign.shrink`
    ddmin-style reduction of a diverging world (fewer obstacles, points,
    queries) and emission of the minimal case as a pytest regression.

CLI: ``python -m repro campaign --budget 25 --seed 0`` (exit code 1 when
any divergence was found).
"""

from .diff import Divergence
from .driver import CampaignConfig, CampaignResult, run_campaign
from .shrink import ShrunkCase, emit_regression, shrink_divergence
from .worlds import QueryOp, WorldSpec, random_world

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "Divergence",
    "QueryOp",
    "ShrunkCase",
    "WorldSpec",
    "emit_regression",
    "random_world",
    "run_campaign",
    "shrink_divergence",
]
