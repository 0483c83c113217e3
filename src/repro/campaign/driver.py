"""Campaign driver: fire randomized worlds at every backend, diff, shrink.

One campaign = ``budget`` seed-derived worlds (:func:`~repro.campaign.worlds
.random_world`), each fired at every selected backend plus — per flavor —
the recorded per-query walk, ``recorded(<flavor>)``
(``ExecutionConfig(backend=..., hardware=True).make_backend``).  Per trial
the driver diffs, pairwise against the reference backend, every other
backend and every recorded walk on:

* every op's results (radius hits / kNN neighbours, bitwise),
* the per-trial aggregated radius ``SearchStats`` (flavor-invariant
  counters) and ``BonsaiStats`` (among the Bonsai backends and the recorded
  Bonsai walk),
* the pipeline ops' functional metric signatures (the backends only),
* service ops: the same query batch routed through a shared-memory
  :class:`~repro.serve.store.SharedCloudStore` attach (every backend over
  the attached tree) against the process-local reference index.

A second, independently built recorded walk per flavor runs the same search
ops, and its hardware trace must equal the first's (the cache model must be
deterministic).

Any divergence becomes a :class:`~repro.campaign.diff.Divergence` record in
the campaign's JSON manifest; radius/kNN/stats divergences are additionally
shrunk (:mod:`repro.campaign.shrink`) to a minimal case and emitted as a
ready-to-paste pytest regression next to the manifest.

The whole campaign is deterministic: same seed + budget + backend list →
bitwise-identical manifest (no timestamps, no wall-clock anywhere).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import ExecutionConfig, PointCloudIndex, backend_names
from ..kdtree.build import build_kdtree
from ..kdtree.radius_search import SearchStats
from .diff import (
    Divergence,
    diff_bonsai_stats,
    diff_hierarchy_stats,
    diff_knn,
    diff_pipeline_signatures,
    diff_radius,
    diff_search_stats,
    pipeline_signature,
)
from .shrink import emit_regression, shrink_divergence, side_execution
from .worlds import QueryOp, WorldSpec, random_world

__all__ = ["CampaignConfig", "CampaignResult", "run_campaign"]

#: Multiplier deriving per-trial world seeds from the campaign seed.
TRIAL_SEED_STRIDE = 100_003


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one differential-testing campaign."""

    #: Number of randomized worlds to sample and test.
    budget: int = 25
    #: Campaign seed; trial ``i`` uses world seed ``seed*STRIDE + i``.
    seed: int = 0
    #: Backends under test (``None``: every registered backend).
    backends: Optional[Sequence[str]] = None
    #: Directory campaign result dirs are created under.
    out_dir: Path = Path("campaign-results")
    #: Restrict sampled worlds to these scenarios (``None``: all registered).
    scenarios: Optional[Sequence[str]] = None
    #: Also run the per-flavor recorded hardware backends and diff them.
    recorded: bool = True
    #: Shrink divergences to minimal pytest reproducers.
    shrink: bool = True
    #: Evaluation budget of each shrink run (tree builds + backend pairs).
    max_shrink_evals: int = 200

    def resolved_backends(self) -> List[str]:
        names = list(self.backends) if self.backends else backend_names()
        for name in names:
            if name not in backend_names():
                known = ", ".join(backend_names())
                raise KeyError(
                    f"unknown backend {name!r}; registered: {known}")
        return names

    def reference_backend(self) -> str:
        """The diff reference: ``baseline-batched`` when selected, else the
        first selected backend."""
        names = self.resolved_backends()
        return "baseline-batched" if "baseline-batched" in names else names[0]


@dataclass
class CampaignResult:
    """Outcome of :func:`run_campaign`."""

    config: CampaignConfig
    result_dir: Path
    trials: List[dict] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def n_divergences(self) -> int:
        return len(self.divergences)

    @property
    def manifest_path(self) -> Path:
        return self.result_dir / "manifest.json"


def _result_divergence_check(kind: str, op: QueryOp, left: str,
                             right: str) -> Callable[[np.ndarray, np.ndarray], bool]:
    """The shrinker predicate: does the pair still diverge on this case?

    Every evaluation builds a fresh tree and fresh backends with fresh
    statistics, so shrink evaluations can never contaminate each other (or
    the campaign's own accumulated counters).
    """

    def diverges(points: np.ndarray, queries: np.ndarray) -> bool:
        if points.shape[0] == 0 or queries.shape[0] == 0:
            return False
        tree = build_kdtree(points)
        left_stats, right_stats = SearchStats(), SearchStats()
        left_backend = side_execution(left).make_backend(tree, stats=left_stats)
        right_backend = side_execution(right).make_backend(tree, stats=right_stats)
        if op.kind == "radius":
            left_result = left_backend.radius_search(queries, op.radius)
            right_result = right_backend.radius_search(queries, op.radius)
            result_detail = diff_radius(left_result, right_result)
        else:
            result_detail = diff_knn(left_backend.knn(queries, op.k),
                                     right_backend.knn(queries, op.k))
        if kind == "search-stats":
            return diff_search_stats(left_stats, right_stats) is not None
        return result_detail is not None

    return diverges


def _service_divergence_check(kind: str, op: QueryOp, left: str,
                              right: str) -> Callable[[np.ndarray, np.ndarray], bool]:
    """Shrinker predicate for ``service-*`` kinds.

    ``left`` is ``"service:<backend>"``: the query runs through a fresh
    shared-store attach on that backend and is diffed against ``right`` on a
    fresh process-local index.
    """
    backend = left.split(":", 1)[1]

    def diverges(points: np.ndarray, queries: np.ndarray) -> bool:
        if points.shape[0] == 0 or queries.shape[0] == 0:
            return False
        from ..serve import SharedCloudStore

        with PointCloudIndex(build_kdtree(points)) as local, \
                SharedCloudStore.create(points) as store, \
                SharedCloudStore.attach(store.name) as client:
            with client.index() as served:
                if kind == "service-hits":
                    detail = diff_radius(
                        served.radius_search(queries, op.radius,
                                             backend=backend),
                        local.radius_search(queries, op.radius,
                                            backend=right))
                else:
                    detail = diff_knn(
                        served.knn(queries, op.k, backend=backend),
                        local.knn(queries, op.k, backend=right))
        return detail is not None

    return diverges


def _run_pipeline_op(world: WorldSpec, op: QueryOp, backend: str) -> dict:
    """One short end-to-end run of the world's scenario through ``backend``."""
    from ..workloads import PipelineRunner, PipelineRunnerConfig

    config = PipelineRunnerConfig(
        execution=ExecutionConfig(backend=backend), localization=False)
    runner = PipelineRunner.from_scenario(
        world.scenario, config=config, n_frames=op.n_frames, seed=world.seed,
        n_beams=world.n_beams, n_azimuth_steps=world.n_azimuth_steps)
    return pipeline_signature(runner.run().metrics())


def _run_trial(
    trial: int, world: WorldSpec, config: CampaignConfig,
    backends: Sequence[str], reference: str,
) -> Tuple[dict, List[Divergence], Dict[str, str]]:
    """Run one world through every backend; return (record, divergences)."""
    divergences: List[Divergence] = []
    cloud = world.build_cloud()
    index = PointCloudIndex(build_kdtree(cloud.points))
    others = [name for name in backends if name != reference]

    search_ops = [(i, op) for i, op in enumerate(world.ops)
                  if op.kind in ("radius", "knn")]
    pipeline_ops = [(i, op) for i, op in enumerate(world.ops)
                    if op.kind == "pipeline"]

    # --- The sides diffed against the reference -------------------------
    # The backends, then each flavor's recorded walk.  The backends are
    # built first, so no recorder sees a Bonsai compression pass and each
    # walk's twin (a second recorder over the same ops) must trace the same.
    sides = {name: index.backend(name) for name in backends}
    twins = {}
    if config.recorded and search_ops:
        for flavor in sorted({name.split("-", 1)[0] for name in backends}):
            side = f"recorded({flavor})"
            execution = side_execution(side)
            sides[side] = execution.make_backend(index.tree)
            twins[side] = execution.make_backend(index.tree)
    lefts = [side for side in sides if side != reference]

    # --- Result diffs, op by op -----------------------------------------
    # Radius ops run first so the aggregated-stats diff below sees radius
    # traffic only: radius traversal counters are flavor- and
    # strategy-invariant (the engine contract), kNN traversal counters are
    # not (per-query and batched kNN prune in different orders).
    radius_ops = [(i, op) for i, op in search_ops if op.kind == "radius"]
    knn_ops = [(i, op) for i, op in search_ops if op.kind == "knn"]
    query_arrays: Dict[int, np.ndarray] = {}
    for op_index, op in search_ops:
        query_arrays[op_index] = world.op_queries(op_index, cloud)
    for op_index, op in radius_ops:
        queries = query_arrays[op_index]
        ref = sides[reference].radius_search(queries, op.radius)
        for side in lefts:
            detail = diff_radius(sides[side].radius_search(queries, op.radius), ref)
            if detail is not None:
                divergences.append(Divergence(
                    trial=trial, kind="radius-hits", left=side,
                    right=reference, op_index=op_index,
                    op=op.describe(), detail=detail))
        for twin in twins.values():
            twin.radius_search(queries, op.radius)

    # --- Aggregated radius statistics (before any kNN traffic) ----------
    if radius_ops:
        ref_stats = sides[reference].stats
        for side in lefts:
            detail = diff_search_stats(sides[side].stats, ref_stats)
            if detail is not None:
                divergences.append(Divergence(
                    trial=trial, kind="search-stats", left=side,
                    right=reference, op_index=-1, op="", detail=detail))
        bonsai = [side for side in sides if sides[side].bonsai_stats is not None]
        for side in bonsai[1:]:
            detail = diff_bonsai_stats(sides[side].bonsai_stats,
                                       sides[bonsai[0]].bonsai_stats)
            if detail is not None:
                divergences.append(Divergence(
                    trial=trial, kind="bonsai-stats", left=side,
                    right=bonsai[0], op_index=-1, op="", detail=detail))

    for op_index, op in knn_ops:
        queries = query_arrays[op_index]
        ref = sides[reference].knn(queries, op.k)
        for side in lefts:
            detail = diff_knn(sides[side].knn(queries, op.k), ref)
            if detail is not None:
                divergences.append(Divergence(
                    trial=trial, kind="knn", left=side, right=reference,
                    op_index=op_index, op=op.describe(), detail=detail))
        for twin in twins.values():
            twin.knn(queries, op.k)

    for side, twin in twins.items():
        detail = diff_hierarchy_stats(sides[side].hierarchy, twin.hierarchy)
        if detail is not None:
            divergences.append(Divergence(
                trial=trial, kind="hardware", left=f"{side}#a",
                right=f"{side}#b", op_index=-1, op="",
                detail=f"cache model nondeterministic: {detail}"))

    # --- Service ops: shared-store attach vs the local reference --------
    # One shared store per op (created from the same cloud), attached the
    # way a client process would; every backend then answers the op's batch
    # over the attached tree and must match the local reference bitwise.
    service_ops = [(i, op) for i, op in enumerate(world.ops)
                   if op.kind == "service"]
    for op_index, op in service_ops:
        from ..serve import SharedCloudStore

        queries = world.op_queries(op_index, cloud)
        query_arrays[op_index] = queries
        ref_radius = index.radius_search(queries, op.radius, backend=reference)
        ref_knn = index.knn(queries, op.k, backend=reference)
        with SharedCloudStore.create(cloud.points) as store, \
                SharedCloudStore.attach(store.name) as client:
            with client.index() as served:
                for name in backends:
                    detail = diff_radius(
                        served.radius_search(queries, op.radius,
                                             backend=name), ref_radius)
                    if detail is not None:
                        divergences.append(Divergence(
                            trial=trial, kind="service-hits",
                            left=f"service:{name}", right=reference,
                            op_index=op_index, op=op.describe(),
                            detail=detail))
                    detail = diff_knn(
                        served.knn(queries, op.k, backend=name), ref_knn)
                    if detail is not None:
                        divergences.append(Divergence(
                            trial=trial, kind="service-knn",
                            left=f"service:{name}", right=reference,
                            op_index=op_index, op=op.describe(),
                            detail=detail))

    # --- Pipeline ops: functional metric signatures ---------------------
    for op_index, op in pipeline_ops:
        ref_signature = _run_pipeline_op(world, op, reference)
        for name in others:
            detail = diff_pipeline_signatures(
                _run_pipeline_op(world, op, name), ref_signature)
            if detail is not None:
                divergences.append(Divergence(
                    trial=trial, kind="pipeline", left=name, right=reference,
                    op_index=op_index, op=op.describe(), detail=detail))

    index.close()

    # --- Shrink result/stats divergences to minimal reproducers ---------
    reproducers: Dict[str, str] = {}
    if config.shrink:
        for divergence in divergences:
            if divergence.kind not in ("radius-hits", "knn", "search-stats",
                                       "service-hits", "service-knn"):
                continue
            op_index = divergence.op_index
            if op_index < 0 and radius_ops:
                # Stats diverged at trial level; shrink against the first
                # radius op (fresh backends re-run just that op).
                op_index = radius_ops[0][0]
            if op_index < 0:
                continue
            op = world.ops[op_index]
            if divergence.kind.startswith("service"):
                check = _service_divergence_check(
                    divergence.kind, op, divergence.left, divergence.right)
            else:
                check = _result_divergence_check(
                    divergence.kind, op, divergence.left, divergence.right)
            case = shrink_divergence(
                world, op_index, cloud.points, query_arrays[op_index],
                check, max_evals=config.max_shrink_evals)
            if case is not None:
                divergence.shrunk = case.sizes()
                # One file per record: a trial can diverge on one kind in
                # several ops, and in one op on several sides.
                side = re.sub(r"\W+", "_", divergence.left).strip("_")
                divergence.reproducer = (
                    f"repro_trial{trial}_op{op_index}_"
                    f"{divergence.kind.replace('-', '_')}_{side}.py")
                reproducers[divergence.reproducer] = emit_regression(
                    case, kind=divergence.kind, left=divergence.left,
                    right=divergence.right, world=world, trial=trial)

    record = {
        "trial": trial,
        "world": world.as_dict(),
        "n_points": int(len(cloud)),
        "divergences": [d.as_dict() for d in divergences],
    }
    return record, divergences, reproducers


def run_campaign(config: CampaignConfig,
                 log: Optional[Callable[[str], None]] = None) -> CampaignResult:
    """Run the campaign and write its structured result directory.

    The result dir is ``out_dir/campaign-seed<seed>/`` and contains
    ``manifest.json`` (seed, backends, every trial's world spec and
    divergence reports) plus one generated pytest reproducer per shrunk
    divergence.  Returns the in-memory :class:`CampaignResult`.
    """
    backends = config.resolved_backends()
    reference = config.reference_backend()
    result_dir = Path(config.out_dir) / f"campaign-seed{config.seed}"
    result_dir.mkdir(parents=True, exist_ok=True)
    result = CampaignResult(config=config, result_dir=result_dir)

    say = log or (lambda message: None)
    for trial in range(config.budget):
        world = random_world(config.seed * TRIAL_SEED_STRIDE + trial,
                             scenarios=config.scenarios)
        record, divergences, reproducers = _run_trial(
            trial, world, config, backends, reference)
        result.trials.append(record)
        result.divergences.extend(divergences)
        if divergences:
            say(f"trial {trial}: {len(divergences)} divergence(s) "
                f"on {world.scenario} (seed {world.seed})")
            _write_divergence_artifacts(result_dir, trial, world,
                                        divergences, reproducers)
        else:
            say(f"trial {trial}: ok ({world.scenario}, "
                f"{record['n_points']} points, {len(world.ops)} op(s))")

    manifest = {
        "campaign": {
            "seed": config.seed,
            "budget": config.budget,
            "backends": list(backends),
            "reference": reference,
            "recorded": config.recorded,
            "scenarios": (list(config.scenarios)
                          if config.scenarios is not None else None),
        },
        "n_divergences": result.n_divergences,
        "trials": result.trials,
    }
    result.manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return result


def _write_divergence_artifacts(result_dir: Path, trial: int,
                                world: WorldSpec,
                                divergences: List[Divergence],
                                reproducers: Dict[str, str]) -> None:
    """Per-trial divergence report plus the shrunk pytest reproducers."""
    report = {
        "trial": trial,
        "world": world.as_dict(),
        "divergences": [d.as_dict() for d in divergences],
    }
    (result_dir / f"divergence-trial{trial}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for filename, source in reproducers.items():
        (result_dir / filename).write_text(source, encoding="utf-8")
