"""Divergence shrinking: bisect a failing world to a minimal reproducer.

When the campaign driver observes two backends disagreeing on a world, the
raw case is typically thousands of points and dozens of queries — far too
big to reason about.  :func:`shrink_divergence` applies delta debugging
(ddmin, Zeller & Hildebrandt) along the world's natural axes, in order of
decreasing granularity:

1. **Obstacles** — rebuild the cloud from scene-obstacle subsets; a
   divergence that survives with three boxes instead of thirty pins the
   geometry.
2. **Points** — drop indexed points directly (the cloud no longer needs to
   be a plausible LiDAR frame once the obstacle stage is done).
3. **Queries** — drop query rows; most divergences reproduce with one.

Every stage keeps the invariant "the reduced case still diverges", checked
by re-running *fresh* backends of the diverging pair, so the result is a
true minimal-ish reproducing case (1-minimal per stage, up to the
evaluation budget).  The shrunk case is emitted as a self-contained,
ready-to-paste pytest regression embedding the exact arrays
(:func:`emit_regression`) — float32 points and float64 queries round-trip
exactly through ``repr``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..engine import ExecutionConfig
from .worlds import QueryOp, WorldSpec

__all__ = ["ShrinkBudget", "ShrunkCase", "shrink_divergence", "emit_regression"]


def side_execution(side: str) -> ExecutionConfig:
    """The mode of a divergence side: a registered backend name, or
    ``recorded(<flavor>)``, that flavor's recorded per-query walk."""
    if side.startswith("recorded("):
        flavor = side[len("recorded("):-1]
        return ExecutionConfig(backend=f"{flavor}-batched", hardware=True)
    return ExecutionConfig(backend=side)


class ShrinkBudget:
    """Mutable evaluation budget shared across shrink stages.

    One unit is one predicate evaluation (tree build + paired backend run).
    """

    def __init__(self, max_evals: int = 200):
        self.max_evals = max_evals
        self.used = 0

    @property
    def remaining(self) -> int:
        return max(0, self.max_evals - self.used)

    def spend(self) -> bool:
        """Consume one evaluation; ``False`` when the budget is exhausted."""
        if self.used >= self.max_evals:
            return False
        self.used += 1
        return True


class ShrunkCase:
    """The minimal reproducing case a shrink run converged to."""

    def __init__(self, points: np.ndarray, queries: np.ndarray, op: QueryOp,
                 evals_used: int):
        self.points = points
        self.queries = queries
        self.op = op
        self.evals_used = evals_used

    def sizes(self) -> dict:
        """JSON-friendly size summary (stored on the divergence record)."""
        return {"n_points": int(self.points.shape[0]),
                "n_queries": int(self.queries.shape[0]),
                "evals_used": int(self.evals_used)}


def _ddmin(n: int, fails: Callable[[np.ndarray], bool],
           budget: ShrinkBudget) -> List[int]:
    """Classic ddmin over index subsets of ``range(n)``.

    ``fails(indices)`` must be ``True`` for ``arange(n)`` (the caller
    verified the full case diverges).  Returns a 1-minimal (up to budget)
    index subset on which ``fails`` still holds.
    """
    current = list(range(n))
    granularity = 2
    while len(current) >= 2 and budget.remaining > 0:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current) and budget.remaining > 0:
            candidate = current[:start] + current[start + chunk:]
            if candidate and budget.spend() and fails(np.asarray(candidate)):
                current = candidate
                granularity = max(2, granularity - 1)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


def shrink_divergence(
    world: WorldSpec,
    op_index: int,
    points: np.ndarray,
    queries: np.ndarray,
    diverges: Callable[[np.ndarray, np.ndarray], bool],
    max_evals: int = 200,
) -> Optional[ShrunkCase]:
    """Reduce ``(points, queries)`` to a minimal case on which the pair of
    backends still diverges.

    ``diverges(points, queries)`` re-runs fresh backends and reports whether
    the divergence persists; it must be ``True`` on the input case (the
    driver only calls the shrinker for observed divergences — if the
    divergence turns out not to reproduce on fresh backends, ``None`` is
    returned and the raw case is reported unshrunk).
    """
    op = world.ops[op_index]
    budget = ShrinkBudget(max_evals)
    if not budget.spend() or not diverges(points, queries):
        return None

    # Stage 1: obstacles.  Rebuild the cloud from scene-obstacle subsets and
    # re-derive the op's queries; accept a subset only if it still diverges.
    scene = world.build_scene()
    if len(scene.obstacles) > 1:
        from ..pointcloud.scene import Scene

        def cloud_of(obstacle_indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            subset = Scene([scene.obstacles[i] for i in obstacle_indices],
                           ground_z=scene.ground_z, extent=scene.extent,
                           path_length=scene.path_length)
            cloud = world.build_cloud(subset)
            return cloud.points, world.op_queries(op_index, cloud)

        def obstacle_fails(obstacle_indices: np.ndarray) -> bool:
            sub_points, sub_queries = cloud_of(obstacle_indices)
            return diverges(sub_points, sub_queries)

        kept = _ddmin(len(scene.obstacles), obstacle_fails, budget)
        if len(kept) < len(scene.obstacles):
            points, queries = cloud_of(np.asarray(kept))

    # Stage 2: points (raw rows; the case need not stay a LiDAR frame).
    if points.shape[0] > 1:
        def point_fails(point_indices: np.ndarray) -> bool:
            return diverges(points[point_indices], queries)

        kept = _ddmin(points.shape[0], point_fails, budget)
        points = points[np.asarray(kept)]

    # Stage 3: queries.
    if queries.shape[0] > 1:
        def query_fails(query_indices: np.ndarray) -> bool:
            return diverges(points, queries[query_indices])

        kept = _ddmin(queries.shape[0], query_fails, budget)
        queries = queries[np.asarray(kept)]

    return ShrunkCase(points, queries, op, budget.used)


# ----------------------------------------------------------------------
# Reproducer emission
# ----------------------------------------------------------------------
def _array_literal(array: np.ndarray, dtype: str) -> str:
    """An exact-round-trip ``np.array([...], dtype=...)`` source literal.

    ``tolist()`` yields Python floats that are exactly the array's values
    (float32 widens losslessly to float64), and ``repr`` of a Python float
    round-trips exactly, so re-parsing reproduces the array bitwise.
    """
    rows = ",\n    ".join(
        "[" + ", ".join(repr(float(v)) for v in row) + "]"
        for row in array.tolist())
    return f"np.array([\n    {rows},\n], dtype=np.{dtype})"


def _left_backend(left: str, stats: str = "") -> str:
    """Source building the backend the divergence side ``left`` names."""
    if left.startswith("recorded("):
        return (f"ExecutionConfig(backend={side_execution(left).backend!r}, "
                f"hardware=True).make_backend(tree{stats})")
    return f"get_backend(LEFT, tree{stats})"


def _assertion_block(kind: str, op: QueryOp, left: str) -> str:
    """The pytest assertion body for a divergence ``kind`` of side ``left``."""
    if kind in ("service-hits", "service-knn"):
        # LEFT is "service:<backend>": replay the query through a fresh
        # shared-store attach on that backend vs RIGHT on the local tree.
        if kind == "service-hits":
            call = f"radius_search(QUERIES, {op.radius!r})"
            checks = (
                "    assert np.array_equal(left.offsets, right.offsets)\n"
                "    assert np.array_equal(left.point_indices, "
                "right.point_indices)")
        else:
            call = f"knn(QUERIES, {op.k})"
            checks = (
                "    assert np.array_equal(left.indices, right.indices)\n"
                "    assert np.array_equal(left.distances, right.distances, "
                "equal_nan=True)")
        return f"""\
    backend = LEFT.split(":", 1)[1]
    with SharedCloudStore.create(POINTS) as store, \\
            SharedCloudStore.attach(store.name) as client:
        with client.index() as served:
            left = served.backend(backend).{call}
    right = get_backend(RIGHT, tree).{call}
{checks}"""
    if op.kind == "radius":
        call = f"radius_search(QUERIES, {op.radius!r})"
    else:
        call = f"knn(QUERIES, {op.k})"
    if kind == "search-stats":
        return f"""\
    left_stats, right_stats = SearchStats(), SearchStats()
    {_left_backend(left, ", stats=left_stats")}.{call}
    get_backend(RIGHT, tree, stats=right_stats).{call}
    for counter in ("queries", "leaves_visited", "interior_visited",
                    "points_examined", "points_in_radius"):
        assert getattr(left_stats, counter) == getattr(right_stats, counter), counter
    assert left_stats.leaf_visit_counts == right_stats.leaf_visit_counts"""
    if op.kind == "radius":
        return f"""\
    left = {_left_backend(left)}.{call}
    right = get_backend(RIGHT, tree).{call}
    assert np.array_equal(left.offsets, right.offsets)
    assert np.array_equal(left.point_indices, right.point_indices)"""
    return f"""\
    left = {_left_backend(left)}.{call}
    right = get_backend(RIGHT, tree).{call}
    assert np.array_equal(left.indices, right.indices)
    assert np.array_equal(left.distances, right.distances, equal_nan=True)"""


def emit_regression(case: ShrunkCase, *, kind: str, left: str, right: str,
                    world: WorldSpec, trial: int) -> str:
    """Render the shrunk case as a self-contained pytest regression.

    The generated module imports only public ``repro`` API, embeds the
    minimal arrays verbatim and asserts the exact invariant that was
    violated — paste it into ``tests/`` (or run it standalone with pytest)
    and it fails until the divergence is fixed.
    """
    test_name = f"test_campaign_trial{trial}_{kind.replace('-', '_')}"
    needs_stats = kind == "search-stats"
    stats_import = ("\nfrom repro.kdtree import SearchStats, build_kdtree"
                    if needs_stats else "\nfrom repro.kdtree import build_kdtree")
    if kind.startswith("service"):
        stats_import += "\nfrom repro.serve import SharedCloudStore"
    engine_import = ("ExecutionConfig, get_backend"
                     if left.startswith("recorded(") else "get_backend")
    return f'''"""Auto-generated by `repro campaign` — minimal divergence reproducer.

campaign trial {trial}: {left!r} vs {right!r} diverged on {kind!r}
world: scenario={world.scenario!r} seed={world.seed} op={case.op.describe()}
shrunk to {case.points.shape[0]} points x {case.queries.shape[0]} queries
({case.evals_used} shrink evaluations)
"""

import numpy as np

from repro.engine import {engine_import}{stats_import}

LEFT = {left!r}
RIGHT = {right!r}

POINTS = {_array_literal(case.points, "float32")}

QUERIES = {_array_literal(case.queries, "float64")}


def {test_name}():
    tree = build_kdtree(POINTS)
{_assertion_block(kind, case.op, left)}
'''
