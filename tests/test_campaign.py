"""Tests of the differential-testing campaign engine.

Three layers: the randomized-world factory (determinism, JSON roundtrip,
scenario restriction), a bounded-budget smoke campaign over every registered
backend (must be clean and bitwise-deterministic), and the full
divergence-hunting path — a deliberately broken backend added to the
backend table for the test only, or a broken per-query walk behind each
flavour's recorded backend, must be caught, shrunk to a minimal case, and
emitted as a runnable pytest reproducer that actually fails.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaign import (
    CampaignConfig,
    WorldSpec,
    random_world,
    run_campaign,
)
from repro.core.bonsai_search import BonsaiLeafInspector
from repro.engine.backends import BACKENDS, BaselineBatchedBackend
from repro.kdtree import Float32LeafInspector
from repro.runtime.batch import BatchRadiusResult
from repro.scenarios import scenario_names


class TestRandomWorld:
    def test_same_seed_same_world(self):
        assert random_world(7) == random_world(7)

    def test_seeds_vary_the_world(self):
        worlds = {random_world(seed) for seed in range(8)}
        assert len(worlds) > 1

    def test_json_roundtrip(self):
        world = random_world(3)
        payload = json.loads(json.dumps(world.as_dict()))
        assert WorldSpec.from_dict(payload) == world

    def test_scenario_restriction(self):
        for seed in range(4):
            assert random_world(seed, scenarios=["urban"]).scenario == "urban"

    def test_scenarios_come_from_the_registry(self):
        names = set(scenario_names())
        assert all(random_world(seed).scenario in names for seed in range(12))

    def test_pipeline_ops_can_be_disabled(self):
        for seed in range(20):
            world = random_world(seed, pipeline_ops=False)
            assert all(op.kind != "pipeline" for op in world.ops)

    def test_cloud_is_deterministic_and_nonempty(self):
        world = random_world(11)
        a, b = world.build_cloud(), world.build_cloud()
        assert len(a) > 0
        assert np.array_equal(a.points, b.points)

    def test_op_queries_are_deterministic(self):
        world = random_world(5, pipeline_ops=False)
        cloud = world.build_cloud()
        for op_index in range(len(world.ops)):
            first = world.op_queries(op_index, cloud)
            assert first.shape[1] == 3 and first.dtype == np.float64
            assert np.array_equal(first, world.op_queries(op_index, cloud))


class TestSmokeCampaign:
    """Bounded-budget clean campaign: the tier-1 wiring of the engine."""

    def test_smoke_campaign_is_clean_and_writes_manifest(self, tmp_path):
        config = CampaignConfig(budget=2, seed=0, out_dir=tmp_path / "a")
        result = run_campaign(config)
        assert result.n_divergences == 0
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["n_divergences"] == 0
        assert manifest["campaign"]["seed"] == 0
        assert len(manifest["trials"]) == 2
        assert manifest["campaign"]["reference"] == "baseline-batched"
        # Every trial records its full world spec for replay.
        for trial in manifest["trials"]:
            world = WorldSpec.from_dict(trial["world"])
            assert world.seed == trial["world"]["seed"]

    def test_campaign_is_bitwise_deterministic(self, tmp_path):
        config_a = CampaignConfig(budget=2, seed=4, out_dir=tmp_path / "a")
        config_b = CampaignConfig(budget=2, seed=4, out_dir=tmp_path / "b")
        manifest_a = run_campaign(config_a).manifest_path.read_bytes()
        manifest_b = run_campaign(config_b).manifest_path.read_bytes()
        assert manifest_a == manifest_b

    def test_unknown_backend_rejected_with_listing(self):
        config = CampaignConfig(backends=("warp-drive",))
        with pytest.raises(KeyError, match="baseline-batched"):
            config.resolved_backends()


class _BrokenBatchedBackend(BaselineBatchedBackend):
    """baseline-batched clone that silently drops the last radius hit."""

    name = "broken-batched"

    def radius_search(self, queries, radius):
        result = super().radius_search(queries, radius)
        n = result.point_indices.shape[0]
        if n == 0:
            return result
        return BatchRadiusResult(offsets=np.minimum(result.offsets, n - 1),
                                 point_indices=result.point_indices[:n - 1])


@pytest.fixture()
def broken_backend(monkeypatch):
    monkeypatch.setitem(BACKENDS, "broken-batched", _BrokenBatchedBackend)
    return "broken-batched"


class TestBrokenBackendCaught:
    def test_campaign_catches_and_shrinks_the_divergence(self, tmp_path,
                                                         broken_backend):
        config = CampaignConfig(
            budget=3, seed=0, backends=("baseline-batched", broken_backend),
            out_dir=tmp_path, recorded=False, max_shrink_evals=200)
        result = run_campaign(config)
        assert result.n_divergences > 0
        radius_hits = [d for d in result.divergences
                       if d.kind == "radius-hits"]
        assert radius_hits, "dropped radius hit must surface as radius-hits"

        shrunk = [d for d in radius_hits if d.shrunk is not None]
        assert shrunk, "at least one radius divergence must shrink"
        smallest = min(shrunk, key=lambda d: d.shrunk["n_points"])
        # ddmin must get a single dropped hit down to a handful of rows.
        assert smallest.shrunk["n_points"] <= 8
        assert smallest.shrunk["n_queries"] <= 8
        assert smallest.shrunk["evals_used"] <= 200

        # The manifest records the divergence and the reproducer exists.
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["n_divergences"] == result.n_divergences
        reproducer = result.result_dir / smallest.reproducer
        assert reproducer.exists()
        report = result.result_dir / f"divergence-trial{smallest.trial}.json"
        assert report.exists()

    def test_generated_reproducer_actually_fails(self, tmp_path,
                                                 broken_backend):
        config = CampaignConfig(
            budget=3, seed=0, backends=("baseline-batched", broken_backend),
            out_dir=tmp_path, recorded=False)
        result = run_campaign(config)
        shrunk = [d for d in result.divergences
                  if d.kind == "radius-hits" and d.reproducer is not None]
        assert shrunk
        source = (result.result_dir / shrunk[0].reproducer).read_text()
        namespace: dict = {}
        exec(compile(source, shrunk[0].reproducer, "exec"), namespace)
        test_functions = [value for name, value in namespace.items()
                          if name.startswith("test_") and callable(value)]
        assert len(test_functions) == 1
        with pytest.raises(AssertionError):
            test_functions[0]()

    def test_clean_pair_reports_nothing(self, tmp_path):
        config = CampaignConfig(
            budget=2, seed=1,
            backends=("baseline-batched", "bonsai-batched"),
            out_dir=tmp_path, recorded=False)
        result = run_campaign(config)
        assert result.n_divergences == 0
        assert not list(result.result_dir.glob("divergence-*.json"))
        assert not list(result.result_dir.glob("repro_*.py"))


def _drop_the_last_point_of_every_nth_leaf(inspector_class, monkeypatch, n=7):
    """Break ``inspector_class``: the last point of every ``n``-th leaf is
    neither examined nor found, as if the walk skipped it."""
    inspect = inspector_class.inspect

    def broken(self, tree, leaf_id, indices, query, r2, results, stats,
               recorder):
        n_before = len(results)
        inspect(self, tree, leaf_id, indices, query, r2, results, stats,
                recorder)
        if leaf_id % n == 0:
            stats.points_examined -= 1
            if len(results) > n_before and results[-1] == int(indices[-1]):
                results.pop()
                stats.points_in_radius -= 1

    monkeypatch.setattr(inspector_class, "inspect", broken)


class TestBrokenWalkCaught:
    """A broken per-query walk is caught through its flavour's recorded
    backend, and shrunk to a reproducer that builds that backend."""

    @pytest.mark.parametrize("flavour, inspector_class", [
        ("baseline", Float32LeafInspector), ("bonsai", BonsaiLeafInspector)])
    def test_recorded_walk_divergence_is_shrunk(self, tmp_path, monkeypatch,
                                                flavour, inspector_class):
        _drop_the_last_point_of_every_nth_leaf(inspector_class, monkeypatch)
        result = run_campaign(CampaignConfig(budget=4, seed=0, out_dir=tmp_path,
                                             max_shrink_evals=40))
        side = f"recorded({flavour})"
        found = [d for d in result.divergences if d.left == side]
        assert {"radius-hits", "search-stats"} <= {d.kind for d in found}
        assert all(d.left.startswith(side) for d in result.divergences)

        shrunk = [d for d in found if d.reproducer is not None]
        assert shrunk, "a recorded walk's divergence must shrink"
        builds = (f"ExecutionConfig(backend='{flavour}-batched', "
                  f"hardware=True).make_backend(tree")
        for divergence in shrunk:
            source = (result.result_dir / divergence.reproducer).read_text()
            assert builds in source
        namespace: dict = {}
        exec(compile(source, divergence.reproducer, "exec"), namespace)
        test_functions = [value for name, value in namespace.items()
                          if name.startswith("test_") and callable(value)]
        with pytest.raises(AssertionError):
            test_functions[0]()


    def test_each_divergence_keeps_its_own_reproducer(self, tmp_path, monkeypatch):
        """With both walks skipping a point of every third leaf, trial 3 of
        seed 0 diverges on ``radius-hits`` in several ops, and in one op on
        both recorded sides; every record names its own file, which holds
        that record's shrunk case."""
        for inspector_class in (Float32LeafInspector, BonsaiLeafInspector):
            _drop_the_last_point_of_every_nth_leaf(inspector_class, monkeypatch, n=3)
        result = run_campaign(CampaignConfig(budget=4, seed=0, out_dir=tmp_path,
                                             max_shrink_evals=40))
        hits = [d for d in result.divergences
                if d.trial == 3 and d.kind == "radius-hits" and d.reproducer]
        ops_by_side: dict = {}
        for divergence in hits:
            ops_by_side.setdefault(divergence.left, set()).add(divergence.op_index)
        assert len(ops_by_side) == 2
        assert max(len(ops) for ops in ops_by_side.values()) >= 2
        assert set.intersection(*ops_by_side.values())
        assert len({d.reproducer for d in hits}) == len(hits)
        for divergence in hits:
            source = (result.result_dir / divergence.reproducer).read_text()
            shrunk = divergence.shrunk
            assert (f"shrunk to {shrunk['n_points']} points x "
                    f"{shrunk['n_queries']} queries") in source
            assert f"op={divergence.op}" in source
            assert f"LEFT = {divergence.left!r}" in source


class TestServiceOps:
    """The ``service`` op flavor: shared-store attach diffed vs reference.

    Campaign seed 3's first world samples exactly one op — a service op —
    so ``budget=1, seed=3`` isolates the service-routed diff path.
    """

    SERVICE_SEED = 3  # random_world(3 * TRIAL_SEED_STRIDE) -> [service]

    def test_service_world_is_sampled(self):
        from repro.campaign.driver import TRIAL_SEED_STRIDE

        world = random_world(self.SERVICE_SEED * TRIAL_SEED_STRIDE)
        assert [op.kind for op in world.ops] == ["service"]
        assert "service(" in world.ops[0].describe()

    def test_service_ops_are_clean_over_real_backends(self, tmp_path):
        config = CampaignConfig(
            budget=1, seed=self.SERVICE_SEED, out_dir=tmp_path,
            recorded=False)
        result = run_campaign(config)
        assert result.n_divergences == 0
        # The trial record proves the service op actually ran.
        assert any(op["kind"] == "service"
                   for trial in result.trials
                   for op in trial["world"]["ops"])

    def test_broken_backend_caught_through_the_service_route(
            self, tmp_path, broken_backend):
        config = CampaignConfig(
            budget=1, seed=self.SERVICE_SEED,
            backends=("baseline-batched", broken_backend),
            out_dir=tmp_path, recorded=False, max_shrink_evals=200)
        result = run_campaign(config)
        service_hits = [d for d in result.divergences
                        if d.kind == "service-hits"]
        assert service_hits, "dropped hit must surface via the service route"
        divergence = service_hits[0]
        # The left side names the service routing, not a bare backend.
        assert divergence.left == f"service:{broken_backend}"
        assert divergence.right == "baseline-batched"
        # kNN delegates to the real backend, so only radius diverges.
        assert not [d for d in result.divergences if d.kind == "service-knn"]

        # The divergence shrinks to a handful of rows like any other.
        shrunk = [d for d in service_hits if d.shrunk is not None]
        assert shrunk, "service divergence must shrink"
        smallest = min(shrunk, key=lambda d: d.shrunk["n_points"])
        assert smallest.shrunk["n_points"] <= 8
        assert smallest.shrunk["n_queries"] <= 8
        reproducer = result.result_dir / smallest.reproducer
        assert reproducer.exists()
        source = reproducer.read_text()
        assert "SharedCloudStore" in source

    def test_service_reproducer_actually_fails(self, tmp_path,
                                               broken_backend):
        config = CampaignConfig(
            budget=1, seed=self.SERVICE_SEED,
            backends=("baseline-batched", broken_backend),
            out_dir=tmp_path, recorded=False)
        result = run_campaign(config)
        shrunk = [d for d in result.divergences
                  if d.kind == "service-hits" and d.reproducer is not None]
        assert shrunk
        source = (result.result_dir / shrunk[0].reproducer).read_text()
        namespace: dict = {}
        exec(compile(source, shrunk[0].reproducer, "exec"), namespace)
        test_functions = [value for name, value in namespace.items()
                          if name.startswith("test_") and callable(value)]
        assert len(test_functions) == 1
        with pytest.raises(AssertionError):
            test_functions[0]()
