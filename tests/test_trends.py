"""Trend-tracking lockdown: schema round trips, store merges, dashboard bytes.

The trends layer's contract is the repository's general one — byte
determinism — applied to its own observability data: records round-trip
through JSON exactly, the store's files depend only on the record *set*
(never append order), and two dashboard renders of the same store are
byte-identical.  The collect adapters are covered against hand-built result
objects (nothing is re-run), and the self-lint test keeps the one
environment-read exemption justified.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cache_sweep import GEOMETRIES, CacheSweepResult, GeometryRun
from repro.analysis.hw_sweep import HardwareScenarioRun, HardwareSweepResult
from repro.trends import (KNOWN_FAMILIES, TrendContext, TrendRecord,
                          TrendSchemaError, TrendStore, TrendStoreError,
                          collect_cache_sweep, collect_campaign_manifest,
                          collect_golden_snapshots, collect_hw_sweep,
                          collect_pipeline_run, flatten_metrics,
                          maybe_record, render_dashboard, trend_context)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _record(**overrides) -> TrendRecord:
    fields = dict(family="scenario-hw", commit="baseline", run_id="baseline",
                  key={"scenario": "urban", "backend": "bonsai-batched"},
                  metrics={"cycles": 123.5, "bytes_loaded": 4096})
    fields.update(overrides)
    return TrendRecord(**fields)


class TestTrendRecordSchema:
    def test_json_round_trip_is_exact(self):
        record = _record(metrics={
            "a": 0.1, "b": 1 / 3, "c": 2.5e-17, "d": 12345678901234567,
            "e": -0.0, "f": 1e300})
        again = TrendRecord.from_json(record.to_json())
        assert again == record
        # ints stay ints, floats stay floats, bit for bit
        assert isinstance(again.metrics["d"], int)
        assert again.to_json() == record.to_json()

    def test_key_and_metric_order_is_canonicalized(self):
        one = _record(key={"scenario": "urban", "backend": "bonsai-batched"},
                      metrics={"cycles": 1.0, "bytes_loaded": 2})
        other = _record(key={"backend": "bonsai-batched", "scenario": "urban"},
                        metrics={"bytes_loaded": 2, "cycles": 1.0})
        assert one == other
        assert one.to_json() == other.to_json()
        assert list(one.metrics) == ["bytes_loaded", "cycles"]

    @pytest.mark.parametrize("overrides", [
        dict(family="Has Spaces"),
        dict(family=""),
        dict(commit=""),
        dict(run_id=""),
        dict(order="3"),
        dict(key={"scenario": 7}),
        dict(key={"": "x"}),
        dict(metrics={"cycles": float("nan")}),
        dict(metrics={"cycles": float("inf")}),
        dict(metrics={"flag": True}),
        dict(metrics={"name": "urban"}),
    ], ids=["family-case", "family-empty", "commit-empty", "runid-empty",
            "order-str", "key-nonstr", "key-empty-name", "metric-nan",
            "metric-inf", "metric-bool", "metric-str"])
    def test_invalid_records_are_rejected(self, overrides):
        with pytest.raises(TrendSchemaError):
            _record(**overrides)

    def test_unknown_fields_are_rejected(self):
        data = _record().as_dict()
        data["wallclock"] = 1.0
        with pytest.raises(TrendSchemaError, match="wallclock"):
            TrendRecord.from_dict(data)

    @pytest.mark.parametrize("version", [1.0, True, "1"])
    def test_non_int_schema_version_is_rejected(self, version):
        data = _record().as_dict()
        data["schema_version"] = version
        with pytest.raises(TrendSchemaError, match="must be an int"):
            TrendRecord.from_dict(data)

    def test_newer_schema_version_is_rejected(self):
        data = _record().as_dict()
        data["schema_version"] = 99
        with pytest.raises(TrendSchemaError, match="update the repro"):
            TrendRecord.from_dict(data)

    def test_old_version_without_hook_is_rejected(self):
        data = _record().as_dict()
        data["schema_version"] = 0
        with pytest.raises(TrendSchemaError,
                           match="schema version 0, this tree reads schema version 1"):
            TrendRecord.from_dict(data)


class TestTrendStore:
    def test_append_is_order_invariant_and_idempotent(self, tmp_path):
        records = [_record(commit=c, run_id=c, order=i, metrics={"v": i})
                   for i, c in enumerate(["c1", "c2", "c3"])]
        forward = TrendStore(tmp_path / "fwd")
        for record in records:
            forward.append([record])
        backward = TrendStore(tmp_path / "bwd")
        backward.append(list(reversed(records)))
        backward.append(records)  # replay is a no-op
        fwd_bytes = forward.family_path("scenario-hw").read_bytes()
        assert fwd_bytes == backward.family_path("scenario-hw").read_bytes()
        assert forward.load("scenario-hw") == backward.load("scenario-hw")

    def test_runs_and_latest_commit(self, tmp_path):
        store = TrendStore(tmp_path)
        store.append([_record(commit="new", run_id="r", order=5),
                      _record(commit="old", run_id="r", order=1),
                      _record(family="map-scale", commit="old", run_id="r",
                              order=1, key={"geometry": "table-iv"})])
        assert store.runs() == [(1, "old", "r"), (5, "new", "r")]
        assert store.latest_commit() == "new"
        assert store.families() == ["map-scale", "scenario-hw"]
        assert [r.commit for r in store.records_of_commit("old")] == ["old"] * 2

    def test_missing_directory_is_actionable(self, tmp_path):
        with pytest.raises(TrendStoreError, match="REPRO_TRENDS_DIR"):
            TrendStore(tmp_path / "nowhere").families()

    def test_unknown_family_lists_available(self, tmp_path):
        store = TrendStore(tmp_path)
        store.append([_record()])
        with pytest.raises(TrendStoreError, match="scenario-hw"):
            store.load("no-such-family")

    def test_malformed_line_reports_file_and_lineno(self, tmp_path):
        store = TrendStore(tmp_path)
        store.append([_record()])
        path = store.family_path("scenario-hw")
        path.write_text(path.read_text() + "{not json\n", encoding="utf-8")
        with pytest.raises(TrendStoreError, match=r"scenario-hw\.jsonl:2"):
            store.load("scenario-hw")

    def test_misfiled_record_is_rejected(self, tmp_path):
        store = TrendStore(tmp_path)
        store.append([_record()])
        misfiled = store.family_path("map-scale")
        misfiled.write_text(_record().to_json() + "\n", encoding="utf-8")
        with pytest.raises(TrendStoreError, match="move it to"):
            store.load("map-scale")


def _fake_hw_sweep() -> HardwareSweepResult:
    runs = []
    for scenario in ("urban", "tunnel"):
        for mode, backend in (("baseline", "baseline-batched"),
                              ("bonsai", "bonsai-batched")):
            scale = 1 if mode == "baseline" else 2
            runs.append(HardwareScenarioRun(
                scenario=scenario, mode=mode, backend=backend,
                metrics={
                    "clusters_total": 5,
                    "hardware": {"clustering": {
                        "bytes_loaded": 1000 * scale, "cycles": 50.5 * scale,
                        "l2_to_l1_bytes": 600 * scale,
                        "dram_to_l2_bytes": 300 * scale,
                        "energy_j": 0.25 * scale}},
                    "track_labels": {"car": 2},
                    "notes": "ignored",
                }))
    return HardwareSweepResult(runs=runs, n_frames=2, n_beams=10,
                               n_azimuth_steps=90)


class TestCollectAdapters:
    def test_flatten_metrics_keeps_finite_numeric_leaves_only(self):
        flat = flatten_metrics({
            "hardware": {"clustering": {"cycles": 2.0, "name": "x"}},
            "count": 3, "ok": True, "bad": float("nan"),
            "listy": [1, 2], "nothing": None})
        assert flat == {"hardware.clustering.cycles": 2.0, "count": 3}

    def test_collect_pipeline_run_and_hw_sweep(self):
        sweep = _fake_hw_sweep()
        records = collect_hw_sweep(sweep, commit="c", run_id="r", order=3)
        assert len(records) == 4
        cells = {(r.key["scenario"], r.key["backend"]) for r in records}
        assert sorted(cells) == [
            ("tunnel", "baseline-batched"), ("tunnel", "bonsai-batched"),
            ("urban", "baseline-batched"), ("urban", "bonsai-batched")]
        first = records[0]
        assert first.family == "scenario-hw" and first.order == 3
        assert first.metrics["hardware.clustering.bytes_loaded"] == 1000
        assert "notes" not in first.metrics
        single = collect_pipeline_run(
            sweep.runs[0].metrics, scenario="urban",
            backend="baseline-batched", commit="c", run_id="r")
        assert single.family == "scenario-matrix"
        assert single.metrics["clusters_total"] == 5

    def test_collect_cache_sweep(self):
        sweep = _fake_hw_sweep()
        result = CacheSweepResult(
            runs=[GeometryRun(geometry=GEOMETRIES["table-iv"], sweep=sweep),
                  GeometryRun(geometry=GEOMETRIES["l1-8k"], sweep=sweep)],
            n_frames=2, n_beams=10, n_azimuth_steps=90)
        records = collect_cache_sweep(result, commit="c", run_id="r")
        assert len(records) == 4
        keys = {(r.key["geometry"], r.key["backend"]) for r in records}
        assert ("table-iv", "baseline") in keys and ("l1-8k", "bonsai") in keys
        baseline_tiv = next(r for r in records
                            if r.key == {"geometry": "table-iv",
                                         "backend": "baseline"})
        # summed over the two scenarios of the fake sweep
        assert baseline_tiv.metrics["bytes_loaded"] == 2000

    def test_collect_campaign_manifest(self):
        manifest = {
            "campaign": {"seed": 42, "budget": 3, "backends": ["a", "b"]},
            "n_divergences": 2,
            "trials": [
                {"trial": 0, "world": {"ops": [1, 2]}, "divergences": []},
                {"trial": 1, "world": {"ops": [1]},
                 "divergences": [{"kind": "result"}, {"kind": "stats"}]},
            ],
        }
        (record,) = collect_campaign_manifest(manifest, commit="c", run_id="r")
        assert record.family == "campaign" and record.key == {"seed": "42"}
        assert record.metrics["n_trials"] == 2
        assert record.metrics["n_divergences"] == 2
        assert record.metrics["divergences.result"] == 1
        assert record.metrics["n_ops"] == 3

    def test_collect_golden_snapshots_covers_every_committed_golden(self):
        records = collect_golden_snapshots(GOLDEN_DIR, commit="c", run_id="r")
        n_goldens = len(list(GOLDEN_DIR.glob("*.json")))
        assert n_goldens and len(records) == n_goldens
        families = sorted({r.family for r in records})
        assert families == ["golden-hardware", "golden-pipeline"]
        assert all(set(r.key) == {"scenario", "mode"} for r in records)
        # every record holds at least one numeric metric from the snapshot
        assert all(r.metrics for r in records)

    def test_known_families_covers_every_collector_output(self):
        assert "scenario-hw" in KNOWN_FAMILIES
        assert len(KNOWN_FAMILIES) == len(sorted(KNOWN_FAMILIES))


class TestBenchmarkWiring:
    def test_trend_context_is_off_without_the_knob(self):
        assert trend_context(environ={}) is None
        assert maybe_record(lambda ctx: [_record()], environ={}) is None

    def test_trend_context_reads_the_documented_knobs(self, tmp_path):
        context = trend_context(environ={
            "REPRO_TRENDS_DIR": str(tmp_path), "REPRO_TRENDS_COMMIT": "abc",
            "REPRO_TRENDS_RUN_ID": "run-7", "REPRO_TRENDS_ORDER": "7"})
        assert context == TrendContext(root=tmp_path, commit="abc",
                                       run_id="run-7", order=7)
        defaulted = trend_context(environ={"REPRO_TRENDS_DIR": str(tmp_path)})
        assert (defaulted.commit, defaulted.run_id, defaulted.order) == \
            ("local", "local", 0)
        with pytest.raises(ValueError, match="REPRO_TRENDS_ORDER"):
            trend_context(environ={"REPRO_TRENDS_DIR": str(tmp_path),
                                   "REPRO_TRENDS_ORDER": "soon"})

    def test_maybe_record_writes_through_the_context(self, tmp_path):
        touched = maybe_record(
            lambda ctx: [_record(commit=ctx.commit, run_id=ctx.run_id,
                                 order=ctx.order)],
            environ={"REPRO_TRENDS_DIR": str(tmp_path),
                     "REPRO_TRENDS_COMMIT": "abc"})
        assert touched == [tmp_path / "scenario-hw.jsonl"]
        (record,) = TrendStore(tmp_path).load("scenario-hw")
        assert (record.commit, record.run_id) == ("abc", "abc")


class TestDashboardDeterminism:
    @pytest.fixture()
    def store(self, tmp_path):
        store = TrendStore(tmp_path)
        records = []
        for order, commit in enumerate(["baseline", "head"]):
            scale = 1.0 if commit == "baseline" else 1.2
            records.extend([
                _record(commit=commit, run_id=commit, order=order,
                        metrics={"cycles": 100.0 * scale,
                                 "bytes_loaded": 4096}),
                TrendRecord(family="campaign", commit=commit, run_id=commit,
                            order=order, key={"seed": "0"},
                            metrics={"n_trials": 25, "n_divergences": 0}),
            ])
        store.append(records)
        return store

    def test_two_renders_are_byte_identical(self, store):
        one = render_dashboard(store).encode("utf-8")
        two = render_dashboard(store).encode("utf-8")
        assert one == two

    def test_regressions_are_highlighted(self, store):
        page = render_dashboard(store)
        assert 'class="regress"' in page
        assert "cycles" in page and "svg" in page
        assert "1 flagged metric(s)" in page

    def test_campaign_family_gets_the_divergence_table(self, store):
        page = render_dashboard(store)
        assert "Campaign divergences by seed" in page

    def test_single_run_skips_the_regression_pass(self, tmp_path):
        store = TrendStore(tmp_path)
        store.append([_record()])
        page = render_dashboard(store)
        assert "Regression pass: skipped" in page
        assert 'class="regress"' not in page

    def test_empty_store_is_an_actionable_error(self, tmp_path):
        with pytest.raises(TrendStoreError, match="record some runs"):
            render_dashboard(TrendStore(tmp_path / "missing"))

    def test_dashboard_escapes_untrusted_text(self, tmp_path):
        store = TrendStore(tmp_path)
        store.append([_record(commit="<script>x</script>",
                              key={"scenario": "<img>"})])
        page = render_dashboard(store)
        assert "<script>" not in page and "<img>" not in page


class TestTrendsSelfLint:
    def test_trends_package_is_lint_clean(self):
        from repro.lint import run_lint

        src = Path(__file__).resolve().parent.parent / "src" / "repro" / "trends"
        report = run_lint([src])
        assert report.ok, [f.describe() for f in report.findings]

    def test_env_read_exemption_is_justified(self):
        from repro.lint.rules_determinism import ENV_READ_ALLOWED

        reason = ENV_READ_ALLOWED.get("repro/trends/collect.py")
        assert reason and "REPRO_TRENDS_DIR" in reason
        # the knob module is the only trends module reading the environment
        trends = Path(__file__).resolve().parent.parent / "src/repro/trends"
        for path in sorted(trends.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            if path.name != "collect.py":
                assert "os.environ" not in text, path.name


def test_committed_baseline_store_loads_and_is_canonical():
    """The committed benchmarks/trends/ store must parse, carry the baseline
    commit, and already be in canonical byte form (re-append is a no-op)."""
    root = Path(__file__).resolve().parent.parent / "benchmarks" / "trends"
    store = TrendStore(root)
    families = store.families()
    assert "scenario-hw" in families and "map-scale" in families
    for family in families:
        records = store.load(family)
        assert records, family
        assert {r.commit for r in records} == {"baseline"}
        path = store.family_path(family)
        canonical = "".join(
            r.to_json() + "\n"
            for r in sorted(records, key=lambda r: r.sort_key()))
        assert path.read_text(encoding="utf-8") == canonical, family
