"""Tests of the project-native static analyzer (:mod:`repro.lint`).

Four layers:

* **Rule fixtures** — every registered rule has a ``<rule>_bad.py`` /
  ``<rule>_ok.py`` pair under ``tests/lint_fixtures/``; the bad one must
  trip exactly that rule, the clean one must not.  Fixtures are copied to a
  neutral directory first so they lint under the strict ``src`` path kind
  (in place, the ``tests`` path part would relax the src-only rules).
* **Suppression and baseline semantics** — inline ``disable=`` /
  ``disable-file=`` comments move findings to the visible ``suppressed``
  list; a baseline grandfathers old findings count-aware, so a *second*
  instance of a baselined finding still fails.
* **Self-lint** — the tier-1 gate: ``repro lint`` over the real tree is
  clean, and two runs render byte-identical reports.
* **Run-identity of campaign/serve artifacts** — the determinism facts the
  lint allowlists encode (seed-derived campaign dirs, uniqueness-only store
  names) hold at runtime.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    Finding,
    LintReport,
    all_rules,
    get_rule,
    lint_file,
    load_baseline,
    register_rule,
    render_json,
    render_text,
    rule_names,
    run_lint,
    write_baseline,
)
from repro.lint.registry import Rule, _REGISTRY
from repro.lint.rules_determinism import (
    ENV_READ_ALLOWED,
    NONDETERMINISM_ALLOWED,
    WALLCLOCK_ALLOWED,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def _lint_fixture(tmp_path: Path, fixture: str, rule: str):
    """Copy a fixture to neutral ground and lint it with one rule."""
    target = tmp_path / f"{fixture}.py"
    shutil.copy(FIXTURES / f"{fixture}.py", target)
    return lint_file(target, rules=all_rules([rule]))


# ----------------------------------------------------------------------
# Rule fixtures
# ----------------------------------------------------------------------
class TestRuleFixtures:
    def test_every_rule_has_a_fixture_pair(self):
        for rule in rule_names():
            stem = rule.replace("-", "_")
            assert (FIXTURES / f"{stem}_bad.py").is_file(), rule
            assert (FIXTURES / f"{stem}_ok.py").is_file(), rule

    @pytest.mark.parametrize("rule", rule_names())
    def test_bad_fixture_trips_the_rule(self, tmp_path, rule):
        findings, _ = _lint_fixture(tmp_path, rule.replace("-", "_") + "_bad",
                                    rule)
        assert findings, f"{rule} found nothing in its violating fixture"
        assert {f.rule for f in findings} == {rule}
        for finding in findings:
            assert finding.line > 0 and finding.col > 0
            assert finding.severity == get_rule(rule).severity

    @pytest.mark.parametrize("rule", rule_names())
    def test_ok_fixture_is_clean(self, tmp_path, rule):
        findings, suppressed = _lint_fixture(
            tmp_path, rule.replace("-", "_") + "_ok", rule)
        assert findings == [] and suppressed == []

    def test_fixture_dir_is_skipped_by_discovery(self):
        report = run_lint([Path("tests")] if (REPO / "tests").exists()
                          else [FIXTURES.parent])
        paths = {f.path for f in report.findings} | {
            f.path for f in report.suppressed}
        assert not any("lint_fixtures" in p for p in paths)


class TestRuleDetails:
    """Pinpoint checks beyond 'the fixture trips'."""

    def _one(self, tmp_path, source: str, rule: str):
        target = tmp_path / "snippet.py"
        target.write_text(source, encoding="utf-8")
        return lint_file(target, rules=all_rules([rule]))

    def test_seeded_default_rng_is_clean(self, tmp_path):
        findings, _ = self._one(
            tmp_path, "import numpy as np\nrng = np.random.default_rng(7)\n",
            "determinism-unseeded-rng")
        assert findings == []

    def test_import_alias_is_resolved(self, tmp_path):
        findings, _ = self._one(
            tmp_path, "import numpy.random as nr\nx = nr.rand(3)\n",
            "determinism-unseeded-rng")
        assert len(findings) == 1

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        findings, _ = self._one(
            tmp_path,
            "def merge(ids):\n    return [i for i in sorted(set(ids))]\n",
            "determinism-set-iteration")
        assert findings == []

    def test_thread_pool_closure_is_clean(self, tmp_path):
        findings, _ = self._one(
            tmp_path,
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def run(items):\n"
            "    def stage(i):\n"
            "        return i\n"
            "    with ThreadPoolExecutor(2) as pool:\n"
            "        return list(pool.map(stage, items))\n",
            "mp-unpicklable-task")
        assert findings == []

    def test_process_target_closure_is_flagged(self, tmp_path):
        findings, _ = self._one(
            tmp_path,
            "import multiprocessing\n"
            "import threading\n"
            "def run():\n"
            "    def work():\n"
            "        return 1\n"
            "    ctx = multiprocessing.get_context('spawn')\n"
            "    ctx.Process(target=work).start()\n"
            "    multiprocessing.get_context().Process(target=lambda: 1)\n"
            "    threading.Thread(target=work).start()\n",
            "mp-unpicklable-task")
        assert [finding.line for finding in findings] == [7, 8]

    def test_broad_except_reraise_is_clean(self, tmp_path):
        findings, _ = self._one(
            tmp_path,
            "def f(task):\n"
            "    try:\n"
            "        return task()\n"
            "    except Exception:\n"
            "        raise\n",
            "hygiene-broad-except")
        assert findings == []

    def test_global_resource_is_not_flagged(self, tmp_path):
        findings, _ = self._one(
            tmp_path,
            "from multiprocessing.shared_memory import SharedMemory\n"
            "_SEGMENT = None\n"
            "def init(size):\n"
            "    global _SEGMENT\n"
            "    _SEGMENT = SharedMemory(create=True, size=size)\n",
            "lifecycle-unclosed-resource")
        assert findings == []

    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n", encoding="utf-8")
        findings, _ = lint_file(target)
        assert [f.rule for f in findings] == ["parse-error"]
        assert findings[0].severity == "error"

    def test_tests_kind_relaxes_src_only_rules(self, tmp_path):
        nested = tmp_path / "tests"
        nested.mkdir()
        target = nested / "test_thing.py"
        target.write_text("def test_x():\n    assert 1 + 1 == 2\n",
                          encoding="utf-8")
        findings, _ = lint_file(target)
        assert findings == []


# ----------------------------------------------------------------------
# Suppressions and baseline
# ----------------------------------------------------------------------
class TestSuppression:
    def test_inline_disable_moves_finding_to_suppressed(self, tmp_path):
        target = tmp_path / "snippet.py"
        target.write_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time()  "
            "# repro-lint: disable=determinism-wallclock -- test clock\n",
            encoding="utf-8")
        findings, suppressed = lint_file(target)
        assert findings == []
        assert [f.rule for f in suppressed] == ["determinism-wallclock"]

    def test_disable_only_silences_the_named_rule(self, tmp_path):
        target = tmp_path / "snippet.py"
        target.write_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time()  "
            "# repro-lint: disable=hygiene-broad-except\n",
            encoding="utf-8")
        findings, suppressed = lint_file(target)
        assert [f.rule for f in findings] == ["determinism-wallclock"]
        assert suppressed == []

    def test_file_level_disable(self, tmp_path):
        target = tmp_path / "snippet.py"
        target.write_text(
            "# repro-lint: disable-file=hygiene-assert-control-flow -- demo\n"
            "def guard(v):\n"
            "    assert v > 0\n"
            "    assert v < 10\n",
            encoding="utf-8")
        findings, suppressed = lint_file(target)
        assert findings == []
        assert len(suppressed) == 2

    def test_disable_accepts_a_comma_list(self, tmp_path):
        target = tmp_path / "snippet.py"
        target.write_text(
            "import time, os\n"
            "def stamp():\n"
            "    return time.time(), os.getenv('X')  "
            "# repro-lint: disable=determinism-wallclock,determinism-env-read\n",
            encoding="utf-8")
        findings, suppressed = lint_file(target)
        assert findings == []
        assert sorted(f.rule for f in suppressed) == [
            "determinism-env-read", "determinism-wallclock"]


class TestBaseline:
    def _violation(self, path: Path, n: int = 1) -> None:
        body = "".join(f"def guard{i}(v):\n    assert v > {i}\n"
                       for i in range(n))
        path.write_text(body, encoding="utf-8")

    def test_baseline_grandfathers_existing_findings(self, tmp_path):
        source = tmp_path / "legacy.py"
        self._violation(source)
        baseline_path = tmp_path / "baseline.json"
        first = run_lint([source])
        assert len(first.findings) == 1
        write_baseline(baseline_path, first.findings)
        again = run_lint([source], baseline=load_baseline(baseline_path))
        assert again.findings == [] and len(again.baselined) == 1
        assert again.ok

    def test_second_instance_of_baselined_finding_still_fails(self, tmp_path):
        source = tmp_path / "legacy.py"
        self._violation(source, n=1)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, run_lint([source]).findings)
        # Same fingerprint (rule, path, message), now twice: the baseline
        # absorbs one instance, the extra one is new and fails.
        source.write_text("def a(v):\n    assert v > 0\n"
                          "def b(v):\n    assert v > 0\n", encoding="utf-8")
        report = run_lint([source], baseline=load_baseline(baseline_path))
        assert len(report.baselined) == 1
        assert len(report.findings) == 1
        assert not report.ok

    def test_line_moves_do_not_invalidate_the_baseline(self, tmp_path):
        source = tmp_path / "legacy.py"
        source.write_text("def guard(v):\n    assert v > 0\n",
                          encoding="utf-8")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, run_lint([source]).findings)
        source.write_text("\n\n\ndef guard(v):\n    assert v > 0\n",
                          encoding="utf-8")
        report = run_lint([source], baseline=load_baseline(baseline_path))
        assert report.ok and len(report.baselined) == 1

    def test_malformed_baseline_is_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(bad)


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------
class TestRegistry:
    def test_duplicate_registration_is_rejected(self):
        class Duplicate(Rule):
            name = rule_names()[0]

        with pytest.raises(ValueError, match="already registered"):
            register_rule(Duplicate)

    def test_bad_name_is_rejected(self):
        class BadName(Rule):
            name = "NoDashes"

        with pytest.raises(ValueError, match="<family>-<rule>"):
            register_rule(BadName)

    def test_bad_severity_is_rejected(self):
        class BadSeverity(Rule):
            name = "hygiene-test-severity"
            severity = "fatal"

        with pytest.raises(ValueError, match="severity"):
            register_rule(BadSeverity)

    def test_unknown_rule_error_lists_the_registry(self):
        with pytest.raises(KeyError, match="determinism-unseeded-rng"):
            get_rule("no-such-rule")

    def test_registered_rule_runs_and_unregisters_cleanly(self, tmp_path):
        import ast

        @register_rule
        class NoPrintRule(Rule):
            name = "hygiene-no-print"
            severity = "warning"
            rationale = "test rule"

            def check(self, module):
                for node in module.walk(ast.Call):
                    if module.full_name(node.func) == "print":
                        yield self.finding(module, node, "print() found")

        try:
            target = tmp_path / "snippet.py"
            target.write_text("print('hi')\n", encoding="utf-8")
            findings, _ = lint_file(target, rules=all_rules(["hygiene-no-print"]))
            assert [f.rule for f in findings] == ["hygiene-no-print"]
        finally:
            del _REGISTRY["hygiene-no-print"]

    def test_every_rule_declares_a_rationale(self):
        for name in rule_names():
            assert get_rule(name).rationale, name


# ----------------------------------------------------------------------
# Self-lint: the tier-1 gate
# ----------------------------------------------------------------------
class TestSelfLint:
    def test_src_tree_is_clean(self, monkeypatch):
        monkeypatch.chdir(REPO)
        report = run_lint([Path("src")])
        assert report.ok, render_text(report)

    def test_whole_tree_is_clean(self, monkeypatch):
        monkeypatch.chdir(REPO)
        report = run_lint([Path("src"), Path("tests"), Path("benchmarks"),
                           Path("examples")])
        assert report.ok, render_text(report)

    def test_two_runs_render_byte_identical_reports(self, monkeypatch):
        monkeypatch.chdir(REPO)
        first = render_json(run_lint([Path("src")]))
        second = render_json(run_lint([Path("src")]))
        assert first == second
        assert render_text(run_lint([Path("src")])) == render_text(
            run_lint([Path("src")]))

    def test_every_suppression_in_tree_carries_a_justification(self,
                                                               monkeypatch):
        from repro.lint.runner import _DISABLE_FILE_RE, _DISABLE_RE

        monkeypatch.chdir(REPO)
        justified = re.compile(r"repro-lint:\s*disable(?:-file)?="
                               r"[a-z0-9\-,\s]+(--|—)\s*\S")
        for path in sorted(Path("src").rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if _DISABLE_RE.search(line) or _DISABLE_FILE_RE.search(line):
                    assert justified.search(line), (
                        f"{path}:{lineno} suppression lacks a justification")


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", str(target)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_violation_exits_nonzero(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import time\ndef f():\n    return time.time()\n",
                          encoding="utf-8")
        assert main(["lint", str(target)]) == 1
        assert "determinism-wallclock" in capsys.readouterr().out

    def test_json_format_and_output_file(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["lint", str(target), "--format", "json",
                     "--output", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["summary"]["errors"] == 1
        assert payload["findings"][0]["rule"] == "hygiene-mutable-default"
        assert json.loads(
            capsys.readouterr().out.split("\n", 1)[1]) == payload

    def test_write_then_apply_baseline(self, tmp_path, capsys):
        target = tmp_path / "legacy.py"
        target.write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(target),
                     "--write-baseline", str(baseline)]) == 0
        assert main(["lint", str(target), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_rule_selection(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("import time\ndef f(x=[]):\n    return time.time()\n",
                          encoding="utf-8")
        assert main(["lint", str(target),
                     "--rule", "hygiene-broad-except"]) == 0
        assert main(["lint", str(target),
                     "--rule", "hygiene-mutable-default"]) == 1

    def test_missing_target_raises(self, tmp_path, capsys):
        """A typo in a path is a usage error (exit 2), not a finding (exit
        1) and not a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path / "nope")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err == f"repro lint: error: no such file or directory: {tmp_path / 'nope'}\n"

    def test_missing_baseline_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(target), "--baseline", str(tmp_path / "nope.json")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err == f"repro lint: error: no such baseline file: {tmp_path / 'nope.json'}\n"


# ----------------------------------------------------------------------
# Determinism facts the allowlists encode (satellite: no wall-clock state
# in campaign dirs or serve store names)
# ----------------------------------------------------------------------
class TestAllowlistedFactsHold:
    def test_allowlists_name_real_modules(self):
        for table in (NONDETERMINISM_ALLOWED, WALLCLOCK_ALLOWED,
                      ENV_READ_ALLOWED):
            for suffix, reason in table.items():
                assert (REPO / "src" / suffix).is_file(), suffix
                assert reason.strip(), suffix

    def test_campaign_result_dir_is_seed_derived(self, tmp_path):
        from repro.campaign import CampaignConfig, run_campaign

        config = CampaignConfig(budget=1, seed=3, out_dir=tmp_path,
                                backends=("bonsai-batched",),
                                recorded=False, shrink=False)
        result = run_campaign(config)
        assert result.result_dir == tmp_path / "campaign-seed3"

    def test_store_names_embed_no_wallclock_state(self):
        import numpy as np

        from repro.serve import SharedCloudStore

        rng = np.random.default_rng(11)
        cloud = rng.uniform(-5.0, 5.0, (400, 3)).astype(np.float32)
        with SharedCloudStore.create(cloud) as store:
            # pid (hex) + secrets token: uniqueness sources only — no
            # timestamp component that would differ between identical runs.
            assert re.fullmatch(r"repro-store-[0-9a-f]+-[0-9a-f]{6}",
                                store.name)


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------
class TestReport:
    def test_counts_split_severities(self):
        report = LintReport(findings=[
            Finding("determinism-wallclock", "error", "a.py", 1, 1, "m"),
            Finding("hygiene-broad-except", "warning", "a.py", 2, 1, "m"),
        ])
        assert report.counts() == {"errors": 1, "warnings": 1}
        assert not report.ok

    def test_findings_sort_stably(self):
        low = Finding("a-rule", "error", "a.py", 1, 1, "m")
        high = Finding("a-rule", "error", "b.py", 1, 1, "m")
        assert sorted([high, low], key=lambda f: f.sort_key) == [low, high]

    def test_render_includes_location_and_rule(self):
        finding = Finding("determinism-wallclock", "error", "a.py", 3, 7, "msg")
        assert finding.render() == "a.py:3:7: error [determinism-wallclock] msg"
