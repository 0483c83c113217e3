"""Documentation lockdown: architecture doc matches the code, links resolve.

The acceptance contract of ``docs/ARCHITECTURE.md`` is that its described
module layout matches ``src/repro/`` *exactly*.  These tests enforce it —
and check that every relative markdown link in the first-class docs resolves,
every documented command line parses and every Python block of the README
runs — so the docs-lint CI step fails the moment code and docs drift apart.
The perf-trajectory files ``BENCH_<workload>.json`` at the repo root must
parse and hold one well-formed entry per measured PR.
"""

from __future__ import annotations

import hashlib
import json
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
ARCHITECTURE = REPO / "docs" / "ARCHITECTURE.md"
PERFORMANCE = REPO / "docs" / "PERFORMANCE.md"
LINT = REPO / "docs" / "LINT.md"
TRENDS = REPO / "docs" / "TRENDS.md"
README = REPO / "README.md"
SKILL = REPO / ".claude" / "skills" / "verify" / "SKILL.md"
SRC = REPO / "src" / "repro"

#: Relative markdown links: [text](target), excluding http(s) and anchors.
LINK_RE = re.compile(r"\[[^\]]*\]\((?!https?://|#)([^)#\s]+)")

#: A documented command line: an optional ``$ `` prompt and ``VAR=value``
#: prefixes, then ``python -m repro`` and the arguments.
COMMAND_RE = re.compile(r"^\s*(?:\$\s+)?(?:\w+=\S*\s+)*python -m repro\b(.*)$")


def _doc_tree_entries() -> set:
    """File names listed in the ARCHITECTURE.md module-tree code block."""
    text = ARCHITECTURE.read_text(encoding="utf-8")
    blocks = re.findall(r"```\n(src/repro\n.*?)```", text, flags=re.DOTALL)
    assert blocks, "ARCHITECTURE.md lost its `src/repro` module-tree block"
    entries = set()
    directories = [""]
    for line in blocks[0].splitlines()[1:]:
        stripped = line.replace("│", " ")
        match = re.match(r"^(\s*)(?:├──|└──)\s+(\S+)", stripped)
        if not match:
            continue
        indent, name = len(match.group(1)), match.group(2)
        depth = indent // 4 + 1
        directories = directories[:depth]
        if "." not in name:  # a package directory
            directories.append(name)
            continue
        prefix = "/".join(d for d in directories if d)
        entries.add(f"{prefix}/{name}" if prefix else name)
    return entries


def test_architecture_doc_exists():
    assert ARCHITECTURE.exists(), "docs/ARCHITECTURE.md is a deliverable"


def test_readme_links_architecture_doc():
    assert "docs/ARCHITECTURE.md" in README.read_text(encoding="utf-8")


def test_performance_doc_exists():
    assert PERFORMANCE.exists(), "docs/PERFORMANCE.md is a deliverable"


def test_readme_links_performance_doc():
    assert "docs/PERFORMANCE.md" in README.read_text(encoding="utf-8")


def test_performance_doc_covers_every_backend_and_geometry():
    """The selection guide must name every registered backend and cache
    geometry — a new registration without a guide entry is doc drift."""
    from repro.analysis.cache_sweep import geometry_names
    from repro.engine import backend_names

    text = PERFORMANCE.read_text(encoding="utf-8")
    for name in backend_names():
        assert f"`{name}`" in text, f"{name} missing from docs/PERFORMANCE.md"
    for name in geometry_names():
        assert f"`{name}`" in text, f"{name} missing from docs/PERFORMANCE.md"


def test_lint_doc_exists():
    assert LINT.exists(), "docs/LINT.md is a deliverable"


def test_readme_and_architecture_link_lint_doc():
    assert "docs/LINT.md" in README.read_text(encoding="utf-8")
    assert "LINT.md" in ARCHITECTURE.read_text(encoding="utf-8")


def test_lint_doc_catalogs_every_registered_rule():
    """The rule catalog must name every registered lint rule — a new
    registration without a catalog entry is doc drift."""
    from repro.lint import rule_names

    text = LINT.read_text(encoding="utf-8")
    for name in rule_names():
        assert f"`{name}`" in text, f"{name} missing from docs/LINT.md"


def test_trends_doc_exists():
    assert TRENDS.exists(), "docs/TRENDS.md is a deliverable"


def test_readme_and_architecture_link_trends_doc():
    assert "docs/TRENDS.md" in README.read_text(encoding="utf-8")
    assert "TRENDS.md" in ARCHITECTURE.read_text(encoding="utf-8")


def test_trends_doc_catalogs_every_family():
    """The family catalog must name every known trend family — a new
    collector without a catalog entry is doc drift."""
    from repro.trends import KNOWN_FAMILIES

    text = TRENDS.read_text(encoding="utf-8")
    for name in KNOWN_FAMILIES:
        assert f"`{name}`" in text, f"{name} missing from docs/TRENDS.md"


def test_trends_doc_states_every_threshold():
    """The tolerance table must carry every policy override, with its
    actual percentage — a tuned threshold without a doc update is drift."""
    from repro.trends import DEFAULT_REL_TOL, DEFAULT_RELATIVE_METRICS

    text = TRENDS.read_text(encoding="utf-8")
    for substring, tolerance in DEFAULT_RELATIVE_METRICS:
        assert f"`{substring}`" in text, \
            f"override {substring} missing from docs/TRENDS.md"
        assert f"{tolerance:.0%}" in text, \
            f"tolerance {tolerance:.0%} for {substring} not stated"
    assert f"{DEFAULT_REL_TOL:.0%}" in text


def test_readme_backend_matrix_lists_every_backend():
    """The README backend table must list every registered backend name."""
    from repro.engine import backend_names

    text = README.read_text(encoding="utf-8")
    for name in backend_names():
        assert f"`{name}`" in text, f"{name} missing from README backend matrix"


#: A backticked backend-shaped name: ``baseline-*`` or ``bonsai-*``.
BACKEND_NAME_RE = re.compile(r"`((?:baseline|bonsai)-[A-Za-z0-9_-]*)`")


def test_docs_name_only_registered_backends():
    """The reverse of the two checks above: every backticked
    ``baseline-*``/``bonsai-*`` name in the docs is a registered backend,
    so a removed backend cannot linger in them."""
    from repro.engine import backend_names

    registered = set(backend_names())
    for path in (README, PERFORMANCE, ARCHITECTURE, SKILL):
        named = set(BACKEND_NAME_RE.findall(path.read_text(encoding="utf-8")))
        assert named <= registered, \
            f"{path.relative_to(REPO)} names {sorted(named - registered)}"


def test_module_tree_matches_src_exactly():
    """Every file under src/repro is in the doc tree, and vice versa."""
    actual = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*")
        if path.is_file() and path.suffix in (".py", ".md")
        and "__pycache__" not in path.parts
    }
    documented = _doc_tree_entries()
    missing = actual - documented
    stale = documented - actual
    assert not missing and not stale, (
        f"docs/ARCHITECTURE.md module tree drifted from src/repro/: "
        f"undocumented={sorted(missing)}, stale={sorted(stale)}")


def test_every_package_described_in_layers():
    """Each repro subpackage must be referenced as `repro.<name>` in the doc."""
    text = ARCHITECTURE.read_text(encoding="utf-8")
    packages = {p.name for p in SRC.iterdir()
                if p.is_dir() and (p / "__init__.py").exists()}
    for package in sorted(packages):
        assert f"repro.{package}" in text, f"repro.{package} not described"


@pytest.mark.parametrize("doc", ["docs/ARCHITECTURE.md", "docs/PERFORMANCE.md",
                                 "docs/LINT.md", "docs/TRENDS.md",
                                 "README.md"],
                         ids=["architecture", "performance", "lint", "trends",
                              "readme"])
def test_relative_links_resolve(doc):
    path = REPO / doc
    for target in LINK_RE.findall(path.read_text(encoding="utf-8")):
        resolved = (path.parent / target).resolve()
        assert resolved.exists(), f"{doc}: broken link -> {target}"


def _documented_commands():
    """``(id, argv)`` of every ``python -m repro`` line in the docs.

    A case is keyed by its file and command, not its line, so editing the
    prose above a command renames nothing: ``<file>#<first 8 hex digits of
    the SHA-1 of the joined argv>``, with ``-2``, ``-3`` for repeats of one
    command in one file.
    """
    docs = [README, *sorted((REPO / "docs").glob("*.md")),
            SRC / "workloads" / "README.md"]
    commands = []
    for doc in docs:
        lines = doc.read_text(encoding="utf-8").splitlines()
        repeats = Counter()
        number = 0
        while number < len(lines):
            line = lines[number]
            while line.endswith("\\") and number + 1 < len(lines):
                number += 1
                line = line[:-1] + " " + lines[number].strip()
            number += 1
            match = COMMAND_RE.match(line)
            if match:
                # A $(...) substitution stands for one argument.
                arguments = re.sub(r"\$\([^)]*\)", "SUBSTITUTED", match.group(1))
                argv = shlex.split(arguments, comments=True)
                digest = hashlib.sha1(" ".join(argv).encode()).hexdigest()[:8]
                key = f"{doc.relative_to(REPO)}#{digest}"
                repeats[key] += 1
                if repeats[key] > 1:
                    key += f"-{repeats[key]}"
                commands.append((key, argv))
    return commands


DOCUMENTED_COMMANDS = _documented_commands()


def test_documented_commands_found():
    documents = {where.split("#", 1)[0] for where, _ in DOCUMENTED_COMMANDS}
    assert {"README.md", "src/repro/workloads/README.md"} <= documents


@pytest.mark.parametrize("argv", [argv for _, argv in DOCUMENTED_COMMANDS],
                         ids=[where for where, _ in DOCUMENTED_COMMANDS])
def test_documented_command_lines_parse(argv):
    """Every command line the docs show is one the CLI accepts."""
    from repro.cli import build_parser

    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"`repro {' '.join(argv)}` does not parse (exit {exc.code})")


#: A README block that builds one of these sweeps runs for tens of seconds,
#: so it runs under the ``slow`` marker.
SLOW_BLOCK_RE = re.compile(r"\b(?:HardwareScenarioSweep|CacheGeometrySweep)\(")


def _readme_python_blocks():
    """Each fenced ``python`` block of the README, with an ordinal id."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    return [pytest.param(code, id=f"block{number}",
                         marks=[pytest.mark.slow] if SLOW_BLOCK_RE.search(code) else [])
            for number, code in enumerate(blocks, 1)]


@pytest.mark.parametrize("code", _readme_python_blocks())
def test_readme_python_blocks_run(code):
    """Every Python block the README shows runs as written, each in a
    fresh namespace."""
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})


#: Keys of every entry of a ``BENCH_<workload>.json`` perf-trajectory file.
BENCH_ENTRY_KEYS = {"pr", "title", "backfilled", "claim", "run_seconds", "pairs",
                    "seeds", "host_slowdown", "machine", "metrics", "trace1_raw_ms",
                    "note"}


def _number_or_none(value) -> bool:
    return value is None or (isinstance(value, (int, float))
                             and not isinstance(value, bool))


@pytest.mark.parametrize("workload", ["frames-bonsai", "map-serve"])
def test_bench_trajectory_entries(workload):
    """One entry per measured PR, in PR order, with the benchmark's five
    end-to-end metrics for parent and change; backfilled entries come first."""
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert workload in {w["name"] for w in benchmark["workloads"]}
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    data = json.loads((REPO / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    assert data["workload"] == workload
    entries = data["entries"]
    prs = [e["pr"] for e in entries]
    assert prs == sorted(set(prs)) and entries
    backfilled = [e["backfilled"] for e in entries]
    assert backfilled == sorted(backfilled, reverse=True)
    for e in entries:
        assert set(e) == BENCH_ENTRY_KEYS, e["pr"]
        assert isinstance(e["backfilled"], bool)
        assert e["claim"] is None or e["claim"] in end_to_end
        assert isinstance(e["pairs"], int) and e["pairs"] >= 1
        assert all(isinstance(seed, int) for seed in e["seeds"])
        assert set(e["metrics"]) == end_to_end, e["pr"]
        for name, m in e["metrics"].items():
            assert set(m) == {"parent", "change", "wins"}, (e["pr"], name)
            assert m["wins"] is None or 0 <= m["wins"] <= e["pairs"]
            for side in (m["parent"], m["change"]):
                assert {"median", "q1", "q3"} <= set(side) <= {"median", "q1", "q3", "runs"}
                assert all(_number_or_none(side[k]) for k in ("median", "q1", "q3"))
                assert all(_number_or_none(v) for v in side.get("runs", []))
        if e["host_slowdown"] is not None:
            assert e["host_slowdown"]["min"] <= e["host_slowdown"]["max"]
        assert set(e["machine"]) == {"nproc", "python", "numpy", "scipy", "machine"}
        if e["trace1_raw_ms"] is not None:
            assert set(e["trace1_raw_ms"]) == {"parent", "change"}
            for layers in e["trace1_raw_ms"].values():
                for layer, value in layers.items():
                    assert layer.endswith("_ms"), (e["pr"], layer)
                    values = value if isinstance(value, list) else [value]
                    assert values and all(_number_or_none(v) for v in values)
        if not e["backfilled"]:
            # A measured entry has every median, its quartiles and its wins.
            assert len(e["seeds"]) == e["pairs"] and e["host_slowdown"] is not None
            for m in e["metrics"].values():
                assert m["wins"] is not None
                for side in (m["parent"], m["change"]):
                    assert None not in (side["median"], side["q1"], side["q3"])
                    assert len(side["runs"]) == e["pairs"]
