"""Determinism rules: the bitwise-reproducibility guarantee, checked statically.

Every result this reproduction publishes — golden pipeline metrics, the
cross-backend parity contract, the sharded/served query paths — is bitwise
deterministic.  The fuzz and golden suites enforce that *dynamically*; these
rules catch the classic ways the guarantee regresses before any seed happens
to hit them: an unseeded RNG, a wall-clock read folded into results, an
environment variable steering result-affecting code, iteration over an
unordered set feeding a merge.

Intentional exceptions are **named**: the allowlists below map a module to
the one-line justification for its exemption, and ``docs/LINT.md`` publishes
the tables.  Everything else needs an inline
``# repro-lint: disable=<rule-id>`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from .findings import Finding
from .registry import Rule, register_rule

__all__ = ["ENV_READ_ALLOWED", "NONDETERMINISM_ALLOWED", "WALLCLOCK_ALLOWED"]

#: Legacy global-state ``numpy.random`` entry points (module-level RNG).
_LEGACY_NUMPY = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "exponential", "poisson", "binomial", "get_state",
    "set_state",
})

#: Stdlib ``random`` module-level functions (shared hidden state).
_STDLIB_RANDOM = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "seed", "getrandbits",
    "betavariate", "expovariate", "triangular", "vonmisesvariate",
})

#: Wall-clock reads (each returns a different value every call).
_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Ambient-uniqueness sources (fine for names, fatal for results).
_UNIQUENESS_CALLS = ("secrets.", "uuid.uuid1", "uuid.uuid4")

#: Modules exempt from the nondeterministic-source check, with the reason.
NONDETERMINISM_ALLOWED: Dict[str, str] = {
    "repro/serve/store.py":
        "store names embed pid + random token for cross-process uniqueness; "
        "names never affect query results",
}

#: Modules exempt from the wall-clock check, with the reason.  Both read
#: the clock for *reported* timing (stage_seconds, CLI throughput lines)
#: that lives beside — never inside — the deterministic ``metrics()`` the
#: golden suites snapshot.
WALLCLOCK_ALLOWED: Dict[str, str] = {
    "repro/cli.py":
        "CLI throughput reporting; printed, never merged into results",
    "repro/workloads/pipeline.py":
        "wall-clock stage_seconds ride beside the deterministic metrics(), "
        "never inside them",
}

#: Modules exempt from the environment-read check, with the reason.
ENV_READ_ALLOWED: Dict[str, str] = {
    "repro/engine/parallel.py":
        "REPRO_MP_WORKERS tunes the worker count only; results are "
        "worker-count-invariant by the engine determinism contract",
    "repro/trends/collect.py":
        "REPRO_TRENDS_DIR/-COMMIT/-RUN_ID/-ORDER select where benchmark "
        "trend records persist and how the run is labelled; they never "
        "affect any computed result",
}


def _allowlisted(module, table: Dict[str, str]) -> bool:
    return any(module.display.endswith(suffix) for suffix in table)


@register_rule
class UnseededRngRule(Rule):
    """No unseeded or global-state randomness anywhere in the repository."""

    name = "determinism-unseeded-rng"
    severity = "error"
    rationale = (
        "every random draw must flow from an explicit seed, or identical "
        "campaign/golden runs stop being identical")

    def check(self, module) -> Iterator[Finding]:
        allowed = _allowlisted(module, NONDETERMINISM_ALLOWED)
        for node in module.walk(ast.Call):
            full = module.full_name(node.func)
            if full is None:
                continue
            if full == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module, node,
                        "numpy.random.default_rng() without a seed draws "
                        "from OS entropy — pass an explicit seed")
            elif (full.startswith("numpy.random.")
                    and full.rsplit(".", 1)[1] in _LEGACY_NUMPY):
                yield self.finding(
                    module, node,
                    f"legacy global-state RNG call {full}() — use a seeded "
                    f"numpy.random.default_rng(seed) generator")
            elif (full.startswith("random.")
                    and full.rsplit(".", 1)[1] in _STDLIB_RANDOM
                    and (module.aliases.get("random") == "random"
                         or (isinstance(node.func, ast.Name)
                             and module.aliases.get(node.func.id, "")
                             .startswith("random.")))):
                # Covers both spellings: ``import random; random.shuffle()``
                # and ``from random import shuffle; shuffle()``.
                yield self.finding(
                    module, node,
                    f"stdlib {full}() uses hidden shared state — use a "
                    f"seeded numpy.random.default_rng(seed) generator")
            elif not allowed and (full.startswith(_UNIQUENESS_CALLS[0])
                                  or full in _UNIQUENESS_CALLS[1:]):
                yield self.finding(
                    module, node,
                    f"{full}() is a nondeterministic source — derive ids "
                    f"from seeds, or allowlist the module with a reason")


@register_rule
class WallclockRule(Rule):
    """No wall-clock reads in result-affecting modules."""

    name = "determinism-wallclock"
    severity = "error"
    scopes = frozenset({"src"})
    rationale = (
        "a clock read folded into results makes two identical runs diverge; "
        "timing belongs in benchmarks and the allowlisted reporting paths")

    def check(self, module) -> Iterator[Finding]:
        if _allowlisted(module, WALLCLOCK_ALLOWED):
            return
        for node in module.walk(ast.Call):
            full = module.full_name(node.func)
            if full in _WALLCLOCK_CALLS:
                yield self.finding(
                    module, node,
                    f"wall-clock read {full}() in a result-affecting module "
                    f"— move timing to benchmarks or allowlist with a reason")


@register_rule
class EnvReadRule(Rule):
    """No environment reads steering result-affecting code."""

    name = "determinism-env-read"
    severity = "error"
    scopes = frozenset({"src"})
    rationale = (
        "an os.environ read in result-affecting code makes results depend "
        "on ambient shell state the golden snapshots cannot see")

    def check(self, module) -> Iterator[Finding]:
        if _allowlisted(module, ENV_READ_ALLOWED):
            return
        for node in module.walk(ast.Attribute):
            if module.full_name(node) == "os.environ":
                yield self.finding(
                    module, node,
                    "os.environ read in a result-affecting module — thread "
                    "configuration through explicit parameters")
        for node in module.walk(ast.Call):
            if module.full_name(node.func) == "os.getenv":
                yield self.finding(
                    module, node,
                    "os.getenv() read in a result-affecting module — thread "
                    "configuration through explicit parameters")


def _is_set_expr(module, node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and module.full_name(node.func) in ("set", "frozenset"))


@register_rule
class SetIterationRule(Rule):
    """No iteration over freshly built sets feeding ordered results."""

    name = "determinism-set-iteration"
    severity = "error"
    rationale = (
        "set iteration order is undefined across processes and runs; the "
        "index-ordered merges only stay bitwise identical over sorted input")

    #: Order-sensitive consumers of an iterable first argument.
    _ORDERED_CONSUMERS = ("list", "tuple", "enumerate")

    def check(self, module) -> Iterator[Finding]:
        message = ("iterating a set has undefined order — wrap it in "
                   "sorted(...) before results depend on the sequence")
        for node in module.walk(ast.For):
            if _is_set_expr(module, node.iter):
                yield self.finding(module, node.iter, message)
        for node in module.walk(ast.comprehension):
            if _is_set_expr(module, node.iter):
                yield self.finding(module, node.iter, message)
        for node in module.walk(ast.Call):
            full = module.full_name(node.func)
            takes_set = (node.args and _is_set_expr(module, node.args[0]))
            if takes_set and full in self._ORDERED_CONSUMERS:
                yield self.finding(module, node, message)
            if (takes_set and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"):
                yield self.finding(module, node, message)
