"""Multiprocessing-safety and hygiene rules.

The fork/spawn contract of the engine layer (:mod:`repro.engine.parallel`)
is that everything crossing a process boundary pickles: worker callables and
pool initializers must be module-level functions, because ``spawn`` resolves
them by qualified name.  A lambda or nested function works under ``fork`` on
Linux and then breaks on the ``spawn`` fallback — the exact class of
platform-dependent bug the parity suites cannot catch on the platform where
it happens to pass.

The hygiene family covers the classic Python footguns with outsized blast
radius in a determinism-sensitive codebase: mutable default arguments
(shared state across calls), broad ``except`` blocks that silently swallow
failures (a divergence eaten is a divergence shipped), and ``assert`` used
for runtime control flow (compiled away under ``python -O``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from .findings import Finding
from .registry import Rule, register_rule

__all__ = []

#: Pool/executor methods whose first argument crosses a process boundary.
_SUBMIT_METHODS = frozenset({"map", "imap", "imap_unordered", "starmap",
                             "starmap_async", "apply", "apply_async",
                             "submit"})

#: Keyword arguments that carry a callable into worker processes.
_WORKER_KWARGS = frozenset({"initializer"})


def _local_callables(scope: ast.AST) -> Set[str]:
    """Names bound to defs/lambdas inside ``scope`` (not picklable)."""
    names: Set[str] = set()
    for node in ast.walk(scope):
        if node is scope:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            names.add(node.targets[0].id)
    return names


def _thread_pool_names(module, scope: ast.AST) -> Set[str]:
    """Names bound to ThreadPoolExecutor in ``scope`` — threads do not
    pickle, so closures submitted to them are fine."""

    def is_thread_pool(expr: ast.AST) -> bool:
        return (isinstance(expr, ast.Call)
                and (module.full_name(expr.func) or "")
                .rsplit(".", 1)[-1] == "ThreadPoolExecutor")

    names: Set[str] = set()
    for node in ast.walk(scope):
        if (isinstance(node, ast.Assign) and is_thread_pool(node.value)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            names.add(node.targets[0].id)
        elif (isinstance(node, ast.withitem)
                and is_thread_pool(node.context_expr)
                and isinstance(node.optional_vars, ast.Name)):
            names.add(node.optional_vars.id)
    return names


@register_rule
class UnpicklableTaskRule(Rule):
    """Callables handed to worker pools must be module-level functions."""

    name = "mp-unpicklable-task"
    severity = "error"
    rationale = (
        "spawn-start workers resolve task functions by qualified name; a "
        "lambda or nested def works under fork and breaks under spawn")

    def check(self, module) -> Iterator[Finding]:
        for scope in module.scopes():
            in_function = not isinstance(scope, ast.Module)
            local = _local_callables(scope) if in_function else set()
            threads = _thread_pool_names(module, scope)
            for node in module.scope_statements(scope):
                if not isinstance(node, ast.Call):
                    continue
                yield from self._check_call(module, node, local, threads)

    def _check_call(self, module, node: ast.Call, local: Set[str],
                    threads: Set[str]) -> Iterator[Finding]:
        candidates: List[ast.AST] = []
        full = module.full_name(node.func) or ""
        if full.rsplit(".", 1)[-1] == "process_map" and node.args:
            candidates.append(node.args[0])
        elif (isinstance(node.func, ast.Attribute)
                and node.func.attr in _SUBMIT_METHODS and node.args
                and not (isinstance(node.func.value, ast.Name)
                         and node.func.value.id in threads)):
            candidates.append(node.args[0])
        candidates.extend(kw.value for kw in node.keywords
                          if kw.arg in _WORKER_KWARGS)
        for candidate in candidates:
            if isinstance(candidate, ast.Lambda):
                yield self.finding(
                    module, candidate,
                    "lambda cannot cross a process boundary (not picklable "
                    "by qualified name) — use a module-level function")
            elif (isinstance(candidate, ast.Name) and candidate.id in local):
                yield self.finding(
                    module, candidate,
                    f"nested function {candidate.id!r} is not picklable — "
                    f"move it to module level (see repro.analysis.hw_sweep's "
                    f"run_sweep_task)")


#: Default expressions that create a shared mutable object once, at def time.
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "collections.defaultdict",
                            "collections.Counter", "collections.OrderedDict",
                            "defaultdict", "Counter", "OrderedDict"})


@register_rule
class MutableDefaultRule(Rule):
    """No mutable default arguments."""

    name = "hygiene-mutable-default"
    severity = "error"
    rationale = (
        "a mutable default is one object shared by every call — state "
        "leaks across invocations and across tests")

    def check(self, module) -> Iterator[Finding]:
        for node in module.walk(ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda):
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if self._is_mutable(module, default):
                    yield self.finding(
                        module, default,
                        "mutable default argument — default to None and "
                        "create the object inside the function")

    @staticmethod
    def _is_mutable(module, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and module.full_name(node.func) in _MUTABLE_CALLS)


@register_rule
class BroadExceptRule(Rule):
    """No bare ``except:`` and no silent broad swallows."""

    name = "hygiene-broad-except"
    severity = "warning"
    rationale = (
        "a swallowed exception hides real divergences and lifecycle "
        "failures; the sanctioned shutdown paths gate on sys.is_finalizing() "
        "and re-raise everywhere else")

    def check(self, module) -> Iterator[Finding]:
        for node in module.walk(ast.ExceptHandler):
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt — "
                    "name the exception type (narrowest that fits)")
                continue
            full = module.full_name(node.type)
            if full not in ("Exception", "BaseException",
                            "builtins.Exception", "builtins.BaseException"):
                continue
            reraises = any(isinstance(inner, ast.Raise)
                           for inner in ast.walk(node))
            if node.name is None and not reraises:
                yield self.finding(
                    module, node,
                    f"`except {full}` that neither binds nor re-raises "
                    f"silently swallows failures — narrow the type, or "
                    f"re-raise outside sanctioned shutdown paths")


@register_rule
class AssertControlFlowRule(Rule):
    """No ``assert`` for runtime checks outside the test suites."""

    name = "hygiene-assert-control-flow"
    severity = "warning"
    # Tests and pytest-collected benchmarks assert by design.
    scopes = frozenset({"src", "examples"})
    rationale = (
        "assert statements vanish under `python -O`; a load-bearing check "
        "must raise an explicit exception")

    def check(self, module) -> Iterator[Finding]:
        for node in module.walk(ast.Assert):
            yield self.finding(
                module, node,
                "assert is compiled away under `python -O` — raise an "
                "explicit exception for runtime checks (asserts belong in "
                "tests/)")
