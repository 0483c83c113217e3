"""Resource-lifecycle rule: every heavy handle is closed on every exit path.

The serving layer's guarantees — exactly one compression pass fleet-wide,
shared-memory segments that their creator unlinks when it closes, worker
processes torn down instead of leaked — all reduce to one discipline: whoever
constructs a :class:`~repro.serve.store.SharedCloudStore`, a
:class:`~repro.engine.index.PointCloudIndex`, a worker pool or a raw
``SharedMemory`` segment must either scope it with ``with`` or close it on
the function's exit paths.  PR 8's teardown suite chases the violations
dynamically; this rule catches them at commit time.

The check is intraprocedural with a small escape analysis: a handle that is
returned, yielded, stored into ``self``/a container, passed to another call
or declared ``global`` has transferred ownership, and the *receiving* scope
is accountable instead.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .findings import Finding
from .registry import Rule, register_rule

__all__ = ["RESOURCE_LABELS"]

#: Constructor spellings that yield a closeable resource (matched against
#: the *last* segments of the resolved dotted call name).
RESOURCE_LABELS: Dict[str, str] = {
    "PointCloudIndex": "PointCloudIndex (backend cache)",
    "ShardedPointCloudIndex": "ShardedPointCloudIndex (per-tile indexes)",
    "QueryService": "QueryService (persistent worker processes)",
    "SharedMemory": "SharedMemory segment (named; leaks into /dev/shm)",
    "SharedCloudStore.create": "SharedCloudStore (owns shared segments)",
    "SharedCloudStore.attach": "SharedCloudStore attach (maps shared segments)",
    "Pool": "multiprocessing pool (worker processes)",
    "ThreadPoolExecutor": "thread pool",
    "ProcessPoolExecutor": "process pool",
}

#: Method calls that count as releasing a tracked handle.
_CLOSE_METHODS = frozenset({"close", "terminate", "shutdown", "unlink",
                            "release", "join"})


def _resource_label(module, call: ast.Call) -> Optional[str]:
    """The resource label when ``call`` constructs a tracked resource."""
    full = module.full_name(call.func)
    if full is not None:
        parts = full.split(".")
        if len(parts) >= 2 and ".".join(parts[-2:]) in RESOURCE_LABELS:
            return RESOURCE_LABELS[".".join(parts[-2:])]
        if parts[-1] in RESOURCE_LABELS and "." not in parts[-1]:
            return RESOURCE_LABELS[parts[-1]]
        return None
    # Chained receivers (``get_context(...).Pool(...)``) defeat dotted
    # resolution; a ``.Pool(...)`` attribute call is a pool regardless.
    if isinstance(call.func, ast.Attribute) and call.func.attr in ("Pool",):
        return RESOURCE_LABELS["Pool"]
    return None


def _global_names(scope: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
    return names


@register_rule
class UnclosedResourceRule(Rule):
    """Resources are scoped with ``with`` or closed before the scope exits."""

    name = "lifecycle-unclosed-resource"
    severity = "error"
    # Tests own teardown through fixtures and the dedicated lifecycle
    # suites (test_index_teardown, test_shared_store); the discipline is
    # enforced where leaks ship: src, benchmarks and examples.
    scopes = frozenset({"src", "benchmarks", "examples"})
    rationale = (
        "an unclosed store/pool/index leaks shared-memory segments or "
        "worker processes — the exact bug class the PR 8 teardown tests "
        "chase dynamically")

    def check(self, module) -> Iterator[Finding]:
        for scope in module.scopes():
            if isinstance(scope, ast.Module):
                # Module level: examples and benchmarks run script-style
                # where the interpreter exit is the lifecycle; functions are
                # where leaked handles hide.
                continue
            yield from self._check_scope(module, scope)

    # ------------------------------------------------------------------
    def _check_scope(self, module, scope) -> Iterator[Finding]:
        constructions: List[Tuple[ast.Call, str]] = []
        for node in module.scope_statements(scope):
            if isinstance(node, ast.Call):
                label = _resource_label(module, node)
                if label is not None:
                    constructions.append((node, label))
        if not constructions:
            return
        globals_declared = _global_names(scope)
        for call, label in constructions:
            tracked = self._binding(module, call)
            if tracked is None:
                # `with Resource(...)`, `return Resource(...)`, passed as an
                # argument, stored into a container — ownership handled or
                # transferred at the construction site itself.
                continue
            if tracked == "":
                yield self.finding(
                    module, call,
                    f"{label} constructed and immediately discarded — "
                    f"use `with`, or bind it and close it")
                continue
            if tracked in globals_declared:
                continue  # module-global handle; lifetime is the process
            if not self._released(module, scope, tracked):
                yield self.finding(
                    module, call,
                    f"{label} bound to {tracked!r} is never closed in this "
                    f"function — use `with`, or call .close() on every "
                    f"exit path (finally)")

    def _binding(self, module, call: ast.Call) -> Optional[str]:
        """How the constructed resource is bound.

        ``None``: ownership already handled (with/return/argument/container).
        ``""``: discarded expression statement — always a finding.
        A name: local binding the scope must release.
        """
        parent = module.parent(call)
        if isinstance(parent, ast.Expr):
            return ""
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = (parent.targets if isinstance(parent, ast.Assign)
                       else [parent.target])
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                return targets[0].id
            return None  # self.x = ..., container[k] = ..., unpacking
        return None  # withitem, Return, Call argument, comparison, ...

    def _released(self, module, scope, name: str) -> bool:
        """Whether ``name`` is closed, re-scoped or escapes within ``scope``."""
        for node in ast.walk(scope):
            # name.close() / name.terminate() / ...
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _CLOSE_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name):
                return True
            # with name: / with closing(name):
            if isinstance(node, ast.withitem):
                expr = node.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    return True
                if (isinstance(expr, ast.Call) and any(
                        isinstance(arg, ast.Name) and arg.id == name
                        for arg in expr.args)):
                    return True
        for node in ast.walk(scope):
            if not (isinstance(node, ast.Name) and node.id == name):
                continue
            parent = module.parent(node)
            # Ownership escapes: returned/yielded, aliased or stored
            # elsewhere, packed into a literal, handed to another callable.
            if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(parent, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
                return True
            if isinstance(parent, (ast.Assign, ast.AnnAssign)) and node in (
                    ast.walk(parent.value) if parent.value is not None else ()):
                return True
            if isinstance(parent, ast.Call) and (
                    node in parent.args
                    or any(node is kw.value for kw in parent.keywords)):
                return True
            if isinstance(parent, ast.Starred):
                return True
        return False
