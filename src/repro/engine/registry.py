"""Backend registry: execution modes selected by *name*, not by import.

The paper's claims are comparisons between execution modes (baseline vs.
Bonsai, functional vs. trace-driven), so mode selection must be data a
config file, a CLI flag or a sweep loop can carry — the same normalisation
the data-driven ISCA retrospectives apply to decades of heterogeneous
machine configurations.  Workloads, benchmarks and the CLI therefore select
backends through :func:`get_backend`; the registry is the single source of
the valid names (``--help`` listings, sweep dimensions, error messages all
derive from it, so nothing drifts).

::

    from repro.engine import backend_names, get_backend

    for name in backend_names():
        backend = get_backend(name, tree)
        result = backend.radius_search(queries, radius=0.6)

Extending the registry takes a factory with the
``factory(tree, **opts) -> SearchBackend`` signature, registered under a
``<flavor>-<strategy>`` name — exactly how the four built-ins at the bottom
of this module ship::

    from repro.engine import register_backend

    register_backend("baseline-mystrategy", MyStrategyBackend)

After that one call the name works everywhere backends are selected — the
CLI ``--backend`` flags, ``ExecutionConfig``, ``PointCloudIndex.backend``,
the benchmark dimension tables — and the cross-backend parity suite
(``tests/test_backend_parity.py``) fuzzes it automatically.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List

from ..kdtree.build import KDTree
from .backends import (
    BaselineBatchedBackend,
    BaselinePerQueryBackend,
    BonsaiBatchedBackend,
    BonsaiPerQueryBackend,
    SearchBackend,
)

__all__ = ["backend_names", "get_backend", "register_backend"]


_REGISTRY: Dict[str, Callable[..., SearchBackend]] = {}

#: Backend names are ``<flavor>-<strategy>``: lowercase dash-separated
#: segments, at least two.  The engine layer splits on the first dash
#: (``ExecutionConfig.flavor`` / ``.strategy``, the recorded backend's
#: ``<flavor>-perquery`` lookup), so the shape is enforced at registration.
_NAME_RE = re.compile(r"[a-z0-9_]+(?:-[a-z0-9_]+)+")


def register_backend(name: str, factory: Callable[..., SearchBackend]) -> None:
    """Register ``factory`` (``factory(tree, **opts) -> SearchBackend``).

    Names follow the ``<flavor>-<strategy>`` convention of the built-in
    backends (e.g. ``baseline-batched``) — enforced here, because the rest
    of the engine layer derives the flavor and strategy from the name.
    Registering an existing name is an error (there is exactly one meaning
    per name, everywhere).
    """
    if not _NAME_RE.fullmatch(name):
        raise ValueError(
            f"backend name {name!r} must be '<flavor>-<strategy>' "
            f"(lowercase dash-separated segments, e.g. 'baseline-batched')")
    if name in _REGISTRY:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = factory


def backend_names() -> List[str]:
    """Sorted names of all registered execution backends."""
    return sorted(_REGISTRY)


def get_backend(name: str, tree: KDTree, **opts) -> SearchBackend:
    """Construct the named backend over ``tree``.

    ``opts`` are forwarded to the backend constructor: every backend accepts
    ``stats=`` (a shared :class:`~repro.kdtree.radius_search.SearchStats`
    accumulator); the per-query flavours additionally accept ``recorder=``
    (the hardware-recording hook) and the Bonsai flavours ``fmt=`` (the
    reduced float format).  Raises ``KeyError`` naming the
    registered backends on an unknown name.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(backend_names()) or "<none>"
        raise KeyError(f"unknown backend {name!r}; registered: {known}") from None
    return factory(tree, **opts)


register_backend("baseline-perquery", BaselinePerQueryBackend)
register_backend("baseline-batched", BaselineBatchedBackend)
register_backend("bonsai-perquery", BonsaiPerQueryBackend)
register_backend("bonsai-batched", BonsaiBatchedBackend)
