"""ExecutionConfig: the execution mode of a workload as one value.

The mode is a backend *name* (from :mod:`repro.engine.backends`), a
``hardware`` switch that routes the searches through the trace-driven cache
simulation, and an optional ``cache_config`` overriding the recorded
machine's cache geometry — which is what makes cache-geometry sensitivity
sweeps a config change instead of new plumbing.  It is the one spelling of
the mode: the perception stages, the workloads, the pipeline runner and the
CLI all take it (or a ``--backend`` name that becomes one), and every
hardware recorder and recorded backend is built here, by
:meth:`ExecutionConfig.make_recorder` and :meth:`ExecutionConfig.make_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .backends import RECORDED_BACKENDS, SearchBackend, backend_names, get_backend

__all__ = ["ExecutionConfig"]


@dataclass(frozen=True)
class ExecutionConfig:
    """How a workload executes its tree searches.

    Parameters
    ----------
    backend:
        Backend name (see :func:`repro.engine.backends.backend_names`).
    hardware:
        Route the searches through the flavour's recorded per-query walk so
        every tree access streams into the trace-driven cache/timing/energy
        models.  Functional results are unchanged (the recorded walk is
        bitwise-identical to the batched backend); the run additionally
        carries per-stage hardware reports.
    cache_config:
        Machine geometry (:class:`~repro.hwmodel.cpu_config.CPUConfig`) the
        hardware recorder simulates.  ``None`` uses each stage's own CPU
        config (the paper's Table IV machine by default); a sweep passes
        variations here to map cache-geometry sensitivity.
    """

    backend: str = "baseline-batched"
    hardware: bool = False
    cache_config: Optional[object] = None

    def __post_init__(self) -> None:
        if self.backend not in backend_names():
            known = ", ".join(backend_names())
            raise ValueError(
                f"unknown backend {self.backend!r}; registered: {known}")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def flavor(self) -> str:
        """Leaf format of the backend: ``"baseline"`` or ``"bonsai"``."""
        return self.backend.split("-", 1)[0]

    @property
    def use_bonsai(self) -> bool:
        """Whether the backend searches compressed (K-D Bonsai) leaves."""
        return self.flavor == "bonsai"

    # ------------------------------------------------------------------
    # Backend construction
    # ------------------------------------------------------------------
    def make_recorder(self, cpu=None):
        """A fresh :class:`~repro.hwmodel.cache.HierarchyRecorder`.

        Uses ``cache_config`` when set, else the caller's stage ``cpu``,
        else the paper's Table IV machine.  Every recorder of the repo is
        built here: the stages pass their own machine as ``cpu``.
        """
        from ..hwmodel.cache import HierarchyRecorder

        machine = self.cache_config if self.cache_config is not None else cpu
        if machine is None:
            from ..hwmodel.cpu_config import TABLE_IV_CPU
            machine = TABLE_IV_CPU
        return HierarchyRecorder.for_cpu(machine)

    def make_backend(self, tree, *, recorder=None, stats=None) -> SearchBackend:
        """Construct this config's backend over ``tree``.

        With ``hardware`` set (or an explicit ``recorder`` passed), the
        backend is the flavour's recorded per-query walk
        (:data:`~repro.engine.backends.RECORDED_BACKENDS`): trace-driven
        simulation depends on the exact access order, which only the
        per-query walk defines; functional results stay bitwise identical.
        """
        if self.hardware or recorder is not None:
            if recorder is None:
                recorder = self.make_recorder()
            return RECORDED_BACKENDS[self.flavor](tree, recorder=recorder,
                                                  stats=stats)
        return get_backend(self.backend, tree, stats=stats)
