"""One source of truth for golden-snapshot paths, keyed by backend name.

The golden harnesses (``test_golden_pipeline.py``, ``test_golden_hardware.py``)
historically spelled the execution mode into filenames by hand
(``*_baseline`` / ``*_bonsai``), each file with its own f-string.  Runs are
now keyed by *backend name* (the :mod:`repro.engine` registry), and this
module maps a backend to its snapshot path in exactly one place, so
``--update-golden`` regenerates every mode of every kind uniformly and a new
sweep backend cannot silently miss a harness.

Filenames keep the historical short stems (the backend's leaf-format
flavour): ``pipeline_urban_bonsai.json`` is the ``bonsai-batched`` run of
the ``urban`` world through the functional harness.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.hw_sweep import SWEEP_BACKENDS

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Execution backends the golden harnesses sweep (registry names).  The
#: functional harness runs them as-is; the hardware harness runs them with
#: ``ExecutionConfig(hardware=True)``.  Aliased to the hardware sweep's
#: backend list so the two harnesses and the sweep driver can never
#: diverge on which backends are golden-locked.
GOLDEN_BACKENDS = SWEEP_BACKENDS

#: Snapshot kinds and their filename prefixes.
KINDS = {
    "pipeline": "pipeline",
    "hardware": "hw_pipeline",
}

def mode_stem(backend: str) -> str:
    """A backend's snapshot stem, its flavour (``baseline`` / ``bonsai``),
    as in the sweep's row labels."""
    return backend.split("-", 1)[0]


def golden_path(kind: str, scenario: str, backend: str) -> Path:
    """The snapshot path of one (kind, scenario, backend) run."""
    return GOLDEN_DIR / f"{KINDS[kind]}_{scenario}_{mode_stem(backend)}.json"
