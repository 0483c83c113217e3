"""Every entry point the repo benchmark patches for its spans still exists.

``perfbench/layers.py`` names each span target as ``(owner, attribute,
span)``.  ``Patches.wrap`` replaces a module attribute found by
``getattr``, and a method only where its class defines it (an inherited
method is refused), so a renamed function, method or class breaks the
traced benchmark run.  This catches it in the tier-1 suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.mark.parametrize("group", ["frame_targets", "store_targets", "replay_targets"])
def test_every_span_target_resolves(group):
    # Loaded by path: the benchmark is not an installed package.
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = getattr(layers, group)()
    assert targets
    for owner, attr, _span in targets:
        if isinstance(owner, type):
            assert attr in vars(owner), f"{owner.__qualname__} does not define {attr}"
            target = vars(owner)[attr]
        else:
            target = getattr(owner, attr, None)
            assert target is not None, f"{owner.__name__} has no {attr}"
        assert callable(target), (owner, attr)
