import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SERVE_AND_STOP = """
import os
import numpy as np
from repro.serve import QueryService, SharedCloudStore
from perfbench import memory, run

points = np.random.default_rng(0).uniform(0, 10, (500, 3)).astype(np.float32)
store = SharedCloudStore.create(points)
service = QueryService(store, n_workers=2)
service.radius(np.asarray(points[:4], dtype=np.float64), 0.5, backend="bonsai-batched")
service.close()
store.close()
print("before", len(memory.child_pids(os.getpid())))
run.stop_children()
print("after", len(memory.child_pids(os.getpid())))
"""


def test_stop_children_leaves_no_process_behind():
    done = subprocess.run([sys.executable, "-c", SERVE_AND_STOP], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}:{ROOT}"})
    assert done.returncode == 0, done.stderr
    lines = done.stdout.split()
    # The closed service leaves the resource tracker behind; stopping ends it.
    assert lines == ["before", "1", "after", "0"]
