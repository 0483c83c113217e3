import os
import subprocess
import sys

from perfbench import memory

HOLD = "import sys; b = bytearray(32 * 2**20); print('ready', flush=True); sys.stdin.read()"


def test_a_child_counts_its_own_pages_only():
    child = subprocess.Popen([sys.executable, "-c", HOLD],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "ready"
        assert child.pid in memory.child_pids(os.getpid())
        assert 32 <= memory.unique_mb(child.pid) < 32 + 64
        assert memory.children_unique_mb() >= memory.unique_mb(child.pid)
    finally:
        child.communicate("")
    assert child.pid not in memory.child_pids(os.getpid())


def test_own_peak_is_at_least_the_current_size():
    assert 0 < memory.rss_mb() <= memory.peak_rss_mb() + 1.0
