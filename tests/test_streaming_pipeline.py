"""Bitwise-parity tests of the pipeline runner's overlapped frame schedule.

:meth:`~repro.workloads.pipeline.PipelineRunner.run` generates and clusters
frames on ``REPRO_MP_WORKERS`` threads and folds their outputs strictly in
frame order; the contract is that ``metrics()`` is **bitwise identical** for
any thread count and any stage completion order.  The reference is one
thread (``REPRO_MP_WORKERS=1``), which runs the frames strictly in order;
the golden suites (``tests/test_golden_pipeline.py``,
``tests/test_golden_hardware.py``) pin the same metrics independently of
the schedule.  These tests sweep every registered scenario, force
pathological (fully inverted) completion orders and a failing stage by
wrapping ``EuclideanClusterPipeline.run_frame``, and fuzz seeded cases.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.pointcloud.sequence import DrivingSequence
from repro.scenarios import scenario_names
from repro.workloads import (EuclideanClusterPipeline, ExecutionConfig,
                             PipelineRunner, PipelineRunnerConfig)

BONSAI = ExecutionConfig(backend="bonsai-batched")

#: One-thread reference metrics, run once per case (callers only compare).
_SERIAL: dict = {}


def _metrics(monkeypatch, workers: int, scenario: str, n_frames: int,
             seed: int, execution: ExecutionConfig = ExecutionConfig(),
             **sequence) -> dict:
    monkeypatch.setenv("REPRO_MP_WORKERS", str(workers))
    runner = PipelineRunner.from_scenario(
        scenario, config=PipelineRunnerConfig(execution=execution),
        n_frames=n_frames, seed=seed, **sequence)
    return runner.run().metrics()


def _serial_metrics(monkeypatch, scenario: str, n_frames: int, seed: int,
                    execution: ExecutionConfig = ExecutionConfig(),
                    **sequence) -> dict:
    key = (scenario, n_frames, seed, execution, tuple(sorted(sequence.items())))
    if key not in _SERIAL:
        _SERIAL[key] = _metrics(monkeypatch, 1, scenario, n_frames, seed,
                                execution, **sequence)
    return _SERIAL[key]


def _wrap_run_frame(monkeypatch, before, after=lambda index: None):
    """Patch ``run_frame`` to call ``before(frame_index)`` ahead of the work
    and ``after(frame_index)`` behind it."""
    run_frame = EuclideanClusterPipeline.run_frame

    def wrapped(self, cloud, frame_index=0, **kwargs):
        before(frame_index)
        measurement = run_frame(self, cloud, frame_index=frame_index, **kwargs)
        after(frame_index)
        return measurement

    monkeypatch.setattr(EuclideanClusterPipeline, "run_frame", wrapped)


# ----------------------------------------------------------------------
# Every registered scenario, bitwise
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario", scenario_names())
def test_streaming_matches_serial_on_every_scenario(monkeypatch, scenario):
    """All registered scenarios: two threads equal one, bitwise."""
    serial = _serial_metrics(monkeypatch, scenario, n_frames=3, seed=5)
    assert _metrics(monkeypatch, 2, scenario, n_frames=3, seed=5) == serial


# ----------------------------------------------------------------------
# Thread counts, backends, recording
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_worker_count_never_changes_metrics(monkeypatch, workers):
    serial = _serial_metrics(monkeypatch, "urban", n_frames=5, seed=2)
    assert _metrics(monkeypatch, workers, "urban", n_frames=5, seed=2) == serial


def test_streaming_with_bonsai_backend(monkeypatch):
    serial = _serial_metrics(monkeypatch, "urban", n_frames=3, seed=4,
                             execution=BONSAI)
    assert _metrics(monkeypatch, 2, "urban", n_frames=3, seed=4,
                    execution=BONSAI) == serial


def test_streaming_while_recording(monkeypatch):
    """Recorded frames overlap too: the hardware metrics stay bitwise."""
    hardware = ExecutionConfig(backend="bonsai-batched", hardware=True)
    case = dict(n_frames=3, seed=6, n_beams=12, n_azimuth_steps=90)
    serial = _serial_metrics(monkeypatch, "urban", execution=hardware, **case)
    assert set(serial["hardware"]) == {"clustering", "localization"}
    assert _metrics(monkeypatch, 2, "urban", execution=hardware,
                    **case) == serial


@pytest.mark.parametrize("in_pool_worker", [False, True])
def test_one_thread_runs_frames_in_order(monkeypatch, in_pool_worker):
    """One thread runs the frames strictly in order: with
    ``REPRO_MP_WORKERS=1``, and with any count inside a pool worker, where
    the runner's threads must not stack on the pool's processes."""
    from repro.workloads import pipeline

    monkeypatch.setattr(pipeline, "_in_daemon_process", lambda: in_pool_worker)
    started, threads = [], set()

    def before(index):
        started.append(index)
        threads.add(threading.get_ident())

    _wrap_run_frame(monkeypatch, before)
    _metrics(monkeypatch, 4 if in_pool_worker else 1, "urban", n_frames=4, seed=2)
    assert started == [0, 1, 2, 3]
    assert len(threads) == 1


def test_at_most_twice_the_threads_in_flight(monkeypatch):
    """Frame 0 holds the fold back: frames 1-3 may start, frame 4 may not."""
    started = []
    frame_3_done = threading.Event()
    seen_while_frame_0_waited = []
    generate = DrivingSequence.frame

    def frame(self, index):
        started.append(index)
        if index == 0:
            # Give a free thread time to start frame 4, were it queued.
            assert frame_3_done.wait(timeout=30.0)
            time.sleep(0.05)
            seen_while_frame_0_waited.extend(started)
        return generate(self, index)

    def frame_3_finishes(index):
        if index == 3:
            frame_3_done.set()

    monkeypatch.setattr(DrivingSequence, "frame", frame)
    _wrap_run_frame(monkeypatch, lambda index: None, after=frame_3_finishes)
    _metrics(monkeypatch, 2, "urban", n_frames=6, seed=2)
    assert sorted(seen_while_frame_0_waited) == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Adversarial completion orders
# ----------------------------------------------------------------------
def test_inverted_completion_order_is_folded_in_frame_order(monkeypatch):
    """Later frames finish first; the fold must still run 0,1,2,..."""
    n_frames = 5
    serial = _serial_metrics(monkeypatch, "urban", n_frames=n_frames, seed=2)
    _wrap_run_frame(monkeypatch,
                    lambda index: time.sleep((n_frames - index) * 0.02))
    assert _metrics(monkeypatch, 4, "urban", n_frames=n_frames,
                    seed=2) == serial


def test_random_completion_jitter(monkeypatch):
    rng = np.random.default_rng(77)
    delays = rng.uniform(0.0, 0.03, 6)
    serial = _serial_metrics(monkeypatch, "tunnel", n_frames=6, seed=9)
    _wrap_run_frame(monkeypatch, lambda index: time.sleep(delays[index]))
    assert _metrics(monkeypatch, 3, "tunnel", n_frames=6, seed=9) == serial


def test_stage_failure_propagates(monkeypatch):
    def explode(index):
        if index == 2:
            raise RuntimeError("stage blew up")

    _wrap_run_frame(monkeypatch, explode)
    with pytest.raises(RuntimeError, match="stage blew up"):
        _metrics(monkeypatch, 2, "urban", n_frames=4, seed=1)


# ----------------------------------------------------------------------
# Fuzzed configurations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fuzz_seed", range(4))
def test_fuzzed_scenarios_bitwise(monkeypatch, fuzz_seed):
    """Random (scenario, frames, seed, threads, delays) cases."""
    rng = np.random.default_rng(1000 + fuzz_seed)
    names = scenario_names()
    scenario = names[int(rng.integers(0, len(names)))]
    n_frames = int(rng.integers(2, 6))
    seed = int(rng.integers(0, 1000))
    workers = int(rng.integers(1, 5))
    delays = rng.uniform(0.0, 0.02, n_frames)

    serial = _serial_metrics(monkeypatch, scenario, n_frames=n_frames, seed=seed)
    _wrap_run_frame(monkeypatch, lambda index: time.sleep(delays[index]))
    streaming = _metrics(monkeypatch, workers, scenario, n_frames=n_frames,
                         seed=seed)
    assert streaming == serial, (scenario, n_frames, seed, workers)
