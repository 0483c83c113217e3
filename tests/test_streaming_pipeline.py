"""Bitwise-parity tests of the streaming pipeline runner.

The :class:`~repro.serve.streaming.StreamingPipelineRunner` overlaps frame
generation and clustering across a bounded stage queue; the contract is that
``metrics()`` stays **bitwise identical** to the serial
:class:`~repro.workloads.pipeline.PipelineRunner` for any worker count, any
queue depth and any stage completion order.  These tests sweep every
registered scenario, force pathological (fully inverted) completion orders
through the ``stage_delay`` hook, and fuzz seeded configurations.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.scenarios import scenario_names
from repro.serve import StreamingPipelineRunner
from repro.workloads import ExecutionConfig, PipelineRunner

BONSAI = ExecutionConfig(backend="bonsai-batched")


@functools.lru_cache(maxsize=None)
def _serial_metrics(scenario: str, n_frames: int, seed: int) -> dict:
    """The serial reference, run once per case (callers only compare)."""
    return PipelineRunner.from_scenario(
        scenario, n_frames=n_frames, seed=seed).run().metrics()


def _streaming_metrics(scenario: str, n_frames: int, seed: int, *,
                       stage_workers: int, queue_depth=None,
                       stage_delay=None, execution=None) -> dict:
    runner = StreamingPipelineRunner.from_scenario(
        scenario, n_frames=n_frames, seed=seed, execution=execution)
    runner.stage_workers = stage_workers
    runner.queue_depth = queue_depth
    runner.stage_delay = stage_delay
    return runner.run().metrics()


# ----------------------------------------------------------------------
# Every registered scenario, bitwise
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario", scenario_names())
def test_streaming_matches_serial_on_every_scenario(scenario):
    """The tentpole acceptance: all registered scenarios, bitwise."""
    serial = _serial_metrics(scenario, n_frames=3, seed=5)
    streaming = _streaming_metrics(scenario, n_frames=3, seed=5,
                                   stage_workers=2)
    assert streaming == serial


# ----------------------------------------------------------------------
# Worker counts and queue depths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stage_workers", [1, 2, 4])
def test_worker_count_never_changes_metrics(stage_workers):
    serial = _serial_metrics("urban", n_frames=5, seed=2)
    streaming = _streaming_metrics("urban", n_frames=5, seed=2,
                                   stage_workers=stage_workers)
    assert streaming == serial


@pytest.mark.parametrize("queue_depth", [1, 2, 7])
def test_queue_depth_is_backpressure_not_correctness(queue_depth):
    serial = _serial_metrics("highway", n_frames=4, seed=3)
    streaming = _streaming_metrics("highway", n_frames=4, seed=3,
                                   stage_workers=2, queue_depth=queue_depth)
    assert streaming == serial


def test_streaming_with_bonsai_backend():
    serial = PipelineRunner.from_scenario(
        "urban", n_frames=3, seed=4, execution=BONSAI).run().metrics()
    streaming = _streaming_metrics("urban", n_frames=3, seed=4,
                                   stage_workers=2, execution=BONSAI)
    assert streaming == serial


# ----------------------------------------------------------------------
# Adversarial completion orders
# ----------------------------------------------------------------------
def test_inverted_completion_order_is_folded_in_frame_order():
    """Later frames finish first; the fold must still run 0,1,2,..."""
    n_frames = 5
    serial = _serial_metrics("urban", n_frames=n_frames, seed=2)
    streaming = _streaming_metrics(
        "urban", n_frames=n_frames, seed=2, stage_workers=4,
        stage_delay=lambda position: (n_frames - position) * 0.02)
    assert streaming == serial


def test_random_completion_jitter():
    rng = np.random.default_rng(77)
    delays = rng.uniform(0.0, 0.03, 6)
    serial = _serial_metrics("tunnel", n_frames=6, seed=9)
    streaming = _streaming_metrics(
        "tunnel", n_frames=6, seed=9, stage_workers=3,
        stage_delay=lambda position: float(delays[position]))
    assert streaming == serial


def test_stage_failure_propagates():
    runner = StreamingPipelineRunner.from_scenario("urban", n_frames=4,
                                                   seed=1)
    runner.stage_workers = 2

    def explode(position):
        if position == 2:
            raise RuntimeError("stage blew up")
        return 0.0

    runner.stage_delay = explode
    with pytest.raises(RuntimeError, match="stage blew up"):
        runner.run()


def test_invalid_worker_count_rejected():
    sequence = PipelineRunner.from_scenario("urban", n_frames=2,
                                            seed=1).sequence
    with pytest.raises(ValueError):
        StreamingPipelineRunner(sequence, stage_workers=0)


# ----------------------------------------------------------------------
# Fuzzed configurations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fuzz_seed", range(4))
def test_fuzzed_scenarios_bitwise(fuzz_seed):
    """Random (scenario, frames, seed, workers, depth, delays) cases."""
    rng = np.random.default_rng(1000 + fuzz_seed)
    names = scenario_names()
    scenario = names[int(rng.integers(0, len(names)))]
    n_frames = int(rng.integers(2, 6))
    seed = int(rng.integers(0, 1000))
    stage_workers = int(rng.integers(1, 5))
    queue_depth = int(rng.integers(1, 2 * stage_workers + 2))
    delays = rng.uniform(0.0, 0.02, n_frames)

    serial = _serial_metrics(scenario, n_frames=n_frames, seed=seed)
    streaming = _streaming_metrics(
        scenario, n_frames=n_frames, seed=seed, stage_workers=stage_workers,
        queue_depth=queue_depth,
        stage_delay=lambda position: float(delays[position]))
    assert streaming == serial, (scenario, n_frames, seed, stage_workers,
                                 queue_depth)
