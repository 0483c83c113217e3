"""StreamingPipelineRunner: overlapped frame stages, serial-identical metrics.

The serial :class:`~repro.workloads.pipeline.PipelineRunner` generates,
clusters, filters and tracks one frame at a time.  Its per-frame *stage*
work — LiDAR frame generation and euclidean clustering — is a pure function
of the frame index (the sequence re-seeds its RNG per frame and the cluster
pipeline builds a fresh extractor per call), so the stages of different
frames can run concurrently.  What cannot be reordered is the *fold*: the
extent filter feeding the tracker, the tracker update, the statistics
merges and the record lists are stateful and frame-order sensitive.

This runner overlaps the stages across a small thread pool while keeping a
**bounded stage queue** between the workers and the fold (backpressure: at
most ``queue_depth`` frames are in flight or buffered), and folds strictly
in ascending frame order through the exact
:class:`~repro.workloads.pipeline.FrameFold` code path the serial runner
uses — the frame-order generalization of the index-ordered shard merge of
:mod:`repro.engine.parallel`.  NDT localization stays serial (its scans
form a dependent chain against the first frame's map).  The result:
:meth:`run` returns a ``PipelineRunResult`` whose :meth:`metrics` is
**bitwise identical** to the serial runner's for any worker count and any
stage completion order (``tests/test_streaming_pipeline.py`` inverts the
completion order artificially to lock this down).

Threads, not processes: the stage work is NumPy-heavy (the GIL is released
in the kernels), the measurements carry non-trivially-picklable recorder
state, and thread workers read the shared scenario objects zero-copy.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import ThreadPoolExecutor
from threading import BoundedSemaphore
from typing import Callable, Dict, Optional

from ..engine.parallel import resolve_workers
from ..workloads.autoware import EuclideanClusterPipeline
from ..workloads.pipeline import (
    FrameFold,
    PipelineRunner,
    PipelineRunResult,
)

__all__ = ["StreamingPipelineRunner"]


class StreamingPipelineRunner(PipelineRunner):
    """A :class:`PipelineRunner` whose frame stages overlap across threads.

    Parameters
    ----------
    stage_workers:
        Number of stage threads (default: :func:`resolve_workers`, i.e. the
        ``REPRO_MP_WORKERS``/CPU-derived count every parallel surface uses).
        ``1`` degenerates to the serial schedule, still through the
        streaming machinery.
    queue_depth:
        Bound of the stage queue — the maximum number of frames in flight
        or completed-but-not-yet-folded (default ``2 * stage_workers``).
        Backpressure, not correctness: any depth >= 1 yields identical
        results.
    stage_delay:
        Test hook: ``stage_delay(position)`` seconds are slept inside the
        stage of the ``position``-th selected frame, letting tests force
        pathological (e.g. fully inverted) completion orders.

    Use exactly like the serial runner::

        result = StreamingPipelineRunner.from_scenario(
            "urban", n_frames=6,
            execution=ExecutionConfig(backend="bonsai-batched")).run()

    (``from_scenario`` is inherited; set ``stage_workers`` either on the
    instance afterwards or via the constructor.)
    """

    def __init__(self, sequence, scenario: str = "custom", config=None, *,
                 stage_workers: Optional[int] = None,
                 queue_depth: Optional[int] = None,
                 stage_delay: Optional[Callable[[int], float]] = None):
        super().__init__(sequence, scenario=scenario, config=config)
        self.stage_workers = (stage_workers if stage_workers is not None
                              else resolve_workers())
        if self.stage_workers < 1:
            raise ValueError("stage_workers must be at least 1")
        self.queue_depth = queue_depth
        self.stage_delay = stage_delay

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> PipelineRunResult:
        """Run with overlapped stages; metrics bitwise-match the serial run."""
        config = self.config
        stage_seconds: Dict[str, float] = {}
        indices = self._select_frames()
        n_frames = len(indices)
        cluster_pipeline = EuclideanClusterPipeline(config.pipeline)
        fold = FrameFold(config, config.execution)

        depth = (self.queue_depth if self.queue_depth is not None
                 else max(1, 2 * self.stage_workers))
        slots = BoundedSemaphore(depth)
        done: "queue.Queue" = queue.Queue()

        def stage(position: int) -> None:
            """Generate + cluster one frame; purely index-determined."""
            start = time.perf_counter()
            try:
                index = indices[position]
                cloud = self.sequence.frame(index)
                measurement = cluster_pipeline.run_frame(
                    cloud, frame_index=index, execution=config.execution)
                if self.stage_delay is not None:
                    time.sleep(self.stage_delay(position))
                done.put((position, cloud, measurement,
                          time.perf_counter() - start, None))
            except BaseException as exc:  # surfaced by the fold loop
                done.put((position, None, None,
                          time.perf_counter() - start, exc))

        clouds = [None] * n_frames
        cluster_s = 0.0
        track_s = 0.0
        wall_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=self.stage_workers) as pool:
            submitted = 0
            folded = 0
            buffered: Dict[int, tuple] = {}
            failure: Optional[BaseException] = None
            while folded < n_frames:
                # Keep the stage queue full: submit while a slot is free.
                while (submitted < n_frames and failure is None
                       and slots.acquire(blocking=False)):
                    pool.submit(stage, submitted)
                    submitted += 1
                if failure is not None and len(buffered) + folded >= submitted:
                    raise failure
                position, cloud, measurement, seconds, exc = done.get()
                cluster_s += seconds
                if exc is not None:
                    failure = failure or exc
                buffered[position] = (cloud, measurement)
                # Fold every contiguous completed prefix, in frame order —
                # out-of-order completions wait in the bounded buffer.
                while folded in buffered and failure is None:
                    cloud, measurement = buffered.pop(folded)
                    clouds[folded] = cloud
                    track_s += fold.fold(indices[folded], cloud, measurement)
                    slots.release()
                    folded += 1
            if failure is not None:
                raise failure
        stage_seconds["stream_wall"] = time.perf_counter() - wall_start
        # The serial runner reports generation and clustering separately;
        # here one stage task covers both, so "generate" folds into
        # "cluster".  Wall-clock keys never reach metrics() either way.
        stage_seconds["generate"] = 0.0
        stage_seconds["cluster"] = cluster_s
        stage_seconds["track"] = track_s

        return self._finish(indices, clouds, fold, stage_seconds)
