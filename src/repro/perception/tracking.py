"""Multi-object tracking over euclidean-cluster detections.

Autoware's perception pipeline does not stop at clustering: detections are
associated frame to frame to produce tracked objects with velocities, which is
what downstream planning consumes.  This module implements the standard
cluster-tracking substrate — greedy nearest-neighbour association with a
gating distance, constant-velocity prediction and track lifecycle management
(tentative → confirmed → lost) — so the repository covers the full
perception path the paper's introduction motivates, and provides a third
domain workload whose inner association step is again a neighbour search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..pointcloud.cloud import BoundingBox
from .cluster_filter import DetectedObject

__all__ = ["Track", "TrackerConfig", "ClusterTracker"]


@dataclass
class TrackerConfig:
    """Parameters of the cluster tracker."""

    #: Maximum centroid distance (metres) for associating a detection to a track.
    gating_distance: float = 2.0
    #: Consecutive hits before a tentative track is confirmed.
    confirmation_hits: int = 2
    #: Consecutive misses before a track is dropped.
    max_misses: int = 3
    #: Exponential smoothing factor applied to the velocity estimate.
    velocity_smoothing: float = 0.5


@dataclass
class Track:
    """One tracked object."""

    track_id: int
    centroid: np.ndarray
    velocity: np.ndarray
    bbox: BoundingBox
    label: str
    hits: int = 1
    misses: int = 0
    age: int = 1
    confirmed: bool = False

    def predict(self, dt: float) -> np.ndarray:
        """Predicted centroid after ``dt`` seconds of constant-velocity motion."""
        return self.centroid + self.velocity * dt

    @property
    def speed(self) -> float:
        """Speed estimate in metres per second."""
        return float(np.linalg.norm(self.velocity))


class ClusterTracker:
    """Greedy nearest-neighbour tracker over per-frame detections."""

    def __init__(self, config: Optional[TrackerConfig] = None):
        self.config = config or TrackerConfig()
        self._tracks: Dict[int, Track] = {}
        self._next_id = 0
        self._last_timestamp: Optional[float] = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def tracks(self) -> List[Track]:
        """All live tracks (tentative and confirmed)."""
        return list(self._tracks.values())

    @property
    def confirmed_tracks(self) -> List[Track]:
        """Tracks that accumulated enough hits to be trusted."""
        return [track for track in self._tracks.values() if track.confirmed]

    @property
    def tracks_spawned(self) -> int:
        """Total number of tracks ever created (including dropped ones)."""
        return self._next_id

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------
    def update(self, detections: Sequence[DetectedObject], timestamp: float) -> List[Track]:
        """Ingest one frame of detections; returns the confirmed tracks.

        Association is greedy nearest-neighbour on predicted centroids with a
        gating radius, which matches the lightweight trackers used on top of
        euclidean clustering in practice.
        """
        dt = 0.0
        if self._last_timestamp is not None:
            dt = max(timestamp - self._last_timestamp, 0.0)
        self._last_timestamp = timestamp

        assignments = self._associate(detections, dt)
        matched_tracks = set()
        matched_detections = set()
        for track_id, detection_index in assignments:
            self._update_track(self._tracks[track_id], detections[detection_index], dt)
            matched_tracks.add(track_id)
            matched_detections.add(detection_index)

        for track_id, track in list(self._tracks.items()):
            if track_id in matched_tracks:
                continue
            track.misses += 1
            track.age += 1
            track.centroid = track.predict(dt)
            if track.misses > self.config.max_misses:
                del self._tracks[track_id]

        for detection_index, detection in enumerate(detections):
            if detection_index not in matched_detections:
                self._spawn_track(detection)

        return self.confirmed_tracks

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _associate(self, detections: Sequence[DetectedObject],
                   dt: float) -> List[Tuple[int, int]]:
        """Greedy gated nearest-neighbour assignment (track_id, detection_index).

        Every (track, detection) distance comes from one stacked
        ``(1, 3) @ (3, 1)`` product, which runs the dot routine
        ``np.linalg.norm`` uses on a single pair, so gating and ranking see
        the same distances.  Candidates go by distance, then track id, then
        detection index.
        """
        if not detections or not self._tracks:
            return []
        track_ids = np.fromiter(self._tracks, dtype=np.intp, count=len(self._tracks))
        predicted = np.array([track.predict(dt) for track in self._tracks.values()])
        centroids = np.array([detection.centroid for detection in detections], dtype=np.float64)
        offsets = predicted[:, None, :] - centroids[None, :, :]
        distances = np.sqrt((offsets[..., None, :] @ offsets[..., :, None])[..., 0, 0])
        rows, columns = np.nonzero(distances <= self.config.gating_distance)
        ranked = np.lexsort((columns, track_ids[rows], distances[rows, columns]))
        assignments: List[Tuple[int, int]] = []
        used_tracks: set = set()
        used_detections: set = set()
        for track_id, detection_index in zip(track_ids[rows[ranked]].tolist(),
                                             columns[ranked].tolist()):
            if track_id in used_tracks or detection_index in used_detections:
                continue
            assignments.append((track_id, detection_index))
            used_tracks.add(track_id)
            used_detections.add(detection_index)
        return assignments

    def _update_track(self, track: Track, detection: DetectedObject, dt: float) -> None:
        if dt > 0.0:
            instantaneous = (detection.centroid - track.centroid) / dt
            alpha = self.config.velocity_smoothing
            track.velocity = alpha * instantaneous + (1.0 - alpha) * track.velocity
        track.centroid = np.asarray(detection.centroid, dtype=np.float64)
        track.bbox = detection.bbox
        track.label = detection.label
        track.hits += 1
        track.misses = 0
        track.age += 1
        if track.hits >= self.config.confirmation_hits:
            track.confirmed = True

    def _spawn_track(self, detection: DetectedObject) -> None:
        track = Track(
            track_id=self._next_id,
            centroid=np.asarray(detection.centroid, dtype=np.float64),
            velocity=np.zeros(3),
            bbox=detection.bbox,
            label=detection.label,
            confirmed=self.config.confirmation_hits <= 1,
        )
        self._tracks[self._next_id] = track
        self._next_id += 1
