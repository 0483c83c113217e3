"""SharedCloudStore: one compressed point-cloud index, many processes.

Pickling a k-d tree to every worker process leaves one resident copy per
process; a *service* wants the opposite shape: one resident map serving a
fleet of worker processes.  This module puts an index — the
float32/float64 point arrays, the tree's flat node and leaf arrays
(:class:`~repro.kdtree.build.TreeArrays`) with every leaf's compressed
slice count, the Bonsai compressed-structure bytes and their decoded
mirror — into POSIX shared memory
(:mod:`multiprocessing.shared_memory`), so that

* the tree is built and compressed **exactly once**, by the creating
  process (``compression_pass_count()`` counts the pass), whose
  compression pass writes the decoded mirror straight into its segment,
  so no attached process ever decodes a leaf;
* any number of processes **attach by name** and get a fully functional
  :class:`~repro.kdtree.build.KDTree` whose arrays are all zero-copy views
  into the shared segments; the batched searches read only those arrays,
  and the per-query paths read the node fields as lists converted in a
  process only if it runs one of them;
* the **creator owns** the segments: the handle :meth:`SharedCloudStore.create`
  returns unlinks them when it closes, and an attached handle's ``close()``
  only drops its own mappings.

A store is three segments (``<name>-<suffix>``): ``meta`` (a pickled
layout), ``data`` (every array above but the mirror, at 8-byte aligned
offsets) and ``dec`` (the decoded mirror, which the compression pass
writes before the compressed size is known).

Lifecycle notes
---------------
``SharedMemory`` on CPython < 3.13 registers every mapping — creates *and*
attaches — with the ``resource_tracker``, which then unlinks segments when
any attaching process exits (bpo-38119).  The store unregisters every
mapping and unlinks only from the creator's ``close()`` (or its
``weakref.finalize`` safety net), so attacher exit order cannot destroy a
live store.  If the creator dies without closing (``SIGKILL``), its
segments stay behind; :meth:`SharedCloudStore.force_unlink` is the
supervisor-side cleanup for that case, and :meth:`SharedCloudStore.exists`
the probe.

On Linux, ``unlink`` removes the *name* while existing mappings stay valid,
so the creator can close while clients still hold attached trees — their
queries keep working, a later ``attach`` raises ``FileNotFoundError``, and
the memory is returned when the last mapping goes away.  ``close()``
therefore releases local mappings best-effort: a mapping still referenced
by live NumPy views is left to the garbage collector (the segment itself is
already unlinked, or is the creator's to unlink, so nothing leaks by name).
"""

from __future__ import annotations

import os
import pickle
import secrets
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.compressed_leaf import CompressedStructArray, compress_tree
from ..core.floatfmt import FLOAT16, FORMATS_BY_NAME, FloatFormat
from ..core.leaf_compression import LeafMirror
from ..kdtree.build import KDTree, KDTreeConfig, KDTreeStats, TreeArrays, build_kdtree

__all__ = ["SharedCloudStore"]

#: Suffixes of the segments one store is made of (``<name>-<suffix>``).
SEGMENT_SUFFIXES = ("meta", "data", "dec")


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Opt a mapping out of the resource tracker's unlink-at-exit.

    Both ``create=True`` and attach register with the tracker on
    CPython < 3.13 (bpo-38119); the creator unlinks the store itself, so a
    tracked mapping would tear the segment down under every other process
    the moment any one of them exits.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover  # repro-lint: disable=hygiene-broad-except -- tracker API drift; unregister is best-effort
        pass


def _unlink_segment(shm: shared_memory.SharedMemory) -> bool:
    """Unlink one segment without confusing the resource tracker.

    ``SharedMemory.unlink()`` unregisters the name from the tracker; the
    store unregistered it at mapping time already (see :func:`_untrack`), so
    re-register first — otherwise the tracker process logs a ``KeyError``
    for every unlink.
    """
    try:
        resource_tracker.register(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover  # repro-lint: disable=hygiene-broad-except -- tracker API drift; register is best-effort
        pass
    try:
        shm.unlink()  # unregisters again on success
        return True
    except FileNotFoundError:  # pragma: no cover - concurrent cleanup
        _untrack(shm)
        return False


def _array_layout(arrays: Dict[str, np.ndarray]) -> Tuple[list, int]:
    """Where each array goes in one segment: ``(name, dtype, shape, offset)``
    entries at 8-byte aligned offsets, and the segment size."""
    layout, offset = [], 0
    for name, array in arrays.items():
        layout.append((name, array.dtype.str, array.shape, offset))
        offset += -(-array.nbytes // 8) * 8
    return layout, offset


def _array_views(buffer, layout: list) -> Dict[str, np.ndarray]:
    """Read-only views of the arrays :func:`_array_layout` placed in ``buffer``."""
    views = {}
    for name, dtype, shape, offset in layout:
        view = np.ndarray(shape, dtype=dtype, buffer=buffer, offset=offset)
        view.flags.writeable = False
        views[name] = view
    return views


class SharedCloudStore:
    """A compressed point-cloud index resident in shared memory.

    Construct with :meth:`create` (builds + compresses the tree, one pass,
    and owns the segments) or :meth:`attach` (zero-copy attach by name).
    Both return a store whose :meth:`tree` / :meth:`index` reconstruct the
    k-d tree over the shared segments; :meth:`close` drops this handle's
    mappings, and the creator's also unlinks the segments.  Context-manager
    protocol supported (``with SharedCloudStore.create(points) as store: ...``).
    """

    def __init__(self, name: str, segments: Dict[str, shared_memory.SharedMemory],
                 *, owner: bool):
        self.name = name
        self._segments = segments
        self._owner = owner
        self._closed = False
        self._meta: Optional[dict] = None
        self._tree: Optional[KDTree] = None
        self._index = None
        # Safety net: a store dropped without close() still releases its
        # mappings, and the creator's still unlinks (finalizers may run at
        # interpreter shutdown, where this is attempted best-effort).
        self._finalizer = weakref.finalize(self, _finalize_store, segments, owner)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, cloud) -> "SharedCloudStore":
        """Build + compress the index once and publish it under a fresh name.

        ``cloud`` is anything :func:`~repro.kdtree.build.build_kdtree`
        accepts (built with the default tree config and compressed to
        FLOAT16), or an already-built :class:`KDTree`, which keeps its own
        config and, if already compressed, its float format.  The returned
        handle owns the segments.
        """
        tree = cloud if isinstance(cloud, KDTree) else build_kdtree(cloud)
        array = tree.compressed_array
        fmt = FLOAT16 if array is None else array.fmt
        name = f"repro-store-{os.getpid():x}-{secrets.token_hex(3)}"

        segments: Dict[str, shared_memory.SharedMemory] = {}

        def create_segment(suffix: str, size: int) -> shared_memory.SharedMemory:
            shm = shared_memory.SharedMemory(
                name=f"{name}-{suffix}", create=True, size=max(size, 1))
            _untrack(shm)
            segments[suffix] = shm
            return shm

        try:
            dec = create_segment(
                "dec", LeafMirror.nbytes(tree.n_points, tree.n_leaves, fmt))
            if array is None:
                compress_tree(tree, fmt, mirror_buffer=dec.buf)
                array = tree.compressed_array
            else:
                source = array.mirror
                mirror = LeafMirror.allocate(tree.n_points, tree.n_leaves, fmt,
                                             dec.buf)
                mirror.starts[:] = source.starts
                mirror.reduced[:] = source.reduced
                mirror.max_delta[:] = source.max_delta

            arrays = {
                "points32": np.ascontiguousarray(tree.points, dtype=np.float32),
                "points64": np.ascontiguousarray(tree.points_f64, dtype=np.float64),
                **tree.arrays.as_dict(),
                "n_slices": array.n_slices,
                "compressed": np.frombuffer(array.data, dtype=np.uint8),
            }
            layout, data_bytes = _array_layout(arrays)
            meta = {
                "fmt_name": fmt.name,
                "max_leaf_size": int(tree.config.max_leaf_size),
                "stats": (int(tree.stats.n_points), int(tree.stats.n_leaves),
                          int(tree.stats.n_interior), int(tree.stats.max_depth)),
                "layout": layout,
            }
            meta_blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
            create_segment("meta", len(meta_blob)).buf[:len(meta_blob)] = meta_blob
            data = create_segment("data", data_bytes)
            for field, dtype, shape, offset in layout:
                np.ndarray(shape, dtype=dtype, buffer=data.buf,
                           offset=offset)[...] = arrays[field]
        except BaseException:
            for shm in segments.values():
                _unlink_segment(shm)
                shm.close()
            raise

        store = cls(name, segments, owner=True)
        store._meta = meta
        return store

    @classmethod
    def attach(cls, name: str) -> "SharedCloudStore":
        """Attach to an existing store by name (zero-copy).

        The attached handle's ``close()`` only drops its own mappings; the
        segments stay the creator's to unlink.
        """
        segments: Dict[str, shared_memory.SharedMemory] = {}
        try:
            for suffix in SEGMENT_SUFFIXES:
                shm = shared_memory.SharedMemory(name=f"{name}-{suffix}")
                _untrack(shm)
                segments[suffix] = shm
        except BaseException:
            for shm in segments.values():
                shm.close()
            raise
        return cls(name, segments, owner=False)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this handle's mappings; the creator's also unlinks (idempotent).

        Local mappings are released best-effort: NumPy views handed out by
        :meth:`tree` keep their segments mapped until they are collected,
        which is safe — the names are unlinked (or the creator's to unlink)
        and the mappings stay valid until then.
        """
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _release_store(self._segments, self._owner)
        self._tree = None
        self._index = None

    def __enter__(self) -> "SharedCloudStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @classmethod
    def exists(cls, name: str) -> bool:
        """Whether a store named ``name`` is currently published."""
        try:
            shm = shared_memory.SharedMemory(name=f"{name}-meta")
        except FileNotFoundError:
            return False
        _untrack(shm)
        shm.close()
        return True

    @classmethod
    def force_unlink(cls, name: str) -> bool:
        """Unlink every segment of ``name`` that is still published.

        Supervisor-side cleanup for a store whose creator died without
        closing (``SIGKILL``).  Returns ``True`` when at least one segment
        was removed.
        """
        removed = False
        for suffix in SEGMENT_SUFFIXES:
            try:
                shm = shared_memory.SharedMemory(name=f"{name}-{suffix}")
            except FileNotFoundError:
                continue
            _untrack(shm)
            if _unlink_segment(shm):
                removed = True
            shm.close()
        return removed

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def _metadata(self) -> dict:
        if self._meta is None:
            self._meta = pickle.loads(bytes(self._segments["meta"].buf))
        return self._meta

    def tree(self) -> KDTree:
        """The shared k-d tree (created once per handle, zero-copy).

        Point arrays, the tree's flat arrays, the compressed-structure bytes
        and their decoded mirror are read-only views into the shared
        segments; nothing is rebuilt per process, and the node lists
        (:attr:`~repro.kdtree.build.KDTree.node_lists`) are only converted
        if a per-query path asks for them.  The tree is
        pre-compressed (``compressed_array`` is a
        :class:`CompressedStructArray` over the segments).
        """
        if self._closed:
            raise ValueError(f"shared store {self.name!r} is closed")
        if self._tree is None:
            meta = self._metadata()
            views = _array_views(self._segments["data"].buf, meta["layout"])
            points32 = views.pop("points32")
            points64 = views.pop("points64")
            n_slices = views.pop("n_slices")
            blob = views.pop("compressed")
            arrays = TreeArrays(**views)
            tree = KDTree(points32, arrays,
                          KDTreeConfig(max_leaf_size=meta["max_leaf_size"]),
                          KDTreeStats(*meta["stats"]), points_f64=points64)
            fmt = FORMATS_BY_NAME[meta["fmt_name"]]
            mirror = LeafMirror.allocate(len(points32), arrays.n_leaves, fmt,
                                         self._segments["dec"].buf)
            for view in (mirror.reduced, mirror.max_delta, mirror.starts):
                view.flags.writeable = False
            tree.compressed_array = CompressedStructArray(
                fmt, data=blob, mirror=mirror, n_slices=n_slices)
            tree._shared_store = self  # keep the mappings alive with the tree
            self._tree = tree
        return self._tree

    def index(self):
        """A :class:`~repro.engine.index.PointCloudIndex` over the shared tree.

        Cached per handle.  The tree is already compressed, so every Bonsai
        backend runs without a local compression pass, and every backend
        name works unchanged.
        """
        if self._index is None:
            from ..engine.index import PointCloudIndex

            self._index = PointCloudIndex(self.tree())
        return self._index

    @property
    def fmt(self) -> FloatFormat:
        return FORMATS_BY_NAME[self._metadata()["fmt_name"]]

    @property
    def n_points(self) -> int:
        return self._metadata()["stats"][0]

    @property
    def n_leaves(self) -> int:
        return self._metadata()["stats"][1]


def _release_store(segments: Dict[str, shared_memory.SharedMemory],
                   unlink: bool) -> None:
    """Unlink every segment when ``unlink`` (the creator), then drop the
    local mappings."""
    if unlink:
        for shm in segments.values():
            _unlink_segment(shm)
    for shm in segments.values():
        try:
            shm.close()
        except BufferError:
            # A NumPy view into this segment is still alive; the mapping is
            # released when the view is collected.  The name is unlinked
            # already (or is the creator's to unlink), so nothing leaks.
            pass


def _finalize_store(segments: Dict[str, shared_memory.SharedMemory],
                    unlink: bool) -> None:
    """weakref.finalize hook: best-effort close of an abandoned handle."""
    try:
        _release_store(segments, unlink)
    except Exception:  # pragma: no cover  # repro-lint: disable=hygiene-broad-except -- shutdown finalizer must never raise
        pass
