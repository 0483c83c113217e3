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
* the segments are **refcounted**: every refcounted attach increments a
  counter in the control segment under an advisory file lock, every
  ``close()`` decrements it, and the last closer unlinks all segments.
  Pool workers use *borrowed* (non-refcounted) attaches because
  ``Pool.terminate()`` kills them without running any teardown.

Lifecycle notes
---------------
``SharedMemory`` on CPython < 3.13 registers every mapping — creates *and*
attaches — with the ``resource_tracker``, which then unlinks segments when
any attaching process exits (bpo-38119).  The store unregisters every
mapping and manages unlinking purely through its own refcount, so attacher
exit order cannot destroy a live store.  If a refcounted holder dies without
closing (``SIGKILL``), the refcount never reaches zero;
:meth:`SharedCloudStore.force_unlink` is the supervisor-side cleanup for
that case, and :meth:`SharedCloudStore.exists` the probe.

On Linux, ``unlink`` removes the *name* while existing mappings stay valid,
so a store can be unlinked while clients still hold attached trees — their
queries keep working and the memory is returned when the last mapping goes
away.  ``close()`` therefore releases local mappings best-effort: a mapping
still referenced by live NumPy views is left to the garbage collector
(the segment itself is already unlinked, so nothing leaks by name).
"""

from __future__ import annotations

import os
import pickle
import secrets
import struct
import weakref
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

try:  # Advisory locking of the refcount; POSIX only (Linux/macOS).
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..core.compressed_leaf import CompressedStructArray, compress_tree
from ..core.floatfmt import FLOAT16, FORMATS_BY_NAME, FloatFormat
from ..core.leaf_compression import LeafMirror
from ..kdtree.build import KDTree, KDTreeConfig, KDTreeStats, TreeArrays, build_kdtree

__all__ = ["SharedCloudStore"]

#: Suffixes of the segments one store is made of (``<name>-<suffix>``);
#: ``tree`` holds the tree's flat arrays and every leaf's slice count,
#: ``dec`` the decoded mirror of the compressed leaves.
SEGMENT_SUFFIXES = ("ctrl", "meta", "pts32", "pts64", "tree", "cmp", "dec")

#: Control-segment layout: one little-endian int64 refcount.
_CTRL_BYTES = 8


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Opt a mapping out of the resource tracker's unlink-at-exit.

    Both ``create=True`` and attach register with the tracker on
    CPython < 3.13 (bpo-38119); the store refcounts unlinking itself, so a
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

    Construct with :meth:`create` (builds + compresses the tree, one pass)
    or :meth:`attach` (zero-copy attach by name).  Both return a store whose
    :meth:`tree` / :meth:`index` reconstruct the k-d tree over the shared
    segments; :meth:`close` drops this handle's reference and the last
    refcounted closer unlinks the segments.  Context-manager protocol
    supported (``with SharedCloudStore.create(points) as store: ...``).
    """

    def __init__(self, name: str, segments: Dict[str, shared_memory.SharedMemory],
                 *, refcounted: bool, owner: bool):
        self.name = name
        self._segments = segments
        self._refcounted = refcounted
        self._owner = owner
        self._closed = False
        self._meta: Optional[dict] = None
        self._tree: Optional[KDTree] = None
        self._index = None
        # Safety net: a store dropped without close() must still give its
        # reference back (finalizers may run at interpreter shutdown, where
        # the decrement is attempted best-effort).
        self._finalizer = weakref.finalize(
            self, _finalize_store, name, segments, refcounted)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, cloud, *, name: Optional[str] = None,
               tree_config: Optional[KDTreeConfig] = None,
               fmt: FloatFormat = FLOAT16) -> "SharedCloudStore":
        """Build + compress the index once and publish it under ``name``.

        ``cloud`` is anything :func:`~repro.kdtree.build.build_kdtree`
        accepts, or an already-built :class:`KDTree` (compressed here if it
        is not yet).  The creator holds the first reference.
        """
        if isinstance(cloud, KDTree):
            tree = cloud
        else:
            tree = build_kdtree(cloud, tree_config)
        array = tree.compressed_array
        if array is not None:
            fmt = array.fmt
        name = name or f"repro-store-{os.getpid():x}-{secrets.token_hex(3)}"

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

            points32 = np.ascontiguousarray(tree.points, dtype=np.float32)
            points64 = np.ascontiguousarray(tree.points_f64, dtype=np.float64)
            tree_arrays = {**tree.arrays.as_dict(), "n_slices": array.n_slices}
            layout, tree_bytes = _array_layout(tree_arrays)
            blob = array.data

            meta = {
                "fmt_name": fmt.name,
                "n_points": int(tree.n_points),
                "max_leaf_size": int(tree.config.max_leaf_size),
                "stats": (int(tree.stats.n_points), int(tree.stats.n_leaves),
                          int(tree.stats.n_interior), int(tree.stats.max_depth)),
                "tree_layout": layout,
                "compressed_bytes": int(array.total_bytes),
            }
            meta_blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
            for suffix, size in (("ctrl", _CTRL_BYTES), ("meta", len(meta_blob)),
                                 ("pts32", points32.nbytes),
                                 ("pts64", points64.nbytes),
                                 ("tree", tree_bytes), ("cmp", len(blob))):
                create_segment(suffix, size)
        except BaseException:
            for shm in segments.values():
                _unlink_segment(shm)
                shm.close()
            raise

        segments["meta"].buf[:len(meta_blob)] = meta_blob
        np.ndarray(points32.shape, dtype=np.float32,
                   buffer=segments["pts32"].buf)[:] = points32
        np.ndarray(points64.shape, dtype=np.float64,
                   buffer=segments["pts64"].buf)[:] = points64
        for field, _, shape, offset in layout:
            source = tree_arrays[field]
            np.ndarray(shape, dtype=source.dtype, buffer=segments["tree"].buf,
                       offset=offset)[...] = source
        if blob:
            segments["cmp"].buf[:len(blob)] = blob
        struct.pack_into("<q", segments["ctrl"].buf, 0, 1)

        store = cls(name, segments, refcounted=True, owner=True)
        store._meta = meta
        return store

    @classmethod
    def attach(cls, name: str, *, refcounted: bool = True) -> "SharedCloudStore":
        """Attach to an existing store by name (zero-copy).

        With ``refcounted=False`` the attach is *borrowed*: the refcount is
        untouched and ``close()`` only drops the local mappings.  Borrowed
        attaches are for processes whose lifetime is bounded by a refcounted
        holder — pool workers killed by ``Pool.terminate()`` — and must
        never outlive the store.
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
        store = cls(name, segments, refcounted=refcounted, owner=False)
        if refcounted:
            with store._locked():
                count = store._read_refcount()
                if count < 1:
                    # The last holder unlinked between our attach and the
                    # lock: the mapping is a ghost.  Refuse it.
                    store._refcounted = False
                    store.close()
                    raise FileNotFoundError(
                        f"shared store {name!r} was unlinked during attach")
                store._write_refcount(count + 1)
        return store

    # ------------------------------------------------------------------
    # Refcount plumbing
    # ------------------------------------------------------------------
    @contextmanager
    def _locked(self):
        """Advisory exclusive lock over the control segment.

        Serialises attach-increment against close-decrement-and-unlink so an
        attacher can never grab a store between "refcount hit zero" and
        "segments unlinked".
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        fd = self._segments["ctrl"]._fd  # type: ignore[attr-defined]
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)

    def _read_refcount(self) -> int:
        return struct.unpack_from("<q", self._segments["ctrl"].buf, 0)[0]

    def _write_refcount(self, value: int) -> None:
        struct.pack_into("<q", self._segments["ctrl"].buf, 0, value)

    @property
    def refcount(self) -> int:
        """Current number of refcounted holders (read under the lock)."""
        with self._locked():
            return self._read_refcount()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this handle's reference; the last closer unlinks (idempotent).

        Local mappings are released best-effort: NumPy views handed out by
        :meth:`tree` keep their segments mapped until they are collected,
        which is safe — by then the segments are already unlinked by name.
        """
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _release_store(self.name, self._segments, self._refcounted)
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
            shm = shared_memory.SharedMemory(name=f"{name}-ctrl")
        except FileNotFoundError:
            return False
        _untrack(shm)
        shm.close()
        return True

    @classmethod
    def force_unlink(cls, name: str) -> bool:
        """Unlink every segment of ``name`` regardless of refcount.

        Supervisor-side cleanup for stores orphaned by killed holders (a
        ``SIGKILL``-ed refcounted attacher can never decrement).  Returns
        ``True`` when at least one segment was removed.
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
            n_points = meta["n_points"]
            points32 = np.ndarray((n_points, 3), dtype=np.float32,
                                  buffer=self._segments["pts32"].buf)
            points64 = np.ndarray((n_points, 3), dtype=np.float64,
                                  buffer=self._segments["pts64"].buf)
            points32.flags.writeable = False
            points64.flags.writeable = False
            views = _array_views(self._segments["tree"].buf, meta["tree_layout"])
            n_slices = views.pop("n_slices")
            arrays = TreeArrays(**views)
            tree = KDTree(points32, arrays,
                          KDTreeConfig(max_leaf_size=meta["max_leaf_size"]),
                          KDTreeStats(*meta["stats"]), points_f64=points64)
            fmt = FORMATS_BY_NAME[meta["fmt_name"]]
            blob = np.ndarray((meta["compressed_bytes"],), dtype=np.uint8,
                              buffer=self._segments["cmp"].buf)
            mirror = LeafMirror.allocate(n_points, arrays.n_leaves, fmt,
                                         self._segments["dec"].buf)
            for view in (blob, mirror.reduced, mirror.max_delta, mirror.starts):
                view.flags.writeable = False
            tree.compressed_array = CompressedStructArray(
                fmt, data=blob, mirror=mirror, n_slices=n_slices)
            tree._shared_store = self  # keep the mappings alive with the tree
            self._tree = tree
        return self._tree

    def index(self):
        """A :class:`~repro.engine.index.PointCloudIndex` over the shared tree.

        Cached per handle.  The tree is already compressed, so every Bonsai
        backend runs without a local compression pass, and every registry
        name works unchanged.
        """
        if self._index is None:
            from ..engine.index import PointCloudIndex

            meta = self._metadata()
            self._index = PointCloudIndex(
                self.tree(), fmt=FORMATS_BY_NAME[meta["fmt_name"]])
        return self._index

    @property
    def fmt(self) -> FloatFormat:
        return FORMATS_BY_NAME[self._metadata()["fmt_name"]]

    @property
    def n_points(self) -> int:
        return self._metadata()["n_points"]

    @property
    def n_leaves(self) -> int:
        return self._metadata()["stats"][1]


def _release_store(name: str,
                   segments: Dict[str, shared_memory.SharedMemory],
                   refcounted: bool) -> None:
    """Decrement (refcounted handles), unlink on zero, drop local mappings."""
    unlink = False
    if refcounted:
        ctrl = segments["ctrl"]
        if fcntl is not None:
            fcntl.flock(ctrl._fd, fcntl.LOCK_EX)  # type: ignore[attr-defined]
        try:
            count = struct.unpack_from("<q", ctrl.buf, 0)[0] - 1
            struct.pack_into("<q", ctrl.buf, 0, count)
            unlink = count <= 0
            if unlink:
                for shm in segments.values():
                    _unlink_segment(shm)
        finally:
            if fcntl is not None:
                fcntl.flock(ctrl._fd, fcntl.LOCK_UN)  # type: ignore[attr-defined]
    for shm in segments.values():
        try:
            shm.close()
        except BufferError:
            # A NumPy view into this segment is still alive; the mapping is
            # released when the view is collected.  Unlinking already
            # happened (or is another holder's job), so nothing leaks.
            pass


def _finalize_store(name: str,
                    segments: Dict[str, shared_memory.SharedMemory],
                    refcounted: bool) -> None:
    """weakref.finalize hook: best-effort close of an abandoned handle."""
    try:
        _release_store(name, segments, refcounted)
    except Exception:  # pragma: no cover  # repro-lint: disable=hygiene-broad-except -- shutdown finalizer must never raise
        pass
