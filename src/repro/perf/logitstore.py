"""Version-keyed memoization of full-graph inference outputs.

Transductive inference is deterministic (dropout off, fixed weights,
fixed graph), and a full-graph forward already computes logits for every
node — so once one request has paid for the forward, every later request
against the *same model version* is a pure row lookup.  This module
provides the store that makes that safe:

- :func:`model_fingerprint` digests a model's parameters, so a
  checkpoint reload or in-place weight mutation produces a different
  version and can never alias a stale entry;
- :class:`LogitStore` maps a *version key* — ``(model fingerprint,
  adjacency fingerprint, feature fingerprint, perf-mode settings)`` —
  to the full ``(N, C)`` logit matrix, LRU-evicted under both an entry
  count and a byte budget so a server that hot-swaps many versions
  stays bounded in memory;
- :class:`SharedLogitStore` is the *cross-process* backend: the same
  ``get``/``put``/``invalidate_version`` contract over a fixed-slot
  ``multiprocessing.shared_memory`` segment, so every replica of a
  serving fleet reads the matrix one replica's cold forward produced.
  A miss doubles as **leader election**: the first process to miss a
  key leases its slot and computes, while sibling processes' ``get``
  calls wait (bounded) for the leased slot to become ready — a
  stampede against N replicas still runs one forward fleet-wide.
  Leases carry the holder's pid and a timestamp, so a leader SIGKILLed
  mid-forward never wedges the fleet: waiters time out and the next
  miss reclaims the expired lease.

Entries are stored read-only (callers receive the shared array and must
not mutate it) and the store is thread-safe: the serving layer consults
it from every request worker thread.  :meth:`LogitStore.put_rows`
repairs rows in place when it can: an entry the store allocated itself
and has never handed out whole is private, so writing ``k`` rows costs
O(k); an entry that was handed out (the array :meth:`~LogitStore.put`
returns, or :meth:`~LogitStore.get`) is copied once, and the copy is
private again.  Row reads (:meth:`~LogitStore.get_rows`) return copies
taken under the store lock, so no reader sees a row change under it.

The serving integration lives in :mod:`repro.serve.engine`; the
single-flight and micro-batching companions in
:mod:`repro.serve.fastpath`; the fleet wiring in
:mod:`repro.serve.fleet`.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "LogitStore",
    "SharedLogitStore",
    "model_fingerprint",
    "operator_fingerprint",
    "get_logit_store",
]


def model_fingerprint(model) -> str:
    """Content digest of a model's parameters (names, dtypes, bytes).

    Two models agree iff every named parameter agrees bit-for-bit, which
    is exactly the condition under which their eval-mode forwards agree
    — the fingerprint is what keys memoized logits to a model *version*
    rather than a model *object*.
    """
    digest = hashlib.sha1()
    for name, param in sorted(model.named_parameters()):
        data = np.ascontiguousarray(param.data)
        digest.update(name.encode())
        digest.update(str(data.dtype).encode())
        digest.update(np.asarray(data.shape, dtype=np.int64).tobytes())
        digest.update(data.tobytes())
    return digest.hexdigest()


def operator_fingerprint(operator) -> Optional[str]:
    """Content digest of a message-passing operator, or None.

    Handles the two operator shapes the models produce: a bare
    :class:`~repro.tensor.sparse.SparseMatrix` (GCN/SGC-style ``Â``) and
    wrapper objects that carry one as ``.adj`` plus an optional
    ``.edges`` id array (Lasagne's :class:`LasagneOperator`).  Returns
    ``None`` for anything else — an unfingerprintable operator makes a
    request ineligible for memoization, never incorrect.
    """
    from repro.tensor.sparse import SparseMatrix

    if isinstance(operator, SparseMatrix):
        return operator.fingerprint
    inner = getattr(operator, "adj", None)
    if isinstance(inner, SparseMatrix):
        digest = hashlib.sha1(inner.fingerprint.encode())
        edges = getattr(operator, "edges", None)
        if edges is not None:
            edges = np.ascontiguousarray(edges)
            digest.update(str(edges.dtype).encode())
            digest.update(edges.tobytes())
        return digest.hexdigest()
    return None


class LogitStore:
    """LRU store of full-graph logit matrices, keyed by version.

    Keys are tuples whose first element is the producing model's version
    fingerprint (see :meth:`invalidate_version`); values are dense
    ``(N, C)`` float arrays.  Eviction is LRU under two simultaneous
    bounds — ``max_entries`` and ``max_bytes`` — and a single matrix
    larger than the byte budget is refused outright rather than evicting
    everything else to make room.
    """

    def __init__(self, max_entries: int = 8, max_bytes: int = 64 << 20) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        #: Per-entry boolean stale-row masks (row-level invalidation).
        #: Absent key == fully clean entry.
        self._stale: Dict[Tuple, np.ndarray] = {}
        #: Keys whose buffer the store allocated and never handed out
        #: whole, so :meth:`put_rows` may write into it in place.
        self._private: set = set()
        self._bytes = 0
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0
        self.invalidations = 0
        self.row_invalidations = 0
        self.partial_puts = 0

    # ------------------------------------------------------------------
    def get(self, key: Tuple) -> Optional[np.ndarray]:
        """The memoized logits for ``key`` (shared, read-only) or None.

        An entry with *any* stale rows is a miss here — the full matrix
        can't be served whole — and the caller's fresh :meth:`put`
        replaces it and clears the mask.  Use :meth:`get_rows` to keep
        serving the clean rows of a partially invalidated entry.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or key in self._stale:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return self._hand_out(key, entry)

    def get_rows(self, key: Tuple, nodes) -> Optional[np.ndarray]:
        """Rows ``nodes`` of the entry, or None if absent/any row stale.

        The row-level warm path: after :meth:`invalidate_rows` marked
        part of an entry stale, requests touching only clean rows keep
        hitting; a request touching a stale row misses and triggers a
        recompute upstream.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            nodes = np.asarray(nodes)
            mask = self._stale.get(key)
            if mask is not None and mask[nodes].any():
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[nodes]

    def put(self, key: Tuple, logits: np.ndarray) -> np.ndarray:
        """Store ``logits`` under ``key``; returns the shared entry.

        The array is marked read-only in place (it came off a no-grad
        forward and has no other owner).  Oversized matrices are counted
        in ``rejected`` and returned unstored — the caller still has a
        perfectly good result, it just won't be memoized.
        """
        size = int(logits.nbytes)
        if size > self.max_bytes:
            with self._lock:
                self.rejected += 1
            return logits
        logits.setflags(write=False)
        with self._lock:
            self._insert(key, logits)
            return logits

    def _insert(self, key: Tuple, entry: np.ndarray) -> None:
        """Replace ``key``'s entry (fully clean, not private), then evict."""
        old = self._entries.pop(key, None)
        self._stale.pop(key, None)
        self._private.discard(key)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[key] = entry
        self._bytes += entry.nbytes
        while self._entries and (
            len(self._entries) > self.max_entries
            or self._bytes > self.max_bytes
        ):
            evicted_key, evicted = self._entries.popitem(last=False)
            self._stale.pop(evicted_key, None)
            self._private.discard(evicted_key)
            self._bytes -= evicted.nbytes
            self.evictions += 1

    def _hand_out(self, key: Tuple, entry: np.ndarray) -> np.ndarray:
        """``entry`` for a caller to keep: frozen, and no longer private."""
        if key in self._private:
            self._private.discard(key)
            entry.setflags(write=False)
        return entry

    def put_rows(self, key: Tuple, nodes, rows: np.ndarray, num_rows: int) -> bool:
        """Store only rows ``nodes`` under ``key``; other rows stay stale.

        The union-restricted micro-batch path computes logits for a
        small node union instead of the full ``(N, C)`` matrix; this
        warms the store with exactly those rows.  A fresh key gets a
        zero buffer whose stale mask covers everything *except*
        ``nodes`` (so :meth:`get` still misses whole, but
        :meth:`get_rows` hits for the warmed rows); an existing entry
        keeps serving its clean rows while ``nodes`` are overwritten and
        un-staled.  The write goes in place into a private entry, and
        into a one-time copy of an entry that was handed out whole (see
        the module docstring), so an array a caller holds never changes.
        Returns True once stored, False if a full-size matrix would
        exceed the byte budget (nothing is stored; the caller still has
        its rows).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        rows = np.ascontiguousarray(rows)
        if rows.ndim != 2 or rows.shape[0] != nodes.shape[0]:
            raise ValueError(
                f"rows shape {rows.shape} does not match "
                f"{nodes.shape[0]} nodes"
            )
        size = int(rows.dtype.itemsize) * int(num_rows) * int(rows.shape[1])
        if size > self.max_bytes:
            with self._lock:
                self.rejected += 1
            return False
        with self._lock:
            self.partial_puts += 1
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry.shape == (num_rows, rows.shape[1])
                and entry.dtype == rows.dtype
            ):
                if key not in self._private:
                    entry = entry.copy()  # same nbytes: no accounting
                    self._entries[key] = entry
                    self._private.add(key)
                entry[nodes] = rows
                mask = self._stale.get(key)
                if mask is not None:
                    mask[nodes] = False
                    if not mask.any():
                        del self._stale[key]
                self._entries.move_to_end(key)
                return True
            buf = np.zeros((num_rows, rows.shape[1]), dtype=rows.dtype)
            buf[nodes] = rows
            mask = np.ones(num_rows, dtype=bool)
            mask[nodes] = False
            self._insert(key, buf)
            self._private.add(key)
            if mask.any():
                self._stale[key] = mask
            return True

    # ------------------------------------------------------------------
    def invalidate_version(self, version: str) -> int:
        """Drop every entry produced by model ``version``; returns count.

        Called on checkpoint reload / model swap *before* the new
        version starts serving, so a stale logit matrix can never be
        returned for the swapped-out weights.
        """
        with self._lock:
            stale = [k for k in self._entries if k and k[0] == version]
            for key in stale:
                self._bytes -= self._entries.pop(key).nbytes
                self._stale.pop(key, None)
                self._private.discard(key)
            self.invalidations += len(stale)
            return len(stale)

    def invalidate_rows(self, version: str, node_ids) -> int:
        """Mark rows ``node_ids`` stale in every entry of ``version``.

        The graph-mutation path: instead of nuking a version whose
        logits changed for a handful of nodes, only those rows stop
        serving (:meth:`get_rows` misses on them, :meth:`get` treats
        the whole entry as a miss) while untouched warm rows keep
        hitting.  Returns the number of entries touched.  Node ids at
        or beyond an entry's row count are ignored for that entry.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        with self._lock:
            touched = 0
            for key, entry in self._entries.items():
                if not key or key[0] != version:
                    continue
                rows = node_ids[node_ids < entry.shape[0]]
                if rows.size == 0:
                    continue
                mask = self._stale.get(key)
                if mask is None:
                    mask = np.zeros(entry.shape[0], dtype=bool)
                    self._stale[key] = mask
                mask[rows] = True
                touched += 1
            self.row_invalidations += touched
            return touched

    def migrate(self, old_key: Tuple, new_key: Tuple, stale_rows=None) -> bool:
        """Move an entry to a new key, marking ``stale_rows`` stale.

        The graph-mutation path rekeys a warm entry from the
        pre-mutation ``(version, adj_fp, feat_fp, ...)`` key to the
        post-mutation one so clean rows keep serving across the update;
        the dirty rows (within the model's receptive field of the
        change) arrive stale and are repaired by the next full forward.
        Returns False (and drops nothing) if ``old_key`` is absent;
        drops the entry and returns False if a stale row id is out of
        range for it (the mutation grew the graph, so the matrix shape
        no longer matches).
        """
        with self._lock:
            entry = self._entries.get(old_key)
            if entry is None:
                return False
            stale_rows = np.asarray(
                [] if stale_rows is None else stale_rows, dtype=np.int64
            )
            mask = self._stale.pop(old_key, None)
            private = old_key in self._private
            self._private.discard(old_key)
            self._entries.pop(old_key)
            self._bytes -= entry.nbytes
            if stale_rows.size and stale_rows.max() >= entry.shape[0]:
                self.invalidations += 1
                return False
            if mask is None:
                mask = np.zeros(entry.shape[0], dtype=bool)
            mask[stale_rows] = True
            self._entries[new_key] = entry
            self._entries.move_to_end(new_key)
            self._bytes += entry.nbytes
            if private:
                self._private.add(new_key)
            if mask.any():
                self._stale[new_key] = mask
            return True

    def keys(self):
        """Snapshot of the stored keys (newest last)."""
        with self._lock:
            return list(self._entries.keys())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._stale.clear()
            self._private.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.rejected = 0
            self.invalidations = 0
            self.row_invalidations = 0
            self.partial_puts = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes

    def info(self) -> Dict:
        """JSON-friendly view for ``/metrics`` and bench output."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "rejected": self.rejected,
                "invalidations": self.invalidations,
                "row_invalidations": self.row_invalidations,
                "partial_puts": self.partial_puts,
            }

    def __repr__(self) -> str:
        return (
            f"LogitStore(entries={len(self)}, bytes={self.nbytes}, "
            f"hits={self.hits}, misses={self.misses})"
        )


# ---------------------------------------------------------------------------
# Cross-process backend (multiprocessing.shared_memory)
# ---------------------------------------------------------------------------

#: Slot states in the shared segment.
_EMPTY, _LEASED, _READY = 0, 1, 2

#: Supported logit dtypes (code <-> numpy dtype); anything else is
#: rejected (unstored), never stored lossily.
_DTYPE_CODES = {1: np.dtype(np.float64), 2: np.dtype(np.float32)}
_DTYPE_BY_NAME = {dt.name: code for code, dt in _DTYPE_CODES.items()}


def _key_digest(key: Tuple) -> bytes:
    return hashlib.sha1(repr(key).encode("utf-8")).digest()


def _version_digest(version) -> bytes:
    return hashlib.sha1(str(version).encode("utf-8")).digest()


class SharedLogitStore:
    """A :class:`LogitStore` backed by a shared-memory segment.

    Layout: one global header (magic, geometry, fleet-wide counters)
    followed by ``slots`` fixed-size slots, each a 64-byte header
    (state, dtype, holder pid, key digest, version digest, shape,
    timestamp) plus ``slot_bytes`` of matrix payload.  All index
    operations happen under one cross-process lock (payload copies are
    tens of kilobytes, so holding it through the memcpy is cheap); the
    *wait* for another process's lease happens outside the lock.

    Leader election / coalescing semantics of :meth:`get`:

    - slot READY with a matching key → return a private copy (hit);
    - no slot → lease one (state LEASED, our pid, now) and return
      ``None``: **the caller just became the fleet-wide leader** and is
      expected to compute and :meth:`put`;
    - slot LEASED by *this* process → return ``None`` immediately (the
      in-process :class:`~repro.serve.SingleFlight` already coalesces
      threads; waiting here would deadlock the leader's siblings);
    - slot LEASED by another live lease → poll until READY, up to
      ``wait_s``; on success that's a coalesced cross-process hit, on
      timeout return ``None`` and compute redundantly (correctness
      never depends on the leader surviving);
    - slot LEASED but expired (``lease_ttl_s``) → the leader died
      mid-forward; reclaim the lease and return ``None``.

    The segment is created once by the fleet parent (``create=True``)
    and inherited by forked workers, so a SIGKILLed replica's mapping
    is cleaned up by the kernel and the segment lives exactly as long
    as the parent.  ``lock`` must be a ``multiprocessing.Lock`` shared
    the same way.
    """

    _MAGIC = b"RLS1"
    _HEADER = struct.Struct("<4sIQQQQQQQQ")  # magic, slots, slot_bytes, 7 ctrs
    _SLOT = struct.Struct("<BB2xI20s20sIId")  # state dtype pid key ver r c ts

    def __init__(
        self,
        name: Optional[str] = None,
        *,
        slots: int = 8,
        slot_bytes: int = 8 << 20,
        lock=None,
        create: bool = True,
        lease_ttl_s: float = 30.0,
        wait_s: float = 2.0,
        poll_s: float = 0.002,
    ) -> None:
        from multiprocessing import Lock as MpLock
        from multiprocessing import shared_memory

        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if slot_bytes < 1024:
            raise ValueError(f"slot_bytes must be >= 1024, got {slot_bytes}")
        self.slots = slots
        self.slot_bytes = int(slot_bytes)
        self.lease_ttl_s = lease_ttl_s
        self.wait_s = wait_s
        self.poll_s = poll_s
        self._lock = lock if lock is not None else MpLock()
        size = self._HEADER.size + slots * (self._SLOT.size + self.slot_bytes)
        if create:
            self._shm = shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
            self._shm.buf[: self._HEADER.size] = self._HEADER.pack(
                self._MAGIC, slots, self.slot_bytes, 0, 0, 0, 0, 0, 0, 0
            )
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            magic, got_slots, got_bytes = self._HEADER.unpack_from(
                self._shm.buf, 0
            )[:3]
            if magic != self._MAGIC:
                raise ValueError(f"segment {name!r} is not a SharedLogitStore")
            self.slots, self.slot_bytes = got_slots, got_bytes
        self.created = create
        # Per-process counters (the shared header carries fleet-wide ones).
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self.lease_timeouts = 0

    # -- low-level segment access (caller holds self._lock) ------------
    @property
    def name(self) -> str:
        return self._shm.name

    def _slot_offset(self, idx: int) -> int:
        return self._HEADER.size + idx * (self._SLOT.size + self.slot_bytes)

    def _read_slot(self, idx: int) -> tuple:
        return self._SLOT.unpack_from(self._shm.buf, self._slot_offset(idx))

    def _write_slot(
        self, idx, state, dtype_code, pid, key_d, ver_d, rows, cols, ts
    ) -> None:
        self._SLOT.pack_into(
            self._shm.buf, self._slot_offset(idx),
            state, dtype_code, pid, key_d, ver_d, rows, cols, ts,
        )

    def _bump(self, counter: int, by: int = 1) -> None:
        """Increment shared header counter ``counter`` (0-based, of 7)."""
        offset = 16 + 8 * counter  # magic(4) + slots(4) + slot_bytes(8)
        (value,) = struct.unpack_from("<Q", self._shm.buf, offset)
        struct.pack_into("<Q", self._shm.buf, offset, value + by)

    def _shared_counters(self) -> Dict[str, int]:
        fields = self._HEADER.unpack_from(self._shm.buf, 0)
        names = (
            "puts", "leases", "coalesced_hits", "lease_expirations",
            "evictions", "invalidations", "clears",
        )
        return dict(zip(names, fields[3:]))

    _PUTS, _LEASES, _COALESCED, _EXPIRED, _EVICTED, _INVALIDATED, _CLEARS = (
        range(7)
    )

    def _find(self, key_d: bytes) -> Optional[int]:
        for idx in range(self.slots):
            state, _, _, slot_key, _, _, _, _ = self._read_slot(idx)
            if state != _EMPTY and slot_key == key_d:
                return idx
        return None

    def _allocate(self, now: float) -> int:
        """A slot to (re)use: empty, else expired lease, else oldest."""
        oldest, oldest_ts = 0, float("inf")
        for idx in range(self.slots):
            state, _, _, _, _, _, _, ts = self._read_slot(idx)
            if state == _EMPTY:
                return idx
            if state == _LEASED and now - ts > self.lease_ttl_s:
                self._bump(self._EXPIRED)
                return idx
            if ts < oldest_ts:
                oldest, oldest_ts = idx, ts
        self._bump(self._EVICTED)
        return oldest

    # -- LogitStore contract -------------------------------------------
    def get(self, key: Tuple) -> Optional[np.ndarray]:
        """Memoized logits, or ``None`` — in which case *you* lead.

        See the class docstring for the full lease protocol.  A
        ``None`` return always means "compute and :meth:`put`"; the
        in-process single-flight above this layer keeps one process's
        threads from leading twice.
        """
        key_d = _key_digest(key)
        ver_d = _version_digest(key[0]) if key else b"\x00" * 20
        pid = os.getpid()
        deadline = time.monotonic() + self.wait_s
        waited = False
        while True:
            with self._lock:
                now = time.time()
                idx = self._find(key_d)
                if idx is not None:
                    state, dtype_code, holder, _, _, rows, cols, ts = (
                        self._read_slot(idx)
                    )
                    if state == _READY:
                        self.hits += 1
                        if waited:
                            self._bump(self._COALESCED)
                        return self._copy_out(idx, dtype_code, rows, cols)
                    # leased
                    if holder == pid:
                        self.misses += 1
                        return None
                    if now - ts > self.lease_ttl_s:
                        self._bump(self._EXPIRED)
                        self._write_slot(
                            idx, _LEASED, 0, pid, key_d, ver_d, 0, 0, now
                        )
                        self._bump(self._LEASES)
                        self.misses += 1
                        return None
                else:
                    idx = self._allocate(now)
                    self._write_slot(
                        idx, _LEASED, 0, pid, key_d, ver_d, 0, 0, now
                    )
                    self._bump(self._LEASES)
                    self.misses += 1
                    return None
            # Another process holds a live lease: wait outside the lock.
            if time.monotonic() >= deadline:
                self.lease_timeouts += 1
                self.misses += 1
                return None
            waited = True
            time.sleep(self.poll_s)

    def _copy_out(self, idx, dtype_code, rows, cols) -> np.ndarray:
        dtype = _DTYPE_CODES[dtype_code]
        out = np.empty((rows, cols), dtype=dtype)
        data_off = self._slot_offset(idx) + self._SLOT.size
        nbytes = rows * cols * dtype.itemsize
        flat = out.reshape(-1).view(np.uint8)
        flat[:] = np.frombuffer(
            self._shm.buf, dtype=np.uint8, count=nbytes, offset=data_off
        )
        out.setflags(write=False)
        return out

    def put(self, key: Tuple, logits: np.ndarray) -> np.ndarray:
        """Publish ``logits`` under ``key`` (resolves our lease, if any).

        Oversized or unsupported-dtype matrices are counted in
        ``rejected`` and returned unstored, exactly like
        :meth:`LogitStore.put` — the caller still has its result.
        """
        data = np.ascontiguousarray(logits)
        dtype_code = _DTYPE_BY_NAME.get(data.dtype.name)
        if (
            dtype_code is None
            or data.ndim != 2
            or data.nbytes > self.slot_bytes
        ):
            self.rejected += 1
            self._release_lease(key)
            logits.setflags(write=False)
            return logits
        key_d = _key_digest(key)
        ver_d = _version_digest(key[0]) if key else b"\x00" * 20
        rows, cols = data.shape
        with self._lock:
            now = time.time()
            idx = self._find(key_d)
            if idx is None:
                idx = self._allocate(now)
            data_off = self._slot_offset(idx) + self._SLOT.size
            self._shm.buf[data_off: data_off + data.nbytes] = data.tobytes()
            self._write_slot(
                idx, _READY, dtype_code, os.getpid(), key_d, ver_d,
                rows, cols, now,
            )
            self._bump(self._PUTS)
        logits.setflags(write=False)
        return logits

    def _release_lease(self, key: Tuple) -> None:
        """Drop our lease on ``key`` so waiters stop polling for it."""
        key_d = _key_digest(key)
        with self._lock:
            idx = self._find(key_d)
            if idx is not None:
                state, _, holder, _, _, _, _, _ = self._read_slot(idx)
                if state == _LEASED and holder == os.getpid():
                    self._write_slot(
                        idx, _EMPTY, 0, 0, b"\x00" * 20, b"\x00" * 20,
                        0, 0, 0.0,
                    )

    def get_rows(self, key: Tuple, nodes) -> Optional[np.ndarray]:
        """Rows ``nodes`` of the entry, or None (same contract as get).

        The shared backend has no per-row stale masks (they would need
        cross-process coordination per entry), so this is a whole-entry
        :meth:`get` plus a slice; partial invalidation degrades to
        whole-version invalidation fleet-wide (see
        :meth:`invalidate_rows`).
        """
        full = self.get(key)
        if full is None:
            return None
        return full[np.asarray(nodes)]

    def invalidate_rows(self, version: str, node_ids) -> int:
        """Row invalidation degraded to :meth:`invalidate_version`.

        Cross-process row masks are not worth a per-row protocol:
        correctness (never serve a stale row) beats warmth, so the whole
        version's slots are dropped and the next forward re-publishes.
        """
        del node_ids
        return self.invalidate_version(version)

    def migrate(self, old_key: Tuple, new_key: Tuple, stale_rows=None) -> bool:
        """Rekeying is unsupported cross-process; callers must recompute."""
        del old_key, new_key, stale_rows
        return False

    def invalidate_version(self, version: str) -> int:
        """Drop every entry produced by model ``version``; returns count."""
        ver_d = _version_digest(version)
        dropped = 0
        with self._lock:
            for idx in range(self.slots):
                state, _, _, _, slot_ver, _, _, _ = self._read_slot(idx)
                if state != _EMPTY and slot_ver == ver_d:
                    self._write_slot(
                        idx, _EMPTY, 0, 0, b"\x00" * 20, b"\x00" * 20,
                        0, 0, 0.0,
                    )
                    dropped += 1
            if dropped:
                self._bump(self._INVALIDATED, dropped)
        return dropped

    def clear(self) -> None:
        with self._lock:
            for idx in range(self.slots):
                self._write_slot(
                    idx, _EMPTY, 0, 0, b"\x00" * 20, b"\x00" * 20, 0, 0, 0.0
                )
            self._bump(self._CLEARS)
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self.lease_timeouts = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return sum(
                1 for idx in range(self.slots)
                if self._read_slot(idx)[0] == _READY
            )

    @property
    def nbytes(self) -> int:
        itemsize = {c: d.itemsize for c, d in _DTYPE_CODES.items()}
        with self._lock:
            total = 0
            for idx in range(self.slots):
                state, code, _, _, _, rows, cols, _ = self._read_slot(idx)
                if state == _READY:
                    total += rows * cols * itemsize.get(code, 0)
            return total

    def info(self) -> Dict:
        """JSON-friendly view for ``/metrics`` and bench output."""
        with self._lock:
            ready = leased = 0
            for idx in range(self.slots):
                state = self._read_slot(idx)[0]
                if state == _READY:
                    ready += 1
                elif state == _LEASED:
                    leased += 1
            shared = self._shared_counters()
        return {
            "backend": "shared_memory",
            "segment": self.name,
            "entries": ready,
            "leased": leased,
            "slots": self.slots,
            "slot_bytes": self.slot_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "rejected": self.rejected,
            "lease_timeouts": self.lease_timeouts,
            "shared": shared,
        }

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Detach this process's mapping (the segment survives)."""
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (fleet parent only, after workers exit)."""
        try:
            self._shm.close()
        finally:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __repr__(self) -> str:
        return (
            f"SharedLogitStore(segment={self.name!r}, slots={self.slots}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_GLOBAL_STORE = LogitStore()


def get_logit_store() -> LogitStore:
    """A process-global store for deployments that share one across engines.

    :class:`~repro.serve.InferenceEngine` defaults to a *private* store
    per engine (version invalidation stays local to the engine that
    swapped models); pass ``logit_store=get_logit_store()`` to share.
    """
    return _GLOBAL_STORE
