"""Cached propagation products ``Â^k X`` and adjacency powers.

The normalized adjacency and the input features are both constants of
the optimization problem, so every product of the form ``Â^k X`` (SGC's
precomputation, the first propagation of a GCN layer whose input is the
raw features, MixHop/NGCN's ``Â^p`` operators) can be computed once and
shared — across epochs, across model instances, and across models, as
long as the operands are equal by *content*.

Keys are content fingerprints (:attr:`SparseMatrix.fingerprint` plus a
sha1 of the feature buffer), not object identities, so two models that
independently normalize the same graph still share work.  Entries are
plain float arrays detached from the tape — correct because gradients
never flow into ``Â`` or ``X``.

A *frozen* feature buffer (read-only, and so is every array it views)
is hashed at most once: :func:`fingerprint` remembers its digest for
the buffer's lifetime.  :func:`freeze` can attach a digest up front —
the graph-update path uses it to fingerprint a mutated buffer from its
parent's fingerprint plus the batch (:func:`derive_fingerprint`) in
O(batch) instead of rehashing N rows.

The cache is LRU-bounded and process-global (:func:`get_cache`); tests
use :meth:`PropagationCache.clear` for isolation.  It is also
**thread-safe**: the serving layer shares one cache across all request
worker threads, so every public operation holds an internal lock —
including the spmm walk inside :meth:`PropagationCache.propagate`, which
keeps a miss atomic (two threads asking for the same product do the
work once, and the LRU order/size bookkeeping can never be corrupted
mid-update).
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.tensor.sparse import SparseMatrix


def array_fingerprint(array: np.ndarray) -> str:
    """Content digest of a dense array (dtype, shape, raw bytes)."""
    digest = hashlib.sha1()
    digest.update(str(array.dtype).encode())
    digest.update(np.asarray(array.shape, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


#: ``id(array) -> (weakref, fingerprint)`` for frozen buffers; an entry
#: dies with its buffer.
_KNOWN: Dict[int, Tuple["weakref.ref", str]] = {}


def _frozen(array: np.ndarray) -> bool:
    """Whether neither ``array`` nor any array it views is writeable."""
    while array is not None:
        if not isinstance(array, np.ndarray) or array.flags.writeable:
            return False
        array = array.base
    return True


def _remember(array: np.ndarray, digest: str) -> None:
    key = id(array)

    def forget(ref, key=key):
        if _KNOWN.get(key, (None,))[0] is ref:
            _KNOWN.pop(key, None)

    _KNOWN[key] = (weakref.ref(array, forget), digest)


def fingerprint(array: np.ndarray) -> str:
    """:func:`array_fingerprint`, hashed at most once per frozen buffer.

    A writeable buffer can change under its digest, so it is hashed on
    every call; a frozen one keeps the digest it was first given.
    """
    if not _frozen(array):
        return array_fingerprint(array)
    known = _KNOWN.get(id(array))
    if known is not None and known[0]() is array:
        return known[1]
    digest = array_fingerprint(array)
    _remember(array, digest)
    return digest


def freeze(array: np.ndarray, digest: Optional[str] = None) -> np.ndarray:
    """Make ``array`` read-only; ``digest`` becomes its fingerprint.

    The caller vouches that ``digest`` identifies the content (see
    :func:`derive_fingerprint`); without one, :func:`fingerprint`
    hashes the buffer on first use.  Returns ``array``.
    """
    array.setflags(write=False)
    if digest is not None:
        _remember(array, digest)
    return array


def derive_fingerprint(parent: str, change: str) -> str:
    """Fingerprint of content fully determined by ``parent``'s and ``change``.

    Used for buffers produced by applying a change (a mutation batch, a
    dtype cast) to a fingerprinted parent: equal derived fingerprints
    imply equal content, and the digest always differs from
    ``parent``'s.  It is not a content hash, so an equal buffer built
    another way fingerprints differently — a cache miss, never a wrong
    hit.
    """
    digest = hashlib.sha1(b"derived\0")
    digest.update(parent.encode())
    digest.update(b"\0")
    digest.update(change.encode())
    return "d" + digest.hexdigest()


class PropagationCache:
    """LRU cache of ``Â^k X`` products and ``Â^p`` sparse powers."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _get(self, key: Tuple):
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def _put(self, key: Tuple, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    def propagate(
        self, adj: SparseMatrix, features: np.ndarray, k: int = 1
    ) -> np.ndarray:
        """Return ``Â^k X`` as a constant float array, cached.

        Intermediate powers are cached too, so asking for ``k=2`` after
        ``k=1`` performs a single additional spmm, and a cached ``Â^k X``
        costs none even when lower powers were evicted.  The result must
        be treated as read-only by callers (it is shared).
        """
        return self.propagate_chain(adj, features, k, lowest=k)[0]

    def propagate_chain(
        self,
        adj: SparseMatrix,
        features: np.ndarray,
        k: int = 1,
        lowest: int = 1,
    ) -> List[np.ndarray]:
        """The multi-power chain ``[Â^lowest X, …, Â^k X]``, cached.

        One pass over the matrix: the walk starts from the deepest cached
        power and each computed power feeds the next, so a cold call
        costs ``k`` spmms (not ``k(k+1)/2`` as recomputing every power
        from ``X`` would) and a warm call costs none.  Powers below the
        walk's start come from the cache; one that LRU evicted meanwhile
        (or that did not fit, when ``k`` exceeds the capacity) is
        recomputed from the power below it — the same product the
        sequential chain computes, so the bits agree — and counted as a
        miss.  Every entry in the returned list is read-only.
        """
        if k < 1:
            raise ValueError(f"propagation power must be >= 1, got {k}")
        if not 1 <= lowest <= k:
            raise ValueError(
                f"lowest power must be in [1, {k}], got {lowest}"
            )
        features = np.ascontiguousarray(features)
        base_key = (adj.fingerprint, fingerprint(features))
        with self._lock:
            # chain[p] is Â^p X; chain[0] is X itself.
            chain: List[Optional[np.ndarray]] = [features] + [None] * k
            # Walk down from k to the deepest cached power.
            start = k
            while start > 0:
                chain[start] = self._get(base_key + (start,))
                if chain[start] is not None:
                    break
                start -= 1
            for power in range(start + 1, k + 1):
                chain[power] = adj.csr @ chain[power - 1]
                chain[power].setflags(write=False)
                self._put(base_key + (power,), chain[power])
            if lowest < start:
                for power in range(1, start):
                    chain[power] = self._entries.get(base_key + (power,))
                    if chain[power] is None:
                        self.misses += 1
                        chain[power] = adj.csr @ chain[power - 1]
                        chain[power].setflags(write=False)
            return chain[lowest:]  # type: ignore[return-value]

    def adjacency_power(self, adj: SparseMatrix, k: int) -> SparseMatrix:
        """Return ``Â^k`` as a :class:`SparseMatrix`, cached.

        ``k=1`` returns the operand itself (no copy); ``k=0`` is the
        identity and is cached like any other power.
        """
        if k < 0:
            raise ValueError(f"adjacency power must be >= 0, got {k}")
        if k == 1:
            return adj
        base_key = (adj.fingerprint, "power")
        with self._lock:
            cached = self._get(base_key + (k,))
            if cached is not None:
                return cached
            # Walk down to the deepest cached lower power and multiply
            # up from there, caching every intermediate — MixHop/NGCN
            # ask for a whole ladder of powers, and this turns the
            # ladder into one sparse matmul per rung instead of
            # recomputing each power from scratch.  ``adj.power(k)`` is
            # the left fold ``((I·Â)·Â)…·Â``, so seeding with
            # ``power(start)`` and right-multiplying reproduces it
            # association-for-association: bitwise-identical results.
            start = k - 1
            result = None
            while start >= 2:
                lower = self._get(base_key + (start,))
                if lower is not None:
                    result = lower
                    break
                start -= 1
            if result is None:
                start = min(1, k)
                result = adj.power(start)
                self._put(base_key + (start,), result)
            for power in range(start + 1, k + 1):
                result = SparseMatrix(result.csr @ adj.csr)
                self._put(base_key + (power,), result)
            return result

    def migrate_propagation(
        self,
        old_adj_fp: str,
        old_feat_fp: str,
        new_adj: SparseMatrix,
        new_features: np.ndarray,
        rows_for_power,
    ) -> int:
        """Rebase a cached ``Â^k X`` chain onto a mutated graph.

        Walks powers ``p = 1, 2, ...`` while the old chain
        ``(old_adj_fp, old_feat_fp, p)`` is cached, and for each
        one inserts a patched copy under the new operator/feature
        fingerprints: clean rows keep the old entry's bytes, and the
        rows ``rows_for_power(p)`` — the closed ``p``-hop neighborhood
        of the mutation (see :func:`repro.graphs.mutate.dirty_rows`) —
        are recomputed as ``Â_new[rows] @ P_{p-1}``, which is
        bitwise-identical per row to a from-scratch rebuild (scipy's
        CSR·dense kernel accumulates each output row independently in
        stored order).  Node growth is handled by ``new_features``'s row
        count: appended rows are always dirty, so patching covers them.

        Stops at the first uncached power (a later ``propagate`` call
        recomputes the missing tail from the migrated prefix).  Returns
        the number of powers migrated.  Migrated old entries leave the
        cache (readers already holding them keep their arrays; a later
        lookup under the old fingerprints recomputes), so a stream of
        updates holds one chain, not one per update.  The old chain
        is the one keyed by ``old_feat_fp``, so pass the fingerprint of
        the buffer the reader propagates (a model's own feature tensor,
        which may be a dtype cast of the graph's features).
        """
        prev = np.ascontiguousarray(new_features)
        n_new, width = prev.shape
        new_base = (new_adj.fingerprint, fingerprint(prev))
        old_base = (old_adj_fp, old_feat_fp)
        migrated = 0
        with self._lock:
            power = 1
            while True:
                old_entry = self._entries.get(old_base + (power,))
                if (
                    old_entry is None
                    or old_entry.shape[0] > n_new
                    or old_entry.shape[1] != width
                ):
                    break
                rows = np.asarray(rows_for_power(power), dtype=np.int64)
                if old_entry.shape[0] == n_new:
                    entry = old_entry.copy()
                else:
                    entry = np.zeros((n_new, width), dtype=old_entry.dtype)
                    entry[: old_entry.shape[0]] = old_entry
                if rows.size:
                    entry[rows] = new_adj.csr[rows] @ prev
                entry.setflags(write=False)
                del self._entries[old_base + (power,)]
                self._put(new_base + (power,), entry)
                prev = entry
                migrated += 1
                power += 1
        return migrated

    # ------------------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }

    def __repr__(self) -> str:
        return (
            f"PropagationCache(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_GLOBAL_CACHE = PropagationCache()


def get_cache() -> PropagationCache:
    """The process-global propagation cache used by models."""
    return _GLOBAL_CACHE


def propagated_features(
    adj: SparseMatrix, features: np.ndarray, k: int = 1
) -> np.ndarray:
    """Convenience wrapper over ``get_cache().propagate(...)``."""
    return _GLOBAL_CACHE.propagate(adj, features, k=k)


def adjacency_power(adj: SparseMatrix, k: int) -> SparseMatrix:
    """Convenience wrapper over ``get_cache().adjacency_power(...)``."""
    return _GLOBAL_CACHE.adjacency_power(adj, k)
