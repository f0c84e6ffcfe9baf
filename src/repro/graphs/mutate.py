"""Dynamic graph mutation with incremental, bitwise-exact maintenance.

The serving stack decouples propagation (``Â^k X``) from transformation,
so a graph change only dirties the rows within ``k`` hops of the touched
nodes.  This module implements that observation end to end:

- :class:`UpdateBatch` — one transactional batch of add/remove-edge,
  add-node, and feature-upsert operations, JSON-serializable for the
  :class:`~repro.resilience.wal.GraphMutationLog`;
- :func:`check_batch` — structural preflight against the *live* graph
  (edge already present, edge missing, endpoint out of range), raising
  :class:`MutationConflict` with a stable code before anything is
  logged or mutated;
- :func:`apply_batch` — copy-on-write CSR surgery: touched adjacency
  rows are respliced (sorted merge), untouched rows are copied as
  contiguous spans, features/labels/masks grow for new nodes, and the
  :class:`~repro.graphs.Graph` object is updated *in place* (same
  object identity, fresh arrays) so in-flight readers holding the old
  arrays stay consistent;
- :func:`incremental_gcn_norm` — renormalization of only the rows whose
  value can change (the closed 1-hop of the touched endpoints),
  **bitwise-identical** to a from-scratch
  :func:`~repro.graphs.normalize.gcn_norm` rebuild;
- :func:`dirty_rows` — the rows of ``Â^p X`` invalidated by a batch:
  the closed ``p``-hop neighborhood (via
  :func:`~repro.graphs.partition.khop_neighborhood`) of the edge
  endpoints, new nodes, and feature-upserted nodes.

Why the incremental renormalization is bitwise-exact
----------------------------------------------------
``gcn_norm`` computes ``D̃^{-1/2} Ã D̃^{-1/2}`` as two sparse products,
but each output entry is the *single*-term product
``(inv_sqrt[i] * ã_ij) * inv_sqrt[j]`` — no accumulation, so the value
is a pure left-associated elementwise function of ``(i, j)``.
Replicating exactly that expression for touched rows, recomputing
degrees through the same scipy row-slice ``.sum(axis=1)`` kernel, and
copying untouched rows' stored bytes therefore reproduces the full
rebuild bit for bit (structure included: the diagonal products preserve
``Ã``'s sorted CSR pattern).  The same argument row-wise covers
``Â^p X`` maintenance: scipy's CSR·dense kernel accumulates each output
row independently over that row's stored entries in order, so patching
``rows`` with ``Â[rows] @ P_{p-1}`` equals the full product on those
rows while clean rows keep their old bytes, by induction over ``p`` —
enforced by the equivalence harness in ``tests/test_graph_update.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.graphs.normalize import add_self_loops
from repro.graphs.partition import khop_neighborhood
from repro.tensor.sparse import SparseMatrix

__all__ = [
    "MutationConflict",
    "UpdateBatch",
    "MutationDelta",
    "check_batch",
    "apply_batch",
    "normalization_state",
    "incremental_gcn_norm",
    "dirty_rows",
]


class MutationConflict(ValueError):
    """A batch conflicts with the live graph state (HTTP 409 at the edge).

    ``code`` is one of ``edge_exists``, ``edge_not_found``,
    ``node_out_of_range`` — stable identifiers the serving layer maps
    straight into structured error payloads.
    """

    def __init__(self, message: str, code: str) -> None:
        super().__init__(message)
        self.code = code


def _as_edge_array(edges) -> np.ndarray:
    array = np.asarray(edges if edges is not None else [], dtype=np.int64)
    if array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {array.shape}")
    return array


@dataclasses.dataclass
class UpdateBatch:
    """One transactional mutation batch (the unit the WAL commits).

    Edges are undirected pairs ``(u, v)``; both CSR directions are
    maintained.  ``add_nodes`` new nodes receive ids
    ``N, N+1, ... N+add_nodes-1`` and the feature rows in
    ``new_features``; ``feature_updates`` replaces whole feature rows of
    existing nodes.
    """

    update_id: str
    add_edges: np.ndarray = dataclasses.field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )
    remove_edges: np.ndarray = dataclasses.field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )
    add_nodes: int = 0
    new_features: Optional[np.ndarray] = None
    feature_updates: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self) -> None:
        self.add_edges = _as_edge_array(self.add_edges)
        self.remove_edges = _as_edge_array(self.remove_edges)
        for name, edges in (
            ("add_edges", self.add_edges),
            ("remove_edges", self.remove_edges),
        ):
            if edges.size == 0:
                continue
            if (edges[:, 0] == edges[:, 1]).any():
                raise ValueError(f"{name} must not contain self-loops")
            canonical = np.sort(edges, axis=1)
            if len(np.unique(canonical, axis=0)) != len(canonical):
                raise ValueError(f"{name} contains duplicate pairs")
        self.add_nodes = int(self.add_nodes)
        if self.add_nodes < 0:
            raise ValueError(f"add_nodes must be >= 0, got {self.add_nodes}")
        if self.new_features is not None:
            self.new_features = np.asarray(self.new_features, dtype=np.float64)
        if self.feature_updates is not None:
            nodes, values = self.feature_updates
            nodes = np.asarray(nodes, dtype=np.int64)
            values = np.asarray(values, dtype=np.float64)
            if len(np.unique(nodes)) != len(nodes):
                raise ValueError("feature_updates contains duplicate node ids")
            self.feature_updates = (nodes, values)

    @property
    def num_ops(self) -> int:
        upserts = 0 if self.feature_updates is None else len(self.feature_updates[0])
        return (
            len(self.add_edges)
            + len(self.remove_edges)
            + self.add_nodes
            + upserts
        )

    def digest(self) -> str:
        """Content digest of the operations (the update id is not in it).

        Together with a buffer's fingerprint before the batch it
        identifies the buffer after it — see
        :func:`repro.perf.propcache.derive_fingerprint`.
        """
        ops = json.dumps(self.to_ops(), sort_keys=True).encode()
        return hashlib.sha1(ops).hexdigest()

    # -- WAL (de)serialization -----------------------------------------
    def to_ops(self) -> dict:
        """The JSON-safe ``ops`` dict committed to the mutation log."""
        ops: dict = {}
        if len(self.add_edges):
            ops["add_edges"] = self.add_edges.tolist()
        if len(self.remove_edges):
            ops["remove_edges"] = self.remove_edges.tolist()
        if self.add_nodes:
            ops["add_nodes"] = {
                "count": self.add_nodes,
                "features": (
                    self.new_features.tolist()
                    if self.new_features is not None
                    else None
                ),
            }
        if self.feature_updates is not None and len(self.feature_updates[0]):
            nodes, values = self.feature_updates
            ops["feature_updates"] = {
                "nodes": nodes.tolist(),
                "values": values.tolist(),
            }
        return ops

    @classmethod
    def from_ops(cls, update_id: str, ops: dict) -> "UpdateBatch":
        """Inverse of :meth:`to_ops` (used by WAL replay)."""
        added = ops.get("add_nodes") or {}
        upserts = ops.get("feature_updates")
        feature_updates = None
        if upserts:
            feature_updates = (
                np.asarray(upserts["nodes"], dtype=np.int64),
                np.asarray(upserts["values"], dtype=np.float64),
            )
        new_features = added.get("features")
        return cls(
            update_id=update_id,
            add_edges=ops.get("add_edges") or [],
            remove_edges=ops.get("remove_edges") or [],
            add_nodes=int(added.get("count", 0)),
            new_features=(
                np.asarray(new_features, dtype=np.float64)
                if new_features is not None
                else None
            ),
            feature_updates=feature_updates,
        )


@dataclasses.dataclass(frozen=True)
class MutationDelta:
    """What a batch touched — the input to incremental maintenance.

    ``seeds`` are the nodes whose adjacency row changed (endpoints of
    added/removed edges plus every new node); ``feature_nodes`` are the
    nodes whose feature row changed.  Rows of ``Â^p X`` that need
    recomputation are the closed ``p``-hop neighborhood of their union
    in the *mutated* graph (see :func:`dirty_rows`).
    """

    seeds: np.ndarray
    feature_nodes: np.ndarray
    old_num_nodes: int
    new_num_nodes: int

    @property
    def sources(self) -> np.ndarray:
        """All dirty sources: ``seeds ∪ feature_nodes`` (sorted)."""
        return np.union1d(self.seeds, self.feature_nodes)


# ---------------------------------------------------------------------------
# Preflight
# ---------------------------------------------------------------------------

def check_batch(graph: Graph, batch: UpdateBatch) -> None:
    """Validate ``batch`` against the live graph; raise on conflict.

    Payload-shape problems (self-loops, non-finite features, duplicate
    pairs *within* the batch) are the HTTP layer's job
    (:func:`repro.serve.validate.parse_update_request`); this checks the
    parts that depend on current graph *state* and must therefore run
    under the apply lock, immediately before the WAL append.
    """
    n = graph.num_nodes
    n_new = n + batch.add_nodes
    for name, edges in (("add", batch.add_edges), ("remove", batch.remove_edges)):
        if edges.size == 0:
            continue
        lo, hi = int(edges.min()), int(edges.max())
        bound = n_new if name == "add" else n
        if lo < 0 or hi >= bound:
            raise MutationConflict(
                f"{name}_edges endpoint {lo if lo < 0 else hi} out of range "
                f"for {bound} node(s)",
                code="node_out_of_range",
            )
    if batch.feature_updates is not None:
        nodes = batch.feature_updates[0]
        if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
            raise MutationConflict(
                "feature_updates target a node id out of range "
                f"(graph has {n} node(s))",
                code="node_out_of_range",
            )
    adj = graph.adj
    for u, v in batch.remove_edges:
        if not _has_edge(adj, int(u), int(v)):
            raise MutationConflict(
                f"edge ({u}, {v}) not in graph", code="edge_not_found"
            )
    for u, v in batch.add_edges:
        if u < adj.shape[0] and v < adj.shape[1] and _has_edge(adj, int(u), int(v)):
            raise MutationConflict(
                f"edge ({u}, {v}) already in graph", code="edge_exists"
            )


def _has_edge(csr: sp.csr_matrix, u: int, v: int) -> bool:
    lo, hi = csr.indptr[u], csr.indptr[u + 1]
    return bool(np.isin(v, csr.indices[lo:hi]))


# ---------------------------------------------------------------------------
# Apply (copy-on-write CSR surgery)
# ---------------------------------------------------------------------------

def _splice_rows(
    csr: sp.csr_matrix,
    n_new: int,
    rows: np.ndarray,
    counts: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
) -> sp.csr_matrix:
    """Rebuild ``csr`` with rows ``rows`` replaced and ``n_new`` rows total.

    ``rows`` must be sorted; replacement rows may be brand new (ids
    ``>= csr.shape[0]``, necessarily at the tail).  Row ``rows[i]``
    becomes the next ``counts[i]`` entries of ``cols`` / ``vals``.
    Untouched rows keep their stored bytes and order exactly: they move
    as one vectorized scatter, and the replacement rows as a second, so
    the splice is O(nnz) array work with no per-row Python loop.
    """
    rows = np.asarray(rows, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    n_old = csr.shape[0]
    old_counts = np.diff(csr.indptr).astype(np.int64)
    new_counts = np.zeros(n_new, dtype=np.int64)
    new_counts[:n_old] = old_counts
    new_counts[rows] = counts
    indptr = np.zeros(n_new + 1, dtype=np.int64)
    np.cumsum(new_counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    data = np.empty(int(indptr[-1]), dtype=csr.data.dtype)
    kept = np.ones(n_old, dtype=bool)
    kept[rows[rows < n_old]] = False
    src = np.flatnonzero(np.repeat(kept, old_counts))
    dst = src + np.repeat(indptr[:n_old] - csr.indptr[:-1], old_counts)[src]
    indices[dst] = csr.indices[src]
    data[dst] = csr.data[src]
    dst = np.repeat(indptr[rows] - (np.cumsum(counts) - counts), counts)
    dst += np.arange(int(counts.sum()), dtype=np.int64)
    indices[dst] = cols
    data[dst] = vals
    return sp.csr_matrix((data, indices, indptr), shape=(n_new, n_new))


def _directed_maps(edges: np.ndarray) -> Dict[int, np.ndarray]:
    """Per-row sorted column arrays for both directions of ``edges``."""
    if edges.size == 0:
        return {}
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    out: Dict[int, np.ndarray] = {}
    for row in np.unique(rows):
        out[int(row)] = np.sort(cols[rows == row])
    return out


def apply_batch(graph: Graph, batch: UpdateBatch) -> MutationDelta:
    """Apply ``batch`` to ``graph`` in place (copy-on-write arrays).

    The graph object keeps its identity (callers hold references; model
    view caches key by ``id(graph)``) but every mutated field is a fresh
    array — readers that grabbed ``graph.adj`` / ``graph.features``
    before the call keep a consistent pre-mutation view.  Raises
    :class:`MutationConflict` without touching anything if the batch
    conflicts with the live state.
    """
    check_batch(graph, batch)
    n_old = graph.num_nodes
    n_new = n_old + batch.add_nodes

    add_map = _directed_maps(batch.add_edges)
    rem_map = _directed_maps(batch.remove_edges)
    new_node_ids = np.arange(n_old, n_new, dtype=np.int64)
    touched = np.unique(
        np.concatenate(
            [
                np.fromiter(add_map, dtype=np.int64, count=len(add_map)),
                np.fromiter(rem_map, dtype=np.int64, count=len(rem_map)),
                new_node_ids,
            ]
        )
    )

    if touched.size:
        row_cols: List[np.ndarray] = []
        row_vals: List[np.ndarray] = []
        adj = graph.adj
        for row in touched:
            if row < n_old:
                lo, hi = adj.indptr[row], adj.indptr[row + 1]
                cols = adj.indices[lo:hi]
                vals = adj.data[lo:hi]
            else:
                cols = np.empty(0, dtype=np.int64)
                vals = np.empty(0, dtype=adj.data.dtype)
            removed = rem_map.get(int(row))
            if removed is not None:
                keep = ~np.isin(cols, removed)
                cols, vals = cols[keep], vals[keep]
            added = add_map.get(int(row))
            if added is not None:
                cols = np.concatenate([cols, added])
                vals = np.concatenate(
                    [vals, np.ones(len(added), dtype=vals.dtype)]
                )
                order = np.argsort(cols, kind="stable")
                cols, vals = cols[order], vals[order]
            row_cols.append(np.asarray(cols, dtype=np.int64))
            row_vals.append(vals)
        new_adj = _splice_rows(
            graph.adj, n_new, touched,
            np.fromiter(map(len, row_cols), np.int64, len(row_cols)),
            np.concatenate(row_cols), np.concatenate(row_vals),
        )
    else:
        new_adj = graph.adj

    feature_nodes = new_node_ids
    if batch.feature_updates is not None and len(batch.feature_updates[0]):
        feature_nodes = np.union1d(feature_nodes, batch.feature_updates[0])
    if batch.add_nodes or (
        batch.feature_updates is not None and len(batch.feature_updates[0])
    ):
        features = np.empty(
            (n_new, graph.num_features), dtype=graph.features.dtype
        )
        features[:n_old] = graph.features
        if batch.add_nodes:
            if batch.new_features is not None:
                if batch.new_features.shape != (
                    batch.add_nodes,
                    graph.num_features,
                ):
                    raise ValueError(
                        "new_features must have shape "
                        f"({batch.add_nodes}, {graph.num_features}), got "
                        f"{batch.new_features.shape}"
                    )
                features[n_old:] = batch.new_features
            else:
                features[n_old:] = 0.0
        if batch.feature_updates is not None and len(batch.feature_updates[0]):
            nodes, values = batch.feature_updates
            features[nodes] = values
    else:
        features = graph.features

    graph.adj = new_adj
    graph.features = features
    if batch.add_nodes:
        graph.labels = np.concatenate(
            [graph.labels, np.zeros(batch.add_nodes, dtype=graph.labels.dtype)]
        )
        pad = np.zeros(batch.add_nodes, dtype=bool)
        graph.train_mask = np.concatenate([graph.train_mask, pad])
        graph.val_mask = np.concatenate([graph.val_mask, pad])
        graph.test_mask = np.concatenate([graph.test_mask, pad])
    return MutationDelta(
        seeds=touched,
        feature_nodes=feature_nodes,
        old_num_nodes=n_old,
        new_num_nodes=n_new,
    )


# ---------------------------------------------------------------------------
# Incremental renormalization
# ---------------------------------------------------------------------------

def normalization_state(adj: sp.spmatrix) -> Tuple[np.ndarray, np.ndarray]:
    """``(degrees, inv_sqrt)`` of ``Ã = A + I``, exactly as ``gcn_norm``."""
    a = add_self_loops(adj)
    degrees = np.asarray(a.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degrees)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    return degrees, inv_sqrt


def incremental_gcn_norm(
    old_op: SparseMatrix,
    graph: Graph,
    delta: MutationDelta,
    degrees: np.ndarray,
    inv_sqrt: np.ndarray,
) -> Tuple[SparseMatrix, np.ndarray, np.ndarray]:
    """Renormalize only the touched rows of ``Â`` after :func:`apply_batch`.

    ``old_op`` is the pre-mutation ``gcn_norm`` operator and
    ``degrees`` / ``inv_sqrt`` its :func:`normalization_state`; ``graph``
    holds the already-mutated adjacency.  Returns the new operator plus
    its updated state, bitwise-identical to
    ``gcn_norm(graph.adj)`` (see the module docstring for the argument).

    Only rows in the closed 1-hop of ``delta.seeds`` can change: seeds'
    rows change structure/scale, and a neighbor ``i`` of a seed ``j``
    keeps its structure but re-scales the ``(i, j)`` entry through
    ``inv_sqrt[j]``.  A feature-only batch returns ``old_op`` itself.
    When ``old_op``'s fingerprint is known, the new operator's is
    derived from it and the rebuilt rows in O(rows) instead of
    rehashing every CSR buffer.
    """
    if delta.seeds.size == 0:
        return old_op, degrees, inv_sqrt
    n_old, n_new = delta.old_num_nodes, delta.new_num_nodes
    a = add_self_loops(graph.adj)
    seeds = delta.seeds

    new_degrees = np.empty(n_new, dtype=degrees.dtype)
    new_degrees[:n_old] = degrees
    new_degrees[seeds] = np.asarray(a[seeds].sum(axis=1)).ravel()
    new_inv = np.empty(n_new, dtype=inv_sqrt.dtype)
    new_inv[:n_old] = inv_sqrt
    with np.errstate(divide="ignore"):
        seed_inv = 1.0 / np.sqrt(new_degrees[seeds])
    seed_inv[~np.isfinite(seed_inv)] = 0.0
    new_inv[seeds] = seed_inv

    # Rows to rebuild: the seeds plus every node adjacent to one (Ã's
    # rows for the seeds already include the self-loop, so gathering
    # their columns yields the closed 1-hop set directly).
    gather, _ = _row_entries(a, seeds)
    rows = np.unique(np.concatenate([seeds, a.indices[gather]]))
    gather, counts = _row_entries(a, rows)
    cols = a.indices[gather].astype(np.int64)
    # The exact expression gcn_norm evaluates per entry, left to right:
    # (inv_sqrt[i] * ã_ij) * inv_sqrt[j].
    vals = (new_inv[np.repeat(rows, counts)] * a.data[gather]) * new_inv[cols]
    new_op = SparseMatrix(
        _splice_rows(old_op.csr, n_new, rows, counts, cols, vals)
    )
    # The splice is a function of the old operator and exactly these
    # rows, so they (plus the result's dtypes) identify the new content.
    change = hashlib.sha1(f"{n_new} {new_op.dtype} {new_op.csr.indices.dtype} "
                          f"{vals.dtype}".encode())
    for array in (rows, counts, cols, vals):
        change.update(np.ascontiguousarray(array).tobytes())
    new_op.inherit_fingerprint(old_op, change.hexdigest())
    return new_op, new_degrees, new_inv


def _row_entries(csr: sp.csr_matrix, rows: np.ndarray):
    """Positions of the stored entries of ``rows`` (row by row, in
    stored order) and each row's entry count."""
    counts = np.diff(csr.indptr)[rows].astype(np.int64)
    starts = csr.indptr[rows].astype(np.int64)
    positions = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return positions + np.arange(int(counts.sum()), dtype=np.int64), counts


# ---------------------------------------------------------------------------
# Dirty-row computation for Â^p X maintenance
# ---------------------------------------------------------------------------

def dirty_rows(adj: sp.spmatrix, delta: MutationDelta, power: int) -> np.ndarray:
    """Rows of ``Â^power X`` invalidated by ``delta`` (sorted node ids).

    The closed ``power``-hop neighborhood of ``delta.sources`` in the
    *mutated* raw adjacency.  Correctness: row ``i`` of ``Â^p X``
    depends only on ``Â``'s row ``i`` and rows ``j ∈ N(i) ∪ {i}`` of
    ``Â^{p-1} X``.  Rows of ``Â`` differ only within the closed 1-hop
    of the seeds (endpoints of removed edges are themselves seeds, so
    old-graph-only reachability is covered), and ``X`` differs only on
    ``feature_nodes`` — by induction every changed row of ``Â^p X``
    lies within ``p`` new-graph hops of a source.
    """
    sources = delta.sources
    if sources.size == 0:
        return np.empty(0, dtype=np.int64)
    return khop_neighborhood(adj, sources, power)
