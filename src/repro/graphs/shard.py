"""Graph-sharded propagation: partition-aware ``Â^k X`` at scale.

The dense pipeline materializes ``Â^k X`` for the whole graph in one
process; full-size Reddit/NELL/Tencent graphs do not fit that way.  But
propagation decouples cleanly by node partition: row ``v`` of ``Â^k X``
depends only on the k-hop neighborhood of ``v``, so a shard that owns a
node set ``S`` can compute its rows from the *halo* — the boundary nodes
within ``k`` hops of ``S`` — without ever seeing the rest of the graph.

:class:`ShardPlan` packages that decomposition: per-shard owned node
sets, the k-hop *reach* chain ``R_0 = S ⊆ R_1 ⊆ … ⊆ R_k`` (``R_j`` is
the closed 1-hop neighborhood of ``R_{j-1}``), and the restricted blocks
``B_j = Â[R_{j-1}][:, R_j]``.  A shard's rows of ``Â^k X`` are then

    ``y_k = X[R_k];   y_{j-1} = B_j @ y_j   →   y_0 = (Â^k X)[S]``

**bitwise-identically** to the dense product: every block is built by
order-preserving row slicing plus a monotone column remap, so each
output row accumulates exactly the same stored nonzeros against the same
operand rows in the same order as the dense spmm — same floats in, same
operation order, same floats out.  Stitching shard outputs into the full
matrix is pure row scatter.  See ``docs/sharding.md`` for the induction
argument and the serving topology.

Blocks are plain scipy CSR matrices sliced from the *already normalized*
operator: normalization happens once, globally, before sharding — never
per shard — or degrees at shard boundaries would differ from the dense
path and break equivalence.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.graphs.normalize import gcn_norm
from repro.graphs.partition import (
    edge_cut_fraction,
    khop_neighborhood,
    partition_graph,
)
from repro.perf.config import kernels_enabled
from repro.tensor.sparse import SparseMatrix

#: Default deepest power a plan supports (covers every stock model depth).
DEFAULT_MAX_POWER = 4


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
        else:
            h.update(str(part).encode())
        h.update(b"|")
    return h.hexdigest()


def operator_adjacency(operator) -> Optional[SparseMatrix]:
    """The :class:`SparseMatrix` inside a model operator, if any.

    Models attach either a bare normalized adjacency or an edge-carrying
    wrapper (e.g. ``LasagneOperator``) exposing it as ``.adj``; anything
    else (sampling operators, ``None``) is not shardable.
    """
    if isinstance(operator, SparseMatrix):
        return operator
    adj = getattr(operator, "adj", None)
    if isinstance(adj, SparseMatrix):
        return adj
    return None


def _restrict_block(
    csr: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray
) -> sp.csr_matrix:
    """``csr[rows][:, cols]`` preserving per-row stored nonzero order.

    scipy's own column slicing re-sorts and re-packs; here columns are a
    superset of every neighbor of ``rows`` (by reach construction), so a
    monotone remap of column ids drops nothing and keeps the stored
    order — the property the bitwise-equivalence guarantee rests on.
    """
    sub = csr[np.asarray(rows, dtype=np.int64)]
    col_map = np.full(csr.shape[1], -1, dtype=np.int64)
    col_map[np.asarray(cols, dtype=np.int64)] = np.arange(
        len(cols), dtype=np.int64
    )
    new_indices = col_map[sub.indices]
    if new_indices.size and new_indices.min() < 0:
        raise ValueError(
            "restriction columns do not cover all neighbors of the rows — "
            "reach sets are inconsistent with the operator pattern"
        )
    return sp.csr_matrix(
        (sub.data, new_indices, sub.indptr), shape=(len(rows), len(cols))
    )


@dataclasses.dataclass
class Shard:
    """One shard: owned nodes, reach chain, and restricted ``Â`` blocks.

    ``reach[j]`` is the sorted closed j-hop neighborhood of the owned
    set (``reach[0] == nodes``); ``blocks[j] = Â[reach[j]][:, reach[j+1]]``.
    ``signature`` digests the plan operator fingerprint, shard index,
    owned set, and halo, so it uniquely identifies *this shard of this
    operator* — it is the scope mixed into per-shard cache keys so two
    shards of the same graph can never collide on a cache entry.
    """

    index: int
    nodes: np.ndarray
    reach: List[np.ndarray]
    blocks: List[sp.csr_matrix]
    signature: str
    _block_kernels: Optional[list] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def max_power(self) -> int:
        return len(self.blocks)

    @property
    def halo(self) -> np.ndarray:
        """Boundary rows: reach of the deepest power minus the owned set."""
        return np.setdiff1d(self.reach[-1], self.nodes, assume_unique=True)

    def halo_at(self, k: int) -> np.ndarray:
        """Halo for propagation power ``k`` (``reach[k]`` minus owned)."""
        return np.setdiff1d(self.reach[k], self.nodes, assume_unique=True)

    def propagate(self, features: np.ndarray, k: int, cache=None) -> np.ndarray:
        """This shard's rows of ``Â^k X``: ``(len(nodes), F)``.

        With a :class:`~repro.perf.propcache.PropagationCache`, the
        result is memoized under a key that includes this shard's
        ``signature`` — content-identical blocks on two different shards
        still get distinct entries.
        """
        if not 1 <= k <= self.max_power:
            raise ValueError(
                f"power {k} outside this shard's supported range "
                f"[1, {self.max_power}]"
            )
        return self.propagate_chain(features, k, cache=cache)[-1]

    def propagate_chain(
        self, features: np.ndarray, k: int, cache=None
    ) -> List[np.ndarray]:
        """This shard's owned rows of **every** power ``1..k``, fused.

        One block chain down from ``reach[k]`` yields all the powers:
        after applying ``blocks[j]`` the intermediate equals
        ``(Â^{k-j} X)[reach[j]]`` (the docs/sharding.md induction), and
        the owned nodes are a sorted subset of every ``reach[j]``, so
        each lower power's owned rows are extracted with one
        ``searchsorted`` — ``k`` block spmms total instead of the
        ``k(k+1)/2`` that per-power chains cost.  Rows are
        bitwise-identical to per-power :meth:`propagate` results, so
        both entry points share cache entries (same keys).
        """
        if not 1 <= k <= self.max_power:
            raise ValueError(
                f"power {k} outside this shard's supported range "
                f"[1, {self.max_power}]"
            )
        if cache is None:
            return self._propagate_chain(features, k)
        from repro.perf.propcache import fingerprint

        feat_fp = fingerprint(features)
        computed: dict = {}

        def chain() -> List[np.ndarray]:
            if "powers" not in computed:
                computed["powers"] = self._propagate_chain(features, k)
            return computed["powers"]

        return [
            cache.memoize(
                ("shard", self.signature, feat_fp, power),
                lambda power=power: chain()[power - 1],
            )
            for power in range(1, k + 1)
        ]

    def _apply_block(self, j: int, dense: np.ndarray) -> np.ndarray:
        """``blocks[j] @ dense`` — through the int32 tiled kernel when
        ``perf_mode(kernels=True)`` is active (bitwise-identical)."""
        if kernels_enabled() and dense.ndim == 2:
            if self._block_kernels is None:
                self._block_kernels = [None] * len(self.blocks)
            kernel = self._block_kernels[j]
            if kernel is None:
                from repro.perf.kernels import CSRKernel

                kernel = CSRKernel(self.blocks[j])
                self._block_kernels[j] = kernel
            return kernel.matmul(dense)
        return self.blocks[j] @ dense

    def _propagate(self, features: np.ndarray, k: int) -> np.ndarray:
        result = np.ascontiguousarray(features[self.reach[k]])
        for j in range(k - 1, -1, -1):
            result = self._apply_block(j, result)
        return result

    def _propagate_chain(self, features: np.ndarray, k: int) -> List[np.ndarray]:
        result = np.ascontiguousarray(features[self.reach[k]])
        owned: List[Optional[np.ndarray]] = [None] * k
        for j in range(k - 1, -1, -1):
            result = self._apply_block(j, result)
            power = k - j
            if j == 0:
                owned[power - 1] = result
            else:
                positions = np.searchsorted(self.reach[j], self.nodes)
                owned[power - 1] = np.ascontiguousarray(result[positions])
        return owned  # type: ignore[return-value]


@dataclasses.dataclass
class ShardPlan:
    """A full sharded-propagation plan over one normalized operator.

    ``owner[v]`` is the shard index owning node ``v``; shard ``i`` of a
    serving fleet binds ``shards[i]``.  ``propagate`` stitches per-shard
    rows back into the dense-order matrix — bitwise-identical to the
    unsharded product (float64; same-op-order in every dtype).
    """

    operator: SparseMatrix
    shards: List[Shard]
    owner: np.ndarray
    max_power: int
    seed: int
    signature: str
    edge_cut: float

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_nodes(self) -> int:
        return int(self.owner.shape[0])

    @property
    def operator_fingerprint(self) -> str:
        return self.operator.fingerprint

    def halo_rows(self) -> int:
        """Total boundary rows replicated across shards at max power."""
        return int(sum(len(shard.halo) for shard in self.shards))

    def shard_of(self, nodes) -> np.ndarray:
        """Owning shard index for each node id."""
        return self.owner[np.asarray(nodes, dtype=np.int64)]

    def propagate(
        self,
        features: np.ndarray,
        k: int,
        caches: Optional[Sequence] = None,
    ) -> np.ndarray:
        """Stitched ``Â^k X`` computed shard-by-shard: ``(N, F)``.

        ``caches`` optionally supplies one ``PropagationCache`` per
        shard (as :meth:`GNNModel.enable_sharding` does).
        """
        if caches is not None and len(caches) != self.num_shards:
            raise ValueError(
                f"expected {self.num_shards} caches, got {len(caches)}"
            )
        out = None
        for i, shard in enumerate(self.shards):
            cache = caches[i] if caches is not None else None
            rows = shard.propagate(features, k, cache=cache)
            if out is None:
                out = np.empty(
                    (self.num_nodes, rows.shape[1]), dtype=rows.dtype
                )
            out[shard.nodes] = rows
        if out is None:  # zero shards cannot happen via build_shard_plan
            raise ValueError("plan has no shards")
        return out

    def propagate_chain(
        self,
        features: np.ndarray,
        k: int,
        caches: Optional[Sequence] = None,
    ) -> List[np.ndarray]:
        """Stitched ``[Â X, …, Â^k X]``, each power shard-by-shard.

        One fused block chain per shard (see
        :meth:`Shard.propagate_chain`): ``k`` block spmms per shard for
        *all* the powers, where stitching each power independently costs
        ``k(k+1)/2``.  Each stitched matrix is bitwise-identical to the
        corresponding :meth:`propagate` result.
        """
        if caches is not None and len(caches) != self.num_shards:
            raise ValueError(
                f"expected {self.num_shards} caches, got {len(caches)}"
            )
        outs: List[Optional[np.ndarray]] = [None] * k
        for i, shard in enumerate(self.shards):
            cache = caches[i] if caches is not None else None
            chain = shard.propagate_chain(features, k, cache=cache)
            for power_index, rows in enumerate(chain):
                if outs[power_index] is None:
                    outs[power_index] = np.empty(
                        (self.num_nodes, rows.shape[1]), dtype=rows.dtype
                    )
                outs[power_index][shard.nodes] = rows
        if any(out is None for out in outs):
            raise ValueError("plan has no shards")
        return outs  # type: ignore[return-value]

    def info(self) -> dict:
        """Structured summary for ``/fleet`` and benchmark reports."""
        return {
            "num_shards": self.num_shards,
            "num_nodes": self.num_nodes,
            "max_power": self.max_power,
            "seed": self.seed,
            "edge_cut_fraction": self.edge_cut,
            "halo_rows": self.halo_rows(),
            "signature": self.signature,
            "operator_fingerprint": self.operator_fingerprint,
            "shards": [
                {
                    "index": shard.index,
                    "nodes": int(len(shard.nodes)),
                    "halo_rows": int(len(shard.halo)),
                }
                for shard in self.shards
            ],
        }


def build_shard_plan(
    graph=None,
    *,
    adj: Optional[SparseMatrix] = None,
    num_shards: int,
    max_power: int = DEFAULT_MAX_POWER,
    seed: int = 0,
    parts: Optional[List[np.ndarray]] = None,
) -> ShardPlan:
    """Partition a graph and precompute per-shard reach sets and blocks.

    Exactly one of ``graph`` / ``adj`` must anchor the operator: given a
    ``graph`` without ``adj``, the operator is ``gcn_norm(graph.adj)``
    (the stock models' operator); given ``adj``, it is used as-is — pass
    the model's own normalized operator so fingerprints line up.
    ``parts`` overrides the BFS partitioner with an explicit node
    assignment (tests use this to pin pathological layouts).
    """
    if adj is None:
        if graph is None:
            raise ValueError("need a graph or a normalized adj to shard")
        adj = gcn_norm(graph.adj)
    if not isinstance(adj, SparseMatrix):
        adj = SparseMatrix(adj)
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if max_power < 1:
        raise ValueError(f"max_power must be >= 1, got {max_power}")

    csr = adj.csr
    n = csr.shape[0]
    if parts is None:
        parts = partition_graph(
            csr, num_shards, rng=np.random.default_rng(seed)
        )
    if len(parts) != num_shards:
        raise ValueError(
            f"expected {num_shards} parts, got {len(parts)}"
        )

    owner = np.full(n, -1, dtype=np.int64)
    for index, nodes in enumerate(parts):
        owner[np.asarray(nodes, dtype=np.int64)] = index
    if (owner < 0).any():
        raise ValueError("parts do not cover every node")
    if sum(len(p) for p in parts) != n:
        raise ValueError("parts overlap — every node must have one owner")

    cut = edge_cut_fraction(csr, [np.asarray(p) for p in parts])
    op_fp = adj.fingerprint
    shards: List[Shard] = []
    for index, part in enumerate(parts):
        nodes = np.sort(np.asarray(part, dtype=np.int64))
        reach = [nodes]
        for _ in range(max_power):
            reach.append(khop_neighborhood(csr, reach[-1], 1))
        blocks = [
            _restrict_block(csr, reach[j], reach[j + 1])
            for j in range(max_power)
        ]
        halo = np.setdiff1d(reach[-1], nodes, assume_unique=True)
        signature = _digest(
            "shard", op_fp, num_shards, max_power, index, nodes, halo
        )
        shards.append(
            Shard(
                index=index,
                nodes=nodes,
                reach=reach,
                blocks=blocks,
                signature=signature,
            )
        )

    plan_signature = _digest("plan", op_fp, num_shards, max_power, owner)
    return ShardPlan(
        operator=adj,
        shards=shards,
        owner=owner,
        max_power=max_power,
        seed=seed,
        signature=plan_signature,
        edge_cut=cut,
    )
