"""The Lasagne model (paper §4, Fig. 3).

``L-1`` graph-convolution layers, each followed by a node-aware layer
aggregator that fuses all previous layers' representations (§4.1), topped
by the GC-FM interaction layer (§4.2) feeding the softmax classifier.

The architecture is generic over the *base convolution* — GCN, SGC or GAT
message passing (Table 7 swaps the base while keeping the Lasagne deep
architecture) — and supports flexible per-layer hidden widths, removing
the equal-dimension restriction of ResGCN/DenseGCN.

Node-aware aggregators (Weighted, Stochastic) own parameters indexed by
node id, so they are transductive: the model refuses to re-attach to a
graph with a different node count, matching the paper's observation that
only the parameter-free Max-pooling variant suits inductive tasks
(Table 4).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Union

import numpy as np

from repro import nn
from repro.core.aggregators import (
    AGGREGATORS,
    AttentionAggregator,
    MaxPoolingAggregator,
    MeanAggregator,
    StochasticAggregator,
    StochasticGate,
    WeightedAggregator,
)
from repro.core.gcfm import GCFMLayer
from repro.graphs.graph import Graph
from repro.graphs.normalize import gcn_norm
from repro.models.base import GNNModel
from repro.models.convs import GATConv, GraphConv
from repro.tensor import ops
from repro.tensor.sparse import SparseMatrix
from repro.tensor.tensor import Tensor

BASE_CONVS = ("gcn", "sgc", "gat")


@dataclasses.dataclass
class LasagneOperator:
    """Message-passing operators needed by Lasagne's components."""

    adj: SparseMatrix
    edges: Optional[np.ndarray]
    num_nodes: int


class Lasagne(GNNModel):
    """Node-aware deep GCN (Weighted / Max-pooling / Stochastic).

    Parameters
    ----------
    in_features, hidden, num_classes:
        Dimensions; ``hidden`` may be an int (uniform width) or a sequence
        of ``num_layers - 1`` widths (flexible dims, §4.1.1).
    num_layers:
        Total depth ``L`` (``L-1`` conv layers + the GC-FM layer).
    aggregator:
        ``"weighted"`` | ``"maxpool"`` | ``"stochastic"``.
    base_conv:
        ``"gcn"`` | ``"sgc"`` | ``"gat"`` — the per-layer message passing
        whose deep architecture Lasagne replaces (Table 7).
    use_gcfm:
        When False, the GC-FM layer is replaced by a plain graph
        convolution over the concatenated hidden layers (the Table 6
        ablation baseline).
    fm_rank:
        FM latent rank ``k`` (paper default 5).
    aggregator_gc_transform:
        Ablation switch for the weighted aggregator's extra GC transform
        (Eq. 5 vs a plain JK-style weighted sum); see DESIGN.md §5.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Union[int, Sequence[int]],
        num_classes: int,
        num_layers: int = 5,
        aggregator: str = "weighted",
        base_conv: str = "gcn",
        dropout: float = 0.5,
        use_gcfm: bool = True,
        fm_rank: int = 5,
        gat_heads: int = 1,
        aggregator_gc_transform: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        if num_layers < 2:
            raise ValueError(f"Lasagne needs num_layers >= 2, got {num_layers}")
        aggregator = aggregator.lower()
        if aggregator not in AGGREGATORS:
            raise ValueError(
                f"unknown aggregator {aggregator!r}; choose from {AGGREGATORS}"
            )
        base_conv = base_conv.lower()
        if base_conv not in BASE_CONVS:
            raise ValueError(f"unknown base_conv {base_conv!r}")

        rng = np.random.default_rng(seed)
        if isinstance(hidden, int):
            dims = [hidden] * (num_layers - 1)
        else:
            dims = list(hidden)
            if len(dims) != num_layers - 1:
                raise ValueError(
                    f"hidden must have {num_layers - 1} widths, got {len(dims)}"
                )
        self.num_layers = num_layers
        self.layer_dims = tuple(dims)
        self.aggregator_kind = aggregator
        self.base_conv = base_conv
        self.use_gcfm = use_gcfm
        self.fm_rank = fm_rank
        self.gat_heads = gat_heads
        self.aggregator_gc_transform = aggregator_gc_transform
        self._init_rng = rng
        self._agg_seed = int(rng.integers(2 ** 31))

        chain = [in_features] + dims
        self.convs = nn.ModuleList()
        for i in range(num_layers - 1):
            if base_conv == "gat":
                # Heads concatenated: output width dims[i] = heads * head_dim.
                if dims[i] % gat_heads != 0:
                    raise ValueError(
                        f"hidden width {dims[i]} not divisible by {gat_heads} heads"
                    )
                self.convs.append(
                    GATConv(
                        chain[i],
                        dims[i] // gat_heads,
                        num_heads=gat_heads,
                        concat_heads=True,
                        rng=rng,
                    )
                )
            else:
                self.convs.append(
                    GraphConv(chain[i], dims[i], bias=(base_conv == "gcn"), rng=rng)
                )

        if use_gcfm:
            self.final = GCFMLayer(dims, num_classes, fm_rank=fm_rank, rng=rng)
        else:
            self.final = GraphConv(sum(dims), num_classes, rng=rng)
        self.dropout = nn.Dropout(
            dropout, rng=np.random.default_rng(rng.integers(2 ** 31))
        )

        # Node-aware components are sized by the graph, built on attach.
        self.aggregators: Optional[nn.ModuleList] = None
        self.gate: Optional[StochasticGate] = None
        self._node_count: Optional[int] = None

    # ------------------------------------------------------------------
    def build_operator(self, graph: Graph) -> LasagneOperator:
        edges = None
        if self.base_conv == "gat":
            base_edges = graph.edge_index()
            loops = np.tile(np.arange(graph.num_nodes), (2, 1))
            edges = np.hstack([base_edges, loops])
        return LasagneOperator(
            adj=gcn_norm(graph.adj), edges=edges, num_nodes=graph.num_nodes
        )

    def on_attach(self, graph: Graph) -> None:
        if self.aggregators is None:
            self._build_node_aware(graph.num_nodes)
        elif not self.can_attach(graph.num_nodes):
            raise ValueError(
                f"{self.aggregator_kind!r} aggregator parameters are bound to "
                f"{self._node_count} nodes and cannot transfer to a graph "
                f"with {graph.num_nodes} (use aggregator='maxpool' for "
                "inductive tasks, cf. Table 4)"
            )
        else:
            self._node_count = graph.num_nodes

    def can_attach(self, num_nodes: int) -> bool:
        # The weighted C and the stochastic gate logits P have one row
        # per node, fixed when the node-aware parameters are built.
        return (
            self.aggregators is None
            or self.aggregator_kind not in ("weighted", "stochastic")
            or num_nodes == self._node_count
        )

    def _build_node_aware(self, num_nodes: int) -> None:
        rng = np.random.default_rng(self._agg_seed)
        aggregators = nn.ModuleList()
        if self.aggregator_kind == "stochastic":
            self.gate = StochasticGate(num_nodes, self.num_layers - 1)
        for l in range(2, self.num_layers):  # aggregate after layers 2..L-1
            dims = self.layer_dims[:l]
            if self.aggregator_kind == "weighted":
                aggregators.append(
                    WeightedAggregator(
                        l, dims, num_nodes, rng=rng,
                        gc_transform=self.aggregator_gc_transform,
                    )
                )
            elif self.aggregator_kind == "maxpool":
                aggregators.append(MaxPoolingAggregator(l, dims))
            elif self.aggregator_kind == "mean":
                aggregators.append(MeanAggregator(l, dims))
            elif self.aggregator_kind == "attention":
                aggregators.append(AttentionAggregator(l, dims, rng=rng))
            else:
                aggregators.append(
                    StochasticAggregator(
                        l,
                        dims,
                        self.gate,
                        rng=rng,
                        sample_rng=np.random.default_rng(rng.integers(2 ** 31)),
                    )
                )
        self.aggregators = aggregators
        self._node_count = num_nodes

    # ------------------------------------------------------------------
    def _apply_conv(
        self, conv, op: LasagneOperator, h: Tensor, layer: int = -1
    ) -> Tensor:
        if self.base_conv == "gat":
            out = conv(op.edges, op.num_nodes, h)
            return ops.elu(out)
        # SGC base: linear propagation, no activation.
        activation = "relu" if self.base_conv == "gcn" else None
        if layer == 0:
            # First layer over the constant features (dropout inactive):
            # reuse the memoized Â x and skip the spmm entirely.
            px = self._propagated_input(op.adj, h)
            if px is not None:
                return conv.forward_propagated(px, activation=activation)
        from repro.perf import config as perf_config

        if perf_config.fused_enabled():
            return conv.fused_forward(op.adj, h, activation=activation)
        out = conv(op.adj, h)
        if activation is not None:
            out = out.relu()
        return out

    def forward(self, op: LasagneOperator, x, return_hidden: bool = False):
        if self.aggregators is None:
            raise RuntimeError("call setup(graph) before forward")
        hidden: List[Tensor] = []
        h = x
        for l, conv in enumerate(self.convs):
            h = self._apply_conv(conv, op, self.dropout(h), layer=l)
            hidden.append(h)
            if l >= 1:
                h = self.aggregators[l - 1](op.adj, hidden)
                hidden[-1] = h
        if self.use_gcfm:
            logits = self.final(op.adj, hidden)
        else:
            stacked = hidden[0] if len(hidden) == 1 else ops.concat(hidden, axis=1)
            logits = self.final(op.adj, self.dropout(stacked))
        return self._maybe_hidden(logits, hidden + [logits], return_hidden)

    # ------------------------------------------------------------------
    def stochastic_probabilities(self) -> np.ndarray:
        """Learned per-node layer activation probabilities (§5.2.2).

        Only available for the stochastic aggregator; rows are nodes,
        columns are hidden layers 1..L-1.
        """
        if self.gate is None:
            raise RuntimeError(
                "stochastic_probabilities requires aggregator='stochastic'"
            )
        return self.gate.probabilities_numpy()

    def __repr__(self) -> str:
        return (
            f"Lasagne(layers={self.num_layers}, dims={self.layer_dims}, "
            f"aggregator={self.aggregator_kind!r}, base={self.base_conv!r}, "
            f"gcfm={self.use_gcfm})"
        )
