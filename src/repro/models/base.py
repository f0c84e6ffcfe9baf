"""The model protocol shared by every GNN in the zoo.

A :class:`GNNModel` is a :class:`~repro.nn.Module` that additionally knows
how to attach itself to a :class:`~repro.graphs.Graph` (``setup`` /
``attach``), refresh any stochastic view of the graph at each epoch
(``begin_epoch`` — DropEdge, FastGCN, ClusterGCN, GraphSAINT override
this), and expose the per-layer hidden representations needed by the
mutual-information analyses of Figs. 2 and 6
(``forward(..., return_hidden=True)``).

Two protocols build on this:

- *Transductive* training calls ``setup(graph)`` once.
- *Inductive* training (Flickr/Reddit, Table 4) alternates
  ``attach(train_subgraph)`` for the loss pass and ``attach(full_graph)``
  for evaluation; ``attach`` caches the per-graph precomputation so the
  swap is cheap.  Models whose parameters depend on the node count (the
  node-aware Weighted/Stochastic Lasagne aggregators) refuse re-attachment
  to a different-sized graph — matching the paper's observation that those
  aggregators are unsuitable for inductive tasks.

Sampled-training models train on a *subset* of nodes per epoch, so
``training_batch`` returns both logits and the global node ids they refer
to; the trainer masks the loss accordingly.  Full-batch models return all
nodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import nn
from repro.graphs.graph import Graph
from repro.graphs.normalize import gcn_norm
from repro.tensor import no_grad
from repro.tensor.sparse import SparseMatrix
from repro.tensor.tensor import Tensor


class GNNModel(nn.Module):
    """Base class: full-batch training on the attached graph view."""

    #: Whether :meth:`restricted_logits` can produce exact logits for a
    #: node subset without a full forward pass.  True only for models
    #: whose eval-time receptive field is a precomputed constant (SGC:
    #: one matmul over cached ``Â^K X`` rows); deep message-passing
    #: models leave this False because evaluating a few nodes still
    #: requires propagating over (nearly) the whole graph — restriction
    #: would cost more than it saves.
    supports_restricted_eval = False

    def __init__(self) -> None:
        super().__init__()
        self.graph: Optional[Graph] = None
        self._norm_adj = None
        self._features: Optional[Tensor] = None
        self._view_cache: Dict[int, tuple] = {}
        self._prop_tensors: Dict[tuple, Tensor] = {}

    # ------------------------------------------------------------------
    def setup(self, graph: Graph) -> "GNNModel":
        """Attach the model to a graph; precompute the message operator."""
        return self.attach(graph)

    def attach(self, graph: Graph) -> "GNNModel":
        """Switch the active graph view (cached per graph object)."""
        key = id(graph)
        if key not in self._view_cache:
            self._view_cache[key] = (
                graph,
                self.build_operator(graph),
                Tensor(graph.features),
            )
        self.graph, self._norm_adj, self._features = self._view_cache[key]
        self.on_attach(graph)
        return self

    def build_operator(self, graph: Graph):
        """The message-passing operator; Â by default (Eq. 2)."""
        return gcn_norm(graph.adj)

    def on_attach(self, graph: Graph) -> None:
        """Hook for per-graph precomputation beyond the operator."""

    def can_attach(self, num_nodes: int) -> bool:
        """Whether this model can attach to a graph of ``num_nodes`` nodes.

        True by default; models whose parameters are bound to the node
        count they were built for override it.  The serve engine asks
        before a node-growth update reaches its WAL.
        """
        return True

    def begin_epoch(self, rng: np.random.Generator) -> None:
        """Hook for per-epoch stochastic graph views (default: none)."""

    # ------------------------------------------------------------------
    def training_batch(self) -> Tuple[Tensor, np.ndarray]:
        """Logits used for the loss plus the global node ids they cover."""
        logits = self.forward(self._norm_adj, self._features)
        return logits, np.arange(self.graph.num_nodes)

    def predict(self) -> np.ndarray:
        """Full-view logits in eval mode without building a tape."""
        was_training = self.training
        self.eval()
        with no_grad():
            logits = self.forward(self._norm_adj, self._features)
        if was_training:
            self.train()
        return logits.data

    def restricted_logits(self, nodes: np.ndarray) -> Optional[np.ndarray]:
        """Eval-mode logits for ``nodes`` only, or ``None``.

        The union-restricted micro-batch fast path
        (:class:`repro.serve.engine.ServeEngine`) calls this on a store
        miss so a small batch costs ``O(|nodes|)`` instead of a full
        ``(N, C)`` forward.  The default is ``None`` — callers must fall
        back to :meth:`predict` — and implementations must return logits
        matching ``predict()[nodes]``.
        """
        return None

    def hidden_representations(self) -> List[np.ndarray]:
        """Per-layer hidden matrices of a full eval-mode pass (for MI)."""
        was_training = self.training
        self.eval()
        with no_grad():
            _, hidden = self.forward(
                self._norm_adj, self._features, return_hidden=True
            )
        if was_training:
            self.train()
        return [h.data for h in hidden]

    def auxiliary_loss(self) -> Optional[Tensor]:
        """Extra regularization term added to the loss (MADReg uses this)."""
        return None

    # ------------------------------------------------------------------
    def _propagated_input(self, adj, x, k: int = 1) -> Optional[Tensor]:
        """Memoized ``Â^k x`` when ``x`` is the attached constant features.

        Returns ``None`` whenever the cached path is ineligible: the
        propagation cache is off, ``x`` is not (by identity) the attached
        feature tensor — e.g. it came out of an active dropout — or the
        operator is not a plain :class:`SparseMatrix`.  The returned
        tensor is a shared constant (no grad), so callers must not
        mutate it; the product itself comes from the process-global
        :class:`repro.perf.PropagationCache` and is shared across model
        instances on equal graphs.
        """
        from repro.perf import config as perf_config
        from repro.perf import propcache

        if self._features is None or x is not self._features:
            return None
        if not isinstance(adj, SparseMatrix):
            return None
        if not perf_config.propagation_cache_enabled():
            return None
        key = (id(adj), k)
        cached = self._prop_tensors.get(key)
        if cached is None:
            data = propcache.propagated_features(adj, self._features.data, k=k)
            cached = Tensor(data)
            self._prop_tensors[key] = cached
        return cached

    # ------------------------------------------------------------------
    def forward(self, adj, x, return_hidden: bool = False):
        raise NotImplementedError

    @staticmethod
    def _maybe_hidden(logits, hidden, return_hidden):
        if return_hidden:
            return logits, hidden
        return logits
