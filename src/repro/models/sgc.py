"""SGC (Wu et al., ICML 2019): GCN with activations removed.

The model collapses L propagation steps into a single precomputed
``Â^K X`` followed by one linear layer — the simplest strong baseline in
Table 3 and one of the base models Lasagne wraps in Table 7.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.graphs.graph import Graph
from repro.models.base import GNNModel
from repro.tensor.tensor import Tensor


class SGC(GNNModel):
    """``softmax(Â^K X W)`` with the propagation cached per graph view."""

    # Eval logits are one matmul over precomputed Â^K X rows, so a
    # node-subset request needs only those rows (see restricted_logits).
    supports_restricted_eval = True

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        k_hops: int = 2,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.k_hops = k_hops
        self.lin = nn.Linear(in_features, num_classes, rng=rng)
        self._propagated: Optional[Tensor] = None
        self._prop_cache = {}

    def on_attach(self, graph: Graph) -> None:
        plan = self._shard_plan
        key = (id(graph), plan.signature if plan is not None else None)
        if key not in self._prop_cache:
            # Cached paths first: the sharded stitch when a plan is
            # bound, else the content-keyed global cache (a second SGC —
            # or a GCN with cached first-layer propagation — on an equal
            # graph view reuses the same Â^k X buffers).  Both are
            # bitwise-identical to the dense loop below.
            cached = self._propagated_input(
                self._norm_adj, self._features, k=self.k_hops
            )
            if cached is not None:
                self._prop_cache[key] = cached
            else:
                propagated = self._features.data
                csr = self._norm_adj.csr
                for _ in range(self.k_hops):
                    propagated = csr @ propagated
                self._prop_cache[key] = Tensor(propagated)
        self._propagated = self._prop_cache[key]

    def forward(self, adj, x, return_hidden: bool = False):
        logits = self.lin(self._propagated)
        return self._maybe_hidden(logits, [logits], return_hidden)

    def restricted_logits(self, nodes) -> Optional[np.ndarray]:
        """Logits for ``nodes`` only: one matmul over ``Â^K X`` rows.

        Costs ``O(|nodes| · F · C)`` against the cached propagation,
        versus the full ``(N, F)`` transform of :meth:`predict` — the
        union-restricted micro-batch path in the serve engine leans on
        this when a small batch misses the logit store.
        """
        if self._propagated is None:
            return None
        rows = self._propagated.data[np.asarray(nodes, dtype=np.int64)]
        logits = rows @ self.lin.weight.data
        if self.lin.bias is not None:
            logits = logits + self.lin.bias.data
        return logits
