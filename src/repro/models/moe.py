"""Mixture-of-Experts workload: the paper's stated limitation (section 7).

TopoOpt assumes the traffic pattern is identical across iterations.
MoE models break that assumption: each iteration's token-to-expert
routing changes, so the all-to-all expert dispatch pattern *drifts*
between iterations.  This module builds an MoE transformer whose
expert-dispatch traffic matrix is resampled per iteration, letting the
benchmark suite demonstrate (rather than merely assert) the limitation:
a one-shot TopoOpt topology optimized for iteration 0's pattern
degrades on later iterations, while an Ideal Switch does not care.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np

from repro.models.base import (
    BYTES_PER_ACTIVATION,
    DNNModel,
    Layer,
    LayerKind,
    attention_block,
    dense_layer,
)


def build_moe_transformer(
    num_blocks: int = 6,
    hidden: int = 1024,
    seq_len: int = 64,
    heads: int = 16,
    num_experts: int = 16,
    ffn_multiplier: int = 4,
    batch_per_gpu: int = 16,
) -> DNNModel:
    """Transformer with every FFN replaced by an expert bank.

    Expert parameters live in :class:`LayerKind.EMBEDDING`-like MP
    layers?  No -- experts are dense layers placed one per server by the
    MoE dispatcher below; here we only describe their sizes.
    """
    layers: List[Layer] = [dense_layer("embed", hidden, hidden)]
    for block in range(num_blocks):
        layers.extend(
            attention_block(
                f"block{block}", hidden, seq_len, heads, ffn_multiplier=0
            )[:1]  # attention sublayer only; experts replace the FFN
        )
        for expert in range(num_experts):
            expert_params = 2 * ffn_multiplier * hidden * hidden
            layers.append(
                Layer(
                    name=f"block{block}.expert{expert}",
                    kind=LayerKind.DENSE,
                    params_bytes=expert_params * 4.0,
                    flops_per_sample=(
                        2.0 * 2 * ffn_multiplier * hidden * hidden * seq_len
                        / num_experts
                    ),
                    activation_bytes_per_sample=(
                        seq_len * hidden * BYTES_PER_ACTIVATION / num_experts
                    ),
                )
            )
    layers.append(dense_layer("lm_head", hidden, 32000))
    return DNNModel(
        name="MoE",
        layers=tuple(layers),
        default_batch_per_gpu=batch_per_gpu,
    )


class MoeTrafficSampler:
    """Per-iteration expert-dispatch all-to-all traffic.

    Each server hosts ``experts_per_server`` experts.  Every iteration,
    token routing concentrates on a different random subset of experts
    (a Dirichlet draw with low concentration -- the hot-expert skew MoE
    systems actually see), so the server-to-server dispatch matrix
    changes iteration to iteration while its total volume stays fixed.
    """

    def __init__(
        self,
        num_servers: int,
        tokens_per_server: int,
        bytes_per_token: float,
        concentration: float = 0.3,
        seed: int = 0,
    ):
        if num_servers < 2:
            raise ValueError("need at least two servers")
        if not 0 < concentration:
            raise ValueError("concentration must be positive")
        self.num_servers = num_servers
        self.tokens_per_server = tokens_per_server
        self.bytes_per_token = bytes_per_token
        self.concentration = concentration
        self.rng = np.random.RandomState(seed)

    def iteration_matrix(self) -> np.ndarray:
        """Dispatch matrix for one iteration (bytes)."""
        n = self.num_servers
        # Expert popularity this iteration: skewed Dirichlet weights.
        weights = self.rng.dirichlet([self.concentration] * n)
        matrix = np.zeros((n, n))
        volume = self.tokens_per_server * self.bytes_per_token
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    # Tokens from src dispatched to dst's experts, plus
                    # the combine on the way back.
                    matrix[src, dst] += 2.0 * volume * weights[dst]
        return matrix

    def iteration_matrices(self, count: int) -> List[np.ndarray]:
        return [self.iteration_matrix() for _ in range(count)]


def pattern_drift(matrices: List[np.ndarray]) -> float:
    """Mean normalized L1 distance between consecutive patterns.

    0 means the paper's identical-across-iterations assumption holds;
    values near 1 mean the pattern is reshuffled every iteration.
    """
    if len(matrices) < 2:
        return 0.0
    drifts = []
    for a, b in zip(matrices, matrices[1:]):
        total = a.sum() + b.sum()
        if total > 0:
            drifts.append(np.abs(a - b).sum() / total)
    return float(np.mean(drifts)) if drifts else 0.0
