"""Roofline compute-time model standing in for real accelerators.

The paper's testbed uses NVIDIA A100 GPUs; the simulations assume servers
with four A100s.  For the reproduction we only need compute *time*, so a
single effective-throughput roofline suffices: forward FLOPs at the
achievable fraction of peak, backward modelled as 2x forward (the usual
training accounting), plus a fixed per-iteration overhead capturing
kernel-launch and framework costs (Appendix D notes this dominates at
infinite bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.base import DNNModel


@dataclass(frozen=True)
class GPUSpec:
    """An accelerator described by its achievable training throughput."""

    name: str
    peak_flops: float
    efficiency: float  # achievable fraction of peak on real layers
    per_iteration_overhead_s: float = 1e-3

    @property
    def effective_flops(self) -> float:
        return self.peak_flops * self.efficiency

    def __post_init__(self):
        if self.peak_flops <= 0:
            raise ValueError("peak_flops must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")


#: A100 with TF32/AMP training: 312 TFLOPS peak, ~35% achieved on real
#: models -- the commonly reported MLPerf-class utilization.
A100 = GPUSpec(name="A100", peak_flops=312e12, efficiency=0.35)

BACKWARD_FLOPS_MULTIPLIER = 2.0


def compute_time_seconds(
    model: DNNModel,
    batch_per_gpu: int,
    gpus_per_server: int = 4,
    gpu: GPUSpec = A100,
) -> float:
    """Per-iteration compute time of one server's shard.

    With data parallelism every server processes ``batch_per_gpu *
    gpus_per_server`` samples through the full model; the GPUs inside a
    server work independently so server time equals single-GPU time on
    ``batch_per_gpu`` samples.
    """
    if batch_per_gpu <= 0:
        raise ValueError(f"batch size must be positive, got {batch_per_gpu}")
    if gpus_per_server <= 0:
        raise ValueError("gpus_per_server must be positive")
    forward = model.total_flops_per_sample * batch_per_gpu
    total = forward * (1.0 + BACKWARD_FLOPS_MULTIPLIER)
    return total / gpu.effective_flops + gpu.per_iteration_overhead_s
