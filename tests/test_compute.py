"""Unit tests for the roofline compute model."""

import pytest

from repro.models import A100, GPUSpec, build_resnet50, compute_time_seconds


class TestGPUSpec:
    def test_effective_flops(self):
        gpu = GPUSpec("x", 100e12, 0.5)
        assert gpu.effective_flops == 50e12

    def test_a100_constants(self):
        assert A100.peak_flops == 312e12
        assert 0 < A100.efficiency <= 1

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ValueError):
            GPUSpec("x", 1e12, 1.5)
        with pytest.raises(ValueError):
            GPUSpec("x", 1e12, 0.0)

    def test_invalid_peak_rejected(self):
        with pytest.raises(ValueError):
            GPUSpec("x", 0.0, 0.5)


class TestComputeTime:
    def test_scales_with_batch(self):
        model = build_resnet50()
        t1 = compute_time_seconds(model, 32)
        t2 = compute_time_seconds(model, 64)
        assert t2 > t1
        # Linear in batch up to the fixed overhead.
        assert (t2 - A100.per_iteration_overhead_s) == pytest.approx(
            2 * (t1 - A100.per_iteration_overhead_s)
        )

    def test_includes_backward_multiplier(self):
        model = build_resnet50()
        gpu = GPUSpec("x", 1e15, 1.0, per_iteration_overhead_s=0.0)
        t = compute_time_seconds(model, 1, gpus_per_server=1, gpu=gpu)
        expected = model.total_flops_per_sample * 3.0 / 1e15
        assert t == pytest.approx(expected)

    def test_resnet_magnitude_plausible(self):
        # ResNet50 at batch 128 on an A100 takes on the order of 0.1-0.5s.
        t = compute_time_seconds(build_resnet50(), 128)
        assert 0.005 < t < 1.0

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            compute_time_seconds(build_resnet50(), 0)

    def test_invalid_gpus_rejected(self):
        with pytest.raises(ValueError):
            compute_time_seconds(build_resnet50(), 8, gpus_per_server=0)
