"""Figure 4: traffic heatmaps of production jobs.

Paper: four production jobs (48/48/49/12 servers) all show the
ring-AllReduce diagonal; MP rows/columns vary with the model.  We build
four synthetic jobs through the real traffic extractor and verify the
same structure.
"""

import zlib

import numpy as np

from benchmarks.harness import emit, format_table
from repro.analysis.heatmap import diagonal_offsets, heatmap_summary
from repro.traces.generator import ProductionTraceGenerator

JOBS = [
    ("Vision", 48, 0),
    ("Image processing", 48, 2),
    ("Object Tracking", 49, 4),
    ("Speech Recognition", 12, 3),
]


def run_experiment():
    gen = ProductionTraceGenerator(seed=7)
    heatmaps = {}
    for name, servers, mp_layers in JOBS:
        heatmaps[name] = gen.production_heatmap(
            servers, num_mp_layers=mp_layers,
            seed=zlib.crc32(name.encode()) % 1000,
        )
    return heatmaps


def bench_fig04(benchmark):
    heatmaps = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    lines = ["Figure 4: production job traffic heatmaps (synthetic)"]
    rows = []
    for name, matrix in heatmaps.items():
        summary = heatmap_summary(matrix)
        diags = diagonal_offsets(matrix, threshold=0.05)
        n = matrix.shape[0]
        mp_rows = sum(
            1 for i in range(n) if (np.delete(matrix[i], i) > 0).all()
        )
        rows.append(
            (
                name,
                n,
                f"{diags[:3]}",
                mp_rows,
                f"{summary['max_bytes'] / 1e6:.0f} MB",
            )
        )
    lines += format_table(
        ("job", "servers", "ring diagonals", "MP rows", "max transfer"),
        rows,
    )
    lines.append(
        "every job shows the ring diagonal (offset 1), as in the paper"
    )
    emit("fig04_prod_heatmaps", lines)
    for name, matrix in heatmaps.items():
        assert 1 in diagonal_offsets(matrix, threshold=0.05), name
