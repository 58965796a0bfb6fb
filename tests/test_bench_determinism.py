"""Claim benches give the same result in every process.

Python salts ``hash()`` of a string per process, so a bench that seeds
from it draws different traffic on every run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE = (
    "import hashlib\n"
    "from benchmarks.bench_fig04_prod_heatmaps import run_experiment\n"
    "for name, matrix in run_experiment().items():\n"
    "    print(name, matrix.shape, matrix.dtype,\n"
    "          hashlib.sha256(matrix.tobytes()).hexdigest())\n"
)


def fig04_arrays(hash_seed: str) -> str:
    env = {
        **os.environ,
        "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}",
        "PYTHONHASHSEED": hash_seed,
    }
    return subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        check=True, env=env, cwd=ROOT, timeout=120,
    ).stdout


def test_fig04_heatmaps_do_not_depend_on_the_hash_seed():
    first = fig04_arrays("1")
    assert len(first.splitlines()) == 4
    assert fig04_arrays("2") == first
