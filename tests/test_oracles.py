"""The seed references stay test oracles, out of the runtime.

``repro.oracles`` holds the seed implementations the kernels are
checked against.  Only the kernel micro-benchmarks
(``repro/perf/bench.py``) may import it inside the package, importing
the package or its CLI must not load it, and no spec field, shorthand
or parameter named ``solver`` or ``incremental`` may select a
reference again.  The same guard keeps ``observe`` retired: a run is
observed by recording it (``TRACER.recording()``), not by a knob.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from repro.api.spec import OVERRIDE_SHORTHANDS
from repro.cluster.spec import SCENARIO_SHORTHANDS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
ALLOWED_IMPORTERS = {"perf/bench.py", "oracles.py"}
RETIRED_KNOBS = {"solver", "incremental", "observe"}


def modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), ast.parse(
            path.read_text(), filename=str(path)
        )


def imports_oracles(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("repro.oracles")
                   for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro.oracles":
                return True
            if node.module in ("repro", None) and any(
                alias.name == "oracles" for alias in node.names
            ):
                return True
    return False


def test_only_the_benchmarks_import_the_oracles():
    importers = [
        name for name, tree in modules()
        if name not in ALLOWED_IMPORTERS and imports_oracles(tree)
    ]
    assert importers == []


def test_importing_the_package_leaves_the_oracles_unloaded():
    probe = (
        "import sys, repro, repro.cli; "
        "print('repro.oracles' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout.strip() == "False"


def test_no_parameter_or_field_selects_a_reference():
    found = []
    for name, tree in modules():
        if name == "oracles.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                found += [
                    f"{name}:{node.lineno} {node.name}({arg.arg}=)"
                    for arg in params if arg.arg in RETIRED_KNOBS
                ]
            elif isinstance(node, ast.ClassDef):
                found += [
                    f"{name}:{item.lineno} {node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.target.id in RETIRED_KNOBS
                ]
    assert found == []
    assert not RETIRED_KNOBS & (set(OVERRIDE_SHORTHANDS)
                                | set(SCENARIO_SHORTHANDS))
