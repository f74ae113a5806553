"""Module boundaries: no private imports across modules, and the benchmark
tracer finds every name it wraps."""

import ast
import importlib
from pathlib import Path

import curlwave
import curlwave.cli

PACKAGE = Path(curlwave.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "curlwave"
        if not sibling:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module}")
    return found


def test_no_private_imports_across_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    offenders = [hit for path in modules for hit in _private_imports(path)]
    assert offenders == []


def test_benchmark_tracer_installs(monkeypatch):
    # The benchmark tracer wraps public names by attribute; removing or
    # renaming one of them must fail here, not only in the benchmark's tests.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    diameter = curlwave.fieldlines.FieldLine.diameter
    t = tracer.Tracer()
    tracer.install(t, curlwave.cli)
    assert curlwave.fieldlines.FieldLine.diameter is not diameter
    t.uninstall()
    assert curlwave.fieldlines.FieldLine.diameter is diameter
