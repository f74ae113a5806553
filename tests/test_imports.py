"""Module boundaries: no private imports across modules, and the benchmark
tracer finds every name it wraps."""

import ast
import importlib
from pathlib import Path

import numpy as np

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
    try:
        assert curlwave.fieldlines.FieldLine.diameter is not diameter
        # The segment-pair counter binds the kernel's arguments by name.
        base = curlwave.quaternions.haar_sample(np.random.default_rng(0), 2)
        c1, c2 = (curlwave.fieldlines.hopf_fiber(b, "right") for b in base)
        curlwave.fieldlines.gauss_linking(c1, c2)
    finally:
        t.uninstall()
    assert curlwave.fieldlines.FieldLine.diameter is diameter
    kernel = [s for s in t.spans if s.name == "fieldlines.linking_solid_angle"]
    assert len(kernel) == 1 and kernel[0].error is None
    p, q = curlwave.fieldlines._prepare_pair(c1, c2)
    assert t.counters["fieldlines.segment_pairs"] == (len(p) - 1) * (len(q) - 1) > 0
