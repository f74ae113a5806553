"""Module boundaries: no private imports across modules, no unused import,
no public name, class member or module constant that only tests use, no
package re-exports, no error class that is neither caught nor data-driven, no
scipy on the import path, no package module that the cli leaves unloaded, no
module imported while a verb runs, and the benchmark tracer finds every name
it wraps."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
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


def _modules_loaded_by(code: str, setup: str = "") -> set[str]:
    # Modules that code adds to sys.modules in a fresh interpreter that ran
    # setup first.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    script = f"import json, sys\n{setup}\nbefore = set(sys.modules)\n{code}\n"
    script += "print(json.dumps(sorted(set(sys.modules) - before)))"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_no_scipy_module():
    # scipy.spatial and scipy.special took about 0.45 s of the start-up of
    # every command; scipy is a test dependency only.
    loaded = _modules_loaded_by("import curlwave.cli")
    assert "curlwave.fieldlines" in loaded
    assert sorted(m for m in loaded if m.startswith("scipy")) == []


# One small config per verb: all seven run in about a second.
SMALL_CONFIGS = {
    "verify-s3": {"n_points": 400},
    "verify-hyperbolic": {},
    "linking": {},
    "hopf-asymptotic": {"n_pairs": 100, "trace_T": 6.283185307179586, "n_quad": 1000, "workers": 2},
    "triangle-scan": {"n_chords": 1300, "n_triples": 20000, "workers": 2},
    "alpha-scaling": {"n_chords": 1300, "n_triples": 20000, "workers": 2},
    "m5-estimate": {},
}


def test_verbs_import_nothing_after_the_cli(tmp_path):
    # Every module a verb needs is loaded with curlwave.cli, so start-up
    # costs are paid before the first verb starts, not inside its timing.
    # numpy imports numpy.random on first use and np.median numpy.ma.
    assert sorted(SMALL_CONFIGS) == sorted(curlwave.cli.VERBS)
    code = (
        f"for verb, fields in {SMALL_CONFIGS!r}.items():\n"
        f"    cli.run(cli.ExperimentConfig(verb=verb, out_dir={str(tmp_path)!r}, **fields))"
    )
    assert sorted(_modules_loaded_by(code, setup="import curlwave.cli as cli")) == []
    assert len(list(tmp_path.glob("*_manifest.json"))) == len(SMALL_CONFIGS)


def test_package_re_exports_nothing():
    # Each object has one name, curlwave.<module>.<name>.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(tree))


def test_cli_loads_every_module():
    # A module that no verb loads holds code that only tests run; such
    # independent routes live in tests/oracles.py.
    modules = {f"curlwave.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert sorted(modules - _modules_loaded_by("import curlwave.cli")) == []


def _names_in(node: ast.AST) -> set[str]:
    # Every name, attribute and imported name under node.
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def _unused_public_names() -> set[tuple[str, str]]:
    # One name set per top-level statement, so a definition's own body does
    # not count as a use; __init__ only re-exports, so its imports do not either.
    stmts = [
        (path.stem, node, _names_in(node))
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
        for node in ast.parse(path.read_text()).body
    ]
    return {
        (module, node.name)
        for module, node, _ in stmts
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any(node.name in names for _, other, names in stmts if other is not node)
    }


def test_every_public_name_has_a_caller_in_src():
    # No exceptions: a reference route that only tests run lives in
    # tests/oracles.py, not in the package.
    assert sorted(_unused_public_names()) == [], "public names only tests use"


# Names imported into a module of src/ that it never uses, kept on purpose.
UNUSED_IMPORTS = (
    ("s3", "ordered_map", "the benchmark tracer wraps s3.ordered_map"),
    ("hypermc", "ordered_map", "the benchmark tracer wraps hypermc.ordered_map"),
)


def _unused_imports() -> set[tuple[str, str]]:
    # Each name an import statement binds in a module of src/, less the names
    # that module loads; __future__ imports bind no name.
    unused = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unused.add((path.stem, name))
    return unused


def test_every_imported_name_is_used_in_its_module():
    unused = _unused_imports()
    listed = {(module, name) for module, name, _ in UNUSED_IMPORTS}
    assert sorted(unused - listed) == [], "imported names that their module never uses"
    assert sorted(listed - unused) == [], "UNUSED_IMPORTS entries that are used or no longer imported"


# Class members that no module in src/ reads as an attribute, kept on purpose.
MEMBER_REFERENCES = (
    ("RunManifest", "version", "written to the manifest through dataclasses.asdict"),
    ("RunManifest", "timings", "written to the manifest through dataclasses.asdict"),
    ("FieldLine", "diameter", "wrapped by perfbench/tracer.py, which test_benchmark_tracer_installs installs"),
)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in _names_in(d) for d in node.decorator_list)


def _unread_members() -> set[tuple[str, str]]:
    # Dataclass fields and non-dunder methods of every class in src/, less
    # the names that src/ reads as an attribute anywhere.
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    read = {
        n.attr for tree in trees for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    members = set()
    for tree in trees:
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and _is_dataclass(cls):
                    members.add((cls.name, stmt.target.id))
                elif isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__"):
                    members.add((cls.name, stmt.name))
    return {(cls, name) for cls, name in members if name not in read}


def test_every_class_member_is_read_in_src():
    unread = _unread_members()
    listed = {(cls, name) for cls, name, _ in MEMBER_REFERENCES}
    assert sorted(unread - listed) == [], "fields and methods that src/ never reads"
    assert sorted(listed - unread) == [], "MEMBER_REFERENCES entries that src/ reads or that no longer exist"


def _unread_constants() -> set[tuple[str, str]]:
    # ALL_CAPS names assigned at module level, less those that src/ reads
    # outside their own assignment: by name in the defining module or in one
    # that imports them from it, or as module.NAME.
    defined, read = set(), set()
    for path in PACKAGE.glob("*.py"):
        module, body = path.stem, ast.parse(path.read_text()).body
        origin = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        for node in body:
            targets = set()
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    targets |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
                defined |= {(module, name) for name in targets if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name)}
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in targets:
                    read.add(origin.get(n.id, (module, n.id)))
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and isinstance(n.value, ast.Name):
                    read.add((n.value.id, n.attr))
    return defined - read


def test_every_module_constant_is_read_in_src():
    assert sorted(_unread_constants()) == [], "module constants that src/ never reads"


# Error classes that no except clause in src/ names, kept on purpose: each
# reports a failure that comes from the data or from outside the program.
UNCAUGHT_ERRORS = (
    ("ChartEscape", "a traced field line that left both charts"),
    ("ClosureFailures", "too many traced lines that would not close"),
    ("ExtrapolationUnstable", "sampled densities that cannot be fitted or extrapolated"),
    ("ConfigInvalid", "a config file or verb that the command line rejects"),
    ("IoFailure", "a report, manifest or config file that cannot be written or read"),
)


def test_every_error_class_is_caught_or_listed():
    # An argument out of range raises ValueError; a class in errors.py must
    # earn its name by being caught by type, or by naming a data failure.
    classes = {
        n.name for n in ast.parse((PACKAGE / "errors.py").read_text()).body
        if isinstance(n, ast.ClassDef)
    } - {"CurlwaveError"}
    caught = {
        name
        for path in PACKAGE.glob("*.py")
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.ExceptHandler) and n.type is not None
        for name in _names_in(n.type)
    }
    listed = {name for name, _ in UNCAUGHT_ERRORS}
    assert sorted(classes - caught - listed) == [], "error classes neither caught nor listed"
    # An entry that is caught somewhere, or no longer exists, leaves the list.
    assert sorted(listed - (classes - caught)) == [], "UNCAUGHT_ERRORS entries caught in src/ or undefined"


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
