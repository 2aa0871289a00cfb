"""The benchmark harness reaches loopcorr by name: ``perfbench/workload.py``
imports functions from it, and ``perfbench/tracing.py`` wraps the functions
its ``TARGETS`` table lists.  A rename or deletion in the package would only
break a traced benchmark run; here it fails the test suite.  Both files are
read, never changed."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workload_imports():
    tree = ast.parse((PERFBENCH / "workload.py").read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "loopcorr"
            for alias in node.names]


def _tracing_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for _label, module, attr, _kind in tracing.TARGETS]


def test_benchmark_names_resolve():
    pinned = _workload_imports() + _tracing_targets()
    assert ("loopcorr.distributions", "canonicalize") in pinned
    assert ("loopcorr.distributions", "Expression.to_json") in pinned
    missing = []
    for module, name in pinned:
        obj = importlib.import_module(module)
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}:{name}")
    assert missing == []
