"""Guards on the package source itself, read with ast."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import regtriang
from regtriang.enumeration import enumerate_regular
from regtriang.fixtures import fixture
from regtriang.geometry import PointConfiguration
from regtriang.triangulation import engine

SRC = Path(regtriang.__file__).parent


def _tree(name):
    return ast.parse((SRC / name).read_text(), filename=name)


def test_no_assert_in_the_package():
    # every check must also hold under python -O, where asserts vanish
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_polytopes_leaves_checkpoints_to_the_enumeration():
    # a resumed run is replayed by enumerate_regular alone
    imported = set()
    for node in ast.walk(_tree("polytopes.py")):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {m for m in imported if m and "checkpoint" in m}


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(node, names):
    if isinstance(node, ast.Name):
        return names[node.id]
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, names), node.attr)
    raise TypeError(f"cannot resolve {ast.dump(node)}")


def test_every_name_the_benchmark_imports_exists():
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("regtriang"):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(mod, alias.name):
                        try:
                            importlib.import_module(f"{node.module}.{alias.name}")
                        except ImportError:
                            missing.append(f"{path.name}: {node.module}.{alias.name}")
    assert missing == []


def test_every_entry_point_the_tracer_wraps_exists():
    # layertrace wraps by name: a missing one breaks the traced benchmark run
    tree = ast.parse((PERFBENCH / "layertrace.py").read_text())
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                importlib.import_module(alias.name)
                top = alias.name.split(".")[0]
                names[top] = importlib.import_module(top)
        elif isinstance(node, ast.ImportFrom) and node.module == "regtriang":
            for alias in node.names:
                names[alias.name] = importlib.import_module(f"regtriang.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
        ):
            try:  # aliases such as Engine = triangulation.Engine
                names[node.targets[0].id] = _resolve(node.value, names)
            except (KeyError, TypeError):  # a local, such as spans = tracer.spans
                pass
    wrapped = []
    missing = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("function", "method")
        ):
            owner = _resolve(node.args[0], names)
            attr = node.args[1].value
            wrapped.append(attr)
            # function() reads it with getattr, method() from the class __dict__
            found = hasattr(owner, attr) if node.func.id == "function" else attr in vars(owner)
            if not found:
                missing.append(f"{ast.unparse(node.args[0])}.{attr}")
    assert len(wrapped) > 30
    assert missing == []


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_setup_runs(tmp_path):
    # set-ups call package methods (face_point_masks, boundary_volume, ...)
    # that no import names, so the ast guards above cannot see them
    workloads = _perfbench_module("workloads")
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload(1, str(workdir)).setup()


def test_tracer_reads_the_engine_caches():
    # the traced benchmark counts cache entries by the engine's attribute
    # names, which neither the ast guards nor an untraced run read
    layertrace = _perfbench_module("layertrace")
    config = PointConfiguration(fixture("hexagon").points)
    assert enumerate_regular(config).count == 32
    assert layertrace.engine_cache_entries([engine(config)]) > 0


_TRACED_POOL = """
import json, sys
from collections import Counter
sys.path[:0] = sys.argv[1:]
import layertrace
from regtriang.enumeration import enumerate_regular
from regtriang.fixtures import fixture
from regtriang.prism import prism_configuration

def run():
    config = prism_configuration(fixture("4b"))
    return enumerate_regular(config, jobs=2, collect=True).encodings

plain = run()
tracer = layertrace.Tracer()
layertrace.install(tracer)
merged = Counter()
merge = tracer.merge
def counted_merge(spans, counts):
    merged.update(counts)
    merge(spans, counts)
tracer.merge = counted_merge
tracer.active = True
traced = run()
tracer.active = False
print(json.dumps({"count": len(plain), "same": traced == plain,
                  "worker_pivots": merged["pivots"]}))
"""


def test_traced_pool_run_matches_the_untraced_one():
    # the tracer hands the parent a Decision in place of each pooled
    # _decide result, and the enumeration reads only its truth value
    src = str(Path(regtriang.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_POOL, str(PERFBENCH), src],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["count"] == 1270
    assert report["same"]
    assert report["worker_pivots"] > 0
