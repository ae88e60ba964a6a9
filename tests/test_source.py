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


def test_kenergy_imports_nothing_from_lp():
    # values and domains are read off the affine pieces, not solved for
    found = []
    for node in ast.walk(_tree("kenergy.py")):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "lp" or (
                node.level and not module and any(a.name == "lp" for a in node.names)
            ):
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            found.extend(node.lineno for a in node.names if a.name.split(".")[-1] == "lp")
    assert found == []


def test_a_max_of_forms_at_its_order_lifts_nothing(monkeypatch):
    # the domains of a max of forms come from the forms, not a lower hull
    from regtriang import triangulation
    from regtriang.kenergy import (
        PLFunction,
        induced_triangulation,
        k_energy_integral,
        k_energy_pairing,
    )

    def lift(*args):
        raise AssertionError("lower hull built")

    monkeypatch.setattr(triangulation, "lower_hull_subdivision", lift)
    cases = [
        ("square", [(0, 0, 0), (3, 0, -1)], 3),
        ("4a", [(0, 0, 0), (2, 1, -1)], 3),
        ("hexagon", [(1, 0, 0), (0, 1, 0)], 1),
    ]
    for name, forms, order in cases:
        f = PLFunction.from_affine(fixture(name), forms)
        assert f.dilation_order() == order
        assert induced_triangulation(f)[1] == order
        assert k_energy_integral(f) == k_energy_pairing(f)


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


_TRACED_SERIAL = """
import json, sys
sys.path[:0] = sys.argv[1:]
import layertrace
from regtriang.enumeration import enumerate_regular
from regtriang.fixtures import fixture
from regtriang.prism import prism_configuration

def run():
    return enumerate_regular(prism_configuration(fixture("4b")), collect=True).encodings

plain = run()
tracer = layertrace.Tracer()
layertrace.install(tracer)
tracer.active = True
traced = run()
tracer.active = False
print(json.dumps({"same": traced == plain, "metrics": layertrace.layer_metrics(tracer, 1)}))
"""


def test_traced_serial_run_counts_every_decision_in_regular_quick():
    # the tracer counts enumeration.decided/.accepted on Engine.regular_quick,
    # so every serial decision, certified by a parent's heights or by the LP,
    # must go through it
    src = str(Path(regtriang.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_SERIAL, str(PERFBENCH), src],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["same"]
    metrics = report["metrics"]
    # the seed and 1,325 flip candidates
    assert metrics["enumeration.decided"] == 1326
    assert metrics["enumeration.accepted"] == 1270
    assert metrics["triangulation.flips"] == metrics["enumeration.candidates"] > 0
    assert 0 < metrics["lp.strict_feasible_calls"] < 1325 / 2
    for layer in ("supported_flips_s", "flip_s", "fold_rows_s"):
        assert metrics[f"triangulation.{layer}"] > 0
