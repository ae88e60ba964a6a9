"""Guards on the package source itself, read with ast."""

import ast
import gc
import importlib
import inspect
import importlib.util
import json
import subprocess
import sys
import weakref
from math import comb
from pathlib import Path

import regtriang
from regtriang import polytopes, triangulation
from regtriang.enumeration import enumerate_regular
from regtriang.fixtures import fixture, fixture_names
from regtriang.geometry import PointConfiguration
from regtriang.prism import nu_vector, prism_configuration
from regtriang.triangulation import Triangulation, engine, placing_triangulation
from regtriang.weights import eta_k, hurwitz_vector, massive_gkz

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


def test_every_polytope_that_sweeps_takes_the_enumeration_keywords():
    # a jobs-only signature would drop the CLI's --budget and --checkpoint
    calls = {
        node.name: {
            call.func.id
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        }
        for node in _tree("polytopes.py").body
        if isinstance(node, ast.FunctionDef)
    }
    sweeping = {"sweep"}
    while True:  # the functions that reach sweep, directly or not
        reach = sweeping | {name for name, called in calls.items() if called & sweeping}
        if reach == sweeping:
            break
        sweeping = reach
    public = sorted(name for name in sweeping if not name.startswith("_"))
    assert {"secondary_polytope", "standard_semistability", "check_conjecture"} <= set(public)
    for name in public:
        params = inspect.signature(getattr(polytopes, name)).parameters.values()
        assert [p.name for p in params if p.kind is p.VAR_KEYWORD] == ["enumeration"], name


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


def test_geometry_imports_no_rational_solve():
    # hulls are read on their span's chart columns: no linear system per point
    found = [
        node.lineno
        for node in ast.walk(_tree("geometry.py"))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(a.name.split(".")[-1] == "solve_rational" for a in node.names)
    ]
    assert found == []


# module-level containers the package may fill, each bounded: the worker
# process's one engine, the built-in fixtures (one configuration per name),
# and a weak index of live engines that keeps none of them alive
_MODULE_STATE = {"enumeration._WORKER", "fixtures._CACHE", "triangulation._ENGINES"}

_CONTAINERS = {
    "dict", "set", "list", "defaultdict", "OrderedDict", "Counter",
    "WeakValueDictionary", "WeakKeyDictionary",
}


def _starts_empty(value):
    """Whether a module-level value is an empty container, made to be filled."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.Set, ast.List)):
        return not value.elts
    return (
        isinstance(value, ast.Call)
        and not value.args
        and ast.unparse(value.func).split(".")[-1] in _CONTAINERS
    )


def test_every_memo_lives_on_an_engine():
    # a memo at module level would outlive the configurations it describes
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        for node in tree.body:
            if isinstance(node, ast.Assign) and _starts_empty(node.value):
                found.update(f"{path.stem}.{ast.unparse(t)}" for t in node.targets)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {a.name for a in node.names} & {"cache", "lru_cache"}
                found.update(f"{path.stem}:{node.lineno}: {name}" for name in names)
            elif isinstance(node, ast.Attribute) and node.attr in {"cache", "lru_cache"}:
                found.add(f"{path.stem}:{node.lineno}: {node.attr}")
    assert found == _MODULE_STATE


def test_engines_go_with_their_configurations():
    # memory stays bounded: each memo holds at most the configuration's
    # possible cells, and folding weights over many configurations leaves
    # none of their engines, and so none of their memos, behind
    def fold(points):
        config = PointConfiguration(points)
        prism = prism_configuration(config)
        for cfg in (config, prism):
            t = placing_triangulation(cfg)
            eta_k(t, 0), massive_gkz(t), hurwitz_vector(t)
            assert Triangulation.decode(cfg, t.encode()) == t
        for order in (None, list(reversed(prism.labels()))):
            nu_vector(placing_triangulation(prism, order))
        eng = engine(prism)
        cells = comb(len(prism.points), prism.dim + 1)
        assert eng.weight_shares and len(eng._codes) <= cells
        assert all(len(shares) <= cells for _, shares in eng.weight_shares.values())
        return [weakref.ref(engine(config)), weakref.ref(eng)]

    gc.collect()
    before = set(triangulation._ENGINES.values())
    refs = []
    for name in fixture_names():
        for shift in range(4):
            refs += fold([(x + shift, y - shift) for x, y in fixture(name).points])
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    assert set(triangulation._ENGINES.values()) <= before


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
    assert enumerate_regular(config) == 32
    assert layertrace.engine_cache_entries([engine(config)]) > 0


_TRACED_POOL = """
import json, os, shutil, sys, tempfile
from collections import Counter
sys.path[:0] = sys.argv[1:]
import layertrace
from regtriang.enumeration import enumerate_regular
from regtriang.errors import BudgetExceeded
from regtriang.fixtures import fixture
from regtriang.prism import prism_configuration

config = prism_configuration(fixture("4b"))
work = tempfile.mkdtemp()
stopped = os.path.join(work, "stopped.jsonl")
try:
    enumerate_regular(config, budget=400, checkpoint_path=stopped)
except BudgetExceeded:
    pass
# the version 2 layout: its records hold no heights
with open(stopped) as fh:
    records = [json.loads(line) for line in fh]
with open(stopped, "w") as fh:
    for rec in records:
        if "magic" in rec:
            rec["version"] = 2
        rec.pop("h", None)
        fh.write(json.dumps(rec, sort_keys="magic" in rec) + "\\n")

def run():
    # a version 2 checkpoint holds no heights, so the resumed walk's
    # candidates have no hint and go to the pool
    path = shutil.copy(stopped, os.path.join(work, "resumed.jsonl"))
    streamed = []
    enumerate_regular(config, jobs=2, checkpoint_path=path, resume=True,
                      on_accept=streamed.append)
    return streamed

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
shutil.rmtree(work)
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
    streamed = []
    enumerate_regular(prism_configuration(fixture("4b")), on_accept=streamed.append)
    return streamed

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
    # the seed and 1,325 flip candidates, and a flip builds each candidate once
    assert metrics["enumeration.decided"] == 1326
    assert metrics["enumeration.accepted"] == 1270
    assert metrics["triangulation.flips"] == metrics["enumeration.decided"] - 1 == 1325
    assert metrics["enumeration.candidates"] > metrics["triangulation.flips"]
    assert 0 < metrics["lp.strict_feasible_calls"] < 1325 / 2
    for layer in ("supported_flips_s", "flip_s", "fold_rows_s"):
        assert metrics[f"triangulation.{layer}"] > 0
