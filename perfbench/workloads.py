"""The three workloads: inputs from a seed, one timed pass, correctness checks.

A pass answers the workload's fixed set of questions once, through the
public API, on freshly built configurations, as one command-line run
would; engine caches warmed by an earlier pass therefore do not help it.
`run_pass(ops)` makes each call through `ops`, which times it, and returns
the answers; `check` compares the answers of all passes with independent
computations or required properties and returns a list of failure
messages.
"""

import importlib.util
import json
import os
import random
import sys
import time
from fractions import Fraction
from math import lcm

from regtriang import fixtures
from regtriang.enumeration import enumerate_regular
from regtriang.errors import BudgetExceeded
from regtriang.geometry import PointConfiguration
from regtriang.kenergy import PLFunction, k_energy_integral, k_energy_pairing
from regtriang.polytopes import check_conjecture
from regtriang.prism import nu_vector, prism_configuration, vertical_triangulation
from regtriang.triangulation import Triangulation, engine, is_regular
from regtriang.weights import eta_k, hurwitz_vector


def _points(name):
    return fixtures.fixture(name).points


def _config(name):
    """A fresh configuration, so no engine cache is shared between passes."""
    return PointConfiguration(_points(name), name=name)


class Ops:
    """The operations of one pass, each timed under its own key."""

    def __init__(self):
        self.seconds = {}
        self.attempted = 0
        self.failed = 0

    def run(self, key, fn, expect=()):
        """fn(), or the `expect`ed exception it raised; None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except expect as exc:
            result = exc
        except Exception as exc:  # the benchmark keeps going and reports it
            self.failed += 1
            print(f"perfbench: {key} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        self.seconds[key] = time.perf_counter() - start
        return result


class Conjecture:
    """check_conjecture on the cube (prism over the square), 4b and 4c.

    Each question is asked with a small budget and a checkpoint, which
    stops the prism enumeration at a BFS level end, and then resumed from
    that checkpoint. Each budget range lies inside one BFS level, so every
    seed cuts at the same level and does the same work.
    """

    # (fixture, lowest budget, highest budget) -> stops at 48, 617 and 511
    QUESTIONS = (("square", 31, 48), ("4b", 387, 617), ("4c", 329, 511))

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.budgets = {name: rng.randint(lo, hi) for name, lo, hi in self.QUESTIONS}
        self.workdir = workdir

    def setup(self):
        for name, _, _ in self.QUESTIONS:
            cfg = _config(name)
            engine(cfg)
            engine(prism_configuration(cfg))
            cfg.face_point_masks(1)

    def _checkpoint(self, name):
        return os.path.join(self.workdir, f"conjecture-{name}.jsonl")

    def run_pass(self, ops):
        answers = {}
        for name, _, _ in self.QUESTIONS:
            ck = self._checkpoint(name)
            if os.path.exists(ck):
                os.remove(ck)
            budget = self.budgets[name]
            stop = ops.run(
                f"{name} stopped",
                lambda: check_conjecture(_config(name), budget=budget, checkpoint_path=ck),
                expect=BudgetExceeded,
            )
            if stop is None:
                continue
            report = ops.run(
                f"{name} resumed",
                lambda: check_conjecture(_config(name), checkpoint_path=ck, resume=True),
            )
            if report is not None:
                answers[name] = (isinstance(stop, BudgetExceeded), report)
        return answers

    def check(self, passes):
        bad = []
        answers = passes[-1]
        if any(p != answers for p in passes):
            bad.append("conjecture reports differ between passes")
        oracle = _load_oracle()
        for name, _, _ in self.QUESTIONS:
            if name not in answers:
                continue
            interrupted, report = answers[name]
            if not interrupted:
                bad.append(f"{name}: budget {self.budgets[name]} did not interrupt")
            if name == "square" and report["prism_count"] != 74:
                bad.append(f"cube: {report['prism_count']} prism triangulations, not 74")
            cfg = _config(name)
            regular = []
            for cells in oracle.all_triangulations(cfg):
                t = Triangulation(cfg, cells)
                if is_regular(t):
                    regular.append(t)
            if report["base_count"] != len(regular):
                bad.append(
                    f"{name}: base count {report['base_count']}, "
                    f"brute force finds {len(regular)} regular"
                )
            accepted = _checkpoint_encodings(self._checkpoint(name))
            if len(accepted) != report["prism_count"]:
                bad.append(f"{name}: checkpoint holds {len(accepted)} triangulations")
            for t in regular:
                lift = vertical_triangulation(t)
                if nu_vector(lift).values != hurwitz_vector(t).values:
                    bad.append(f"{name}: nu of the vertical lift of {t} is not xi")
                if lift.encode() not in accepted:
                    bad.append(f"{name}: xi of {t} is not among the folded vectors")
            reference = check_conjecture(_config(name), jobs=2)
            if reference != report:
                bad.append(f"{name}: resumed report {report} != uninterrupted {reference}")
        return bad


class HexagonPrefix:
    """A fixed prefix of the hexagon prism enumeration on two workers.

    The budget stops the BFS at the end of the level where the accepted
    count reaches it, which is the same level on every run.
    """

    BUDGET = 1000
    JOBS = 2
    SAMPLE = 3

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)

    def setup(self):
        engine(prism_configuration(_config("hexagon")))

    def run_pass(self, ops):
        accepted = []
        stop = ops.run(
            "prefix",
            lambda: enumerate_regular(
                prism_configuration(_config("hexagon")),
                jobs=self.JOBS,
                budget=self.BUDGET,
                on_accept=accepted.append,
            ),
            expect=BudgetExceeded,
        )
        if stop is None:
            return None
        return (str(stop) if isinstance(stop, BudgetExceeded) else None, accepted)

    def check(self, passes):
        bad = []
        answers = [p for p in passes if p is not None]
        if not answers:
            return bad
        stopped, accepted = answers[-1]
        if any(a != answers[-1] for a in answers):
            bad.append("hexagon prefix differs between passes")
        if stopped is None or f"stopped at {len(accepted)} " not in stopped:
            bad.append(f"budget stop not reported for {len(accepted)} accepted: {stopped}")
        if len(accepted) < self.BUDGET or len(set(accepted)) != len(accepted):
            bad.append(f"{len(accepted)} accepted, not {self.BUDGET}+ distinct ones")
        prism = prism_configuration(_config("hexagon"))
        gkz_sum = 4 * 6 * _polygon_area(_points("hexagon"))  # (d+1) normalized volume
        gkz = set()
        for enc in accepted:
            vec = eta_k(Triangulation.decode(prism, enc), 3).values
            if sum(vec) != gkz_sum:
                bad.append(f"GKZ vector of {enc} sums to {sum(vec)}, not {gkz_sum}")
            gkz.add(vec)
        if len(gkz) != len(accepted):
            bad.append(f"{len(accepted) - len(gkz)} repeated GKZ vectors")
        for enc in self.rng.sample(accepted, self.SAMPLE):
            t = Triangulation.decode(prism, enc)
            try:
                t.validate()
            except Exception as exc:
                bad.append(f"{enc} is not a triangulation: {exc}")
            if not is_regular(t):
                bad.append(f"{enc} fails the cell-by-point regularity LP")
        return bad


class KEnergy:
    """Both K-energy routes on seeded random envelopes and on maxima of
    affine forms whose linearity domains need dilation (order 2 or 3).

    The raw envelope heights are drawn once from a fixed generator. The
    seed adds a random integer affine function to each of them, and one
    random integer affine form to all forms of each maximum. An added affine
    function moves no linearity domain, subdivision or dilation order, so
    every seed gives new inputs that cost the same work.
    """

    ENVELOPE_FIXTURES = ("3", "4a", "4c", "square", "5a", "veronese", "hexagon", "6c")
    PER_FIXTURE = 4
    AFFINE = (
        ("square", ((0, 0, 0), (2, 0, -1))),
        ("square", ((0, 0, 0), (3, 0, -1))),
        ("veronese", ((0, 0, 0), (2, 0, -1), (0, 2, -1))),
        ("4a", ((0, 0, 0), (2, 1, -1))),
    )
    SCALED = 3  # envelope functions whose scaled copies are checked

    def __init__(self, seed, workdir):
        base = random.Random(0)
        rng = random.Random(seed)
        self.envelopes = []
        for name in self.ENVELOPE_FIXTURES:
            for _ in range(self.PER_FIXTURE):
                a1, a2, c = (rng.randint(-6, 6) for _ in range(3))
                raw = [
                    Fraction(base.randrange(-12, 13), base.choice((1, 1, 2, 3)))
                    + a1 * x + a2 * y + c
                    for x, y in _points(name)
                ]
                self.envelopes.append((name, raw))
        self.affine = []
        for name, forms in self.AFFINE:
            shift = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            self.affine.append(
                (name, tuple(tuple(a + b for a, b in zip(f, shift)) for f in forms))
            )
        self.constant = Fraction(rng.randrange(1, 50), rng.randrange(1, 7))

    def setup(self):
        for name in set(self.ENVELOPE_FIXTURES) | {n for n, _ in self.AFFINE}:
            cfg = _config(name)
            engine(cfg)
            cfg.polytope.boundary_volume()

    def run_pass(self, ops):
        answers = []
        for i, (name, raw) in enumerate(self.envelopes):
            answers.append(ops.run(f"envelope {i}", lambda: _energies(PLFunction.envelope, name, raw)))
        for i, (name, forms) in enumerate(self.affine):
            answers.append(ops.run(f"affine {i}", lambda: _energies(PLFunction.from_affine, name, forms)))
        return answers

    def check(self, passes):
        bad = []
        answers = passes[-1]
        if any(p != answers for p in passes):
            bad.append("K-energies differ between passes")
        for (name, _), got in zip(self.envelopes + self.affine, answers):
            if got is not None and got[0] != got[1]:
                bad.append(f"{name}: integral {got[0]} != pairing {got[1]}")
        for name in self.ENVELOPE_FIXTURES:
            cfg = _config(name)
            const = PLFunction.from_heights(cfg, [self.constant] * len(cfg))
            if k_energy_integral(const) != 0 or k_energy_pairing(const) != 0:
                bad.append(f"{name}: a constant has nonzero K-energy")
        for i in range(self.SCALED):
            idx = i * self.PER_FIXTURE
            name, raw = self.envelopes[idx]
            if answers[idx] is None:
                continue
            energy = answers[idx][0]
            cfg = _config(name)
            f = PLFunction.envelope(cfg, raw)
            double = PLFunction.from_heights(cfg, [2 * h for h in f.heights])
            third = PLFunction.from_heights(cfg, [h / 3 for h in f.heights])
            if k_energy_pairing(double) != 2 * energy or k_energy_pairing(third) != energy / 3:
                bad.append(f"{name}: K-energy is not linear under scaling")
        for name, forms in self.affine:
            got = PLFunction.from_affine(_config(name), forms).dilation_order()
            want = dilation_order(forms, _points(name))
            if got != want or want not in (2, 3):
                bad.append(f"{name} {forms}: dilation order {got}, break lines give {want}")
        return bad


def _energies(make, name, data):
    f = make(_config(name), data)
    return k_energy_integral(f), k_energy_pairing(f)


WORKLOADS = {"conjecture": Conjecture, "hexagon-prefix": HexagonPrefix, "kenergy": KEnergy}


# -- independent computations used by the checks ---------------------------


def _load_oracle():
    """The brute-force triangulation enumerator of the test suite."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _checkpoint_encodings(path):
    """Accepted encodings of a finished checkpoint, read without the library."""
    out = set()
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("t") == "v":
                out.add(rec["enc"])
    return out


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points):
    """Convex hull vertices in counter-clockwise order (monotone chain)."""
    pts = sorted(set(points))
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _polygon_area(points):
    hull = _hull(points)
    twice = sum(_cross((0, 0), hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull)))
    return Fraction(twice, 2)


def dilation_order(forms, points):
    """Least k putting every vertex of max(forms)'s linearity domains on
    the lattice: the lcm of the vertex coordinates' denominators.

    Domain i is {x in Q : form_i(x) >= form_j(x) for all j}. Its vertices
    are the points of it where two independent constraint lines meet;
    only full-dimensional domains count.
    """
    hull = _hull(points)
    # constraint a.x + c >= 0 for Q: inner normals of the edges
    edges = []
    for i in range(len(hull)):
        p, q = hull[i], hull[(i + 1) % len(hull)]
        a = (p[1] - q[1], q[0] - p[0])
        edges.append((a, -(a[0] * p[0] + a[1] * p[1])))
    forms = [tuple(Fraction(x) for x in f) for f in forms]
    k = 1
    for i, fi in enumerate(forms):
        cons = list(edges)
        for j, fj in enumerate(forms):
            if j != i:
                cons.append(((fi[0] - fj[0], fi[1] - fj[1]), fi[2] - fj[2]))
        cons = [(a, c) for a, c in cons if a != (0, 0) or c < 0]
        if any(a == (0, 0) for a, _ in cons):
            continue  # dominated everywhere by an equal-slope form
        verts = set()
        for s in range(len(cons)):
            for t in range(s + 1, len(cons)):
                (a1, c1), (a2, c2) = cons[s], cons[t]
                det = a1[0] * a2[1] - a1[1] * a2[0]
                if det == 0:
                    continue
                x = Fraction(-c1 * a2[1] + c2 * a1[1]) / det
                y = Fraction(-a1[0] * c2 + a2[0] * c1) / det
                if all(a[0] * x + a[1] * y + c >= 0 for a, c in cons):
                    verts.add((x, y))
        if len(verts) < 3 or len(_hull(list(verts))) < 3:
            continue  # not full-dimensional
        for x, y in verts:
            k = lcm(k, x.denominator, y.denominator)
    return k
