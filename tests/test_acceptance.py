"""Acceptance gate: one pass/fail line per promised behavior.

Run `pytest -v tests/test_acceptance.py` to see each criterion on its
own line.  The long seven-point prism enumerations (hexagon's 928930
and the extended table rows) only run with REGTRIANG_EXTENDED=1 set in
the environment; everything else is desk-scale.
"""

import json
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from regtriang.cli import main as cli_main
from regtriang.enumeration import enumerate_regular
from regtriang.errors import BudgetExceeded
from regtriang.fixtures import fixture, fixture_names
from regtriang.kenergy import (
    PLFunction,
    boundary_integral,
    induced_triangulation,
    integral_over_Q,
    k_energy_integral,
    k_energy_pairing,
)
from regtriang.polytopes import (
    check_conjecture,
    hurwitz_candidate_polytope,
    hurwitz_degree_formula,
    prism_hurwitz_polytope,
    relative_interior_contains,
)
from regtriang.prism import (
    circuit_z1,
    circuit_z2,
    find_cubic_mixed,
    mixed_volumes,
    nu_vector,
    prism_configuration,
    vertical_triangulation,
)
from regtriang.triangulation import Triangulation, flip, is_regular
from regtriang.weights import eta_k, hurwitz_vector

from oracles import all_triangulations
from test_enumeration import accepted
from test_prism import FIFTEEN, classify
from test_weights import HEXAGON_HURWITZ, VERONESE_HURWITZ

EXTENDED = bool(os.environ.get("REGTRIANG_EXTENDED"))
GOLDEN = Path(__file__).parent / "golden" / "table_reflexive.json"

TABLE_DEFAULT = {
    "3": (2, 84),
    "4a": (3, 544),
    "4b": (4, 1270),
    "4c": (4, 884),
    "5a": (10, 26540),
    "5b": (12, 33380),
}

TABLE_EXTENDED = {
    "6a": (32, 928930),
    "6b": (35, 980824),
    "6c": (32, 696710),
    "6d": (32, 737000),
}


def all_regular(config):
    return [Triangulation.decode(config, enc) for enc in accepted(config)]


def xi_set(config):
    return {hurwitz_vector(t).values for t in all_regular(config)}


def test_01_square_two_triangulations_and_cube_midpoint():
    """Square: 2 triangulations, both Hurwitz vectors, cube count 74,
    and the mixed-simplex triangulations fold to the exact midpoint."""
    t0 = time.monotonic()
    cfg = fixture("square")
    assert enumerate_regular(cfg) == 2
    xis = xi_set(cfg)
    assert xis == {(2, 0, 2, 0), (0, 2, 0, 2)}

    cube = prism_configuration(cfg)
    encodings = accepted(cube)
    assert len(encodings) == 74

    mixed_nus = set()
    for enc in encodings:
        t = Triangulation.decode(cube, enc)
        if find_cubic_mixed(t):
            mixed_nus.add(nu_vector(t).values)
    assert mixed_nus == {(1, 1, 1, 1)}
    midpoint = tuple(Fraction(a + b, 2) for a, b in zip(*sorted(xis)))
    assert midpoint == (1, 1, 1, 1)
    assert time.monotonic() - t0 < 1.0


def test_02_veronese_fourteen_vectors_and_prism_hull():
    """Veronese: 14 triangulations and Hurwitz vectors; prism count
    28080; the folded hull's 14 vertices are exactly the Hurwitz set."""
    t0 = time.monotonic()
    cfg = fixture("veronese")
    assert xi_set(cfg) == VERONESE_HURWITZ
    assert len(VERONESE_HURWITZ) == 14

    report = check_conjecture(cfg)
    assert report["base_count"] == 14
    assert report["prism_count"] == 28080
    assert report["nu_vertex_count"] == 14
    assert report["vertices_match"] is True
    assert time.monotonic() - t0 < 120.0


def test_03_hexagon_vectors_and_fifteen_tetrahedra():
    """Hexagon: 32 triangulations and Hurwitz vectors; the fifteen-
    tetrahedron prism triangulation folds to (2,7,4,0,7,4,0), which is
    properly contained in the Hurwitz hull: not a vertex, not even a
    midpoint of vertices (it does touch the relative boundary, so
    strict interior membership is recorded as false, not asserted)."""
    t0 = time.monotonic()
    cfg = fixture("hexagon")
    assert xi_set(cfg) == HEXAGON_HURWITZ
    assert len(HEXAGON_HURWITZ) == 32

    prism = prism_configuration(cfg)
    t = Triangulation.decode(prism, FIFTEEN)
    t.validate()
    assert is_regular(t)
    assert len(t.cells) == 15
    nu = nu_vector(t).values
    assert nu == (2, 7, 4, 0, 7, 4, 0)

    hur = hurwitz_candidate_polytope(cfg)
    assert nu in hur
    assert nu not in set(hur.vertices)
    vs = sorted(hur.vertices)
    for i, a in enumerate(vs):
        for b in vs[i:]:
            assert any(p + q != 2 * r for p, q, r in zip(a, b, nu))
    assert not relative_interior_contains(hur, nu)
    assert time.monotonic() - t0 < 5.0


@pytest.mark.skipif(not EXTENDED, reason="set REGTRIANG_EXTENDED=1 to run")
def test_03_hexagon_full_prism_count_extended():
    """Hexagon prism: the full enumeration reaches 928930."""
    prism = prism_configuration(fixture("hexagon"))
    assert enumerate_regular(prism) == 928930


def test_04_reflexive_table_default_rows(capsys):
    """Six-row verification table matches the committed golden file.

    Row 4c's prism count is asserted as 884: the flip-graph enumeration
    (every accepted triangulation carries an exact regularity
    certificate) and independent random-height sampling of induced
    lower hulls agree on that value.
    """
    t0 = time.monotonic()
    code = cli_main(["table", "reflexive"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)

    golden = json.loads(GOLDEN.read_text())
    golden_default = [
        row for row in golden["rows"] if row["label"] in TABLE_DEFAULT
    ]
    assert report["rows"] == golden_default

    rows = {row["label"]: row for row in report["rows"]}
    assert set(rows) == set(TABLE_DEFAULT)
    for label, (base, prisms) in TABLE_DEFAULT.items():
        row = rows[label]
        assert row["base_count"] == base, label
        assert row["prism_count"] == prisms, label
        assert row["nu_vertex_count"] == base, label
        assert row["vertices_match"] is True, label
        assert row["normal_equivalent"] is True, label
    assert time.monotonic() - t0 < 600.0


@pytest.mark.skipif(not EXTENDED, reason="set REGTRIANG_EXTENDED=1 to run")
def test_04_reflexive_table_extended_rows(capsys):
    """Seven-point rows 6a-6d match the committed golden file."""
    code = cli_main(["table", "reflexive", "--extended"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    golden = json.loads(GOLDEN.read_text())
    assert report["rows"] == golden["rows"]
    rows = {row["label"]: row for row in report["rows"]}
    for label, (base, prisms) in TABLE_EXTENDED.items():
        row = rows[label]
        assert row["base_count"] == base, label
        assert row["prism_count"] == prisms, label
        assert row["nu_vertex_count"] == base, label
        assert row["vertices_match"] is True, label
        assert row["normal_equivalent"] is True, label


def test_05_degree_formula_every_fixture():
    """Half the Hurwitz coordinate sum equals 3 vol - boundary volume
    for every triangulation of every fixture; 2, 6, 12 on the examples."""
    named = {"square": 2, "veronese": 6, "hexagon": 12}
    for name in fixture_names():
        cfg = fixture(name)
        poly = cfg.polytope
        expected = 3 * poly.normalized_volume() - poly.boundary_volume()
        assert expected == hurwitz_degree_formula(poly)
        if name in named:
            assert expected == named[name]
        for t in all_regular(cfg):
            assert Fraction(sum(hurwitz_vector(t).values), 2) == expected


def test_06_vertical_prism_fold_oracle_every_fixture():
    """For every regular triangulation of every fixture, the vertical
    prism triangulation folds back to the Hurwitz vector, and the level
    fold identities hold per point class (polygon vertex, edge
    interior, interior)."""
    t0 = time.monotonic()
    for name in fixture_names():
        cfg = fixture(name)
        m = len(cfg.points)
        vertices, edge_interior, interior = classify(cfg)
        for t in all_regular(cfg):
            vt = vertical_triangulation(t)
            assert nu_vector(vt).values == hurwitz_vector(t).values, (name, t)
            folds = {}
            for k in range(4):
                ek = eta_k(vt, k)
                folds[k] = [
                    ek.entry(i) + ek.entry(i + m) for i in range(1, m + 1)
                ]
            e2 = eta_k(t, 2)
            e1 = eta_k(t, 1)
            for i in range(1, m + 1):
                got = tuple(folds[k][i - 1] for k in (3, 2, 1, 0))
                if i in vertices:
                    want = (
                        4 * e2.entry(i),
                        2 * e2.entry(i) + 3 * e1.entry(i),
                        2 * e1.entry(i) + 2,
                        2,
                    )
                elif i in edge_interior:
                    want = (
                        4 * e2.entry(i),
                        2 * e2.entry(i) + 3 * e1.entry(i),
                        2 * e1.entry(i),
                        0,
                    )
                else:
                    want = (4 * e2.entry(i), 2 * e2.entry(i), 0, 0)
                assert got == want, (name, t.encode(), i)
    assert time.monotonic() - t0 < 60.0


def test_07_triangular_prism_top_fold():
    """Each triangular prism has exactly 6 regular triangulations and
    the top-level fold equals 4 vol at every base point, including the
    volume-4 triangle."""
    for name, fold in (("triangle", 4), ("triangle4", 16)):
        base = fixture(name)
        assert fold == 4 * base.polytope.normalized_volume()
        pr = prism_configuration(base)
        encodings = accepted(pr)
        assert len(encodings) == 6
        for enc in encodings:
            t = Triangulation.decode(pr, enc)
            top = eta_k(t, 3)
            for i in range(1, 4):
                assert top.entry(i) + top.entry(i + 3) == fold


def test_08_cube_mixed_simplex_midpoint_and_shifts():
    """On the cube, every triangulation holding a cubic mixed simplex is
    the exact midpoint of its two circuit modifications, with coordinate
    shifts (-d, -c, +b, +a) on the four base labels."""
    cube = prism_configuration(fixture("square"))
    hits = 0
    for enc in accepted(cube):
        t = Triangulation.decode(cube, enc)
        found = find_cubic_mixed(t)
        if not found:
            continue
        hits += 1
        nu = nu_vector(t).values
        for ms in found:
            a, b, c, d = mixed_volumes(cube, ms)
            one = flip(t, circuit_z1(cube, ms))
            other = flip(t, circuit_z2(cube, ms))
            one.validate()
            other.validate()
            nu1 = nu_vector(one).values
            nu2 = nu_vector(other).values
            shift = {ms.i: -d, ms.j: -c, ms.ip: b, ms.jp: a}
            for label in range(1, 5):
                assert nu1[label - 1] == nu[label - 1] + shift.get(label, 0)
                assert nu2[label - 1] == nu[label - 1] - shift.get(label, 0)
            assert all(2 * x == y + z for x, y, z in zip(nu, nu1, nu2))
    assert hits == 2


def test_09_k_energy_pairing_equals_integral():
    """For 100 seeded random convex height functions per fixture the
    weight-vector pairing equals the integral value exactly; constants
    have zero energy and scaling is linear."""
    t0 = time.monotonic()
    for idx, name in enumerate(fixture_names()):
        cfg = fixture(name)
        n = cfg.polytope.dim
        ratio = Fraction(
            cfg.polytope.boundary_volume(), cfg.polytope.normalized_volume()
        )
        const = PLFunction.from_heights(cfg, [Fraction(7, 3)] * len(cfg))
        assert k_energy_integral(const) == 0
        assert k_energy_pairing(const) == 0

        rng = random.Random(77000 + idx)
        for trial in range(100):
            raw = [
                Fraction(rng.randrange(-12, 13), rng.choice((1, 1, 2, 3)))
                for _ in cfg.points
            ]
            f = PLFunction.envelope(cfg, raw)
            t, k = induced_triangulation(f)
            assert k == 1
            integral = boundary_integral(f, t) - n * ratio * integral_over_Q(f, t)
            assert k_energy_pairing(f, t) == integral
            if trial < 10:
                assert k_energy_integral(f) == integral
                double = PLFunction.from_heights(
                    cfg, [2 * h for h in f.heights]
                )
                assert k_energy_pairing(double, t) == 2 * integral
                third = PLFunction.from_heights(
                    cfg, [h / 3 for h in f.heights]
                )
                assert k_energy_pairing(third, t) == integral / 3
    assert time.monotonic() - t0 < 60.0


def test_10_weight_sum_invariants_every_enumerated_triangulation():
    """Top and edge weight sums equal 3 vol and 2 boundary-vol on every
    regular triangulation of every fixture."""
    for name in fixture_names():
        cfg = fixture(name)
        vol = cfg.polytope.normalized_volume()
        bvol = cfg.polytope.boundary_volume()
        for t in all_regular(cfg):
            assert sum(eta_k(t, 2).values) == 3 * vol, (name, t)
            assert sum(eta_k(t, 1).values) == 2 * bvol, (name, t)


@pytest.mark.parametrize(
    "name", ["triangle4", "square", "3", "4a", "4b", "veronese", "hexagon"]
)
def test_10_bruteforce_count_oracle(name):
    """Independent brute-force oracle: generate all triangulations of
    the configuration (regular or not), keep the regular ones, and
    match the flip-graph enumeration count exactly."""
    cfg = fixture(name)
    tilings = all_triangulations(cfg)
    regular = 0
    for cells in tilings:
        t = Triangulation(cfg, [tuple(c) for c in cells])
        t.validate()
        if is_regular(t):
            regular += 1
    assert regular == enumerate_regular(cfg)


def test_10_enumeration_determinism_across_workers():
    """Identical sorted encodings with 1, 2, and 8 workers."""
    cube = prism_configuration(fixture("square"))
    runs = [sorted(accepted(cube, jobs=jobs)) for jobs in (1, 2, 8)]
    assert runs[0] == runs[1] == runs[2]
    assert len(runs[0]) == 74


def test_10_kill_and_resume_equivalence(tmp_path):
    """A budget-interrupted run, resumed, and a run resumed from a
    checkpoint truncated mid-write both reproduce the uninterrupted
    enumeration exactly."""
    cube = prism_configuration(fixture("square"))
    baseline = sorted(accepted(cube))

    ck = str(tmp_path / "interrupted.jsonl")
    with pytest.raises(BudgetExceeded):
        enumerate_regular(cube, budget=20, checkpoint_path=ck)
    assert sorted(accepted(cube, checkpoint_path=ck, resume=True)) == baseline

    hard = tmp_path / "killed.jsonl"
    with pytest.raises(BudgetExceeded):
        enumerate_regular(cube, budget=30, checkpoint_path=str(hard))
    data = hard.read_bytes()
    hard.write_bytes(data[: len(data) - 17])  # rip through the last record
    assert sorted(accepted(cube, checkpoint_path=str(hard), resume=True)) == baseline


def test_11_hurwitz_vectors_lie_in_folded_prism_hull():
    """Every Hurwitz vector lies in the folded prism hull, for every
    configuration whose prism enumeration completes here."""
    for name in ("square", "veronese", "3", "4a", "4b", "4c", "5a", "5b"):
        cfg = fixture(name)
        hull = prism_hurwitz_polytope(cfg)
        for xi in xi_set(cfg):
            assert xi in hull, (name, xi)
