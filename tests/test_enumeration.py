import json
import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import regtriang

from regtriang.checkpoint import read_checkpoint
from regtriang.enumeration import enumerate_regular
from regtriang.errors import BudgetExceeded, CheckpointCorrupt, DigestMismatch
from regtriang.geometry import PointConfiguration
from regtriang.triangulation import (
    Triangulation,
    engine,
    flip,
    is_regular,
    lower_hull_subdivision,
    supported_flips,
)

from oracles import all_triangulations

SQUARE = PointConfiguration([(0, 0), (1, 0), (1, 1), (0, 1)])

VERONESE = PointConfiguration([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)])

HEXAGON = PointConfiguration(
    [(0, 0), (0, 1), (1, 1), (1, 0), (0, -1), (-1, -1), (-1, 0)]
)

NESTED = PointConfiguration([(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)])


def test_square_has_two_triangulations():
    res = enumerate_regular(SQUARE, collect=True)
    assert res.complete
    assert res.count == 2
    assert set(res.encodings) == {"1,2,3;1,3,4", "1,2,4;2,3,4"}


def test_known_counts():
    assert enumerate_regular(VERONESE).count == 14
    assert enumerate_regular(HEXAGON).count == 32


def test_every_reported_triangulation_is_valid_and_regular():
    res = enumerate_regular(VERONESE, collect=True)
    assert len(set(res.encodings)) == res.count
    for enc in res.encodings:
        t = Triangulation.decode(VERONESE, enc)
        t.validate()
        assert is_regular(t)


def test_nested_count_matches_unrestricted_exploration():
    # walk the full flip graph (regular or not) and count the regular ones
    seen = {}
    eng = engine(NESTED)
    from regtriang.triangulation import placing_triangulation

    stack = [placing_triangulation(NESTED)]
    seen[stack[0].encode()] = True
    while stack:
        t = stack.pop()
        for nb in [flip(t, c) for c in supported_flips(t)]:
            enc = nb.encode()
            if enc not in seen:
                seen[enc] = bool(eng.regular_quick(nb.masks)[0])
                stack.append(nb)
    assert len(seen) == 18
    regular = {enc for enc, ok in seen.items() if ok}
    assert len(regular) == 16

    res = enumerate_regular(NESTED, collect=True)
    assert res.count == 16
    assert set(res.encodings) == regular


def test_worker_count_does_not_change_output():
    runs = [enumerate_regular(HEXAGON, jobs=j, collect=True) for j in (1, 2, 8)]
    assert runs[0].encodings == runs[1].encodings == runs[2].encodings
    assert all(r.count == 32 for r in runs)


def test_on_accept_streams_in_collection_order():
    streamed = []
    res = enumerate_regular(VERONESE, on_accept=streamed.append, collect=True)
    assert streamed == res.encodings


def test_budget_stops_and_resume_completes(tmp_path):
    path = str(tmp_path / "hex.ckpt")
    with pytest.raises(BudgetExceeded):
        enumerate_regular(HEXAGON, budget=10, checkpoint_path=path)
    state = read_checkpoint(path)
    assert not state.done
    assert len(state.accepted) >= 10

    res = enumerate_regular(HEXAGON, checkpoint_path=path, resume=True, collect=True)
    assert res.complete
    assert res.count == 32
    fresh = enumerate_regular(HEXAGON, collect=True)
    assert set(res.encodings) == set(fresh.encodings)

    # the file now carries the done marker: one more resume is a no-op read
    again = enumerate_regular(HEXAGON, checkpoint_path=path, resume=True, collect=True)
    assert again.complete
    assert again.count == 32
    assert set(again.encodings) == set(fresh.encodings)


def test_resume_replays_every_acceptance_once(tmp_path):
    # the on_accept stream of a resumed run is the collected list, holds
    # every regular triangulation once and matches the uninterrupted run
    fresh = enumerate_regular(HEXAGON, collect=True)
    path = str(tmp_path / "hex.ckpt")
    with pytest.raises(BudgetExceeded):
        enumerate_regular(HEXAGON, budget=10, checkpoint_path=path)
    for _ in range(2):  # stopped by the budget, then finished
        streamed = []
        res = enumerate_regular(
            HEXAGON, checkpoint_path=path, resume=True,
            on_accept=streamed.append, collect=True,
        )
        assert streamed == res.encodings == fresh.encodings
        assert len(set(streamed)) == res.count == 32


def test_resume_after_truncation(tmp_path):
    path = str(tmp_path / "hex.ckpt")
    enumerate_regular(HEXAGON, checkpoint_path=path)
    with open(path, "rb") as fh:
        data = fh.read()
    # chop into the middle of the final records, losing the done marker
    with open(path, "wb") as fh:
        fh.write(data[: int(len(data) * 0.6)])
    state = read_checkpoint(path)
    assert not state.done

    streamed = []
    res = enumerate_regular(
        HEXAGON, checkpoint_path=path, resume=True,
        on_accept=streamed.append, collect=True,
    )
    assert res.complete
    assert res.count == 32
    fresh = enumerate_regular(HEXAGON, collect=True)
    assert set(res.encodings) == set(fresh.encodings)
    assert streamed == res.encodings


def test_resume_from_a_cut_at_every_byte(tmp_path):
    # a writer killed at any byte leaves a prefix of the finished file;
    # each prefix resumes to the same triangulations, each streamed once
    path = str(tmp_path / "veronese.ckpt")
    fresh = sorted(enumerate_regular(VERONESE, checkpoint_path=path, collect=True).encodings)
    with open(path, "rb") as fh:
        data = fh.read()
    for cut in range(len(data) + 1):
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        streamed = []
        res = enumerate_regular(
            VERONESE, checkpoint_path=path, resume=True,
            on_accept=streamed.append, collect=True,
        )
        assert res.complete, cut
        assert sorted(res.encodings) == sorted(streamed) == fresh, cut
        assert read_checkpoint(path).done, cut


def test_resume_rejects_other_configuration(tmp_path):
    path = str(tmp_path / "square.ckpt")
    enumerate_regular(SQUARE, checkpoint_path=path)
    with pytest.raises(DigestMismatch):
        enumerate_regular(VERONESE, checkpoint_path=path, resume=True)


def test_corrupt_checkpoint_is_reported(tmp_path):
    path = str(tmp_path / "square.ckpt")
    enumerate_regular(SQUARE, checkpoint_path=path)
    with open(path, "r") as fh:
        lines = fh.readlines()
    assert len(lines) >= 3
    lines[1] = "this is not json\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    with pytest.raises(CheckpointCorrupt):
        enumerate_regular(SQUARE, checkpoint_path=path, resume=True)


def _records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _write_records(path, records):
    with open(path, "w") as fh:
        for rec in records:  # a header's keys are sorted
            fh.write(json.dumps(rec, sort_keys="magic" in rec) + "\n")


def _as_version_1(records):
    """The records in the version 1 layout: each commit also lists its
    frontier, the sorted records since the previous commit."""
    out = []
    since = []
    for rec in records:
        if "magic" in rec:
            rec = dict(rec, version=1)
        elif rec["t"] == "v":
            since.append(rec["enc"])
        elif rec["t"] == "commit":
            rec = {"t": "commit", "level": rec["level"], "frontier": sorted(since),
                   "count": rec["count"]}
            since = []
        out.append(rec)
    return out


def test_commits_hold_no_frontier(tmp_path):
    path = str(tmp_path / "hex.ckpt")
    with pytest.raises(BudgetExceeded):
        enumerate_regular(HEXAGON, budget=10, checkpoint_path=path)
    records = _records(path)
    assert records[0]["version"] == 2
    commits = [rec for rec in records if rec.get("t") == "commit"]
    assert len(commits) >= 2
    assert all(set(rec) == {"t", "level", "count"} for rec in commits)
    # the frontier is what the level closed by the last commit accepted
    state = read_checkpoint(path)
    assert state.opened == commits[-2]["count"]
    assert state.closed == len(state.accepted)
    assert state.level == commits[-1]["level"]


@pytest.mark.parametrize(
    "enc", ["1,2,99", "1,2,x", 7, None, ["1,2,3"], "", "2,1,3", "1,1,2", "1,2", "1,2,3,4",
            "1,2,3;1,3,0", "01,2,3"],
)
def test_malformed_record_is_corrupt(tmp_path, enc):
    # a record must be the canonical encoding of cells of d+1 distinct labels in 1..N
    path = str(tmp_path / "hex.ckpt")
    enumerate_regular(HEXAGON, checkpoint_path=path)
    records = _records(path)
    level_one = [rec for rec in records if rec.get("t") == "v"][1]
    level_one["enc"] = enc
    _write_records(path, records)
    with pytest.raises(CheckpointCorrupt):
        enumerate_regular(HEXAGON, checkpoint_path=path, resume=True)


def _not_a_triangulation(records):
    """Well-formed encodings that are no triangulation of the hexagon: one
    cell, and a real record with a flat cell (labels 1, 2, 5 are collinear)
    added, so that the volumes still sum to the hull's."""
    real = Triangulation.decode(HEXAGON, [rec for rec in records if rec.get("t") == "v"][1]["enc"])
    return ["1,2,3", Triangulation(HEXAGON, real.cells + ((1, 2, 5),)).encode()]


@pytest.mark.parametrize("case", [0, 1], ids=["one-cell", "flat-cell"])
def test_record_that_is_no_triangulation_is_corrupt(tmp_path, case):
    # a resume must not count such a record and lose the real one
    path = str(tmp_path / "hex.ckpt")
    enumerate_regular(HEXAGON, checkpoint_path=path)
    records = _records(path)
    level_one = [rec for rec in records if rec.get("t") == "v"][1]
    level_one["enc"] = _not_a_triangulation(records)[case]
    _write_records(path, records)
    with pytest.raises(CheckpointCorrupt):
        enumerate_regular(HEXAGON, checkpoint_path=path, resume=True)


# six copies of the unit cell 1,2,3, whose volumes fill the hexagon
REPEATED_CELL = ";".join(["1,2,3"] * 6)
REPEATED_CELL_PLACES = ["level-one", "last-level", "frontier", "appended"]


def with_repeated_cell(records, where):
    """A finished hexagon checkpoint's records without the done record,
    with REPEATED_CELL in place of the first level-one record, among the
    records of the last level that accepted any, in the frontier of the
    last commit (which closed an empty level), or after the last commit."""
    records = records[:-1]
    commits = [i for i, rec in enumerate(records) if rec.get("t") == "commit"]
    assert records[commits[-2]]["count"] == records[commits[-1]]["count"]
    if where == "level-one":
        [rec for rec in records if rec.get("t") == "v"][1]["enc"] = REPEATED_CELL
        return records
    at = {"last-level": commits[-2], "frontier": commits[-1], "appended": len(records)}[where]
    for rec in records[at:]:
        rec["count"] += 1
    return records[:at] + [{"t": "v", "enc": REPEATED_CELL}] + records[at:]


@pytest.mark.parametrize("where", REPEATED_CELL_PLACES)
def test_record_that_repeats_a_cell_is_corrupt(tmp_path, where):
    # its volumes fill the hull, but it is no triangulation: counted, it
    # takes the place of a real one or makes 33 triangulations, and on
    # the frontier the walk ends in CheckFailed
    path = str(tmp_path / "hex.ckpt")
    enumerate_regular(HEXAGON, checkpoint_path=path)
    _write_records(path, with_repeated_cell(_records(path), where))
    with pytest.raises(CheckpointCorrupt):
        enumerate_regular(HEXAGON, checkpoint_path=path, resume=True)


@pytest.mark.parametrize(
    "line",
    [b'{"t": "commit", "level": "x", "count": 1}', b'{"t": "done"}', b"[1, 2]", b"\xff\xfe"],
)
def test_malformed_line_is_corrupt(tmp_path, line):
    path = str(tmp_path / "hex.ckpt")
    enumerate_regular(HEXAGON, checkpoint_path=path)
    with open(path, "rb") as fh:
        lines = fh.readlines()
    lines.insert(1, line + b"\n")
    with open(path, "wb") as fh:
        fh.writelines(lines)
    with pytest.raises(CheckpointCorrupt):
        read_checkpoint(path)


def test_version_1_checkpoint_resumes_from_a_cut_at_every_byte(tmp_path):
    # the inline frontiers of the older layout are redundant: every prefix
    # resumes to the uninterrupted run's encodings and acceptance stream
    path = str(tmp_path / "veronese.ckpt")
    fresh = enumerate_regular(VERONESE, checkpoint_path=path, collect=True).encodings
    _write_records(path, _as_version_1(_records(path)))
    with open(path, "rb") as fh:
        data = fh.read()
    assert read_checkpoint(path).done
    for cut in range(len(data) + 1):
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        streamed = []
        res = enumerate_regular(
            VERONESE, checkpoint_path=path, resume=True,
            on_accept=streamed.append, collect=True,
        )
        assert res.complete, cut
        assert streamed == res.encodings == fresh, cut
        assert read_checkpoint(path).done, cut


def test_version_1_inline_frontier_is_not_read(tmp_path):
    # the frontier comes from the v records, which are checked; a garbled
    # copy of it in a version 1 commit changes nothing
    path = str(tmp_path / "hex.ckpt")
    with pytest.raises(BudgetExceeded):
        enumerate_regular(HEXAGON, budget=10, checkpoint_path=path)
    records = _as_version_1(_records(path))
    for rec in records:
        if rec.get("t") == "commit":
            rec["frontier"] = ["1,2,x", 7]
    _write_records(path, records)
    res = enumerate_regular(HEXAGON, checkpoint_path=path, resume=True, collect=True)
    assert res.encodings == enumerate_regular(HEXAGON, collect=True).encodings


def test_a_fresh_walk_encodes_each_acceptance_once_and_decodes_nothing(tmp_path, monkeypatch):
    calls = Counter()
    decode, encode = Triangulation.decode.__func__, Triangulation.encode

    def counted_decode(cls, config, text):
        calls["decode"] += 1
        return decode(cls, config, text)

    def counted_encode(self):
        calls["encode"] += 1
        return encode(self)

    monkeypatch.setattr(Triangulation, "decode", classmethod(counted_decode))
    monkeypatch.setattr(Triangulation, "encode", counted_encode)
    streamed = []
    res = enumerate_regular(
        NESTED, checkpoint_path=str(tmp_path / "nested.ckpt"),
        on_accept=streamed.append, collect=True,
    )
    assert res.count == 16  # two of the 18 flip-graph nodes are rejected
    assert calls == {"encode": 16}
    assert streamed == res.encodings


_UNDER_O = """
from regtriang import triangulation
from regtriang.enumeration import enumerate_regular
from regtriang.errors import CheckFailed
from regtriang.fixtures import fixture
from regtriang.prism import prism_configuration, vertical_triangulation

square = fixture("square")
print(enumerate_regular(prism_configuration(square)).count)
base = triangulation.placing_triangulation(square)
triangulation.Engine.regular_quick = lambda self, masks: (False, None)
try:
    vertical_triangulation(base)
except CheckFailed:
    print("checked")
"""


def test_cube_enumeration_under_optimize():
    # [PAPER] 74 regular triangulations of the cube, with asserts stripped;
    # the regularity check of the staircase lift still runs.
    src = os.path.dirname(os.path.dirname(os.path.abspath(regtriang.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.split() == ["74", "checked"]


@st.composite
def _planar(draw):
    """4-6 distinct points of [0, 3]^2 spanning the plane."""
    points = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=4, max_size=6, unique=True,
        )
    )
    (x0, y0), rest = points[0], points[1:]
    assume(any((x - x0) * (y1 - y0) != (y - y0) * (x1 - x0)
               for (x, y) in rest for (x1, y1) in rest))
    return PointConfiguration(points)


@settings(max_examples=50, deadline=None)
@given(_planar())
def test_count_matches_the_brute_force_oracle(config):
    regular = 0
    for cells in all_triangulations(config):
        if is_regular(Triangulation(config, [tuple(c) for c in cells])):
            regular += 1
    assert enumerate_regular(config).count == regular


@settings(max_examples=50, deadline=None)
@given(_planar())
def test_flips_undo_and_quick_regularity_agrees(config):
    eng = engine(config)
    for enc in enumerate_regular(config, collect=True).encodings:
        t = Triangulation.decode(config, enc)
        for circ in supported_flips(t):
            nb = flip(t, circ)
            assert flip(nb, circ).encode() == enc
            ok, heights = eng.regular_quick(nb.masks)
            assert ok == bool(is_regular(nb))
            if ok:  # the heights are 0 on the frame and rebuild nb
                assert all(heights[l - 1] == 0 for l in eng.frame)
                rebuilt = lower_hull_subdivision(config.points, heights)
                assert sorted(rebuilt) == sorted(nb.masks)
