import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import regtriang
from regtriang import enumeration, triangulation

from regtriang.checkpoint import CheckpointWriter, read_checkpoint
from regtriang.enumeration import enumerate_regular
from regtriang.errors import BudgetExceeded, CheckpointCorrupt, DigestMismatch
from regtriang.fixtures import fixture
from regtriang.geometry import PointConfiguration
from regtriang.prism import prism_configuration
from regtriang.triangulation import (
    Engine,
    Triangulation,
    engine,
    flip,
    is_regular,
    lower_hull_subdivision,
    supported_flips,
)

from oracles import all_triangulations, present_side

SQUARE = PointConfiguration([(0, 0), (1, 0), (1, 1), (0, 1)])

VERONESE = PointConfiguration([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)])

HEXAGON = PointConfiguration(
    [(0, 0), (0, 1), (1, 1), (1, 0), (0, -1), (-1, -1), (-1, 0)]
)

NESTED = PointConfiguration([(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)])


def accepted(config, **kwargs):
    """The encodings an enumeration hands to on_accept, in order."""
    streamed = []
    enumerate_regular(config, on_accept=streamed.append, **kwargs)
    return streamed


def test_square_has_two_triangulations():
    streamed = []
    assert enumerate_regular(SQUARE, on_accept=streamed.append) == 2
    assert set(streamed) == {"1,2,3;1,3,4", "1,2,4;2,3,4"}


def test_known_counts():
    assert enumerate_regular(VERONESE) == 14
    assert enumerate_regular(HEXAGON) == 32


def test_every_reported_triangulation_is_valid_and_regular():
    streamed = []
    count = enumerate_regular(VERONESE, on_accept=streamed.append)
    assert len(set(streamed)) == count
    for enc in streamed:
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

    streamed = []
    assert enumerate_regular(NESTED, on_accept=streamed.append) == 16
    assert set(streamed) == regular


def test_worker_count_does_not_change_output():
    runs = [accepted(HEXAGON, jobs=j) for j in (1, 2, 8)]
    assert runs[0] == runs[1] == runs[2]
    assert len(runs[0]) == 32


def test_on_accept_streams_each_acceptance_once():
    streamed = []
    count = enumerate_regular(VERONESE, on_accept=streamed.append)
    assert len(set(streamed)) == len(streamed) == count == 14


def test_budget_stops_and_resume_completes(tmp_path):
    path = str(tmp_path / "hex.ckpt")
    with pytest.raises(BudgetExceeded):
        enumerate_regular(HEXAGON, budget=10, checkpoint_path=path)
    state = read_checkpoint(path)
    assert not state.done
    assert len(state.accepted) >= 10

    resumed = []
    count = enumerate_regular(HEXAGON, checkpoint_path=path, resume=True, on_accept=resumed.append)
    assert count == 32
    fresh = accepted(HEXAGON)
    assert set(resumed) == set(fresh)

    # the file now carries the done marker: one more resume is a no-op read
    again = []
    count = enumerate_regular(HEXAGON, checkpoint_path=path, resume=True, on_accept=again.append)
    assert count == 32
    assert set(again) == set(fresh)


def test_resume_replays_every_acceptance_once(tmp_path):
    # the on_accept stream of a resumed run holds every regular
    # triangulation once and matches the uninterrupted run
    fresh = accepted(HEXAGON)
    path = str(tmp_path / "hex.ckpt")
    with pytest.raises(BudgetExceeded):
        enumerate_regular(HEXAGON, budget=10, checkpoint_path=path)
    for _ in range(2):  # stopped by the budget, then finished
        streamed = []
        count = enumerate_regular(
            HEXAGON, checkpoint_path=path, resume=True,
            on_accept=streamed.append,
        )
        assert streamed == fresh
        assert len(set(streamed)) == count == 32


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
    count = enumerate_regular(
        HEXAGON, checkpoint_path=path, resume=True,
        on_accept=streamed.append,
    )
    assert count == 32
    assert set(streamed) == set(accepted(HEXAGON))


def test_resume_from_a_cut_at_every_byte(tmp_path):
    # a writer killed at any byte leaves a prefix of the finished file;
    # each prefix resumes to the uninterrupted run's stream and file
    path = str(tmp_path / "veronese.ckpt")
    fresh = accepted(VERONESE, checkpoint_path=path)
    with open(path, "rb") as fh:
        data = fh.read()
    for cut in range(len(data) + 1):
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        streamed = []
        count = enumerate_regular(
            VERONESE, checkpoint_path=path, resume=True,
            on_accept=streamed.append,
        )
        assert count == len(streamed), cut
        assert streamed == fresh, cut
        with open(path, "rb") as fh:
            assert fh.read() == data, cut


@pytest.mark.parametrize("name, level", [("hexagon", 1), ("4b-prism", 2)])
def test_a_level_cut_between_records_is_walked_again(tmp_path, monkeypatch, name, level):
    # a kill between two records of one level leaves them after the last
    # commit: they are dropped, the file is truncated at that commit, and
    # the level is written anew, as the uninterrupted run wrote it
    config = HEXAGON if name == "hexagon" else prism_configuration(fixture("4b"))
    path = str(tmp_path / "ck")
    fresh = accepted(config, checkpoint_path=path)
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.splitlines(keepends=True)
    commits = [i for i, line in enumerate(lines) if b'"commit"' in line]
    start, end = commits[level], commits[level + 1]  # the commits closing `level` and the next
    assert end - start > 2
    committed = b"".join(lines[: start + 1])
    with open(path, "wb") as fh:
        fh.write(b"".join(lines[: (start + end) // 2 + 1]))

    reopened = []

    class Writer(CheckpointWriter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            with open(path, "rb") as fh:
                reopened.append(fh.read())

    monkeypatch.setattr(enumeration, "CheckpointWriter", Writer)
    assert accepted(config, checkpoint_path=path, resume=True) == fresh
    assert reopened == [committed]
    with open(path, "rb") as fh:
        assert fh.read() == data


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


def test_a_warm_memo_keeps_the_canonical_check(monkeypatch):
    # once the walk has spelled every cell, records are read cell by cell
    # from the memo; a record's spelling and order must still be canonical
    config = PointConfiguration(HEXAGON.points)
    encs = accepted(config)
    for enc in encs:
        assert enumeration._record_masks(config, enc, "hex") == Triangulation.decode(config, enc).masks
    cells = encs[1].split(";")
    assert cells[0] == "1,2,3"
    bad = [
        ";".join([cells[1], cells[0]] + cells[2:]),  # two cells swapped
        ";".join(cells[:1] + cells),  # a canonical cell repeated
        REPEATED_CELL,
        "2,1,3",
        "01,2,3",
        ";".join(["2,1,3"] + cells[1:]),
        ";".join(["01,2,3"] + cells[1:]),
    ]
    for enc in bad + ["1,2,99", ";".join(["1,2"] + cells[1:])]:
        with pytest.raises(CheckpointCorrupt):
            enumeration._record_masks(config, enc, "hex")
    # the memo keeps cells of the hexagon only
    assert all(m.bit_count() == 3 and not m >> 7 for m in engine(config)._codes)
    # not even a check of the cells themselves may stand in for it
    monkeypatch.setattr(Triangulation, "validate", lambda self: True)
    for enc in bad:
        with pytest.raises(CheckpointCorrupt):
            enumeration._record_masks(config, enc, "hex")


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


def test_a_garbled_last_line_is_corrupt(tmp_path):
    # a kill leaves a prefix of the file, so a line that ends in its
    # newline was written whole, and one that is not JSON is corruption
    path = str(tmp_path / "hex.ckpt")
    with pytest.raises(BudgetExceeded):
        enumerate_regular(HEXAGON, budget=10, checkpoint_path=path)
    with open(path, "ab") as fh:
        fh.write(b'{"t": "v", "enc": "1,2\n')
    with pytest.raises(CheckpointCorrupt):
        read_checkpoint(path)


def test_version_1_checkpoint_resumes_from_a_cut_at_every_byte(tmp_path):
    # the inline frontiers of the older layout are redundant: every prefix
    # resumes to the uninterrupted run's encodings and acceptance stream
    path = str(tmp_path / "veronese.ckpt")
    fresh = accepted(VERONESE, checkpoint_path=path)
    _write_records(path, _as_version_1(_records(path)))
    with open(path, "rb") as fh:
        data = fh.read()
    assert read_checkpoint(path).done
    for cut in range(len(data) + 1):
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        streamed = []
        count = enumerate_regular(
            VERONESE, checkpoint_path=path, resume=True,
            on_accept=streamed.append,
        )
        assert count == len(streamed), cut
        assert streamed == fresh, cut
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
    assert accepted(HEXAGON, checkpoint_path=path, resume=True) == accepted(HEXAGON)


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
    count = enumerate_regular(
        NESTED, checkpoint_path=str(tmp_path / "nested.ckpt"),
        on_accept=streamed.append,
    )
    assert count == 16  # two of the 18 flip-graph nodes are rejected
    assert calls == {"encode": 16}
    assert len(set(streamed)) == 16


_UNDER_O = """
from regtriang import triangulation
from regtriang.enumeration import enumerate_regular
from regtriang.errors import CheckFailed
from regtriang.fixtures import fixture
from regtriang.prism import prism_configuration, vertical_triangulation

square = fixture("square")
print(enumerate_regular(prism_configuration(square)))
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
    assert enumerate_regular(config) == regular


@settings(max_examples=50, deadline=None)
@given(_planar())
def test_flips_undo_and_quick_regularity_agrees(config):
    # each neighbour is decided alone and with its parent's hint; every
    # circuit's side is the one the per-point scan finds
    eng = engine(config)
    full = Engine(config)
    full.frame = ()  # fold rows over every column
    for enc in accepted(config):
        t = Triangulation.decode(config, enc)
        for circ, _ in eng.circuits(t.masks):
            assert triangulation._present_side(t.masks, circ) == present_side(t.masks, circ)
        _, parent = eng.regular_quick(t.masks)
        for circ in supported_flips(t):
            nb = flip(t, circ)
            assert flip(nb, circ).encode() == enc
            regular = bool(is_regular(nb))
            for hints in ((), [(parent, circ)]):
                ok, heights = eng.regular_quick(nb.masks, hints=hints)
                assert ok == regular
                if not ok:
                    continue
                if not hints:  # the LP's heights are 0 on the frame
                    assert all(heights[l - 1] == 0 for l in eng.frame)
                for row in full.fold_rows(nb.masks):
                    assert sum(r * h for r, h in zip(row, heights)) > 0
                rebuilt = lower_hull_subdivision(config.points, heights)
                assert sorted(rebuilt) == sorted(nb.masks)


def counted_lp(monkeypatch):
    """A list that grows by one for every strict_feasible call of the decider."""
    calls = []
    real = triangulation.strict_feasible

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(triangulation, "strict_feasible", counted)
    return calls


def test_the_stream_is_the_same_when_no_hint_certifies(monkeypatch):
    # hints, repairs and cached refutations only spare LPs: with the
    # certifier and the repair failing every time and the cache always
    # empty, every decision goes to strict_feasible, and the encodings do
    # not change
    config = prism_configuration(fixture("4b"))
    hinted = accepted(config)
    calls = counted_lp(monkeypatch)
    monkeypatch.setattr(triangulation.Engine, "_across_wall", lambda self, *hint: None)
    monkeypatch.setattr(triangulation.Engine, "_repaired", lambda self, *args: None)
    # a property shadows each engine's own dict: nothing is kept, nothing found
    monkeypatch.setattr(
        triangulation.Engine, "refutations", property(lambda self: {}, lambda self, value: None),
        raising=False,
    )
    assert accepted(config) == hinted
    assert len(calls) == 1326  # the seed and 1,325 flip candidates
    assert accepted(config, jobs=2) == hinted
    assert len(hinted) == 1270


def test_the_order_of_flips_picks_no_hint(monkeypatch):
    # a parent reaches each neighbour once, so the first parent to reach a
    # candidate, whose heights are its hint, does not depend on the order
    # of the parent's flips: reversed, they give the same stream and LPs
    calls = counted_lp(monkeypatch)
    stream = accepted(prism_configuration(fixture("4b")))
    in_order = len(calls)
    listed = enumeration.supported_flips
    monkeypatch.setattr(
        enumeration, "supported_flips", lambda t, circuits=None: listed(t, circuits)[::-1]
    )
    assert accepted(prism_configuration(fixture("4b"))) == stream
    assert len(calls) == 2 * in_order
    assert len(stream) == 1270


def test_most_decisions_on_the_4b_prism_need_no_lp(monkeypatch):
    # the seed and 1,325 flip candidates are decided, 1,270 accepted; of
    # the 56 rejections the LP makes one per distinct refutation and the
    # cache the rest, and the parents' heights, moved or repaired, certify
    # the accepted candidates but three
    calls = counted_lp(monkeypatch)
    config = prism_configuration(fixture("4b"))
    assert enumerate_regular(config) == 1270
    assert len(calls) == 14
    assert len(engine(config).refutations) == 10


def test_a_fresh_pooled_run_starts_no_pool(monkeypatch):
    # every candidate of a fresh walk has a parent's heights, so the parent
    # decides them all, with the LPs of the serial walk
    def no_pool(*args, **kwargs):
        raise AssertionError("a fresh walk started a pool")

    monkeypatch.setattr(enumeration.multiprocessing, "Pool", no_pool)
    calls = counted_lp(monkeypatch)
    pooled = accepted(prism_configuration(fixture("4b")), jobs=2)
    lps = len(calls)
    assert accepted(prism_configuration(fixture("4b"))) == pooled
    assert len(calls) == 2 * lps
    assert len(pooled) == 1270


def test_a_resumed_pooled_run_starts_one_pool(tmp_path, monkeypatch):
    # a checkpoint holds no heights, so the resumed level goes to the pool;
    # the stream is the serial resume's
    config = prism_configuration(fixture("4b"))
    stopped = str(tmp_path / "stopped.ckpt")
    with pytest.raises(BudgetExceeded):
        enumerate_regular(config, budget=400, checkpoint_path=stopped)
    pools = []
    real = enumeration.multiprocessing.Pool

    def counted_pool(*args, **kwargs):
        pools.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration.multiprocessing, "Pool", counted_pool)
    streams = {}
    for jobs in (1, 2):
        path = shutil.copy(stopped, tmp_path / f"jobs{jobs}.ckpt")
        streams[jobs] = accepted(config, jobs=jobs, checkpoint_path=str(path), resume=True)
        assert len(pools) == jobs - 1
    assert streams[1] == streams[2] == accepted(config)


def test_every_parents_hint_spares_lps(monkeypatch):
    # a candidate is offered the heights of every parent that reaches it;
    # with its first parent's alone, the repair runs about twice as often on
    # the 4b prism. It certifies what the hints miss, so the LPs are the same.
    calls = counted_lp(monkeypatch)
    repairs = []
    repaired = Engine._repaired

    def counted(self, rows, g):
        repairs.append(len(rows))
        return repaired(self, rows, g)

    monkeypatch.setattr(Engine, "_repaired", counted)
    stream = accepted(prism_configuration(fixture("4b")))
    assert (len(calls), len(repairs)) == (14, 203)
    quick = Engine.regular_quick
    monkeypatch.setattr(
        Engine, "regular_quick",
        lambda self, masks, circuits=None, hints=(): quick(self, masks, circuits, hints[:1]),
    )
    assert accepted(prism_configuration(fixture("4b"))) == stream
    assert (len(calls), len(repairs)) == (14 + 14, 203 + 409)
