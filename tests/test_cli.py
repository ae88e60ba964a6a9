"""Command-line surface: configs, reports, exit codes, checkpoints."""

import json

import pytest

from regtriang.cli import main

from test_enumeration import REPEATED_CELL_PLACES, with_repeated_cell

SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]


def run_cli(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out)


def write_config(tmp_path, name, points):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "points": points}))
    return str(path)


def test_enumerate_square_counts():
    # [PAPER] the unit square has exactly two regular triangulations.
    code = main(["triang", "enumerate", "square", "--count-only", "--out", "/dev/null"])
    assert code == 0


def test_enumerate_reports(capsys):
    # [PAPER] square: 2 triangulations; both listed in sorted order.
    code, report = run_json(["triang", "enumerate", "square"], capsys)
    assert code == 0
    assert report["config"] == "square"
    assert report["count"] == 2
    assert report["triangulations"] == sorted(report["triangulations"])
    assert len(report["triangulations"]) == 2

    code, report = run_json(
        ["triang", "enumerate", "square", "--count-only"], capsys
    )
    assert code == 0
    assert report == {"config": "square", "count": 2}


def test_enumerate_prism_flag(capsys):
    # [PAPER] the prism over the square has 74 regular triangulations.
    code, report = run_json(
        ["triang", "enumerate", "square", "--prism", "--count-only"], capsys
    )
    assert code == 0
    assert report == {"config": "square-prism", "count": 74}


def test_config_file_matches_fixture(tmp_path, capsys):
    # [TRIVIAL] a JSON file with the same points gives the same enumeration.
    path = write_config(tmp_path, "box", SQUARE)
    code, from_file = run_json(["triang", "enumerate", path], capsys)
    assert code == 0
    _, from_fixture = run_json(["triang", "enumerate", "square"], capsys)
    assert from_file["count"] == from_fixture["count"]
    assert from_file["triangulations"] == from_fixture["triangulations"]
    assert from_file["config"] == "box"


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all",
        "[1, 2, 3]",
        '{"points": [[0, 0], [1, 0], [0, 1]]}',
        '{"name": "", "points": [[0, 0], [1, 0], [0, 1]]}',
        '{"name": "x", "points": []}',
        '{"name": "x", "points": [[0, 0], [1, 0], ["a", 1]]}',
        '{"name": "x", "points": [[0, 0], [1, 0], [0.5, 1]]}',
        '{"name": "x", "points": [[0, 0], [1, 0], [0, 0]]}',
        '{"name": "x", "points": [[0, 0], [1, 0], [0, 1, 0]]}',
        '{"name": "x", "points": [[0, 0], [1, 0], [2, 0]]}',
        '{"name": "x", "points": [[0, 0], [1, 0], [0, 1]], "extra": 1}',
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, payload):
    # [TRIVIAL] malformed configuration files fail with exit code 2.
    path = tmp_path / "cfg.json"
    path.write_text(payload)
    code, report = run_json(["triang", "enumerate", str(path)], capsys)
    assert code == 2
    assert report["error"]["type"] == "BadConfig"
    assert report["error"]["message"]


@pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--budget", "0"),
                                        ("--jobs", "-3"), ("--budget", "-1")])
def test_invalid_job_spec_exits_2(capsys, flag, value):
    # [TRIVIAL] worker count and budget must both be at least one.
    code, report = run_json(
        ["triang", "enumerate", "square", flag, value], capsys
    )
    assert code == 2
    assert report["error"]["type"] == "BadConfig"


def test_unknown_config_source_exits_2(capsys):
    # [TRIVIAL] neither a fixture nor a file.
    code, report = run_json(["triang", "enumerate", "nosuchthing"], capsys)
    assert code == 2
    assert report["error"]["type"] == "BadConfig"
    assert "square" in report["error"]["message"]


def test_vectors_single(capsys):
    # [DERIVED] one triangulation of the square: vector lengths and sums.
    code, report = run_json(["vectors", "hurwitz", "square"], capsys)
    assert code == 0
    assert report["kind"] == "hurwitz"
    assert len(report["vector"]) == 4
    assert sum(report["vector"]) == 4  # 2(3 vol - boundary) = 2(6 - 4)
    assert report["triangulation"]

    code, report = run_json(["vectors", "gkz", "square"], capsys)
    assert sum(report["vector"]) == 6  # (n + 1) vol

    code, report = run_json(["vectors", "massive", "square"], capsys)
    assert sum(report["vector"]) == 2  # vol - interior mass


def test_vectors_all_square(capsys):
    # [PAPER] both Hurwitz vectors of the square, sorted lexicographically.
    code, report = run_json(["vectors", "hurwitz", "square", "--all"], capsys)
    assert code == 0
    assert report["count"] == 2
    assert report["vectors"] == [[0, 2, 0, 2], [2, 0, 2, 0]]


def test_vectors_all_veronese(capsys):
    # [PAPER] fourteen triangulations give fourteen distinct Hurwitz vectors.
    code, report = run_json(["vectors", "hurwitz", "veronese", "--all"], capsys)
    assert code == 0
    assert report["count"] == 14
    assert report["vectors"] == sorted(report["vectors"])


def test_polytope_reports(capsys):
    # [DERIVED] square hulls: secondary and Hurwitz are segments (2 vertices);
    # the folded prism hull has the same vertex set as the Hurwitz hull.
    code, secondary = run_json(["polytope", "secondary", "square"], capsys)
    assert code == 0
    assert secondary["vertex_count"] == 2
    assert secondary["coordinate_sum"] == 6

    code, hurwitz = run_json(["polytope", "hurwitz", "square"], capsys)
    assert code == 0
    assert hurwitz["vertex_count"] == 2
    assert hurwitz["vertices"] == [[0, 2, 0, 2], [2, 0, 2, 0]]

    code, prism = run_json(["polytope", "prism-hurwitz", "square"], capsys)
    assert code == 0
    assert prism["vertices"] == hurwitz["vertices"]


def test_check_degree(capsys):
    # [PAPER] half the Hurwitz coordinate sum equals 3 vol - boundary.
    for name, value in [("square", 2), ("veronese", 6), ("hexagon", 12)]:
        code, report = run_json(["check", "degree", name], capsys)
        assert code == 0
        assert report["half_xi_sum"] == value
        assert report["degree_formula"] == value
        assert report["match"] is True


def test_check_conjecture_square(capsys):
    # [PAPER] folded prism hull vertices = Hurwitz vectors on the square.
    code, report = run_json(["check", "conjecture", "square"], capsys)
    assert code == 0
    assert report["base_count"] == 2
    assert report["prism_count"] == 74
    assert report["nu_vertex_count"] == 2
    assert report["vertices_match"] is True
    assert report["normal_equivalent"] is True


def test_check_normal_equiv(capsys):
    # [PAPER] Hurwitz and secondary hulls of the square share a normal fan.
    code, report = run_json(["check", "normal-equiv", "square"], capsys)
    assert code == 0
    assert report["normal_equivalent"] is True
    assert report["all_parallel"] is True


def test_check_normal_equiv_enumerates_once(capsys, monkeypatch):
    # [TRIVIAL] both hulls come from one pass over the base.
    from regtriang import polytopes

    calls = []
    original = polytopes.enumerate_regular

    def counted(config, **kwargs):
        calls.append(config)
        return original(config, **kwargs)

    monkeypatch.setattr(polytopes, "enumerate_regular", counted)
    code, report = run_json(["check", "normal-equiv", "veronese"], capsys)
    assert code == 0
    assert report["vertices"] == [14, 14]
    assert [c.name for c in calls] == ["veronese"]


def test_check_k_semistable(capsys):
    # [DERIVED] report carries both degrees and both inclusion flags.
    code, report = run_json(["check", "k-semistable", "square"], capsys)
    assert code == 0
    assert report["chow_degree"] == 2
    assert report["hurwitz_degree"] == 2
    assert isinstance(report["semistable"], bool)
    assert isinstance(report["semistable_sum_matched"], bool)


def test_kenergy_heights_list_and_object(tmp_path, capsys):
    # [DERIVED] both height spellings agree; both methods match exactly.
    list_file = tmp_path / "list.json"
    list_file.write_text(json.dumps({"heights": [0, "1/2", 1, 0]}))
    obj_file = tmp_path / "obj.json"
    obj_file.write_text(
        json.dumps({"heights": {"1": 0, "2": "1/2", "3": 1, "4": 0}})
    )
    code, by_list = run_json(
        ["kenergy", "square", "--function", str(list_file)], capsys
    )
    assert code == 0
    assert by_list["match"] is True
    assert by_list["integral"] == by_list["pairing"] == by_list["k_energy"]
    code, by_obj = run_json(
        ["kenergy", "square", "--function", str(obj_file)], capsys
    )
    assert code == 0
    assert by_obj == by_list


def test_kenergy_affine_and_methods(tmp_path, capsys):
    # [DERIVED] max(0, 2x - 1) breaks off-lattice: dilation order 2, L = 1/2.
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"affine": [[0, 0, 0], [2, 0, -1]]}))
    code, both = run_json(["kenergy", "square", "--function", str(path)], capsys)
    assert code == 0
    assert both["dilation_order"] == 2
    assert both["k_energy"] == "1/2"
    assert both["match"] is True
    code, single = run_json(
        ["kenergy", "square", "--function", str(path), "--method", "integral"],
        capsys,
    )
    assert code == 0
    assert single["k_energy"] == "1/2"
    assert "pairing" not in single


def test_kenergy_on_configuration_missing_lattice_points(tmp_path, capsys):
    # [DERIVED] triangle4 lacks (1, 0) and (0, 1), where max(0, x + y - 1)
    # breaks; the lattice points of Q clear it at order 1, L = 1/2.
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"affine": [[0, 0, 0], [1, 1, -1]]}))
    code, report = run_json(["kenergy", "triangle4", "--function", str(path)], capsys)
    assert code == 0
    assert report["dilation_order"] == 1
    assert report["match"] is True
    assert report["k_energy"] == "1/2"


def test_kenergy_fractional_constant_dilates_by_four(tmp_path, capsys):
    # [DERIVED] max(x, 1/2 - x) breaks at x = 1/4: dilation order 4.
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"affine": [[1, 0, 0], [-1, 0, "1/2"]]}))
    code, report = run_json(["kenergy", "square", "--function", str(path)], capsys)
    assert code == 0
    assert report["dilation_order"] == 4
    assert report["match"] is True


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        '{"heights": [0, 1], "affine": [[0, 0, 0]]}',
        '{"heights": [0, 1, 2]}',
        '{"heights": {"1": 0, "2": 0, "3": 0, "5": 0}}',
        '{"heights": [0, 1, 2, "1/0"]}',
        '{"affine": []}',
        '{"affine": [[1, 2]]}',
        '{"slopes": [[1, 2, 0]]}',
    ],
)
def test_kenergy_bad_function_exits_2(tmp_path, capsys, payload):
    # [TRIVIAL] malformed function files fail with exit code 2.
    path = tmp_path / "fn.json"
    path.write_text(payload)
    code, report = run_json(
        ["kenergy", "square", "--function", str(path)], capsys
    )
    assert code == 2
    assert report["error"]["type"] == "BadConfig"


def test_kenergy_nonconvex_heights_exit_1(tmp_path, capsys):
    # [TRIVIAL] heights above the lower hull are a library error, exit 1.
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"heights": [-1, 0, 0, 0]}))
    code, report = run_json(
        ["kenergy", "hexagon", "--function", str(path)], capsys
    )
    assert code == 2  # wrong number of heights for seven points
    path.write_text(json.dumps({"heights": [-1, 0, 0, 0, 0, 0, 0]}))
    code, report = run_json(
        ["kenergy", "hexagon", "--function", str(path)], capsys
    )
    assert code == 0  # dent at the interior point is convex
    path.write_text(json.dumps({"heights": [1, 0, 0, 0, 0, 0, 0]}))
    code, report = run_json(
        ["kenergy", "hexagon", "--function", str(path)], capsys
    )
    assert code == 1
    assert report["error"]["type"] == "NonConvex"


def test_budget_exceeded_exits_3(capsys):
    # [TRIVIAL] a tiny budget on the hexagon prism stops with exit 3.
    code, report = run_json(
        ["triang", "enumerate", "hexagon", "--prism", "--count-only",
         "--budget", "50"],
        capsys,
    )
    assert code == 3
    assert report["error"]["type"] == "BudgetExceeded"


def test_checkpoint_resume_completes(tmp_path, capsys):
    # [PAPER] budget-interrupted prism run resumes to the full count of 74.
    ck = str(tmp_path / "ck.jsonl")
    code, report = run_json(
        ["triang", "enumerate", "square", "--prism", "--count-only",
         "--budget", "20", "--checkpoint", ck],
        capsys,
    )
    assert code == 3
    code, report = run_json(
        ["triang", "enumerate", "square", "--prism", "--count-only",
         "--checkpoint", ck],
        capsys,
    )
    assert code == 0
    assert report["count"] == 74
    # resuming a finished checkpoint reports immediately and identically
    code, again = run_json(
        ["triang", "enumerate", "square", "--prism", "--count-only",
         "--checkpoint", ck],
        capsys,
    )
    assert code == 0
    assert again == report


def test_checkpoint_digest_mismatch_exits_4(tmp_path, capsys):
    # [TRIVIAL] a checkpoint from one configuration rejects another.
    ck = str(tmp_path / "ck.jsonl")
    code, _ = run_json(
        ["triang", "enumerate", "square", "--prism", "--count-only",
         "--checkpoint", ck],
        capsys,
    )
    assert code == 0
    code, report = run_json(
        ["triang", "enumerate", "veronese", "--prism", "--count-only",
         "--checkpoint", ck],
        capsys,
    )
    assert code == 4
    assert report["error"]["type"] == "DigestMismatch"
    # the hull commands check the digest before folding any record
    for command in (["polytope", "prism-hurwitz"], ["check", "conjecture"]):
        code, report = run_json([*command, "triangle", "--checkpoint", ck], capsys)
        assert code == 4
        assert report["error"]["type"] == "DigestMismatch"


def test_checkpoint_corrupt_exits_4(tmp_path, capsys):
    # [TRIVIAL] unreadable checkpoint contents.
    ck = tmp_path / "ck.jsonl"
    ck.write_text('{"not": "a header"}\n{"t": "v"}\n')
    code, report = run_json(
        ["triang", "enumerate", "square", "--prism", "--count-only",
         "--checkpoint", str(ck)],
        capsys,
    )
    assert code == 4
    assert report["error"]["type"] == "CheckpointCorrupt"


@pytest.mark.parametrize("enc", ["1,2,99", "1,2,x", 7, "0,1,2;1,3,4"])
def test_checkpoint_malformed_record_exits_4(tmp_path, capsys, enc):
    # [TRIVIAL] a record that encodes no triangulation is corruption,
    # whether it parses (labels out of range, above N or below 1) or not.
    ck = tmp_path / "ck.jsonl"
    command = ["triang", "enumerate", "hexagon", "--count-only", "--checkpoint", str(ck)]
    code, _ = run_json(command, capsys)
    assert code == 0
    lines = ck.read_text().splitlines()
    level_one = [i for i, line in enumerate(lines) if json.loads(line).get("t") == "v"][1]
    lines[level_one] = json.dumps({"t": "v", "enc": enc})
    ck.write_text("\n".join(lines) + "\n")
    code, report = run_json(command, capsys)
    assert code == 4
    assert report["error"]["type"] == "CheckpointCorrupt"


def test_checkpoint_record_that_is_no_triangulation_exits_4(tmp_path, capsys):
    # a well-formed encoding whose one cell does not fill the hull is
    # corruption too; counting it would lose a real triangulation
    ck = tmp_path / "ck.jsonl"
    command = ["triang", "enumerate", "hexagon", "--count-only", "--checkpoint", str(ck)]
    code, _ = run_json(command, capsys)
    assert code == 0
    lines = ck.read_text().splitlines()
    level_one = [i for i, line in enumerate(lines) if json.loads(line).get("t") == "v"][1]
    lines[level_one] = json.dumps({"t": "v", "enc": "1,2,3"})
    ck.write_text("\n".join(lines) + "\n")
    code, report = run_json(command, capsys)
    assert code == 4
    assert report["error"]["type"] == "CheckpointCorrupt"


@pytest.mark.parametrize("where", REPEATED_CELL_PLACES)
def test_checkpoint_record_that_repeats_a_cell_exits_4(tmp_path, capsys, where):
    ck = tmp_path / "ck.jsonl"
    command = ["triang", "enumerate", "hexagon", "--count-only", "--checkpoint", str(ck)]
    code, _ = run_json(command, capsys)
    assert code == 0
    records = [json.loads(line) for line in ck.read_text().splitlines()]
    records = with_repeated_cell(records, where)
    ck.write_text("".join(json.dumps(rec, sort_keys="magic" in rec) + "\n" for rec in records))
    code, report = run_json(command, capsys)
    assert code == 4
    assert report["error"]["type"] == "CheckpointCorrupt"


def test_out_writes_file(tmp_path, capsys):
    # [TRIVIAL] --out diverts the report; stdout stays empty.
    out = tmp_path / "report.json"
    code = main(["triang", "enumerate", "square", "--count-only",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text()) == {"config": "square", "count": 2}


def test_reports_identical_across_worker_counts(capsys):
    # [DERIVED] byte-identical reports for one, two, and eight workers.
    outputs = []
    for jobs in ("1", "2", "8"):
        code, out = run_cli(
            ["vectors", "hurwitz", "veronese", "--all", "--jobs", jobs], capsys
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_table_budget_skip(capsys):
    # [PAPER] only the three-point row fits a budget of 200 prism nodes;
    # its report matches the verified classification row exactly.
    code, report = run_json(
        ["table", "reflexive", "--budget", "200"], capsys
    )
    assert code == 0
    rows = {row["label"]: row for row in report["rows"]}
    assert set(rows) == {"3", "4a", "4b", "4c", "5a", "5b"}
    assert rows["3"] == {
        "label": "3",
        "base_count": 2,
        "prism_count": 84,
        "nu_vertex_count": 2,
        "vertices_match": True,
        "normal_equivalent": True,
    }
    for label in ("4a", "4b", "4c", "5a", "5b"):
        assert rows[label] == {"label": label, "skipped": "budget"}
