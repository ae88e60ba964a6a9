"""Command-line surface: enumeration, weight vectors, hulls, checks, tables.

Every command prints one JSON report (or writes it with --out).  Errors
are reported as {"error": {"type": ..., "message": ...}} with exit code
2 for bad configurations, 3 for exhausted enumeration budgets, 4 for
checkpoint problems, and 1 for any other library error.
"""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .enumeration import DEFAULT_BUDGET, enumerate_regular
from .errors import (
    BadConfig,
    BudgetExceeded,
    CheckpointCorrupt,
    DigestMismatch,
    RegtriangError,
)
from .fixtures import fixture, fixture_names
from .geometry import PointConfiguration
from .kenergy import PLFunction, k_energy_integral, k_energy_pairing
from .polytopes import (
    base_polytopes,
    check_conjecture,
    hurwitz_candidate_polytope,
    hurwitz_degree_formula,
    prism_hurwitz_polytope,
    secondary_polytope,
    standard_semistability,
    vertex_edge_correspondence,
)
from .prism import prism_configuration
from .triangulation import Triangulation, placing_triangulation
from .weights import eta_k, hurwitz_vector, massive_gkz

TABLE_ROWS = ("3", "4a", "4b", "4c", "5a", "5b")
TABLE_ROWS_EXTENDED = ("6a", "6b", "6c", "6d")


def parse_config(raw):
    """Point configuration from UTF-8 JSON {"name": ..., "points": [[int...]...]}.

    Labels are assigned 1..N in file order.
    """
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise BadConfig(f"configuration is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BadConfig("configuration must be a JSON object with 'name' and 'points'")
    unknown = sorted(set(data) - {"name", "points"})
    if unknown:
        raise BadConfig(f"unknown configuration fields: {', '.join(unknown)}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise BadConfig("field 'name' must be a non-empty string")
    points = data.get("points")
    if not isinstance(points, list) or not points:
        raise BadConfig("field 'points' must be a non-empty list of points")
    for i, point in enumerate(points):
        ok = isinstance(point, list) and point and all(
            isinstance(c, int) and not isinstance(c, bool) for c in point
        )
        if not ok:
            raise BadConfig(
                f"points[{i}] must be a non-empty list of integers, got {point!r}"
            )
    return PointConfiguration([tuple(p) for p in points], name=name)


def load_config(source):
    """Resolve a CLI config argument: built-in fixture name or JSON file path."""
    if source in fixture_names():
        return fixture(source)
    path = Path(source)
    if not path.is_file():
        raise BadConfig(
            f"{source!r} is neither a built-in fixture nor a readable file; "
            f"fixtures: {', '.join(fixture_names())}"
        )
    return parse_config(path.read_bytes())


def _json_value(value):
    """Report-ready JSON: exact ints stay numbers, other rationals are 'p/q'."""
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    return value


def _emit(report, out_path):
    text = json.dumps(_json_value(report), indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _enumeration_kwargs(args, label=None):
    """The global flags as enumerate_regular keywords. A table row's
    checkpoint is the --checkpoint file with the row's label appended."""
    checkpoint = args.checkpoint
    if checkpoint and label:
        checkpoint = f"{checkpoint}.{label}"
    return {
        "jobs": args.jobs,
        "budget": args.budget,
        "checkpoint_path": checkpoint,
        "resume": bool(checkpoint),
    }


def cmd_triang(args):
    if args.action != "enumerate":
        raise BadConfig(f"unknown triang action {args.action!r}")
    config = load_config(args.config)
    if args.prism:
        config = prism_configuration(config)
    encodings = []
    count = enumerate_regular(
        config,
        on_accept=None if args.count_only else encodings.append,
        **_enumeration_kwargs(args),
    )
    report = {"config": config.name, "count": count}
    if not args.count_only:
        report["triangulations"] = sorted(encodings)
    return report


_VECTOR_KINDS = ("gkz", "massive", "hurwitz")


def _weight_vector(kind, triangulation, n):
    if kind == "gkz":
        return eta_k(triangulation, n).values
    if kind == "massive":
        return massive_gkz(triangulation).values
    return hurwitz_vector(triangulation).values


def cmd_vectors(args):
    config = load_config(args.config)
    n = config.polytope.dim
    if args.all:
        vectors = set()

        def fold(enc):
            vectors.add(_weight_vector(args.kind, Triangulation.decode(config, enc), n))

        enumerate_regular(config, on_accept=fold, **_enumeration_kwargs(args))
        return {
            "config": config.name,
            "kind": args.kind,
            "count": len(vectors),
            "vectors": sorted(vectors),
        }
    t = placing_triangulation(config)
    return {
        "config": config.name,
        "kind": args.kind,
        "triangulation": t.encode(),
        "vector": _weight_vector(args.kind, t, n),
    }


def cmd_polytope(args):
    config = load_config(args.config)
    hull = {
        "secondary": secondary_polytope,
        "hurwitz": hurwitz_candidate_polytope,
        "prism-hurwitz": prism_hurwitz_polytope,
    }[args.kind]
    poly = hull(config, **_enumeration_kwargs(args))
    vertices = sorted(poly.vertices)
    return {
        "config": config.name,
        "kind": args.kind,
        "vertex_count": len(vertices),
        "vertices": vertices,
        "coordinate_sum": poly.coordinate_sum(),
    }


def cmd_check(args):
    config = load_config(args.config)
    if args.kind == "conjecture":
        report = check_conjecture(config, **_enumeration_kwargs(args))
        return {"config": config.name, **report}
    if args.kind == "degree":
        t = placing_triangulation(config)
        n = config.polytope.dim
        half_sum = Fraction(sum(hurwitz_vector(t).values), 2)
        formula = hurwitz_degree_formula(config.polytope, n)
        return {
            "config": config.name,
            "half_xi_sum": half_sum,
            "degree_formula": formula,
            "match": half_sum == formula,
        }
    if args.kind == "normal-equiv":
        _, chow, hurwitz = base_polytopes(config, **_enumeration_kwargs(args))
        report = vertex_edge_correspondence(chow, hurwitz)
        return {"config": config.name, **report}
    report = standard_semistability(config, **_enumeration_kwargs(args))
    return {"config": config.name, **report}


def _parse_rational(value, where):
    if isinstance(value, bool):
        raise BadConfig(f"{where}: expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadConfig(f"{where}: not a rational 'p/q': {value!r}") from exc
    raise BadConfig(f"{where}: expected an integer or 'p/q' string, got {value!r}")


def load_function(config, raw):
    """Piecewise-linear function from JSON {"heights": ...} or {"affine": ...}.

    Heights may be a list in label order or an object keyed by labels
    "1".."N"; they must already be convex (lower-hull) heights.  Affine
    data is a list of forms [a1, ..., an, c] meaning max over the forms
    of a.x + c.
    """
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise BadConfig(f"function file is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict) or len(data) != 1:
        raise BadConfig(
            "function file must be a JSON object with exactly one of "
            "'heights' or 'affine'"
        )
    key, payload = next(iter(data.items()))
    if key == "heights":
        count = len(config)
        if isinstance(payload, dict):
            expected = {str(i) for i in range(1, count + 1)}
            if set(payload) != expected:
                raise BadConfig(
                    f"heights object must have exactly the keys 1..{count}"
                )
            heights = [
                _parse_rational(payload[str(i)], f"heights[{i}]")
                for i in range(1, count + 1)
            ]
        elif isinstance(payload, list):
            if len(payload) != count:
                raise BadConfig(
                    f"heights list must have {count} entries, got {len(payload)}"
                )
            heights = [
                _parse_rational(v, f"heights[{i}]")
                for i, v in enumerate(payload, start=1)
            ]
        else:
            raise BadConfig("'heights' must be a list or a label-keyed object")
        return PLFunction.from_heights(config, heights)
    if key == "affine":
        if not isinstance(payload, list) or not payload:
            raise BadConfig("'affine' must be a non-empty list of forms")
        n = config.dim
        forms = []
        for i, form in enumerate(payload):
            if not isinstance(form, list) or len(form) != n + 1:
                raise BadConfig(
                    f"affine[{i}] must be a list of {n + 1} rationals "
                    f"[a1, ..., a{n}, c]"
                )
            forms.append(
                tuple(_parse_rational(v, f"affine[{i}][{j}]") for j, v in enumerate(form))
            )
        return PLFunction.from_affine(config, forms)
    raise BadConfig(f"unknown function field {key!r}; use 'heights' or 'affine'")


def cmd_kenergy(args):
    config = load_config(args.config)
    path = Path(args.function)
    if not path.is_file():
        raise BadConfig(f"function file {args.function!r} is not readable")
    f = load_function(config, path.read_bytes())
    report = {
        "config": config.name,
        "method": args.method,
        "dilation_order": f.dilation_order(),
    }
    if args.method in ("integral", "both"):
        report["integral"] = k_energy_integral(f)
    if args.method in ("pairing", "both"):
        report["pairing"] = k_energy_pairing(f)
    if args.method == "both":
        report["match"] = report["integral"] == report["pairing"]
        report["k_energy"] = report["integral"]
    else:
        report["k_energy"] = report[args.method]
    return report


def cmd_table(args):
    if args.kind != "reflexive":
        raise BadConfig(f"unknown table {args.kind!r}")
    labels = TABLE_ROWS + (TABLE_ROWS_EXTENDED if args.extended else ())
    rows = []
    for label in labels:
        try:
            report = check_conjecture(fixture(label), **_enumeration_kwargs(args, label))
        except BudgetExceeded:
            rows.append({"label": label, "skipped": "budget"})
            continue
        rows.append({"label": label, **report})
    return {"table": "reflexive", "rows": rows}


_EXIT_CODES = (
    (BudgetExceeded, 3),
    (CheckpointCorrupt, 4),
    (DigestMismatch, 4),
    (BadConfig, 2),
)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="workers for candidates with no parent's heights "
                        "to try, after a resume (default 1)")
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="N",
                        help="max accepted enumeration nodes")
    common.add_argument("--checkpoint", metavar="FILE",
                        help="checkpoint file; resumed when it already exists")
    common.add_argument("--out", metavar="FILE",
                        help="write the JSON report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="regtriang",
        description="Exact weight vectors and hulls of regular triangulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triang", parents=[common],
                       help="enumerate regular triangulations")
    p.add_argument("action", choices=["enumerate"])
    p.add_argument("config", help="fixture name or config JSON file")
    p.add_argument("--prism", action="store_true",
                   help="enumerate the two-level prism over the configuration")
    p.add_argument("--count-only", action="store_true",
                   help="report only the count")
    p.set_defaults(func=cmd_triang)

    p = sub.add_parser("vectors", parents=[common],
                       help="weight vectors of triangulations")
    p.add_argument("kind", choices=list(_VECTOR_KINDS))
    p.add_argument("config", help="fixture name or config JSON file")
    p.add_argument("--all", action="store_true",
                   help="distinct vectors over every regular triangulation")
    p.set_defaults(func=cmd_vectors)

    p = sub.add_parser("polytope", parents=[common],
                       help="weight polytopes (vertex descriptions)")
    p.add_argument("kind", choices=["secondary", "hurwitz", "prism-hurwitz"])
    p.add_argument("config", help="fixture name or config JSON file")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("check", parents=[common],
                       help="verification reports")
    p.add_argument("kind",
                   choices=["conjecture", "degree", "normal-equiv", "k-semistable"])
    p.add_argument("config", help="fixture name or config JSON file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("kenergy", parents=[common],
                       help="Mabuchi functional of a piecewise-linear function")
    p.add_argument("config", help="fixture name or config JSON file")
    p.add_argument("--function", required=True, metavar="FILE",
                   help="JSON file with 'heights' or 'affine'")
    p.add_argument("--method", choices=["integral", "pairing", "both"],
                   default="both")
    p.set_defaults(func=cmd_kenergy)

    p = sub.add_parser("table", parents=[common],
                       help="reflexive polygon verification table")
    p.add_argument("kind", choices=["reflexive"])
    p.add_argument("--extended", action="store_true",
                   help="include the seven-point rows (long enumerations)")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise BadConfig(f"--jobs must be at least 1, got {args.jobs}")
        if args.budget < 1:
            raise BadConfig(f"--budget must be at least 1, got {args.budget}")
        report = args.func(args)
    except RegtriangError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        _emit(error, getattr(args, "out", None))
        for cls, code in _EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 1
    _emit(report, getattr(args, "out", None))
    return 0


def _forward(command):
    return main([command, *sys.argv[1:]])


def main_triang():
    return _forward("triang")


def main_vectors():
    return _forward("vectors")


def main_polytope():
    return _forward("polytope")


def main_check():
    return _forward("check")


def main_kenergy():
    return _forward("kenergy")


def main_table():
    return _forward("table")


if __name__ == "__main__":
    sys.exit(main())
