"""Convex hulls of the weight vectors of all regular triangulations.

Three hulls are folded from enumerations by sweep, as many at once as
one question needs: the secondary polytope (top-dimensional GKZ
vectors), the hull of the Hurwitz vectors, and the hull of the folded
prism vectors. Each keeps one representative
triangulation per distinct generating vector, so a vertex can always be
traced back to a witness. Every function here that enumerates hands its
keywords (jobs, budget, checkpoint_path, resume) to enumerate_regular.
"""

from .enumeration import enumerate_regular
from .errors import NonconstantSum
from .geometry import LatticePolytope, normally_equivalent
from .linalg import primitive_direction
from .prism import nu_vector, prism_configuration
from .triangulation import Triangulation
from .weights import eta_k, hurwitz_vector


class WeightPolytope:
    """Hull of integer weight vectors, tagged by what generated them."""

    def __init__(self, kind, generators):
        if not generators:
            raise ValueError("no generating vectors")
        sums = {sum(v) for v in generators}
        if len(sums) != 1:
            raise NonconstantSum(
                f"generators of a {kind} polytope must share their "
                f"coordinate sum, got {sorted(sums)}"
            )
        self.kind = kind
        self.generators = dict(generators)
        self.polytope = LatticePolytope(sorted(self.generators))

    @property
    def vertices(self):
        return self.polytope.vertices

    def coordinate_sum(self):
        return sum(next(iter(self.generators)))

    def __contains__(self, vector):
        return self.polytope.contains(vector)


def sweep(config, vectors, **enumeration):
    """One enumeration folded into one weight polytope per requested kind.

    vectors maps a polytope kind to a function from a triangulation to
    its weight vector. Each accepted triangulation is decoded once and
    every one of its vectors keeps the first encoding that produced it.
    The keywords go to enumerate_regular, which also replays the
    acceptances of a resumed checkpoint. Returns the count of regular
    triangulations and a dict of WeightPolytopes keyed by kind.
    BudgetExceeded propagates: a partial hull is not a polytope worth
    returning.
    """
    found = {kind: {} for kind in vectors}

    def accept(enc):
        t = Triangulation.decode(config, enc)
        for kind, vector in vectors.items():
            found[kind].setdefault(vector(t).values, enc)

    count = enumerate_regular(config, on_accept=accept, **enumeration)
    return count, {kind: WeightPolytope(kind, gens) for kind, gens in found.items()}


def _chow_vector(t):
    return eta_k(t, t.config.polytope.dim)


def secondary_polytope(config, **enumeration):
    """Hull of the top GKZ vectors; vertices are the regular triangulations."""
    return sweep(config, {"chow": _chow_vector}, **enumeration)[1]["chow"]


def hurwitz_candidate_polytope(config, **enumeration):
    """Hull of the Hurwitz vectors of all regular triangulations."""
    kind = "hurwitz-candidate"
    return sweep(config, {kind: hurwitz_vector}, **enumeration)[1][kind]


def base_polytopes(config, **enumeration):
    """(count, secondary polytope, Hurwitz hull) from one base enumeration."""
    vectors = {"chow": _chow_vector, "hurwitz-candidate": hurwitz_vector}
    count, hulls = sweep(config, vectors, **enumeration)
    return count, hulls["chow"], hulls["hurwitz-candidate"]


def prism_hurwitz_polytope(config, **enumeration):
    """Hull of the folded vectors over the whole prism enumeration."""
    prism = prism_configuration(config)
    kind = "prism-hurwitz"
    return sweep(prism, {kind: nu_vector}, **enumeration)[1][kind]


def degree_from_polytope(polytope, k):
    """Shared vertex coordinate sum divided by k."""
    sums = {sum(v) for v in polytope.vertices}
    if len(sums) != 1:
        raise NonconstantSum(f"vertex sums differ: {sorted(sums)}")
    total = sums.pop()
    if total % k:
        raise NonconstantSum(f"vertex sum {total} is not divisible by {k}")
    return total // k


def hurwitz_degree_formula(q, n=None):
    """(n+1)vol(Q) - vol(boundary Q) in normalized volumes, for a lattice
    polygon Q only: a vertex off the lattice raises BadConfig."""
    poly = getattr(q, "polytope", q)
    if n is None:
        n = poly.dim
    return (n + 1) * poly.normalized_volume() - poly.boundary_volume()


def project_pi(vector):
    """Quotient by the all-ones direction: x_i - x_last, dropping the last."""
    last = vector[-1]
    return tuple(x - last for x in vector[:-1])


def _vertex_set(polytope_or_points):
    if isinstance(polytope_or_points, WeightPolytope):
        return polytope_or_points.vertices
    if isinstance(polytope_or_points, LatticePolytope):
        return polytope_or_points.vertices
    return tuple(polytope_or_points)


def inclusion(inner, outer):
    """Whether conv(inner) is a subset of conv(outer), decided exactly."""
    outer_poly = LatticePolytope(_vertex_set(outer))
    return all(outer_poly.contains(v) for v in _vertex_set(inner))


def relative_interior_contains(polytope, vector):
    """Strict membership: inside the hull and off every facet."""
    poly = polytope.polytope if isinstance(polytope, WeightPolytope) else polytope
    if not poly.contains(vector):
        return False
    for normal, offset in poly.facets:
        if sum(a * b for a, b in zip(normal, vector)) == offset:
            return False
    return True


def _edge_directions(poly):
    return sorted(
        {primitive_direction(tuple(b - a for a, b in zip(*edge))) for edge in poly.edges()}
    )


def vertex_edge_correspondence(p1, p2):
    """Compare two weight polytopes edge by edge.

    Reports vertex and edge counts, how many edge directions of the first
    polytope have a parallel partner in the second, and whether the two
    normal fans agree outright.
    """
    poly1 = p1.polytope if isinstance(p1, WeightPolytope) else p1
    poly2 = p2.polytope if isinstance(p2, WeightPolytope) else p2
    dirs1 = _edge_directions(poly1)
    dirs2 = set(_edge_directions(poly2))
    matched = sum(1 for d in dirs1 if d in dirs2)
    return {
        "vertices": (len(poly1.vertices), len(poly2.vertices)),
        "edges": (len(poly1.edges()), len(poly2.edges())),
        "parallel_directions": matched,
        "all_parallel": matched == len(dirs1) and len(dirs1) == len(dirs2),
        "normal_equivalent": normally_equivalent(poly1, poly2),
    }


def check_conjecture(config, *, jobs=1, **enumeration):
    """Instance check: do the folded prism vectors rediscover the Hurwitz hull?

    One enumeration of the base and one of the prism; the enumeration
    keywords (budget, checkpoint_path, resume) apply to the prism.
    Returns a report with the base and prism enumeration counts, the
    vertex count of the folded hull, whether those vertices are exactly
    the Hurwitz vectors, and whether the Hurwitz hull is normally
    equivalent to the secondary polytope.
    """
    base_count, chow, hurwitz = base_polytopes(config, jobs=jobs)
    prism = prism_configuration(config)
    prism_count, hulls = sweep(
        prism, {"prism-hurwitz": nu_vector}, jobs=jobs, **enumeration
    )
    folded = hulls["prism-hurwitz"]
    nu_vertices = set(folded.vertices)
    xi_vectors = set(hurwitz.generators)
    return {
        "base_count": base_count,
        "prism_count": prism_count,
        "nu_vertex_count": len(nu_vertices),
        "vertices_match": nu_vertices == xi_vectors,
        "normal_equivalent": normally_equivalent(
            hurwitz.polytope, chow.polytope
        ),
    }


def standard_semistability(config, **enumeration):
    """Scaled-hull inclusion after projecting out the all-ones direction.

    The primary check scales the Chow hull by the Hurwitz degree and
    the Hurwitz hull by the Chow degree, both degrees counted per
    Pluecker variable.  Those scalings leave the two sides at different
    total weights, so the report also carries a second inclusion where
    each hull is scaled by the other's coordinate sum, which matches
    the totals exactly.  The two normalizations differ by a factor of
    (n+1)/n on one side and can disagree; both booleans are returned.
    """
    n = config.polytope.dim
    _, chow, hurwitz = base_polytopes(config, **enumeration)
    deg_chow = degree_from_polytope(chow, n + 1)
    deg_hurwitz = degree_from_polytope(hurwitz, n)
    chow_pi = [project_pi(v) for v in chow.vertices]
    hurwitz_pi = [project_pi(v) for v in hurwitz.vertices]

    def scaled_inclusion(left_factor, right_factor):
        left = [tuple(left_factor * x for x in v) for v in chow_pi]
        right = [tuple(right_factor * x for x in v) for v in hurwitz_pi]
        return inclusion(left, right)

    return {
        "chow_degree": deg_chow,
        "hurwitz_degree": deg_hurwitz,
        "semistable": scaled_inclusion(deg_hurwitz, deg_chow),
        "semistable_sum_matched": scaled_inclusion(
            hurwitz.coordinate_sum(), chow.coordinate_sum()
        ),
    }
