"""Weight vectors attached to a triangulation.

For a triangulation T of a d-dimensional configuration, eta_k assigns to
each point the total normalized volume of the massive k-simplices of T
containing it; a k-simplex is massive when it lies inside a k-dimensional
face of the hull (every maximal simplex qualifies). The alternating sum
over k gives the massive vector, and d*eta_d - eta_{d-1} the ramification
weight vector. All three come from one walk over T's cell masks.

The massive k-simplices are the cells cut by the k-faces of the hull:
the sets c & F, for c a cell and F the point mask of a k-face, that hold
k+1 points. F is a face of the hull, so the points of c on F span a face
of the simplex c inside F; that face is a k-simplex exactly when it has
k+1 points, and every massive k-simplex arises so from each cell holding
it.
"""

from dataclasses import dataclass

from .triangulation import engine


@dataclass(frozen=True)
class WeightVector:
    """Integer vector indexed by configuration labels, with a tag naming
    which weight it is (gkz, massive, hurwitz, nu)."""

    values: tuple
    tag: str

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, idx):
        return self.values[idx]

    def entry(self, label):
        return self.values[label - 1]


def _face_walk(triangulation, weights):
    """sum_k weights[k] * eta_k, from T's cells cut by the hull's k-faces.

    Only the face dimensions k in `weights` are visited, so k = d alone
    touches the cells and nothing else.
    """
    cfg = triangulation.config
    n = cfg.dim
    eng = engine(cfg)
    vals = [0] * len(cfg)
    for k, weight in weights.items():
        if k == n:
            faces = triangulation.masks
        else:
            faces = {
                sm
                for f in cfg.face_point_masks(k)
                for c in triangulation.masks
                if (sm := c & f).bit_count() == k + 1
            }
        for sm in faces:
            x = weight * eng.volume(sm)
            while sm:
                low = sm & -sm
                vals[low.bit_length() - 1] += x
                sm ^= low
    return tuple(vals)


def eta_k(triangulation, k):
    """Volume-weighted point incidence over massive k-simplices."""
    n = triangulation.config.dim
    if not 0 <= k <= n:
        raise ValueError(f"k = {k} is outside 0..{n}")
    return WeightVector(_face_walk(triangulation, {k: 1}), "gkz")


def massive_gkz(triangulation):
    """Alternating sum sum_k (-1)^(n-k) eta_k."""
    n = triangulation.config.dim
    weights = {k: (-1) ** (n - k) for k in range(n + 1)}
    return WeightVector(_face_walk(triangulation, weights), "massive")


def hurwitz_vector(triangulation):
    """n*eta_n - eta_(n-1), the branching weight of the triangulation."""
    n = triangulation.config.dim
    return WeightVector(_face_walk(triangulation, {n: n, n - 1: -1}), "hurwitz")
