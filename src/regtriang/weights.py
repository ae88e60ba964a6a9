"""Weight vectors attached to a triangulation.

For a triangulation T of a d-dimensional configuration, eta_k assigns to
each point the total normalized volume of the massive k-simplices of T
containing it; a k-simplex is massive when it lies inside a k-dimensional
face of the hull (every maximal simplex qualifies). The alternating sum
over k gives the massive vector, and d*eta_d - eta_{d-1} the ramification
weight vector.
"""

from dataclasses import dataclass
from itertools import combinations

from .triangulation import _bits, _mask, engine


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


def is_massive(config, labels):
    """Whether the simplex on these labels lies in a face of its own
    dimension; maximal simplices always do."""
    k = len(labels) - 1
    if k == config.dim:
        return True
    sm = _mask(labels)
    return any(sm & fm == sm for fm in config.face_point_masks(k))


def _simplices_of_dim(triangulation, k):
    out = set()
    for cell in triangulation.cells:
        for sub in combinations(cell, k + 1):
            out.add(_mask(sub))
    return out


def eta_k(triangulation, k):
    """Volume-weighted point incidence over massive k-simplices."""
    cfg = triangulation.config
    n = cfg.dim
    if not 0 <= k <= n:
        raise ValueError(f"k = {k} is outside 0..{n}")
    eng = engine(cfg)
    vals = [0] * len(cfg)
    if k < n:
        face_masks = cfg.face_point_masks(k)
    for sm in _simplices_of_dim(triangulation, k):
        if k < n and not any(sm & fm == sm for fm in face_masks):
            continue
        v = eng.volume(sm)
        for i in _bits(sm):
            vals[i] += v
    return WeightVector(tuple(vals), "gkz")


def massive_gkz(triangulation):
    """Alternating sum sum_k (-1)^(n-k) eta_k."""
    n = triangulation.config.dim
    total = [0] * len(triangulation.config)
    for k in range(n + 1):
        sign = 1 if (n - k) % 2 == 0 else -1
        for i, v in enumerate(eta_k(triangulation, k)):
            total[i] += sign * v
    return WeightVector(tuple(total), "massive")


def hurwitz_vector(triangulation):
    """n*eta_n - eta_(n-1), the branching weight of the triangulation."""
    n = triangulation.config.dim
    top = eta_k(triangulation, n)
    sub = eta_k(triangulation, n - 1)
    vals = tuple(n * a - b for a, b in zip(top, sub))
    return WeightVector(vals, "hurwitz")
