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

A vector sum_k w_k eta_k is therefore summed from per-cell shares, which
depend on the cell and the weights w alone, so the engine keeps one per
cell and weight map (like the GKZ vector, a sum of cell volumes:
De Loera-Rambau-Santos, *Triangulations*, 5.1). A cell's share sums, per
point, the terms of the cell itself (k = d) and of its walls on hull
facets (k = d-1): such a wall is on the boundary, so no other cell of T
holds it, and these terms need no deduplication. A massive simplex of
dimension d-2 or less may lie in many cells of T (an edge of the hull
lies in every cell around it), so it must be added once per T, not once
per cell. A face of the hull whose only points are its k+1 vertices is
itself such a simplex of every triangulation, and is added once per
weight map; a cell's share lists the simplices it cuts from the other
faces, and the walk adds each one that some cell lists once.
"""

from collections import defaultdict
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
    """sum_k weights[k] * eta_k, summed from the cells' shares.

    Only the face dimensions k in `weights` are visited, so k = d alone
    touches the cells and nothing else.
    """
    cfg = triangulation.config
    eng = engine(cfg)
    key = tuple(weights.items())
    memo = eng.weight_shares.get(key)
    if memo is None:
        fixed = [
            f
            for k in weights
            if k < cfg.dim - 1
            for f in cfg.face_point_masks(k)
            if f.bit_count() == k + 1
        ]
        memo = eng.weight_shares[key] = (tuple(_add([0] * eng.m, eng, weights, fixed)), {})
    base, shares = memo
    missing = [c for c in triangulation.masks if c not in shares]
    if missing:
        shares.update(_shares(cfg, eng, weights, missing))
    vals = list(base)
    lower = set()
    for c in triangulation.masks:
        sums, low = shares[c]
        it = iter(sums)
        for i, x in zip(it, it):
            vals[i] += x
        if low:
            lower.update(low)
    return tuple(_add(vals, eng, weights, lower))


def _add(vals, eng, weights, simplices):
    """Add weights[k] times its volume to each point of each k-simplex, in
    place; vals is indexed by point (a list, or a defaultdict)."""
    for sm in simplices:
        x = weights[sm.bit_count() - 1] * eng.volume(sm)
        while sm:
            low = sm & -sm
            vals[low.bit_length() - 1] += x
            sm ^= low
    return vals


def _shares(cfg, eng, weights, cells):
    """{cell: share} for the cells, from one scan of the hull's faces. A
    share is (the sums of the terms of the cell and of its walls on hull
    facets, flat as (index, value, index, value, ...) with zeros left out;
    its massive simplices of dimension d-2 or less on faces with more
    points than vertices)."""
    n = cfg.dim
    own = {c: [c] if n in weights else [] for c in cells}
    low = {c: [] for c in cells}
    for k in weights:
        if k == n:
            continue
        cut = own if k == n - 1 else low
        for f in cfg.face_point_masks(k):
            # a lower face whose only points are its vertices is fixed, in the walk's base
            if k < n - 1 and f.bit_count() == k + 1:
                continue
            for c in cells:
                if (sm := c & f).bit_count() == k + 1:
                    cut[c].append(sm)
    out = {}
    for c in cells:
        sums = _add(defaultdict(int), eng, weights, own[c])
        out[c] = tuple(y for i, x in sums.items() if x for y in (i, x)), tuple(low[c])
    return out


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
