"""The prism over a planar configuration and its weight vectors.

Each base point appears twice, at heights 0 and 1; label i keeps the
height-0 copy and label i+m gets the height-1 copy. The folded massive
vector nu adds the two copies' entries, so it lives back on the base
labels. Vertical triangulations refine the product subdivision cell by
cell with order-consistent staircases, which makes adjacent prisms agree
on their shared rectangle diagonals.
"""

from dataclasses import dataclass

from .errors import CheckFailed, DimensionUnsupported
from .geometry import PointConfiguration
from .triangulation import Triangulation, _labels, _mask, engine
from .weights import WeightVector, massive_gkz


class PrismConfiguration(PointConfiguration):
    """Base config doubled at heights 0 and 1 in one extra dimension."""

    def __init__(self, base):
        if base.dim != 2:
            raise DimensionUnsupported(
                f"prism construction needs a planar base, got dim {base.dim}"
            )
        pts = [p + (0,) for p in base.points] + [p + (1,) for p in base.points]
        name = f"{base.name}-prism" if base.name else None
        super().__init__(pts, name=name)
        self.base = base
        self.base_size = len(base)

    def bottom(self, i):
        """Label of the height-0 copy of base label i."""
        return i

    def top(self, i):
        """Label of the height-1 copy of base label i."""
        return i + self.base_size


def prism_configuration(base):
    return PrismConfiguration(base)


def vertical_triangulation(base_triangulation):
    """Staircase refinement of cell x I over each base cell.

    Every returned tetrahedron lies in a single base cell's prism, both
    horizontal facets restrict to the base triangulation, and the result
    is checked to be regular.
    """
    base = base_triangulation.config
    prism = prism_configuration(base)
    m = prism.base_size
    cells = []
    for tri in base_triangulation.cells:
        x1, x2, x3 = sorted(tri)
        cells.append((x1, x2, x3, x3 + m))
        cells.append((x1, x2, x2 + m, x3 + m))
        cells.append((x1, x1 + m, x2 + m, x3 + m))
    t = Triangulation(prism, cells)
    for bottom in (True, False):
        if _facet_restriction(t, bottom) != set(base_triangulation.cells):
            level = "bottom" if bottom else "top"
            raise CheckFailed(f"staircase lift differs from the base on the {level}")
    if not engine(prism).regular_quick(t.masks)[0]:
        raise CheckFailed("staircase lift not regular")
    return t


def _facet_restriction(prism_triangulation, bottom):
    """Base cells induced on the height-0 (or height-1) facet."""
    cfg = prism_triangulation.config
    m = cfg.base_size
    out = set()
    for cell in prism_triangulation.cells:
        if bottom:
            face = tuple(l for l in cell if l <= m)
        else:
            face = tuple(l - m for l in cell if l > m)
        if len(face) == 3:
            out.add(face)
    return out


def nu_vector(prism_triangulation):
    """Folded massive vector: entry i adds the two copies of point i."""
    cfg = prism_triangulation.config
    m = cfg.base_size
    eta = massive_gkz(prism_triangulation)
    vals = tuple(eta.values[i] + eta.values[i + m] for i in range(m))
    return WeightVector(vals, "nu")


@dataclass(frozen=True)
class MixedSimplex:
    """A 2+2 tetrahedron whose four side companions are all present.

    i, j index the base points whose copies sit on the simplex's own
    level (`level`); ip, jp index the other two vertices one level over.
    """

    i: int
    j: int
    ip: int
    jp: int
    level: int  # height carrying the (i, j) pair
    tet: tuple
    companions: tuple


def _copies(cfg, level):
    m = cfg.base_size

    def up(k):  # copy on `level`
        return k if level == 0 else k + m

    def down(k):  # copy on the other level
        return k + m if level == 0 else k

    return up, down


def find_cubic_mixed(prism_triangulation):
    """All mixed tetrahedra whose four flanking tetrahedra are present.

    Both height orientations are scanned; the companions of the pair
    (i, j) at one height and (ip, jp) at the other are the two simplices
    dropping to the (i, j) side and the two climbing to the (ip, jp)
    side.
    """
    cfg = prism_triangulation.config
    m = cfg.base_size
    cellset = set(prism_triangulation.masks)
    found = []
    for cell in prism_triangulation.cells:
        low = tuple(l for l in cell if l <= m)
        high = tuple(l - m for l in cell if l > m)
        if len(low) != 2 or len(high) != 2:
            continue
        for level, (i, j), (ip, jp) in (
            (0, low, high),
            (1, high, low),
        ):
            up, down = _copies(cfg, level)
            comps = (
                (up(i), down(ip), down(jp), down(i)),
                (up(j), down(ip), down(jp), down(j)),
                (up(i), up(j), up(ip), down(ip)),
                (up(i), up(j), up(jp), down(jp)),
            )
            if any(len(set(c)) != 4 for c in comps):
                continue
            if all(_mask(c) in cellset for c in comps):
                found.append(
                    MixedSimplex(
                        i=i,
                        j=j,
                        ip=ip,
                        jp=jp,
                        level=level,
                        tet=tuple(sorted(cell)),
                        companions=tuple(tuple(sorted(c)) for c in comps),
                    )
                )
    found.sort(key=lambda ms: (ms.tet, ms.level))
    return found


def mixed_volumes(prism_config, ms):
    """The four side-triangle volumes (a, b, c, d) of a mixed simplex.

    a and b span the (i, j) pair with each of ip, jp on the same level;
    c and d are the opposite-level triangles under i and j. The mixed
    tetrahedron's volume is a + b = c + d.
    """
    eng = engine(prism_config)
    up, down = _copies(prism_config, ms.level)
    a = eng.volume(_mask((up(ms.i), up(ms.j), up(ms.ip))))
    b = eng.volume(_mask((up(ms.i), up(ms.j), up(ms.jp))))
    c = eng.volume(_mask((up(ms.i), down(ms.ip), down(ms.jp))))
    d = eng.volume(_mask((up(ms.j), down(ms.ip), down(ms.jp))))
    return a, b, c, d


def circuit_z1(prism_config, ms):
    """Circuit on {i, j, ip} at the pair's level plus {ip, jp} opposite."""
    up, down = _copies(prism_config, ms.level)
    mask = _mask((up(ms.i), up(ms.j), up(ms.ip), down(ms.ip), down(ms.jp)))
    return _circuit(prism_config, mask)


def circuit_z2(prism_config, ms):
    """Circuit on {i, j} at the pair's level plus {i, ip, jp} opposite."""
    up, down = _copies(prism_config, ms.level)
    mask = _mask((up(ms.i), up(ms.j), down(ms.i), down(ms.ip), down(ms.jp)))
    return _circuit(prism_config, mask)


def _circuit(prism_config, mask):
    circ = engine(prism_config).circuit_of(mask)
    if circ is None:
        raise CheckFailed(f"points {_labels(mask)} hold no circuit")
    return circ
