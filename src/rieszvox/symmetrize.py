"""Symmetrizations of voxel sets, dyadic height layers, and the
layer-balancing special dilation.

The three rearrangements are one operation, the lattice form of the
rearrangement of Hardy, Littlewood and Polya: each section of E along a set
of axes is replaced by the first n cells of the greedy centered order on
those axes, n being the section's cell count.  Ball symmetrization takes the
whole set as its one section, Steiner symmetrization the last-axis fibers,
and Schwarz symmetrization the slices across the last axis.  Counts, and so
measures, are preserved exactly.  The greedy order fills a 1-D fiber
outward from the cell pair around 0, negative side first, so its prefixes
are runs that start at -((n+1)//2): even fiber counts center exactly, odd
counts put the extra cell on the negative side (center offset -h/2).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    SetTriple,
    VoxelSet,
    check_integer,
    rasterize_affine_image,
    unit_ball_volume,
)

# growth caps for the dilation search grid (cells per axis / total cells)
MAX_AXIS_CELLS = 4096
MAX_TOTAL_CELLS = 1 << 24


def _greedy_ball_order(n, dim):
    """The first n >= 1 global cells by increasing center distance to the
    origin.

    Cell g has center (g + 1/2) h, so the squared distance is proportional to
    the integer key sum((2 g_i + 1)^2); ties break lexicographically on the
    index tuple, because the candidates are listed in that order and the
    sort is stable.  The candidate box is grown until the selection is
    provably complete (the n-th key fits inside the box's inscribed ball).
    """
    radius = int(math.ceil((n / unit_ball_volume(dim)) ** (1.0 / dim))) + 2
    while True:
        span = np.arange(-radius - 1, radius + 1, dtype=np.int64)
        grids = np.meshgrid(*([span] * dim), indexing="ij")
        cells = np.stack([g.reshape(-1) for g in grids], axis=1)
        key = ((2 * cells + 1) ** 2).sum(axis=1)
        sel = np.argsort(key, kind="stable")[:n]
        if key[sel[-1]] <= (2 * radius + 1) ** 2:
            return cells[sel]
        radius += 2  # selection might be truncated by the box; retry


def _greedy_sections(e, axes):
    """Fill each section of E along axes (the cells sharing their other
    coordinates) with the greedy prefix of its cell count.  Prefixes of one
    order are nested, so the filled sections are too."""
    counts = e.occupancy.sum(axis=axes, keepdims=True)
    if not counts.any():
        return VoxelSet.empty(e.dim, e.spacing)
    order = _greedy_ball_order(int(counts.max()), len(axes))
    lo = order.min(axis=0)
    # each cell's place in the fill order; the cells the order never reaches
    # rank past every count
    rank = np.full(order.max(axis=0) + 1 - lo, len(order))
    rank[tuple((order - lo).T)] = np.arange(len(order))
    others = tuple(a for a in range(e.dim) if a not in axes)
    new = np.expand_dims(rank, others) < counts
    origin = e.origin_index.copy()
    origin[list(axes)] = lo
    return VoxelSet.from_index(new, origin, e.spacing).tighten()


def ball_symmetrize(e):
    """E -> the greedy centered quasi-ball with the same cell count."""
    return _greedy_sections(e, tuple(range(e.dim)))


def steiner_symmetrize(e):
    """Center each last-axis fiber: its n cells become the run of n cells
    starting at index -((n+1)//2)."""
    return _greedy_sections(e, (e.dim - 1,))


def schwarz_symmetrize(e):
    """Replace each last-axis slice by the greedy centered (d-1)-ball with
    the same count; the slices are nested."""
    if e.dim < 2:
        raise ValueError("schwarz symmetrization needs dim >= 2")
    return _greedy_sections(e, tuple(range(e.dim - 1)))


def double_symmetrize(e):
    """Schwarz then Steiner; a fixed point of Schwarz by the nesting of
    greedy prefixes."""
    return steiner_symmetrize(schwarz_symmetrize(e))


# the rearrangements by name: star is the last-axis (Steiner) op, dagger the
# transverse (Schwarz) op
OPS = {
    "bullet": ball_symmetrize,
    "star": steiner_symmetrize,
    "dagger": schwarz_symmetrize,
    "daggerstar": double_symmetrize,
}


@dataclass
class LayerDecomposition:
    """Dyadic fiber-height layers of a set, split as R^(d-1) x R.

    heights maps each occupied column (global (d-1)-index tuple) to the
    physical fiber measure; layers maps the dyadic index k to the part of E
    over columns with height in [2^k, 2^(k+1)); projections maps k to the
    (d-1)-measure of those columns.
    """

    axis: int
    spacing: float
    heights: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    projections: dict = field(default_factory=dict)

    def band_measure(self, c):
        """Total measure of layers with |k| <= c."""
        return sum(v.measure for k, v in self.layers.items() if abs(k) <= c)


def dyadic_layers(e):
    """Partition E by the dyadic size of its last-axis fiber heights.

    The dyadic index of a column with c occupied cells is the integer k with
    2^k <= c*h < 2^(k+1), computed exactly via frexp.
    """
    if e.dim < 2:
        raise ValueError("dyadic layers need dim >= 2")
    occ = e.occupancy
    counts = occ.sum(axis=-1)
    occupied = counts > 0
    heights = counts * e.spacing
    index = np.frexp(heights)[1] - 1  # height = m * 2^exp, m in [0.5, 1)
    out = LayerDecomposition(axis=e.dim - 1, spacing=e.spacing)
    lead = np.argwhere(occupied) + e.origin_index[:-1]
    out.heights = dict(zip(map(tuple, lead.tolist()), heights[occupied].tolist()))
    for k in np.unique(index[occupied]).tolist():
        mask = occupied & (index == k)
        out.layers[k] = VoxelSet.from_index(
            occ & mask[..., None], e.origin_index, e.spacing
        ).tighten()
        out.projections[k] = int(mask.sum()) * e.spacing ** (e.dim - 1)
    return out


def normalize_special_dilation(t, c_band):
    """Search determinant-1 special dilations (r x', rho x_d), r^(d-1) rho = 1,
    for the one concentrating each set's layer mass in the central dyadic
    band |k| <= c_band.

    Returns (dilated SetTriple, r, rho) maximizing
    min_j band_measure / measure, over rho in {2^(i/4) : |i| <= 40};
    candidates whose rasterization would exceed the grid caps are skipped.
    """
    t = SetTriple(t)
    c_band = check_integer(c_band, "c_band", low=0)
    d = t.dim
    if d < 2:
        raise ValueError("special dilations need dim >= 2")
    if any(e.is_empty for e in t):
        raise ValueError("special dilations need three sets of positive measure")
    h = t.spacing
    best = None
    # quarter-octave exponents 0, 1, -1, 2, -2, ..., so that ties resolve
    # toward the identity
    for i in sorted(range(-40, 41), key=lambda i: (abs(i), -i)):
        rho = 2.0 ** (i / 4.0)
        r = rho ** (-1.0 / (d - 1))
        scales = np.array([r] * (d - 1) + [rho])
        sizes = [np.ceil(np.asarray(e.shape) * e.spacing * scales / h) + 1 for e in t]
        if any(
            s.max() > MAX_AXIS_CELLS or s.prod() > MAX_TOTAL_CELLS for s in sizes
        ):
            continue
        A = np.diag(scales)
        zero = np.zeros(d)
        dilated = [rasterize_affine_image(e, A, zero, h) for e in t]
        if any(e.is_empty for e in dilated):
            continue
        score = min(
            dyadic_layers(e).band_measure(c_band) / e.measure for e in dilated
        )
        if best is None or score > best[0]:
            best = (score, dilated, r, rho)
    if best is None or best[0] <= 0:
        raise ValueError("no special dilation concentrates the layer mass")
    _, dilated, r, rho = best
    return SetTriple(dilated), r, rho
