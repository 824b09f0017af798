"""Symmetrizations of voxel sets, dyadic height layers, and the
layer-balancing special dilation.

All four rearrangements preserve the occupied cell count exactly.  On a
corner-aligned lattice a run of n cells can be centered exactly only for
even n, so the fixed convention is: even fiber counts center exactly, odd
counts put the extra cell on the negative side (center offset -h/2).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    SetTriple,
    VoxelSet,
    from_cells,
    rasterize_affine_image,
    unit_ball_volume,
)

# growth caps for the dilation search grid (cells per axis / total cells)
MAX_AXIS_CELLS = 4096
MAX_TOTAL_CELLS = 1 << 24


def _greedy_ball_order(n, dim):
    """The first n global cells by increasing center distance to the origin.

    Cell g has center (g + 1/2) h, so the squared distance is proportional to
    the integer key sum((2 g_i + 1)^2); ties break lexicographically on the
    index tuple.  The candidate box is grown until the selection is provably
    complete (the n-th key fits inside the box's inscribed ball).
    """
    if n <= 0:
        return np.zeros((0, dim), dtype=np.int64)
    radius = int(math.ceil((n / unit_ball_volume(dim)) ** (1.0 / dim))) + 2
    while True:
        span = np.arange(-radius - 1, radius + 1, dtype=np.int64)
        grids = np.meshgrid(*([span] * dim), indexing="ij")
        cells = np.stack([g.reshape(-1) for g in grids], axis=1)
        if cells.shape[0] < n:
            radius += 2
            continue
        key = ((2 * cells + 1) ** 2).sum(axis=1)
        order = np.lexsort(
            tuple(cells[:, i] for i in reversed(range(dim))) + (key,)
        )
        sel = order[:n]
        if key[sel[-1]] > (2 * radius + 1) ** 2:
            radius += 2  # selection might be truncated by the box; retry
            continue
        return cells[sel]


def ball_symmetrize(e):
    """E -> the greedy centered quasi-ball with the same cell count."""
    n = e.count
    if n == 0:
        return VoxelSet.empty(e.dim, e.spacing)
    return from_cells(_greedy_ball_order(n, e.dim), e.dim, e.spacing)


def steiner_symmetrize(e):
    """Center each last-axis fiber: n occupied cells become one contiguous
    run of n cells starting at index -((n+1)//2)."""
    occ = e.occupancy
    counts = occ.sum(axis=-1)
    if not occ.any():
        return VoxelSet.empty(e.dim, e.spacing)
    start = -((counts + 1) // 2)
    stop = start + counts
    lo = int(start[counts > 0].min())
    hi = int(stop[counts > 0].max())
    span = np.arange(lo, hi, dtype=np.int64)
    new = (span >= start[..., None]) & (span < stop[..., None])
    origin = np.concatenate([e.origin_index[:-1], [lo]])
    return VoxelSet.from_index(new, origin, e.spacing).tighten()


def schwarz_symmetrize(e):
    """Replace each last-axis slice by the greedy centered (d-1)-ball with
    the same count.  Slices are prefixes of one fixed fill order, so they
    are nested."""
    if e.dim < 2:
        raise ValueError("schwarz symmetrization needs dim >= 2")
    occ = e.occupancy
    nz = occ.shape[-1]
    counts = occ.reshape(-1, nz).sum(axis=0)
    if counts.sum() == 0:
        return VoxelSet.empty(e.dim, e.spacing)
    order = _greedy_ball_order(int(counts.max()), e.dim - 1)
    lo = order.min(axis=0)
    hi = order.max(axis=0) + 1
    # each cell's place in the fill order; the cells the order never reaches
    # rank past every count
    rank = np.full(tuple(int(x) for x in (hi - lo)), len(order))
    rank[tuple((order - lo).T)] = np.arange(len(order))
    new = rank[..., None] < counts
    origin = np.concatenate([lo, [e.origin_index[-1]]])
    return VoxelSet.from_index(new, origin, e.spacing).tighten()


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


def _dilation_candidates():
    """Quarter-octave exponents ordered 0, 1, -1, 2, -2, ... so that ties
    resolve toward the identity."""
    yield 0
    for i in range(1, 41):
        yield i
        yield -i


def _predicted_cells(e, scales, h):
    ext = (np.asarray(e.shape) * e.spacing) * scales / h
    cells = np.ceil(ext) + 1
    return cells


def normalize_special_dilation(t, c_band):
    """Search determinant-1 special dilations (r x', rho x_d), r^(d-1) rho = 1,
    for the one concentrating each set's layer mass in the central dyadic
    band |k| <= c_band.

    Returns (dilated SetTriple, r, rho) maximizing
    min_j band_measure / measure, over rho in {2^(i/4) : |i| <= 40};
    candidates whose rasterization would exceed the grid caps are skipped.
    """
    d = t.dim
    if d < 2:
        raise ValueError("special dilations need dim >= 2")
    h = t.spacing
    best = None
    for i in _dilation_candidates():
        rho = 2.0 ** (i / 4.0)
        r = rho ** (-1.0 / (d - 1))
        scales = np.array([r] * (d - 1) + [rho])
        sizes = [_predicted_cells(e, scales, h) for e in t]
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
