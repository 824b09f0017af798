"""Reference column statistics: one Python iteration per last-axis column.

These are the per-column loops that ellipsoid._columns, the array form of
center_compatibility, symmetrize.dyadic_layers and sweep._roll_columns
replaced.  Each builds one object per fiber and, for center compatibility,
pairs columns through float-tuple dict keys.  The library must reproduce
their output, so the tests keep them as an oracle.
"""

import math
from fractions import Fraction

import numpy as np

from rieszvox import IntervalFit, LayerDecomposition, VoxelSet
from rieszvox.ellipsoid import _weighted_median


def reference_fit_interval_1d(fiber):
    h = fiber.spacing
    cells = fiber.global_indices()[:, 0]
    centers = (cells + 0.5) * h
    c = float(centers.mean())
    length = fiber.measure
    # the residual in exact rational arithmetic, in units of h
    n = len(cells)
    mid = Fraction(int(cells.sum()), n) + Fraction(1, 2)
    lo, hi = mid - Fraction(n, 2), mid + Fraction(n, 2)
    overlap = sum(max(min(Fraction(int(g) + 1), hi) - max(Fraction(int(g)), lo), 0) for g in cells)
    return IntervalFit(center=c, length=length, residual=float(2 * (n - overlap) / n))


def reference_slice_center_field(e, axis=None):
    """One VoxelSet and one IntervalFit per fiber, keyed by physical column
    center coordinates."""
    if axis is None:
        axis = e.dim - 1
    occ = np.moveaxis(e.occupancy, axis, -1)
    lead_origin = np.delete(e.origin_index, axis)
    ax_origin = int(e.origin_index[axis])
    h = e.spacing
    out = {}
    for col in np.argwhere(occ.sum(axis=-1) > 0):
        bits = occ[tuple(col)]
        fiber = VoxelSet.from_index(bits, [ax_origin], h)
        key = tuple((col + lead_origin + 0.5) * h)
        out[key] = reference_fit_interval_1d(fiber)
    return out


def reference_center_compatibility(t, samples=400, seed=0):
    """Alternating scalar draws; the third column is snapped in physical
    coordinates to one of the two lattice columns straddling -(y1 + y2)."""
    if samples < 1:  # the library names the argument before drawing
        raise ValueError(f"samples must be >= 1, got {samples}")
    h = t.spacing
    fields = [reference_slice_center_field(e) for e in t]
    keys1 = sorted(fields[0].keys())
    keys2 = sorted(fields[1].keys())
    rng = np.random.default_rng(seed)
    vals = []
    wts = []
    for _ in range(int(samples)):
        k1 = keys1[rng.integers(len(keys1))]
        k2 = keys2[rng.integers(len(keys2))]
        y3 = -(np.asarray(k1) + np.asarray(k2))
        base = np.floor(y3 / h - 0.5)
        hit = None
        for shift in (0.0, 1.0):
            cand = tuple((base + shift + 0.5) * h)
            if cand in fields[2]:
                hit = cand
                break
        if hit is None:
            continue
        f1, f2, f3 = fields[0][k1], fields[1][k2], fields[2][hit]
        vals.append(abs(f1.center + f2.center + f3.center))
        wts.append(min(f1.length, f2.length, f3.length))
    if not vals:
        raise ValueError("no admissible sample triples: slice supports do not meet")
    return _weighted_median(vals, wts)


def reference_dyadic_layers(e):
    occ = e.occupancy
    counts = occ.sum(axis=-1)
    out = LayerDecomposition(axis=e.dim - 1, spacing=e.spacing)
    cols = np.argwhere(counts > 0)
    if cols.shape[0] == 0:
        return out
    lead_origin = e.origin_index[:-1]
    proj_cell = e.spacing ** (e.dim - 1)
    kmap = {}
    for col in cols:
        c = int(counts[tuple(col)])
        height = c * e.spacing
        _, exp = math.frexp(height)
        k = exp - 1
        gcol = tuple(int(x) for x in (col + lead_origin))
        out.heights[gcol] = height
        kmap.setdefault(k, []).append(col)
    for k, members in sorted(kmap.items()):
        mask = np.zeros(counts.shape, dtype=bool)
        mask[tuple(np.asarray(members).T)] = True
        layer_occ = occ & mask[..., None]
        out.layers[k] = VoxelSet.from_index(
            layer_occ, e.origin_index, e.spacing
        ).tighten()
        out.projections[k] = len(members) * proj_cell
    return out


def reference_roll_columns(e, shifts):
    occ = e.occupancy
    lead = occ.shape[:-1]
    nz = occ.shape[-1]
    k = np.asarray(shifts, dtype=np.int64).reshape(lead)
    kmin, kmax = int(k.min()), int(k.max())
    new = np.zeros(lead + (nz + kmax - kmin,), dtype=bool)
    for col in np.ndindex(*lead):
        s = int(k[col]) - kmin
        new[col + (slice(s, s + nz),)] = occ[col]
    origin = np.concatenate([e.origin_index[:-1], [e.origin_index[-1] + kmin]])
    return VoxelSet.from_index(new, origin, e.spacing).tighten()


def reference_skew_columns(e, slope):
    slope = np.asarray(slope, dtype=float).reshape(-1)
    lead = e.occupancy.shape[:-1]
    idx = np.indices(lead).reshape(e.dim - 1, -1).T + e.origin_index[:-1]
    y = (idx + 0.5) * e.spacing
    k = np.rint((y @ slope) / e.spacing).astype(np.int64).reshape(lead)
    return reference_roll_columns(e, k)

