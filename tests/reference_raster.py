"""Reference rasterizers: the full-box supersample loops.

Every cell of the bounding box evaluates all of its s^d sample points, with
no band pruning.  These are the kernels grid.rasterize_ellipsoid and
grid.rasterize_affine_image replaced; the library must reproduce their
output cell for cell, so the tests keep them as an oracle.
"""

import numpy as np

from rieszvox import VoxelSet


def _subsample_offsets(spacing, s):
    return (np.arange(s) + 0.5) / s * spacing


def _point_membership(e, pts):
    idx = np.floor(pts / e.spacing).astype(np.int64) - e.origin_index
    ok = np.all((idx >= 0) & (idx < np.asarray(e.shape)), axis=-1)
    out = np.zeros(pts.shape[:-1], dtype=bool)
    if np.any(ok):
        god = tuple(idx[ok][:, i] for i in range(e.dim))
        out[ok] = e.occupancy[god]
    return out


def reference_ellipsoid(e, spacing, supersample=3):
    counts, lo, h = ellipsoid_sample_counts(e, spacing, supersample)
    return _vote(counts, lo, h, supersample)


def reference_affine_image(e, a, v, spacing, supersample=3):
    """Every sample of every cell in the image's bounding box."""
    counts, lo, h = affine_sample_counts(e, a, v, spacing, supersample)
    return _vote(counts, lo, h, supersample)


def _vote(counts, lo, h, s):
    occ = 2 * counts >= s**counts.ndim
    return VoxelSet.from_index(occ, lo, h).tighten()


def ellipsoid_sample_counts(e, spacing, supersample=3):
    """Samples in the body per cell of the bounding box, its low corner, h."""
    v = np.asarray(e.center, dtype=float).reshape(-1)
    dim = v.size
    Q = np.asarray(e.shape, dtype=float)
    Q = (Q + Q.T) / 2
    h = float(spacing)
    b = np.sqrt(np.diag(np.linalg.inv(Q)))
    lo = np.floor((v - b) / h).astype(np.int64)
    hi = np.ceil((v + b) / h).astype(np.int64)
    box = tuple(int(x) for x in (hi - lo))
    s = int(supersample)
    counts = np.zeros(box, dtype=np.int32)
    axes = [lo[i] * h + _subsample_offsets(h, s)[:, None] + np.arange(box[i]) * h
            for i in range(dim)]
    for combo in np.ndindex(*([s] * dim)):
        coords = np.meshgrid(
            *[axes[i][combo[i]] - v[i] for i in range(dim)], indexing="ij"
        )
        qf = np.zeros(box)
        for i in range(dim):
            for j in range(dim):
                qf += Q[i, j] * coords[i] * coords[j]
        counts += qf <= 1.0
    return counts, lo, h


def affine_sample_counts(e, a, v, spacing, supersample=3):
    """Samples in A(E) + v per cell of the bounding box, its low corner, h."""
    A = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float).reshape(-1)
    h = float(spacing)
    Ainv = np.linalg.inv(A)
    lo_phys = e.origin_index * e.spacing
    hi_phys = (e.origin_index + np.asarray(e.shape)) * e.spacing
    corners = np.array(
        [
            [lo_phys[i] if (k >> i) & 1 == 0 else hi_phys[i] for i in range(e.dim)]
            for k in range(2**e.dim)
        ]
    )
    img = corners @ A.T + v
    lo = np.floor(img.min(axis=0) / h).astype(np.int64)
    hi = np.ceil(img.max(axis=0) / h).astype(np.int64)
    box = tuple(int(x) for x in (hi - lo))
    s = int(supersample)
    counts = np.zeros(box, dtype=np.int32)
    sub = _subsample_offsets(h, s)
    centers = [lo[i] * h + np.arange(box[i]) * h for i in range(e.dim)]
    for combo in np.ndindex(*([s] * e.dim)):
        coords = np.meshgrid(
            *[centers[i] + sub[combo[i]] for i in range(e.dim)], indexing="ij"
        )
        pts = np.stack(coords, axis=-1).reshape(-1, e.dim)
        x = (pts - v) @ Ainv.T
        counts += _point_membership(e, x).reshape(box)
    return counts, lo, h
