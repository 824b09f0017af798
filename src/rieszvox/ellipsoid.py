"""Moment-based ellipsoid fitting, homothetic triple fits, and the slice
interval machinery: per-fiber interval fits, center fields, affine center
regression, and the three-set center compatibility score.

A solid ellipsoid {x : (x-v)^T Q (x-v) <= 1} has second central moment
matrix inv(Q) / (dim + 2), which makes the moment fit closed-form and exact
on true ellipsoids.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Ellipsoid,
    SetTriple,
    check_integer,
    rasterize_ellipsoid,
    symmetric_difference_measure,
    unit_ball_volume,
)

SINGULAR_RTOL = 1e-12


@dataclass
class HomotheticFit:
    """A common centered shape, one translate and radius per set.

    shape is normalized to measure omega_dim (det Q = 1); centers sum to
    zero by construction; radii are (|E_j| / omega)^(1/dim); epsilons are
    the relative symmetric differences against the rasterized translates.
    """

    shape: Ellipsoid
    centers: np.ndarray  # (3, dim)
    radii: np.ndarray  # (3,)
    epsilons: np.ndarray  # (3,)


@dataclass(frozen=True)
class IntervalFit:
    center: float
    length: float
    residual: float  # relative symmetric difference of fiber vs interval


# -- moment fits ------------------------------------------------------------


def fit_ellipsoid_moments(e):
    """Fit an ellipsoid to a voxel set by matching centroid and second moments.

    For a solid ellipsoid of shape Q the second central moment matrix is
    inv(Q) / (dim + 2), so Q0 = inv(Sigma) / (dim + 2) recovers the shape
    exactly in the continuum; Q0 is then rescaled so the fitted measure
    equals measure(E).  Cell centers carry the mass (no intra-cell spread),
    so sets concentrated on a single cell or a hyperplane of cells raise a
    singular-covariance error.
    """
    if e.is_empty:
        raise ValueError("cannot fit an empty set")
    pts = e.cell_centers()
    v = pts.mean(axis=0)
    diff = pts - v
    sigma = diff.T @ diff / pts.shape[0]
    sigma = np.atleast_2d(sigma)
    w = np.linalg.eigvalsh(sigma)
    if w.min() <= SINGULAR_RTOL * max(w.max(), 1.0):
        raise ValueError("singular covariance: set is concentrated on a hyperplane")
    d = e.dim
    q0 = np.linalg.inv(sigma) / (d + 2)
    q0 = (q0 + q0.T) / 2
    # rescale so the fitted measure matches the voxel measure exactly
    target = e.measure
    scale = (unit_ball_volume(d) / (target * math.sqrt(np.linalg.det(q0)))) ** (
        2.0 / d
    )
    return Ellipsoid(center=v, shape=scale * q0)


def _epsilon_one(e, shape, center, radius):
    """Relative symmetric difference of E against the rasterized r*shape+v."""
    ras = rasterize_ellipsoid(Ellipsoid(center=center, shape=shape / radius**2), e.spacing)
    return symmetric_difference_measure(e, ras) / e.measure


def fit_homothetic_triple(t):
    """Fit one centered shape plus per-set translates to a SetTriple.

    Per-set moment fits are averaged on the squared-semi-axis scale: each
    fitted Q_j is normalized to det 1, the mean of their inverses is
    inverted, re-symmetrized, and renormalized to det 1 (measure omega_dim).
    Centers are mean-subtracted so they sum to zero; radii follow from the
    measures; epsilons compare against rasterizations at the triple's
    spacing.
    """
    t = SetTriple(t)
    d = t.dim
    fits = [fit_ellipsoid_moments(e) for e in t]
    inv_mean = sum(np.linalg.inv(f.shape / np.linalg.det(f.shape) ** (1.0 / d)) for f in fits)
    s = np.linalg.inv(inv_mean / 3.0)
    s = (s + s.T) / 2
    s = s / np.linalg.det(s) ** (1.0 / d)  # det 1, measure omega_dim
    centers = np.array([f.center for f in fits])
    centers = centers - centers.mean(axis=0)
    w = unit_ball_volume(d)
    radii = np.array([(e.measure / w) ** (1.0 / d) for e in t])
    shape = Ellipsoid(center=np.zeros(d), shape=s)
    eps = np.array([_epsilon_one(e, s, c, r) for e, c, r in zip(t, centers, radii)])
    return HomotheticFit(shape=shape, centers=centers, radii=radii, epsilons=eps)


# -- slice machinery ---------------------------------------------------------


def _columns(e, axis):
    """Statistics of every nonempty fiber along `axis`, in one array pass.

    Returns (lead, center, length, residual), one row per fiber in
    lexicographic order of its lead index: the global (dim-1)-index of the
    column, the centroid of the fiber, its measure, and the relative
    symmetric difference against the interval of that measure centered at
    the centroid.  The centroid is (sum g + n/2) h / n with an integer index
    sum, the mean of the cell centers; the residual is the correctly rounded
    value of the exact per-cell overlaps.
    """
    occ = np.moveaxis(e.occupancy, axis, -1)
    h = e.spacing
    counts = occ.sum(axis=-1)
    lead = np.argwhere(counts > 0) + np.delete(e.origin_index, axis)
    n = counts[counts > 0]
    # argwhere lists cells column by column, so each fiber is one segment
    g = np.argwhere(occ)[:, -1] + e.origin_index[axis]
    starts = np.cumsum(n) - n
    s = np.add.reduceat(g, starts)
    center = (s + n / 2) * h / n
    # In units of h / 2n the cells and the interval 2s + n -+ n^2 have
    # integer ends, so the overlaps sum exactly and the residual
    # 2 (n - overlap) / n = (2n^2 - overlap') / n^2 rounds once.
    m = np.repeat(2 * n, n)
    lo = np.repeat(2 * s + n - n * n, n)
    hi = np.repeat(2 * s + n + n * n, n)
    overlap = np.clip(np.minimum(m * (g + 1), hi) - np.maximum(m * g, lo), 0, None)
    return lead, center, n * h, (2 * n * n - np.add.reduceat(overlap, starts)) / (n * n)


def fit_interval_1d(fiber):
    """Best centered-mass interval for a 1-D fiber.

    The interval has the fiber's measure and is centered at its centroid;
    the residual is |fiber symdiff interval| / measure(fiber), computed
    exactly from per-cell overlaps.
    """
    if fiber.dim != 1:
        raise ValueError("fiber must be one-dimensional")
    if fiber.is_empty:
        raise ValueError("empty fiber")
    _, *stats = _columns(fiber, 0)
    return IntervalFit(*(float(x[0]) for x in stats))


def slice_center_field(e, axis=None):
    """Interval fit of every nonempty fiber along `axis` (default: last).

    Returns a dict keyed by the physical center coordinates of the column
    (a (dim-1)-tuple) with IntervalFit values; empty columns are absent.
    """
    if e.dim < 2:
        raise ValueError("slice fields need dim >= 2")
    if axis is None:
        axis = e.dim - 1
    lead, *stats = _columns(e, axis)
    keys = map(tuple, (lead + 0.5) * e.spacing)
    return {k: IntervalFit(*map(float, row)) for k, row in zip(keys, zip(*stats))}


def affine_regress_centers(field, weights=None):
    """Weighted least-squares affine fit of a center field.

    field maps (dim-1)-tuples x' to IntervalFit objects (or bare center
    values); weights maps the same keys to nonnegative weights, defaulting
    to the fiber lengths.  Returns ((a, b), rms) for the model
    center(x') = a . x' + b, with the weighted root-mean-square residual.
    """
    keys = sorted(field.keys())
    if not keys:
        raise ValueError("empty center field")
    x = np.array(keys, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    fits = [field[k] for k in keys]
    y = np.array([f.center if isinstance(f, IntervalFit) else f for f in fits], dtype=float)
    if weights is None:
        w = np.array([f.length if isinstance(f, IntervalFit) else 1.0 for f in fits])
    else:
        w = np.array([weights[k] for k in keys], dtype=float)
    if not (np.all(np.isfinite(w) & (w >= 0)) and w.sum() > 0):
        raise ValueError("weights must be finite and nonnegative with positive total")
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    sw = np.sqrt(w)
    dw = design * sw[:, None]
    if np.linalg.matrix_rank(dw) < design.shape[1]:
        raise ValueError("rank-deficient center field: columns not in general position")
    coef, _, _, _ = np.linalg.lstsq(dw, y * sw, rcond=None)
    a, b = coef[:-1], float(coef[-1])
    resid = y - (x @ a + b)
    rms = math.sqrt(float((w * resid**2).sum() / w.sum()))
    return (a, b), rms


def _weighted_median(values, weights):
    order = np.argsort(values)
    v = np.asarray(values)[order]
    w = np.asarray(weights)[order]
    cum = np.cumsum(w)
    return float(v[np.searchsorted(cum, 0.5 * cum[-1])])


def center_compatibility(t, samples=400, seed=0):
    """Weighted median of |sum_j center_j(y_j)| over sampled column triples
    with y_1 + y_2 + y_3 = 0.

    In the scaled form of the theory the constraint reads
    sum_j r_j x'_j = 0 and the score is |sum_j r_j c_j(x'_j)|; substituting
    y_j = r_j x'_j shows the radii cancel, so the score is computed in
    physical coordinates and takes no radii.
    samples draws, an integer >= 1, pick columns g_1 and g_2 of the first
    two sets uniformly; column g centers at (g + 1/2) h, so the exact
    zero-sum point sits half a cell off the center lattice, between the
    integer columns -(g_1 + g_2) - 2 and -(g_1 + g_2) - 1.  The third
    column is the first of these that the third set occupies; draws where
    it occupies neither are skipped.  Weights are the smallest of the three
    fiber measures.  Small scores mean the three slice center fields are
    mutually consistent with translates summing to zero.
    """
    t = SetTriple(t)
    if t.dim < 2:
        raise ValueError("center compatibility needs dim >= 2")
    samples = check_integer(samples, "samples", low=1)
    (lead1, c1, l1, _), (lead2, c2, l2, _), (_, c3, l3, _) = (
        _columns(e, e.dim - 1) for e in t
    )
    rng = np.random.default_rng(seed)
    i1, i2 = rng.integers([len(c1), len(c2)], size=(samples, 2)).T
    # the third set's column number at each cell of its lead box, -1 if empty
    occupied = t[2].occupancy.any(axis=-1)
    index3 = np.full(occupied.shape, -1)
    index3[occupied] = np.arange(len(c3))
    zero_sum = -(lead1[i1] + lead2[i2]) - t[2].origin_index[:-1]
    i3 = np.full(len(i1), -1)
    for loc in (zero_sum - 1, zero_sum - 2):  # -2 goes last: it wins if occupied
        inbox = np.clip(loc, 0, np.array(occupied.shape) - 1)
        hit = np.where(np.all(inbox == loc, axis=1), index3[tuple(inbox.T)], -1)
        i3 = np.where(hit >= 0, hit, i3)
    i1, i2, i3 = i1[i3 >= 0], i2[i3 >= 0], i3[i3 >= 0]
    if not i3.size:
        raise ValueError("no admissible sample triples: slice supports do not meet")
    vals = np.abs(c1[i1] + c2[i2] + c3[i3])
    wts = np.minimum(np.minimum(l1[i1], l2[i2]), l3[i3])
    return _weighted_median(vals, wts)
