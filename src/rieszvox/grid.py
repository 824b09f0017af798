"""Voxelized subsets of R^d on a corner-aligned uniform lattice.

A VoxelSet stores a dense boolean occupancy array together with the global
index of its low corner and the cell edge length h.  Cell g (a vector of
integers) is the half-open box [g*h, (g+1)*h) per axis, so the origin of
coordinates is always a lattice corner.  This alignment makes boolean set
algebra, symmetric differences, reflection about 0, and the trilinear form
exact at the level of integer cell counts; floating point enters only as a
final scale factor h^dim.

Measures are computed count-first: integer cell count, multiplied by h^dim
once at the end.

Rasterization (rasterize_ellipsoid, rasterize_affine_image) supersamples
each cell at s^dim points, s per axis at offsets (k + 1/2) h / s, and a
sample exactly on the boundary counts as in.  Each rasterizer is a kernel
that returns the exact number of samples in the body per cell of the
bounding box, followed by one vote: a cell is occupied when at least half
of its samples are in (2 * in >= s^dim).  Neither kernel runs the
per-sample test on the whole box.  For an ellipsoid, q is a quadratic
along each line of samples on the last axis: its roots at the levels
1 -+ rho, rho far above rounding error, decide every sample outside a thin
shell, and only the shell's samples are tested.  For an affine image, the
preimages of a cell's samples fall in a fixed-width window of E's cells,
with a margin far above rounding error; window sums of E decide the cells
whose window is all occupied or all empty, and only the remaining band
runs the per-sample test.  Either way the counts are those of sampling
every cell of the bounding box.
"""

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

VXG_MAGIC = b"VXG1"
VXG_VERSION = 1

# relative slack used when checking that physical data sits on the lattice
ALIGN_RTOL = 1e-9

# largest |Q - Q^T| an ellipsoid's shape matrix may have, relative to
# max(1, max |Q|)
SYMMETRY_RTOL = 1e-12


# The input checks of the package.  Each returns the value in the form its
# caller computes with, and its message names the argument.


def _number(value):
    """float(value), or NaN when value is not one number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def check_positive(value, name):
    """float(value), once it is finite and positive."""
    x = _number(value)
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return x


def check_integer(value, name, low=None):
    """int(value), once it is integral (3 and 3.0 pass, 2.5 and NaN raise)
    and, when low is given, at least low."""
    if isinstance(value, numbers.Integral):
        n = int(value)
    else:
        x = _number(value)
        if not x.is_integer():
            raise ValueError(f"{name} must be an integer, got {value}")
        n = int(x)
    if low is not None and n < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return n


def check_triple(values, name, zero_ok=False):
    """Three floats, once each is finite and positive (nonnegative with
    zero_ok): a measure triple, a radius triple."""
    try:
        x = tuple(float(v) for v in values)
    except (TypeError, ValueError):
        x = ()
    if len(x) != 3 or not all(math.isfinite(v) and (v >= 0 if zero_ok else v > 0) for v in x):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be three finite {sign} numbers, got {values}")
    return x


def check_affine(a, v, dim):
    """(A, v) as float arrays, once A is a finite dim x dim matrix with
    |det A| >= 1e-12 and v a finite translation, or a stack of them, of
    length dim."""
    A = np.asarray(a, dtype=float)
    if A.shape != (dim, dim) or not np.all(np.isfinite(A)):
        raise ValueError(f"linear map must be a finite {dim}x{dim} matrix, got {A.tolist()}")
    if abs(np.linalg.det(A)) < 1e-12:
        raise ValueError(f"linear map must be invertible, got {A.tolist()}")
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (dim,) or not np.all(np.isfinite(v)):
        raise ValueError(f"translation must be finite of length {dim}, got {v.tolist()}")
    return A, v


def unit_ball_volume(dim):
    """Volume of the unit ball in R^dim."""
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)


@dataclass(frozen=True)
class Ellipsoid:
    """Center v and symmetric positive definite shape matrix Q, with the
    convention {x : (x-v)^T Q (x-v) <= 1}.

    The one check of ellipsoid data: v must be finite of length 1, 2 or 3,
    Q finite, square of the same size, symmetric to SYMMETRY_RTOL and
    positive definite.  Q is stored as (Q + Q^T) / 2, which keeps an
    exactly symmetric matrix bit for bit.
    """

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.center, dtype=float).reshape(-1)
        Q = np.asarray(self.shape, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"ellipsoid center must be finite, got {v}")
        if v.size not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2, or 3, got a center of length {v.size}")
        if Q.shape != (v.size, v.size):
            raise ValueError("shape matrix does not match the center length")
        if not np.all(np.isfinite(Q)):
            raise ValueError("ellipsoid shape matrix must be finite")
        if np.max(np.abs(Q - Q.T)) > SYMMETRY_RTOL * max(1.0, float(np.max(np.abs(Q)))):
            raise ValueError("shape matrix must be symmetric")
        Q = (Q + Q.T) / 2
        if np.linalg.eigvalsh(Q).min() <= 0:
            raise ValueError("shape matrix must be positive definite")
        v.setflags(write=False)
        Q.setflags(write=False)
        object.__setattr__(self, "center", v)
        object.__setattr__(self, "shape", Q)

    @property
    def dim(self):
        return self.center.size

    @property
    def measure(self):
        return unit_ball_volume(self.dim) / math.sqrt(np.linalg.det(self.shape))


def _validated(occupancy, origin, spacing):
    """The one validation path of VoxelSet's constructors.

    Returns the occupancy as a contiguous bool array, the origin (physical
    or index) as a flat array and the spacing as a float.
    """
    occ = np.ascontiguousarray(occupancy, dtype=bool)
    if occ.ndim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2, or 3, got {occ.ndim}")
    if min(occ.shape) < 1:
        raise ValueError("shape entries must be >= 1")
    h = check_positive(spacing, "spacing")
    origin = np.asarray(origin).reshape(-1)
    if origin.size != occ.ndim:
        raise ValueError("origin length must equal dim")
    if not np.all(np.isfinite(origin)):
        raise ValueError(f"origin must be finite, got {origin}")
    return occ, origin, h


class VoxelSet:
    """A finite union of lattice cells in dimension 1, 2, or 3.

    Parameters
    ----------
    occupancy : ndarray of bool, dim in {1,2,3}
        Row-major occupancy; entry [i0,...,ik] is cell origin_index + (i0,...,ik).
    origin : sequence of float
        Physical coordinate of the low corner.  Must lie on the lattice
        (an integer multiple of spacing per axis).
    spacing : float
        Cell edge length h > 0, uniform across axes.

    Instances are immutable; all operations return new sets.
    """

    __slots__ = ("_occ", "_origin_index", "_spacing")

    def __init__(self, occupancy, origin, spacing):
        occ, origin, h = _validated(occupancy, origin, spacing)
        idx = np.rint(origin / h)
        if np.any(np.abs(idx * h - origin) > ALIGN_RTOL * h):
            raise ValueError(
                "origin is not aligned to the cell lattice "
                f"(must be an integer multiple of spacing={spacing})"
            )
        self._set(occ, idx, h)

    @classmethod
    def from_index(cls, occupancy, origin_index, spacing):
        """Construct from an integer low-corner index, bypassing the float snap."""
        occ, idx, h = _validated(occupancy, origin_index, spacing)
        if idx.dtype.kind not in "iu" and np.any(idx != np.floor(idx)):
            raise ValueError(f"origin_index must be integers, got {idx.tolist()}")
        self = object.__new__(cls)
        self._set(occ, idx, h)
        return self

    def _set(self, occ, origin_index, spacing):
        self._occ = occ
        self._occ.setflags(write=False)
        self._origin_index = origin_index.astype(np.int64)
        self._origin_index.setflags(write=False)
        self._spacing = spacing

    @classmethod
    def empty(cls, dim, spacing):
        """The canonical empty set: a single unoccupied cell at the origin."""
        return cls.from_index(np.zeros((1,) * dim, dtype=bool), (0,) * dim, spacing)

    # -- basic geometry -------------------------------------------------

    @property
    def occupancy(self):
        return self._occ

    @property
    def dim(self):
        return self._occ.ndim

    @property
    def shape(self):
        return self._occ.shape

    @property
    def spacing(self):
        return self._spacing

    @property
    def origin_index(self):
        """Global lattice index of the low corner."""
        return self._origin_index

    @property
    def origin(self):
        """Physical coordinate of the low corner."""
        return self._origin_index * self._spacing

    @property
    def count(self):
        """Number of occupied cells."""
        return int(self._occ.sum())

    @property
    def measure(self):
        """Lebesgue measure: count * h^dim, exact in the count."""
        return self.count * self._spacing**self.dim

    @property
    def is_empty(self):
        return not self._occ.any()

    def local_indices(self):
        """(n, dim) array of occupied cell indices relative to the low corner."""
        return np.argwhere(self._occ)

    def global_indices(self):
        """(n, dim) array of occupied global lattice indices."""
        return self.local_indices() + self._origin_index

    def cell_centers(self):
        """(n, dim) array of physical centers of the occupied cells."""
        return (self.global_indices() + 0.5) * self._spacing

    def tighten(self):
        """Crop the bounding box to the occupied cells (canonical empty if none)."""
        if self.is_empty:
            return VoxelSet.empty(self.dim, self._spacing)
        lo, hi = [], []
        for ax in range(self.dim):
            # the occupied slabs along this axis
            hit = np.flatnonzero(self._occ.any(axis=tuple(a for a in range(self.dim) if a != ax)))
            lo.append(hit[0])
            hi.append(hit[-1] + 1)
        sl = tuple(slice(a, b) for a, b in zip(lo, hi))
        return VoxelSet.from_index(
            self._occ[sl], self._origin_index + lo, self._spacing
        )

    def same_grid(self, other):
        """True when spacings agree (lattice alignment is then automatic)."""
        a, b = self._spacing, other._spacing
        return abs(a - b) <= ALIGN_RTOL * max(a, b)

    def __eq__(self, other):
        """Voxelwise equality: same spacing and the same occupied global cells."""
        if not isinstance(other, VoxelSet):
            return NotImplemented
        if self.dim != other.dim or not self.same_grid(other):
            return False
        a, b = self.tighten(), other.tighten()
        if a.is_empty and b.is_empty:
            return True
        return (
            np.array_equal(a._origin_index, b._origin_index)
            and a.shape == b.shape
            and np.array_equal(a._occ, b._occ)
        )

    def __hash__(self):  # immutable but content hashing is not needed
        return id(self)

    def __repr__(self):
        return (
            f"VoxelSet(dim={self.dim}, shape={self.shape}, "
            f"count={self.count}, h={self._spacing:g})"
        )


class SetTriple:
    """Three VoxelSets with shared dimension and spacing, the argument of T.

    All three measures must be strictly positive.
    """

    __slots__ = ("_sets",)

    def __init__(self, sets):
        sets = tuple(sets)
        if len(sets) != 3:
            raise ValueError("a SetTriple holds exactly three sets")
        for e in sets:
            _check_aligned(sets[0], e)
            if e.is_empty:
                raise ValueError("triple members must have positive measure")
        self._sets = sets

    @property
    def sets(self):
        return self._sets

    @property
    def dim(self):
        return self._sets[0].dim

    @property
    def spacing(self):
        return self._sets[0].spacing

    @property
    def measures(self):
        return tuple(e.measure for e in self._sets)

    def __iter__(self):
        return iter(self._sets)

    def __getitem__(self, j):
        return self._sets[j]

    def __repr__(self):
        m = ", ".join(f"{x:.4g}" for x in self.measures)
        return f"SetTriple(dim={self.dim}, measures=({m}))"


class AffineMapTriple:
    """A shared invertible linear map with three translations summing to
    zero; the map and each translation pass check_affine."""

    __slots__ = ("linear", "translations")

    SUM_TOL = 1e-12

    def __init__(self, linear, translations):
        V = np.asarray(translations, dtype=float)
        if V.ndim != 2 or len(V) != 3:
            raise ValueError("translations must be three vectors of matching length")
        # dim is the map's row count, so a translation of another length
        # is the one named
        A, V = check_affine(linear, V, len(np.atleast_1d(linear)))
        if np.max(np.abs(V.sum(axis=0))) > self.SUM_TOL:
            raise ValueError("translations must sum to zero")
        A.setflags(write=False)
        V.setflags(write=False)
        self.linear = A
        self.translations = V

    def apply(self, triple):
        """Rasterize (A E_j + v_j) for each member of the triple, at its spacing."""
        out = [
            rasterize_affine_image(e, self.linear, v, triple.spacing)
            for e, v in zip(triple, self.translations)
        ]
        return SetTriple(out)


# -- exact set algebra ----------------------------------------------------


def measure(e):
    """Lebesgue measure of a VoxelSet (count times h^dim)."""
    return e.measure


def _check_aligned(e, f):
    """The one alignment check of two sets: same dimension, same grid."""
    if e.dim != f.dim:
        raise ValueError("sets have different dimensions")
    if not e.same_grid(f):
        raise ValueError(
            f"sets live on mismatched grids (h={e.spacing} vs h={f.spacing})"
        )


def _embed_pair(e, f):
    """Embed two aligned sets in their common bounding box; exact in counts."""
    lo = np.minimum(e.origin_index, f.origin_index)
    box = tuple((np.maximum(e.origin_index + e.shape, f.origin_index + f.shape) - lo).tolist())
    out = []
    for g in (e, f):
        a = np.zeros(box, dtype=bool)
        at = (g.origin_index - lo).tolist()
        a[tuple(slice(o, o + n) for o, n in zip(at, g.shape))] = g.occupancy
        out.append(a)
    return *out, lo


def symmetric_difference_measure(e, f):
    """Measure of the symmetric difference E xor F, exact in cell counts."""
    _check_aligned(e, f)
    a, b, _ = _embed_pair(e, f)
    return int(np.logical_xor(a, b).sum()) * e.spacing**e.dim


def boolean(e, f, op):
    """Exact bitwise set algebra on aligned grids.

    op is one of 'union', 'intersection', 'difference' (E minus F).
    """
    _check_aligned(e, f)
    a, b, lo = _embed_pair(e, f)
    if op == "union":
        out = a | b
    elif op == "intersection":
        out = a & b
    elif op == "difference":
        out = a & ~b
    else:
        raise ValueError(f"unknown boolean op {op!r}")
    return VoxelSet.from_index(out, lo, e.spacing).tighten()


def reflect(e):
    """Reflection about the origin: cell g maps to cell -g-1 per axis, exactly."""
    occ = e.occupancy
    for ax in range(e.dim):
        occ = np.flip(occ, axis=ax)
    new_origin = -(e.origin_index + np.asarray(e.shape, dtype=np.int64))
    return VoxelSet.from_index(occ.copy(), new_origin, e.spacing)


def translate_cells(e, offset):
    """Shift by an integer number of cells per axis (origin moves by offset*h)."""
    off = np.array([check_integer(x, "offset") for x in np.ravel(offset)], dtype=np.int64)
    if off.size != e.dim:
        raise ValueError("offset length must equal dim")
    return VoxelSet.from_index(e.occupancy, e.origin_index + off, e.spacing)


def permute_axes(e, perm):
    """Reorder coordinate axes (used to interchange the roles of axes)."""
    perm = tuple(check_integer(p, "perm") for p in perm)
    if sorted(perm) != list(range(e.dim)):
        raise ValueError("perm must be a permutation of the axes")
    return VoxelSet.from_index(
        np.ascontiguousarray(np.transpose(e.occupancy, perm)),
        e.origin_index[list(perm)],
        e.spacing,
    )


def upscale_integer(e, m):
    """Refine the grid by an integer factor: h -> h/m, each cell -> m^dim cells.

    The physical set is unchanged; occupied count multiplies by m^dim exactly.
    """
    m = check_integer(m, "upscale factor", low=1)
    if m == 1:
        return e
    occ = e.occupancy
    for ax in range(e.dim):
        occ = np.repeat(occ, m, axis=ax)
    return VoxelSet.from_index(occ, e.origin_index * m, e.spacing / m)


def from_cells(cells, dim, spacing):
    """Build a VoxelSet from an (n, dim) array of occupied global cell indices."""
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, dim)
    if cells.shape[0] == 0:
        return VoxelSet.empty(dim, spacing)
    lo = cells.min(axis=0)
    hi = cells.max(axis=0) + 1
    occ = np.zeros(tuple(int(x) for x in (hi - lo)), dtype=bool)
    occ[tuple((cells - lo).T)] = True
    return VoxelSet.from_index(occ, lo, spacing)


# -- rasterization --------------------------------------------------------

# An affine image's phase 1 decides a cell, and an ellipsoid's roots decide
# a sample, only when the margin beats this multiple of the magnitude of the
# terms the per-sample test sums; the rounding error of that test is below
# 1e-14 of the same magnitude.
BAND_RTOL = 1e-9


def rasterize_ellipsoid(e, spacing, supersample=3):
    """Rasterize the ellipsoid {x : (x-v)^T Q (x-v) <= 1}.

    A cell is occupied when at least half of its supersample^dim sample
    points satisfy the inequality; supersample=1 is the center-in-set rule.
    `e` is an Ellipsoid or any object with attributes `center` and `shape`
    (the matrix Q).  Either way it passes Ellipsoid's checks (finite, dim
    1 to 3, square, symmetric to SYMMETRY_RTOL, positive definite) before
    any box is built, and the symmetrized Q is the one sampled.

    Returns a VoxelSet of the given spacing.
    """
    h = check_positive(spacing, "spacing")
    s = check_integer(supersample, "supersample", low=1)
    if not isinstance(e, Ellipsoid):
        e = Ellipsoid(e.center, e.shape)
    counts, lo = _ellipsoid_sample_counts(e, h, s)
    return VoxelSet.from_index(2 * counts >= s**e.dim, lo, h).tighten()


def _ellipsoid_sample_counts(e, h, s):
    """Samples in the ellipsoid per cell of its bounding box, and the box's
    low corner index.

    The samples of a cell lie on s^(dim-1) lines along the last axis.  On
    each line q = (x-v)^T Q (x-v) is a convex quadratic a t^2 + b t + c in
    the last coordinate t.  Samples between its roots at the level 1 - rho
    are in, samples outside its roots at 1 + rho are out, and only those
    left between run the per-sample expression (_quadratic_form), in the
    order of the full-box loop.

    The margin: rho = BAND_RTOL * ext|Q|ext, where ext bounds |c_i| over
    the box, so ext|Q|ext bounds the summed terms and is at least 1 (the
    box holds points of the boundary).  The computed roots are exact for a
    quadratic that differs from q at the samples by a few tens of
    eps * ext|Q|ext, and the expression rounds by less than 11 eps *
    ext|Q|ext, so a root decides a sample as the expression would, with a
    margin above 10^5.  Rounding is monotone, so the roots at 1 + rho
    enclose those at 1 - rho.

    Each line's in-samples are added to its cells by one difference array
    along the last axis.
    """
    v, Q, dim = e.center, e.shape, e.dim
    # axis-aligned bounding half-widths: sqrt(diag(Q^-1))
    b = np.sqrt(np.diag(np.linalg.inv(Q)))
    lo = np.floor((v - b) / h).astype(np.int64)
    hi = np.ceil((v + b) / h).astype(np.int64)
    box = tuple(int(x) for x in (hi - lo))
    ext = np.maximum(np.abs(lo), np.abs(hi)) * h + np.abs(v) + h
    rho = BAND_RTOL * (ext @ np.abs(Q) @ ext)

    # sample coordinates relative to v, as the full-box loop computed them;
    # entry m * s + k of an axis is sample k of cell m
    sub = (np.arange(s) + 0.5) / s * h  # offsets from a cell's low corner
    axes = [
        (lo[i] * h + sub[:, None] + np.arange(box[i]) * h - v[i]).T.ravel()
        for i in range(dim)
    ]
    *fixed, t = axes
    last = dim - 1
    lines = tuple(x.size for x in fixed)
    mesh = np.ix_(*fixed)
    lb, lc = np.zeros(lines), np.zeros(lines)
    for i in range(last):
        lb = lb + 2 * Q[i, last] * mesh[i]
        for j in range(last):
            lc = lc + Q[i, j] * mesh[i] * mesh[j]
    lb, lc = lb.ravel(), lc.ravel()
    qa = Q[last, last]
    mid = -lb / (2 * qa)

    def roots(level):
        # first and stop of the samples with q <= level on each line
        disc = lb * lb - 4 * qa * (lc - level)
        w = np.sqrt(np.maximum(disc, 0.0)) / (2 * qa)
        first = np.searchsorted(t, mid - w, "left")
        return first, np.where(disc < 0, first, np.searchsorted(t, mid + w, "right"))

    out_first, out_stop = roots(1.0 + rho)
    in_first, in_stop = roots(1.0 - rho)

    # the undecided samples [out_first, in_first) and [in_stop, out_stop)
    starts = np.concatenate([out_first, in_stop])
    size = np.concatenate([in_first, out_stop]) - starts
    line = np.repeat(np.tile(np.arange(lb.size), 2), size)
    k = np.repeat(starts - np.cumsum(size) + size, size) + np.arange(size.sum())
    coords = [np.broadcast_to(x, lines).ravel()[line] for x in mesh] + [t[k]]
    inq = _quadratic_form(Q, coords) <= 1.0

    # each in-run [first, stop) of a line adds min(max(stop - m s, 0), s)
    # minus the same of first to cell m: a step pattern with four jumps
    row = np.ravel_multi_index(np.ix_(*[np.arange(n) // s for n in lines]), box[:-1])
    row = np.broadcast_to(row, lines).ravel()
    row = np.concatenate([row, row[line[inq]]])
    first = np.concatenate([in_first, k[inq]])
    stop = np.concatenate([in_stop, k[inq] + 1])
    width = box[-1] + 2
    q0, r0 = np.divmod(first, s)
    q1, r1 = np.divmod(stop, s)
    at = np.concatenate([q1, q1 + 1, q0, q0 + 1]) + np.tile(row * width, 4)
    jump = np.concatenate([r1 - s, -r1, s - r0, r0])
    diff = np.bincount(at, jump, minlength=math.prod(box[:-1]) * width)
    counts = np.cumsum(diff.reshape(box[:-1] + (width,)), axis=-1, dtype=np.int64)
    return counts[..., : box[-1]], lo


def _quadratic_form(Q, coords):
    """The per-sample expression: sum_ij Q_ij c_i c_j, in this order."""
    qf = np.zeros(coords[0].shape)
    for i in range(len(coords)):
        for j in range(len(coords)):
            qf += Q[i, j] * coords[i] * coords[j]
    return qf


def rasterize_affine_image(e, a, v, spacing, supersample=3):
    """Rasterize A(E) + v at the given spacing.

    Samples membership of A^-1 (y - v) in E on a supersample grid per
    output cell, with the majority rule of rasterize_ellipsoid.  A must be
    a finite dim x dim matrix with |det A| >= 1e-12 and v a finite vector
    of length dim (check_affine).
    """
    h = check_positive(spacing, "spacing")
    s = check_integer(supersample, "supersample", low=1)
    A, v = check_affine(a, np.ravel(v), e.dim)
    counts, lo = _affine_sample_counts(e, A, v, h, s)
    return VoxelSet.from_index(2 * counts >= s**e.dim, lo, h).tighten()


def _affine_sample_counts(e, A, v, h, s):
    """Samples in A(E) + v per cell of its bounding box, and the box's low
    corner index.

    Phase 1: every sample lies within h/2 of its cell center per axis, so
    its preimage lies within reach_j of the center's along E's axis j, a
    bound that carries a BAND_RTOL margin.  Those preimages therefore fall
    in the window of w_j = floor(2 reach_j / h_E) + 2 E-cells that starts
    at the cell of (center's preimage - reach_j), and a cell whose window
    is all occupied has all of its samples in, one whose window is empty
    has none (_uniform_windows).  Phase 2 runs the per-sample expression of
    the full-box loop on the remaining band cells, one sample slot at a
    time.
    """
    dim, he = e.dim, e.spacing
    Ainv = np.linalg.inv(A)
    # bounding box: hull of the transformed corners of E's bounding box
    ends = zip(e.origin_index * he, (e.origin_index + np.asarray(e.shape)) * he)
    corners = np.stack(np.meshgrid(*ends), axis=-1).reshape(-1, dim)
    img = corners @ A.T + v
    lo = np.floor(img.min(axis=0) / h).astype(np.int64)
    hi = np.ceil(img.max(axis=0) / h).astype(np.int64)
    box = tuple(int(x) for x in (hi - lo))

    ext = np.maximum(np.abs(lo), np.abs(hi)) * h + np.abs(v) + h
    reach = (np.abs(Ainv).sum(axis=1) * (h / 2) + BAND_RTOL * (np.abs(Ainv) @ ext)) / he
    w = np.floor(2 * reach).astype(np.int64) + 2
    # phase 1: the first cell of each cell's window, counted from E's box
    y = np.ix_(*[(lo[i] + np.arange(box[i]) + 0.5) * h - v[i] for i in range(dim)])
    full, band = _uniform_windows(e.occupancy, w, [
        np.floor(sum(Ainv[j, i] * y[i] for i in range(dim)) / he - reach[j]).astype(np.int64)
        - e.origin_index[j]
        for j in range(dim)
    ])

    # phase 2, in the arithmetic of the full-box loop; E gets a border of
    # empty cells so that clipping sends every point outside E's box to an
    # empty cell
    counts = np.where(full, s**dim, 0)
    cells = np.nonzero(band)
    n = cells[0].size
    hits = np.zeros(n, dtype=np.int64)
    sub = (np.arange(s) + 0.5) / s * h
    axes = [lo[i] * h + np.arange(box[i]) * h + sub[:, None] for i in range(dim)]
    border = np.pad(e.occupancy, 1)
    for combo in np.ndindex(*([s] * dim)):
        pts = np.stack([axes[i][combo[i]][cells[i]] for i in range(dim)], axis=-1)
        if n == 1 and counts.size > 1:
            # numpy hands a one-row product to gemv and longer ones to gemm,
            # whose roundings can differ; the full box always had many rows
            pts = np.vstack([pts, pts])
        x = (pts - v) @ Ainv.T
        idx = np.floor(x[:n] / he).astype(np.int64) - (e.origin_index - 1)
        hits += border.reshape(-1)[np.ravel_multi_index(idx.T, border.shape, mode="clip")]
    counts[cells] = hits
    return counts, lo


def _uniform_windows(occ, w, first):
    """Phase 1 of _affine_sample_counts: for each window [first, first + w)
    of occ's cells (first holds one index array per axis, overwritten
    here), whether all of its cells are occupied (full) and, if not,
    whether any is (band).

    Along an axis of n cells, a window wider than n + 1 is never full and
    meets occ in the cells that one n + 1 wide does, if that one starts at
    first when first >= 0 and otherwise ends where it ends, but not after
    cell n.  Capped so, no array exceeds 3 (n + 1) cells per axis for any
    map.  One cumulative sum per axis of occ padded by the width gives the
    sums of all windows that meet occ; a window outside is empty, as is the
    one at the nearest edge, to which it is clipped.
    """
    k = np.minimum(w, np.asarray(occ.shape) + 1)
    for f, cut, kj in zip(first, w - k, k):
        if cut:
            np.minimum(f + cut, np.maximum(f, -1), out=f)
        f += kj
    sums = np.pad(occ, [(kj + 1, kj) for kj in k])
    for ax, kj in enumerate(k):
        c = np.cumsum(sums, axis=ax, dtype=np.int32)
        at = (slice(None),) * ax
        sums = c[at + (slice(kj, None),)] - c[at + (slice(None, -kj),)]
    hits = sums.reshape(-1)[np.ravel_multi_index(first, sums.shape, mode="clip")]
    full = hits == math.prod(k)
    return full, ~full & (hits > 0)


# -- generators -----------------------------------------------------------


def generate(kind, params=None, seed=0):
    """Deterministic set generators for tests and sweeps.

    kind is one of 'ball', 'ellipsoid', 'blob', 'union_of_balls'.  params is
    a dict; common keys: dim (default 2), spacing (default 1/64),
    supersample (default 3).  Per kind:

    ball:           radius (1.0), center (0)
    ellipsoid:      shape (Q, or its dim^2 entries row by row) or axes
                    (semi-axis lengths), center
    blob:           radius (0.35), steps (6), step (0.4), center (0),
                    jitter (0.3): a union of balls along a random walk,
                    consecutive balls overlap so the result is connected
    union_of_balls: n (3), span (1.5), rmin (0.2), rmax (0.5)

    Each kind lists its bodies as (center, Q); the set is the union of
    their rasterizations.  The same (kind, params, seed) always produces
    the identical set.  Raises, naming the parameter, if center or axes is
    not dim numbers or shape not dim^2, if spacing or a radius, axis, step,
    span, rmin or rmax is not finite and positive, if dim, supersample,
    steps or n is not an integer (steps and n at least 1), if jitter lies
    outside [0, 1), or if the generated set is empty.
    """
    p = dict(params or {})
    dim = check_integer(p.pop("dim", 2), "dim")
    h = check_positive(p.pop("spacing", 1.0 / 64), "spacing")
    ss = check_integer(p.pop("supersample", 3), "supersample")
    rng = np.random.default_rng(seed)

    def numbers(name, size, default=0.0):
        # the parameter as a new flat float array of size numbers
        raw = p.pop(name, np.full(size, default))
        try:
            return np.array(raw, dtype=float).reshape(size)
        except (TypeError, ValueError):
            raise ValueError(f"{name} needs {size} numbers at dim {dim}, got {raw}") from None

    if kind == "ball":
        r = check_positive(p.pop("radius", 1.0), "radius")
        bodies = [(numbers("center", dim), np.eye(dim) / r**2)]
    elif kind == "ellipsoid":
        c = numbers("center", dim)
        if "shape" in p:  # Q, or its dim^2 entries row by row as the CLI passes them
            q = numbers("shape", dim * dim).reshape(dim, dim)
        else:
            axes = [check_positive(a, "axes") for a in numbers("axes", dim, 1.0)]
            q = np.diag(1.0 / np.array(axes) ** 2)
        bodies = [(c, q)]
    elif kind == "blob":
        r = check_positive(p.pop("radius", 0.35), "radius")
        steps = check_integer(p.pop("steps", 6), "steps", low=1)
        step = check_positive(p.pop("step", 0.4), "step")
        pos = numbers("center", dim)
        jitter = p.pop("jitter", 0.3)
        jit = _number(jitter)
        if not 0.0 <= jit < 1.0:  # a jitter of 1 or more can draw a radius <= 0
            raise ValueError(f"jitter must lie in [0, 1), got {jitter}")
        bodies = []
        for _ in range(steps):
            rr = r * (1.0 + jit * (rng.random() - 0.5) * 2)
            bodies.append((pos, np.eye(dim) / rr**2))
            d = rng.normal(size=dim)
            d /= max(np.linalg.norm(d), 1e-12)
            # keep the next ball overlapping the current one
            pos = pos + d * min(step, 1.6 * r) * rng.random()
    elif kind == "union_of_balls":
        n = check_integer(p.pop("n", 3), "n", low=1)
        span = check_positive(p.pop("span", 1.5), "span")
        rmin = check_positive(p.pop("rmin", 0.2), "rmin")
        rmax = check_positive(p.pop("rmax", 0.5), "rmax")
        bodies = []
        for _ in range(n):
            c = (rng.random(dim) - 0.5) * span
            rr = rmin + (rmax - rmin) * rng.random()
            bodies.append((c, np.eye(dim) / rr**2))
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    if p:
        raise ValueError(f"unknown params for {kind!r}: {sorted(p)}")

    out = None
    for c, q in bodies:
        body = rasterize_ellipsoid(Ellipsoid(c, q), h, ss)
        out = body if out is None else boolean(out, body, "union")
    if out.is_empty:
        raise ValueError(f"generated set is empty (kind={kind})")
    return out


# -- persistence ------------------------------------------------------------


def save(e, path):
    """Write the VXG1 binary format (bit-exact round trip with load)."""
    d = e.dim
    header = struct.pack(f"<BB{d}Id{d}d", VXG_VERSION, d, *e.shape, e.spacing, *e.origin.tolist())
    bits = np.packbits(e.occupancy.reshape(-1), bitorder="little")
    with open(path, "wb") as fh:
        fh.write(VXG_MAGIC + header + bits.tobytes())


def load(path):
    """Read a VXG1 file.

    Raises ValueError on bad magic, an unsupported version or dimension, a
    truncated file, an occupancy payload whose size does not match the
    shape (trailing bytes included), or invalid spacing or origin.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 6:
        raise ValueError("truncated VXG1 file (no header)")
    if data[:4] != VXG_MAGIC:
        raise ValueError(f"bad magic {data[:4]!r}, expected {VXG_MAGIC!r}")
    version, dim = data[4], data[5]
    if version != VXG_VERSION:
        raise ValueError(f"unsupported VXG version {version}")
    if dim not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    fmt = f"<{dim}Id{dim}d"  # shape, spacing, origin
    off = 6 + struct.calcsize(fmt)
    if len(data) < off:
        raise ValueError("truncated VXG1 file (incomplete header)")
    head = struct.unpack_from(fmt, data, 6)
    shape, spacing, origin = head[:dim], head[dim], head[dim + 1 :]
    ncells = math.prod(shape)
    nbytes = (ncells + 7) // 8
    if len(data) - off < nbytes:
        raise ValueError("truncated VXG1 file (incomplete occupancy)")
    if len(data) - off > nbytes:
        raise ValueError(
            f"VXG1 occupancy is {len(data) - off} bytes but shape {shape} "
            f"needs {nbytes} (trailing bytes or wrong shape)"
        )
    occ = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8, offset=off), count=ncells, bitorder="little"
    ).astype(bool)
    return VoxelSet(occ.reshape(shape), origin, spacing)
