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
each cell at s^dim points, s per axis at offsets (k + 1/2) h / s; a cell
is occupied when at least half of its samples are in the body (2 * in >=
s^dim), and a sample exactly on the boundary counts as in.  Only cells
the boundary can cross are sampled: a first pass proves, from one value
per cell and a bound on how far that value can move within the cell,
that all samples are in or all are out, with a margin far above rounding
error; the remaining boundary band runs the per-sample test.  The result
is the same cell for cell as sampling every cell of the bounding box.
"""

import io
import math
import struct
from types import SimpleNamespace

import numpy as np

VXG_MAGIC = b"VXG1"
VXG_VERSION = 1

# relative slack used when checking that physical data sits on the lattice
ALIGN_RTOL = 1e-9


def _spacing(spacing):
    h = float(spacing)
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"spacing must be finite and positive, got {spacing}")
    return h


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
    h = _spacing(spacing)
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
        self = object.__new__(cls)
        self._set(*_validated(occupancy, origin_index, spacing))
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
        loc = self.local_indices()
        lo = loc.min(axis=0)
        hi = loc.max(axis=0) + 1
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
        e1 = sets[0]
        for e in sets:
            if e.dim != e1.dim:
                raise ValueError("triple members must share the dimension")
            if not e.same_grid(e1):
                raise ValueError("triple members must share the grid spacing")
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

    @property
    def max_measure(self):
        return max(self.measures)

    def __iter__(self):
        return iter(self._sets)

    def __getitem__(self, j):
        return self._sets[j]

    def __repr__(self):
        m = ", ".join(f"{x:.4g}" for x in self.measures)
        return f"SetTriple(dim={self.dim}, measures=({m}))"


class AffineMapTriple:
    """A shared invertible linear map with three translations summing to zero."""

    __slots__ = ("linear", "translations")

    SUM_TOL = 1e-12

    def __init__(self, linear, translations):
        A = np.asarray(linear, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("linear part must be a square matrix")
        if abs(np.linalg.det(A)) < 1e-12:
            raise ValueError("linear part must be invertible")
        V = np.asarray(translations, dtype=float)
        if V.shape != (3, A.shape[0]):
            raise ValueError("translations must be three vectors of matching length")
        if np.max(np.abs(V.sum(axis=0))) > self.SUM_TOL:
            raise ValueError("translations must sum to zero")
        A.setflags(write=False)
        V.setflags(write=False)
        self.linear = A
        self.translations = V

    def apply(self, triple, spacing=None, supersample=3):
        """Rasterize (A E_j + v_j) for each member of the triple."""
        h = triple.spacing if spacing is None else spacing
        out = [
            rasterize_affine_image(e, self.linear, v, h, supersample)
            for e, v in zip(triple, self.translations)
        ]
        return SetTriple(out)


# -- exact set algebra ----------------------------------------------------


def measure(e):
    """Lebesgue measure of a VoxelSet (count times h^dim)."""
    return e.measure


def _check_aligned(e, f):
    if e.dim != f.dim:
        raise ValueError("sets have different dimensions")
    if not e.same_grid(f):
        raise ValueError(
            f"sets live on mismatched grids (h={e.spacing} vs h={f.spacing})"
        )


def _embed_pair(e, f):
    """Embed two aligned sets in their common bounding box; exact in counts."""
    lo = np.minimum(e.origin_index, f.origin_index)
    hi = np.maximum(
        e.origin_index + np.asarray(e.shape), f.origin_index + np.asarray(f.shape)
    )
    box = tuple(int(x) for x in (hi - lo))
    a = np.zeros(box, dtype=bool)
    b = np.zeros(box, dtype=bool)
    sa = tuple(
        slice(int(o), int(o) + n)
        for o, n in zip(e.origin_index - lo, e.shape)
    )
    sb = tuple(
        slice(int(o), int(o) + n)
        for o, n in zip(f.origin_index - lo, f.shape)
    )
    a[sa] = e.occupancy
    b[sb] = f.occupancy
    return a, b, lo


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
    off = np.asarray(offset, dtype=np.int64).reshape(-1)
    if off.size != e.dim:
        raise ValueError("offset length must equal dim")
    return VoxelSet.from_index(e.occupancy, e.origin_index + off, e.spacing)


def permute_axes(e, perm):
    """Reorder coordinate axes (used to interchange the roles of axes)."""
    perm = tuple(int(p) for p in perm)
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
    m = int(m)
    if m < 1:
        raise ValueError("upscale factor must be >= 1")
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

# Phase 1 decides a cell only when its margin beats this multiple of the
# magnitude of the terms the per-sample test sums; the rounding error of
# that test is below 1e-14 of the same magnitude.
BAND_RTOL = 1e-9


def _subsample_offsets(spacing, supersample):
    """Per-axis subsample offsets relative to the cell's low corner."""
    s = int(supersample)
    if s < 1:
        raise ValueError("supersample must be >= 1")
    return (np.arange(s) + 0.5) / s * spacing


def _shape_matrix_checked(q, dim):
    """Symmetrized Q and its largest eigenvalue; raises unless Q is SPD."""
    Q = np.asarray(q, dtype=float)
    if Q.shape != (dim, dim):
        raise ValueError("shape matrix has wrong dimensions")
    if np.max(np.abs(Q - Q.T)) > 1e-9 * max(1.0, np.max(np.abs(Q))):
        raise ValueError("shape matrix must be symmetric")
    w = np.linalg.eigvalsh((Q + Q.T) / 2)
    if w.min() <= 0:
        raise ValueError("shape matrix must be positive definite")
    return (Q + Q.T) / 2, w.max()


def _band_vote(inside, band, s, member):
    """Phase 2 of both rasterizers: the supersample vote on the band cells.

    `inside` marks the cells phase 1 proved full and is completed in place;
    `band` marks the undecided cells.  member(combo, cells) returns, for
    the sample slot `combo` (one subsample index per axis), whether that
    sample of each band cell (`cells`, per-axis local indices) is in the
    body.  A cell is occupied when 2 * (samples in) >= s^dim.
    """
    cells = np.nonzero(band)
    if cells[0].size:
        counts = np.zeros(cells[0].size, dtype=np.int32)
        for combo in np.ndindex(*([s] * band.ndim)):
            counts += member(combo, cells)
        inside[cells] = 2 * counts >= s**band.ndim
    return inside


def rasterize_ellipsoid(e, spacing, supersample=3):
    """Rasterize the ellipsoid {x : (x-v)^T Q (x-v) <= 1}.

    A cell is occupied when at least half of its supersample^dim sample
    points satisfy the inequality; supersample=1 is the center-in-set rule.
    `e` is any object with attributes `center` and `shape` (the matrix Q).

    Returns a VoxelSet of the given spacing.
    """
    h = _spacing(spacing)
    v = np.asarray(e.center, dtype=float).reshape(-1)
    dim = v.size
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2, or 3, got a center of length {dim}")
    Q, lam = _shape_matrix_checked(e.shape, dim)
    # axis-aligned bounding half-widths: sqrt(diag(Q^-1))
    b = np.sqrt(np.diag(np.linalg.inv(Q)))
    lo = np.floor((v - b) / h).astype(np.int64)
    hi = np.ceil((v + b) / h).astype(np.int64)
    box = tuple(int(x) for x in (hi - lo))
    s = int(supersample)

    # phase 1: q at the cell center c moves by at most
    # h*|Q c|_1 + lam_max*dim*h^2/4 over the cell's samples
    c = np.ix_(*[(lo[i] + np.arange(box[i]) + 0.5) * h - v[i] for i in range(dim)])
    grad = [sum(Q[i, j] * c[j] for j in range(dim)) for i in range(dim)]
    qc = sum(c[i] * grad[i] for i in range(dim))
    ext = np.maximum(np.abs(lo), np.abs(hi)) * h + np.abs(v) + h
    reach = h * sum(np.abs(g) for g in grad) + (
        lam * dim * h * h / 4 + BAND_RTOL * (ext @ np.abs(Q) @ ext)
    )
    inside = qc + reach < 1.0
    band = ~inside & (qc - reach <= 1.0)

    # phase 2: the per-sample test, in the arithmetic of the full-box loop
    # that phase 1 replaced (coordinates, then sum_ij Q_ij c_i c_j in order)
    axes = [
        lo[i] * h + _subsample_offsets(h, s)[:, None] + np.arange(box[i]) * h - v[i]
        for i in range(dim)
    ]

    def member(combo, cells):
        coords = [axes[i][combo[i]][cells[i]] for i in range(dim)]
        qf = np.zeros(cells[0].size)
        for i in range(dim):
            for j in range(dim):
                qf += Q[i, j] * coords[i] * coords[j]
        return qf <= 1.0

    occ = _band_vote(inside, band, s, member)
    return VoxelSet.from_index(occ, lo, h).tighten()


def _window_counts(e, lo, hi):
    """Occupied cells of E in the boxes [lo, hi) of local indices.

    lo and hi are per-axis integer arrays (broadcast together), clipped to
    E's box; the count comes from an exclusive prefix sum over E.
    """
    dim = e.dim
    pre = np.pad(e.occupancy.astype(np.int64), [(1, 0)] * dim)
    for ax in range(dim):
        np.cumsum(pre, axis=ax, out=pre)
    flat = pre.reshape(-1)
    stride = np.asarray(pre.strides) // pre.itemsize
    ends = [
        [np.clip(b[j], 0, e.shape[j]) * stride[j] for b in (lo, hi)]
        for j in range(dim)
    ]
    total = 0
    for corner in np.ndindex(*([2] * dim)):
        sign = -1 if (dim - sum(corner)) % 2 else 1
        total = total + sign * flat[sum(ends[j][corner[j]] for j in range(dim))]
    return total


def rasterize_affine_image(e, a, v, spacing, supersample=3):
    """Rasterize A(E) + v at the given spacing.

    Positive integer diagonal A with lattice-aligned v and unchanged spacing
    is carried out by exact cell replication; anything else samples
    membership of A^-1 (y - v) in E on a supersample grid per output cell,
    with the majority rule of rasterize_ellipsoid.
    """
    h = _spacing(spacing)
    A = np.asarray(a, dtype=float)
    if A.shape != (e.dim, e.dim):
        raise ValueError("linear map has wrong dimensions")
    det = np.linalg.det(A)
    if abs(det) < 1e-12:
        raise ValueError("singular linear map")
    v = np.asarray(v, dtype=float).reshape(-1)

    diag = np.diag(np.diag(A))
    mi = np.rint(np.diag(A)).astype(np.int64)
    voff = np.rint(v / h)
    if (
        np.array_equal(A, diag)
        and np.all(mi >= 1)
        and np.all(np.abs(np.diag(A) - mi) == 0)
        and abs(h - e.spacing) <= ALIGN_RTOL * h
        and np.all(np.abs(voff * h - v) <= ALIGN_RTOL * h)
    ):
        # exact path: cell g maps to the block of prod(m_i) cells at m*g
        occ = e.occupancy
        for ax in range(e.dim):
            occ = np.repeat(occ, int(mi[ax]), axis=ax)
        new_origin = e.origin_index * mi + voff.astype(np.int64)
        return VoxelSet.from_index(occ, new_origin, h)

    dim = e.dim
    Ainv = np.linalg.inv(A)
    # bounding box: hull of the transformed corners of E's bounding box
    lo_phys = e.origin_index * e.spacing
    hi_phys = (e.origin_index + np.asarray(e.shape)) * e.spacing
    corners = np.array(
        [
            [lo_phys[i] if (k >> i) & 1 == 0 else hi_phys[i] for i in range(dim)]
            for k in range(2**dim)
        ]
    )
    img = corners @ A.T + v
    lo = np.floor(img.min(axis=0) / h).astype(np.int64)
    hi = np.ceil(img.max(axis=0) / h).astype(np.int64)
    box = tuple(int(x) for x in (hi - lo))
    s = int(supersample)

    # phase 1: every sample lies within h/2 of its cell center per axis, so
    # its preimage lies within reach_j of the center's along E's axis j; the
    # cell is decided when the E-cells in that window are all occupied or
    # all empty
    he = e.spacing
    ext = np.maximum(np.abs(lo), np.abs(hi)) * h + np.abs(v) + h
    reach = np.abs(Ainv).sum(axis=1) * (h / 2) + BAND_RTOL * (np.abs(Ainv) @ ext)
    y = np.ix_(*[(lo[i] + np.arange(box[i]) + 0.5) * h - v[i] for i in range(dim)])
    first, stop = [], []
    for j in range(dim):
        t = sum(Ainv[j, i] * y[i] for i in range(dim)) / he
        first.append(np.floor(t - reach[j] / he).astype(np.int64) - e.origin_index[j])
        stop.append(np.floor(t + reach[j] / he).astype(np.int64) + 1 - e.origin_index[j])
    hits = _window_counts(e, first, stop)
    inside = hits == math.prod(b - a for a, b in zip(first, stop))
    band = ~inside & (hits > 0)

    # phase 2: the per-sample test, in the arithmetic of the full-box loop
    # that phase 1 replaced; E gets a border of empty cells so that clipping
    # sends every point outside E's box to an empty cell
    sub = _subsample_offsets(h, s)
    axes = [lo[i] * h + np.arange(box[i]) * h + sub[:, None] for i in range(dim)]
    single = int(np.prod(box)) == 1
    border = np.pad(e.occupancy, 1)
    stride = np.asarray(border.strides) // border.itemsize
    last = np.asarray(border.shape) - 1
    border = border.reshape(-1)

    def member(combo, cells):
        pts = np.stack([axes[i][combo[i]][cells[i]] for i in range(dim)], axis=-1)
        n = len(pts)
        if n == 1 and not single:
            # numpy hands a one-row product to gemv and longer ones to gemm,
            # whose roundings can differ; the full box always had many rows
            pts = np.vstack([pts, pts])
        x = (pts - v) @ Ainv.T
        idx = np.floor(x[:n] / he).astype(np.int64)
        idx -= e.origin_index - 1
        np.clip(idx, 0, last, out=idx)
        return border[idx @ stride]

    occ = _band_vote(inside, band, s, member)
    return VoxelSet.from_index(occ, lo, h).tighten()


# -- generators -----------------------------------------------------------


def _ellipsoid_like(center, q):
    return SimpleNamespace(center=np.asarray(center, float), shape=np.asarray(q, float))


def generate(kind, params=None, seed=0):
    """Deterministic set generators for tests and sweeps.

    kind is one of 'ball', 'ellipsoid', 'blob', 'union_of_balls'.  params is
    a dict; common keys: dim (default 2), spacing (default 1/64),
    supersample (default 3).  Per kind:

    ball:           radius (1.0), center (0)
    ellipsoid:      shape (matrix Q) or axes (semi-axis lengths), center
    blob:           radius (0.35), steps (6), step (0.4), center (0),
                    jitter (0.3): a union of balls along a random walk,
                    consecutive balls overlap so the result is connected
    union_of_balls: n (3), span (1.5), rmin (0.2), rmax (0.5)

    The same (kind, params, seed) always produces the identical set.
    Raises if the generated set is empty.
    """
    p = dict(params or {})
    dim = int(p.pop("dim", 2))
    h = float(p.pop("spacing", 1.0 / 64))
    ss = int(p.pop("supersample", 3))
    rng = np.random.default_rng(seed)

    if kind == "ball":
        r = float(p.pop("radius", 1.0))
        c = np.asarray(p.pop("center", np.zeros(dim)), dtype=float)
        _reject_extra(kind, p)
        out = rasterize_ellipsoid(_ellipsoid_like(c, np.eye(dim) / r**2), h, ss)
    elif kind == "ellipsoid":
        c = np.asarray(p.pop("center", np.zeros(dim)), dtype=float)
        if "shape" in p:
            q = np.asarray(p.pop("shape"), dtype=float)
        else:
            axes = np.asarray(p.pop("axes", np.ones(dim)), dtype=float)
            q = np.diag(1.0 / axes**2)
        _reject_extra(kind, p)
        out = rasterize_ellipsoid(_ellipsoid_like(c, q), h, ss)
    elif kind == "blob":
        r = float(p.pop("radius", 0.35))
        steps = int(p.pop("steps", 6))
        step = float(p.pop("step", 0.4))
        c = np.asarray(p.pop("center", np.zeros(dim)), dtype=float)
        jit = float(p.pop("jitter", 0.3))
        _reject_extra(kind, p)
        pos = c.copy()
        out = None
        for _ in range(steps):
            rr = r * (1.0 + jit * (rng.random() - 0.5) * 2)
            ball = rasterize_ellipsoid(_ellipsoid_like(pos, np.eye(dim) / rr**2), h, ss)
            out = ball if out is None else boolean(out, ball, "union")
            d = rng.normal(size=dim)
            d /= max(np.linalg.norm(d), 1e-12)
            # keep the next ball overlapping the current one
            pos = pos + d * min(step, 1.6 * r) * rng.random()
    elif kind == "union_of_balls":
        n = int(p.pop("n", 3))
        span = float(p.pop("span", 1.5))
        rmin = float(p.pop("rmin", 0.2))
        rmax = float(p.pop("rmax", 0.5))
        _reject_extra(kind, p)
        out = None
        for _ in range(n):
            c = (rng.random(dim) - 0.5) * span
            rr = rmin + (rmax - rmin) * rng.random()
            ball = rasterize_ellipsoid(_ellipsoid_like(c, np.eye(dim) / rr**2), h, ss)
            out = ball if out is None else boolean(out, ball, "union")
    else:
        raise ValueError(f"unknown generator kind {kind!r}")

    if out is None or out.is_empty:
        raise ValueError(f"generated set is empty (kind={kind})")
    return out


def _reject_extra(kind, p):
    if p:
        raise ValueError(f"unknown params for {kind!r}: {sorted(p)}")


# -- persistence ------------------------------------------------------------


def save(e, path):
    """Write the VXG1 binary format (bit-exact round trip with load)."""
    buf = io.BytesIO()
    buf.write(VXG_MAGIC)
    buf.write(struct.pack("<BB", VXG_VERSION, e.dim))
    for n in e.shape:
        buf.write(struct.pack("<I", n))
    buf.write(struct.pack("<d", e.spacing))
    for x in e.origin:
        buf.write(struct.pack("<d", float(x)))
    bits = np.packbits(e.occupancy.reshape(-1), bitorder="little")
    buf.write(bits.tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


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
    off = 6
    need = 4 * dim + 8 + 8 * dim
    if len(data) < off + need:
        raise ValueError("truncated VXG1 file (incomplete header)")
    shape = struct.unpack_from(f"<{dim}I", data, off)
    off += 4 * dim
    (spacing,) = struct.unpack_from("<d", data, off)
    off += 8
    origin = struct.unpack_from(f"<{dim}d", data, off)
    off += 8 * dim
    ncells = 1
    for n in shape:
        ncells *= n
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
