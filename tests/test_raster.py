"""The band-pruned rasterizers against the full-box reference loops.

Both kernels must return the identical VoxelSet (origin, shape and every
cell) as sampling all s^d points of every cell in the bounding box.
"""

import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from rieszvox import (
    Ellipsoid,
    VoxelSet,
    generate,
    rasterize_affine_image,
    rasterize_ellipsoid,
    translate_cells,
)
from rieszvox import grid, sweep
from conftest import random_voxel_set
from reference_raster import (
    affine_sample_counts,
    ellipsoid_sample_counts,
    reference_affine_image,
    reference_ellipsoid,
)

SUPERSAMPLES = (1, 2, 3, 5)


def assert_identical(got, want):
    assert got.spacing == want.spacing
    assert np.array_equal(got.origin_index, want.origin_index)
    assert got.shape == want.shape
    assert np.array_equal(got.occupancy, want.occupancy)


def _ellipsoid(center, q):
    return SimpleNamespace(center=np.asarray(center, float), shape=np.asarray(q, float))


def _rotated_q(rng, dim):
    rot = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    axes = rng.uniform(0.15, 0.6, dim)
    return rot @ np.diag(1.0 / axes**2) @ rot.T


def ellipsoid_corpus():
    rng = np.random.default_rng(2015)
    cases = []
    for dim in (1, 2, 3):
        for s in SUPERSAMPLES:
            for _ in range(4 if dim < 3 else 2):
                h = 1.0 / rng.choice([8, 12, 16])
                center = rng.normal(size=dim) * 0.4  # off-lattice
                cases.append((dim, s, h, center, _rotated_q(rng, dim)))
            # axis-aligned anisotropic, centered on a lattice corner
            q = np.diag(1.0 / rng.uniform(0.2, 0.5, dim) ** 2)
            cases.append((dim, s, 1.0 / 16, np.zeros(dim), q))
            # a needle or sheet thinner than a cell, where curvature within
            # the cell decides
            thin = np.full(dim, 0.4)
            thin[-1] = rng.uniform(0.02, 0.08)
            cases.append((dim, s, 1.0 / 8, rng.normal(size=dim) * 0.1, np.diag(thin**-2.0)))
    return cases


def tie_corpus():
    """Balls whose boundary passes exactly through sample points.

    With dyadic h, s in {1, 2} and the center at h/(2s) per axis, every
    sample coordinate relative to the center is an exact multiple of h/s,
    so radius r = 0.5 = 8h (h = 1/16) puts samples at qf == 1 exactly.
    The last cases put a sample within rounding error of the boundary,
    where a root computed without a margin can disagree with qf.
    """
    cases = []
    for dim in (1, 2, 3):
        for s in (1, 2):
            h = 1.0 / 16
            center = np.full(dim, h / (2 * s))
            cases.append((dim, s, h, center, np.eye(dim) / 0.5**2))
            # r = 5h in 2-D and 3-D also meets the samples at (3h, 4h)
            cases.append((dim, s, h, center, np.eye(dim) / (5 * h) ** 2))
    # at h = 0.1 nothing is exact: a ball through the sample c = (m + 1/(2s)) h
    # per axis, with Q = I / (c . c) in floats, puts q within rounding of 1
    for dim, s, m in ((1, 2, 9), (2, 2, 3), (3, 1, 3), (3, 2, 7)):
        c = np.full(dim, (m + 0.5 / s) * 0.1)
        cases.append((dim, s, 0.1, np.zeros(dim), np.eye(dim) / float(c @ c)))
    return cases


@pytest.mark.parametrize("dim,s,h,center,q", ellipsoid_corpus() + tie_corpus())
def test_ellipsoid_matches_reference(dim, s, h, center, q):
    e = _ellipsoid(center, q)
    assert_identical(rasterize_ellipsoid(e, h, s), reference_ellipsoid(e, h, s))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exact_tie_counts_as_in(dim):
    # s = 1 samples the cell center; cell (8, 0, ...) has its center at
    # distance exactly r = 0.5 from the ball's center, so qf == 1.0
    h = 1.0 / 16
    e = _ellipsoid(np.full(dim, h / 2), np.eye(dim) / 0.5**2)
    cells = set(map(tuple, rasterize_ellipsoid(e, h, 1).global_indices()))
    assert (8,) + (0,) * (dim - 1) in cells
    assert (9,) + (0,) * (dim - 1) not in cells


def _blob(dim, seed, h):
    return generate(
        "blob", {"dim": dim, "spacing": h, "radius": 0.3, "steps": 3}, seed=seed
    )


def affine_corpus():
    rng = np.random.default_rng(1506)
    cases = []
    for dim in (1, 2, 3):
        h = 1.0 / 16 if dim < 3 else 1.0 / 10
        for s in SUPERSAMPLES:
            if dim == 3 and s == 5:
                h = 1.0 / 8
            shear = np.eye(dim)
            shear[0, dim - 1] += rng.uniform(0.05, 0.6)
            rand = np.eye(dim) + rng.normal(size=(dim, dim)) * 0.35
            for k, a in enumerate((shear, rand)):
                v = rng.normal(size=dim) * 0.2
                out_h = h * (1.0, 0.75, 1.5)[k + (s % 2)]  # also other spacings
                cases.append((dim, s, _blob(dim, 10 * s + k, h), a, v, out_h))
    return cases


def near_singular_corpus():
    """Maps whose inverse is large: each sample window spans many E-cells."""
    h = 1.0 / 16
    cases = []
    for dim, a in (
        (1, [[0.03]]),
        (2, [[1.0, 0.0], [0.0, 0.04]]),
        (2, [[1.0, 1.0], [1.0, 1.02]]),
        (3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.9], [0.0, 0.9, 0.82]]),
    ):
        e = _blob(dim, 3, h if dim < 3 else 1.0 / 8)
        cases.append((dim, 3, e, np.asarray(a), np.full(dim, 0.05), e.spacing))
    return cases


def single_band_cell_case():
    # a tiny set under a near-identity map whose boundary band is one cell
    occ = np.array([[0, 0], [0, 1]], dtype=bool)
    e = VoxelSet.from_index(occ, [-2, 2], 1.0 / 8)
    a = [[0.993926728884959, -0.01152156679261602],
         [-0.002918569453607725, 1.0926662853921]]
    v = [0.21599804697790123, -0.05248264370136562]
    return (2, 1, e, np.asarray(a), np.asarray(v), 0.25)


def gemv_band_cases():
    """d=3 maps whose one band cell's sample preimage lies within an ulp of
    the low x-face of E's one occupied cell.  Under OpenBLAS 0.3.31's
    Haswell kernels a one-row product (gemv) rounds it to the other side of
    the face than the full box's gemm does."""
    occ = np.zeros((3, 3, 3), dtype=bool)
    occ[1, 1, 1] = True
    e = VoxelSet.from_index(occ, [-1, -1, -1], 1.0 / 8)
    maps = [
        ([[0.968976255009003, 0.024492102509259914, 0.01784435040800304],
          [0.005270712449894928, 0.9534765977645898, -0.0014625911231636746],
          [0.03476515972291439, -0.0672107273642541, 0.9771192119479891]],
         [0.12235397169267107, 0.06549912458491086, 0.06813071971351656]),
        ([[0.9730653552076681, -0.0024250472700535993, 0.005665449300165378],
          [-0.07650678827526969, 0.9761123361983035, -0.04892595390283198],
          [-0.04044186197127997, 0.053044931169303935, 0.9596232662334052]],
         [0.12479747487311801, 0.06705085110653303, 0.061708237662330676]),
    ]
    return [(3, 1, e, np.asarray(a), np.asarray(v), 0.25) for a, v in maps]


def uncovered_affine_corpus():
    """Cases the blob corpus lacks: maps that reverse orientation or permute
    the axes (so that A^-1[-1, -1] == 0), random sets with holes, shifts of
    several units, a one-cell output box, and maps that contract so strongly
    that a cell's window is wider than E."""
    rng = np.random.default_rng(1507)
    cases = []
    for dim in (1, 2, 3):
        h = 1.0 / 12 if dim < 3 else 1.0 / 8
        blob = _blob(dim, 7, h)
        flip = np.eye(dim)
        flip[0, 0] = -1.0
        reverse = np.eye(dim)[::-1] * rng.uniform(0.7, 1.3, dim)
        holes = random_voxel_set(dim, rng, cells=8 if dim < 3 else 5, spacing=h)
        rand = np.eye(dim) + rng.normal(size=(dim, dim)) * 0.35
        far = rng.integers(-5, 6, dim) + rng.normal(size=dim) * 0.1
        one = VoxelSet.from_index(np.ones((1,) * dim, bool), np.zeros(dim, int), 1.0 / 8)
        thin = np.eye(dim)
        thin[-1, 0] += 0.5
        thin[0, 0] = 0.02
        cases += [
            (dim, 3, blob, flip, rng.normal(size=dim) * 0.2, h),
            (dim, 2, blob, reverse @ (np.eye(dim) + np.triu(np.ones((dim, dim)), 1) * 0.3),
             rng.normal(size=dim) * 0.2, h * 1.25),
            (dim, 3, holes, rand, rng.normal(size=dim) * 0.2, h),
            (dim, 2, holes, np.eye(dim)[::-1], np.zeros(dim), h),
            (dim, 3, blob, rand, far, h * 0.75),
            (dim, 3, one, np.eye(dim) * 0.5, np.full(dim, 0.01), 1.0 / 8),
            (dim, 3, blob, np.eye(dim) * 1e-3, np.full(dim, h / 2), h),
            (dim, 3, holes, thin, rng.normal(size=dim) * 0.2, h),
        ]
    return cases


UNCOVERED = uncovered_affine_corpus()
GEMV_BANDS = gemv_band_cases()
AFFINE_CORPUS = (
    affine_corpus() + near_singular_corpus() + [single_band_cell_case()] + UNCOVERED + GEMV_BANDS
)


@pytest.mark.parametrize("dim,s,e,a,v,h", AFFINE_CORPUS)
def test_affine_matches_reference(dim, s, e, a, v, h):
    assert_identical(
        rasterize_affine_image(e, a, v, h, s), reference_affine_image(e, a, v, h, s)
    )


def test_uncovered_cases_are_what_they_claim():
    assert any(np.linalg.det(a) < 0 for _, _, _, a, _, _ in UNCOVERED)
    assert any(np.linalg.inv(a)[-1, -1] == 0 for d, _, _, a, _, _ in UNCOVERED if d > 1)
    assert any(np.max(np.abs(v)) > 3 for _, _, _, _, v, _ in UNCOVERED)
    assert any(affine_sample_counts(e, a, v, h, s)[0].size == 1 for _, s, e, a, v, h in UNCOVERED)
    assert any(
        np.any(np.abs(np.linalg.inv(a)).sum(axis=1) * h / e.spacing > e.shape)
        and np.any(affine_sample_counts(e, a, v, h, s)[0] > 0)
        for _, s, e, a, v, h in UNCOVERED
    )


@pytest.mark.parametrize("dim,s,e,a,v,h", AFFINE_CORPUS)
def test_affine_sample_counts_equal_reference(dim, s, e, a, v, h):
    # stricter than the vote: every cell's number of samples in the image
    got, lo, _ = grid._affine_sample_counts(e, np.asarray(a, float), np.asarray(v, float), h, s)
    want, want_lo, _ = affine_sample_counts(e, a, v, h, s)
    assert np.array_equal(lo, want_lo)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_integer_diagonal_replicates_like_sampling(dim):
    # an integer diagonal map on E's own grid, shifted by whole cells, sends
    # cell g to the block of prod(m) cells at m * g + v; each sample's
    # preimage lies strictly inside one cell of E, so sampling replicates
    h = 1.0 / 16
    e = _blob(dim, 5, h)
    m = np.array([2, 3, 1][:dim])
    v = np.array([3, -2, 1][:dim])
    a = np.diag(m.astype(float))
    got = rasterize_affine_image(e, a, v * h, h, 3)
    assert_identical(got, reference_affine_image(e, a, v * h, h, 3))
    occ = e.occupancy
    for ax in range(dim):
        occ = np.repeat(occ, m[ax], axis=ax)
    assert_identical(got, VoxelSet.from_index(occ, e.origin_index * m + v, h).tighten())


@pytest.fixture
def phase1(monkeypatch):
    """Records (full, band) of each affine phase 1."""
    seen = []
    real = grid._uniform_windows

    def spy(occ, w, first):
        full, band = real(occ, w, first)
        seen.append((full.copy(), band.copy()))
        return full, band

    monkeypatch.setattr(grid, "_uniform_windows", spy)
    return seen


@pytest.fixture
def kernels(monkeypatch):
    """Names the box kernels called: the affine and the ellipsoid counts."""
    seen = []

    def spy(name, real):
        def call(*args):
            seen.append(name)
            return real(*args)

        return call

    for name in ("_affine_sample_counts", "_ellipsoid_sample_counts"):
        monkeypatch.setattr(grid, name, spy(name, getattr(grid, name)))
    return seen


@pytest.fixture
def exact_samples(monkeypatch):
    """Records how many samples each call of the per-sample expression takes."""
    seen = []
    real = grid._quadratic_form

    def spy(Q, coords):
        seen.append(coords[0].size)
        return real(Q, coords)

    monkeypatch.setattr(grid, "_quadratic_form", spy)
    return seen


def assert_phase1_sound(phase1, counts, s):
    # every cell phase 1 decides has all of its samples in, or none
    ((full, band),) = phase1
    assert full.shape == counts.shape
    assert np.all(counts[full] == s**counts.ndim)
    assert np.all(counts[~full & ~band] == 0)


def assert_counts_equal_reference(dim, s, h, center, q):
    # stricter than the vote: every cell's number of samples in the body
    e = Ellipsoid(center, q)
    got, lo, _ = grid._ellipsoid_sample_counts(e, h, s)
    want, want_lo, _ = ellipsoid_sample_counts(e, h, s)
    assert np.array_equal(lo, want_lo)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim,s,h,center,q", ellipsoid_corpus() + tie_corpus())
def test_ellipsoid_sample_counts_equal_reference(dim, s, h, center, q):
    assert_counts_equal_reference(dim, s, h, center, q)


@seed(2016)
@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 5),
    st.sampled_from([6, 8, 10, 12]),
    st.integers(0, 2**32 - 1),
)
def test_ellipsoid_sample_counts_on_random_ellipsoids(dim, s, n, rng_seed):
    # rotated Q with uneven axes, centers off the lattice and off the samples
    rng = np.random.default_rng(rng_seed)
    center = rng.uniform(-0.5, 0.5, dim)
    assert_counts_equal_reference(dim, s, 1.0 / n, center, _rotated_q(rng, dim))


@pytest.mark.parametrize(
    "dim,s,h,center,q", [c for c in ellipsoid_corpus() + tie_corpus() if c[1] > 1]
)
def test_ellipsoid_phase1_decides_only_uniform_cells(monkeypatch, dim, s, h, center, q):
    # the roots are the ellipsoid's phase 1: they decide a sample only as the
    # per-sample expression would.  With every undecided sample forced out,
    # then in, the counts bracket the exact ones, and a cell whose samples
    # the roots decide alone (both counts agree) gets the exact count.
    e = Ellipsoid(center, q)
    want = ellipsoid_sample_counts(e, h, s)[0]
    work = grid._ellipsoid_sample_counts(e, h, s)[2]
    bounds = []
    for forced in (np.inf, -np.inf):
        monkeypatch.setattr(
            grid, "_quadratic_form", lambda Q, coords, f=forced: np.full(coords[0].shape, f)
        )
        bounds.append(grid._ellipsoid_sample_counts(e, h, s)[0])
    low, high = bounds
    assert np.all(low <= want) and np.all(want <= high)
    decided = low == high
    assert np.array_equal(low[decided], want[decided])
    # the kernel's band cells are the cells the two bounds disagree on
    assert work["band_cells"] == np.count_nonzero(low != high)


@pytest.mark.parametrize("dim,s,h,center,q", tie_corpus())
def test_exact_ties_take_the_per_sample_expression(exact_samples, dim, s, h, center, q):
    # a sample with q == 1 lies within rho of the level, so no root decides it
    rasterize_ellipsoid(Ellipsoid(center, q), h, s)
    (n,) = exact_samples
    assert n > 0
    # the kernel reports the samples it sent to the per-sample expression
    assert grid._ellipsoid_sample_counts(Ellipsoid(center, q), h, s)[2]["undecided_samples"] == n


@seed(2017)
@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from([0.6, 1.0, 1.4]),
    st.sampled_from([1.0, 0.02]),
    st.integers(0, 2**32 - 1),
)
def test_affine_sample_counts_on_random_maps(dim, s, scale, thin, rng_seed):
    # random sets with holes under random maps of either orientation, at
    # output spacings finer and coarser than E's; a thin first row makes
    # windows wider than E that start left of it, inside it or far left
    rng = np.random.default_rng(rng_seed)
    e = random_voxel_set(dim, rng, cells=7 if dim < 3 else 4)
    a = rng.normal(size=(dim, dim))
    assume(abs(np.linalg.det(a)) > 0.1)
    a[0] *= thin
    v = rng.normal(size=dim)
    got, lo, _ = grid._affine_sample_counts(e, a, v, e.spacing * scale, s)
    want, want_lo, _ = affine_sample_counts(e, a, v, e.spacing * scale, s)
    assert np.array_equal(lo, want_lo)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim,s,e,a,v,h", [c for c in AFFINE_CORPUS if c[1] > 1])
def test_affine_phase1_decides_only_uniform_cells(phase1, dim, s, e, a, v, h):
    rasterize_affine_image(e, a, v, h, s)
    assert_phase1_sound(phase1, affine_sample_counts(e, a, v, h, s)[0], s)
    # the kernel reports phase 1's band, every sample of it undecided
    work = grid._affine_sample_counts(e, np.asarray(a, float), np.asarray(v, float), h, s)[2]
    assert work["band_cells"] == phase1[-1][1].sum()
    assert work["undecided_samples"] == work["band_cells"] * s**dim


def test_band_is_a_small_part_of_the_box(phase1):
    ball = rasterize_ellipsoid(_ellipsoid(np.zeros(3), np.eye(3)), 1.0 / 24)
    shear = np.eye(3)
    shear[0, 2] = 0.1
    rasterize_affine_image(ball, shear, np.zeros(3), 1.0 / 24)
    for full, band in phase1:
        assert 0 < band.sum() < band.size / 5


@pytest.mark.parametrize("dim,s,e,a,v,h", [single_band_cell_case()] + GEMV_BANDS)
def test_one_cell_band_takes_the_gemm_rounding(phase1, dim, s, e, a, v, h):
    # phase 2 runs one row; numpy would send it to gemv, whose rounding can
    # differ from the gemm of the full box, so the kernel pads it to two rows
    got, _, _ = grid._affine_sample_counts(e, a, v, h, s)
    ((full, band),) = phase1
    assert band.sum() == 1 and got.size > 1
    assert np.array_equal(got, affine_sample_counts(e, a, v, h, s)[0])


FACE_SPACING = 3.0 / 32  # h / (2 s) is a dyadic fraction for s = 1..4
PAST_FACE = 1e-8  # of a cell: far above rounding, far below a sample step


def face_maps(dim):
    """Unimodular integer maps: the identity, and a flip (d=1) or an upper
    shear (d > 1)."""
    other = -np.eye(1) if dim == 1 else np.eye(dim) + np.triu(np.ones((dim, dim)), 1)
    return [np.eye(dim), other]


def face_case(dim, s, a, side, past):
    """A blob at spacing h under the integer map a, shifted so that along
    each axis j the preimage of a cell's farthest sample on the given side,
    (h/2)(1 - 1/s) sum_i |A^-1_ji| from the center's preimage, lies on a
    face of E's cells (of the same spacing), or past it by `past` cells."""
    h = FACE_SPACING
    ainv = np.rint(np.linalg.inv(a))
    half = h / 2 * (1 - 1 / s)
    w = h / 2 * ainv.sum(axis=1) + side * (half * np.abs(ainv).sum(axis=1) - past * h)
    e = generate("blob", {"dim": dim, "spacing": h, "radius": 0.3, "steps": 3}, seed=s)
    return e, a, a @ w, h


FACE_CASES = [
    (dim, s, side, past, *face_case(dim, s, a, side, past))
    for dim in (1, 2, 3)
    for s in (1, 2, 3, 4)
    for a in face_maps(dim)
    for side in (1, -1)
    for past in (0, PAST_FACE)
]


@pytest.mark.parametrize("dim,s,side,past,e,a,v,h", FACE_CASES)
def test_farthest_sample_preimages_on_a_face(dim, s, side, past, e, a, v, h):
    # the case is what it claims, in exact arithmetic on the float inputs:
    # per axis j, the preimage of the center of a cell, moved by (h/2)(1 -
    # 1/s) sum_i |A^-1_ji| to the given side, is on a face of E, or past
    # one by about `past` cells (the samples then reach one more E-cell)
    ainv = [[Fraction(round(x)) for x in row] for row in np.linalg.inv(a)]
    hf = Fraction(h)
    half = hf / 2 * (1 - Fraction(1, s))
    center = [(g + Fraction(1, 2)) * hf - Fraction(vi) for g, vi in zip((5, -3, 2), v)]
    for row in ainv:
        c = sum(r * y for r, y in zip(row, center))
        edge = (c + side * half * sum(abs(r) for r in row)) / Fraction(e.spacing)
        beyond = side * (edge - round(edge))
        assert beyond == 0 if past == 0 else past / 2 < beyond < 2 * past
    got, lo, _ = grid._affine_sample_counts(e, a, v, h, s)
    want, want_lo, _ = affine_sample_counts(e, a, v, h, s)
    assert np.array_equal(lo, want_lo)
    assert np.array_equal(got, want)


def test_phase1_window_is_two_cells_for_the_sweep_shear(monkeypatch):
    # the sweep's shear 0.2 at d=3, h=1/32, s=3: samples lie within h/3 of
    # their cell's center per axis, so the preimages of a cell's samples span
    # at most 0.8 of an E-cell along the sheared axis and 2/3 along the
    # others, and every window is 2 cells wide (3 under the old h/2 bound)
    calls, widths = [], []
    real_counts, real_windows = grid._affine_sample_counts, grid._uniform_windows

    def counts_spy(*args):
        calls.append(args)
        return real_counts(*args)

    def windows_spy(occ, w, first):
        widths.append(w.tolist())
        return real_windows(occ, w, first)

    monkeypatch.setattr(grid, "_affine_sample_counts", counts_spy)
    monkeypatch.setattr(grid, "_uniform_windows", windows_spy)
    rng = np.random.default_rng(0)
    base = sweep.base_triple(3, 1.0 / 32, rng)
    sweep.apply_family(base, "shear", 0.2, rng)
    assert widths == [[2, 2, 2]] * 3
    assert all(s == 3 and a[0, 2] == 0.2 for _, a, _, _, s in calls)
    # the full-box reference of the smallest ball's image, to keep it quick
    e, a, v, h, s = calls[-1]
    got, lo, _ = real_counts(e, a, v, h, s)
    want, want_lo, _ = affine_sample_counts(e, a, v, h, s)
    assert np.array_equal(lo, want_lo)
    assert np.array_equal(got, want)


def test_strong_contraction_keeps_phase1_near_the_size_of_e():
    # under A = 1e-3 I every cell's window is about 1000 E-cells wide, and
    # E padded by such windows would hold about 2069^3 cells (35 GB as
    # int32); capped at E's width plus one, phase 1's arrays stay within
    # 195^3 cells and its peak was 66 MiB when this test was written
    h = 1.0 / 32
    ball = rasterize_ellipsoid(_ellipsoid(np.zeros(3), np.eye(3)), h)
    a, v = np.eye(3) * 1e-3, np.full(3, h / 2)
    tracemalloc.start()
    try:
        got = rasterize_affine_image(ball, a, v, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ball.shape == (64, 64, 64)
    assert peak < 128 * 2**20
    assert_identical(got, reference_affine_image(ball, a, v, h))
    assert np.array_equal(affine_sample_counts(ball, a, v, h, 3)[0], [[[1]]])


def test_roots_decide_nearly_every_ellipsoid_sample(exact_samples):
    # the unit ball's box holds 48^3 * 27 samples at h = 1/24; the roots
    # decided all of them when this test was written; the per-sample
    # expression runs only on lines with undecided samples, if any
    counts, _, work = grid._ellipsoid_sample_counts(Ellipsoid(np.zeros(3), np.eye(3)), 1.0 / 24, 3)
    assert sum(exact_samples) <= 1e-4 * counts.size * 27
    assert work["undecided_samples"] == sum(exact_samples)


@pytest.mark.parametrize(
    "dim,s,acc",
    [(1, 127, np.int8), (1, 128, np.int16), (3, 6, np.int16)],
)
def test_sample_count_accumulator_at_its_bounds(dim, s, acc):
    # the counts are summed in the narrowest signed type that holds s^dim:
    # 127 is int8's largest value, 128 and 216 need int16.  Interior cells
    # reach s^dim, and the vote counts >= (s^dim + 1) // 2 is 2 counts >= s^dim.
    total = s**dim
    e = Ellipsoid(np.full(dim, 0.03), np.eye(dim) / 0.3**2)
    got, lo, _ = grid._ellipsoid_sample_counts(e, 1.0 / 8, s)
    want, want_lo, _ = ellipsoid_sample_counts(e, 1.0 / 8, s)
    assert got.dtype == acc
    assert np.array_equal(lo, want_lo)
    assert np.array_equal(got, want)
    assert got.max() == total
    wide = got.astype(np.int64)
    assert np.array_equal(got >= (total + 1) // 2, 2 * wide >= total)
    assert_identical(rasterize_ellipsoid(e, 1.0 / 8, s), reference_ellipsoid(e, 1.0 / 8, s))


@pytest.mark.parametrize("dim", [0, 4])
def test_unsupported_dim_rejected_before_the_box(kernels, dim):
    # a 4-d center used to build and vote the whole box before VoxelSet
    # rejected the dimension
    with pytest.raises(ValueError, match=f"dim must be 1, 2, or 3, got {dim}"):
        rasterize_ellipsoid(_ellipsoid(np.zeros(dim), np.eye(dim)), 0.5)
    assert kernels == []


# Each bad shape matrix fails Ellipsoid's one check, whether it arrives as
# an Ellipsoid or as any object with a center and a shape; the asymmetry is
# above 1e-12 but below the 1e-9 the rasterizer once allowed.
BAD_SHAPES = {
    "asymmetric": np.array([[1.0, 1e-10], [0.0, 1.0]]),
    "indefinite": np.diag([1.0, -1.0]),
    "wrong-shape": np.eye(3),
    "nan": np.full((2, 2), np.nan),
}


@pytest.mark.parametrize("q", BAD_SHAPES.values(), ids=list(BAD_SHAPES))
def test_one_shape_check_at_both_entry_points(kernels, q):
    with pytest.raises(ValueError, match="shape matrix"):
        Ellipsoid(np.zeros(2), q)
    with pytest.raises(ValueError, match="shape matrix"):
        rasterize_ellipsoid(_ellipsoid(np.zeros(2), q), 1.0 / 8)
    assert kernels == []


@pytest.mark.parametrize("center", [[np.nan, 0.0], [0.0, -np.inf]])
def test_nonfinite_center_rejected_before_the_box(kernels, center):
    # a NaN center used to reach the box arithmetic, warn, and fail on the
    # empty VoxelSet with a message about its shape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="center must be finite"):
            rasterize_ellipsoid(_ellipsoid(center, np.eye(2)), 1.0 / 8)
    assert kernels == []


def test_rounding_asymmetry_rasterizes_the_same_through_both_entry_points():
    rng = np.random.default_rng(3)
    q = _rotated_q(rng, 3)
    assert np.any(q != q.T)  # R D R^T is symmetric only up to rounding
    center = rng.normal(size=3) * 0.2
    want = rasterize_ellipsoid(Ellipsoid(center, q), 1.0 / 16)
    assert_identical(rasterize_ellipsoid(_ellipsoid(center, q), 1.0 / 16), want)
    assert_identical(reference_ellipsoid(Ellipsoid(center, q), 1.0 / 16), want)


DISK = Ellipsoid(np.zeros(2), np.eye(2))


def _disk32():
    return generate("ball", {"dim": 2, "spacing": 1.0, "radius": 3.0})


# A box with a cell index of magnitude 2**50/s or more, where float64 no
# longer resolves a cell's s samples per axis (h = 1, s = 3 unless given),
# checked as floats before the cast to int64.  Far out (the cast used to
# warn and wrap), at 2**62 (the box used to come out empty), past the
# float range of the index; the unit disk at 2**53 used to come out as 2
# cells, at 2**54 and 2**61 its box rounded to nothing and the VoxelSet's
# shape check failed, and the 32-cell disk moved by 2**54 cells, a whole
# number, came back with 30.  The last case moves E itself out that far
# and its image back to 0.
BOX_PAST_THE_RESOLUTION = {
    "ellipsoid-1e20": lambda: rasterize_ellipsoid(Ellipsoid([1e20, 0.0], np.eye(2)), 1.0),
    "ellipsoid-2**62": lambda: rasterize_ellipsoid(Ellipsoid([2.0**62, 0.0], np.eye(2)), 1.0),
    "ellipsoid-overflow": lambda: rasterize_ellipsoid(
        Ellipsoid([0.0, -1e300], np.eye(2)), 1e-10
    ),
    "ellipsoid-2**53": lambda: rasterize_ellipsoid(Ellipsoid([2.0**53, 0.0], np.eye(2)), 1.0),
    "ellipsoid-2**54": lambda: rasterize_ellipsoid(Ellipsoid([2.0**54, 0.0], np.eye(2)), 1.0),
    "ellipsoid-2**61": lambda: rasterize_ellipsoid(Ellipsoid([2.0**61, 0.0], np.eye(2)), 1.0),
    "affine-1e20": lambda: rasterize_affine_image(
        rasterize_ellipsoid(DISK, 0.25), np.eye(2), [1e20, 0.0], 0.25
    ),
    "affine-2**62": lambda: rasterize_affine_image(
        rasterize_ellipsoid(DISK, 0.25), np.eye(2), [0.0, -(2.0**62)], 1.0
    ),
    "affine-2**54": lambda: rasterize_affine_image(_disk32(), np.eye(2), [2.0**54, 0.0], 1.0),
    "affine-E-2**54": lambda: rasterize_affine_image(
        translate_cells(_disk32(), (2**54, 0)), np.eye(2), [-(2.0**54), 0.0], 1.0
    ),
}


@pytest.mark.parametrize("call", BOX_PAST_THE_RESOLUTION.values(), ids=BOX_PAST_THE_RESOLUTION)
def test_box_past_the_float_resolution_is_rejected(call):
    assert _disk32().count == 32
    assert rasterize_ellipsoid(Ellipsoid([2.0**20, 0.0], np.eye(2)), 1.0).count == 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must lie within 2\\*\\*50/s cells of 0"):
            call()


def test_box_far_inside_the_bound_rasterizes_as_at_zero():
    # at 2**20 the samples, multiples of h/4 at s = 2, are exact in float64,
    # so a shift by 2**22 cells moves the set and changes no cell
    far, shift = 2.0**20, 2**22
    want = rasterize_ellipsoid(DISK, 1.0 / 4, 2)
    moved = rasterize_ellipsoid(Ellipsoid([far, 0.0], np.eye(2)), 1.0 / 4, 2)
    assert (moved.origin_index - want.origin_index).tolist() == [shift, 0]
    assert np.array_equal(moved.occupancy, want.occupancy)
    image = rasterize_affine_image(want, np.eye(2), [0.0, -far], 1.0 / 4, 2)
    assert (image.origin_index - want.origin_index).tolist() == [0, -shift]
    assert np.array_equal(image.occupancy, want.occupancy)
