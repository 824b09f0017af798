"""The band-pruned rasterizers against the full-box reference loops.

Both kernels must return the identical VoxelSet (origin, shape and every
cell) as sampling all s^d points of every cell in the bounding box.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from rieszvox import VoxelSet, generate, rasterize_affine_image, rasterize_ellipsoid
from rieszvox import grid
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
    """
    cases = []
    for dim in (1, 2, 3):
        for s in (1, 2):
            h = 1.0 / 16
            center = np.full(dim, h / (2 * s))
            cases.append((dim, s, h, center, np.eye(dim) / 0.5**2))
            # r = 5h in 2-D and 3-D also meets the samples at (3h, 4h)
            cases.append((dim, s, h, center, np.eye(dim) / (5 * h) ** 2))
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


@pytest.mark.parametrize(
    "dim,s,e,a,v,h",
    affine_corpus() + near_singular_corpus() + [single_band_cell_case()],
)
def test_affine_matches_reference(dim, s, e, a, v, h):
    assert_identical(
        rasterize_affine_image(e, a, v, h, s), reference_affine_image(e, a, v, h, s)
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_integer_diagonal_replicates_like_sampling(dim):
    # the replicate path skips sampling; the samples agree with it anyway
    h = 1.0 / 16
    e = _blob(dim, 5, h)
    a = np.diag([2.0, 3.0, 1.0][:dim])
    v = np.array([3 * h, -2 * h, h][:dim])
    assert_identical(
        rasterize_affine_image(e, a, v, h, 3), reference_affine_image(e, a, v, h, 3)
    )


@pytest.fixture
def phase1(monkeypatch):
    """Records (full, band) of each phase 1, as handed to the vote."""
    seen = []
    real = grid._band_vote

    def spy(inside, band, s, member):
        seen.append((inside.copy(), band.copy()))
        return real(inside, band, s, member)

    monkeypatch.setattr(grid, "_band_vote", spy)
    return seen


def assert_phase1_sound(phase1, counts, s):
    # every cell phase 1 decides has all of its samples in, or none
    ((full, band),) = phase1
    assert full.shape == counts.shape
    assert np.all(counts[full] == s**counts.ndim)
    assert np.all(counts[~full & ~band] == 0)


@pytest.mark.parametrize(
    "dim,s,h,center,q", [c for c in ellipsoid_corpus() + tie_corpus() if c[1] > 1]
)
def test_ellipsoid_phase1_decides_only_uniform_cells(phase1, dim, s, h, center, q):
    e = _ellipsoid(center, q)
    rasterize_ellipsoid(e, h, s)
    assert_phase1_sound(phase1, ellipsoid_sample_counts(e, h, s)[0], s)


@pytest.mark.parametrize(
    "dim,s,e,a,v,h", [c for c in affine_corpus() + near_singular_corpus() if c[1] > 1]
)
def test_affine_phase1_decides_only_uniform_cells(phase1, dim, s, e, a, v, h):
    rasterize_affine_image(e, a, v, h, s)
    assert_phase1_sound(phase1, affine_sample_counts(e, a, v, h, s)[0], s)


def test_band_is_a_small_part_of_the_box(phase1):
    ball = rasterize_ellipsoid(_ellipsoid(np.zeros(3), np.eye(3)), 1.0 / 24)
    shear = np.eye(3)
    shear[0, 2] = 0.1
    rasterize_affine_image(ball, shear, np.zeros(3), 1.0 / 24)
    for full, band in phase1:
        assert 0 < band.sum() < band.size / 5


@pytest.mark.parametrize("dim", [0, 4])
def test_unsupported_dim_rejected_before_the_box(phase1, dim):
    # a 4-d center used to build and vote the whole box before VoxelSet
    # rejected the dimension
    with pytest.raises(ValueError, match="center of length"):
        rasterize_ellipsoid(_ellipsoid(np.zeros(dim), np.eye(dim)), 0.5)
    assert phase1 == []
