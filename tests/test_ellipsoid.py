import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_voxel_set

from rieszvox import (
    Ellipsoid,
    SetTriple,
    VoxelSet,
    affine_regress_centers,
    center_compatibility,
    fit_ellipsoid_moments,
    fit_homothetic_triple,
    fit_interval_1d,
    generate,
    slice_center_field,
    steiner_symmetrize,
    translate_cells,
)
from rieszvox.ellipsoid import IntervalFit, _index_moments
from rieszvox.sweep import skew_columns

H = 1.0 / 64

SHAPE_ENTRY_TOL = 0.05
EPS_BALL_TOL = 0.01


def _ball(r, center=(0.0, 0.0), h=H, dim=2):
    return generate(
        "ball", {"dim": dim, "spacing": h, "radius": r, "center": list(center)[:dim]}
    )


class TestEllipsoidClass:
    def test_measure(self):
        e = Ellipsoid(np.zeros(2), np.eye(2) / 0.5**2)
        assert e.measure == pytest.approx(np.pi * 0.25)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Ellipsoid(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            Ellipsoid(np.zeros(2), np.diag([1.0, -1.0]))

    def test_equality_and_hash_compare_the_arrays(self):
        a, b = Ellipsoid(np.zeros(2), np.eye(2)), Ellipsoid(-np.zeros(2), np.eye(2))
        assert a == b
        assert len({a, b, Ellipsoid(np.zeros(2), 2 * np.eye(2))}) == 2
        assert a != Ellipsoid(np.zeros(3), np.eye(3))


class TestMomentFit:
    def test_recovers_ball(self):
        e = _ball(0.8)
        fit = fit_ellipsoid_moments(e)
        assert fit.measure == pytest.approx(e.measure, rel=1e-9)
        assert np.allclose(fit.center, 0.0, atol=H)
        assert np.allclose(
            fit.shape, np.eye(2) / 0.8**2, atol=SHAPE_ENTRY_TOL / 0.64
        )

    def test_recovers_anisotropic(self):
        base = np.array([[1.3, 0.3], [0.3, 0.9]])
        q_true = np.linalg.inv(base @ base.T)
        e = generate("ellipsoid", {"dim": 2, "spacing": H, "shape": q_true.tolist()})
        fit = fit_ellipsoid_moments(e)
        scale = np.max(np.abs(q_true))
        assert np.max(np.abs(fit.shape - q_true)) <= SHAPE_ENTRY_TOL * scale

    def test_singular_raises(self):
        one = VoxelSet.from_index(np.ones((1, 1), bool), [0, 0], H)
        with pytest.raises(ValueError):
            fit_ellipsoid_moments(one)
        row = VoxelSet.from_index(np.ones((1, 9), bool), [0, 0], H)
        with pytest.raises(ValueError):
            fit_ellipsoid_moments(row)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_index_moments_are_the_sums_over_the_cells(self, dim):
        rng = np.random.default_rng(dim)
        for cells in (1, 5, 12):
            e = random_voxel_set(dim, rng, cells=cells)
            local = [tuple(map(Fraction, k)) for k in np.argwhere(e.occupancy).tolist()]
            n, s, p = _index_moments(e.occupancy)
            assert n == len(local) == e.count
            assert s == [sum(k[i] for k in local) for i in range(dim)]
            assert p == [[sum(k[i] * k[j] for k in local) for j in range(dim)] for i in range(dim)]
            assert all(type(x) is int for x in [n, *s, *sum(p, [])])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_center_is_the_rounded_mean_of_the_cell_centers(self, dim):
        # a dyadic spacing scales exactly, so the center is the mean of the
        # cell centers correctly rounded, far from the origin too
        rng = np.random.default_rng(10 + dim)
        e = random_voxel_set(dim, rng, cells=9, spacing=1.0 / 16, density=0.5)
        for shift in (0, 10**9 + 7):
            moved = VoxelSet.from_index(e.occupancy, e.origin_index + shift, e.spacing)
            g = moved.global_indices().tolist()
            want = [
                float(sum(Fraction(2 * k[i] + 1, 2) for k in g) / len(g)) / 16
                for i in range(dim)
            ]
            assert fit_ellipsoid_moments(moved).center.tolist() == want

    @pytest.mark.parametrize("dim", [2, 3])
    def test_shape_is_the_same_to_the_bit_under_whole_cell_shifts(self, dim):
        rng = np.random.default_rng(20 + dim)
        e = random_voxel_set(dim, rng, cells=10, spacing=1.0 / 10, density=0.4)
        want = fit_ellipsoid_moments(e).shape
        for shift in (1, -37, 2**40 + 3):
            offset = shift * np.array([1, -2, 3][:dim])
            moved = VoxelSet.from_index(e.occupancy, e.origin_index + offset, e.spacing)
            assert np.array_equal(fit_ellipsoid_moments(moved).shape, want)

    def test_fit_holds_no_per_cell_list(self):
        # a unit ball at d=3, h=1/64: 1.1M cells, whose (N, 3) float64
        # list of centers alone would take 26 MB
        e = _ball(1.0, (0.0, 0.0, 0.0), h=1.0 / 64, dim=3)
        tracemalloc.start()
        try:
            fit_ellipsoid_moments(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < e.count * 3 * 8


class TestHomotheticFit:
    def _triple(self, centers, radii, q=None):
        if q is None:
            q = np.eye(2)
        sets = [
            generate(
                "ellipsoid",
                {
                    "dim": 2,
                    "spacing": H,
                    "shape": (q / r**2).tolist(),
                    "center": list(c),
                },
            )
            for c, r in zip(centers, radii)
        ]
        return SetTriple(sets)

    def test_exact_triple(self):
        centers = [(0.25, 0.0), (-0.25, 0.125), (0.0, -0.125)]
        radii = (1.0, 0.9, 0.8)
        q = np.linalg.inv(np.array([[1.3, 0.3], [0.3, 0.9]]) @
                          np.array([[1.3, 0.3], [0.3, 0.9]]).T)
        t = self._triple(centers, radii, q)
        fit = fit_homothetic_triple(t)
        assert float(fit.epsilons.max()) <= 0.03
        assert np.linalg.det(fit.shape.shape) == pytest.approx(1.0, rel=1e-9)
        assert np.allclose(fit.centers.sum(axis=0), 0.0, atol=1e-12)
        # radius ratios follow the measure ratios
        want = np.array([e.measure for e in t]) ** 0.5
        got = np.asarray(fit.radii)
        assert np.allclose(got / got[0], want / want[0], rtol=1e-9)

    def test_disjoint_centers_blow_up(self):
        t = self._triple([(0, 0)] * 3, (0.5, 0.5, 0.5))
        fit = fit_homothetic_triple(t)
        shifted = [
            t[0],
            t[1],
            translate_cells(t[2], [int(5.0 / H), 0]),
        ]
        fit2 = fit_homothetic_triple(SetTriple(shifted))
        assert float(fit2.epsilons.max()) > 0.5


class TestIntervalFit:
    def test_contiguous_run(self):
        e = VoxelSet.from_index(np.ones((6,), bool), [-3], H)
        fit = fit_interval_1d(e)
        assert fit.center == pytest.approx(0.0, abs=1e-12)
        assert fit.length == pytest.approx(6 * H)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_gap_residual_census(self):
        # two 3-cell runs separated by a 2-cell gap, interval length 6h
        occ = np.array([1, 1, 1, 0, 0, 1, 1, 1], dtype=bool)
        e = VoxelSet.from_index(occ, [0], H)
        fit = fit_interval_1d(e)
        # centroid at the midpoint; J = [c - 3h, c + 3h] misses one cell on
        # each end and covers the two-cell gap
        out_of_interval = 2 * H  # one boundary cell per side
        gap_covered = 2 * H
        want = (out_of_interval + gap_covered) / (6 * H)
        assert fit.residual == pytest.approx(want, rel=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fit_interval_1d(VoxelSet.empty(1, H))


class TestCenterField:
    def test_steiner_output_centers_at_convention_offset(self):
        e = generate(
            "blob", {"dim": 2, "spacing": H, "radius": 0.4, "steps": 4}, seed=3
        )
        s = steiner_symmetrize(e)
        field = slice_center_field(s)
        assert field
        for fit in field.values():
            assert abs(fit.center) <= s.spacing / 2 + 1e-12

    def test_skewed_slab_centers_affine(self):
        occ = np.ones((12, 8), bool)
        slab = VoxelSet.from_index(occ, [-6, -4], H)
        sk = skew_columns(slab, [0.5])
        field = slice_center_field(sk)
        for key, fit in field.items():
            y = key[0]
            want = -H / 2 + H * round(0.5 * y / H)
            assert abs(fit.center - want) <= H + 1e-12

    def test_empty_columns_absent(self):
        occ = np.zeros((3, 4), bool)
        occ[0, :] = True
        occ[2, 1:3] = True
        e = VoxelSet.from_index(occ, [0, 0], H)
        field = slice_center_field(e)
        assert len(field) == 2


class TestAffineRegression:
    def _field(self, xs, centers, lengths=None):
        if lengths is None:
            lengths = [1.0] * len(xs)
        return {
            (float(x),): IntervalFit(
                center=float(c), length=float(l), residual=0.0
            )
            for x, c, l in zip(xs, centers, lengths)
        }

    def test_exact_affine_recovered(self):
        xs = np.linspace(-1, 1, 9)
        field = self._field(xs, 2.0 * xs + 0.3)
        (a, b), rms = affine_regress_centers(field)
        assert a[0] == pytest.approx(2.0, abs=1e-9)
        assert b == pytest.approx(0.3, abs=1e-9)
        assert rms == pytest.approx(0.0, abs=1e-9)

    def test_constant_field(self):
        xs = np.linspace(-1, 1, 5)
        field = self._field(xs, np.full(5, 0.7))
        (a, b), rms = affine_regress_centers(field)
        assert a[0] == pytest.approx(0.0, abs=1e-12)
        assert b == pytest.approx(0.7)

    def test_noisy_affine_within_bound(self):
        rng = np.random.default_rng(5)
        xs = np.linspace(-1, 1, 33)
        noise = (rng.integers(0, 2, size=33) * 2 - 1) * H
        field = self._field(xs, 1.5 * xs - 0.2 + noise)
        (a, b), rms = affine_regress_centers(field)
        assert abs(a[0] - 1.5) <= 3 * H
        assert abs(b + 0.2) <= 3 * H

    def test_rank_deficient_raises(self):
        field = self._field([0.5], [1.0])
        with pytest.raises(ValueError):
            affine_regress_centers(field)

    def test_weights_favor_long_fibers(self):
        xs = [-1.0, 0.0, 1.0, 2.0]
        # outlier center at x=2 with tiny weight barely moves the fit
        field = self._field(xs, [0.0, 0.0, 0.0, 5.0], lengths=[1, 1, 1, 1e-9])
        (a, b), _ = affine_regress_centers(field)
        assert abs(a[0]) < 1e-3
        assert abs(b) < 1e-3


class TestCenterCompatibility:
    def test_concentric_balls_small(self):
        t = SetTriple([_ball(r) for r in (1.0, 0.9, 0.8)])
        assert center_compatibility(t) <= 2 * H

    def test_vertical_shift_detected(self):
        s = 0.25
        t = SetTriple(
            [
                _ball(1.0),
                _ball(0.9),
                translate_cells(_ball(0.8), [0, int(round(s / H))]),
            ]
        )
        score = center_compatibility(t)
        assert score == pytest.approx(s, rel=0.2)

    def test_shared_slope_skew_invariance(self):
        t = SetTriple([_ball(r) for r in (1.0, 0.9, 0.8)])
        base = center_compatibility(t)
        sk = SetTriple([skew_columns(e, [0.3]) for e in t])
        assert abs(center_compatibility(sk) - base) <= 2 * H

    def test_one_set_skew_detected(self):
        t = SetTriple([_ball(r) for r in (1.0, 0.9, 0.8)])
        base = center_compatibility(t)
        broken = SetTriple([t[0], t[1], skew_columns(t[2], [0.3])])
        score = center_compatibility(broken)
        assert score >= 5 * base
        assert score > 2 * H

    def test_dim_one_rejected(self):
        e = generate("ball", {"dim": 1, "spacing": H, "radius": 0.5})
        with pytest.raises(ValueError):
            center_compatibility(SetTriple([e, e, e]))

    def test_disjoint_supports_raise(self):
        # columns of the first two sets sit far right, so the zero-sum
        # column never lands inside the third set
        a = _ball(0.3, center=(5.0, 0.0))
        b = _ball(0.3, center=(5.0, 0.0))
        c = _ball(0.3, center=(0.0, 0.0))
        with pytest.raises(ValueError):
            center_compatibility(SetTriple([a, b, c]))
