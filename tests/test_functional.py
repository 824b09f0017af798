import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from rieszvox import (
    RadiusTriple,
    SetTriple,
    VoxelSet,
    deficit,
    functional,
    generate,
    lambda_1,
    lambda_d,
    reflect,
    strong_triangle_rho,
    superadditivity_gap,
    theta,
    theta_bound_check,
    translate_cells,
    trilinear_corner_counts,
    trilinear_form,
    trilinear_form_direct,
    unit_ball_volume,
    upscale_integer,
)

from conftest import random_voxel_set
from reference_lens import lens_area_2d, lens_volume_3d, lens_volume_3d_over_pi

# closed-form anchor values, frozen before the implementation was written
LAMBDA1_TABLE = {
    (1.0, 1.0, 1.0): 0.75,
    (1.0, 1.0, 2.0): 1.0,
    (1.0, 1.0, 3.0): 1.0,
    (1.0, 0.8, 0.9): 0.5975,
    (0.5, 0.5, 0.5): 0.1875,
}
LAMBDA2_UNIT = 1.0 - 3.0 * math.sqrt(3.0) / (4.0 * math.pi)
LAMBDA3_UNIT = 15.0 / 32.0
GAP_UNIT_HALVES = 0.375

ANCHOR_TOL = 1e-7
EXACT_TOL = 1e-12


def _single_cell(dim, g, h):
    return VoxelSet.from_index(np.ones((1,) * dim, bool), g, h)


class TestHandValues:
    @pytest.mark.parametrize("h", [1.0, 0.5, 1.0 / 64])
    def test_one_cell_line(self, h):
        # E1 = E2 = [0, h), E3 = [-h, 0): the only corner solution is s = -1
        e1 = _single_cell(1, [0], h)
        e3 = _single_cell(1, [-1], h)
        assert trilinear_form([e1, e1, e3]) == pytest.approx(
            h * h / 2, rel=EXACT_TOL
        )

    def test_one_cell_plane(self, h=0.5):
        e1 = _single_cell(2, [0, 0], h)
        e3 = _single_cell(2, [-1, -1], h)
        assert trilinear_form([e1, e1, e3]) == pytest.approx(
            h**4 / 4, rel=EXACT_TOL
        )

    def test_corner_counts_one_cell(self):
        e1 = _single_cell(1, [0], 1.0)
        e3 = _single_cell(1, [-1], 1.0)
        counts = trilinear_corner_counts([e1, e1, e3])
        assert counts == {(-1,): 1, (-2,): 0}

    def test_refined_one_cell_counts(self):
        # refining by m=2 gives counts 3 and 1, reproducing T exactly
        e1 = upscale_integer(_single_cell(1, [0], 1.0), 2)
        e3 = upscale_integer(_single_cell(1, [-1], 1.0), 2)
        counts = trilinear_corner_counts([e1, e1, e3])
        assert counts == {(-1,): 3, (-2,): 1}
        assert trilinear_form([e1, e1, e3]) == pytest.approx(0.5, rel=EXACT_TOL)

    def test_empty_member_gives_zero(self):
        e = _single_cell(1, [0], 1.0)
        empty = VoxelSet.empty(1, 1.0)
        assert trilinear_form([e, e, empty]) == 0.0


class TestTrilinearInvariances:
    @seed(3)
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3))
    def test_fft_equals_direct(self, s, dim):
        rng = np.random.default_rng(s)
        t = tuple(random_voxel_set(dim, rng, cells=8) for _ in range(3))
        assert trilinear_corner_counts(t, "fft") == trilinear_corner_counts(
            t, "direct"
        )

    @seed(5)
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 2))
    def test_permutation_exact(self, s, dim):
        rng = np.random.default_rng(s)
        t = [random_voxel_set(dim, rng, cells=8) for _ in range(3)]
        base = trilinear_form(t)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            assert trilinear_form([t[i] for i in perm]) == base

    @seed(7)
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 2))
    def test_reflection_exact(self, s, dim):
        rng = np.random.default_rng(s)
        t = [random_voxel_set(dim, rng, cells=8) for _ in range(3)]
        assert trilinear_form([reflect(e) for e in t]) == trilinear_form(t)

    @seed(11)
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 2),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    )
    def test_translation_exact(self, s, dim, a, b):
        # integer translations with a + b + c = 0 leave the counts unchanged
        rng = np.random.default_rng(s)
        t = [random_voxel_set(dim, rng, cells=8) for _ in range(3)]
        av, bv = np.asarray(a[:dim]), np.asarray(b[:dim])
        cv = -(av + bv)
        moved = [
            translate_cells(t[0], av),
            translate_cells(t[1], bv),
            translate_cells(t[2], cv),
        ]
        assert trilinear_corner_counts(moved) == trilinear_corner_counts(t)

    def test_dilation_exact_power_of_two(self):
        rng = np.random.default_rng(17)
        t = [random_voxel_set(2, rng, cells=8) for _ in range(3)]
        base = trilinear_form(t)
        up = [upscale_integer(e, 2) for e in t]
        assert trilinear_form(up) == base

    def test_dilation_m3(self):
        rng = np.random.default_rng(19)
        t = [random_voxel_set(2, rng, cells=8) for _ in range(3)]
        up = [upscale_integer(e, 3) for e in t]
        assert trilinear_form(up) == pytest.approx(trilinear_form(t), rel=1e-12)

    def test_direct_form_matches_fft_form(self):
        rng = np.random.default_rng(23)
        t = [random_voxel_set(2, rng, cells=10) for _ in range(3)]
        assert trilinear_form_direct(t) == trilinear_form(t)


class TestLambdaClosedForms:
    def test_lambda1_frozen_table(self):
        for gamma, want in LAMBDA1_TABLE.items():
            assert lambda_1(gamma) == pytest.approx(want, abs=EXACT_TOL)

    def test_lambda1_zero_measure(self):
        assert lambda_1((0.0, 1.0, 1.0)) == 0.0

    def test_lambda1_negative_rejected(self):
        with pytest.raises(ValueError):
            lambda_1((-1.0, 1.0, 1.0))

    def test_lambda1_clamps_to_product(self):
        # gamma3 >= gamma1 + gamma2: full overlap, T = gamma1 * gamma2
        assert lambda_1((0.3, 0.5, 2.0)) == pytest.approx(0.15, abs=EXACT_TOL)

    def test_lambda2_unit_anchor(self):
        assert lambda_d((1.0, 1.0, 1.0), 2) == pytest.approx(
            LAMBDA2_UNIT, abs=ANCHOR_TOL
        )

    def test_lambda3_unit_anchor(self):
        assert lambda_d((1.0, 1.0, 1.0), 3) == pytest.approx(
            LAMBDA3_UNIT, abs=ANCHOR_TOL
        )

    def test_lambda_d_delegates_to_closed_form(self):
        assert lambda_d((1.0, 0.8, 0.9), 1) == pytest.approx(0.5975, abs=EXACT_TOL)

    @seed(13)
    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(*[st.floats(0.3, 2.0) for _ in range(3)]),
        st.permutations([0, 1, 2]),
    )
    def test_lambda_d_permutation_invariant(self, g, perm):
        base = lambda_d(g, 2)
        assert lambda_d(tuple(np.asarray(g)[perm]), 2) == pytest.approx(
            base, rel=1e-9
        )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_lambda_d_dilation_covariance(self, dim):
        g = (1.0, 0.9, 0.8)
        lam = 1.3
        scaled = tuple(x * lam**dim for x in g)
        assert lambda_d(scaled, dim) == pytest.approx(
            lam ** (2 * dim) * lambda_d(g, dim), rel=1e-7
        )

    def test_lambda_d_full_overlap_clamp(self):
        # third ball radius exceeds the sum: Lambda collapses to the product
        got = lambda_d((0.2, 0.3, 50.0), 2)
        assert got == pytest.approx(0.2 * 0.3, rel=1e-9)


    @pytest.mark.parametrize("dim", [2, 3])
    def test_lambda_d_unconverged_quadrature_rejected(self, monkeypatch, dim):
        # error estimates just under and just over 1e-6 of the value; lambda_d
        # imports quad from scipy.integrate on each call
        monkeypatch.setattr("scipy.integrate.quad", lambda *a, **k: (2.0, 2.0e-6))
        assert lambda_d((1.0, 1.0, 1.0), dim) == dim * unit_ball_volume(dim) * 2.0
        monkeypatch.setattr("scipy.integrate.quad", lambda *a, **k: (2.0, 2.1e-6))
        with pytest.raises(ValueError, match="quadrature did not converge"):
            lambda_d((1.0, 1.0, 1.0), dim)


def _lens_radii(n, seed):
    # r1 >= r2 >= r3 with the kink r1 - r2 below r3: Lambda's lens range
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        r1, r2, r3 = sorted(rng.uniform(0.05, 3.0, 3), reverse=True)
        if r1 - r2 < r3:
            out.append((float(r1), float(r2), float(r3)))
    return out


LENS_RADII = _lens_radii(200, 29)


class TestLens:
    """functional._lens, the one lens of every dimension, point by point."""

    @pytest.mark.parametrize("dim,closed_form", [(2, lens_area_2d), (3, lens_volume_3d)])
    def test_matches_the_closed_forms(self, dim, closed_form):
        worst = 0.0
        for r1, r2, r3 in LENS_RADII:
            scale = unit_ball_volume(dim) * r2**dim
            for s in np.linspace(r1 - r2, r3, 17).tolist():
                err = abs(functional._lens(r1, r2, s, dim) - closed_form(r1, r2, s))
                worst = max(worst, err / scale)
        assert worst <= 1e-13

    def test_is_the_overlap_length_at_d1(self):
        for r1, r2, _ in LENS_RADII:
            for s in np.linspace(r1 - r2, r1 + r2, 17).tolist():
                got = functional._lens(r1, r2, s, 1)
                assert got == pytest.approx(r1 + r2 - s, rel=0, abs=1e-15 * (r1 + r2))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_is_the_smaller_ball_at_the_kink(self, dim):
        # at s = r1 - r2 exactly, and one float past it, where rounding can
        # put a cap's height past its radius; some cases here do
        past = 0
        for r1, r2, _ in LENS_RADII:
            ball = unit_ball_volume(dim) * r2**dim
            kink = r1 - r2
            assert functional._lens(r1, r2, kink, dim) == ball
            s = math.nextafter(kink, math.inf)
            a1 = (s * s + r1 * r1 - r2 * r2) / (2 * s)
            past += abs(a1) > r1 or abs(s - a1) > r2
            got = functional._lens(r1, r2, s, dim)
            assert math.isfinite(got)
            assert got == pytest.approx(ball, rel=1e-13)
        assert past > 0

    def test_keeps_its_accuracy_where_the_plane_meets_a_center(self):
        # at s = sqrt(r1^2 - r2^2) the plane of the intersection passes
        # through the second center, where a cap taken in 1 - a^2/r^2 lost
        # up to 5e-13
        worst = 0.0
        for r1, r2, r3 in LENS_RADII:
            mid = math.sqrt(r1 * r1 - r2 * r2)
            for s in np.linspace(mid * (1 - 1e-4), mid * (1 + 1e-4), 9).tolist():
                if not r1 - r2 < s < r1 + r2:
                    continue
                exact = math.pi * float(lens_volume_3d_over_pi(r1, r2, s))
                worst = max(worst, abs(functional._lens(r1, r2, s, 3) / exact - 1.0))
        assert worst <= 1e-14


class TestRadiusTriple:
    def test_from_measures(self):
        rt = RadiusTriple.from_measures((np.pi, np.pi, np.pi), 2)
        assert np.allclose(rt.radii, 1.0)
        assert np.allclose(rt.measures(2), np.pi)

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            RadiusTriple((1.0, -1.0, 1.0))

    def test_unit_ball_volume(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(np.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0)


class TestDeficit:
    def test_ball_triple_small_nonnegative(self):
        h = 1.0 / 64
        t = SetTriple(
            [
                generate("ball", {"dim": 2, "spacing": h, "radius": r})
                for r in (1.0, 0.9, 0.8)
            ]
        )
        rep = deficit(t)
        assert 0.0 <= rep.delta <= 0.01
        assert rep.delta == pytest.approx(
            1.0 - rep.t_value / rep.lambda_value, abs=EXACT_TOL
        )
        assert rep.fit is None

    def test_with_fit(self):
        h = 1.0 / 48
        e = generate("ball", {"dim": 2, "spacing": h, "radius": 0.8})
        rep = deficit(SetTriple([e, e, e]), with_fit=True)
        assert rep.fit is not None
        assert float(rep.fit.epsilons.max()) < 0.02


class TestSuperadditivity:
    def test_frozen_unit_halves_gap(self):
        gap = superadditivity_gap((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), 1)
        assert gap == pytest.approx(GAP_UNIT_HALVES, abs=EXACT_TOL)

    def test_inadmissible_total_rejected(self):
        with pytest.raises(ValueError):
            superadditivity_gap((1.0, 0.1, 0.1), (1.0, 0.1, 0.1), 1)

    def test_negative_summand_rejected(self):
        with pytest.raises(ValueError):
            superadditivity_gap((-0.1, 0.5, 0.5), (0.6, 0.5, 0.5), 1)

    @seed(17)
    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(*[st.floats(0.6, 1.4) for _ in range(3)]),
        st.tuples(*[st.floats(0.05, 0.95) for _ in range(3)]),
        st.integers(1, 2),
    )
    def test_gap_nonnegative(self, g, u, dim):
        from rieszvox import measure_margin

        ga = np.asarray(g)
        ua = np.asarray(u)
        assume(measure_margin(ga, dim).margin >= 0)
        gap = superadditivity_gap(ga * ua, ga * (1 - ua), dim)
        assert gap >= -1e-6 * lambda_d(tuple(ga), dim)


class TestStrongTriangle:
    def test_positive_and_deterministic(self):
        a = strong_triangle_rho(0.5, 0.25, 1, samples=2000, seed=1)
        b = strong_triangle_rho(0.5, 0.25, 1, samples=2000, seed=1)
        assert a > 0
        assert a == b

    def test_smaller_eta_admits_more_splits(self):
        # shrinking eta enlarges the qualifying set, so the min cannot rise
        loose = strong_triangle_rho(0.5, 0.01, 1, samples=4000, seed=2)
        tight = strong_triangle_rho(0.5, 0.25, 1, samples=4000, seed=2)
        assert tight >= loose >= 0.0

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            strong_triangle_rho(0.0, 0.25, 1, samples=10)
        with pytest.raises(ValueError):
            strong_triangle_rho(0.5, 1.0, 1, samples=10)

    def test_no_qualifying_sample_raises(self):
        # the one split of seed 0 qualifies at eta 0.99 but not at 0.999
        assert strong_triangle_rho(0.5, 0.99, 1, samples=1, seed=0) > 0
        with pytest.raises(ValueError, match="no qualifying splits sampled; eta too demanding"):
            strong_triangle_rho(0.5, 0.999, 1, samples=1, seed=0)

    def test_zero_samples_named(self):
        with pytest.raises(ValueError, match=r"^samples must be >= 1, got 0$"):
            strong_triangle_rho(0.5, 0.25, 1, samples=0, seed=0)


class TestTheta:
    def test_equal_layers_give_one(self):
        recs = [(0, 1.0, 0.5), (0, 1.0, 0.5), (0, 1.0, 0.5)]
        assert theta(recs) == pytest.approx(1.0)

    def test_index_spread_halves(self):
        recs = [(0, 1.0, 0.5), (0, 1.0, 0.5), (3, 1.0, 0.5)]
        assert theta(recs) == pytest.approx(0.5)

    def test_projection_ratio_enters_cube_root(self):
        recs = [(0, 1.0, 0.5), (0, 1.0, 0.5), (0, 0.125, 0.5)]
        assert theta(recs) == pytest.approx(0.5)

    def test_theta_at_most_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            recs = [
                (int(rng.integers(-6, 6)), float(rng.random() + 0.01), 0.1)
                for _ in range(3)
            ]
            assert theta(recs) <= 1.0 + 1e-12

    def test_bound_check_structure(self):
        h = 1.0 / 32
        t = SetTriple(
            [
                generate(
                    "blob",
                    {"dim": 2, "spacing": h, "radius": 0.45, "steps": 4},
                    seed=s,
                )
                for s in (41, 43, 47)
            ]
        )
        from rieszvox import dyadic_layers

        decs = [dyadic_layers(e) for e in t]
        ks = [sorted(d.layers)[0] for d in decs]
        lhs, rhs, ratio = theta_bound_check(t, tuple(ks))
        layers = [d.layers[k] for d, k in zip(decs, ks)]
        want_lhs = trilinear_form(layers)
        assert lhs == pytest.approx(want_lhs, rel=EXACT_TOL)
        prod = np.prod([l.measure ** (2.0 / 3.0) for l in layers])
        th = theta(
            [
                (k, d.projections[k], d.layers[k].measure)
                for d, k in zip(decs, ks)
            ]
        )
        assert rhs == pytest.approx(4.0 * th * prod, rel=EXACT_TOL)
        assert ratio == pytest.approx(lhs / rhs, rel=EXACT_TOL)
        assert lhs <= rhs
