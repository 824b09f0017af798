"""Both corner-count backends against a pure-Python triple loop, the direct
path's pair guard, the theta check on shared decompositions, and spacing
validation at the rasterizer boundary."""

import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve as scipy_fftconvolve

from rieszvox import (
    SetTriple,
    VoxelSet,
    dyadic_layers,
    from_cells,
    functional,
    generate,
    rasterize_affine_image,
    rasterize_ellipsoid,
    theta_bound_check,
    trilinear_corner_counts,
)
from rieszvox.verify import _blob, check_theta_bound


def oracle_counts(sets):
    """N_s by looping over every triple of occupied cells."""
    dim = sets[0].dim
    out = {s: 0 for s in itertools.product((-1, -2), repeat=dim)}
    cells = [[tuple(int(x) for x in g) for g in e.global_indices()] for e in sets]
    for a in cells[0]:
        for b in cells[1]:
            for c in cells[2]:
                s = tuple(a[i] + b[i] + c[i] for i in range(dim))
                if s in out:
                    out[s] += 1
    return out


@st.composite
def small_set(draw, dim, origin):
    """At most 8 occupied cells in a box of side <= 4; one draw in ten is empty."""
    shape = tuple(draw(st.integers(1, 4)) for _ in range(dim))
    size = math.prod(shape)
    n = 0 if draw(st.integers(0, 9)) == 0 else min(8, size)
    flat = draw(st.sets(st.integers(0, size - 1), min_size=min(1, n), max_size=n))
    occ = np.zeros(size, dtype=bool)
    occ[sorted(flat)] = True
    return VoxelSet.from_index(occ.reshape(shape), origin, 1.0 / 8)


@st.composite
def small_triple(draw):
    dim = draw(st.integers(1, 3))
    # far-apart boxes whose origins nearly cancel, so counts can be nonzero
    far = st.integers(-(10**6), 10**6)
    o1 = np.array([draw(far) for _ in range(dim)], dtype=np.int64)
    o2 = np.array([draw(far) for _ in range(dim)], dtype=np.int64)
    o3 = -(o1 + o2) + np.array(
        [draw(st.integers(-10, 0)) for _ in range(dim)], dtype=np.int64
    )
    return tuple(draw(small_set(dim, o)) for o in (o1, o2, o3))


@seed(11)
@settings(max_examples=300, deadline=None)
@given(small_triple())
def test_both_backends_match_triple_loop(sets):
    want = oracle_counts(sets)
    for method in ("fft", "direct"):
        got = trilinear_corner_counts(sets, method=method)
        assert got == want
        assert all(type(v) is int for v in got.values())


def _cluster_set(draw, dim, origin, far):
    """One or two clusters of cells, the second up to `far` cells away, as
    relocate leaves a set: a wide box with little in it."""
    cells = []
    for offset in ([0] * dim, [draw(st.integers(0, far)) for _ in range(dim)]):
        for _ in range(draw(st.integers(1, 4))):
            cells.append([o + draw(st.integers(0, 2)) for o in offset])
    if draw(st.booleans()):
        cells = cells[:1]  # one cell
    return from_cells(np.asarray(cells) + origin, dim, 1.0 / 8)


@st.composite
def windowed_triple(draw):
    # the third set's offset from -(o1 + o2) reaches past both ends of the
    # corner window, so windows come clipped, partial and empty
    dim = draw(st.integers(1, 3))
    o1 = np.array([draw(st.integers(-50, 50)) for _ in range(dim)])
    o2 = np.array([draw(st.integers(-50, 50)) for _ in range(dim)])
    o3 = -(o1 + o2) + np.array([draw(st.integers(-40, 4)) for _ in range(dim)])
    return tuple(_cluster_set(draw, dim, o, far=30) for o in (o1, o2, o3))


@seed(12)
@settings(max_examples=200, deadline=None)
@given(windowed_triple())
def test_fft_window_matches_direct_and_triple_loop(sets):
    want = oracle_counts(sets)
    for k in range(3):  # each set in turn is the one gathered
        order = sets[k:] + sets[:k]
        assert trilinear_corner_counts(order, "fft") == want
        assert trilinear_corner_counts(order, "direct") == want


@pytest.mark.parametrize("side", ["above", "below"])
def test_empty_window_gives_zeros_without_a_transform(monkeypatch, side):
    # every index sum a + b + c lies above -1 or below -2 on axis 0
    rng = np.random.default_rng(4)
    e1, e2 = (VoxelSet.from_index(rng.random((3, 4)) < 0.7, o, 0.125) for o in ((2, -5), (7, 1)))
    shift = 0 if side == "above" else -(3 + 3 + 4 + 1)
    o3 = -(e1.origin_index + e2.origin_index) + (shift, 0)
    sets = (e1, e2, VoxelSet.from_index(np.ones((4, 2), bool), o3, 0.125))
    want = oracle_counts(sets)
    assert set(want.values()) == {0}

    def refuse(*args, **kwargs):
        raise AssertionError("no transform or histogram for an empty window")

    monkeypatch.setattr(functional, "fftconvolve", refuse)
    monkeypatch.setattr(functional.np, "bincount", refuse)
    for k in range(3):  # the window is empty whichever set is read last
        order = sets[k:] + sets[:k]
        assert trilinear_corner_counts(order, "fft") == want
        assert trilinear_corner_counts(order, "direct") == want


@pytest.mark.parametrize(
    "shapes,fold",
    [(((5,), (7,)), (8,)), (((3, 4), (2, 6)), (3, 9)), (((4, 3, 2), (5, 2, 3)), (5, 4, 3))],
)
def test_fftconvolve_at_a_shape_is_the_folded_full_conv(shapes, fold):
    rng = np.random.default_rng(sum(fold))
    a, b = ((rng.random(n) < 0.5).astype(np.float64) for n in shapes)
    full = scipy_fftconvolve(a, b)
    want = np.zeros(fold)
    idx = np.indices(full.shape).reshape(full.ndim, -1)
    np.add.at(want, tuple(i % n for i, n in zip(idx, fold)), full.reshape(-1))
    got = functional.fftconvolve(a, b, fold)
    assert got.shape == fold
    assert np.abs(got - want).max() < 1e-12


def test_triple_loop_sees_nonzero_counts():
    # a single cell of each set whose indices sum to each corner
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        for corner in itertools.product((-1, -2), repeat=dim):
            a = rng.integers(-50, 50, size=dim)
            b = rng.integers(-50, 50, size=dim)
            c = np.asarray(corner) - a - b
            one = np.ones((1,) * dim, bool)
            sets = [VoxelSet.from_index(one, g, 0.25) for g in (a, b, c)]
            want = {s: int(s == corner) for s in oracle_counts(sets)}
            assert oracle_counts(sets) == want
            for method in ("fft", "direct"):
                assert trilinear_corner_counts(sets, method=method) == want


def test_direct_matches_fft_on_dense_blobs():
    for dim, h in ((1, 1.0 / 256), (2, 1.0 / 24), (3, 1.0 / 10)):
        t = SetTriple(
            [
                generate("blob", {"dim": dim, "spacing": h, "radius": 0.5, "steps": 4}, seed=s)
                for s in (7, 8, 9)
            ]
        )
        assert trilinear_corner_counts(t, "direct") == trilinear_corner_counts(t, "fft")


@pytest.mark.parametrize("block", [1, 7, 40])
def test_direct_blocks_sum_to_one_histogram(monkeypatch, block):
    rng = np.random.default_rng(block)
    o1, o2 = rng.integers(-9, 9, size=(2, 2))
    sets = [
        VoxelSet.from_index(rng.random((5, 6)) < 0.6, o, 0.125)
        for o in (o1, o2, -(o1 + o2) - (7, 8))
    ]
    want = trilinear_corner_counts(sets, "direct")
    assert want == oracle_counts(sets)
    assert min(want.values()) > 0
    monkeypatch.setattr(functional, "_PAIR_BLOCK", block)
    assert trilinear_corner_counts(sets, "direct") == want


def test_pair_guard_message(monkeypatch):
    rng = np.random.default_rng(2)
    sets = [
        VoxelSet.from_index(rng.random((6, 6)) < 0.5, (0, 0), 1.0 / 8) for _ in range(3)
    ]
    n1, n2 = sorted(e.count for e in sets)[:2]
    # every origin is 0, so the corner window is empty: the guard fires first
    monkeypatch.setattr(functional, "DIRECT_PAIR_GUARD", n1 * n2 - 1)
    with pytest.raises(ValueError) as exc:
        trilinear_corner_counts(sets, method="direct")
    assert str(exc.value) == (
        f"direct path guard exceeded: {n1} * {n2} > {n1 * n2 - 1}"
    )
    # the guard is on the pair count itself: n1 * n2 pairs are allowed
    monkeypatch.setattr(functional, "DIRECT_PAIR_GUARD", n1 * n2)
    assert trilinear_corner_counts(sets, "direct") == trilinear_corner_counts(sets, "fft")


@pytest.mark.parametrize(
    "shapes", [((5,), (7,)), ((1, 3), (4, 1)), ((1, 1), (1, 1)), ((6, 5, 4), (3, 7, 2))]
)
def test_fftconvolve_matches_scipy_signal(shapes):
    # the one real FFT product at the full linear size against
    # scipy.signal's full convolution
    rng = np.random.default_rng(len(shapes[0]))
    a, b = ((rng.random(n) < 0.5).astype(np.float64) for n in shapes)
    want = scipy_fftconvolve(a, b)
    got = functional.fftconvolve(a, b, want.shape)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("noise", [0.2, 0.3])
def test_fft_rounding_is_certified(monkeypatch, noise):
    rng = np.random.default_rng(5)
    sets = [
        VoxelSet.from_index(rng.random((5, 6)) < 0.6, o, 0.125)
        for o in ((0, 0), (0, 0), (-7, -8))
    ]
    want = trilinear_corner_counts(sets, "direct")
    assert min(want.values()) > 0
    fft = functional.fftconvolve
    monkeypatch.setattr(functional, "fftconvolve", lambda *args: fft(*args) + noise)
    if noise < 0.25:  # still rounds to the exact counts
        assert trilinear_corner_counts(sets, "fft") == want
    else:
        with pytest.raises(ValueError, match="fft corner counts are not exact: .* 0.3 "):
            trilinear_corner_counts(sets, "fft")


def test_certificate_covers_every_window_value(monkeypatch):
    # a value 0.7 from its integer raises wherever it sits in the window the
    # corners read, clipped at both ends here; off the window it is never
    # read and the counts stay exact
    rng = np.random.default_rng(6)
    e1, e2 = (VoxelSet.from_index(rng.random((3, 4)) < 0.7, o, 0.125) for o in ((3, -2), (-4, 5)))
    o3 = -(e1.origin_index + e2.origin_index) + (-6, -9)
    sets = (e1, e2, VoxelSet.from_index(rng.random((4, 3)) < 0.7, o3, 0.125))
    want = oracle_counts(sets)
    assert sum(want.values()) > 0
    g = sum(e.origin_index for e in sets)
    full = np.add(e1.shape, e2.shape) - 1
    reads = {tuple(s - g - k) for s in want for k in np.ndindex(sets[2].shape)}
    window = {j for j in reads if all(0 <= x < n for x, n in zip(j, full))}
    assert len(window) == 4 * 2

    fft, lengths = functional.fftconvolve, []
    monkeypatch.setattr(functional, "fftconvolve", lambda *a: lengths.append(a[2]) or fft(*a))
    assert trilinear_corner_counts(sets, "fft") == want
    raised = set()
    for cell in np.ndindex(*lengths[0]):

        def off(*args, cell=cell):
            out = fft(*args)
            out[cell] += 0.7
            return out

        monkeypatch.setattr(functional, "fftconvolve", off)
        try:
            assert trilinear_corner_counts(sets, "fft") == want
        except ValueError as exc:
            assert str(exc).startswith("fft corner counts are not exact")
            raised.add(cell)
    assert raised == window


def _theta_line_per_triple(rng):
    # the check as written before it shared decompositions: one
    # theta_bound_check call, and so three decompositions, per layer triple
    worst = 0.0
    for _ in range(5):
        seeds = rng.integers(0, 2**31, size=3)
        t = SetTriple([_blob(2, int(s)) for s in seeds])
        keys = [sorted(dyadic_layers(e).layers) for e in t]
        for k in itertools.product(*keys):
            lhs, rhs, ratio = theta_bound_check(t, k)
            worst = max(worst, ratio)
            if lhs > rhs:
                return False, f"violated at k={k}"
    return True, f"max lhs/rhs = {worst:.3f}"


@pytest.mark.parametrize("rng_seed", [0, 17])
def test_check_theta_bound_line_unchanged(rng_seed):
    got = check_theta_bound(np.random.default_rng(rng_seed))
    want = _theta_line_per_triple(np.random.default_rng(rng_seed))
    assert got == want


def test_theta_bound_check_missing_layer():
    t = SetTriple([_blob(2, s) for s in (1, 2, 3)])
    top = max(dyadic_layers(t[1]).layers) + 1
    k = (min(dyadic_layers(t[0]).layers), top, min(dyadic_layers(t[2]).layers))
    with pytest.raises(ValueError, match=f"empty layer k={top}"):
        theta_bound_check(t, k)


BAD_SPACINGS = [0.0, -1.0 / 16, float("nan"), float("inf")]


@pytest.mark.parametrize("h", BAD_SPACINGS)
def test_rasterize_ellipsoid_rejects_spacing(h):
    ball = SimpleNamespace(center=np.zeros(2), shape=np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            rasterize_ellipsoid(ball, h)
    assert str(exc.value) == f"spacing must be finite and positive, got {h}"


@pytest.mark.parametrize("h", BAD_SPACINGS)
def test_rasterize_affine_image_rejects_spacing(h):
    e = _blob(2, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            rasterize_affine_image(e, np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), h)
    assert str(exc.value) == f"spacing must be finite and positive, got {h}"
