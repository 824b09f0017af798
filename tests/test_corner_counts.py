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
        raise AssertionError("no transform, plan or histogram for an empty window")

    monkeypatch.setattr(functional, "fftconvolve", refuse)
    monkeypatch.setattr(functional.np, "bincount", refuse)
    monkeypatch.setattr(functional, "_direct_plan", refuse)
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
    for window in _random_windows(rng, fold):
        got = functional.fftconvolve(a, b, fold, window)
        assert got.shape == want[window].shape
        assert np.abs(got - want[window]).max() < 1e-12


def _random_windows(rng, shape, count=12):
    """The whole shape, then count random boxes of it, as slice tuples."""
    yield tuple(slice(0, n) for n in shape)
    for _ in range(count):
        ends = (np.sort(rng.choice(n + 1, size=2, replace=False)) for n in shape)
        yield tuple(slice(int(lo), int(hi)) for lo, hi in ends)


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


def _direct_factor(e):
    # the entries a set enters the direct histogram with: two run ends per
    # last-axis run, the runs counted where the occupancy steps up
    steps = np.diff(e.occupancy.astype(np.int8), axis=-1, prepend=0)
    return 2 * np.count_nonzero(steps == 1)


def test_pair_guard_message(monkeypatch):
    # the guard bounds the pairs the histogram forms: the product of the
    # run ends of the two smallest sets
    rng = np.random.default_rng(2)
    occs = [rng.random((6, 6)) < 0.5, np.ones((6, 6), bool), np.ones((6, 6), bool)]
    occs[1][2] = False
    # the third set sits where the corners fall inside the window, since an
    # empty window forms no pair and so checks no guard
    origins = ((0, 0), (0, 0), (-9, -9))
    sets = [VoxelSet.from_index(o, g, 1.0 / 8) for o, g in zip(occs, origins)]
    small = sorted(sets, key=lambda e: e.count)[:2]
    n1, n2 = (e.count for e in small)
    p1, p2 = (_direct_factor(e) for e in small)
    # the random set has more run ends than cells, the square fewer
    assert p1 > n1 and p2 < n2
    monkeypatch.setattr(functional, "DIRECT_PAIR_GUARD", p1 * p2 - 1)
    with pytest.raises(ValueError) as exc:
        trilinear_corner_counts(sets, method="direct")
    assert str(exc.value) == (
        f"direct path guard exceeded: {p1} * {p2} > {p1 * p2 - 1}"
    )
    # the guard is on the pair count itself: p1 * p2 pairs are allowed
    monkeypatch.setattr(functional, "DIRECT_PAIR_GUARD", p1 * p2)
    assert trilinear_corner_counts(sets, "direct") == trilinear_corner_counts(sets, "fft")


def test_pair_guard_spares_an_empty_window(monkeypatch):
    # three 4x4 squares, the last 100 cells out on each axis: the window is
    # empty, so the 8 * 8 run-end pairs are never formed and direct, as fft,
    # returns zeros under a guard of 10
    square = np.ones((4, 4), bool)
    sets = [VoxelSet.from_index(square, o, 1.0 / 8) for o in ((0, 0), (0, 0), (100, 100))]
    monkeypatch.setattr(functional, "DIRECT_PAIR_GUARD", 10)
    zeros = dict.fromkeys(itertools.product((-1, -2), repeat=2), 0)
    assert trilinear_corner_counts(sets, "fft") == zeros
    assert trilinear_corner_counts(sets, "direct") == zeros


def _patterned(kind, shape, origin):
    # checker: every last-axis run is one cell, so run ends outnumber cells;
    # solid: two of every three last-axis lines are full, two ends per line
    idx = np.indices(shape)
    if kind == "checker":
        occ = idx.sum(axis=0) % 2 == 0
    else:
        lines = np.arange(math.prod(shape[:-1])).reshape(shape[:-1]) % 3 != 1
        occ = np.broadcast_to(lines[..., None], shape).copy()
    return VoxelSet.from_index(occ, origin, 1.0 / 8)


@pytest.fixture
def direct_entries(monkeypatch):
    """Records (set, entries) of each set the direct path histograms, and
    the pair sums each bincount forms."""
    seen = {"sets": [], "pairs": 0}
    run_ends, bincount = functional._run_ends, np.bincount

    def spy_entries(e, shape):
        idx = run_ends(e, shape)
        seen["sets"].append((e, idx.size))
        return idx

    def spy_bincount(x, *args, **kwargs):
        seen["pairs"] += x.size
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(functional, "_run_ends", spy_entries)
    monkeypatch.setattr(functional.np, "bincount", spy_bincount)
    return seen


def _direct_sees_run_ends(sets, seen):
    # direct == fft == the triple loop, and the two smallest sets entered
    # with two run ends per last-axis run each
    want = oracle_counts(sets)
    assert sum(want.values()) > 0
    assert trilinear_corner_counts(sets, "direct") == want
    assert trilinear_corner_counts(sets, "fft") == want
    (e1, p1), (e2, p2) = seen["sets"]
    assert sorted([e1.count, e2.count]) == sorted(e.count for e in sets)[:2]
    assert (p1, p2) == (_direct_factor(e1), _direct_factor(e2))
    assert seen["pairs"] == p1 * p2
    return (e1, p1), (e2, p2)


def _far_origins(rng, shape):
    # far-apart origins whose sum lands the corners mid-box
    o1, o2 = rng.integers(-(10**6), 10**6, size=(2, len(shape)))
    return o1, o2, -(o1 + o2) - 3 * np.asarray(shape) // 2


@pytest.mark.parametrize("dim,shape", [(1, (6,)), (2, (4, 6)), (3, (3, 4, 6))])
@pytest.mark.parametrize(
    "kinds,differenced",
    [
        (("checker",) * 3, {False}),
        (("solid",) * 3, {True}),
        (("checker", "solid", "solid"), {False, True}),
    ],
)
def test_direct_entries_cells_or_run_ends(direct_entries, dim, shape, kinds, differenced):
    # differenced says, for each of the two smallest sets, whether its run
    # ends are fewer than its cells; either way the set enters as its run
    # ends, so a checker set enters with twice its cells
    origins = _far_origins(np.random.default_rng(dim), shape)
    sets = [_patterned(k, shape, o) for k, o in zip(kinds, origins)]
    small = _direct_sees_run_ends(sets, direct_entries)
    assert {p < e.count for e, p in small} == differenced


@pytest.mark.parametrize("rng_seed", [0, 1])
@pytest.mark.parametrize("dim,shape", [(1, (40,)), (2, (8, 9)), (3, (4, 5, 6))])
def test_direct_enters_run_ends_of_random_sets(direct_entries, dim, shape, rng_seed):
    # cells of density 0.3: short runs, some of one cell
    rng = np.random.default_rng(rng_seed)
    sets = [
        VoxelSet.from_index(rng.random(shape) < 0.3, o, 1.0 / 8)
        for o in _far_origins(rng, shape)
    ]
    _direct_sees_run_ends(sets, direct_entries)


@pytest.mark.parametrize(
    "shapes", [((5,), (7,)), ((1, 3), (4, 1)), ((1, 1), (1, 1)), ((6, 5, 4), (3, 7, 2))]
)
def test_fftconvolve_matches_scipy_signal(shapes):
    # the axis-by-axis FFT product at the full linear size, on random
    # windows, against scipy.signal's full convolution
    rng = np.random.default_rng(len(shapes[0]))
    a, b = ((rng.random(n) < 0.5).astype(np.float64) for n in shapes)
    want = scipy_fftconvolve(a, b)
    for window in _random_windows(rng, want.shape):
        got = functional.fftconvolve(a, b, want.shape, window)
        assert got.shape == want[window].shape
        assert np.abs(got - want[window]).max() < 1e-12


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
    # corners read, clipped at both ends here; the product returns the
    # window's values, and a value it returned off the window would never
    # be read and would leave the counts exact
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

    fft, reads = functional.fftconvolve, []
    monkeypatch.setattr(
        functional, "fftconvolve", lambda *a: reads.append((a[3], fft(*a).shape)) or fft(*a)
    )
    assert trilinear_corner_counts(sets, "fft") == want
    (slices, returned), = reads
    raised = set()
    for cell in np.ndindex(*returned):

        def off(*args, cell=cell):
            out = fft(*args)
            out[cell] += 0.7
            return out

        monkeypatch.setattr(functional, "fftconvolve", off)
        try:
            assert trilinear_corner_counts(sets, "fft") == want
        except ValueError as exc:
            assert str(exc).startswith("fft corner counts are not exact")
            # the returned cell's index in the full conv
            raised.add(tuple(w.start + c for w, c in zip(slices, cell)))
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
