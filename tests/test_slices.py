"""The array-pass column statistics against the per-column loops they
replaced (tests/reference_slices.py).

Both compute the residual exactly and round it once, so residuals agree
exactly at every spacing.  At power-of-two spacings the centroid is one
rounding of a dyadic sum, so it agrees exactly too; at other spacings it
rounds in a different order, so it agrees to a few ulps of the largest
coordinate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_slices import (
    reference_center_compatibility,
    reference_dyadic_layers,
    reference_fit_interval_1d,
    reference_skew_columns,
    reference_slice_center_field,
)
from rieszvox import (
    SetTriple,
    VoxelSet,
    center_compatibility,
    dyadic_layers,
    fit_interval_1d,
    slice_center_field,
)
from rieszvox.sweep import skew_columns

DYADIC = (1.0, 1 / 2, 1 / 8, 1 / 64)
# Off the dyadic spacings each cell coordinate rounds once, so both centroids
# are within a few ulps of the largest coordinate x.
CENTER_ULPS = 4


@st.composite
def voxel_sets(draw, dim, spacing=st.sampled_from(DYADIC), origin=(-20, 20)):
    """Random occupancy in a box of up to 12 cells a side at any origin:
    fibers with holes, full fibers, and one-cell and one-column boxes."""
    shape = draw(st.tuples(*[st.integers(1, 12)] * dim))
    density = draw(st.sampled_from([0.2, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occ = rng.random(shape) < density
    occ.flat[rng.integers(occ.size)] = True
    lo = draw(st.tuples(*[st.integers(*origin)] * dim))
    return VoxelSet.from_index(occ, lo, draw(spacing))


@st.composite
def meeting_triples(draw, dim):
    """Triples whose third lead box sits near -(lead box 1 + lead box 2), so
    that most draws find a third column and some miss."""
    h = draw(st.sampled_from(DYADIC))
    sets = [draw(voxel_sets(dim, st.just(h), (-8, 8))) for _ in range(2)]
    third = draw(voxel_sets(dim, st.just(h), (0, 0)))
    lead = -(sets[0].origin_index + sets[1].origin_index)
    lead -= np.array(draw(st.tuples(*[st.integers(0, 8)] * dim)))
    lead[-1] = draw(st.integers(-20, 20))
    sets.append(VoxelSet.from_index(third.occupancy, lead, h))
    return SetTriple(sets)


def _assert_same_set(a, b):
    assert a == b
    assert a.shape == b.shape
    assert np.array_equal(a.origin_index, b.origin_index)


def _assert_same_layers(got, want):
    # repr too: the keys must stay Python ints, as printed in reports
    assert repr(got.heights) == repr(want.heights)
    assert repr(got.projections) == repr(want.projections)
    assert list(got.layers) == list(want.layers)
    for k in want.layers:
        _assert_same_set(got.layers[k], want.layers[k])


def _one_cell(dim, h):
    return VoxelSet.from_index(np.ones((1,) * dim, dtype=bool), (-3,) * dim, h)


def _one_column(dim, h):
    occ = np.array([1, 0, 1, 1, 0, 1], dtype=bool).reshape((1,) * (dim - 1) + (6,))
    return VoxelSet.from_index(occ, (-2,) * dim, h)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.tuples(voxel_sets(d), st.integers(0, d - 1))))
def test_slice_center_field_equals_reference(case):
    e, axis = case
    assert slice_center_field(e, axis) == reference_slice_center_field(e, axis)


@settings(max_examples=100, deadline=None)
@given(voxel_sets(1))
def test_fit_interval_1d_equals_reference(e):
    assert fit_interval_1d(e) == reference_fit_interval_1d(e)


@pytest.mark.parametrize("make", [_one_cell, _one_column])
@pytest.mark.parametrize("dim", [2, 3])
def test_degenerate_sets_equal_reference(make, dim):
    e = make(dim, 1 / 16)
    for axis in range(dim):
        assert slice_center_field(e, axis) == reference_slice_center_field(e, axis)
    # the third column -(g + g) - 1 of a one-column lead box
    lead = np.append(-2 * e.origin_index[:-1] - 1, e.origin_index[-1])
    t = SetTriple([e, e, VoxelSet.from_index(e.occupancy, lead, e.spacing)])
    assert center_compatibility(t) == reference_center_compatibility(t)
    _assert_same_layers(dyadic_layers(e), reference_dyadic_layers(e))
    slope = [0.7] * (dim - 1)
    _assert_same_set(skew_columns(e, slope), reference_skew_columns(e, slope))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda d: st.tuples(
            voxel_sets(d, st.sampled_from([1 / 30, 0.1])), st.integers(0, d - 1)
        )
    )
)
def test_slice_center_field_close_at_non_dyadic_spacing(case):
    e, axis = case
    got = slice_center_field(e, axis)
    want = reference_slice_center_field(e, axis)
    assert list(got) == list(want)
    box = np.concatenate([e.origin_index, e.origin_index + e.shape])
    ulp = math.ulp(float(np.abs(box).max()) * e.spacing)
    for key, fit in want.items():
        assert got[key].length == fit.length
        assert abs(got[key].center - fit.center) <= CENTER_ULPS * ulp
        assert got[key].residual == fit.residual


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 3).flatmap(meeting_triples),
    st.integers(0, 60),
    st.integers(0, 2**32 - 1),
)
def test_center_compatibility_equals_reference(t, samples, seed):
    try:
        want = reference_center_compatibility(t, samples=samples, seed=seed)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            center_compatibility(t, samples=samples, seed=seed)
        return
    assert center_compatibility(t, samples=samples, seed=seed) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(voxel_sets))
def test_dyadic_layers_equal_reference(e):
    _assert_same_layers(dyadic_layers(e), reference_dyadic_layers(e))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda d: st.tuples(
            voxel_sets(d), st.lists(st.floats(-3, 3), min_size=d - 1, max_size=d - 1)
        )
    )
)
def test_skew_columns_equals_reference(case):
    e, slope = case
    _assert_same_set(skew_columns(e, slope), reference_skew_columns(e, slope))
