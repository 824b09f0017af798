"""Bad numbers are rejected where they enter: every public entry point that
takes a measure triple, a radius triple, a count or a linear map raises a
ValueError that names the argument on NaN, inf, a negative value, the wrong
length or a fractional count, and a generator's number also on a list or a
word.  Every entry point that takes three sets checks them with SetTriple.
Valid input gives the same bits as before the checks moved to grid.py."""

import dataclasses
import inspect
import math
import re
import struct
from functools import partial

import numpy as np
import pytest

import rieszvox
from rieszvox import (
    AffineMapTriple,
    Ellipsoid,
    RadiusTriple,
    SetTriple,
    SweepConfig,
    VoxelSet,
    affine_regress_centers,
    apply_family,
    center_compatibility,
    deficit,
    dyadic_layers,
    fit_homothetic_triple,
    from_cells,
    generate,
    lambda_1,
    lambda_d,
    load,
    measure_margin,
    normalize_special_dilation,
    radius_margin,
    rasterize_affine_image,
    reflect,
    run_sweep,
    set_triple_margin,
    slice_center_field,
    slice_margin_profile,
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
from rieszvox import grid
from rieszvox.cli import main
from rieszvox.grid import check_integer
from rieszvox.sweep import FAMILIES, perturb_noise, perturb_relocate, skew_columns
from rieszvox.verify import run_suite

from reference_lens import lambda_3_over_4pi2

NAN, INF = math.nan, math.inf
H = 1.0 / 16
BALL = generate("ball", {"dim": 2, "spacing": H, "radius": 0.5})
TRIPLE = SetTriple([BALL, BALL, BALL])
K0 = min(dyadic_layers(BALL).layers)
HALF = (0.5, 0.5, 0.5)
RNG = np.random.default_rng

BAD_TRIPLES = {
    "nan": (1.0, 1.0, NAN),
    "inf": (1.0, 1.0, INF),
    "negative": (1.0, 1.0, -1.0),
    "length": (1.0, 1.0),
}
BAD_SCALARS = {
    "nan": NAN, "inf": INF, "negative": -1, "fraction": 2.5, "zero": 0,
    "list": [1.0, 2.0], "text": "abc",
}

# (entry point, argument name, call taking the bad triple)
TRIPLE_ENTRIES = [
    ("RadiusTriple", "radii", RadiusTriple),
    ("RadiusTriple.from_measures", "gamma", lambda g: RadiusTriple.from_measures(g, 2)),
    ("lambda_1", "gamma", lambda_1),
    ("lambda_d-2", "gamma", lambda g: lambda_d(g, 2)),
    ("lambda_d-3", "gamma", lambda g: lambda_d(g, 3)),
    ("superadditivity_gap-alpha", "alpha", lambda g: superadditivity_gap(g, HALF, 2)),
    ("superadditivity_gap-beta", "beta", lambda g: superadditivity_gap(HALF, g, 2)),
    ("radius_margin", "radii", radius_margin),
    ("measure_margin", "gamma", lambda g: measure_margin(g, 2)),
    ("slice_margin_profile", "radii", lambda g: slice_margin_profile(g, (0.0, 0.0, 0.0))),
]


def _family(family):
    return lambda level: apply_family(TRIPLE, family, level, RNG(0))


def _theta_with(k=K0, projection=1.0, measure=1.0):
    return theta([(K0, 1.0, 1.0), (K0, 1.0, 1.0), (k, projection, measure)])


# (entry point, argument name, the bad values that apply, call taking one);
# a negative layer index, level or slope is valid
POSITIVE, FINITE, COUNT = "nan inf negative", "nan inf", "nan inf negative fraction"
AT_LEAST_1 = COUNT + " zero"
NUMBER = POSITIVE + " list text"  # what the CLI's --param hands a generator
ONE_CELL = SweepConfig(dim=1, spacing=H, levels=(0.1,), samples=1)
SCALAR_ENTRIES = [
    ("theta", "projections", POSITIVE, lambda x: _theta_with(projection=x)),
    ("theta", "layer measures", POSITIVE, lambda x: _theta_with(measure=x)),
    ("theta", "k", "nan inf fraction", lambda n: _theta_with(k=n)),
    ("theta_bound_check", "constant", POSITIVE, lambda x: theta_bound_check(TRIPLE, (K0,) * 3, x)),
    ("theta_bound_check", "k", "nan inf fraction", lambda n: theta_bound_check(TRIPLE, (n, 0, 0))),
    ("strong_triangle_rho", "tau", NUMBER, lambda x: strong_triangle_rho(x, 0.25, 1, 10)),
    ("strong_triangle_rho", "eta", NUMBER, lambda x: strong_triangle_rho(0.5, x, 1, 10)),
    ("strong_triangle_rho", "samples", AT_LEAST_1, lambda n: strong_triangle_rho(0.5, 0.25, 1, n)),
    (
        "strong_triangle_rho", "dim", AT_LEAST_1 + " text",
        lambda n: strong_triangle_rho(0.5, 0.25, n, 10),
    ),
    ("strong_triangle_rho", "seed", COUNT, lambda n: strong_triangle_rho(0.5, 0.25, 1, 10, seed=n)),
    (
        "center_compatibility", "samples", AT_LEAST_1,
        lambda n: center_compatibility(TRIPLE, samples=n),
    ),
    ("center_compatibility", "seed", COUNT, lambda n: center_compatibility(TRIPLE, seed=n)),
    # a negative axis counts from the last
    ("slice_center_field", "axis", "nan inf fraction list text", partial(slice_center_field, BALL)),
    ("VoxelSet.empty", "dim", AT_LEAST_1, lambda n: VoxelSet.empty(n, H)),
    ("generate", "step", NUMBER, lambda x: generate("blob", {"spacing": H, "step": x})),
    ("generate", "span", NUMBER, lambda x: generate("union_of_balls", {"spacing": H, "span": x})),
    ("generate", "radius", NUMBER, lambda x: generate("ball", {"spacing": H, "radius": x})),
    ("generate", "jitter", NUMBER, lambda x: generate("blob", {"spacing": H, "jitter": x})),
    ("generate", "spacing", NUMBER + " zero", lambda x: generate("ball", {"spacing": x})),
    ("generate", "dim", AT_LEAST_1, lambda n: generate("ball", {"spacing": H, "dim": n})),
    ("generate", "seed", COUNT, lambda n: generate("ball", {"spacing": H}, seed=n)),
    ("run_suite", "seed", COUNT, lambda n: run_suite(seed=n, out=None)),
    ("from_cells", "dim", AT_LEAST_1, lambda n: from_cells([[0]], n, H)),
    ("measure_margin", "dim", AT_LEAST_1, lambda n: measure_margin(HALF, n)),
    ("RadiusTriple.from_measures", "dim", AT_LEAST_1, partial(RadiusTriple.from_measures, HALF)),
    ("RadiusTriple.measures", "dim", AT_LEAST_1, RadiusTriple(HALF).measures),
    ("run_sweep", "max_workers", AT_LEAST_1, lambda n: run_sweep(ONE_CELL, max_workers=n)),
    ("perturb_noise", "noise level", NUMBER, lambda x: perturb_noise(BALL, x, RNG(0))),
    ("perturb_relocate", "relocate fraction", NUMBER, lambda x: perturb_relocate(BALL, x)),
    ("apply_family", "noise level", NUMBER, _family("noise")),
    ("apply_family", "relocate fraction", NUMBER, _family("relocate")),
    ("skew_columns", "slope", FINITE + " text", lambda x: skew_columns(BALL, [x])),
    (
        "slice_margin_profile", "slice parameters", FINITE + " text",
        lambda x: slice_margin_profile((1, 1, 1), (0.0, x, 0.0)),
    ),
    ("SweepConfig", "spacing", POSITIVE, lambda x: SweepConfig(spacing=x)),
    ("SweepConfig", "levels", FINITE, lambda x: SweepConfig(levels=(0.1, x))),
    ("SweepConfig", "samples", COUNT, lambda n: SweepConfig(samples=n)),
    ("SweepConfig", "seed", COUNT, lambda n: SweepConfig(seed=n)),
    ("SweepConfig", "dim", COUNT, lambda n: SweepConfig(dim=n)),
    (
        "normalize_special_dilation", "c_band", COUNT + " text",
        lambda n: normalize_special_dilation(TRIPLE, n),
    ),
]

EYE, ZERO = np.eye(2), np.zeros(2)
SHIFTS = [ZERO, ZERO, ZERO]
# (case, argument name, call); the linear map and its translations share
# one check, whether they enter by AffineMapTriple or rasterize_affine_image
AFFINE_CASES = [
    ("map-nan", "linear map", lambda: AffineMapTriple([[1.0, NAN], [0.0, 1.0]], SHIFTS)),
    ("map-inf", "linear map", lambda: AffineMapTriple([[INF, 0.0], [0.0, 1.0]], SHIFTS)),
    ("map-singular", "linear map", lambda: AffineMapTriple([[1.0, 2.0], [2.0, 4.0]], SHIFTS)),
    ("map-shape", "linear map", lambda: AffineMapTriple(np.eye(3)[:2], SHIFTS)),
    ("shift-nan", "translation", lambda: AffineMapTriple(EYE, [[NAN, 0], [0, 0], [0, 0]])),
    ("shift-inf", "translation", lambda: AffineMapTriple(EYE, [[INF, 0], [-INF, 0], [0, 0]])),
    ("shift-length", "translation", lambda: AffineMapTriple(EYE, np.zeros((3, 3)))),
    ("shift-count", "translations", lambda: AffineMapTriple(EYE, [ZERO, ZERO])),
    ("raster-map-nan", "linear map", lambda: rasterize_affine_image(BALL, EYE + NAN, ZERO, H)),
    ("raster-map-inf", "linear map", lambda: rasterize_affine_image(BALL, EYE + INF, ZERO, H)),
    ("raster-map-singular", "linear map", lambda: rasterize_affine_image(BALL, EYE * 0, ZERO, H)),
    ("raster-map-shape", "linear map", lambda: rasterize_affine_image(BALL, np.eye(3), ZERO, H)),
    ("raster-shift-nan", "translation", lambda: rasterize_affine_image(BALL, EYE, [NAN, 0], H)),
    ("raster-shift-inf", "translation", lambda: rasterize_affine_image(BALL, EYE, [0, INF], H)),
    ("raster-shift-length", "translation", lambda: rasterize_affine_image(BALL, EYE, [0, 0, 0], H)),
    ("shear-nan", "linear map", lambda: _family("shear")(NAN)),
    ("shear-inf", "linear map", lambda: _family("shear")(INF)),
]


# (case, parameter, kind, params): a generator's center, shape or axes that
# is not the dim (shape: dim^2) numbers of the set is rejected by name
VECTOR_CASES = [
    ("ball-center-text", "center", "ball", {"center": "abc"}),
    ("ball-center-length", "center", "ball", {"center": [0, 0, 0]}),
    ("blob-center-length", "center", "blob", {"center": [0.0]}),
    ("ellipsoid-center-text", "center", "ellipsoid", {"center": "abc"}),
    ("ellipsoid-shape-text", "shape", "ellipsoid", {"shape": "abc"}),
    ("ellipsoid-shape-3x3", "shape", "ellipsoid", {"shape": np.eye(3)}),
    ("ellipsoid-axes-text", "axes", "ellipsoid", {"axes": "abc"}),
    ("ellipsoid-axes-length", "axes", "ellipsoid", {"axes": [1, 2, 3]}),
]


def _named(name):
    # the argument's name, then its complaint
    return rf"\b{re.escape(name)}\b.*\bmust\b"


@pytest.mark.parametrize(
    "call,value,name",
    [
        pytest.param(call, value, name, id=f"{entry}-{kind}")
        for entry, name, call in TRIPLE_ENTRIES
        for kind, value in BAD_TRIPLES.items()
    ]
    + [
        pytest.param(call, BAD_SCALARS[kind], name, id=f"{entry}-{name}-{kind}")
        for entry, name, kinds, call in SCALAR_ENTRIES
        for kind in kinds.split()
    ],
)
def test_bad_value_is_rejected_by_name(call, value, name):
    with pytest.raises(ValueError, match=_named(name)):
        call(value)


@pytest.mark.parametrize("call,name", [pytest.param(c, n, id=i) for i, n, c in AFFINE_CASES])
def test_bad_affine_map_is_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=_named(name)):
        call()


@pytest.mark.parametrize(
    "name,kind,params", [pytest.param(n, k, p, id=i) for i, n, k, p in VECTOR_CASES]
)
def test_bad_generator_vector_is_rejected_by_name(name, kind, params):
    with pytest.raises(ValueError, match=rf"^{name} needs \d+ numbers at dim 2, got "):
        generate(kind, {"spacing": H, **params})


@pytest.mark.parametrize(
    "call,name",
    [
        pytest.param(lambda: theta([(K0, 1.0, 1.0)] * 2), "layer_records", id="theta"),
        pytest.param(lambda: theta_bound_check(TRIPLE, (K0,) * 4), "k", id="theta_bound_check"),
        pytest.param(lambda: skew_columns(BALL, [0.1, 0.1]), "slope", id="skew_columns"),
        pytest.param(lambda: SweepConfig(levels=()), "levels", id="SweepConfig-levels-empty"),
        pytest.param(lambda: SweepConfig(levels=0.1), "levels", id="SweepConfig-levels-scalar"),
        # noise and relocate levels lie in [0, 1]; the config rejects them
        # before run_sweep computes any record
        pytest.param(
            lambda: SweepConfig(family="noise", levels=(0.1, 0.2, 2.0)), "levels",
            id="SweepConfig-noise-levels-above-1",
        ),
        pytest.param(
            lambda: SweepConfig(family="relocate", levels="-0.1,0.2"), "levels",
            id="SweepConfig-relocate-levels-below-0",
        ),
        pytest.param(lambda: slice_center_field(BALL, 2), "axis", id="slice_center_field-axis-2"),
        pytest.param(lambda: slice_center_field(BALL, -3), "axis", id="slice_center_field-axis--3"),
        pytest.param(
            lambda: VoxelSet.from_index(np.ones((2, 2), bool), [0.5, -0.7], H), "origin_index",
            id="VoxelSet.from_index",
        ),
        pytest.param(
            lambda: slice_margin_profile((1, 1, 1), (0.0, NAN, 0.0)), "slice parameters",
            id="slice_margin_profile",
        ),
        pytest.param(
            lambda: affine_regress_centers({(0.0,): 0.0, (1.0,): 1.0}, {(0.0,): NAN, (1.0,): 1.0}),
            "weights",
            id="affine_regress_centers",
        ),
        # a weights mapping without a key of field used to escape as a KeyError
        pytest.param(
            lambda: affine_regress_centers({(0.0,): 0.0, (1.0,): 1.0}, {(0.0,): 1.0}),
            "weights",
            id="affine_regress_centers-missing-key",
        ),
        pytest.param(lambda: run_suite("fats", out=None), "suite", id="run_suite"),
        # cells must be an (n, dim) array of integral values
        pytest.param(lambda: from_cells([[1, 2]], 1, H), "cells", id="from_cells-width"),
        pytest.param(lambda: from_cells([1, 2], 1, H), "cells", id="from_cells-flat"),
        pytest.param(lambda: from_cells([[0.5, 0]], 2, H), "cells", id="from_cells-fraction"),
        pytest.param(lambda: from_cells([[NAN, 0]], 2, H), "cells", id="from_cells-nan"),
        pytest.param(lambda: from_cells([[1e300, 0]], 2, H), "cells", id="from_cells-huge"),
        pytest.param(lambda: from_cells([[0, 0], [1]], 2, H), "cells", id="from_cells-ragged"),
        pytest.param(lambda: from_cells([[True, False]], 2, H), "cells", id="from_cells-bool"),
    ],
)
def test_wrong_length_or_range_is_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=_named(name)):
        call()


def test_integral_floats_still_count():
    assert SweepConfig(dim=2.0, samples=3.0, seed=4.0) == SweepConfig(dim=2, samples=3, seed=4)
    assert theta([(2.0, 1.0, 1.0), (2, 1.0, 1.0), (np.int64(2), 1.0, 1.0)]) == 1.0
    assert VoxelSet.from_index(np.ones((1, 1), bool), [1.0, -2.0], H).origin_index.tolist() == [1, -2]
    assert strong_triangle_rho(0.5, 0.25, 1, samples=50.0) == strong_triangle_rho(
        0.5, 0.25, 1, samples=50
    )
    cells = from_cells(np.array([[1, -2], [0, 3]], np.int32), 2, H)
    assert from_cells([[1.0, -2.0], [0.0, 3.0]], 2.0, H) == cells
    assert from_cells([], 2, H).is_empty
    assert generate("blob", {"spacing": H}, seed=3.0) == generate("blob", {"spacing": H}, seed=3)
    assert center_compatibility(TRIPLE, seed=3.0) == center_compatibility(TRIPLE, seed=3)
    assert slice_center_field(BALL, -2) == slice_center_field(BALL, 0.0)
    assert slice_center_field(BALL, -1) == slice_center_field(BALL)
    assert VoxelSet.empty(2.0, H) == VoxelSet.empty(2, H)


def test_integer_text_is_read_exactly():
    # 2**53 + 1 is not a float; text that is not an integer goes through one
    big = 2**53 + 1
    assert check_integer(str(big), "seed") == big
    assert [check_integer(t, "n") for t in (" -3 ", "+3", "3.0", "1e3")] == [-3, 3, 3, 1000]
    with pytest.raises(ValueError, match=re.escape("n must be an integer, got -+3")):
        check_integer("-+3", "n")
    assert generate("blob", {"spacing": H}, seed=str(big)) == generate(
        "blob", {"spacing": H}, seed=big
    )


def test_levels_outside_the_unit_interval_name_the_family():
    with pytest.raises(ValueError, match=r"levels must lie in \[0, 1\] for family 'relocate'"):
        SweepConfig(family="relocate", levels=(0.5, 1.5))
    # shear and skew levels are a shear coefficient and a slope
    assert SweepConfig(family="shear", levels=(-2.0, 2.0)).levels == (-2.0, 2.0)
    assert SweepConfig(family="skew", levels=(-2.0, 2.0)).levels == (-2.0, 2.0)


def _seed_and_axis_parameters():
    # (entry, parameter) for each parameter named seed or axis of a function
    # rieszvox exports or of a public method of a class it exports; a
    # constructor is left out, since a record such as LayerDecomposition
    # holds an axis it was given and acts on none
    out = set()
    for name, obj in vars(rieszvox).items():
        if inspect.isfunction(obj):
            members = [(name, obj)]
        elif inspect.isclass(obj):
            members = [
                (f"{name}.{m}", getattr(obj, m))
                for m, attr in vars(obj).items()
                if not m.startswith("_")
                and (inspect.isfunction(attr) or isinstance(attr, (classmethod, staticmethod)))
            ]
        else:
            continue
        for entry, fn in members:
            out |= {(entry, p) for p in inspect.signature(fn).parameters if p in ("seed", "axis")}
    return out


def test_every_seed_and_axis_has_a_row():
    rows = {(entry, name) for entry, name, _, _ in SCALAR_ENTRIES}
    assert sorted(_seed_and_axis_parameters() - rows) == []


def test_special_dilation_takes_a_list_of_three_sets():
    want, r, rho = normalize_special_dilation(TRIPLE, 0)
    got, r_list, rho_list = normalize_special_dilation([BALL, BALL, BALL], 0.0)
    assert (r_list, rho_list) == (r, rho)
    assert list(got) == list(want)


# -- set triples -------------------------------------------------------------
# Every public function that takes three sets reads them through SetTriple.

SETS = [BALL, translate_cells(BALL, (1, 0)), translate_cells(BALL, (0, -2))]


def _perturbed(family, t):
    return apply_family(t, family, 0.1, RNG(0))


def _counted(counts):
    return sum(counts.values())


# (entry point, call taking a triple, and with one member empty: the message
# of the ValueError it raises, or the map from its result to T, which is 0)
TRIPLE_TAKERS = [
    ("trilinear_corner_counts-fft", partial(trilinear_corner_counts, method="fft"), _counted),
    ("trilinear_corner_counts-direct", partial(trilinear_corner_counts, method="direct"), _counted),
    ("trilinear_form", trilinear_form, float),
    ("trilinear_form_direct", trilinear_form_direct, float),
    ("deficit", deficit, "degenerate triple: zero ball functional"),
    ("fit_homothetic_triple", fit_homothetic_triple, "cannot fit an empty set"),
    ("center_compatibility", center_compatibility, "center compatibility needs three sets of"),
    ("theta_bound_check", lambda t: theta_bound_check(t, (K0,) * 3), f"empty layer k={K0}"),
    (
        "normalize_special_dilation", lambda t: normalize_special_dilation(t, 0),
        "special dilations need three sets of",
    ),
    ("set_triple_margin", set_triple_margin, "gamma must be three finite positive numbers"),
    ("AffineMapTriple.apply", AffineMapTriple(EYE, SHIFTS).apply, trilinear_form),
] + [(f"apply_family-{f}", partial(_perturbed, f), trilinear_form) for f in FAMILIES]


def _exact(x):
    # x with each array as its dtype, shape and bytes, so == compares bits
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return tuple(_exact(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list, SetTriple)):
        return tuple(map(_exact, x))
    return x


@pytest.mark.parametrize("call", [pytest.param(c, id=i) for i, c, _ in TRIPLE_TAKERS])
def test_a_list_of_three_sets_is_a_triple(call):
    assert _exact(call(SETS)) == _exact(call(SetTriple(SETS)))


NOT_A_TRIPLE = {
    "array-member": [BALL, BALL, BALL.occupancy], "two-sets": [BALL, BALL], "none": None,
}


@pytest.mark.parametrize("bad", [pytest.param(v, id=k) for k, v in NOT_A_TRIPLE.items()])
@pytest.mark.parametrize("call", [pytest.param(c, id=i) for i, c, _ in TRIPLE_TAKERS])
def test_anything_but_three_voxel_sets_is_rejected(call, bad):
    with pytest.raises(ValueError, match=r"\bthree VoxelSets\b"):
        call(bad)


@pytest.mark.parametrize("position", range(3))
@pytest.mark.parametrize(
    "call,outcome", [pytest.param(c, o, id=i) for i, c, o in TRIPLE_TAKERS]
)
def test_an_empty_member_gives_zero_t_or_a_named_error(call, outcome, position):
    sets = list(SETS)
    sets[position] = VoxelSet.empty(2, H)
    if callable(outcome):
        assert outcome(call(sets)) == 0
    else:
        with pytest.raises(ValueError, match=re.escape(outcome)):
            call(sets)


def test_zero_measures_keep_lambda_zero():
    assert lambda_1((0.0, 1.0, 1.0)) == 0.0
    assert lambda_d((1.0, 0.0, 1.0), 3) == 0.0
    assert superadditivity_gap((0.0, 0.0, 0.0), HALF, 2) == 0.0


# -- valid input keeps its bits --------------------------------------------
# These values were computed before the checks moved to grid.py.  The d=3
# LAMBDA_D_BITS, the d=3 rho and the d=2 superadditivity gap were re-pinned,
# each by at most 4.4e-15 relative, when the lens of Lambda_d became one cap
# formula for every dimension; test_lambda_3_is_exact_in_the_float_radii
# checks Lambda_3 against exact arithmetic.

LAMBDA1_BITS = {
    (1.0, 1.0, 1.0): "0x1.8000000000000p-1",
    (1.0, 1.0, 2.0): "0x1.0000000000000p+0",
    (1.0, 1.0, 3.0): "0x1.0000000000000p+0",
    (1.0, 0.8, 0.9): "0x1.31eb851eb8520p-1",
    (0.5, 0.5, 0.5): "0x1.8000000000000p-3",
    (0.3, 0.5, 2.0): "0x1.3333333333333p-3",
    (0.0, 1.0, 1.0): "0x0.0p+0",
    (0.7, 0.2, 0.6): "0x1.e147ae147ae12p-4",
}

# (tau, eta, dim, samples, seed): the calls of the functional and acceptance
# tests, and shorter runs at d = 2 and 3
RHO_BITS = {
    (0.5, 0.25, 1, 2000, 1): "0x1.8b7794a52071bp-3",
    (0.5, 0.01, 1, 4000, 2): "0x1.158de3c1caf29p-6",
    (0.5, 0.25, 1, 4000, 2): "0x1.4863589dbc1f9p-3",
    (0.5, 0.25, 1, 10000, 0): "0x1.ffc92e6cc1988p-4",
    (0.5, 0.25, 2, 300, 0): "0x1.850eff9ebcf68p-3",
    (0.3, 0.2, 3, 100, 5): "0x1.a518b1c5e2616p-4",
}

RADIUS_MARGIN_BITS = {
    (1.0, 0.9, 0.8): ("0x1.6666666666668p-1", "0x1.999999999999ap-1"),
    (1.0, 1.0, 2.0): ("0x0.0p+0", "0x1.0000000000000p-1"),
    (1.0, 1.0, 3.0): ("-0x1.5555555555555p-2", "0x1.5555555555555p-2"),
    (0.35, 0.2, 0.3): ("0x1.b6db6db6db6ddp-2", "0x1.2492492492493p-1"),
}

MEASURE_MARGIN_BITS = {
    ((3.1, 2.2, 1.7), 1): ("0x1.0842108421086p-2", "0x1.18c6318c6318cp-1"),
    ((3.1, 2.2, 1.7), 2): ("0x1.2a79199f636acp-1", "0x1.7b26f6431edbfp-1"),
    ((3.1, 2.2, 1.7), 3): ("0x1.6bc635cf2735fp-1", "0x1.a314ffc8e6e24p-1"),
    ((0.5, 0.5, 0.5), 3): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ((1.0, 0.2, 0.6), 1): ("-0x1.9999999999998p-3", "0x1.999999999999ap-3"),
    ((1.0, 0.2, 0.6), 2): ("0x1.c64475c7da4d0p-3", "0x1.c9f25c5bfedd9p-2"),
    ((1.0, 0.2, 0.6), 3): ("0x1.b6838dc63c2acp-2", "0x1.2b6b5edf6b54ap-1"),
}

LAMBDA_D_BITS = {
    ((3.1, 2.2, 1.7), 2): "0x1.72fc2a47407f9p+1",
    ((3.1, 2.2, 1.7), 3): "0x1.2bb47a48d124dp+1",
    ((1.0, 0.2, 0.6), 2): "0x1.d264e7fad63cap-4",
    ((1.0, 0.2, 0.6), 3): "0x1.8d767b7ab20d8p-4",
}


@pytest.mark.parametrize("gamma,bits", LAMBDA1_BITS.items())
def test_lambda_1_bits(gamma, bits):
    assert lambda_1(gamma) == float.fromhex(bits)


@pytest.mark.parametrize("key,bits", LAMBDA_D_BITS.items())
def test_lambda_d_bits(key, bits):
    assert lambda_d(*key) == float.fromhex(bits)


@pytest.mark.parametrize("args,bits", RHO_BITS.items())
def test_strong_triangle_rho_bits(args, bits):
    tau, eta, dim, samples, seed = args
    assert strong_triangle_rho(tau, eta, dim, samples=samples, seed=seed) == float.fromhex(bits)


@pytest.mark.parametrize("r,bits", RADIUS_MARGIN_BITS.items())
def test_radius_margin_bits(r, bits):
    rep = radius_margin(r)
    assert (rep.margin, rep.min_over_max) == tuple(map(float.fromhex, bits))


@pytest.mark.parametrize("key,bits", MEASURE_MARGIN_BITS.items())
def test_measure_margin_bits(key, bits):
    rep = measure_margin(*key)
    assert (rep.margin, rep.min_over_max) == tuple(map(float.fromhex, bits))


def test_superadditivity_and_slice_bits():
    assert superadditivity_gap(HALF, HALF, 2) == float.fromhex("0x1.2c4a2a0d3c432p-2")
    assert superadditivity_gap((0.3, 0.1, 0.2), (0.4, 0.5, 0.3), 3) == float.fromhex(
        "0x1.456174f07d810p-4"
    )
    margin = slice_margin_profile((1.0, 0.9, 0.8), (0.6, -0.3, 0.1)).margin
    assert margin == float.fromhex("0x1.b7c7dde5c37b7p-1")


def _lambda_3_exact(gamma):
    # Lambda_3 in exact arithmetic on the float radii lambda_d computes
    w = unit_ball_volume(3)
    radii = sorted(((x / w) ** (1.0 / 3) for x in gamma), reverse=True)
    return 4 * math.pi**2 * float(lambda_3_over_4pi2(*radii))


LAMBDA_3_CASES = [key[0] for key in LAMBDA_D_BITS if key[1] == 3] + [
    tuple(g) for g in np.random.default_rng(23).uniform(0.05, 3.0, (300, 3))
]


def test_lambda_3_is_exact_in_the_float_radii():
    # random measures put the kink |r1 - r2| on either side of r3
    worst = max(abs(lambda_d(g, 3) / _lambda_3_exact(g) - 1.0) for g in LAMBDA_3_CASES)
    assert worst <= 1e-14


@pytest.mark.parametrize("key,bits", LAMBDA_D_BITS.items())
def test_lambda_d_reads_dim_text(key, bits):
    gamma, dim = key
    assert lambda_d(gamma, str(dim)) == float.fromhex(bits)


def _load_header_of_dim(dim, tmp_path):
    # a VXG1 file of one occupied cell whose header claims dim axes
    path = tmp_path / "x.vxg"
    header = struct.pack(f"<BB{dim}Id{dim}d", 1, dim, *[1] * dim, H, *[0.0] * dim)
    path.write_bytes(grid.VXG_MAGIC + header + b"\x01")
    return load(path)


def _gen_of_dim(dim, tmp_path):
    # the CLI prints the library's message and exits 2, writing nothing
    out = tmp_path / "x.vxg"
    assert main(["gen", "ball", "--dim", str(dim), "--spacing", "0.5", "--out", str(out)]) == 2
    assert not out.exists()


DIM_ENTRIES = {
    "Ellipsoid": lambda d, _: Ellipsoid(np.zeros(d), np.eye(d)),
    "VoxelSet.from_index": lambda d, _: VoxelSet.from_index(np.ones((1,) * d, bool), (0,) * d, H),
    "VoxelSet.empty": lambda d, _: VoxelSet.empty(d, H),
    "from_cells": lambda d, _: from_cells(np.zeros((1, d), dtype=int), d, H),
    "load": _load_header_of_dim,
    "generate": lambda d, _: generate("ball", {"dim": d, "spacing": 0.5}),
    "SweepConfig": lambda d, _: SweepConfig(dim=d, spacing=0.5),
    "lambda_d": lambda d, _: lambda_d(HALF, d),
    "superadditivity_gap": lambda d, _: superadditivity_gap(HALF, HALF, d),
    "strong_triangle_rho": lambda d, _: strong_triangle_rho(0.5, 0.1, d, 4),
    "rieszvox gen": _gen_of_dim,
}


@pytest.mark.parametrize("dim", [0, 4])
@pytest.mark.parametrize("entry", DIM_ENTRIES)
def test_one_dimension_rule(monkeypatch, tmp_path, capsys, entry, dim):
    # every entry point that takes a dimension raises check_dim's message,
    # and none reaches a rasterization kernel first
    built = []
    for name in ("_ellipsoid_sample_counts", "_affine_sample_counts"):
        monkeypatch.setattr(grid, name, lambda *args, name=name: built.append(name))
    message = f"dim must be 1, 2, or 3, got {dim}"
    if entry == "rieszvox gen":
        DIM_ENTRIES[entry](dim, tmp_path)
        assert capsys.readouterr().err == f"rieszvox: error: {message}\n"
    else:
        with pytest.raises(ValueError) as err:
            DIM_ENTRIES[entry](dim, tmp_path)
        assert str(err.value) == message
    assert built == []


LINE = generate("ball", {"dim": 1, "spacing": H, "radius": 0.5})
# entries that work on columns or slices of a set; skew_columns used to end
# in numpy's "cannot reshape array of size 0"
TWO_DIM_ENTRIES = {
    "skew_columns": (lambda: skew_columns(LINE, []), "skew columns need dim >= 2"),
    "dyadic_layers": (lambda: dyadic_layers(LINE), "dyadic layers need dim >= 2"),
    "slice_center_field": (lambda: slice_center_field(LINE), "slice fields need dim >= 2"),
}


@pytest.mark.parametrize("call,message", TWO_DIM_ENTRIES.values(), ids=TWO_DIM_ENTRIES)
def test_a_one_dim_set_is_rejected_by_dim(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# Each path that makes an origin: given physically or as an index, or
# computed by an upscale or a translation.  Each used to store a wrapped
# int64 (-2**63, or 0), with at most a numpy RuntimeWarning.
ONE_CELL_2D = np.ones((1, 1), dtype=bool)
ORIGIN_PAST_THE_BOUND = {
    "VoxelSet": lambda: VoxelSet(ONE_CELL_2D, [1e20, 0.0], 1.0),
    # origin / spacing overflows to inf, which used to warn
    "VoxelSet-overflow": lambda: VoxelSet(ONE_CELL_2D, [1e300, 0.0], 1e-10),
    "from_index": lambda: VoxelSet.from_index(ONE_CELL_2D, [1e20, 0], 1.0),
    "upscale_integer": lambda: upscale_integer(
        VoxelSet.from_index(ONE_CELL_2D, [2**61, 0], 1.0), 8
    ),
    "translate_cells": lambda: translate_cells(
        VoxelSet.from_index(ONE_CELL_2D, [2**62 - 2, 0], 1.0), [2**62 + 2, 0]
    ),
}


@pytest.mark.parametrize("call", ORIGIN_PAST_THE_BOUND.values(), ids=ORIGIN_PAST_THE_BOUND)
def test_origin_past_the_bound_is_rejected(call):
    with pytest.raises(ValueError, match="origin must keep the box within 2\\*\\*62 cells"):
        call()


def test_origin_bound_holds_the_box_and_its_reflection():
    # |origin| and |origin + shape| below 2**62: the box [2**62 - 3, 2**62 - 1)
    # fits, its reflection [-2**62 + 1, -2**62 + 3) too, one cell more does not
    occ = np.ones((2, 1), dtype=bool)
    top = VoxelSet.from_index(occ, [2**62 - 3, 0], 1.0)
    assert reflect(top).origin_index.tolist() == [-(2**62) + 1, -1]
    assert reflect(reflect(top)) == top
    for origin in ([2**62 - 2, 0], [-(2**62), 0]):
        with pytest.raises(ValueError, match="origin must keep"):
            VoxelSet.from_index(occ, origin, 1.0)
