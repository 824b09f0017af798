"""Bad numbers are rejected where they enter: every public entry point that
takes a measure triple, a radius triple, a count or a linear map raises a
ValueError that names the argument on NaN, inf, a negative value, the wrong
length or a fractional count, and a generator's number also on a list or a
word.  Valid input gives the same bits as before the checks moved to
grid.py."""

import math
import re
from functools import partial

import numpy as np
import pytest

from rieszvox import (
    AffineMapTriple,
    RadiusTriple,
    SetTriple,
    SweepConfig,
    VoxelSet,
    affine_regress_centers,
    apply_family,
    center_compatibility,
    dyadic_layers,
    generate,
    lambda_1,
    lambda_d,
    measure_margin,
    radius_margin,
    rasterize_affine_image,
    run_sweep,
    slice_margin_profile,
    strong_triangle_rho,
    superadditivity_gap,
    theta,
    theta_bound_check,
)
from rieszvox.sweep import perturb_noise, perturb_relocate, skew_columns

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
    ("strong_triangle_rho", "tau", POSITIVE, lambda x: strong_triangle_rho(x, 0.25, 1, 10)),
    ("strong_triangle_rho", "samples", COUNT, lambda n: strong_triangle_rho(0.5, 0.25, 1, n)),
    (
        "center_compatibility", "samples", AT_LEAST_1,
        lambda n: center_compatibility(TRIPLE, samples=n),
    ),
    ("generate", "step", NUMBER, lambda x: generate("blob", {"spacing": H, "step": x})),
    ("generate", "span", NUMBER, lambda x: generate("union_of_balls", {"spacing": H, "span": x})),
    ("generate", "radius", NUMBER, lambda x: generate("ball", {"spacing": H, "radius": x})),
    ("generate", "jitter", NUMBER, lambda x: generate("blob", {"spacing": H, "jitter": x})),
    ("generate", "spacing", NUMBER + " zero", lambda x: generate("ball", {"spacing": x})),
    ("measure_margin", "dim", AT_LEAST_1, lambda n: measure_margin(HALF, n)),
    ("RadiusTriple.from_measures", "dim", AT_LEAST_1, partial(RadiusTriple.from_measures, HALF)),
    ("RadiusTriple.measures", "dim", AT_LEAST_1, RadiusTriple(HALF).measures),
    ("run_sweep", "max_workers", AT_LEAST_1, lambda n: run_sweep(ONE_CELL, max_workers=n)),
    ("perturb_noise", "noise level", POSITIVE, lambda x: perturb_noise(BALL, x, RNG(0))),
    ("perturb_relocate", "relocate fraction", POSITIVE, lambda x: perturb_relocate(BALL, x)),
    ("apply_family", "noise level", POSITIVE, _family("noise")),
    ("apply_family", "relocate fraction", POSITIVE, _family("relocate")),
    ("skew_columns", "slope", FINITE, lambda x: skew_columns(BALL, [x])),
    ("SweepConfig", "spacing", POSITIVE, lambda x: SweepConfig(spacing=x)),
    ("SweepConfig", "levels", FINITE, lambda x: SweepConfig(levels=(0.1, x))),
    ("SweepConfig", "samples", COUNT, lambda n: SweepConfig(samples=n)),
    ("SweepConfig", "seed", COUNT, lambda n: SweepConfig(seed=n)),
    ("SweepConfig", "dim", COUNT, lambda n: SweepConfig(dim=n)),
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


def test_zero_measures_keep_lambda_zero():
    assert lambda_1((0.0, 1.0, 1.0)) == 0.0
    assert lambda_d((1.0, 0.0, 1.0), 3) == 0.0
    assert superadditivity_gap((0.0, 0.0, 0.0), HALF, 2) == 0.0


# -- valid input keeps its bits --------------------------------------------
# These values were computed before the checks moved to grid.py.

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
    (0.3, 0.2, 3, 100, 5): "0x1.a518b1c5e2636p-4",
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
    ((3.1, 2.2, 1.7), 3): "0x1.2bb47a48d124cp+1",
    ((1.0, 0.2, 0.6), 2): "0x1.d264e7fad63cap-4",
    ((1.0, 0.2, 0.6), 3): "0x1.8d767b7ab20d9p-4",
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
    assert superadditivity_gap(HALF, HALF, 2) == float.fromhex("0x1.2c4a2a0d3c430p-2")
    assert superadditivity_gap((0.3, 0.1, 0.2), (0.4, 0.5, 0.3), 3) == float.fromhex(
        "0x1.456174f07d810p-4"
    )
    margin = slice_margin_profile((1.0, 0.9, 0.8), (0.6, -0.3, 0.1)).margin
    assert margin == float.fromhex("0x1.b7c7dde5c37b7p-1")
