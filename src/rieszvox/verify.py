"""Self-check suites over randomized corpora: count-exact identities first,
then tolerance-based inequalities. Each check returns (ok, detail) where
detail reports the worst case observed."""

import itertools
import os
import tempfile

import numpy as np

from . import functional, symmetrize
from .admissibility import measure_margin, radius_margin
from .ellipsoid import _columns, fit_ellipsoid_moments, fit_homothetic_triple
from .functional import (
    deficit,
    lambda_d,
    superadditivity_gap,
    trilinear_corner_counts,
    trilinear_form,
)
from .grid import SetTriple, boolean, check_integer, generate, load, reflect, save, upscale_integer

H = 1.0 / 32


def _blob(dim, seed, h=H):
    return generate("blob", {"dim": dim, "spacing": h, "radius": 0.5, "steps": 4}, seed=seed)


def _ball(dim, r):
    return generate("ball", {"dim": dim, "spacing": 1.0 / 64, "radius": r}, seed=0)


# The random sets of every check come from _blobs and _triples.  Both are
# lazy: a check draws its seeds in the order it uses its sets.


def _blobs(rng, dims):
    """One blob per entry of dims, each seeded by one draw."""
    for dim in dims:
        yield _blob(dim, int(rng.integers(2**31)))


def _triples(rng, dims=(1, 2, 3), per_dim=3, h=H):
    """per_dim blob triples per dim at spacing h, each seeded by one draw of
    three."""
    for dim in dims:
        for _ in range(per_dim):
            seeds = rng.integers(0, 2**31, size=3)
            yield SetTriple([_blob(dim, int(s), h=h) for s in seeds])


def check_boolean_counts(rng):
    worst = ""
    blobs = _blobs(rng, (1, 1, 2, 2, 3, 3))
    for a, b in zip(blobs, blobs):
        u = boolean(a, b, "union").count
        i = boolean(a, b, "intersection").count
        d = boolean(a, b, "difference").count
        if u + i != a.count + b.count or d != a.count - i:
            return False, f"inclusion-exclusion broken at dim={a.dim}"
        worst = f"dim={a.dim}: |A|={a.count} |B|={b.count} ok"
    return True, worst


def check_reflection_involution(rng):
    for e in _blobs(rng, (1, 2, 3)):
        r = reflect(e)
        if r.count != e.count:
            return False, f"reflection changed count at dim={e.dim}"
        if not (reflect(r) == e):
            return False, f"double reflection differs at dim={e.dim}"
    return True, "count and involution exact in dims 1..3"


def check_io_roundtrip(rng):
    for e in _blobs(rng, (1, 2, 3)):
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "e.vxg")
            save(e, path)
            back = load(path)
        if not (back == e) or back.spacing != e.spacing:
            return False, f"round trip differs at dim={e.dim}"
    return True, "bit-exact round trip in dims 1..3"


def check_fft_direct_agree(rng):
    total = 0
    # spacings sized so the direct path stays under its pair-count guard
    for dim, h in ((1, 1.0 / 128), (2, 1.0 / 32), (3, 1.0 / 12)):
        for t in _triples(rng, (dim,), h=h):
            a = trilinear_corner_counts(t, method="fft")
            b = trilinear_corner_counts(t, method="direct")
            if a != b:
                mism = {s: (a[s], b[s]) for s in a if a[s] != b[s]}
                return False, f"corner count mismatch {mism}"
            total += sum(a.values())
    return True, f"all corner counts identical ({total} solutions checked)"


def check_permutation_symmetry(rng):
    for t in _triples(rng, per_dim=2):
        base = trilinear_form(t)
        for perm in ((1, 2, 0), (2, 1, 0), (0, 2, 1)):
            v = trilinear_form(SetTriple([t[i] for i in perm]))
            if v != base:
                return False, f"T changed under permutation {perm}"
    return True, "T exactly permutation invariant"


def check_reflection_invariance(rng):
    for t in _triples(rng, per_dim=2):
        v = trilinear_form(t)
        w = trilinear_form(SetTriple([reflect(e) for e in t]))
        if v != w:
            return False, "T changed under common reflection"
    return True, "T exactly reflection invariant"


def check_dilation_covariance(rng):
    # T is h^(2 dim) 2^(-dim) times the corner-count sum, so refining the
    # grid by m multiplies that integer sum by exactly m^(2 dim)
    for t in _triples(rng, dims=(1, 2), per_dim=2):
        base = sum(trilinear_corner_counts(t).values())
        for m in (2, 3):
            up = SetTriple([upscale_integer(e, m) for e in t])
            if sum(trilinear_corner_counts(up).values()) != m ** (2 * t.dim) * base:
                return False, f"dilation m={m} broke covariance"
    return True, "integer refinements reproduce T exactly"


def check_symmetrize_counts(rng):
    for e in _blobs(rng, (2, 3, 1)):
        # dim=1 checks the fiber op only
        ops = symmetrize.OPS if e.dim > 1 else {"star": symmetrize.OPS["star"]}
        for name, op in ops.items():
            s = op(e)
            if s.count != e.count:
                return False, f"{name} changed count at dim={e.dim}"
            if not (op(s) == s):
                return False, f"{name} not idempotent at dim={e.dim}"
    return True, "counts preserved, all ops idempotent"


def check_double_symmetrization_fixed_point(rng):
    for e in _blobs(rng, (2, 3)):
        ds = symmetrize.double_symmetrize(e)
        if not (symmetrize.schwarz_symmetrize(ds) == ds):
            return False, f"transverse op moves the double result at dim={e.dim}"
        if not (symmetrize.steiner_symmetrize(ds) == ds):
            return False, f"fiber op moves the double result at dim={e.dim}"
    return True, "double symmetrization fixed by both component ops"


def check_steiner_fibers(rng):
    # a fiber's interval residual is 0 exactly when it is one run; at the
    # suite's dyadic h that run starts at -((n + 1) // 2) exactly when its
    # centroid is 0 (n even) or -h/2 (n odd)
    for e in _blobs(rng, (1, 2, 3)):
        s = symmetrize.steiner_symmetrize(e)
        _, center, length, residual = _columns(s, s.dim - 1)
        if np.any(residual != 0):
            return False, "fiber not contiguous"
        n = length / s.spacing
        bad = np.flatnonzero(center != -(n % 2) * s.spacing / 2)
        if bad.size:
            return False, f"fiber centroid {center[bad[0]]} for n={n[bad[0]]:.0f}"
    return True, "fibers contiguous with centers offset 0 or -h/2"


def check_layer_partition(rng):
    for e in _blobs(rng, (2, 3)):
        dec = symmetrize.dyadic_layers(e)
        total = sum(layer.count for layer in dec.layers.values())
        if total != e.count:
            return False, f"layer counts do not partition at dim={e.dim}"
        # each projection is an integer column count times h^(d-1), exactly
        # so at the suite's dyadic h
        cols = [m / e.spacing ** (e.dim - 1) for m in dec.projections.values()]
        if any(c % 1 for c in cols) or sum(cols) != e.occupancy.any(axis=-1).sum():
            return False, "projection measures inconsistent"
    return True, "layers partition cells, projections consistent"


def check_riesz_sobolev(rng):
    worst = 0.0
    for t in _triples(rng, per_dim=3):
        rep = deficit(t)
        ratio = rep.t_value / rep.lambda_value
        worst = max(worst, ratio)
        if ratio > 1.02:
            return False, f"T/Lambda = {ratio:.4f}"
    return True, f"max T/Lambda = {worst:.4f}"


def check_admissibility_invariance(rng):
    for _ in range(20):
        r = rng.random(3) + 0.2
        m0 = radius_margin(r).margin
        m1 = radius_margin(r[[2, 0, 1]]).margin
        m2 = radius_margin(r * 3.7).margin
        if abs(m0 - m1) > 1e-12 or abs(m0 - m2) > 1e-12:
            return False, "margin not permutation/scale invariant"
    return True, "margin invariant under permutation and scaling"


def check_lambda_anchors(rng):
    # (measures, dim, value, tolerance): Lambda_1 in closed form, Lambda_2 and
    # Lambda_3 of three unit balls by their quadrature
    table = (
        ((1.0, 1.0, 1.0), 1, 0.75, 1e-12),
        ((1.0, 1.0, 2.0), 1, 1.0, 1e-12),
        ((1.0, 0.8, 0.9), 1, 0.5975, 1e-12),
        ((0.5, 0.5, 0.5), 1, 0.1875, 1e-12),
        ((1.0, 1.0, 1.0), 2, 1 - 3 * np.sqrt(3) / (4 * np.pi), 1e-7),
        ((1.0, 1.0, 1.0), 3, 15.0 / 32.0, 1e-7),
    )
    for g, dim, want, tol in table:
        got = lambda_d(g, dim)
        if abs(got - want) > tol:
            return False, f"lambda_{dim}{g} = {got}"
    return True, "closed forms match the quadrature"


def check_superadditivity(rng):
    worst = 0.0
    for dim in (1, 2):
        done = 0
        while done < 25:
            g = rng.random(3) + 0.5
            if not measure_margin(g, dim).strict:
                continue
            u = rng.random(3)
            gap = superadditivity_gap(g * u, g * (1 - u), dim)
            lam = lambda_d(tuple(g), dim)
            worst = min(worst, gap / lam)
            if gap < -1e-6 * lam:
                return False, f"negative gap {gap:.3e}"
            done += 1
    return True, f"min gap/Lambda = {worst:.2e}"


def check_symmetrization_monotone(rng):
    worst = 0.0
    for t in _triples(rng, dims=(1, 2)):
        tv = trilinear_form(t)
        op = symmetrize.steiner_symmetrize if t.dim == 1 else symmetrize.double_symmetrize
        sv = trilinear_form(SetTriple([op(e) for e in t]))
        rel = (tv - sv) / max(sv, 1e-30)
        worst = max(worst, rel)
        if tv > sv * 1.01:
            return False, f"T rose by {rel:.3%} under symmetrization"
    return True, f"max relative rise {worst:.3%} (<= 1% slack)"


def check_theta_bound(rng):
    worst = 0.0
    for t in _triples(rng, dims=(2,), per_dim=5):
        decs = [symmetrize.dyadic_layers(e) for e in t]
        for k in itertools.product(*(sorted(d.layers) for d in decs)):
            lhs, rhs, ratio = functional._theta_bound(decs, k)
            worst = max(worst, ratio)
            if lhs > rhs:
                return False, f"violated at k={k}"
    return True, f"max lhs/rhs = {worst:.3f}"


def check_moment_fit_recovery(rng):
    worst = 0.0
    for dim in (2, 3):
        r = 0.6 + 0.3 * rng.random()
        e = _ball(dim, r)
        fit = fit_ellipsoid_moments(e)
        rel = abs(fit.measure - e.measure) / e.measure
        worst = max(worst, rel)
        if rel > 0.05:
            return False, f"fit measure off by {rel:.3%}"
    return True, f"max measure mismatch {worst:.3%}"


def check_fit_epsilon_on_balls(rng):
    t = SetTriple([_ball(2, r) for r in (1.0, 0.9, 0.8)])
    fit = fit_homothetic_triple(t)
    eps = float(fit.epsilons.max())
    if eps > 0.05:
        return False, f"epsilon {eps:.3f} on exact balls"
    return True, f"max epsilon {eps:.3f} on a concentric ball triple"


def check_deficit_nonnegative(rng):
    worst = -1.0
    for t in _triples(rng, per_dim=2):
        rep = deficit(t)
        if rep.delta < -1e-9:
            return False, f"delta = {rep.delta:.3e}"
        worst = max(worst, rep.delta)
    return True, f"all deltas in [0, {worst:.3f}]"


FAST_CHECKS = (
    ("boolean counts", check_boolean_counts),
    ("reflection involution", check_reflection_involution),
    ("vxg round trip", check_io_roundtrip),
    ("fft vs direct counts", check_fft_direct_agree),
    ("permutation symmetry", check_permutation_symmetry),
    ("reflection invariance", check_reflection_invariance),
    ("dilation covariance", check_dilation_covariance),
    ("symmetrization counts", check_symmetrize_counts),
    ("double symmetrization fixed point", check_double_symmetrization_fixed_point),
    ("steiner fiber convention", check_steiner_fibers),
    ("layer partition", check_layer_partition),
    ("upper bound T <= Lambda", check_riesz_sobolev),
    ("admissibility invariance", check_admissibility_invariance),
    ("lambda anchors", check_lambda_anchors),
)

ALL_CHECKS = FAST_CHECKS + (
    ("superadditivity", check_superadditivity),
    ("symmetrization monotone", check_symmetrization_monotone),
    ("theta layer bound", check_theta_bound),
    ("moment fit recovery", check_moment_fit_recovery),
    ("fit epsilon on balls", check_fit_epsilon_on_balls),
    ("deficit nonnegative", check_deficit_nonnegative),
)
SUITES = ("fast", "all")


def run_suite(suite="fast", seed=0, out=print):
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {suite!r}")
    checks = FAST_CHECKS if suite == "fast" else ALL_CHECKS
    rng = np.random.default_rng(check_integer(seed, "seed", low=0))
    failures = 0
    width = max(len(name) for name, _ in checks)
    for name, fn in checks:
        ok, detail = fn(rng)
        failures += not ok
        out(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    out(f"{len(checks) - failures}/{len(checks)} checks passed")
    return failures
