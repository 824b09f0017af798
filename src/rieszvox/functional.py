"""The trilinear convolution form T, the ball functional Lambda_d, deficits,
superadditivity checks, and the layer coupling factor theta.

T(E1,E2,E3) integrates 1_{E1} * 1_{E2} against the reflection of E3.  For
voxel sets this has an exact closed form in integer cell counts: with global
cell indices a, b, c, the overlap of the unit-cell tent (1_{[a,a+1)} *
1_{[b,b+1)}) with [-c-1,-c) equals 1/2 per axis when a+b+c is -1 or -2 and
vanishes otherwise.  Hence

    T = h^(2 dim) * 2^(-dim) * sum over s in {-1,-2}^dim of N_s,
    N_s = #{(a,b,c) in G1 x G2 x G3 : a + b + c = s},

which is symmetric under permutations, invariant under reflection about the
origin (s maps to -s-3, a bijection of the corner set), and exactly
covariant under integer grid refinement, because it IS the continuum T of
the voxelized sets.

Both evaluation paths read N_s from conv = 1_E1 * 1_E2 at the cells of E3.
Per axis, with o1, o2, o3 the low-corner indices and n3 the length of E3's
box, cell k reads conv at s - (o1 + o2 + o3) - k: only the n3 + 1 indices
from start = -(o1 + o2 + o3 + n3) - 1, of which a window [lo, hi] lies in
the full linear conv of length S = n1 + n2 - 1.  The window is computed
once; an empty set or window makes every count zero with no transform and
no histogram.  Each backend returns conv on the window as exact int64:
'fft' by one real Fourier product at a fast length L per axis (rfftn,
irfftn), rounded once every window value is certified within 1/4 of its
integer; 'direct' by an int64 histogram of the pair sums a + b of the two
smallest members.  Zero-padded to n3 + 1 cells per axis and reversed, the
window holds what cell k reads for corner s at k - 1 - s, so N_s sums one
slice over the occupied cells of E3.

The FFT product at length L is the circular convolution, the full one
folded modulo L; it equals the full one on [lo, hi] when nothing folds
onto the window, that is when L >= S - lo and L >= hi + 1.  L is the fast
length above both, and above n1 and n2, so no input is truncated.
"""

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.integrate import quad

from .admissibility import measure_margin, radius_margin, set_triple_margin
from .ellipsoid import fit_homothetic_triple
from .grid import (
    SetTriple,
    VoxelSet,
    _check_aligned,
    check_integer,
    check_positive,
    check_triple,
    unit_ball_volume,
)
from .symmetrize import dyadic_layers

DIRECT_PAIR_GUARD = 10**8  # max product of the two smallest cell counts
_PAIR_BLOCK = 2 * 10**6  # pair sums held at once by the direct path


@dataclass(frozen=True)
class RadiusTriple:
    """Three finite positive ball radii; converts to and from measure triples
    at an integer dim >= 1."""

    radii: tuple

    def __post_init__(self):
        object.__setattr__(self, "radii", check_triple(self.radii, "radii"))

    @classmethod
    def from_measures(cls, gamma, dim):
        dim = check_integer(dim, "dim", low=1)
        w = unit_ball_volume(dim)
        return cls(tuple((g / w) ** (1.0 / dim) for g in check_triple(gamma, "gamma")))

    def measures(self, dim):
        dim = check_integer(dim, "dim", low=1)
        w = unit_ball_volume(dim)
        return tuple(w * r**dim for r in self.radii)


@dataclass
class DeficitReport:
    t_value: float
    lambda_value: float
    delta: float
    tau_margin: float
    fit: Optional[object] = None


# -- the trilinear form -----------------------------------------------------


def _coerce_triple(t):
    """Accept a SetTriple or any 3-sequence of aligned VoxelSets.

    The plain-sequence form may contain empty sets (T is then zero), which
    SetTriple itself rejects.
    """
    if isinstance(t, SetTriple):
        return t.sets
    sets = tuple(t)
    if len(sets) != 3 or not all(isinstance(e, VoxelSet) for e in sets):
        raise ValueError("expected a SetTriple or three VoxelSets")
    for e in sets[1:]:
        _check_aligned(sets[0], e)
    return sets


def fftconvolve(a, b, shape):
    """The circular convolution of two real arrays at shape, at least each
    input's per axis, by one FFT product."""
    return irfftn(rfftn(a, shape) * rfftn(b, shape), shape)


def trilinear_corner_counts(t, method="fft"):
    """The exact integer counts N_s for s in {-1,-2}^dim, keyed by corner.

    method 'fft' uses a Fourier convolution with entries rounded to the
    nearest integer (the true values are integers); 'direct' histograms
    the integer pair sums of occupied cells.  Both produce identical counts.
    """
    sets = _coerce_triple(t)
    if method == "direct":
        # N_s is symmetric, so histogram the pair sums of the two smallest
        # sets and read the counts at the cells of the largest
        sets = sorted(sets, key=lambda e: e.count)
        n1, n2 = sets[0].count, sets[1].count
        if n1 * n2 > DIRECT_PAIR_GUARD:
            raise ValueError(
                f"direct path guard exceeded: {n1} * {n2} > {DIRECT_PAIR_GUARD}"
            )
    elif method != "fft":
        raise ValueError(f"unknown method {method!r}")
    e1, e2, e3 = sets
    zeros = dict.fromkeys(product((-1, -2), repeat=e1.dim), 0)
    if any(e.is_empty for e in sets):
        return zeros
    # the window in plain ints, since layer triples call this many times on
    # small sets: per axis the n3 + 1 conv indices from start, of which
    # [lo, hi] lie inside the full linear conv
    low = (e1.origin_index + e2.origin_index + e3.origin_index).tolist()
    window, pad = [], []
    for n1, n2, n3, g in zip(e1.shape, e2.shape, e3.shape, low):
        start = -(g + n3) - 1
        lo, hi = max(start, 0), min(start + n3, n1 + n2 - 2)
        if hi < lo:
            return zeros
        window.append(slice(lo, hi + 1))
        pad.append(slice(lo - start, hi - start + 1))
    conv = (_conv_fft if method == "fft" else _conv_direct)(e1, e2, window)
    # reversed, the padded window holds conv[s - g - k] for cell k of E3's
    # box at k - 1 - s, so each corner reads one slice
    read = np.zeros([n + 1 for n in e3.shape], dtype=np.int64)
    read[tuple(pad)] = conv
    read = read[(slice(None, None, -1),) * e1.dim]
    occ = e3.occupancy
    return {
        s: int(read[tuple(slice(-1 - c, n - 1 - c) for c, n in zip(s, e3.shape))][occ].sum())
        for s in zeros
    }


def _conv_fft(e1, e2, window):
    # the circular convolution at a length that leaves the window unaliased
    # (module docstring), rounded once it is certified
    shape = [
        next_fast_len(max(n1 + n2 - 1 - w.start, w.stop, n1, n2), real=True)
        for n1, n2, w in zip(e1.shape, e2.shape, window)
    ]
    occ = (e.occupancy.astype(np.float64) for e in (e1, e2))
    vals = fftconvolve(*occ, shape)[tuple(window)]
    rounded = np.rint(vals)
    err = np.abs(vals - rounded).max()
    if err >= 0.25:
        raise ValueError(
            f"fft corner counts are not exact: a convolution value is "
            f"{err:.3g} from its integer; use method='direct'"
        )
    return rounded.astype(np.int64)


def _conv_direct(e1, e2, window):
    # the int64 histogram of the pair sums a + b, in blocks of pairs
    shape = tuple(int(a + b - 1) for a, b in zip(e1.shape, e2.shape))
    l1 = np.ravel_multi_index(e1.local_indices().T, shape)
    l2 = np.ravel_multi_index(e2.local_indices().T, shape)
    conv = np.zeros(math.prod(shape), dtype=np.int64)
    block = max(1, _PAIR_BLOCK // l2.size)
    for i0 in range(0, l1.size, block):
        hist = np.bincount((l1[i0 : i0 + block, None] + l2[None, :]).ravel())
        conv[: hist.size] += hist
    return conv.reshape(shape)[tuple(window)]


def _form(t, method):
    sets = _coerce_triple(t)
    h, d = sets[0].spacing, sets[0].dim
    counts = trilinear_corner_counts(sets, method)
    return h ** (2 * d) * 2.0 ** (-d) * sum(counts.values())


def trilinear_form(t):
    """T of a voxel triple via Fourier convolution, exact in counts."""
    return _form(t, "fft")


def trilinear_form_direct(t):
    """Integer-only oracle for T; identical counts to the Fourier path."""
    return _form(t, "direct")


# -- the ball functional ----------------------------------------------------


def lambda_1(gamma):
    """Lambda_1: T of centered intervals with lengths gamma.

    For admissible gamma (each entry at most the sum of the others) this is
    (2(g1 g2 + g1 g3 + g2 g3) - g1^2 - g2^2 - g3^2) / 4; when one entry
    dominates, the convolution mass saturates at the product of the two
    smallest.  Zero entries give 0; negative or non-finite ones raise.
    """
    g = check_triple(gamma, "gamma", zero_ok=True)
    if min(g) == 0.0:
        return 0.0
    s = sorted(g)
    if s[2] >= s[0] + s[1]:
        return s[0] * s[1]
    g1, g2, g3 = g
    return (
        2 * (g1 * g2 + g1 * g3 + g2 * g3) - g1 * g1 - g2 * g2 - g3 * g3
    ) / 4.0


def _lens_area_2d(r1, r2, s):
    # area of the intersection of two disks with center distance s
    if s >= r1 + r2:
        return 0.0
    if s <= abs(r1 - r2):
        return math.pi * min(r1, r2) ** 2
    d1 = (s * s + r1 * r1 - r2 * r2) / (2 * s)
    d2 = s - d1
    a1 = r1 * r1 * math.acos(max(-1.0, min(1.0, d1 / r1)))
    a2 = r2 * r2 * math.acos(max(-1.0, min(1.0, d2 / r2)))
    t1 = d1 * math.sqrt(max(0.0, r1 * r1 - d1 * d1))
    t2 = d2 * math.sqrt(max(0.0, r2 * r2 - d2 * d2))
    return a1 + a2 - t1 - t2


def _lens_volume_3d(r1, r2, s):
    # volume of the intersection of two balls with center distance s
    if s >= r1 + r2:
        return 0.0
    if s <= abs(r1 - r2):
        return 4.0 / 3.0 * math.pi * min(r1, r2) ** 3
    rrd = r1 + r2 - s
    return (
        math.pi
        * rrd
        * rrd
        * (s * s + 2 * s * r2 - 3 * r2 * r2 + 2 * s * r1 + 6 * r1 * r2 - 3 * r1 * r1)
        / (12 * s)
    )


def lambda_d(gamma, dim):
    """Lambda_dim: T of centered balls with measures gamma.

    dim=1 delegates to the closed form; dim 2 and 3 integrate the two-ball
    intersection profile radially over the smallest ball:

        Lambda = dim * omega * integral_0^r3 s^(dim-1) lens(r1, r2, s) ds

    with a quadrature break at the containment radius |r1 - r2|.  gamma is
    checked as in lambda_1.
    """
    if dim == 1:
        return lambda_1(gamma)
    if dim not in (2, 3):
        raise ValueError("dim must be 1, 2, or 3")
    g = check_triple(gamma, "gamma", zero_ok=True)
    if min(g) == 0.0:
        return 0.0
    w = unit_ball_volume(dim)
    r1, r2, r3 = sorted(((x / w) ** (1.0 / dim) for x in g), reverse=True)
    lens = _lens_area_2d if dim == 2 else _lens_volume_3d
    kink = abs(r1 - r2)
    pts = [kink] if 0.0 < kink < r3 else None
    val, abserr = quad(
        lambda s: s ** (dim - 1) * lens(r1, r2, s),
        0.0,
        r3,
        points=pts,
        limit=200,
        epsabs=0.0,
        epsrel=1e-9,
    )
    # an error estimate 1000x the requested epsrel means quad did not converge
    if abserr > 1e-6 * abs(val):
        raise ValueError(
            f"Lambda_{dim} quadrature did not converge: error estimate "
            f"{abserr:.3g} for the value {val:.6g} at measures {g}"
        )
    return dim * w * val


def deficit(t, with_fit=False):
    """Deficit report: delta = 1 - T / Lambda_dim(measures).

    The reference is the continuum ball functional of the exact voxel
    measures, so a single rasterization error enters, not two.  with_fit
    attaches the homothetic ellipsoid fit and its per-set epsilons.
    """
    t = SetTriple(t)
    tv = trilinear_form(t)
    lam = lambda_d(t.measures, t.dim)
    if lam <= 0:
        raise ValueError("degenerate triple: zero ball functional")
    return DeficitReport(
        t_value=tv,
        lambda_value=lam,
        delta=1.0 - tv / lam,
        tau_margin=set_triple_margin(t).margin,
        fit=fit_homothetic_triple(t) if with_fit else None,
    )


def superadditivity_gap(alpha, beta, dim):
    """Lambda_dim(alpha + beta) - Lambda_dim(alpha) - Lambda_dim(beta).

    alpha and beta are finite nonnegative measure triple summands; their
    sum must be positive and admissible (dim-th root margin >= 0).
    """
    a = np.asarray(check_triple(alpha, "alpha", zero_ok=True))
    b = np.asarray(check_triple(beta, "beta", zero_ok=True))
    g = check_triple(a + b, "alpha + beta")
    if measure_margin(g, dim).margin < 0:
        raise ValueError("total measure triple is inadmissible")
    return lambda_d(g, dim) - lambda_d(a, dim) - lambda_d(b, dim)


def strong_triangle_rho(tau, eta, dim, samples, seed=0):
    """Empirical strict-superadditivity constant.

    Samples tau-admissible measure triples gamma and random splits
    gamma = alpha + beta; among splits with both max_j alpha_j and
    max_j beta_j at least eta * min_i gamma_i, returns the minimum of
    gap / Lambda(gamma).  The sample stream depends only on
    (tau, dim, samples, seed), never on eta, so shrinking eta can only
    enlarge the qualifying set and lower the minimum.  samples must be an
    integer >= 0.
    """
    if not (0 < tau < 1) or not (0 < eta < 1):
        raise ValueError("tau and eta must lie in (0, 1)")
    samples = check_integer(samples, "samples", low=0)
    rng = np.random.default_rng(seed)
    w = unit_ball_volume(dim)
    best = None
    found = 0
    for _ in range(samples):
        while True:  # rejection-sample a tau-admissible radius triple
            r = rng.uniform(0.2, 1.0, size=3)
            if radius_margin(r).margin >= tau:
                break
        gamma = w * r**dim
        u = rng.uniform(0.0, 1.0, size=3)
        alpha = u * gamma
        beta = gamma - alpha
        thresh = eta * gamma.min()
        if alpha.max() < thresh or beta.max() < thresh:
            continue
        lam = lambda_d(gamma, dim)
        gap = lam - lambda_d(alpha, dim) - lambda_d(beta, dim)
        ratio = gap / lam
        found += 1
        if best is None or ratio < best:
            best = ratio
    if found == 0:
        raise ValueError("no qualifying splits sampled; eta too demanding")
    return best


# -- dyadic layer coupling --------------------------------------------------


def theta(layer_records):
    """The coupling factor of three selected dyadic layers.

    layer_records is a sequence of three (k, projection_measure,
    layer_measure) records: k an integer, the measures finite and
    positive.  theta = 2^(-max|k_m - k_n|/3) * (min proj / max proj)^(1/3),
    which never exceeds 1.
    """
    recs = list(layer_records)
    if len(recs) != 3:
        raise ValueError(f"layer_records must hold three records, got {len(recs)}")
    ks = [check_integer(r[0], "k") for r in recs]
    projs = check_triple([r[1] for r in recs], "projections")
    check_triple([r[2] for r in recs], "layer measures")
    spread = max(abs(ks[i] - ks[j]) for i in range(3) for j in range(3))
    return 2.0 ** (-spread / 3.0) * (min(projs) / max(projs)) ** (1.0 / 3.0)


def theta_bound_check(t, k, constant=4.0):
    """Check T(E_{1,k1}, E_{2,k2}, E_{3,k3}) <= C theta prod |E_{j,kj}|^(2/3).

    Returns (lhs, rhs, ratio).  k is the triple of integer dyadic indices;
    each selected layer must be populated.  constant must be finite and
    positive.
    """
    t = SetTriple(t)
    return _theta_bound([dyadic_layers(e) for e in t], k, constant)


def _theta_bound(decs, k, constant=4.0):
    # theta_bound_check on the dyadic decompositions of the three sets
    ks = tuple(check_integer(x, "k") for x in k)
    if len(ks) != 3:
        raise ValueError(f"k must be three layer indices, got {k}")
    constant = check_positive(constant, "constant")
    for dec, kj in zip(decs, ks):
        if kj not in dec.layers:
            raise ValueError(f"empty layer k={kj}")
    layers = [dec.layers[kj] for dec, kj in zip(decs, ks)]
    records = [
        (kj, dec.projections[kj], lay.measure) for dec, kj, lay in zip(decs, ks, layers)
    ]
    lhs = trilinear_form(layers)
    rhs = constant * theta(records) * math.prod(m ** (2.0 / 3.0) for _, _, m in records)
    return lhs, rhs, lhs / rhs
