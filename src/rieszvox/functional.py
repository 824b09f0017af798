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
the voxelized sets.  Each function here that takes three sets passes them
through SetTriple, so a list of three aligned VoxelSets works as well, and
an empty member makes T zero.

Both evaluation paths read N_s from conv = 1_E1 * 1_E2 at the cells of E3.
Per axis, with o1, o2, o3 the low-corner indices and n3 the length of E3's
box, cell k reads conv at s - (o1 + o2 + o3) - k: only the n3 + 1 indices
from start = -(o1 + o2 + o3 + n3) - 1, of which a window [lo, hi] lies in
the full linear conv of length S = n1 + n2 - 1.  The window is computed
once; an empty set or window, in any order of the sets, makes every count
zero before either backend plans.  Each backend returns conv on the window
as exact int64: 'fft' by one real Fourier product at a fast length L per
axis, rounded once every window value is certified within 1/4 of its
integer; 'direct' by an int64 histogram of the pair sums of the two
smallest members' run ends.  Zero-padded to n3 + 1 cells per axis and
reversed, the window holds what cell k reads for corner s at k - 1 - s, so
N_s sums one slice over the occupied cells of E3.

The direct histogram works on last-axis runs.  Along the last axis the
first difference of a convolution is the convolution with one input
differenced, Δ(a * b) = (Δa) * b, and Δ of a set's indicator is +1 at
each run start and -1 one past each run end.  So each of the two sets
enters as its run ends, and the signed histogram of the pair sums,
like-signed pairs minus unlike-signed ones, becomes conv after two
cumulative sums along the last axis.  Set j enters with
p_j = 2 x (runs of set j) <= 2 n_j entries, far below n_j for sets of
long runs (a layer of whole last-axis columns is a few runs), and
DIRECT_PAIR_GUARD bounds the pairs formed, p1 * p2.

The FFT product at length L is the circular convolution, the full one
folded modulo L; it equals the full one on [lo, hi] when nothing folds
onto the window, that is when L >= S - lo and L >= hi + 1.  L is the fast
length above both, and above n1 and n2, so no input is truncated.

The product runs axis by axis, so that no transform runs over rows known
to be zero or rows the window never reads.  Each input's rfft along
the last axis covers only the rows of its own box; an fft along each
other axis, last to first, then pads that axis to L.  The two spectra
are multiplied into one, and the inverse runs first axis first, keeping
only the window's rows of each axis before the next, so the closing
irfft along the last axis transforms the window's rows alone.  For a
sweep triple at d=3, h=1/32 the window holds about 55 of L = 90 indices
per axis, so the inverse's second and last passes see three fifths and
a third of the rows.
"""

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft
from scipy.special import betainc

from .admissibility import measure_margin, radius_margin, set_triple_margin
from .ellipsoid import fit_homothetic_triple
from .grid import (
    RadiusTriple,
    SetTriple,
    check_dim,
    check_integer,
    check_positive,
    check_triple,
    float_or_nan,
    unit_ball_volume,
)
from .symmetrize import dyadic_layers

DIRECT_PAIR_GUARD = 10**8  # max pairs the direct histogram forms
_PAIR_BLOCK = 2 * 10**6  # pair sums held at once by the direct path


@dataclass
class DeficitReport:
    t_value: float
    lambda_value: float
    delta: float
    tau_margin: float
    fit: Optional[object] = None


# -- the trilinear form -----------------------------------------------------


def fftconvolve(a, b, shape, window):
    """The circular convolution of two real arrays at shape, at least each
    input's length per axis, read on window: one slice per axis within
    [0, shape).  One FFT product, axis by axis (module docstring)."""
    spec = _spectrum(a, shape)
    spec *= _spectrum(b, shape)
    for axis, rows in enumerate(window[:-1]):
        spec = ifft(spec, axis=axis, overwrite_x=True)[(slice(None),) * axis + (rows,)]
    return irfft(spec, shape[-1])[..., window[-1]]


def _spectrum(x, shape):
    # rfft along the last axis of x's own rows, then an fft along each
    # other axis, last to first, zero-padding it to its length in shape
    x = rfft(x, shape[-1])
    for axis in range(x.ndim - 2, -1, -1):
        x = fft(x, shape[axis], axis=axis, overwrite_x=True)
    return x


def trilinear_corner_counts(t, method="fft"):
    """The exact integer counts N_s for s in {-1,-2}^dim, keyed by corner.

    method 'fft' uses a Fourier convolution with entries rounded to the
    nearest integer (the true values are integers); 'direct' histograms
    the integer pair sums of last-axis run ends.  Both produce identical
    counts.
    """
    sets = SetTriple(t).sets
    if method not in ("fft", "direct"):
        raise ValueError(f"unknown method {method!r}")
    zeros = dict.fromkeys(product((-1, -2), repeat=sets[0].dim), 0)
    if any(e.is_empty for e in sets):
        return zeros
    # in plain ints, since layer triples call this many times on small sets:
    # per axis the sums a + b + c span [g, g + n1 + n2 + n3 - 3], and in any
    # order of the sets the window is empty where they miss {-2, -1}
    low = (sets[0].origin_index + sets[1].origin_index + sets[2].origin_index).tolist()
    ends = [sum(n) for n in zip(*(e.shape for e in sets))]
    if any(g >= 0 or g + n <= 0 for g, n in zip(low, ends)):
        return zeros
    if method == "direct":
        sets, shape, entries = _direct_plan(sets)
    window, pad = _window(sets, low)
    if method == "fft":
        conv = _conv_fft(sets, window)
    else:
        p1, p2 = (idx.size for idx in entries)
        if p1 * p2 > DIRECT_PAIR_GUARD:
            raise ValueError(
                f"direct path guard exceeded: {p1} * {p2} > {DIRECT_PAIR_GUARD}"
            )
        conv = _conv_direct(entries, shape, window)
    # reversed, the padded window holds conv[s - g - k] for cell k of E3's
    # box at k - 1 - s, so each corner reads one slice
    e3 = sets[2]
    read = np.zeros([n + 1 for n in e3.shape], dtype=np.int64)
    read[tuple(pad)] = conv
    read = read[(slice(None, None, -1),) * e3.dim]
    occ = e3.occupancy
    return {
        s: int(read[tuple(slice(-1 - c, n - 1 - c) for c, n in zip(s, e3.shape))][occ].sum())
        for s in zeros
    }


def _window(sets, low):
    """Per axis, the slice [lo, hi] of the full conv of the first two sets
    that the third set's cells read, and the slice it fills of the n3 + 1
    indices they read; low is the per-axis sum of the origin indices."""
    window, pad = [], []
    for n1, n2, n3, g in zip(sets[0].shape, sets[1].shape, sets[2].shape, low):
        start = -(g + n3) - 1
        lo, hi = max(start, 0), min(start + n3, n1 + n2 - 2)
        window.append(slice(lo, hi + 1))
        pad.append(slice(lo - start, hi - start + 1))
    return window, pad


def _fft_shape(sets, window):
    # per axis the fast length that leaves the window unaliased (module
    # docstring)
    return [
        next_fast_len(max(n1 + n2 - 1 - w.start, w.stop, n1, n2), real=True)
        for n1, n2, w in zip(sets[0].shape, sets[1].shape, window)
    ]


def _conv_fft(sets, window):
    # the circular convolution of the first two sets on the window,
    # rounded once it is certified
    e1, e2 = sets[:2]
    vals = fftconvolve(e1.occupancy, e2.occupancy, _fft_shape(sets, window), window)
    rounded = np.rint(vals)
    err = np.abs(vals - rounded).max()
    if err >= 0.25:
        raise ValueError(
            f"fft corner counts are not exact: a convolution value is "
            f"{err:.3g} from its integer; use method='direct'"
        )
    return rounded.astype(np.int64)


def _direct_plan(sets):
    """The direct path's plan: N_s is symmetric, so it histograms the pair
    sums of the two smallest sets, by cell count, and reads the largest's
    cells.  Returns the sorted sets, the pair sums' shape (two cells wider
    on the last axis) and the _run_ends of the two smallest."""
    sets = sorted(sets, key=lambda e: e.count)
    shape = [a + b - 1 for a, b in zip(sets[0].shape, sets[1].shape)]
    shape[-1] += 2
    return sets, shape, [_run_ends(e, shape) for e in sets[:2]]


def _run_ends(e, shape):
    # the entries e enters the direct histogram with, as flat indices into
    # shape: +1 at each last-axis run start, -1 one past each run end
    # (module docstring).  The last axis of shape is wider than e's, so a
    # run is a stretch of consecutive flat indices.  A -1 entry is offset
    # by prod(shape): a pair sum with j of them lands in copy j of the
    # histogram, which counts (-1)^j.
    cells = np.ravel_multi_index(np.nonzero(e.occupancy), shape)
    edge = np.empty(cells.size + 1, dtype=bool)  # a run starts or ends here
    edge[0] = edge[-1] = True
    np.not_equal(cells[1:], cells[:-1] + 1, out=edge[1:-1])
    return np.concatenate([cells[edge[:-1]], cells[edge[1:]] + (math.prod(shape) + 1)])


def _conv_direct(entries, shape, window):
    # the signed int64 histogram of the pair sums, in blocks of pairs, in
    # three copies by the number of -1 entries, summed back along the last
    # axis twice; shape is the full conv's with the last axis two cells
    # wider, which holds the pair sums of two sets of run ends
    l1, l2 = entries
    hist = np.zeros(3 * math.prod(shape), dtype=np.int64)
    block = max(1, _PAIR_BLOCK // l2.size)
    for i0 in range(0, l1.size, block):
        part = np.bincount((l1[i0 : i0 + block, None] + l2[None, :]).ravel())
        hist[: part.size] += part
    # only the rows the window reads, up to its last cell on the last axis
    *rows, last = window
    h0, h1, h2 = hist.reshape(3, *shape)[(slice(None), *rows, slice(last.stop))]
    conv = np.cumsum(np.cumsum(h0 - h1 + h2, axis=-1), axis=-1)
    return conv[..., last]


def _form(t, method):
    t = SetTriple(t)
    counts = trilinear_corner_counts(t, method)
    return t.spacing ** (2 * t.dim) * 2.0 ** (-t.dim) * sum(counts.values())


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


def _lens(r1, r2, s, dim):
    # measure of the intersection of two dim-balls with center distance s:
    # the caps cut off by the plane through the intersection sphere.  At
    # height a from its center, a cap is w r^dim (1 - sign(a) I_y) / 2 with
    # I_y = betainc(1/2, (dim+1)/2, y), y = a^2/r^2; in y, not 1 - y, it
    # stays accurate where the plane passes near a center.
    if s >= r1 + r2:
        return 0.0
    w = unit_ball_volume(dim)
    if s <= abs(r1 - r2):
        return w * min(r1, r2) ** dim
    a1 = (s * s + r1 * r1 - r2 * r2) / (2 * s)
    a2 = s - a1
    # one call for both caps costs about what one scalar call does; rounding
    # near s = |r1 - r2| can give y > 1, where betainc is NaN
    y = [min(a1 * a1 / (r1 * r1), 1.0), min(a2 * a2 / (r2 * r2), 1.0)]
    i1, i2 = betainc(0.5, (dim + 1) / 2, y).tolist()
    return 0.5 * w * (r1**dim * (1 - math.copysign(i1, a1)) + r2**dim * (1 - math.copysign(i2, a2)))


def lambda_d(gamma, dim):
    """Lambda_dim: T of centered balls with measures gamma.

    dim=1 delegates to the closed form; every higher dim integrates the
    measure of the two-ball intersection (_lens, one cap formula for every
    dim) radially over the smallest ball:

        Lambda = dim * omega * integral_0^r3 s^(dim-1) lens(r1, r2, s) ds

    with a quadrature break at the containment radius |r1 - r2|.  dim must
    pass check_dim, and gamma is checked as in lambda_1.
    """
    dim = check_dim(dim)
    if dim == 1:
        return lambda_1(gamma)
    g = check_triple(gamma, "gamma", zero_ok=True)
    if min(g) == 0.0:
        return 0.0
    r1, r2, r3 = sorted(RadiusTriple.from_measures(g, dim).radii, reverse=True)
    kink = abs(r1 - r2)
    pts = [kink] if 0.0 < kink < r3 else None
    # imported here, not at the top: scipy.integrate brings scipy.optimize,
    # scipy.sparse, scipy.linalg and scipy.spatial (about 25 MiB and a
    # quarter second), which the exact path, T in integer counts, never needs
    from scipy.integrate import quad

    val, abserr = quad(
        lambda s: s ** (dim - 1) * _lens(r1, r2, s, dim),
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
    return dim * unit_ball_volume(dim) * val


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

    dim passes check_dim; alpha and beta are finite nonnegative summands
    whose sum is a positive, admissible measure triple (margin >= 0).
    """
    dim = check_dim(dim)
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
    enlarge the qualifying set and lower the minimum.  dim must pass
    check_dim, samples be an integer >= 1 and seed an integer >= 0.
    """
    dim = check_dim(dim)
    tau, eta = float_or_nan(tau), float_or_nan(eta)
    if not (0 < tau < 1) or not (0 < eta < 1):
        raise ValueError("tau and eta must lie in (0, 1)")
    samples = check_integer(samples, "samples", low=1)
    rng = np.random.default_rng(check_integer(seed, "seed", low=0))
    best = None
    found = 0
    for _ in range(samples):
        while True:  # rejection-sample a tau-admissible radius triple
            r = rng.uniform(0.2, 1.0, size=3)
            if radius_margin(r).margin >= tau:
                break
        gamma = np.array(RadiusTriple(r).measures(dim))
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
