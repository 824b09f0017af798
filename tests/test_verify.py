"""The verify suite: its printed lines and the teeth of its exact checks."""

import hashlib
import json
import pathlib

import numpy as np

from rieszvox import grid, symmetrize, verify

# run_suite("all", seed=0) before its corpus moved into _blobs and _triples;
# every line, details included, must stay the same
SUITE_ALL_SEED_0 = [
    'PASS  boolean counts                     dim=3: |A|=26176 |B|=50220 ok',
    'PASS  reflection involution              count and involution exact in dims 1..3',
    'PASS  vxg round trip                     bit-exact round trip in dims 1..3',
    'PASS  fft vs direct counts               all corner counts identical (47446311 solutions checked)',
    'PASS  permutation symmetry               T exactly permutation invariant',
    'PASS  reflection invariance              T exactly reflection invariant',
    'PASS  dilation covariance                integer refinements reproduce T exactly',
    'PASS  symmetrization counts              counts preserved, all ops idempotent',
    'PASS  double symmetrization fixed point  double symmetrization fixed by both component ops',
    'PASS  steiner fiber convention           fibers contiguous with centers offset 0 or -h/2',
    'PASS  layer partition                    layers partition cells, projections consistent',
    'PASS  upper bound T <= Lambda            max T/Lambda = 0.9993',
    'PASS  admissibility invariance           margin invariant under permutation and scaling',
    'PASS  lambda anchors                     closed forms match the quadrature',
    'PASS  superadditivity                    min gap/Lambda = 0.00e+00',
    'PASS  symmetrization monotone            max relative rise 0.000% (<= 1% slack)',
    'PASS  theta layer bound                  max lhs/rhs = 0.158',
    'PASS  moment fit recovery                max measure mismatch 0.000%',
    'PASS  fit epsilon on balls               max epsilon 0.001 on a concentric ball triple',
    'PASS  deficit nonnegative                all deltas in [0, 0.182]',
    '20/20 checks passed',
]


def test_suite_all_lines_unchanged():
    lines = []
    assert verify.run_suite("all", seed=0, out=lines.append) == 0
    assert lines == SUITE_ALL_SEED_0


def test_suite_all_seed_1000_matches_the_benchmark_reference():
    # perfbench pins sha256[:16] of every line of the suite seeds it runs;
    # benchmark seed 1 runs suite seed 1000 first
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "reference.json"
    want = json.loads(path.read_text())["verify_all"]["1"]
    lines = []
    assert verify.run_suite("all", seed=1000, out=lines.append) == 0
    got = {
        f"s1000:{label}": hashlib.sha256(line.encode()).hexdigest()[:16]
        for (label, _), line in zip(verify.ALL_CHECKS, lines)
    }
    assert len(got) == 20 and got == {k: want[k] for k in got}


def test_dilation_covariance_catches_a_wrong_refinement(monkeypatch):
    # keeping the coarse sets leaves the corner-count sum unscaled
    monkeypatch.setattr(verify, "upscale_integer", lambda e, m: e)
    ok, detail = verify.check_dilation_covariance(np.random.default_rng(0))
    assert not ok and detail == "dilation m=2 broke covariance"


def test_dilation_covariance_catches_one_lost_cell(monkeypatch):
    def lossy(e, m):
        up = grid.upscale_integer(e, m)
        cells = up.global_indices()
        return grid.from_cells(cells[1:], up.dim, up.spacing)

    monkeypatch.setattr(verify, "upscale_integer", lossy)
    ok, _ = verify.check_dilation_covariance(np.random.default_rng(0))
    assert not ok


def test_steiner_fibers_catch_a_moved_or_split_fiber(monkeypatch):
    real = symmetrize.steiner_symmetrize

    def moved(e):
        return grid.translate_cells(real(e), [0] * (e.dim - 1) + [1])

    def split(e):
        cells = real(e).global_indices()
        cells[:, -1] *= 2
        return grid.from_cells(cells, e.dim, e.spacing)

    rng = np.random.default_rng
    monkeypatch.setattr(symmetrize, "steiner_symmetrize", moved)
    ok, detail = verify.check_steiner_fibers(rng(0))
    assert not ok and detail.startswith("fiber centroid")
    monkeypatch.setattr(symmetrize, "steiner_symmetrize", split)
    assert verify.check_steiner_fibers(rng(0)) == (False, "fiber not contiguous")


def test_layer_partition_compares_projections_exactly(monkeypatch):
    # a projection one ulp above its column count times h^(d-1) must fail
    real = symmetrize.dyadic_layers

    def nudged(e):
        dec = real(e)
        k = min(dec.projections)
        dec.projections[k] = np.nextafter(dec.projections[k], np.inf)
        return dec

    monkeypatch.setattr(symmetrize, "dyadic_layers", nudged)
    ok, detail = verify.check_layer_partition(np.random.default_rng(0))
    assert not ok and detail == "projection measures inconsistent"


def test_corpus_draw_order():
    # one scalar draw per blob, one draw of three per triple, in order of use
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    blobs = list(verify._blobs(rng, (2, 1)))
    want = [verify._blob(d, int(ref.integers(2**31))) for d in (2, 1)]
    assert all(a == b for a, b in zip(blobs, want))
    (t,) = verify._triples(rng, (1,), per_dim=1)
    seeds = ref.integers(0, 2**31, size=3)
    assert all(e == verify._blob(1, int(s)) for e, s in zip(t, seeds))
