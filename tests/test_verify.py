"""The verify suite: its printed lines and the teeth of its exact checks."""

import numpy as np

from rieszvox import grid, verify

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


def test_triples_take_a_spacing_per_dim():
    h = {1: 1.0 / 16, 2: 1.0 / 8}
    triples = list(verify._triples(np.random.default_rng(1), tuple(h), per_dim=2, h=h))
    assert [(t.dim, t.spacing) for t in triples] == [
        (1, 1.0 / 16), (1, 1.0 / 16), (2, 1.0 / 8), (2, 1.0 / 8),
    ]


def test_corpus_draw_order():
    # one scalar draw per blob, one draw of three per triple, in order of use
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    blobs = list(verify._blobs(rng, (2, 1)))
    want = [verify._blob(d, int(ref.integers(2**31))) for d in (2, 1)]
    assert all(a == b for a, b in zip(blobs, want))
    (t,) = verify._triples(rng, (1,), per_dim=1)
    seeds = ref.integers(0, 2**31, size=3)
    assert all(e == verify._blob(1, int(s)) for e, s in zip(t, seeds))
