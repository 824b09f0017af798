"""Smoke test of benchmarks/bench_pipeline.py: small cases of every stage,
so the script keeps running, its rows keep their keys, and its work counts
keep matching what the kernels leave undecided, the pairs the direct
histogram forms and the shape the FFT product transforms at."""

import importlib.util
import json
import math
import os

import numpy as np
import pytest

from rieszvox import Ellipsoid, RadiusTriple, functional, lambda_d, rasterize_ellipsoid
from reference_raster import affine_sample_counts

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "bench_pipeline.py")
MS = {"ms_p25", "ms_p50", "ms_p75"}
RASTER_KEYS = {"kernel", "dim", "h", "radius", "band_cells", "undecided_samples"} | MS


def assert_quartiles(row, name="ms"):
    # a time column is the median and quartiles of the calls, all positive
    q25, q50, q75 = (row[f"{name}_p{p}"] for p in (25, 50, 75))
    assert 0 < q25 <= q50 <= q75


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location("bench_pipeline", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ellipsoid_row(bench_module, dim):
    # no sample of a radius-1/2 ball at h = 1/8, s = 3 lies near the sphere:
    # its squared radius differs from 1/4 by a multiple of 1/2304
    row = bench_module.bench_ellipsoid(dim, 0.5, spacing=1.0 / 8, repeats=1)
    assert set(row) == RASTER_KEYS
    assert (row["kernel"], row["dim"], row["h"], row["radius"]) == (
        "rasterize_ellipsoid", dim, 1.0 / 8, 0.5
    )
    assert_quartiles(row)
    assert (row["band_cells"], row["undecided_samples"]) == (0, 0)


def test_ellipsoid_ties_are_counted(bench_module):
    # the interval [-1/2, 1/2] at h = 1, s = 1: both cell centers lie on
    # its ends, so the roots decide neither
    row = bench_module.bench_ellipsoid(1, 0.5, spacing=1.0, s=1, repeats=1)
    assert (row["band_cells"], row["undecided_samples"]) == (2, 2)


def test_shear_row(monkeypatch, bench_module):
    calls = []
    real = bench_module.grid._affine_sample_counts

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bench_module.grid, "_affine_sample_counts", spy)
    row = bench_module.bench_shear(3, 0.5, 0.25, spacing=1.0 / 8, repeats=1)
    assert set(row) == RASTER_KEYS
    assert (row["kernel"], row["dim"], row["radius"]) == ("rasterize_affine_image", 3, 0.5)
    assert_quartiles(row)
    assert row["undecided_samples"] == 27 * row["band_cells"]
    # every cell with some but not all samples in is a band cell
    e, a, v, h, s = calls[0]
    assert a[0, 2] == bench_module.SHEAR and v[0] == 0.25
    assert e == rasterize_ellipsoid(Ellipsoid(np.zeros(3), np.eye(3) * 4), 1.0 / 8)
    counts = affine_sample_counts(e, a, v, h, s)[0]
    mixed = np.count_nonzero((counts > 0) & (counts < 27))
    assert 0 < mixed <= row["band_cells"] < counts.size


@pytest.mark.parametrize(
    "dim,h,relocated", [(1, 1.0 / 32, False), (2, 1.0 / 16, False), (3, 1.0 / 8, True)]
)
def test_corner_counts_row(monkeypatch, bench_module, dim, h, relocated):
    counts, pairs, sets = {}, [], []
    real = bench_module.trilinear_corner_counts

    bincount = np.bincount

    def count_pairs(x, *args, **kwargs):
        pairs.append(x.size)
        return bincount(x, *args, **kwargs)

    def spy(t, method):
        # the pair sums each bincount of one direct call histograms
        if method == "direct":
            monkeypatch.setattr(functional.np, "bincount", count_pairs)
            sets.append(list(t))
        counts.setdefault(method, []).append(real(t, method=method))
        monkeypatch.setattr(functional.np, "bincount", bincount)
        return counts[method][-1]

    fft, lengths = functional.fftconvolve, []

    def fft_spy(a, b, shape, window):
        lengths.append(list(shape))
        return fft(a, b, shape, window)

    monkeypatch.setattr(bench_module, "trilinear_corner_counts", spy)
    monkeypatch.setattr(functional, "fftconvolve", fft_spy)
    row = bench_module.bench_corner_counts(dim, h, 0.5, relocated, repeats=1)
    assert set(row) == {
        "dim", "h", "relocated", "cells", "pairs", "fft_shape", "fft_peak_bytes",
        "fft_ms_p25", "fft_ms_p50", "fft_ms_p75",
        "direct_ms_p25", "direct_ms_p50", "direct_ms_p75",
    }
    # the shape every fft call transformed at, and at least the two spectra
    # that are alive when they are multiplied
    assert lengths and all(n == row["fft_shape"] for n in lengths)
    *lead, last = row["fft_shape"]
    assert row["fft_peak_bytes"] >= 2 * 16 * math.prod(lead) * (last // 2 + 1)
    assert (row["dim"], row["h"], row["relocated"]) == (dim, h, relocated)
    assert len(row["cells"]) == 3 and min(row["cells"]) > 0
    assert_quartiles(row, "fft_ms")
    assert_quartiles(row, "direct_ms")
    # fft runs twice, once for its peak bytes and once timed
    assert counts["fft"] == counts["direct"] * 2
    assert row["pairs"] == sum(pairs)
    # two run ends per last-axis run of each of the two smallest sets,
    # the runs counted where the occupancy steps up
    small = sorted(sets[0], key=lambda e: e.count)[:2]
    steps = (np.diff(e.occupancy.astype(np.int8), axis=-1, prepend=0) for e in small)
    assert row["pairs"] == math.prod(2 * np.count_nonzero(d == 1) for d in steps)


@pytest.mark.parametrize("dim", [2, 3])
def test_lambda_row(bench_module, dim):
    gamma = (1.0, 0.8, 0.9)
    row = bench_module.bench_lambda(dim, gamma, repeats=1)
    assert set(row) == {"dim", "measures", "value"} | MS
    assert (row["dim"], row["measures"]) == (dim, list(gamma))
    assert_quartiles(row)
    assert row["value"] == lambda_d(gamma, dim)


def test_lambda_cases_are_the_sweep_base_and_unit_balls(bench_module):
    cases = bench_module.LAMBDA_CASES
    assert [dim for dim, _ in cases] == [2, 2, 3, 3]
    for (dim, base), (_, unit) in zip(cases[::2], cases[1::2]):
        assert RadiusTriple.from_measures(base, dim).radii == pytest.approx((1.0, 0.92, 0.85))
        assert unit == (1.0, 1.0, 1.0)


def test_fit_row(bench_module):
    row = bench_module.bench_fit(3, 1.0 / 16, 1.0, repeats=1)
    assert set(row) == {"dim", "h", "radius", "cells", "peak_bytes"} | MS
    ball = rasterize_ellipsoid(Ellipsoid(np.zeros(3), np.eye(3)), 1.0 / 16)
    assert (row["dim"], row["h"], row["radius"], row["cells"]) == (3, 1.0 / 16, 1.0, ball.count)
    assert_quartiles(row)
    # below the 24 bytes per cell of a list of the cell centers
    assert 0 < row["peak_bytes"] < 24 * ball.count


def test_fit_cases_are_the_sweep_base_balls(bench_module):
    assert bench_module.FIT_CASES == tuple(
        (3, h, r) for h in (1.0 / 32, 1.0 / 64) for r in (1.0, 0.92, 0.85)
    )


def test_timed_ms_takes_every_call(bench_module):
    calls = []
    ms, out = bench_module.timed_ms(lambda: calls.append(1) or len(calls), 15, "x_ms")
    assert out == 15 and len(calls) == 15
    assert set(ms) == {"x_ms_p25", "x_ms_p50", "x_ms_p75"}
    assert_quartiles(ms, "x_ms")
    assert bench_module.REPEATS >= 15


def test_corner_counts_guarded_row(monkeypatch, bench_module):
    # above DIRECT_PAIR_GUARD the direct columns are None and fft is timed
    monkeypatch.setattr(functional, "DIRECT_PAIR_GUARD", 0)
    row = bench_module.bench_corner_counts(1, 1.0 / 32, 0.5, repeats=1)
    assert_quartiles(row, "fft_ms")
    assert [row[f"direct_ms_p{p}"] for p in (25, 50, 75)] == [None] * 3
    assert bench_module.spread(row, "direct_ms") == "guarded"


def test_import_rows(bench_module):
    rows = bench_module.bench_import(runs=2)
    assert [r["step"] for r in rows] == ["import", "corner_counts", "lambda_d"]
    for row in rows:
        assert set(row) == {"step", "s_p25", "s_p50", "s_p75", "maxrss_mib", "scipy"}
        assert_quartiles(row, "s")
        assert row["scipy"] == sorted(row["scipy"])
    # peak RSS never falls, and scipy.integrate first loads for lambda_d
    assert 0 < rows[0]["maxrss_mib"] <= rows[1]["maxrss_mib"] <= rows[2]["maxrss_mib"]
    assert ["integrate" in r["scipy"] for r in rows] == [False, False, True]
    assert {"fft", "special"} <= set(rows[0]["scipy"])


def test_environment_names_the_versions(bench_module):
    env = bench_module.environment()
    assert set(env) == {"python", "numpy", "scipy", "machine", "cpus"}
    assert env["numpy"] == np.__version__


def test_main_writes_every_stage(monkeypatch, tmp_path, bench_module):
    out = tmp_path / "BENCH_pipeline.json"
    monkeypatch.setattr(bench_module, "OUT", str(out))
    monkeypatch.setattr(bench_module, "ELLIPSOID_CASES", ((2, 0.5),))
    monkeypatch.setattr(bench_module, "SHEAR_CASES", ((0.5, 0.25),))
    monkeypatch.setattr(bench_module, "CORNER_CASES", ((1, 1.0 / 32, 0.5, False),))
    monkeypatch.setattr(bench_module, "LAMBDA_CASES", ((2, (1.0, 1.0, 1.0)),))
    monkeypatch.setattr(bench_module, "FIT_CASES", ((3, 1.0 / 8, 1.0),))
    monkeypatch.setattr(bench_module, "IMPORT_RUNS", 1)
    bench_module.main()
    written = json.loads(out.read_text())
    assert list(written) == [
        "environment", "import", "rasterize", "corner_counts", "lambda", "fit"
    ]
    assert written["environment"] == bench_module.environment()
    assert [r["kernel"] for r in written["rasterize"]] == [
        "rasterize_ellipsoid", "rasterize_affine_image"
    ]
    assert [(r["dim"], r["h"]) for r in written["corner_counts"]] == [(1, 1.0 / 32)]
    assert [(r["dim"], r["measures"]) for r in written["lambda"]] == [(2, [1.0, 1.0, 1.0])]
    assert [(r["dim"], r["h"], r["radius"]) for r in written["fit"]] == [(3, 1.0 / 8, 1.0)]
    assert [r["step"] for r in written["import"]] == ["import", "corner_counts", "lambda_d"]
