"""Smoke test of benchmarks/bench_trilinear.py: one tiny case per dim, so
the script keeps running, its rows keep their keys, and its pair count
keeps matching the pairs the direct histogram forms."""

import importlib.util
import os

import numpy as np
import pytest

from rieszvox import functional

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "bench_trilinear.py")


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location("bench_trilinear", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "dim,h,relocated", [(1, 1.0 / 32, False), (2, 1.0 / 16, False), (3, 1.0 / 8, True)]
)
def test_bench_row(monkeypatch, bench_module, dim, h, relocated):
    counts, pairs = {}, []
    real = bench_module.trilinear_corner_counts

    bincount = np.bincount

    def count_pairs(x, *args, **kwargs):
        pairs.append(x.size)
        return bincount(x, *args, **kwargs)

    def spy(t, method):
        # the pair sums each bincount of one direct call histograms
        if method == "direct":
            monkeypatch.setattr(functional.np, "bincount", count_pairs)
        counts.setdefault(method, []).append(real(t, method=method))
        monkeypatch.setattr(functional.np, "bincount", bincount)
        return counts[method][-1]

    monkeypatch.setattr(bench_module, "trilinear_corner_counts", spy)
    row = bench_module.bench(dim, h, 0.5, relocated, repeats=1)
    assert set(row) == {"dim", "h", "relocated", "cells", "pairs", "fft_ms", "direct_ms"}
    assert (row["dim"], row["h"], row["relocated"]) == (dim, h, relocated)
    assert len(row["cells"]) == 3 and min(row["cells"]) > 0
    assert row["fft_ms"] > 0 and row["direct_ms"] > 0
    assert counts["fft"] == counts["direct"]
    assert row["pairs"] == sum(pairs)
    n1, n2 = sorted(row["cells"])[:2]
    assert row["pairs"] <= n1 * n2


def test_environment_names_the_versions(bench_module):
    env = bench_module.environment()
    assert set(env) == {"python", "numpy", "scipy", "machine", "cpus"}
    assert env["numpy"] == np.__version__
