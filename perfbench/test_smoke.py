"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest perfbench

Checks that every metric BENCHMARK.json names is emitted, and that a wrong
count or a wrong digest is reported as a failed op.
"""

import json
import os

import pytest

import run

WORKLOADS = ("sweep_d3", "layers_d2", "verify_all")


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def tiny(workload, trace=0, **kw):
    return run.run(workload, seed=0, seconds=0.5, trace=trace, size="tiny", **kw)[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result = tiny(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(workload):
    result = tiny(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == declared("per_layer")
    assert metrics["trace.traced_ms"]["value"] > 0
    if workload == "sweep_d3":
        assert metrics["functional.corner_counts.direct.calls"]["value"] == 0
        assert metrics["grid.rasterize_affine_image.samples"]["value"] > 0
        assert metrics["sweep.pool_busy_frac"]["value"] > 0
    if workload == "layers_d2":
        assert metrics["functional.corner_counts.direct.calls"]["value"] > 0


def test_corrupted_count_fails_the_op(monkeypatch):
    import rieszvox

    real = rieszvox.trilinear_corner_counts

    def off_by_one(t, method="fft"):
        counts = real(t, method=method)
        if method == "direct":
            corner = min(counts)
            counts[corner] += 1
        return counts

    monkeypatch.setattr(rieszvox, "trilinear_corner_counts", off_by_one)
    result = tiny("layers_d2")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_digest_differing_from_reference_fails_the_op():
    result = tiny("sweep_d3", reference={"noise@0.1": "0" * 16})
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_tail_percentile_never_below_median():
    assert run.tail_percentile([1, 2, 3, 4, 5, 6, 7, 8]) == (50, 4.5)
    assert run.tail_percentile(list(range(1, 21))) == (50, 10.5)
    assert run.tail_percentile(list(range(1, 101))) == (90, 90)
