"""The benchmark's layers_d2 workload at seed 0 against its committed
reference digests: every fft and direct corner count of every layer
triple, so a change to either backend that moves a count fails here
before it fails the benchmark."""

import importlib.util
import json
import os
import time

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.json")


def test_layers_d2_seed_0_matches_the_benchmark_reference(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with open(REFERENCE) as fh:
        want = json.load(fh)["layers_d2"]["0"]
    wl = workloads.LayersD2(0, "full", str(tmp_path), 1)
    wl.setup()
    got = {}

    def record(key, seconds, digest, error):
        assert error is None, f"{key}: {error}"
        got[key] = digest

    for item in wl.items():
        wl.run_item(item, time.perf_counter, record)
    assert len(got) == 96 and got == want
