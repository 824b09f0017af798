"""Timing comparison of the two exact corner-count backends: 'fft' (float
Fourier convolution over the window the corner counts read, rounded) and
'direct' (int64 histogram of the pair sums of the two smallest sets).  Each
returns the convolution on that window as exact integers, from which the
same slice reads take the corner counts; every timed case checks that
their counts are equal.

The direct path forms p1 * p2 pairs, where each of the two smallest sets
enters with its cells or, when those are fewer, with its last-axis run
ends (+1 at each run start, -1 one past each run end), so p <= cells.
Cases whose p1 * p2 exceeds DIRECT_PAIR_GUARD are reported as guarded.
Cases marked "relocated" move a tenth of the first blob's cells into a
ball past its box, as the sweep's relocate family does, so that set's box
is wide and mostly empty.

The table goes to standard output and the rows, with the environment, to
BENCH_trilinear.json at the root of the checkout.

Run: python3 benchmarks/bench_trilinear.py
"""

import json
import os
import platform
import time

import numpy as np
import scipy

from rieszvox import SetTriple, generate, sweep, trilinear_corner_counts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_trilinear.json")


def direct_pairs(t):
    """The pairs the direct path forms for the triple t."""
    entries = []
    for e in sorted(t, key=lambda e: e.count)[:2]:
        occ = e.occupancy
        before = np.concatenate([np.zeros_like(occ[..., :1]), occ[..., :-1]], axis=-1)
        entries.append(min(e.count, 2 * int((occ & ~before).sum())))
    return entries[0] * entries[1]


def bench(dim, spacing, radius, relocated=False, repeats=3):
    """One row: the cells of the triple, the pairs direct forms, and the best
    time of each backend in ms (None for direct when guarded)."""
    sets = [
        generate(
            "blob",
            {"dim": dim, "spacing": spacing, "radius": radius, "steps": 5},
            seed=s,
        )
        for s in (1, 2, 3)
    ]
    if relocated:
        sets[0] = sweep.perturb_relocate(sets[0], 0.1)
    t = SetTriple(sets)
    row = {
        "dim": dim,
        "h": spacing,
        "relocated": relocated,
        "cells": [e.count for e in t],
        "pairs": direct_pairs(t),
    }
    counts = {}
    for method in ("fft", "direct"):
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            try:
                counts[method] = trilinear_corner_counts(t, method=method)
            except ValueError:
                best = None  # p1 * p2 above DIRECT_PAIR_GUARD
                break
            best = min(best, time.perf_counter() - t0)
        row[f"{method}_ms"] = None if best is None else best * 1e3
    if row["direct_ms"] is not None and counts["fft"] != counts["direct"]:
        raise ValueError(f"paths disagree at dim={dim}, h={spacing}")
    return row


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def main():
    print(
        f"{'dim':>3} {'h':>8} {'cells':>22} {'pairs':>12} {'fft ms':>9} "
        f"{'direct ms':>10} {'direct/fft':>10}"
    )
    cases = [
        (1, 1.0 / 256, 0.9, False),
        (1, 1.0 / 1024, 0.9, False),
        (2, 1.0 / 32, 0.5, False),
        (2, 1.0 / 64, 0.5, False),
        (2, 1.0 / 128, 0.5, False),
        (3, 1.0 / 16, 0.5, False),
        (3, 1.0 / 32, 0.5, False),
        (3, 1.0 / 16, 0.5, True),
        (3, 1.0 / 32, 0.5, True),
    ]
    rows = []
    for dim, h, r, relocated in cases:
        row = bench(dim, h, r, relocated)
        rows.append(row)
        tf, td = row["fft_ms"], row["direct_ms"]
        tag = " relocated" if relocated else ""
        head = f"{dim:>3} {h:>8.5f} {str(row['cells']):>22} {row['pairs']:>12} {tf:>9.2f}"
        if td is None:
            print(f"{head} {'guarded':>10}{tag}")
        else:
            print(f"{head} {td:>10.2f} {td / tf:>9.2f}x{tag}")
    with open(OUT, "w") as fh:
        json.dump({"environment": environment(), "rows": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
