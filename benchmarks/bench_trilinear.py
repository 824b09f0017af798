"""Timing comparison of the two exact corner-count backends: 'fft' (float
Fourier convolution over the window the corner counts read, rounded) and
'direct' (int64 pair-sum histogram of the two smallest sets).  Each
returns the convolution on that window as exact integers, from which the
same slice reads take the corner counts; every timed case asserts that
their counts are equal.
Cases whose n1 * n2 pair count exceeds DIRECT_PAIR_GUARD are reported as
guarded.  Cases marked "relocated" move a tenth of the first blob's cells
into a ball past its box, as the sweep's relocate family does, so that
set's box is wide and mostly empty.

Run: python3 benchmarks/bench_trilinear.py
"""

import time

import numpy as np

from rieszvox import SetTriple, generate, sweep, trilinear_corner_counts


def bench(dim, spacing, radius, relocated=False, repeats=3):
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
    cells = [e.count for e in t]
    out = {}
    for method in ("fft", "direct"):
        best = np.inf
        counts = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            try:
                counts = trilinear_corner_counts(t, method=method)
            except ValueError:
                best = None  # n1 * n2 above DIRECT_PAIR_GUARD
                break
            best = min(best, time.perf_counter() - t0)
        out[method] = (best, counts)
    if out["direct"][0] is not None:
        assert out["fft"][1] == out["direct"][1], "paths disagree"
    return cells, out


def main():
    print(
        f"{'dim':>3} {'h':>8} {'cells':>22} {'fft ms':>9} {'direct ms':>10} "
        f"{'direct/fft':>10}"
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
    for dim, h, r, relocated in cases:
        cells, out = bench(dim, h, r, relocated)
        tf = out["fft"][0] * 1e3
        tag = " relocated" if relocated else ""
        if out["direct"][0] is None:
            print(f"{dim:>3} {h:>8.5f} {str(cells):>22} {tf:>9.2f} {'guarded':>10}{tag}")
            continue
        td = out["direct"][0] * 1e3
        print(
            f"{dim:>3} {h:>8.5f} {str(cells):>22} {tf:>9.2f} {td:>10.2f} "
            f"{td / tf:>9.2f}x{tag}"
        )


if __name__ == "__main__":
    main()
