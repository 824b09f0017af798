"""Timing of the two rasterization kernels on the bodies a d=3 sweep record
rasterizes: balls through rasterize_ellipsoid, and the sweep's shear
(A[0, d-1] = 0.2, translations +-0.25 along the first axis and 0) of the
base radii 1, 0.92 and 0.85 through rasterize_affine_image.

Each row gives the best of three calls in ms and the work the kernel could
not decide without the per-sample expression:

- band_cells: for an affine image, the cells phase 1 leaves to phase 2;
  for an ellipsoid, the cells with a sample its roots leave undecided
  (those whose count changes when every undecided sample is forced out,
  then in).
- undecided_samples: the samples the per-sample expression runs on.

The table goes to standard output and the rows, with the environment, to
BENCH_raster.json at the root of the checkout.

Run: python3 benchmarks/bench_raster.py
"""

import json
import os
import platform
import time
from contextlib import contextmanager

import numpy as np
import scipy

from rieszvox import Ellipsoid, grid, rasterize_affine_image, rasterize_ellipsoid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_raster.json")
SPACING = 1.0 / 32
SHEAR = 0.2


@contextmanager
def replaced(name, make):
    """grid.<name> replaced by make(the real one) inside the block."""
    real = getattr(grid, name)
    setattr(grid, name, make(real))
    try:
        yield
    finally:
        setattr(grid, name, real)


def best_ms(call, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def ellipsoid_work(e, h, s):
    """(band cells, undecided samples) of one ellipsoid kernel call."""
    sizes, bounds = [], []

    def counting(real):
        def call(Q, coords):
            sizes.append(coords[0].size)
            return real(Q, coords)

        return call

    def forcing(value):
        # every undecided sample out (inf) or in (-inf)
        return lambda real: lambda Q, coords: np.full(coords[0].shape, value)

    with replaced("_quadratic_form", counting):
        grid._ellipsoid_sample_counts(e, h, s)
    for value in (np.inf, -np.inf):
        with replaced("_quadratic_form", forcing(value)):
            bounds.append(grid._ellipsoid_sample_counts(e, h, s)[0])
    return int(np.count_nonzero(bounds[0] != bounds[1])), sum(sizes)


def affine_work(e, a, v, h, s):
    """(band cells, undecided samples) of one affine kernel call."""
    bands = []

    def spy(real):
        def call(occ, w, first):
            full, band = real(occ, w, first)
            bands.append(int(band.sum()))
            return full, band

        return call

    with replaced("_uniform_windows", spy):
        grid._affine_sample_counts(e, a, v, h, s)
    return bands[0], bands[0] * s**e.dim


def bench_ellipsoid(dim, radius, spacing=SPACING, s=3, repeats=3):
    e = Ellipsoid(np.zeros(dim), np.eye(dim) / radius**2)
    band, undecided = ellipsoid_work(e, spacing, s)
    return {
        "kernel": "rasterize_ellipsoid",
        "dim": dim,
        "h": spacing,
        "radius": radius,
        "ms": best_ms(lambda: rasterize_ellipsoid(e, spacing, s), repeats),
        "band_cells": band,
        "undecided_samples": undecided,
    }


def bench_shear(dim, radius, shift, spacing=SPACING, s=3, repeats=3):
    ball = rasterize_ellipsoid(Ellipsoid(np.zeros(dim), np.eye(dim) / radius**2), spacing)
    a = np.eye(dim)
    a[0, -1] = SHEAR
    v = np.zeros(dim)
    v[0] = shift
    band, undecided = affine_work(ball, a, v, spacing, s)
    return {
        "kernel": "rasterize_affine_image",
        "dim": dim,
        "h": spacing,
        "radius": radius,
        "ms": best_ms(lambda: rasterize_affine_image(ball, a, v, spacing, s), repeats),
        "band_cells": band,
        "undecided_samples": undecided,
    }


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def main():
    print(f"{'kernel':>22} {'dim':>3} {'radius':>6} {'ms':>8} {'band cells':>10} {'undecided':>10}")
    # the sweep shifts the first set by +1/4, the second by -1/4 (whole cells)
    rows = [bench_ellipsoid(dim, 0.5) for dim in (1, 2, 3)] + [bench_ellipsoid(3, 1.0)]
    rows += [bench_shear(3, r, v) for r, v in ((1.0, 0.25), (0.92, -0.25), (0.85, 0.0))]
    for row in rows:
        print(
            f"{row['kernel']:>22} {row['dim']:>3} {row['radius']:>6.2f} {row['ms']:>8.2f} "
            f"{row['band_cells']:>10} {row['undecided_samples']:>10}"
        )
    with open(OUT, "w") as fh:
        json.dump({"environment": environment(), "rows": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
