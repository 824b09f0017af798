"""Timing of the pipeline's stages: one row per case, the median and
quartiles of REPEATS calls in ms (each time column `x_ms` is written as
`x_ms_p25`, `x_ms_p50` and `x_ms_p75`), and the work the stage did.

import: a fresh interpreter, run IMPORT_RUNS times, at three points:
after `import rieszvox, rieszvox.verify`, after one d=2 corner count
(three blobs generated and counted by the fft backend), and after one
lambda_d.  Each point records the seconds of its step (median and
quartiles over the runs), the process's peak RSS so far (ru_maxrss,
median over the runs) and the scipy subpackages loaded by then.

rasterize: balls through rasterize_ellipsoid, and the sweep's shear
(A[0, d-1] = 0.2, translations +-0.25 along the first axis and 0) of the
d=3 base radii 1, 0.92 and 0.85 through rasterize_affine_image, with the
work the kernel reports it left to the per-sample expression:

- band_cells: the cells with at least one such sample (for an affine
  image, the cells phase 1 leaves to phase 2);
- undecided_samples: the samples the per-sample expression runs on.

Every case lies near 0, far inside the 2**50/s cells of 0 within which
the rasterizers accept a box (float64 resolves its samples there).

corner_counts: the backends 'fft' (float Fourier convolution over the
window the corner counts read, rounded) and 'direct' (int64 histogram of
the pair sums of the two smallest sets) on blob triples, checked equal.
fft_shape is the transform length per axis that the fft path's own plan
gives, and fft_peak_bytes the tracemalloc peak of one fft call.
Direct forms p1 * p2 pairs, each of the two sets entering as its
last-axis run ends (+1 at each run start, -1 one past each run end); the
pairs are read from the direct path's own plan, and above
DIRECT_PAIR_GUARD a case is guarded.
A "relocated" case moves a tenth of the first blob's cells into a ball
past its box, as the sweep's relocate family does.

lambda: lambda_d, the certified quadrature of the lens, at d=2 and d=3 on
balls of the sweep's base radii 1, 0.92 and 0.85 and on three unit
measures, with the value it returns.

fit: fit_ellipsoid_moments on the balls of the d=3 base radii at h=1/32
and h=1/64, with the cells of each ball and the tracemalloc peak of one
fit in bytes (the fit reads integer axis marginals, so the peak stays far
below the 24 bytes per cell of a list of cell centers).

The tables go to standard output and the rows, with the environment, to
BENCH_pipeline.json at the root of the checkout, one key per stage.

Run: python3 benchmarks/bench_pipeline.py
"""

import json
import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import scipy

import rieszvox
from rieszvox import (
    Ellipsoid,
    RadiusTriple,
    SetTriple,
    fit_ellipsoid_moments,
    functional,
    generate,
    grid,
    lambda_d,
    rasterize_affine_image,
    rasterize_ellipsoid,
    sweep,
    trilinear_corner_counts,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_pipeline.json")
SPACING = 1.0 / 32
SHEAR = 0.2
BASE_RADII = (1.0, 0.92, 0.85)
# (dim, radius) of each ball
ELLIPSOID_CASES = ((1, 0.5), (2, 0.5), (3, 0.5), (3, 1.0))
# (radius, shift) of each sheared ball at d=3: the sweep shifts the first
# set by +1/4, the second by -1/4 (whole cells)
SHEAR_CASES = ((1.0, 0.25), (0.92, -0.25), (0.85, 0.0))
# (dim, h, blob radius, relocated) of each corner-count triple
CORNER_CASES = (
    (1, 1.0 / 256, 0.9, False),
    (1, 1.0 / 1024, 0.9, False),
    (2, 1.0 / 32, 0.5, False),
    (2, 1.0 / 64, 0.5, False),
    (2, 1.0 / 128, 0.5, False),
    (3, 1.0 / 16, 0.5, False),
    (3, 1.0 / 32, 0.5, False),
    (3, 1.0 / 16, 0.5, True),
    (3, 1.0 / 32, 0.5, True),
)
# (dim, measures) of each Lambda case: balls of the sweep's base radii, then
# three unit measures
LAMBDA_CASES = tuple(
    (dim, gamma)
    for dim in (2, 3)
    for gamma in (RadiusTriple(BASE_RADII).measures(dim), (1.0, 1.0, 1.0))
)
# (dim, h, radius) of each ball whose moment fit is timed
FIT_CASES = tuple((3, h, r) for h in (1.0 / 32, 1.0 / 64) for r in BASE_RADII)
# calls per timed case, fresh interpreters for the import stage, and the
# percentiles each time column is written at
REPEATS = 15
IMPORT_RUNS = 5
PERCENTILES = (25, 50, 75)


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def quartiles(values, name):
    """{name_p25, name_p50, name_p75} of the values."""
    q = np.percentile(values, PERCENTILES).tolist()
    return {f"{name}_p{p}": x for p, x in zip(PERCENTILES, q)}


def timed_ms(call, repeats, name="ms"):
    """The quartiles of repeats calls' times in ms, under name, and the last
    call's result."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = call()
        times.append((time.perf_counter() - t0) * 1e3)
    return quartiles(times, name), out


def peak_bytes(call):
    """The tracemalloc peak of one call in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- import ------------------------------------------------------------------

# the import stage's script: one JSON row per point on standard output
IMPORT_SCRIPT = """
import json, resource, sys, time

def point(step, t0):
    scipy = sorted(
        m[6:] for m, mod in list(sys.modules.items())
        if m.startswith("scipy.") and m.count(".") == 1 and not m[6:].startswith("_")
        and hasattr(mod, "__path__")
    )
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"step": step, "s": time.perf_counter() - t0, "maxrss_mib": rss, "scipy": scipy}))

t0 = time.perf_counter()
import rieszvox, rieszvox.verify
point("import", t0)
t0 = time.perf_counter()
sets = [rieszvox.generate("blob", {"dim": 2, "spacing": 1 / 32}, seed=s) for s in (1, 2, 3)]
rieszvox.trilinear_corner_counts(sets)
point("corner_counts", t0)
t0 = time.perf_counter()
rieszvox.lambda_d((1.0, 1.0, 1.0), 2)
point("lambda_d", t0)
"""


def bench_import(runs):
    """One row per point of IMPORT_SCRIPT, over runs fresh interpreters that
    import this rieszvox."""
    env = dict(os.environ)
    where = os.path.dirname(os.path.dirname(os.path.abspath(rieszvox.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [where, env.get("PYTHONPATH")]))
    points = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_SCRIPT],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        points.append([json.loads(line) for line in out.splitlines()])
    rows = []
    for step in zip(*points):
        if len({tuple(p["scipy"]) for p in step}) != 1:
            raise ValueError(f"runs loaded different scipy subpackages at {step[0]['step']}")
        rows.append({
            "step": step[0]["step"],
            **quartiles([p["s"] for p in step], "s"),
            "maxrss_mib": float(np.median([p["maxrss_mib"] for p in step])),
            "scipy": step[0]["scipy"],
        })
    return rows


# -- rasterize ---------------------------------------------------------------


def raster_row(kernel, dim, spacing, radius, ms, work):
    return {"kernel": kernel, "dim": dim, "h": spacing, "radius": radius, **ms, **work}


def bench_ellipsoid(dim, radius, spacing=SPACING, s=3, repeats=REPEATS):
    e = Ellipsoid(np.zeros(dim), np.eye(dim) / radius**2)
    ms = timed_ms(lambda: rasterize_ellipsoid(e, spacing, s), repeats)[0]
    work = grid._ellipsoid_sample_counts(e, spacing, s)[2]
    return raster_row("rasterize_ellipsoid", dim, spacing, radius, ms, work)


def bench_shear(dim, radius, shift, spacing=SPACING, s=3, repeats=REPEATS):
    ball = rasterize_ellipsoid(Ellipsoid(np.zeros(dim), np.eye(dim) / radius**2), spacing)
    a = np.eye(dim)
    a[0, -1] = SHEAR
    v = np.zeros(dim)
    v[0] = shift
    ms = timed_ms(lambda: rasterize_affine_image(ball, a, v, spacing, s), repeats)[0]
    work = grid._affine_sample_counts(ball, a, v, spacing, s)[2]
    return raster_row("rasterize_affine_image", dim, spacing, radius, ms, work)


# -- corner counts -----------------------------------------------------------


def bench_corner_counts(dim, spacing, radius, relocated=False, repeats=REPEATS):
    """One row: the cells of the triple, the pairs direct forms, and the
    quartiles of each backend's time in ms (None for direct when guarded)."""
    params = {"dim": dim, "spacing": spacing, "radius": radius, "steps": 5}
    sets = [generate("blob", params, seed=s) for s in (1, 2, 3)]
    if relocated:
        sets[0] = sweep.perturb_relocate(sets[0], 0.1)
    t = SetTriple(sets)
    low = sum(e.origin_index for e in t).tolist()
    window = functional._window(t.sets, low)[0]
    row = {
        "dim": dim,
        "h": spacing,
        "relocated": relocated,
        "cells": [e.count for e in t],
        "pairs": math.prod(idx.size for idx in functional._direct_plan(t.sets)[2]),
        "fft_shape": functional._fft_shape(t.sets, window),
        "fft_peak_bytes": peak_bytes(lambda: trilinear_corner_counts(t, method="fft")),
    }
    counts = {}
    for method in ("fft", "direct"):
        name = f"{method}_ms"
        try:
            ms, counts[method] = timed_ms(
                lambda: trilinear_corner_counts(t, method=method), repeats, name
            )
        except ValueError:  # p1 * p2 above DIRECT_PAIR_GUARD
            ms = {f"{name}_p{p}": None for p in PERCENTILES}
        row.update(ms)
    if "direct" in counts and counts["fft"] != counts["direct"]:
        raise ValueError(f"paths disagree at dim={dim}, h={spacing}")
    return row


# -- lambda ------------------------------------------------------------------


def bench_lambda(dim, gamma, repeats=REPEATS):
    ms, value = timed_ms(lambda: lambda_d(gamma, dim), repeats)
    return {"dim": dim, "measures": list(gamma), **ms, "value": value}


# -- fit ---------------------------------------------------------------------


def bench_fit(dim, spacing, radius, repeats=REPEATS):
    ball = rasterize_ellipsoid(Ellipsoid(np.zeros(dim), np.eye(dim) / radius**2), spacing)
    ms = timed_ms(lambda: fit_ellipsoid_moments(ball), repeats)[0]
    return {
        "dim": dim,
        "h": spacing,
        "radius": radius,
        "cells": ball.count,
        **ms,
        "peak_bytes": peak_bytes(lambda: fit_ellipsoid_moments(ball)),
    }


def spread(row, name="ms", digits=2):
    """The median of a time column, then its quartiles in brackets."""
    q = [row[f"{name}_p{p}"] for p in (50, 25, 75)]
    return "guarded" if q[0] is None else "{:.{d}f} [{:.{d}f}, {:.{d}f}]".format(*q, d=digits)


def main():
    print(f"{'step':>14} {'s':>22} {'maxrss MiB':>10}  scipy subpackages")
    imports = bench_import(IMPORT_RUNS)
    for row in imports:
        print(
            f"{row['step']:>14} {spread(row, 's', 3):>22} {row['maxrss_mib']:>10.1f}  "
            f"{', '.join(row['scipy'])}"
        )

    print(
        f"\n{'kernel':>22} {'dim':>3} {'radius':>6} {'ms':>22} {'band cells':>10} {'undecided':>10}"
    )
    raster = [bench_ellipsoid(dim, r) for dim, r in ELLIPSOID_CASES]
    raster += [bench_shear(3, r, v) for r, v in SHEAR_CASES]
    for row in raster:
        print(
            f"{row['kernel']:>22} {row['dim']:>3} {row['radius']:>6.2f} {spread(row):>22} "
            f"{row['band_cells']:>10} {row['undecided_samples']:>10}"
        )

    print(
        f"\n{'dim':>3} {'h':>8} {'cells':>22} {'pairs':>12} {'fft shape':>15} "
        f"{'fft MiB':>8} {'fft ms':>24} {'direct ms':>24}"
    )
    corner = []
    for dim, h, r, relocated in CORNER_CASES:
        row = bench_corner_counts(dim, h, r, relocated)
        corner.append(row)
        print(
            f"{dim:>3} {h:>8.5f} {str(row['cells']):>22} {row['pairs']:>12} "
            f"{'x'.join(map(str, row['fft_shape'])):>15} "
            f"{row['fft_peak_bytes'] / 2**20:>8.2f} {spread(row, 'fft_ms'):>24} "
            f"{spread(row, 'direct_ms'):>24}{' relocated' if relocated else ''}"
        )

    print(f"\n{'dim':>3} {'measures':>30} {'ms':>22} {'value':>20}")
    lam = [bench_lambda(dim, gamma) for dim, gamma in LAMBDA_CASES]
    for row in lam:
        measures = ", ".join(f"{g:.4f}" for g in row["measures"])
        print(f"{row['dim']:>3} {measures:>30} {spread(row, digits=3):>22} {row['value']:>20.17g}")

    print(f"\n{'dim':>3} {'h':>8} {'radius':>6} {'cells':>9} {'ms':>22} {'peak bytes':>11}")
    fit = [bench_fit(dim, h, r) for dim, h, r in FIT_CASES]
    for row in fit:
        print(
            f"{row['dim']:>3} {row['h']:>8.5f} {row['radius']:>6.2f} {row['cells']:>9} "
            f"{spread(row):>22} {row['peak_bytes']:>11}"
        )

    with open(OUT, "w") as fh:
        out = {
            "environment": environment(),
            "import": imports,
            "rasterize": raster,
            "corner_counts": corner,
            "lambda": lam,
            "fit": fit,
        }
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
