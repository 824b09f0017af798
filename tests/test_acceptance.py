"""Acceptance suite. One test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Budgeted criteria assert their own wall-clock limits.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import random_voxel_set
from rieszvox import (
    SetTriple,
    ball_symmetrize,
    center_compatibility,
    deficit,
    double_symmetrize,
    dyadic_layers,
    fit_homothetic_triple,
    generate,
    lambda_1,
    lambda_d,
    measure_margin,
    schwarz_symmetrize,
    steiner_symmetrize,
    strong_triangle_rho,
    superadditivity_gap,
    theta,
    trilinear_corner_counts,
    trilinear_form,
    trilinear_form_direct,
    upscale_integer,
)
from rieszvox.sweep import (
    SweepConfig,
    apply_family,
    base_triple,
    run_sweep,
    skew_columns,
    spearman_delta_epsilon,
)

H64 = 1.0 / 64


def _line(n, ok, detail):
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n:02d}: {detail}"


def test_criterion_01_fft_direct_exact():
    start = time.perf_counter()
    mismatches = 0
    for dim in (1, 2, 3):
        rng = np.random.default_rng(100 + dim)
        for _ in range(100):
            t = SetTriple([random_voxel_set(dim, rng, cells=16) for _ in range(3)])
            if trilinear_corner_counts(t, method="fft") != trilinear_corner_counts(
                t, method="direct"
            ):
                mismatches += 1
    elapsed = time.perf_counter() - start
    _line(
        1,
        mismatches == 0 and elapsed <= 30.0,
        f"{mismatches} count mismatches over 300 triples, {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_02_interval_closed_form():
    gamma = (1.0, 0.8, 0.9)
    radii = tuple(g / 2 for g in gamma)
    lam = lambda_1(gamma)

    # quadrature oracle: T = integral over E3 of the exact pairwise overlap
    # |E1 ^ (w - E2)| = min(2 r1, 2 r2, r1 + r2 - |w|) clipped at zero
    r1, r2, r3 = radii
    dz = 1.0 / 2048
    u = np.linspace(-r3, r3, int(round(2 * r3 / dz)) + 1)
    overlap = np.clip(np.minimum(np.minimum(2 * r1, 2 * r2), r1 + r2 - np.abs(u)), 0, None)
    oracle = float(np.trapezoid(overlap, u))

    t = SetTriple(
        [generate("ball", {"dim": 1, "spacing": 1.0 / 256, "radius": r}) for r in radii]
    )
    t_grid = trilinear_form(t)
    grid_rel = abs(t_grid - lam) / lam
    oracle_err = abs(oracle - lam)
    _line(
        2,
        grid_rel <= 0.01 and oracle_err <= 1e-4,
        f"grid T rel err {grid_rel:.2e} (limit 1e-2), "
        f"quadrature vs closed form {oracle_err:.2e} (limit 1e-4)",
    )


def test_criterion_03_disk_deficit_small():
    deltas = {}
    for h in (1.0 / 64, 1.0 / 128):
        t = SetTriple(
            [generate("ball", {"dim": 2, "spacing": h, "radius": 1.0}) for _ in range(3)]
        )
        deltas[h] = deficit(t).delta
    d64, d128 = deltas[1.0 / 64], deltas[1.0 / 128]
    ok = abs(d64) <= 0.02 and abs(d128) <= 0.01 and abs(d128) < abs(d64)
    _line(3, ok, f"|delta| = {abs(d64):.2e} at 1/64, {abs(d128):.2e} at 1/128, shrinking")


def test_criterion_04_symmetrization_suite(blob_corpus, blob_triples):
    start = time.perf_counter()
    ops = (ball_symmetrize, steiner_symmetrize, schwarz_symmetrize, double_symmetrize)
    violations = []
    for i, e in enumerate(blob_corpus):
        for op in ops:
            s = op(e)
            if s.count != e.count:
                violations.append(f"count blob {i} {op.__name__}")
            if op(s) != s:
                violations.append(f"idempotence blob {i} {op.__name__}")
        ds = double_symmetrize(e)
        if schwarz_symmetrize(ds) != ds:
            violations.append(f"fixed point blob {i}")
    worst_drop = 0.0
    for t in blob_triples:
        t_base = trilinear_form(t)
        for op in (steiner_symmetrize, schwarz_symmetrize, double_symmetrize):
            t_sym = trilinear_form(SetTriple([op(e) for e in t]))
            if t_sym < t_base * (1 - 0.01):
                violations.append(f"monotonicity {op.__name__}")
            worst_drop = max(worst_drop, (t_base - t_sym) / t_base)
    elapsed = time.perf_counter() - start
    _line(
        4,
        not violations and elapsed <= 120.0,
        f"{len(violations)} violations over 200 blobs, worst T drop "
        f"{worst_drop:.2e}, {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_05_upper_bound_holds(blob_triples):
    worst = 0.0
    violations = 0
    for t in blob_triples:
        variants = [t] + [
            SetTriple([op(e) for e in t])
            for op in (ball_symmetrize, steiner_symmetrize, schwarz_symmetrize, double_symmetrize)
        ]
        for v in variants:
            ratio = trilinear_form(v) / lambda_d(v.measures, v.dim)
            worst = max(worst, ratio)
            if ratio > 1.02:
                violations += 1
    _line(
        5,
        violations == 0,
        f"{violations} violations, max T / Lambda = {worst:.4f} over "
        f"{5 * len(blob_triples)} triples (limit 1.02)",
    )


def test_criterion_06_superadditivity():
    worst = np.inf
    violations = 0
    for dim in (1, 2, 3):
        rng = np.random.default_rng(600 + dim)
        accepted = 0
        while accepted < 200:
            gamma = rng.uniform(0.2, 1.0, 3)
            if not measure_margin(gamma, dim).strict:
                continue
            accepted += 1
            alpha = rng.uniform(0.2, 0.8, 3) * gamma
            beta = gamma - alpha
            gap = superadditivity_gap(alpha, beta, dim)
            floor = -1e-6 * lambda_d(gamma, dim)
            worst = min(worst, gap)
            if gap < floor:
                violations += 1
    rho1 = strong_triangle_rho(0.5, 0.25, 1, samples=10000)
    rho2 = strong_triangle_rho(0.5, 0.25, 2, samples=3000)
    _line(
        6,
        violations == 0 and rho1 > 0 and rho2 > 0,
        f"{violations} gap violations over 600 splits (worst gap {worst:.2e}), "
        f"rho = {rho1:.4f} (d=1), {rho2:.4f} (d=2)",
    )


def test_criterion_07_layer_coupling_bound(blob_corpus):
    worst = 0.0
    violations = 0
    checked = 0
    for i in range(100):
        t = [blob_corpus[(i + j) % len(blob_corpus)] for j in range(3)]
        decs = [dyadic_layers(e) for e in t]
        for ks in itertools.product(*(sorted(d.layers) for d in decs)):
            records = [
                (k, d.projections[k], d.layers[k].measure) for k, d in zip(ks, decs)
            ]
            lhs = trilinear_form_direct([d.layers[k] for k, d in zip(ks, decs)])
            rhs = 4.0 * theta(records) * np.prod([m ** (2.0 / 3.0) for _, _, m in records])
            ratio = lhs / rhs
            worst = max(worst, ratio)
            checked += 1
            if lhs > rhs:
                violations += 1
    _line(
        7,
        violations == 0,
        f"{violations} violations over {checked} layer triples, max ratio {worst:.4f}",
    )


def test_criterion_08_affine_covariance():
    rng = np.random.default_rng(8)
    t = SetTriple(
        [
            generate(
                "blob",
                {"dim": 2, "spacing": 1.0 / 32, "radius": 0.4, "steps": 5},
                seed=80 + j,
            )
            for j in range(3)
        ]
    )
    base_counts = sum(trilinear_corner_counts(t).values())
    t_base = trilinear_form(t)
    dilation_ok = True
    for m in (1, 2, 3):
        tm = SetTriple([upscale_integer(e, m) for e in t])
        counts_m = sum(trilinear_corner_counts(tm).values())
        if counts_m != base_counts * m ** (2 * t.dim):
            dilation_ok = False
        if abs(trilinear_form(tm) - t_base) > 1e-12 * t_base:
            dilation_ok = False

    balls = base_triple(2, H64, np.random.default_rng(81))
    delta0 = deficit(balls).delta
    drift = 0.0
    for level in (0.1, 0.2, 0.3, 0.4, 0.5):
        sheared = apply_family(balls, "shear", level, rng)
        drift = max(drift, abs(deficit(sheared).delta - delta0))
    _line(
        8,
        dilation_ok and drift <= 0.01,
        f"dilation counts exact for m in (1,2,3): {dilation_ok}, "
        f"max |delta - delta0| = {drift:.2e} over shears to 0.5 (limit 0.01)",
    )


def test_criterion_09_fit_recovery():
    shapes = (
        np.array([[1.3, 0.3], [0.3, 0.9]]),
        np.array([[0.8, -0.2], [-0.2, 1.4]]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    radii = (0.5, 0.45, 0.4)
    centers = [(0.15, 0.0), (-0.1, 0.08), (-0.05, -0.08)]
    eps_worst = 0.0
    shape_worst = 0.0
    center_worst = 0.0
    for q in shapes:
        t = SetTriple(
            [
                generate(
                    "ellipsoid",
                    {
                        "dim": 2,
                        "spacing": H64,
                        "shape": (q / r**2).tolist(),
                        "center": list(c),
                    },
                )
                for c, r in zip(centers, radii)
            ]
        )
        fit = fit_homothetic_triple(t)
        q_norm = q / np.linalg.det(q) ** 0.5
        eps_worst = max(eps_worst, float(fit.epsilons.max()))
        shape_err = np.max(np.abs(fit.shape.shape - q_norm)) / np.max(np.abs(q_norm))
        shape_worst = max(shape_worst, float(shape_err))
        center_worst = max(center_worst, float(np.abs(fit.centers.sum(axis=0)).max()))
    ok = eps_worst <= 0.03 and shape_worst <= 0.05 and center_worst <= 1e-12
    _line(
        9,
        ok,
        f"max epsilon {eps_worst:.3f} (limit 0.03), shape entry err {shape_worst:.3f} "
        f"(limit 0.05), |sum centers| {center_worst:.1e} (limit 1e-12)",
    )


def _level_medians(rows, column):
    """Per-level medians of a column, in ascending level order."""
    levels = sorted({r["level"] for r in rows})
    return [float(np.median([r[column] for r in rows if r["level"] == lv])) for lv in levels]


def test_criterion_10_noise_trend():
    start = time.perf_counter()
    config = SweepConfig(
        dim=2,
        spacing=H64,
        seed=10,
        family="noise",
        levels=(0.02, 0.05, 0.1, 0.2, 0.3),
        samples=25,
    )
    records = run_sweep(config)
    rows = [
        {"level": r.level, "delta": r.delta, "epsilon_max": r.epsilon_max}
        for r in records
    ]
    rho = spearman_delta_epsilon(rows)
    med_delta = _level_medians(rows, "delta")
    med_eps = _level_medians(rows, "epsilon_max")
    increasing = all(b > a for a, b in zip(med_delta, med_delta[1:])) and all(
        b > a for a, b in zip(med_eps, med_eps[1:])
    )
    elapsed = time.perf_counter() - start
    _line(
        10,
        rho >= 0.9 and increasing and elapsed <= 600.0,
        f"spearman {rho:.3f} (floor 0.9), medians increasing: {increasing}, "
        f"{elapsed:.0f}s (limit 600s)",
    )


def test_criterion_11_center_compatibility():
    radii = (0.5, 0.46, 0.42)
    t = SetTriple(
        [generate("ball", {"dim": 2, "spacing": H64, "radius": r}) for r in radii]
    )
    baseline = center_compatibility(t)
    slope = np.array([0.3])
    shared = center_compatibility(SetTriple([skew_columns(e, slope) for e in t]))
    broken = center_compatibility(SetTriple([t[0], t[1], skew_columns(t[2], slope)]))
    ok = (
        baseline <= 2 * H64
        and abs(shared - baseline) <= 2 * H64
        and broken >= 5 * baseline
        and broken > 2 * H64
    )
    _line(
        11,
        ok,
        f"baseline {baseline:.4f} (limit {2 * H64:.4f}), shared-slope skew "
        f"{shared:.4f}, one-set skew {broken:.4f} (needs > {2 * H64:.4f} "
        f"and >= 5x baseline)",
    )
