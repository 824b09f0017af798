"""Stability sweeps: perturbation families, the sweep runner, CSV records,
and the scatter SVG.

Families (level p):
  noise     flip boundary-adjacent cells with probability p, then restore
            the exact cell count by greedy boundary correction, so measures
            (hence Lambda and the tau margin) stay fixed and the deficit
            isolates shape change
  relocate  move a p-fraction of the first set's cells to a distant ball
  shear     a shared determinant-1 shear plus lattice translations summing
            to zero (a symmetry of T: negative control, deficit flat)
  skew      vertical column shifts applied to the third set only, slope p
            (breaks center compatibility: positive control)
"""

import csv
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .functional import deficit
from .grid import (
    AffineMapTriple,
    SetTriple,
    VoxelSet,
    check_dim,
    check_integer,
    check_positive,
    float_or_nan,
    from_cells,
    generate,
)
from .symmetrize import _greedy_ball_order

FAMILIES = ("noise", "relocate", "shear", "skew")


def _check_family(family, dim):
    """A known family at a dim it is defined at (shear and skew need two axes)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if dim == 1 and family in ("shear", "skew"):
        raise ValueError(f"family {family!r} needs dim >= 2")


def _levels(value):
    """One or more finite levels, ascending, from a sequence or a comma string
    (a word in it reads as NaN)."""
    parts = value.split(",") if isinstance(value, str) else value
    try:
        levels = tuple(float_or_nan(x) for x in parts)
    except TypeError:  # not a sequence
        levels = ()
    if not levels or not np.all(np.isfinite(levels)) or list(levels) != sorted(levels):
        raise ValueError(f"levels must be nonempty, finite and ascending, got {value}")
    return levels


@dataclass
class SweepConfig:
    """Each field is checked and cast once, in field order, and a bad value
    raises its check's ValueError naming the field: integers (3.0 is 3,
    2.5 an error), dim 1, 2 or 3, seed >= 0, samples >= 1, a finite
    positive spacing, a known family, one or more finite ascending levels
    (a comma string is split) within [0, 1] for noise and relocate.  Text
    works wherever a number does, as a config file gives it."""

    dim: int = 2
    spacing: float = 1.0 / 64
    seed: int = 0
    family: str = "noise"
    levels: tuple = (0.02, 0.05, 0.1, 0.2)
    samples: int = 25
    out_csv: str = "sweep.csv"
    out_svg: str = "sweep.svg"

    def __post_init__(self):
        self.dim = check_dim(self.dim)
        self.spacing = check_positive(self.spacing, "spacing")
        self.seed = check_integer(self.seed, "seed", low=0)
        _check_family(self.family, self.dim)
        self.family = str(self.family)
        self.levels = _levels(self.levels)
        self.samples = check_integer(self.samples, "samples", low=1)
        self.out_csv, self.out_svg = str(self.out_csv), str(self.out_svg)
        if self.family in ("noise", "relocate") and not 0 <= self.levels[0] <= self.levels[-1] <= 1:
            raise ValueError(
                f"levels must lie in [0, 1] for family {self.family!r}, got {self.levels}"
            )


@dataclass
class SweepRecord:
    family: str
    level: float
    seed: int
    delta: float
    epsilon_max: float
    tau_margin: float
    t_value: float
    lambda_value: float
    runtime_ms: float = field(metadata={"format": ".3f"})


CSV_COLUMNS = ",".join(f.name for f in fields(SweepRecord))


def parse_config(path):
    """A flat key=value text config as a dict of strings, for
    SweepConfig(**...); '#' starts a comment.  A line without '=', a key
    that is not a SweepConfig field or a key given twice raises a
    ValueError naming it."""
    names = {f.name for f in fields(SweepConfig)}
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in names:
                raise ValueError(f"unknown config key {key!r}, expected one of {sorted(names)}")
            if key in out:
                raise ValueError(f"config key {key!r} given twice")
            out[key] = val
    return out


# -- perturbations ----------------------------------------------------------


def _face_or(a):
    """OR of the 2*dim face-neighbor shifts (outside counts as empty)."""
    out = np.zeros_like(a)
    for ax in range(a.ndim):
        pre = (slice(None),) * ax
        out[pre + (slice(1, None),)] |= a[pre + (slice(None, -1),)]
        out[pre + (slice(None, -1),)] |= a[pre + (slice(1, None),)]
    return out


def _ordered_by_distance(cells, centroid, farthest):
    # cells come in lexicographic order, so the stable sort breaks distance
    # ties lexicographically
    d2 = ((cells - centroid) ** 2).sum(axis=1)
    return cells[np.argsort(-d2 if farthest else d2, kind="stable")]


def perturb_noise(e, p, rng):
    """Flip boundary-adjacent cells with probability p, then restore the
    exact count by greedy boundary correction (remove farthest from the
    centroid / add nearest, ties lexicographic)."""
    x = float_or_nan(p)
    if not 0 <= x <= 1:
        raise ValueError(f"noise level must be in [0, 1], got {p}")
    target = e.count
    occ = np.pad(e.occupancy, 1)
    origin = e.origin_index - 1
    band = (occ & _face_or(~occ)) | (~occ & _face_or(occ))
    flip = band & (rng.random(occ.shape) < x)
    new = occ ^ flip
    if not new.any():
        return e  # the level destroyed the set; keep the original
    while True:
        drift = int(new.sum()) - target
        if drift == 0:
            break
        new = np.pad(new, 1)
        origin = origin - 1
        if drift > 0:
            cand = np.argwhere(new & _face_or(~new))
        else:
            cand = np.argwhere(~new & _face_or(new))
        centroid = np.argwhere(new).mean(axis=0)
        cand = _ordered_by_distance(cand, centroid, farthest=drift > 0)
        take = cand[: abs(drift)]
        new[tuple(take.T)] = drift < 0
    return VoxelSet.from_index(new, origin, e.spacing).tighten()


def perturb_relocate(e, frac):
    """Move a frac-fraction of the cells (the ones farthest from the
    centroid) into a greedy ball placed past the bounding box."""
    x = float_or_nan(frac)
    if not 0 <= x <= 1:
        raise ValueError(f"relocate fraction must be in [0, 1], got {frac}")
    n = e.count
    k = int(round(x * n))
    if k == 0:
        return e
    cells = e.global_indices()
    centroid = cells.mean(axis=0)
    ordered = _ordered_by_distance(cells, centroid, farthest=True)
    keep = ordered[k:]
    ball = _greedy_ball_order(k, e.dim)
    rb = int(np.abs(ball).max()) + 2
    shift = np.zeros(e.dim, dtype=np.int64)
    shift[0] = int(e.origin_index[0] + e.shape[0]) + rb + 4
    moved = ball + shift
    return from_cells(np.vstack([keep, moved]), e.dim, e.spacing)


def _roll_columns(e, shifts):
    """Shift each last-axis column by an integer cell count (exact)."""
    loc = e.local_indices()
    k = np.asarray(shifts, dtype=np.int64).reshape(e.occupancy.shape[:-1])
    cells = loc + e.origin_index
    cells[:, -1] += k[tuple(loc[:, :-1].T)]
    return from_cells(cells, e.dim, e.spacing)


def skew_columns(e, slope):
    """Vertical skew by an affine map of the column coordinates: each column
    at physical y gains the integer shift round(slope . y / h); slope has
    dim - 1 finite components."""
    if e.dim < 2:
        raise ValueError("skew columns need dim >= 2")
    v = np.vectorize(float_or_nan, otypes=[float])(slope).reshape(-1)
    if v.size != e.dim - 1 or not np.all(np.isfinite(v)):
        raise ValueError(f"slope must have {e.dim - 1} finite components, got {slope}")
    lead = e.occupancy.shape[:-1]
    idx = np.indices(lead).reshape(e.dim - 1, -1).T + e.origin_index[:-1]
    y = (idx + 0.5) * e.spacing
    k = np.rint((y @ v) / e.spacing).astype(np.int64).reshape(lead)
    return _roll_columns(e, k)


def base_triple(dim, spacing, rng):
    """Concentric near-extremal ball triple with jittered radii."""
    radii = np.array([1.0, 0.92, 0.85]) * (1 + 0.06 * (rng.random(3) - 0.5))
    return SetTriple(
        [generate("ball", {"dim": dim, "spacing": spacing, "radius": r}) for r in radii]
    )


def apply_family(t, family, level, rng):
    """Perturb a SetTriple by one family at the given level."""
    t = SetTriple(t)
    _check_family(family, t.dim)
    if family == "noise":
        return SetTriple([perturb_noise(e, level, rng) for e in t])
    if family == "relocate":
        return SetTriple([perturb_relocate(t[0], level), t[1], t[2]])
    if family == "shear":
        h = t.spacing
        a = np.eye(t.dim)
        a[0, -1] = level
        shift = np.zeros(t.dim)
        shift[0] = round(0.25 / h) * h
        return AffineMapTriple(a, [shift, -shift, np.zeros(t.dim)]).apply(t)
    if family == "skew":
        slope = np.zeros(t.dim - 1)
        slope[0] = level
        return SetTriple([t[0], t[1], skew_columns(t[2], slope)])


# -- the runner -------------------------------------------------------------


def _one_record(config, li, si):
    level = config.levels[li]
    rec_seed = config.seed * 1000003 + li * 1009 + si
    rng = np.random.default_rng(rec_seed)
    base = base_triple(config.dim, config.spacing, rng)
    perturbed = apply_family(base, config.family, level, rng)
    t0 = time.perf_counter()
    rep = deficit(perturbed, with_fit=True)
    ms = (time.perf_counter() - t0) * 1000.0
    return SweepRecord(
        family=config.family,
        level=level,
        seed=rec_seed,
        delta=rep.delta,
        epsilon_max=float(rep.fit.epsilons.max()),
        tau_margin=rep.tau_margin,
        t_value=rep.t_value,
        lambda_value=rep.lambda_value,
        runtime_ms=ms,
    )


def run_sweep(config, max_workers=None):
    """One SweepRecord per (level, sample).  Samples run concurrently on
    max_workers threads (an integer >= 1, by default min(8, CPU count)); the
    returned list is always in (level, sample) order, each record seeded
    independently, so the output is identical regardless of scheduling."""
    jobs = [
        (li, si)
        for li in range(len(config.levels))
        for si in range(config.samples)
    ]
    if max_workers is None:
        max_workers = min(8, os.cpu_count() or 1)
    max_workers = check_integer(max_workers, "max_workers", low=1)
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(lambda j: _one_record(config, *j), jobs))


def write_csv(records, path):
    """One column per SweepRecord field: floats as .10g unless the field's
    metadata names a format, other values as they are."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_COLUMNS + "\n")
        w = csv.writer(fh, lineterminator="\n")
        for r in records:
            w.writerow(
                format(
                    getattr(r, f.name),
                    f.metadata.get("format", ".10g" if f.type is float else ""),
                )
                for f in fields(r)
            )


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in row:
            if key not in ("family",):
                row[key] = float(row[key])
    return rows


def spearman_delta_epsilon(rows):
    """Spearman rank correlation between delta and epsilon_max: the Pearson
    correlation of tie-averaged ranks, nan unless both columns vary."""
    ranks = []
    for key in ("delta", "epsilon_max"):
        _, inv, n = np.unique([r[key] for r in rows], return_inverse=True, return_counts=True)
        if n.size < 2:  # fewer than two rows, or a constant column
            return float("nan")
        ranks.append((np.cumsum(n) - (n - 1) / 2)[inv])  # 1-based, ties averaged
    return float(np.corrcoef(*ranks)[0, 1])


# -- SVG rendering -----------------------------------------------------------

_PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44",
    "#66ccee", "#aa3377", "#bbbbbb", "#222222",
)


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def render_svg(csv_path, svg_path):
    """Scatter of (delta, epsilon_max) colored by level, built only from the
    CSV (nothing is recomputed)."""
    rows = read_csv(csv_path)
    if not rows:
        raise ValueError("empty sweep CSV")
    levels = sorted({r["level"] for r in rows})
    color = {lv: _PALETTE[i % len(_PALETTE)] for i, lv in enumerate(levels)}
    xs = [r["delta"] for r in rows]
    ys = [r["epsilon_max"] for r in rows]
    xlo, xhi = min(xs + [0.0]), max(xs) * 1.05 + 1e-12
    ylo, yhi = min(ys + [0.0]), max(ys) * 1.05 + 1e-12
    W, H = 640, 440
    ml, mr, mt, mb = 60, 130, 30, 50

    def px(x):
        return ml + (x - xlo) / (xhi - xlo) * (W - ml - mr)

    def py(y):
        return H - mb - (y - ylo) / (yhi - ylo) * (H - mt - mb)

    def line(x1, y1, x2, y2):
        return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"/>'

    def text(x, y, size, body, attrs=""):
        return (
            f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}"{attrs}>'
            f"{body}</text>"
        )

    mid = f"{(mt + H - mb) / 2:.0f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        text(ml, 18, 13, f"family {rows[0]['family']}: deficit vs fit error"),
        line(ml, H - mb, W - mr, H - mb),  # the axes
        line(ml, mt, ml, H - mb),
    ]
    for tx in _ticks(xlo, xhi):
        x = f"{px(tx):.1f}"
        parts += [
            line(x, H - mb, x, H - mb + 4),
            text(x, H - mb + 16, 10, f"{tx:.3g}", ' text-anchor="middle"'),
        ]
    for ty in _ticks(ylo, yhi):
        y = f"{py(ty):.1f}"
        parts += [
            line(ml - 4, y, ml, y),
            text(ml - 7, f"{py(ty) + 3:.1f}", 10, f"{ty:.3g}", ' text-anchor="end"'),
        ]
    parts += [
        text(f"{(ml + W - mr) / 2:.0f}", H - 12, 12, "deficit delta", ' text-anchor="middle"'),
        text(
            16, mid, 12, "epsilon_max", f' text-anchor="middle" transform="rotate(-90 16 {mid})"'
        ),
    ]
    parts += (
        f'<circle cx="{px(r["delta"]):.2f}" cy="{py(r["epsilon_max"]):.2f}" '
        f'r="3" fill="{color[r["level"]]}" fill-opacity="0.75"/>'
        for r in rows
    )
    for i, lv in enumerate(levels):  # the legend
        yy = mt + 14 + 16 * i
        parts += [
            f'<circle cx="{W - mr + 16}" cy="{yy}" r="4" fill="{color[lv]}"/>',
            text(W - mr + 26, yy + 4, 11, f"level {lv:g}"),
        ]
    parts.append("</svg>")
    with open(svg_path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
