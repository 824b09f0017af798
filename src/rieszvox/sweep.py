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
import io
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
    check_integer,
    check_positive,
    from_cells,
    generate,
)
from .symmetrize import _greedy_ball_order

FAMILIES = ("noise", "relocate", "shear", "skew")


def _levels(value, name):
    """Finite levels in ascending order, from a sequence or a comma string."""
    parts = value.split(",") if isinstance(value, str) else value
    levels = tuple(float(x) for x in parts)
    if not np.all(np.isfinite(levels)) or list(levels) != sorted(levels):
        raise ValueError(f"{name} must be finite and ascending, got {levels}")
    return levels


# a SweepConfig field's check by its type; metadata holds an int's lower bound
_CHECKS = {int: check_integer, float: check_positive, tuple: _levels, str: lambda v, _: str(v)}


@dataclass
class SweepConfig:
    """Each field is checked and cast by its type: integers (3.0 is 3, 2.5
    an error), a finite positive spacing, finite ascending levels (a comma
    string is split).  A bad value raises a ValueError naming the field."""

    dim: int = 2
    spacing: float = 1.0 / 64
    seed: int = field(default=0, metadata={"low": 0})
    family: str = "noise"
    levels: tuple = (0.02, 0.05, 0.1, 0.2)
    samples: int = field(default=25, metadata={"low": 1})
    out_csv: str = "sweep.csv"
    out_svg: str = "sweep.svg"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                setattr(self, f.name, _CHECKS[f.type](value, f.name, **f.metadata))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{f.name}: invalid value {value!r} ({exc})") from exc
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2, or 3, got {self.dim}")
        if self.dim == 1 and self.family in ("shear", "skew"):
            raise ValueError(f"family {self.family!r} needs dim >= 2")


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
    """Flat key=value text config; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def config_from_mapping(m):
    unknown = set(m) - {f.name for f in fields(SweepConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return SweepConfig(**m)


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
    d2 = ((cells - centroid) ** 2).sum(axis=1)
    key = -d2 if farthest else d2
    order = np.lexsort(tuple(cells[:, i] for i in reversed(range(cells.shape[1]))) + (key,))
    return cells[order]


def perturb_noise(e, p, rng):
    """Flip boundary-adjacent cells with probability p, then restore the
    exact count by greedy boundary correction (remove farthest from the
    centroid / add nearest, ties lexicographic)."""
    if not 0 <= p <= 1:
        raise ValueError(f"noise level must be in [0, 1], got {p}")
    target = e.count
    occ = np.pad(e.occupancy, 1)
    origin = e.origin_index - 1
    band = (occ & _face_or(~occ)) | (~occ & _face_or(occ))
    flip = band & (rng.random(occ.shape) < p)
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


def perturb_relocate(e, frac, rng=None):
    """Move a frac-fraction of the cells (the ones farthest from the
    centroid) into a greedy ball placed past the bounding box."""
    if not 0 <= frac <= 1:
        raise ValueError(f"relocate fraction must be in [0, 1], got {frac}")
    n = e.count
    k = int(round(frac * n))
    if k == 0:
        return e
    cells = e.global_indices()
    centroid = cells.mean(axis=0)
    ordered = _ordered_by_distance(cells, centroid, farthest=True)
    keep = ordered[k:]
    ball = _greedy_ball_order(k, e.dim)
    rb = int(np.abs(ball).max()) + 2 if len(ball) else 2
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
    slope = np.asarray(slope, dtype=float).reshape(-1)
    if slope.size != e.dim - 1 or not np.all(np.isfinite(slope)):
        raise ValueError(f"slope must have {e.dim - 1} finite components, got {slope}")
    lead = e.occupancy.shape[:-1]
    idx = np.indices(lead).reshape(e.dim - 1, -1).T + e.origin_index[:-1]
    y = (idx + 0.5) * e.spacing
    k = np.rint((y @ slope) / e.spacing).astype(np.int64).reshape(lead)
    return _roll_columns(e, k)


def base_triple(dim, spacing, rng):
    """Concentric near-extremal ball triple with jittered radii."""
    radii = np.array([1.0, 0.92, 0.85]) * (1 + 0.06 * (rng.random(3) - 0.5))
    return SetTriple(
        [generate("ball", {"dim": dim, "spacing": spacing, "radius": r}) for r in radii]
    )


def apply_family(t, family, level, rng):
    """Perturb a SetTriple by one family at the given level."""
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
    raise ValueError(f"unknown family {family!r}")


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
    """One SweepRecord per (level, sample).  Samples run concurrently; the
    returned list is always in (level, sample) order, each record seeded
    independently, so the output is identical regardless of scheduling."""
    jobs = [
        (li, si)
        for li in range(len(config.levels))
        for si in range(config.samples)
    ]
    if max_workers is None:
        max_workers = min(8, os.cpu_count() or 1)
    if max_workers <= 1:
        return [_one_record(config, li, si) for li, si in jobs]
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


def level_medians(rows, column):
    """Per-level medians of a CSV column, keyed by level, sorted."""
    groups = {}
    for r in rows:
        groups.setdefault(r["level"], []).append(r[column])
    return {lv: float(np.median(v)) for lv, v in sorted(groups.items())}


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

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">\n'
    )
    out.write(f'<rect width="{W}" height="{H}" fill="white"/>\n')
    fam = rows[0]["family"]
    out.write(
        f'<text x="{ml}" y="18" font-family="sans-serif" font-size="13">'
        f"family {fam}: deficit vs fit error</text>\n"
    )
    # axes
    out.write(
        f'<line x1="{ml}" y1="{H-mb}" x2="{W-mr}" y2="{H-mb}" stroke="black"/>\n'
    )
    out.write(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H-mb}" stroke="black"/>\n')
    for tx in _ticks(xlo, xhi):
        out.write(
            f'<line x1="{px(tx):.1f}" y1="{H-mb}" x2="{px(tx):.1f}" y2="{H-mb+4}" '
            'stroke="black"/>\n'
        )
        out.write(
            f'<text x="{px(tx):.1f}" y="{H-mb+16}" font-family="sans-serif" '
            f'font-size="10" text-anchor="middle">{tx:.3g}</text>\n'
        )
    for ty in _ticks(ylo, yhi):
        out.write(
            f'<line x1="{ml-4}" y1="{py(ty):.1f}" x2="{ml}" y2="{py(ty):.1f}" '
            'stroke="black"/>\n'
        )
        out.write(
            f'<text x="{ml-7}" y="{py(ty)+3:.1f}" font-family="sans-serif" '
            f'font-size="10" text-anchor="end">{ty:.3g}</text>\n'
        )
    out.write(
        f'<text x="{(ml+W-mr)/2:.0f}" y="{H-12}" font-family="sans-serif" '
        'font-size="12" text-anchor="middle">deficit delta</text>\n'
    )
    out.write(
        f'<text x="16" y="{(mt+H-mb)/2:.0f}" font-family="sans-serif" '
        'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {(mt+H-mb)/2:.0f})">epsilon_max</text>\n'
    )
    for r in rows:
        out.write(
            f'<circle cx="{px(r["delta"]):.2f}" cy="{py(r["epsilon_max"]):.2f}" '
            f'r="3" fill="{color[r["level"]]}" fill-opacity="0.75"/>\n'
        )
    # legend
    for i, lv in enumerate(levels):
        yy = mt + 14 + 16 * i
        out.write(
            f'<circle cx="{W-mr+16}" cy="{yy}" r="4" fill="{color[lv]}"/>\n'
        )
        out.write(
            f'<text x="{W-mr+26}" y="{yy+4}" font-family="sans-serif" '
            f'font-size="11">level {lv:g}</text>\n'
        )
    out.write("</svg>\n")
    with open(svg_path, "w") as fh:
        fh.write(out.getvalue())
