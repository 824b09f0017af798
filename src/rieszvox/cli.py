"""Command line entry points: gen, symmetrize, deficit, fit, sweep, verify."""

import argparse
import os
import sys

import numpy as np

from . import __version__, ellipsoid, functional, grid, sweep, symmetrize, verify


def _parse_value(text):
    if "," in text:
        return [float(x) for x in text.split(",")]
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _params(pairs):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise SystemExit(f"bad --param {item!r}, expected key=value")
        key, val = item.split("=", 1)
        out[key] = _parse_value(val)
    return out


def _load_triple(paths):
    return grid.SetTriple([grid.load(p) for p in paths])


def _out_path(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def cmd_gen(args):
    params = _params(args.param)
    params.setdefault("dim", args.dim)
    params.setdefault("spacing", args.spacing)
    e = grid.generate(args.kind, params, seed=args.seed)
    grid.save(e, args.out)
    print(f"{args.kind}: {e.count} cells, measure {e.measure:.6g} -> {args.out}")
    return 0


# star is the last-axis (Steiner) op, dagger the transverse (Schwarz) op
_OPS = {
    "bullet": symmetrize.ball_symmetrize,
    "star": symmetrize.steiner_symmetrize,
    "dagger": symmetrize.schwarz_symmetrize,
    "daggerstar": symmetrize.double_symmetrize,
}


def cmd_symmetrize(args):
    e = grid.load(args.input)
    s = _OPS[args.op](e)
    grid.save(s, args.out)
    print(f"measure before {e.measure:.6g}, after {s.measure:.6g} -> {args.out}")
    return 0


def cmd_deficit(args):
    t = _load_triple(args.inputs)
    rep = functional.deficit(t)
    print(f"T          {rep.t_value:.10g}")
    print(f"Lambda     {rep.lambda_value:.10g}")
    print(f"delta      {rep.delta:.10g}")
    print(f"tau margin {rep.tau_margin:.10g}")
    return 0


def cmd_fit(args):
    t = _load_triple(args.inputs)
    fit = ellipsoid.fit_homothetic_triple(t)
    with np.printoptions(precision=6, suppress=True):
        print(f"shape matrix\n{fit.shape.shape}")
        print(f"centers\n{fit.centers}")
        print(f"radii   {fit.radii}")
        print(f"epsilon {fit.epsilons} (max {fit.epsilons.max():.6g})")
    return 0


def cmd_sweep(args):
    mapping = {}
    if args.config:
        mapping.update(sweep.parse_config(args.config))
    for key in ("family", "levels", "samples", "dim"):
        val = getattr(args, key)
        if val is not None:
            mapping[key] = val
    mapping.setdefault("spacing", args.spacing)
    mapping.setdefault("seed", args.seed)
    config = sweep.config_from_mapping(mapping)
    records = sweep.run_sweep(config)
    csv_path = _out_path(args, config.out_csv)
    svg_path = _out_path(args, config.out_svg)
    sweep.write_csv(records, csv_path)
    sweep.render_svg(csv_path, svg_path)
    rho = sweep.spearman_delta_epsilon(sweep.read_csv(csv_path))
    print(f"{len(records)} records -> {csv_path}, {svg_path}")
    print(f"spearman(delta, epsilon_max) = {rho:.4f}")
    return 0


def cmd_verify(args):
    failures = verify.run_suite(suite=args.suite, seed=args.seed)
    return 1 if failures else 0


def build_parser():
    p = argparse.ArgumentParser(prog="rieszvox")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--spacing", type=float, default=1.0 / 64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--config", default=None, help="key=value config file")
    # the same globals are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spacing", type=float, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out-dir", default=argparse.SUPPRESS)
    common.add_argument("--config", default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[common], help="rasterize a generator family")
    g.add_argument("kind", choices=("ball", "ellipsoid", "blob", "union_of_balls"))
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--param", action="append", metavar="KEY=VALUE")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("symmetrize", parents=[common], help="apply a symmetrization")
    s.add_argument("input")
    s.add_argument("--op", choices=tuple(_OPS), required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_symmetrize)

    d = sub.add_parser("deficit", parents=[common], help="T, Lambda, delta for a stored triple")
    d.add_argument("inputs", nargs=3)
    d.set_defaults(fn=cmd_deficit)

    f = sub.add_parser("fit", parents=[common], help="homothetic ellipsoid fit for a triple")
    f.add_argument("inputs", nargs=3)
    f.set_defaults(fn=cmd_fit)

    w = sub.add_parser("sweep", parents=[common], help="perturbation sweep to CSV and SVG")
    w.add_argument("--family", choices=sweep.FAMILIES, default=None)
    w.add_argument("--levels", default=None, help="comma separated, ascending")
    w.add_argument("--samples", type=int, default=None)
    w.add_argument("--dim", type=int, default=None)
    w.set_defaults(fn=cmd_sweep)

    v = sub.add_parser("verify", parents=[common], help="run the invariant check suite")
    v.add_argument("--suite", choices=("fast", "all"), default="fast")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"rieszvox: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
