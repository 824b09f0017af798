"""Command line entry points: gen, symmetrize, deficit, fit, sweep, verify.

Flag and --param values reach the library as text (a --param comma list as
numbers), where its checks convert them; the choice lists are the library's."""

import argparse
import os
import sys

import numpy as np

from . import __version__, ellipsoid, functional, grid, sweep, symmetrize, verify


def _params(pairs):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError(f"bad --param {item!r}, expected key=value")
        key, val = item.split("=", 1)
        if key in out:
            raise ValueError(f"--param {key} given twice")
        out[key] = [grid.float_or_nan(x) for x in val.split(",")] if "," in val else val
    return out


def _given(args, names):
    """The flags among names that were given; unset ones are None."""
    return {k: getattr(args, k) for k in names if getattr(args, k, None) is not None}


def _out_path(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def cmd_gen(args):
    flags, params = _given(args, ("dim", "spacing")), _params(args.param)
    if both := sorted(flags.keys() & params.keys()):
        raise ValueError(f"{', '.join(both)} given both as a flag and as --param")
    e = grid.generate(args.kind, {**flags, **params}, **_given(args, ("seed",)))
    grid.save(e, args.out)
    print(f"{args.kind}: {e.count} cells, measure {e.measure:.6g} -> {args.out}")
    return 0


def cmd_symmetrize(args):
    e = grid.load(args.input)
    s = symmetrize.OPS[args.op](e)
    grid.save(s, args.out)
    print(f"measure before {e.measure:.6g}, after {s.measure:.6g} -> {args.out}")
    return 0


def cmd_deficit(args):
    rep = functional.deficit([grid.load(p) for p in args.inputs])
    print(f"T          {rep.t_value:.10g}")
    print(f"Lambda     {rep.lambda_value:.10g}")
    print(f"delta      {rep.delta:.10g}")
    print(f"tau margin {rep.tau_margin:.10g}")
    return 0


def cmd_fit(args):
    fit = ellipsoid.fit_homothetic_triple([grid.load(p) for p in args.inputs])
    with np.printoptions(precision=6, suppress=True):
        print(f"shape matrix\n{fit.shape.shape}")
        print(f"centers\n{fit.centers}")
        print(f"radii   {fit.radii}")
        print(f"epsilon {fit.epsilons} (max {fit.epsilons.max():.6g})")
    return 0


def cmd_sweep(args):
    # given flags beat the config file, which beats SweepConfig's defaults
    file = sweep.parse_config(args.config) if args.config else {}
    given = _given(args, ("dim", "spacing", "seed", "family", "levels", "samples"))
    config = sweep.SweepConfig(**{**file, **given})
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
    failures = verify.run_suite(**_given(args, ("suite", "seed")))
    return 1 if failures else 0


def build_parser():
    p = argparse.ArgumentParser(prog="rieszvox")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="rasterize a generator family")
    g.add_argument("kind", choices=grid.KINDS)
    g.add_argument("--dim")
    g.add_argument("--spacing")
    g.add_argument("--seed")
    g.add_argument("--param", action="append", metavar="KEY=VALUE")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("symmetrize", help="apply a symmetrization")
    s.add_argument("input")
    s.add_argument("--op", choices=tuple(symmetrize.OPS), required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_symmetrize)

    d = sub.add_parser("deficit", help="T, Lambda, delta for a stored triple")
    d.add_argument("inputs", nargs=3)
    d.set_defaults(fn=cmd_deficit)

    f = sub.add_parser("fit", help="homothetic ellipsoid fit for a triple")
    f.add_argument("inputs", nargs=3)
    f.set_defaults(fn=cmd_fit)

    w = sub.add_parser("sweep", help="perturbation sweep to CSV and SVG")
    w.add_argument("--family", choices=sweep.FAMILIES)
    w.add_argument("--levels", help="comma separated, ascending")
    w.add_argument("--samples")
    w.add_argument("--dim")
    w.add_argument("--spacing")
    w.add_argument("--seed")
    w.add_argument("--out-dir", default=".")
    w.add_argument("--config", help="key=value config file")
    w.set_defaults(fn=cmd_sweep)

    v = sub.add_parser("verify", help="run the invariant check suite")
    v.add_argument("--suite", choices=verify.SUITES)
    v.add_argument("--seed")
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
