"""The benchmark's three workloads.

Each workload turns the benchmark seed into a fixed list of items and runs
them through rieszvox's public functions. An item holds one or more ops,
the unit each workload times; every op reports its wall time and a digest
of its exact results, and raises nothing: a failure is returned as an
error string.

sweep_d3    op = one run_sweep call for one (family, level) cell at d=3,
            h=1/32, plus write_csv and render_svg. Rasterization dominates
            it; it is the only workload using the sweep thread pool and
            file output, and it never calls the direct T path.
layers_d2   op = one blob triple at d=2, h=1/32: dyadic layers, fft and
            direct corner counts of every layer triple (equal as integers),
            the theta bound of each layer triple, center compatibility. It
            is the layer-coupling oracle path, mostly the direct counts.
verify_all  op = one check of verify.run_suite("all", suite_seed), timed at
            each call of its out callback: many small calls across every
            module and d=1..3, so per-call overhead shows here.
"""

import hashlib
import itertools
import os

import numpy as np
import rieszvox as rv
from rieszvox import verify

SWEEP_CELLS = (("noise", 0.1), ("relocate", 0.1), ("shear", 0.2), ("skew", 0.2))

# "full" is the benchmark; "tiny" keeps every code path at toy sizes for the
# smoke test
SIZES = {
    "full": {
        "sweep_dim": 3,
        "sweep_h": 1 / 32,
        "samples": 2,
        "layers_h": 1 / 32,
        "corpus": 96,
        "trace_triples": 32,
        "verify_passes": 3,
        "verify_checks": None,
    },
    "tiny": {
        "sweep_dim": 3,
        "sweep_h": 1 / 8,
        "samples": 2,
        "layers_h": 1 / 16,
        "corpus": 4,
        "trace_triples": 2,
        "verify_passes": 1,
        "verify_checks": 3,
    },
}

SUPERSAMPLE = 3  # the library's default, used by every rasterization here


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _blob(dim, spacing, seed, steps=5):
    # the test suite's blob corpus parameters
    return rv.generate(
        "blob", {"dim": dim, "spacing": spacing, "radius": 0.4, "steps": steps}, seed=seed
    )


class Workload:
    """Inputs built from the seed in setup(); items() lists the work."""

    def __init__(self, seed, size, out_dir, workers):
        self.seed = seed
        self.size = SIZES[size]
        self.out_dir = out_dir
        self.workers = workers

    def trace_unit(self):
        """The items one traced unit of work runs."""
        return self.items()


class SweepD3(Workload):
    name = "sweep_d3"

    def _config(self, family, level, dim, spacing):
        return rv.SweepConfig(
            dim=dim,
            spacing=spacing,
            seed=self.seed,
            family=family,
            levels=(level,),
            samples=self.size["samples"],
            out_csv=os.path.join(self.out_dir, "sweep.csv"),
            out_svg=os.path.join(self.out_dir, "sweep.svg"),
        )

    def setup(self):
        self.configs = [
            self._config(f, lv, self.size["sweep_dim"], self.size["sweep_h"])
            for f, lv in SWEEP_CELLS
        ]
        for family, level in SWEEP_CELLS:
            self._cell(self._config(family, level, self.size["sweep_dim"], 1 / 8))

    def items(self):
        return [tuple(range(len(self.configs)))]  # one item: all four cells

    def _cell(self, cfg):
        records = rv.run_sweep(cfg, max_workers=self.workers)
        rv.write_csv(records, cfg.out_csv)
        rv.render_svg(cfg.out_csv, cfg.out_svg)
        with open(cfg.out_csv) as fh:
            rows = fh.read().splitlines()
        if len(rows) != 1 + cfg.samples:
            raise ValueError(f"{len(rows) - 1} CSV rows for {cfg.samples} samples")
        return digest([row.rsplit(",", 1)[0] for row in rows])  # drop runtime_ms

    def run_item(self, item, clock, record):
        for i in item:
            cfg = self.configs[i]
            key = f"{cfg.family}@{cfg.levels[0]:g}"
            t0 = clock()
            try:
                d, err = self._cell(cfg), None
            except Exception as exc:  # any exception is a failed op
                d, err = None, f"{type(exc).__name__}: {exc}"
            record(key, clock() - t0, d, err)

    def inputs(self):
        s = self.size
        return (
            f"d={s['sweep_dim']} h=1/{round(1 / s['sweep_h'])} supersample={SUPERSAMPLE} "
            f"samples={s['samples']} cells="
            + ",".join(f"{f}@{lv:g}" for f, lv in SWEEP_CELLS)
        )


def layer_counts(triple, method):
    """(dyadic indices, decompositions, layer sets, corner counts) of every
    populated layer triple."""
    decs = [rv.dyadic_layers(e) for e in triple]
    out = []
    for ks in itertools.product(*(sorted(d.layers) for d in decs)):
        layers = [d.layers[k] for k, d in zip(ks, decs)]
        out.append((ks, decs, layers, rv.trilinear_corner_counts(layers, method=method)))
    return out


def counts_digest(per_layer):
    return digest(
        f"{ks}:" + ",".join(f"{s}={counts[s]}" for s in sorted(counts))
        for ks, _, _, counts in per_layer
    )


class LayersD2(Workload):
    name = "layers_d2"

    def setup(self):
        n, h = self.size["corpus"], self.size["layers_h"]
        # the corpus goes through VXG1 files, as a stored corpus would
        corpus_dir = os.path.join(self.out_dir, "corpus")
        os.makedirs(corpus_dir, exist_ok=True)
        blobs = []
        for i in range(n):
            path = os.path.join(corpus_dir, f"blob{i}.vxg")
            rv.save(_blob(2, h, 1000 * self.seed + i), path)
            blobs.append(rv.load(path))
        # cyclic consecutive triples, so every blob takes part three times
        self.triples = [
            rv.SetTriple([blobs[i], blobs[(i + 1) % n], blobs[(i + 2) % n]]) for i in range(n)
        ]
        warm = rv.SetTriple([_blob(2, 1 / 8, s, steps=3) for s in range(3)])
        for _, _, layers, _ in layer_counts(warm, "fft"):
            rv.trilinear_corner_counts(layers, method="direct")
        rv.center_compatibility(warm)

    def items(self):
        return list(range(len(self.triples)))

    def trace_unit(self):
        return list(range(self.size["trace_triples"]))

    def _op(self, triple):
        per_layer = layer_counts(triple, "fft")
        d = triple.dim
        for ks, decs, layers, counts in per_layer:
            direct = rv.trilinear_corner_counts(layers, method="direct")
            if direct != counts:
                raise ValueError(f"fft and direct counts differ at k={ks}")
            h = layers[0].spacing  # T from the counts, scaled as trilinear_form does
            lhs = h ** (2 * d) * 2.0 ** (-d) * sum(counts.values())
            records = [(k, dec.projections[k], dec.layers[k].measure) for k, dec in zip(ks, decs)]
            rhs = 4.0 * rv.theta(records)
            for _, _, m in records:
                rhs *= m ** (2.0 / 3.0)
            if lhs > rhs:
                raise ValueError(f"theta bound violated at k={ks}")
        rv.center_compatibility(triple)
        return counts_digest(per_layer)

    def run_item(self, item, clock, record):
        t0 = clock()
        try:
            d, err = self._op(self.triples[item]), None
        except Exception as exc:  # any exception is a failed op
            d, err = None, f"{type(exc).__name__}: {exc}"
        record(f"triple{item}", clock() - t0, d, err)

    def inputs(self):
        s = self.size
        return (
            f"d=2 h=1/{round(1 / s['layers_h'])} supersample={SUPERSAMPLE} "
            f"corpus={s['corpus']} blob triples (radius 0.4, 5 steps) read back from VXG1"
        )


class VerifyAll(Workload):
    name = "verify_all"

    def setup(self):
        self.suite_seeds = [1000 * self.seed + j for j in range(self.size["verify_passes"])]
        rng = np.random.default_rng(self.seed)
        verify.check_lambda_anchors(rng)
        verify.check_admissibility_invariance(rng)

    def items(self):
        return list(range(len(self.suite_seeds)))

    def trace_unit(self):
        return [0]

    def run_item(self, item, clock, record):
        suite_seed = self.suite_seeds[item]
        n = self.size["verify_checks"]
        full = verify.ALL_CHECKS
        if n is not None:
            verify.ALL_CHECKS = full[:n]
        labels = [label for label, _ in verify.ALL_CHECKS]
        stamps, lines = [clock()], []

        def out(line):
            stamps.append(clock())
            lines.append(line)

        err = None
        try:
            verify.run_suite("all", suite_seed, out=out)
        except Exception as exc:  # the check in progress failed
            err = f"{type(exc).__name__}: {exc}"
        finally:
            verify.ALL_CHECKS = full
        for k, line in enumerate(lines[: len(labels)]):
            ok = line.startswith("PASS ")
            record(
                f"s{suite_seed}:{labels[k]}",
                stamps[k + 1] - stamps[k],
                digest([line]),
                None if ok else "check failed: " + line,
            )
        if err is not None and len(lines) < len(labels):
            record(f"s{suite_seed}:{labels[len(lines)]}", clock() - stamps[-1], None, err)

    def inputs(self):
        n = self.size["verify_checks"] or len(verify.ALL_CHECKS)
        return (
            f"run_suite('all') checks={n} passes={self.size['verify_passes']} "
            f"suite seeds=1000*seed+pass (d=1..3, h=1/32 and the suite's own)"
        )


WORKLOADS = {w.name: w for w in (SweepD3, LayersD2, VerifyAll)}
