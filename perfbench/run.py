"""rieszvox benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload sweep_d3 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory. Workloads are sweep_d3, layers_d2 and verify_all (see
workloads.py). One client runs the ops in a closed loop: the workload's
items run in order, all of them at least once, and the loop stops before
an item that is predicted to end past --seconds. BLAS and OpenMP are pinned
to one thread; the sweep pool gets min(nproc, samples) workers.

--trace 0 prints the end-to-end metrics: setup_s (import, inputs and
warm-up; the median of three set-ups plus the one import), ops_per_s,
op_p50_ms, op_tail_ms (the highest percentile with at least ten ops beyond
it; the median when there are under 21 ops) and peak_rss_mib.

--trace 1 runs a fixed unit of the workload untraced, then set-up and the
same unit traced, and prints per-layer metrics for one set-up plus one
unit, with the traced and untraced wall times of the unit. Spans are
written to perfbench/out/ as JSON lines when the run ends.

Every op is checked: it fails if it raises, if fft and direct counts
differ, if a verify check fails, or if its digest differs from the
committed reference for the seed (reference.json; for a seed without one,
from its first occurrence in the run). The last line of standard output is
one JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
clock = time.perf_counter


def import_library():
    """Import rieszvox from the checkout's src/; returns the seconds taken."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rieszvox", "__init__.py")):
        raise SystemExit(f"perfbench: no rieszvox sources under {src}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if src not in sys.path:
        sys.path.insert(0, src)
    t0 = clock()
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import rieszvox
    import rieszvox.verify  # noqa: F401

    seconds = clock() - t0
    if not os.path.abspath(rieszvox.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: rieszvox imported from {rieszvox.__file__}, not {src}")
    return seconds


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Ledger:
    """Per-op wall times and the correctness verdict of every op."""

    def __init__(self, reference):
        self.reference = reference  # key -> digest, or None for a seed without one
        self.first = {}  # key -> digest of its first occurrence, in order
        self.seconds = []
        self.failures = []

    def record(self, key, seconds, digest, error):
        if error is None:
            if self.reference is not None:
                want = self.reference.get(key)
            else:
                want = self.first.get(key, digest)
            if digest != want:
                error = f"digest {digest} differs from reference {want}"
        self.first.setdefault(key, digest)
        self.seconds.append(seconds)
        if error is not None:
            self.failures.append(f"{key}: {error}")

    def digest(self):
        text = "\n".join(f"{k}={d}" for k, d in self.first.items())
        return hashlib.sha256(text.encode()).hexdigest()


def tail_percentile(values):
    """(q, value): the highest whole percentile with at least ten values
    beyond it, by nearest rank. With too few values for any percentile
    above the 50th, it is (50, the median)."""
    xs = sorted(values)
    n = len(xs)
    q = math.floor(100 * (n - 10) / n)
    if q <= 50:
        return 50, statistics.median(xs)
    return q, xs[math.ceil(q * n / 100) - 1]


def timed_loop(wl, seconds, ledger):
    items = wl.items()
    spent = []
    start = clock()
    i = 0
    while i < len(items) or clock() - start + statistics.fmean(spent) <= seconds:
        t0 = clock()
        wl.run_item(items[i % len(items)], clock, ledger.record)
        spent.append(clock() - t0)
        i += 1
    return clock() - start


def end_to_end(wl, seconds, ledger, import_s, report):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        wl.setup()
        setups.append(clock() - t0)
    elapsed = timed_loop(wl, seconds, ledger)
    ms = [s * 1e3 for s in ledger.seconds]
    q, tail = tail_percentile(ms)
    report.append(
        f"setup: import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups "
        + " ".join(f"{s:.3f}" for s in setups)
        + " s"
    )
    report.append(f"timed phase: {len(ms)} ops in {elapsed:.3f} s; tail is p{q} of {len(ms)} ops")
    return {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (len(ms) / elapsed, "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced(wl, seconds, ledger, workers, spans_path, report):
    import rieszvox
    from rieszvox import verify

    import spans

    wl.setup()
    unit = wl.trace_unit()

    def run_unit():
        t0 = clock()
        for item in unit:
            wl.run_item(item, clock, ledger.record)
        return clock() - t0

    untraced = [run_unit()]
    while sum(untraced) + statistics.fmean(untraced) <= seconds / 2:
        untraced.append(run_unit())
    reps = len(untraced)
    tracer = spans.Tracer()
    tracer.install(spans.targets(rieszvox), check_table=verify)
    try:
        tracer.phase = "setup"
        wl.setup()
        tracer.phase = "unit"
        t0 = clock()
        for _ in range(reps):
            run_unit()
        traced_s = clock() - t0
    finally:
        tracer.uninstall()
    values, rest = spans.layer_metrics(tracer, verify, reps, sum(untraced), traced_s, workers)
    tracer.write_jsonl(spans_path)
    report.append(
        f"unit: {len(unit)} items x {reps}; untraced {values['trace.untraced_ms']:.1f} ms, "
        f"traced {values['trace.traced_ms']:.1f} ms per unit "
        f"(overhead {values['trace.traced_ms'] / values['trace.untraced_ms'] - 1:+.1%})"
    )
    report.append(
        f"coverage: traced layers hold {values['trace.covered_frac']:.1%} of busy time; "
        f"the rest is perfbench's own digest, check and loop code, "
        f"{rest['harness_ms']:.1f} ms per unit"
    )
    if rest["pool_wait_ms"]:
        report.append(
            f"not busy: the main thread's wait on the sweep pool, "
            f"{rest['pool_wait_ms']:.1f} ms per unit"
        )
    report.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    report.append("largest self times in the traced unit, per unit and as a share of busy time:")
    own = sorted((v, n) for n, v in rest["unit_self_ms"].items())
    for value, name in reversed(own[-8:]):
        report.append(f"  {name:<44} {value:10.1f} ms {value / rest['busy_ms']:6.1%}")
    units = dict(spans.metric_names(verify))
    return {name: (values[name], units[name]) for name in units}


def load_reference(workload, seed):
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def run(workload, seed, seconds, trace, size="full", reference=None):
    """One benchmark run; returns (report lines, result object).

    reference maps op keys to digests; by default the committed reference
    for the seed, if any, is used at full size.
    """
    import_s = import_library()
    import numpy
    import scipy

    import workloads

    if reference is None and size == "full":
        reference = load_reference(workload, seed)
    samples = workloads.SIZES[size]["samples"]
    workers = min(nproc(), samples)
    out_dir = os.path.join(OUT, f"{workload}-{seed}")
    tmp_dir = os.path.join(OUT, "tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    saved_tmp, tempfile.tempdir = tempfile.tempdir, tmp_dir  # verify's VXG1 round trip
    wl = workloads.WORKLOADS[workload](seed, size, out_dir, workers)
    ledger = Ledger(reference)
    report = [
        f"env: nproc={nproc()} python={sys.version.split()[0]} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} "
        + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
        + f" max_workers={workers}",
        f"workload: {workload} seed={seed} seconds={seconds} trace={trace} size={size}",
        f"inputs: {wl.inputs()}",
    ]
    try:
        if trace:
            spans_path = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
            metrics = traced(wl, seconds, ledger, workers, spans_path, report)
        else:
            metrics = end_to_end(wl, seconds, ledger, import_s, report)
    finally:
        tempfile.tempdir = saved_tmp
    report.append(
        f"digest: {ledger.digest()} over {len(ledger.first)} distinct ops; reference: "
        + ("checked" if reference is not None else "none for this seed (repeats must agree)")
    )
    report.append(f"ops_attempted={len(ledger.seconds)} ops_failed={len(ledger.failures)}")
    report += [f"FAILED {f}" for f in ledger.failures[:10]]
    if not trace:
        report += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": not ledger.failures,
        "attempted": len(ledger.seconds),
        "failed": len(ledger.failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return report, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("sweep_d3", "layers_d2", "verify_all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    report, result = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
