"""Write the reference digests the benchmark checks every op against.

    python3 perfbench/make_reference.py --seeds 0-19 [--workload NAME]

For each workload and seed it runs every item of the workload once, as the
benchmark runs it, and stores each op's digest in perfbench/reference.json,
keeping the entries of other seeds. An op that fails stops the script, so
no digest of a failing op is recorded. Run it only on a commit whose
outputs are the reference: a later change that alters a count, a CSV byte
or a verify line then fails the benchmark's ops.
"""

import argparse
import json
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import run


def digests_for(workload, seed):
    run.import_library()
    import workloads

    out_dir = os.path.join(run.OUT, f"reference-{workload}-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, "full", out_dir, min(run.nproc(), 2))
    wl.setup()
    found = {}

    def record(key, seconds, digest, error):
        if error is not None:
            raise RuntimeError(f"{workload} seed {seed} {key}: {error}")
        found[key] = digest

    for item in wl.items():
        wl.run_item(item, run.clock, record)
    return found


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seeds", default="0-19", help="first-last, inclusive")
    p.add_argument("--workload", action="append", help="default: all three")
    args = p.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    names = args.workload or ["verify_all", "sweep_d3", "layers_d2"]
    tasks = [(w, s) for w in names for s in range(first, last + 1)]
    ref = {}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE) as fh:
            ref = json.load(fh)
    with ProcessPoolExecutor(min(run.nproc(), 2), mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(digests_for, w, s) for w, s in tasks]
        for (w, s), fut in zip(tasks, futures):
            ref.setdefault(w, {})[str(s)] = fut.result()
            print(f"{w} seed {s}: {len(ref[w][str(s)])} digests", flush=True)
    ref = {
        w: dict(sorted(ref[w].items(), key=lambda kv: int(kv[0]))) for w in sorted(ref)
    }
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
