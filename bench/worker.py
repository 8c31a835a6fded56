"""One repetition of a workload in a fresh interpreter.

Usage: python3 -I bench/worker.py --workload NAME --seed N --rep R
           [--trace 0|1] [--spans PATH]

Imports lmgroups from the checkout's src/, generates the repetition's
inputs from (workload, seed, rep), times each item as one closed-loop
call, checks every output after the timed loop and prints one JSON
object on stdout.  A reference call (reference.py) is timed before
each item, after the last one and a few times right after set-up, so
that run.py can express the times in reference-speed units.  With
--trace 1 the layer functions are wrapped for the timed loop only, and
the spans are appended to --spans at the end.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_REFS = 15


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path[:0] = [str(BENCH), str(SRC)]
    import lmgroups

    if Path(lmgroups.__file__).resolve().parent != SRC / "lmgroups":
        sys.exit(f"lmgroups imported from {lmgroups.__file__}, not from {SRC}")
    import spans
    import workloads
    from reference import time_reference

    generate, run, check = workloads.WORKLOADS[args.workload]
    items = generate(random.Random(f"{args.workload}:{args.seed}:{args.rep}"))
    digest = hashlib.sha256(repr(items).encode()).hexdigest()
    setup_s = time.perf_counter() - T0
    setup_ref_s = [time_reference() for _ in range(SETUP_REFS)]

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    results, latencies, ref_s = [], [], []
    try:
        for i, item in enumerate(items):
            ref_s.append(time_reference())
            if tracer is not None:
                tracer.trace_id = f"{args.rep}.{i}"
            t = time.perf_counter()
            try:
                results.append(run(item))
            except Exception as exc:  # an item that raises counts as failed
                results.append(exc)
            latencies.append(time.perf_counter() - t)
        ref_s.append(time_reference())
    finally:
        if tracer is not None:
            tracer.uninstall()

    counts = Counter()
    failures = []
    for i, (item, result) in enumerate(zip(items, results)):
        try:
            if isinstance(result, Exception):
                raise result
            counts.update(check(item, result))
        except Exception as exc:
            failures.append(f"item {i} {item!r}: {type(exc).__name__}: {exc}")

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "rep": args.rep,
        "digest": digest,
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "latencies": latencies,
        "ref_s": ref_s,
        "failures": failures,
        "counts": dict(sorted(counts.items())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_totals()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
