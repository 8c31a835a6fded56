"""lmgroups benchmark: one workload, one seed, measured for a fixed time.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {words,complex,cells} --seed N
                         --seconds S --trace {0,1}

The run starts repetitions one after another until S seconds have
passed.  Each repetition is a fresh interpreter (bench/worker.py) that
imports lmgroups from src/, generates its own inputs from
(workload, seed, repetition) and runs them as a single-threaded closed
loop, so the library's caches start cold every time, as they do for a
user of `lmg`.  Outputs are checked after each timed loop.

--trace 0 prints the end-to-end metrics: throughput (items per second
of item time), item_p50_ms, item_p90_ms (over every item of the run),
setup_s and peak_rss_mb (medians over repetitions).  Every time is in
reference-speed units: each item's wall time is scaled by the speed of
a fixed reference loop timed around it (reference.py), which takes out
the drift of a shared host.
--trace 1 runs each repetition twice, untraced and then traced with
spans around the layer functions, and prints the per-layer metrics:
counts and self seconds as means per traced repetition, ratios pooled
over the run, and trace.overhead_ratio.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Details (input digests, exact counts
per repetition) go to .bench_out/ in the checkout, and the spans of a
traced run to a .spans.jsonl file beside them.  The exit code is 0 only
when every output checked out.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from reference import REF_NOMINAL_S, local_factors
from spans import COUNTERS, LAYER_NAMES

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("words", "complex", "cells")
HARD_LIMIT_S = 170.0

MODULES = ("action", "group", "arrangements", "xcomplex", "topology")


class BenchError(RuntimeError):
    pass


def run_worker(workload, seed, rep, trace, spans_path, started):
    cmd = [sys.executable, "-I", str(WORKER), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(spans_path)]
    budget = HARD_LIMIT_S - (time.perf_counter() - started)
    if budget <= 0:
        raise BenchError("time limit reached before the repetition could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=budget, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {rep} ran past the {HARD_LIMIT_S:.0f} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"repetition {rep} exited with code {proc.returncode}")
    return to_reference_speed(json.loads(lines[-1]))


def to_reference_speed(r):
    """Scale a repetition's item, set-up and self times to reference
    speed; the wall times stay in r under *_wall."""
    r["latencies_wall"] = r["latencies"]
    r["latencies"] = [x * f for x, f in zip(r["latencies"], local_factors(r["ref_s"]))]
    r["setup_s_wall"] = r["setup_s"]
    r["setup_s"] *= REF_NOMINAL_S / statistics.median(r["setup_ref_s"])
    # one factor for the whole repetition, so self times and item time agree
    r["factor"] = REF_NOMINAL_S / statistics.median(r["ref_s"])
    for k in r.get("layers", {}):
        if k.endswith(".self_s"):
            r["layers"][k] *= r["factor"]
    return r


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(reps):
    lat = sorted(x for r in reps for x in r["latencies"])
    return {
        "throughput": (len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (1000 * nearest_rank(lat, 0.5), "ms"),
        "item_p90_ms": (1000 * nearest_rank(lat, 0.9), "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def per_layer(pairs):
    traced = [t for _, t in pairs]
    total = Counter()
    for r in traced:
        total.update(r["layers"])
    n = len(traced)
    item_time = sum(sum(r["latencies_wall"]) * r["factor"] for r in traced)
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = (total[f"{name}.calls"] / n, "count")
        out[f"{name}.self_s"] = (total[f"{name}.self_s"] / n, "s")
    for name in COUNTERS:
        out[name] = (total[name] / n, "count")
    calls = {name: total[f"{name}.calls"] for name in LAYER_NAMES}
    out["action.equal_at_depth.witness_ratio"] = (
        ratio(total["action.equal_at_depth.witnesses"], calls["action.equal_at_depth"]), "ratio")
    out["group.word_problem.unknown_ratio"] = (
        ratio(total["group.word_problem.verdict.unknown"], calls["group.word_problem"]), "ratio")
    out["group.in_F.unknown_ratio"] = (
        ratio(total["group.in_F.verdict.unknown"], calls["group.in_F"]), "ratio")
    out["group.canonical_coset.repeat_ratio"] = (
        ratio(total["group.canonical_coset.repeats"], calls["group.canonical_coset"]), "ratio")
    out["xcomplex.assemble.accept_ratio"] = (
        ratio(calls["xcomplex.assemble"] - total["xcomplex.assemble.rejected"],
              calls["xcomplex.assemble"]), "ratio")
    out["xcomplex.find_cone_vertex.assemble_per_search"] = (
        ratio(total["xcomplex.find_cone_vertex.nested_assemble"],
              calls["xcomplex.find_cone_vertex"]), "ratio")
    for module in MODULES:
        self_s = sum(total[f"{f}.self_s"] for f in LAYER_NAMES if f.startswith(module + "."))
        out[f"{module}.self_share"] = (ratio(self_s, item_time), "ratio")
    overheads = [ratio(sum(t["latencies"]), sum(u["latencies"])) - 1 for u, t in pairs]
    out["trace.overhead_ratio"] = (statistics.median(overheads), "ratio")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "lmgroups" / "__init__.py").is_file():
        sys.exit(f"no lmgroups sources under {ROOT / 'src'}: run from a full checkout")

    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"{stem}.spans.jsonl"
    if args.trace:
        spans_path.write_text("")
    reps, pairs = [], []
    try:
        rep = 0
        while True:
            if not args.trace:
                reps.append(run_worker(args.workload, args.seed, rep, 0, None, started))
            else:
                # the same inputs untraced and traced, alternating which runs first
                order = (0, 1) if rep % 2 == 0 else (1, 0)
                pair = {t: run_worker(args.workload, args.seed, rep, t, spans_path, started)
                        for t in order}
                reps.append(pair[0])
                pairs.append((pair[0], pair[1]))
            rep += 1
            if time.perf_counter() - started >= args.seconds:
                break
    except BenchError as exc:
        sys.exit(f"benchmark aborted: {exc}")

    runs = reps + [t for _, t in pairs]
    attempted = sum(len(r["latencies"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    metrics = per_layer(pairs) if args.trace else end_to_end(reps)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "repetitions": [
            {k: r[k] for k in ("rep", "digest", "setup_s", "setup_s_wall", "peak_rss_mb",
                               "counts", "failures")}
            | {"items": len(r["latencies"]), "item_s": sum(r["latencies"]),
               "item_s_wall": sum(r["latencies_wall"])}
            | ({"layers": r["layers"]} if r.get("layers") else {})
            for r in runs
        ],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
