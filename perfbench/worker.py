"""One measuring process: set up a workload, then run whole blocks of jobs.

Started by run.py, one fresh process per set-up repeat, single-threaded and
closed-loop: the next job starts when the previous one has finished.  The
last line of stdout is a JSON summary.  With --trace 1, even blocks run
untraced and odd blocks traced, so the two halves share the machine state
and their ratio gives the tracing overhead.
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

KERNEL_FNS = {
    "ewens_string": "stochastic.batch_ewens_strings",
    "renewal_string": "stochastic.batch_renewal_strings",
    "markov_chain": "stochastic.batch_markov_compositions",
    "uniform_set": "stochastic.batch_uniform_construction",
    "poisson_set": "stochastic.batch_poisson_construction",
    "arrangement": "stochastic.batch_arrangements",
}
CLI_COMMANDS = ("cpf", "check", "sample", "arrange", "fragment", "reconstruct")


def import_program():
    """Import compstruct from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "compstruct" / "__init__.py").is_file():
        raise SystemExit(f"no compstruct sources under {src}")
    sys.path.insert(0, str(src))
    import compstruct

    if Path(compstruct.__file__).resolve().parent != (src / "compstruct").resolve():
        raise SystemExit(f"compstruct imported from {compstruct.__file__}, not {src}")
    return compstruct


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_blocks(args, ctx, workloads, tracing):
    """Closed loop over whole blocks until --seconds have passed."""
    jobs, first_spans = [], []
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    deadline = start + args.seconds
    b = 0
    while True:
        traced = bool(args.trace) and b % 2 == 1
        in_process = traced and args.workload != "cli"
        undo = tracing.install(tracer) if in_process else None
        ctx.span = tracer.span if in_process else tracing.no_span
        try:
            for job in workloads.make_block(args.workload, args.seed, b, args.tiny):
                if traced and not in_process:
                    ctx.cli_trace_file = ctx.work_dir / "spans.json"
                t0 = time.perf_counter()
                res = workloads.run_job(job, ctx)
                wall = time.perf_counter() - t0
                ctx.cli_trace_file = None
                summary = None
                if in_process:
                    spans, counts = tracer.take()
                    summary = tracing.summarize(spans)
                    summary["counts"] = counts
                    if b == 1:
                        first_spans.append({"job": job["id"], "spans": spans})
                elif traced:
                    summary = res.trace
                jobs.append({"job": job, "block": b, "traced": traced, "wall": wall,
                             "res": res, "summary": summary})
        finally:
            if undo is not None:
                tracing.uninstall(undo)
        b += 1
        if args.trace and b % 2:
            continue
        if args.tiny or time.perf_counter() >= deadline:
            break
    return jobs, time.perf_counter() - start, first_spans


def end_to_end(jobs, timed_s, workload):
    walls = [j["wall"] for j in jobs]
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli"
                               else resource.RUSAGE_SELF)
    failed = sum(not j["res"].passed for j in jobs)
    return {
        "job_s.p50": statistics.median(walls),
        "job_s.p90": percentile(walls, 90),
        "jobs_per_s": len(jobs) / timed_s,
        "draws_per_s": sum(j["res"].draws for j in jobs) / timed_s,
        "failed_frac": failed / len(jobs),
        "jobs": len(jobs),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def per_layer(traced, untraced, layers):
    """Per-layer metrics over the traced jobs; cli wall times over untraced ones."""
    n = max(len(traced), 1)
    wall = sum(j["wall"] for j in traced) or 1.0
    layer_self = defaultdict(float)
    by_name = defaultdict(lambda: [0.0, 0.0])
    counts = defaultdict(float)
    kernel = defaultdict(lambda: [0.0, 0])
    kernel_by_n = defaultdict(lambda: [0.0, 0])
    for j in traced:
        res, summary = j["res"], j["summary"] or {"layer_self": {}, "by_name": {}, "counts": {}}
        for layer, s in summary["layer_self"].items():
            layer_self[layer] += s
        for name, e in summary["by_name"].items():
            by_name[name][0] += e["self"]
            by_name[name][1] += e["incl"]
        for key, v in list(res.counts.items()) + list(summary["counts"].items()):
            counts[key] += v
        counts["stochastic.draws"] += res.draws
        counts["tables.bytes"] += res.bytes
        for k, fn in KERNEL_FNS.items():
            if fn in summary["by_name"]:
                kernel[k][0] += summary["by_name"][fn]["incl"]
                kernel[k][1] += res.draws
                key = f"{k}@n={j['job'].get('n', 0)}"
                kernel_by_n[key][0] += summary["by_name"][fn]["incl"]
                kernel_by_n[key][1] += res.draws

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {}
    for layer in layers:
        m[f"{layer}.self_s"] = layer_self[layer] / n
        m[f"{layer}.share"] = layer_self[layer] / wall
    m["laws.values"] = counts["laws.values"] / n
    m["laws.values_per_s"] = rate(counts["laws.values"], layer_self["laws"])
    m["composition.compositions"] = counts["composition.compositions"] / n
    m["verify.identities"] = counts["verify.identities"] / n
    m["verify.identities_per_s"] = rate(counts["verify.identities"], layer_self["verify"])
    m["verify.gof.self_s"] = by_name["verify.chi_square_gof"][0] / n
    m["stochastic.draws"] = counts["stochastic.draws"] / n
    for k in KERNEL_FNS:
        m[f"stochastic.{k}.draws_per_s"] = rate(kernel[k][1], kernel[k][0])
    m["stochastic.partition_batch.self_s"] = by_name["stochastic.sample_partition_batch"][0] / n
    m["tables.bytes"] = counts["tables.bytes"] / n
    for cmd in CLI_COMMANDS:
        walls = [j["wall"] for j in untraced if j["job"]["kind"] == cmd and "argv" in j["job"]]
        m[f"cli.{cmd}.wall_s"] = statistics.median(walls) if walls else 0.0
    detail = {"kernel_draws_per_s_by_n": {k: rate(d, s) for k, (s, d) in sorted(kernel_by_n.items())},
              "self_s_by_function": {k: v[0] / n for k, v in sorted(by_name.items())},
              "traced_jobs": len(traced)}
    return m, detail


def job_rows(jobs):
    rows = []
    for j in jobs:
        res = j["res"]
        rows.append({"id": j["job"]["id"], "kind": j["job"]["kind"], "n": j["job"].get("n"),
                     "traced": j["traced"], "wall_s": j["wall"], "passed": res.passed,
                     "reason": res.reason, "known_defect": res.known_defect,
                     "draws": res.draws})
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    compstruct = import_program()
    import numpy
    import scipy

    import tracing
    import workloads

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        ctx = workloads.Context(args.workload, ROOT, work_dir, args.tiny)
        workloads.setup(ctx)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        jobs, timed_s, first_spans = run_blocks(args, ctx, workloads, tracing)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    known = sum(not j["res"].passed and j["res"].known_defect for j in jobs)
    failed = sum(not j["res"].passed for j in jobs)
    reasons = defaultdict(int)
    for j in jobs:
        if not j["res"].passed:
            reasons[j["res"].reason.split(":")[0]] += 1
    digest_jobs = [j for j in jobs if j["block"] == 0]
    out = {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "attempted": len(jobs),
        "failed": failed,
        "known_defect_failures": known,
        "failures_by_reason": dict(reasons),
        "digest": workloads.digest_of(*(j["res"].digest for j in digest_jobs)),
        "digest_jobs": len(digest_jobs),
        "program": {"backend": compstruct.backend_name(), "numpy": numpy.__version__,
                    "scipy": scipy.__version__},
        "jobs": job_rows(jobs),
    }
    if args.trace:
        untraced_s = sum(j["wall"] for j in untraced)
        traced_s = sum(j["wall"] for j in traced)
        layer, detail = per_layer(traced, untraced, tracing.LAYERS)
        # traced vs untraced jobs_per_s; both halves run the same number of blocks
        layer["trace.overhead_frac"] = 1.0 - (len(traced) / traced_s) / (len(untraced) / untraced_s)
        out["per_layer"] = layer
        out["per_layer_detail"] = detail
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"columns": ["layer", "name", "start", "end", "parent"],
                                          "jobs": first_spans}))
        out["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        out["end_to_end"] = end_to_end(jobs, timed_s, args.workload)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
