"""compstruct benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact|sample|arrange|cli --seed N \
        --seconds S --trace 0|1

With --trace 0 it starts five fresh processes that set the workload up,
one of which then runs the timed phase, and reports the median set-up time
and the end-to-end metrics of that timed phase.  With --trace 1 it reports
the per-layer metrics instead (see worker.py).  Human-readable lines come first; the last line of stdout is a
JSON object {"correct", "attempted", "failed", "metrics"} whose metric names
and units are those of BENCHMARK.json.  The full run record, with the
machine it ran on, goes to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
TIME_LIMIT_S = 170
IMPORT_PACKAGES = ("numpy", "scipy", "compstruct")


def _git(*args):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the program's sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_record():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "platform": platform.platform(), "numba_imports": numba_imports,
            "git_revision": revision, "git_dirty": None if status is None else bool(status),
            "source_sha256": source_digest()}


def parse_importtime(stderr):
    """Self microseconds per top-level package from `python -X importtime`."""
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in totals:
            totals[top] += int(self_us)
    return totals


def import_times(env, repeats=3):
    """Median self time (s) of each package's modules over fresh interpreters."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import compstruct, scipy.stats"],
                              capture_output=True, text=True, env=env, timeout=60, check=True)
        runs.append(parse_importtime(proc.stderr))
    return {f"import.{p}_s": statistics.median(r[p] for r in runs) / 1e6
            for p in IMPORT_PACKAGES}


def spawn_worker(args, setup_only, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="one block of small jobs and a single set-up (for the tests)")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "compstruct" / "__init__.py").is_file():
        print(f"error: no compstruct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # set-up repeats run before and after the measured process, so that a
    # slow phase of a shared machine does not cover all of them
    others = 0 if (args.trace or args.tiny) else SETUP_REPEATS - 1
    setups = [spawn_worker(args, True, deadline)["setup_s"] for _ in range(others // 2)]
    result = spawn_worker(args, False, deadline)
    setups.append(result["setup_s"])
    setups += [spawn_worker(args, True, deadline)["setup_s"]
               for _ in range(others - others // 2)]

    values = {"setup_s": statistics.median(setups)}
    if args.trace:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        values.update(result["per_layer"], **import_times(env))
        section, extra = "per_layer", {}
    else:
        values.update(result["end_to_end"])
        section = "end_to_end"
        extra = {k: values[k] for k in ("draws_per_s", "failed_frac", "jobs")}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}

    unexpected = result["failed"] - result["known_defect_failures"]
    correct = unexpected == 0 and result["attempted"] > 0
    record = {
        "benchmark": "compstruct",
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "tiny": args.tiny,
        "machine": machine_record(), "program": result["program"],
        "jobs": result["attempted"], "failed": result["failed"],
        "known_defect_failures": result["known_defect_failures"],
        "failures_by_reason": result["failures_by_reason"],
        "digest": result["digest"], "digest_jobs": result["digest_jobs"],
        "setup_s_repeats": setups, "timed_s": result["timed_s"],
        "metrics": metrics, "extra": extra,
        "per_layer_detail": result.get("per_layer_detail"),
        "trace_file": result.get("trace_file"),
        "counts_basis": {"laws.values": "computed from job inputs",
                         "verify.identities": "computed from job inputs",
                         "stochastic.draws": "computed from job inputs",
                         "composition.compositions": "measured: lengths returned by "
                                                     "enumerate_compositions",
                         "tables.bytes": "measured: JSON text length"},
        "job_list": result["jobs"],
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  traced {bool(args.trace)}  "
          f"backend {result['program']['backend']}  nproc {record['machine']['nproc']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    units = {"draws_per_s": "draws/s", "failed_frac": "ratio", "jobs": "count"}
    for name, v in extra.items():
        print(f"  {name:40s} {v:14.6g} {units[name]}")
    print(f"  failed {result['failed']} of {result['attempted']} "
          f"({result['known_defect_failures']} known float-law defect)  "
          f"digest {result['digest'][:16]}  record {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
