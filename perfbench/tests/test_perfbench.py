"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, seed=1, trace=0, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
                           "--tiny"], capture_output=True, text=True, cwd=cwd, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_spec_keeps_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in SPEC["end_to_end"])}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_end_to_end(workload):
    result = last_json(run_bench(workload))
    assert_metrics(result, "end_to_end")
    assert result["correct"] is True and result["attempted"] >= 8
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_layer(workload):
    result = last_json(run_bench(workload, trace=1))
    assert_metrics(result, "per_layer")
    assert result["correct"] is True
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["import.numpy_s"] > 0 and values["import.compstruct_s"] > 0
    busy = {"exact": "verify.self_s", "sample": "stochastic.self_s",
            "arrange": "stochastic.partition_batch.self_s", "cli": "cli.cpf.wall_s"}
    assert values[busy[workload]] > 0


def test_float_law_failures_are_counted():
    # the float path's q is off by ~1e-2 at n = 32: those markov jobs fail
    result = last_json(run_bench("sample"))
    record = json.loads((BENCH / "out" / "BENCH_sample_seed1_trace0.json").read_text())
    markov32 = [j for j in record["job_list"] if j["kind"] == "markov_chain" and j["n"] == 32]
    assert markov32 and all(not j["passed"] and j["known_defect"] for j in markov32)
    assert result["failed"] >= len(markov32)
    assert record["extra"]["failed_frac"] == result["failed"] / result["attempted"]


def test_same_seed_same_jobs_and_digest():
    for w in workloads.WORKLOADS:
        assert workloads.make_block(w, 7, 0) == workloads.make_block(w, 7, 0)
        assert workloads.make_block(w, 7, 0) != workloads.make_block(w, 8, 0)
        assert workloads.make_block(w, 7, 0) != workloads.make_block(w, 7, 1)
    digests = []
    for _ in range(2):
        last_json(run_bench("exact", seed=5))
        record = json.loads((BENCH / "out" / "BENCH_exact_seed5_trace0.json").read_text())
        digests.append(record["digest"])
    assert digests[0] == digests[1]


def test_sampled_codes_digest_repeats(tmp_path):
    ctx = workloads.Context("sample", ROOT, tmp_path, tiny=True)
    workloads.setup(ctx)
    jobs = [j for j in workloads.make_block("sample", 3, 0, tiny=True) if j["n"] <= 10][:4]
    first = [workloads.run_job(j, ctx).digest for j in jobs]
    assert first == [workloads.run_job(j, ctx).digest for j in jobs]
    assert len(set(first)) == len(first)


def test_self_time_of_nested_spans():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # the first child has its own child [2, 3]
    spans = [("cli", "main", 0.0, 10.0, -1),
             ("laws", "a", 1.0, 4.0, 0),
             ("laws", "b", 3.0, 6.0, 0),
             ("verify", "c", 8.0, 9.0, 0),
             ("tables", "d", 2.0, 3.0, 1)]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]
    summary = tracing.summarize(spans)
    assert summary["layer_self"] == {"cli": 4.0, "laws": 5.0, "verify": 1.0, "tables": 1.0}
    assert summary["by_name"]["laws.a"] == {"self": 2.0, "incl": 3.0, "calls": 1}


def test_tracer_records_cross_layer_calls():
    from compstruct import structural, laws
    from fractions import Fraction

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        cpf = laws.ewens_cpf(Fraction(1))
        structural.structural_moments(cpf, 3)
    finally:
        tracing.uninstall(undo)
    spans, _ = tracer.take()
    assert [(s[0], s[1], s[4]) for s in spans] == [
        ("laws", "ewens_cpf", -1), ("structural", "structural_moments", -1)]
    assert laws.ewens_cpf.__module__ == "compstruct.laws"
    assert not hasattr(laws.ewens_cpf, "__wrapped__")


def test_refuses_without_program_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("exact", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
