"""The four workloads: seeded job lists, set-up, one job, and its output check.

Every job list is cut into blocks, and a run executes whole blocks.  Within
a block the sizes and draw counts form a fixed multiset and every grid
parameter appears about equally often, so a block costs about the same
under every seed: run-to-run spread then comes from the machine, not from
the job mix.  The seed picks how sizes pair with parameters, how the
parameters rotate from block to block, the job order and every RngStream
seed.

The program is reached through module attributes (``laws.markov_cpf``) so
that the traced run sees every call at a layer boundary.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from compstruct import laws, stochastic, structural, tables, verify
from tracing import no_span

WORKLOADS = ("exact", "sample", "arrange", "cli")

# exact rational (alpha, theta) grid shared by the exact and cli jobs
EXACT_PARAMS = (("1/2", "1"), ("1/3", "2/3"), ("1/4", "3/2"), ("2/3", "1/2"))
# (n_table, n_check, n_rec) of the twenty exact jobs of a block: tables for
# n in 8..12 and checks to n in 6..10, four times each; recursions to
# n <= 20, whose exact Levy rows grow like n^4 and dominate a job, so most
# stop early and one in twenty goes to 20
EXACT_SIZES = tuple(zip((8, 9, 10, 11, 12) * 4,
                        (6, 7, 8, 9, 10, 7, 8, 9, 10, 6, 8, 9, 10, 6, 7, 9, 10, 6, 7, 8),
                        (3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 12, 13, 16, 20)))
# decimal grids: the sample workload runs the float path, as `compstruct
# sample --alpha 0.5` does; every value is a binary fraction, so
# Fraction(value) is the same law in exact arithmetic
SAMPLE_THETAS = ("0.5", "1.0", "2.0")
SAMPLE_ALPHAS = ("0.25", "0.5", "0.75")
SAMPLE_MARKOV = (("0.5", "1.0"), ("0.25", "0.5"))
SAMPLE_GRIDS = {"ewens_string": tuple((t,) for t in SAMPLE_THETAS),
                "renewal_string": tuple((a,) for a in SAMPLE_ALPHAS),
                "markov_chain": SAMPLE_MARKOV,
                "uniform_set": tuple((t,) for t in SAMPLE_THETAS),
                "poisson_set": tuple((t,) for t in SAMPLE_THETAS)}
SAMPLE_NS = (6, 10, 16, 32)
SAMPLE_DRAWS = 200_000
# arranged (alpha, theta) partitions follow the stationary (alpha, alpha+theta) law
ARRANGE_PARAMS = (("1/3", "2/3"), ("1/4", "1/2"), ("1/2", "1/2"))
# (n, draws) of the ten jobs of a block: two in ten at n = 10, where the
# exact partition law costs about a second, so job_s.p90 falls inside that
# group; the rest are bound by the per-draw arrangement loop (job_s.p50)
ARRANGE_SIZES = ((6, 1500), (6, 2500), (7, 1500), (7, 2000), (7, 2500),
                 (8, 1500), (8, 2000), (8, 2500), (10, 2000), (10, 2000))
CLI_THETAS = ("1/2", "1", "2")
CLI_ALPHAS = ("1/4", "1/2", "3/4")
CLI_PARTITIONS = ("3,2,1", "2,2,1", "4,2,1", "3,3,1", "2,2,1,1", "3,1,1,1")

GOF_P_MIN = 1e-6       # chi-square p-value below this fails a job
MEAN_SE_MAX = 5.0      # mean part count must lie within this many SEs
FLOAT_LAW_TOL = 1e-9   # |float q - exact q| allowed on the float path


def make_block(workload, seed, index, tiny=False):
    """Jobs of block ``index``: a pure function of (workload, seed, index)."""
    plan = random.Random(f"{workload}:{seed}")  # the same for every block of a run
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = _BLOCKS[workload](plan, index, tiny)
    rng.shuffle(jobs)
    for k, job in enumerate(jobs):
        job["id"] = f"{index}.{k}"
        job["seed"] = rng.randrange(2 ** 31)
    return jobs


def _rotate(grid, block, offset):
    """The grid entry for this block: consecutive blocks walk the whole grid."""
    return grid[(block + offset) % len(grid)]


def _exact_block(plan, b, tiny):
    sizes = ((5, 4, 4), (6, 5, 5)) * 10 if tiny else EXACT_SIZES
    slots = plan.sample(range(len(sizes)), len(sizes))
    jobs = [{"kind": "exact", "alpha": a, "theta": t, "n_table": nt, "n_check": nc,
             "n_rec": nr}
            for (nt, nc, nr), slot in zip(sizes, slots)
            for a, t in [_rotate(EXACT_PARAMS, b, slot)]]
    # negative controls, about one job in ten
    for k in range(2):
        a, t = _rotate(EXACT_PARAMS, b, plan.randrange(4) + 2 * k)
        n_check = 4 if tiny else _rotate((6, 7, 8, 9, 10), 2 * b + k, plan.randrange(5))
        jobs.append({"kind": "control", "alpha": a, "theta": t, "n_table": 0,
                     "n_check": n_check, "n_rec": 0})
    return jobs


def _sample_block(plan, b, tiny):
    offsets = {f: plan.randrange(12) for f in SAMPLE_GRIDS}
    return [{"kind": f, "n": n, "params": _rotate(grid, b + i, offsets[f]),
             "draws": 2_000 if tiny else SAMPLE_DRAWS}
            for f, grid in SAMPLE_GRIDS.items() for i, n in enumerate(SAMPLE_NS)]


def _arrange_block(plan, b, tiny):
    sizes = ((5, 300),) * 8 + ((6, 300),) * 2 if tiny else ARRANGE_SIZES
    offset = plan.randrange(len(ARRANGE_PARAMS))
    return [{"kind": "arrange", "n": n, "draws": draws,
             "params": _rotate(ARRANGE_PARAMS, b + k, offset)}
            for k, (n, draws) in enumerate(sizes)]


def _cli_block(plan, b, tiny):
    o = [plan.randrange(60) for _ in range(16)]

    def n_in(lo, hi, k):
        return lo if tiny else _rotate(range(lo, hi + 1), b, o[k])

    fam = _rotate(("two-param", "ewens", "renewal"), b, o[0])
    a, t = _rotate(EXACT_PARAMS, b, o[1])
    cpf_args = {"two-param": ["--alpha", a, "--theta", t],
                "ewens": ["--theta", _rotate(CLI_THETAS, b, o[2])],
                "renewal": ["--alpha", _rotate(CLI_ALPHAS, b, o[2])]}[fam]
    draws = 2_000 if tiny else 50_000
    ca, ct = _rotate(EXACT_PARAMS, b, o[3])
    ex_a, ex_t = _rotate(EXACT_PARAMS, b, o[4])
    dec_a, dec_t = _rotate(SAMPLE_MARKOV, b, o[5])
    arr_a, arr_t = _rotate(ARRANGE_PARAMS, b, o[6])
    return [
        {"kind": "cpf", "family": fam, "n": n_in(8, 12, 7),
         "argv": ["cpf", "--family", fam, *cpf_args]},
        {"kind": "check", "n": n_in(6, 10, 8),
         "argv": ["check", "--family", "two-param", "--alpha", a, "--theta", t]},
        {"kind": "check", "control": True, "n": n_in(5, 8, 9),
         "argv": ["check", "--family", "two-param", "--alpha", ca, "--theta", ct,
                  "--control", "regenerative"]},
        {"kind": "sample", "n": n_in(6, 10, 10), "params": (ex_a, ex_t), "draws": draws,
         "argv": ["sample", "--family", "two-param", "--alpha", ex_a, "--theta", ex_t]},
        {"kind": "sample", "n": n_in(6, 10, 11), "params": (dec_a, dec_t), "draws": draws,
         "argv": ["sample", "--family", "two-param", "--alpha", dec_a, "--theta", dec_t]},
        {"kind": "arrange", "partition": _rotate(CLI_PARTITIONS, b, o[3] + o[4]),
         "params": (arr_a, arr_t), "draws": 300 if tiny else 2_500,
         "argv": ["arrange", "--alpha", arr_a, "--theta", arr_t]},
        {"kind": "fragment", "n": n_in(5, 7, 12),
         "argv": ["fragment", "--outer", "ewens", "--outer-theta", _rotate(CLI_THETAS, b, o[13]),
                  "--inner", "renewal-reversed", "--inner-alpha", _rotate(CLI_ALPHAS, b, o[14])]},
        {"kind": "reconstruct", "theta": _rotate(CLI_THETAS, b, o[15]),
         "argv": ["reconstruct", "--roundtrip-family", "ewens"]},
    ]


_BLOCKS = {"exact": _exact_block, "sample": _sample_block,
           "arrange": _arrange_block, "cli": _cli_block}


# ---------------------------------------------------------------------------
# set-up: reference tables and lazy imports, once per process


class Context:
    """What jobs share within one process: references, paths, the span hook."""

    def __init__(self, workload, root, work_dir, tiny):
        self.workload = workload
        self.root = Path(root)
        self.work_dir = Path(work_dir)
        self.tiny = tiny
        self.span = no_span  # Tracer.span while a traced block runs
        self.cli_trace_file = None  # set while a traced cli job runs
        self.refs = {}
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))


def _closed_form_pair(alpha, theta):
    """Exact stationary (q, q*) from closed forms, independent of the Levy sums.

    q is the Gnedin-Pitman decrement matrix `two_param_q`, and
    q*(n:m) = Psi(n:0) q(n:m) + Psi(n:m) with Psi the Beta(1-alpha, theta)
    meander moments: the same law `two_param_stationary_pair` builds from
    alternating Levy-binomial sums, at a small fraction of the cost.
    """
    q = laws.two_param_q(alpha, theta)
    meander = laws.beta_meander(alpha, theta)

    def qstar(n, m):
        return laws.meander_moments(meander, n, 0) * q(n, m) + laws.meander_moments(meander, n, m)

    return laws.DecrementMatrixPair(q=q, qstar=laws.DecrementMatrix("q*[closed form]", qstar),
                                    label=f"closed-form({alpha},{theta})")


def setup(ctx):
    """Build every reference the workload's checks compare against."""
    refs = ctx.refs
    w = ctx.workload
    if w == "sample":
        pairs = {p: _closed_form_pair(Fraction(p[0]), Fraction(p[1])) for p in SAMPLE_MARKOV}
        for family, grid in SAMPLE_GRIDS.items():
            for params in grid:
                if family == "markov_chain":
                    cpf = laws.markov_cpf(pairs[params])
                elif family == "renewal_string":
                    cpf = laws.renewal_cpf(Fraction(params[0]))
                else:
                    cpf = laws.ewens_cpf(Fraction(params[0]))
                for n in SAMPLE_NS:
                    if n <= 10:
                        refs[(family, params, n)] = cpf.float_probs(n)
                    else:
                        moments = structural.structural_moments(cpf, n)
                        refs[(family, params, n)] = float(
                            structural.expected_num_parts(moments, n))
        # exact q rows 1..n and q* row n: the entries a markov job samples from
        for params, pair in pairs.items():
            for n in SAMPLE_NS:
                if n > 10:
                    refs[("markov_rows", params, n)] = (
                        [[float(v) for v in pair.q.row(m)] for m in range(1, n + 1)],
                        [float(v) for v in pair.qstar.row(n)])
        # lazy imports a first job would otherwise pay: scipy.special for the
        # float Levy exponent, scipy.stats for the goodness-of-fit test
        laws.levy_exponent(laws.two_param_levy(0.5, 1.0), 2)
        verify.chi_square_gof([10, 20], [0.5, 0.5])
    elif w == "arrange":
        sizes = (5, 6) if ctx.tiny else (6, 7, 8, 10)
        for a, t in ARRANGE_PARAMS:
            fa, ft = Fraction(a), Fraction(t)
            cpf = laws.markov_cpf(laws.two_param_stationary_pair(fa, fa + ft))
            for n in sizes:
                refs[((a, t), n)] = cpf.float_probs(n)
        verify.chi_square_gof([10, 20], [0.5, 0.5])
    elif w == "cli":
        for theta in CLI_THETAS:
            cpf = laws.ewens_cpf(Fraction(theta))
            path = ctx.work_dir / f"moments-{theta.replace('/', '_')}.txt"
            moments = structural.structural_moments(cpf, 7)
            path.write_text("\n".join(tables.moments_lines(moments.p)) + "\n")
            refs[("moments", theta)] = path
        for a, t in EXACT_PARAMS + SAMPLE_MARKOV:
            cpf = laws.markov_cpf(laws.two_param_stationary_pair(Fraction(a), Fraction(t)))
            for n in range(5 if ctx.tiny else 6, 11):
                refs[((a, t), n)] = cpf.float_probs(n)
    return refs


# ---------------------------------------------------------------------------
# jobs


class JobResult:
    __slots__ = ("passed", "reason", "known_defect", "draws", "digest", "counts",
                 "bytes", "trace")

    def __init__(self):
        self.passed = True
        self.reason = None
        self.known_defect = False
        self.draws = 0
        self.digest = ""
        self.counts = {}
        self.bytes = 0
        self.trace = None  # layer summary from a traced cli child

    def fail(self, reason):
        """Record the first failure; ``reason`` is "kind" or "kind: detail"."""
        if self.passed:
            self.passed, self.reason = False, reason


def run_job(job, ctx):
    res = JobResult()
    try:
        _RUNNERS[ctx.workload](job, ctx, res)
    except Exception as exc:  # a raising job is a failed job; the loop goes on
        res.fail(f"raised: {type(exc).__name__}: {exc}")
    return res


def digest_of(*parts):
    """sha256 over strings and bytes, in order."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


def _verify_counts(n_check, n_rec):
    """Identities the three CPF checkers and the recursion check test."""
    right = (1 << (n_check - 1)) - 1                    # compositions of n < n_check
    uniform = (1 << (n_check - 1)) - 1                  # compositions of n - 1, n <= n_check
    theorem_sl = n_check * (n_check + 1) // 2
    recursions = n_rec * (n_rec + 1)
    return right + uniform + theorem_sl + recursions


def _run_exact(job, ctx, res):
    a, t = Fraction(job["alpha"]), Fraction(job["theta"])
    nt, nc, nr = job["n_table"], job["n_check"], job["n_rec"]
    pair = laws.two_param_stationary_pair(a, t)
    if job["kind"] == "control":
        # negative control: forcing q* := q gives a regenerative law that
        # is not right-consistent; it passes only if a checker says FAIL
        pair = laws.DecrementMatrixPair(q=pair.q, qstar=pair.q, label="control")
        with ctx.span("laws", "materialise_rows"):
            rows = [pair.q.row(m) for m in range(1, nc + 1)]
        cpf = laws.markov_cpf(pair)
        reports = [verify.check_right_consistency(cpf, nc),
                   verify.check_uniform_consistency(cpf, nc),
                   verify.check_theorem_SL(cpf, nc)]
        if all(r.passed for r in reports):
            res.fail("control not rejected")
        res.counts = {"laws.values": len(rows) * (len(rows) + 1) // 2,
                      "verify.identities": _verify_counts(nc, 0)}
        res.digest = digest_of(*(str(r) for r in reports))
        return
    # the entries this job reads: the table needs q rows < nt and q* row nt,
    # the checks and moments rows up to nc, the recursions rows up to nr + 1
    q_top = max(nt - 1, nc, nr + 1)
    qs_ns = sorted(set(range(1, max(nc, nr + 1) + 1)) | {nt})
    with ctx.span("laws", "materialise_rows"):
        q_rows = [pair.q.row(m) for m in range(1, q_top + 1)]
        qs_rows = [pair.qstar.row(m) for m in qs_ns]
    if any(sum(r) != 1 for r in q_rows + qs_rows):
        res.fail("q/q* row does not sum to 1")
    cpf = laws.markov_cpf(pair)
    with ctx.span("laws", "cpf_table"):
        table = cpf.table(nt)
    if sum(p for _, p in table) != 1:
        res.fail(f"table does not sum to 1: n = {nt}")
    reports = [verify.check_uniform_consistency(cpf, nc),
               verify.check_right_consistency(cpf, nc),
               verify.check_theorem_SL(cpf, nc),
               verify.check_decrement_recursions(pair, nr)]
    for r in reports:
        if not r.passed:
            res.fail(f"check failed: {r}")
    moments = structural.structural_moments(cpf, nc)
    rpair, _ = structural.reconstruct_markov(moments)
    if any(rpair.q(n, r) != pair.q(n, r) for n in range(1, nc) for r in range(1, n + 1)) \
            or any(rpair.qstar(n, r) != pair.qstar(n, r)
                   for n in range(1, nc + 1) for r in range(1, n + 1)):
        res.fail("reconstructed (q, q*) differs from the law")
    text = tables.to_json(tables.cpf_table_tree(cpf, nt))
    tree = json.loads(text)
    parsed = [tables.parse_value(row["probability"]) for row in tree["rows"]]
    if parsed != [p for _, p in table] or tree["total"] != "1/1":
        res.fail("JSON table does not round-trip")
    res.bytes = len(text)
    res.counts = {"laws.values": sum(map(len, q_rows + qs_rows)) + (1 << (nt - 1)),
                  "verify.identities": _verify_counts(nc, nr)}
    res.digest = digest_of(text, *(str(r) for r in reports))


_BATCH = {
    "ewens_string": lambda p, n, d, s: stochastic.batch_ewens_strings(float(p[0]), n, d, s),
    "renewal_string": lambda p, n, d, s: stochastic.batch_renewal_strings(float(p[0]), n, d, s),
    "uniform_set": lambda p, n, d, s: stochastic.batch_uniform_construction(float(p[0]), n, d, s),
    "poisson_set": lambda p, n, d, s: stochastic.batch_poisson_construction(float(p[0]), n, d, s),
}


def _check_codes(codes, n, draws, res):
    if codes.shape != (draws,) or codes.min() < (1 << (n - 1)) or codes.max() >= (1 << n):
        res.fail("codes outside the compositions of n")


def _run_sample(job, ctx, res):
    family, n, draws, params = job["kind"], job["n"], job["draws"], tuple(job["params"])
    stream = stochastic.RngStream(seed=job["seed"])
    if family == "markov_chain":
        # the float law, built per job and materialised before sampling
        with ctx.span("laws", "materialise_rows"):
            pair = laws.two_param_stationary_pair(float(params[0]), float(params[1]))
            q_rows = [pair.q.row(m) for m in range(1, n + 1)]
            qs_row = pair.qstar.row(n)
        law_values = n * (n + 1) // 2 + n
        codes = stochastic.batch_markov_compositions(pair, n, draws, stream)
    else:
        law_values = n if family == "renewal_string" else 0
        codes = _BATCH[family](params, n, draws, stream)
    _check_codes(codes, n, draws, res)
    ref = ctx.refs[(family, params, n)]
    if n <= 10:
        counts = stochastic.codes_to_counts(codes, n)
        _, p, _ = verify.chi_square_gof(counts, ref)
        if not p >= GOF_P_MIN:
            res.fail(f"chi-square rejects: p = {p:.2e}")
    else:
        if family == "markov_chain":
            ex_rows, ex_star = ctx.refs[("markov_rows", params, n)]
            err = max(max(abs(x - y) for x, y in zip(fr, er)) for fr, er in zip(q_rows, ex_rows))
            err = max(err, max(abs(x - y) for x, y in zip(qs_row, ex_star)))
            if not err <= FLOAT_LAW_TOL:
                # the float Levy-binomial sums cancel as n grows: a known
                # defect of the float path, counted as a failed job
                res.fail(f"float law beyond tolerance: off by {err:.1e}")
                res.known_defect = True
        parts = np.bitwise_count(codes).astype(float)
        se = parts.std() / math.sqrt(draws)
        if not abs(parts.mean() - ref) <= MEAN_SE_MAX * se:
            res.fail(f"mean part count off: {parts.mean():.4f} vs {ref:.4f}, se {se:.1e}")
    res.draws = draws
    res.counts = {"laws.values": law_values}
    res.digest = digest_of(codes.tobytes())


def _run_arrange(job, ctx, res):
    n, draws, (a, t) = job["n"], job["draws"], job["params"]
    fa, ft = Fraction(a), Fraction(t)
    parts = stochastic.sample_partition_batch(fa, ft, n, draws,
                                              stochastic.RngStream(job["seed"], 0))
    if parts.shape[0] != draws or not (parts.sum(axis=1) == n).all():
        res.fail("a parts row does not sum to n")
    codes = stochastic.batch_arrangements(parts, n, fa, ft, stochastic.RngStream(job["seed"], 1))
    _check_codes(codes, n, draws, res)
    if not (np.bitwise_count(codes) == (parts > 0).sum(axis=1)).all():
        res.fail("an arrangement has the wrong number of parts")
    counts = stochastic.codes_to_counts(codes, n)
    _, p, _ = verify.chi_square_gof(counts, ctx.refs[((a, t), n)])
    if not p >= GOF_P_MIN:
        res.fail(f"chi-square rejects: p = {p:.2e}")
    res.draws = draws
    # the permutation-sum partition law evaluates every composition of n once
    res.counts = {"laws.values": 1 << (n - 1)}
    res.digest = digest_of(parts.tobytes(), codes.tobytes())


def _cli_argv(job, ctx):
    argv = list(job["argv"])
    if job["kind"] in ("sample", "arrange"):
        argv += ["--seed", str(job["seed"]), "--draws", str(job["draws"])]
    if job["kind"] == "arrange":
        argv += ["--partition", job["partition"]]
    if job["kind"] == "check":
        argv += ["--n-max", str(job["n"])]
    elif job["kind"] == "reconstruct":
        argv += ["--theta", job["theta"], "--moments", str(ctx.refs[("moments", job["theta"])])]
    elif "n" in job:
        argv += ["--n", str(job["n"])]
    return argv + ["--format", "json"]


def _run_cli(job, ctx, res):
    argv = _cli_argv(job, ctx)
    if ctx.cli_trace_file is None:
        cmd = [sys.executable, "-m", "compstruct.cli", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
               str(ctx.cli_trace_file), *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=ctx.env,
                          cwd=ctx.root, timeout=120)
    if ctx.cli_trace_file is not None and ctx.cli_trace_file.exists():
        res.trace = json.loads(ctx.cli_trace_file.read_text())
        ctx.cli_trace_file.unlink()
    want = 1 if job.get("control") else 0
    if proc.returncode != want:
        res.fail(f"wrong exit code: {proc.returncode}, want {want}; {proc.stderr.strip()[-200:]}")
        return
    tree = json.loads(proc.stdout)
    _CLI_CHECKS[job["kind"]](job, ctx, tree, res)
    res.bytes = len(proc.stdout)
    res.digest = digest_of(proc.stdout)


def _cli_cpf(job, ctx, tree, res):
    n = job["n"]
    res.counts = {"laws.values": 1 << (n - 1)}
    if len(tree["rows"]) != 1 << (n - 1) or tree["total"] != "1/1":
        res.fail("cpf table is not an exact law over the compositions of n")


def _cli_check(job, ctx, tree, res):
    verdicts = [c["verdict"] for c in tree["checks"]]
    n = job["n"]
    res.counts = {"verify.identities": _verify_counts(n, n - 1)}
    if job.get("control"):
        if "fail" not in verdicts:
            res.fail("control not rejected")
    elif any(v != "pass" for v in verdicts):
        res.fail(f"checks failed: {verdicts}")


def _cli_sample(job, ctx, tree, res):
    n, draws = job["n"], job["draws"]
    ref = ctx.refs[(tuple(job["params"]), n)]
    counts = [row["count"] for row in tree["rows"]]
    res.draws = draws
    res.counts = {"laws.values": 1 << (n - 1)}
    if tree["draws"] != draws or len(counts) != len(ref):
        res.fail("count table has the wrong shape")
        return
    if any(abs(row["expected"] - draws * p) > 1e-6 * draws for row, p in zip(tree["rows"], ref)):
        res.fail("expected column differs from the exact law")
    _, p, _ = verify.chi_square_gof(counts, ref)
    if not p >= GOF_P_MIN:
        res.fail(f"chi-square rejects: p = {p:.2e}")


def _cli_arrange(job, ctx, tree, res):
    want = sorted(int(x) for x in job["partition"].split(","))
    res.draws = job["draws"]
    if tree["draws"] != job["draws"]:
        res.fail("arrangement count table has the wrong total")
    for row in tree["rows"]:
        if row["count"]:
            parts = [len(s) + 1 for s in row["binary"][1:].split("1")]
            if sorted(parts) != want:
                res.fail(f"arrangement of another partition: {row['binary']}")
                return


def _cli_exact_table(job, ctx, tree, res):
    rows = tree["cpf"]["rows"] if "cpf" in tree else tree["rows"]
    total = tree["cpf"]["total"] if "cpf" in tree else tree["total"]
    res.counts = {"laws.values": len(rows)}
    if total != "1/1":
        res.fail("table does not sum to 1 exactly")
    if job["kind"] == "reconstruct" and tree.get("roundtrip") is not True:
        res.fail("reconstruction does not round-trip")


_CLI_CHECKS = {"cpf": _cli_cpf, "check": _cli_check, "sample": _cli_sample,
               "arrange": _cli_arrange, "fragment": _cli_exact_table,
               "reconstruct": _cli_exact_table}
_RUNNERS = {"exact": _run_exact, "sample": _run_sample, "arrange": _run_arrange,
            "cli": _run_cli}
