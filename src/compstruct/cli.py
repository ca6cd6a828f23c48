"""Batch command-line front end.

Subcommands: cpf, sample, check, reconstruct, arrange, fragment.  Every
family is a decrement-matrix pair, so ``check`` treats all alike.  Fractions
"p/q" and integers keep the run exact; decimals force float mode.  Only
``sample`` and ``arrange`` import the sampling layer, and numpy with it; the
exact commands run without numpy.  Exit codes: 0 success, 1 failed check, 2
invalid parameters (a size below 1 among them), 3 enumeration cap exceeded,
4 reconstruction infeasible.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import tables
from .composition import MAX_ENUM_N, Partition, enumerate_compositions
from .laws import (Cpf, DecrementMatrix, DecrementMatrixPair, ewens_pair, fragment_cpf,
                   markov_cpf, renewal_pair, two_param_stationary_pair)
from .ratmath import is_exact, parse_scalar
from .structural import ReconstructionError, reconstruct_markov, StructuralMoments
from .verify import (FLOAT_TOL, check_decrement_recursions, check_right_consistency,
                     check_theorem_SL, check_uniform_consistency)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_CAP_EXCEEDED = 3
EXIT_RECONSTRUCTION = 4

FAMILIES = ("ewens", "renewal", "renewal-reversed", "two-param", "markov-table")


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _scalar(text):
    if text is None:
        return None
    try:
        return parse_scalar(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot parse scalar {text!r}", EXIT_BAD_PARAMS)


def _check_size(n, flag="--n"):
    if n < 1:
        raise CliError(f"{flag} must be >= 1, got {n}", EXIT_BAD_PARAMS)
    if n > MAX_ENUM_N:
        raise CliError(f"n = {n} exceeds the enumeration cap {MAX_ENUM_N}",
                       EXIT_CAP_EXCEEDED)


def build_pair(family, alpha, theta, matrix_file=None) -> DecrementMatrixPair:
    """The decrement-matrix pair of a family; a missing or bad parameter exits 2."""
    try:
        if family == "ewens":
            if theta is None:
                raise CliError("ewens needs --theta", EXIT_BAD_PARAMS)
            return ewens_pair(theta)
        if family in ("renewal", "renewal-reversed"):
            if alpha is None:
                raise CliError(f"{family} needs --alpha", EXIT_BAD_PARAMS)
            return renewal_pair(alpha, reversed_=family == "renewal-reversed")
        if family == "two-param":
            if alpha is None or theta is None:
                raise CliError("two-param needs --alpha and --theta", EXIT_BAD_PARAMS)
            return two_param_stationary_pair(alpha, theta)
        if family == "markov-table":
            if matrix_file is None:
                raise CliError("markov-table needs --matrix-file", EXIT_BAD_PARAMS)
            return load_matrix_pair(matrix_file)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc), EXIT_BAD_PARAMS) from exc
    raise CliError(f"unknown family {family!r}", EXIT_BAD_PARAMS)


def build_cpf(family, alpha, theta, matrix_file=None) -> Cpf:
    return markov_cpf(build_pair(family, alpha, theta, matrix_file))


def _read_text(path, what) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {what} {path}: {exc.strerror}",
                       EXIT_BAD_PARAMS) from None


def load_matrix_pair(path) -> DecrementMatrixPair:
    """Read 'kind n r value' lines with kind in {q, q*}.

    An unreadable file, a malformed line, or an entry that a command needs
    and the file lacks, is a CliError with exit code 2.
    """
    entries = {"q": {}, "q*": {}}
    for line in _read_text(path, "matrix file").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            kind, n, r, value = line.split()
            entries[kind][(int(n), int(r))] = tables.parse_value(value)
        except (KeyError, ValueError, ZeroDivisionError):
            raise CliError(f"{path}: bad matrix line {line!r}", EXIT_BAD_PARAMS) from None

    def make(kind):
        table = entries[kind]

        def entry(n, r):
            try:
                return table[(n, r)]
            except KeyError:
                raise CliError(f"matrix file lacks {kind}({n}:{r})", EXIT_BAD_PARAMS) from None

        return DecrementMatrix(f"{kind}[{path}]", entry)

    return DecrementMatrixPair(q=make("q"), qstar=make("q*"), label=f"table[{path}]")


def _emit(args, text_lines, tree):
    """Write the requested format; ``text_lines`` and ``tree`` build it lazily."""
    body = tables.to_json(tree()) if args.format == "json" else "\n".join(text_lines())
    if args.output:
        out = Path(args.output)
        if not out.is_absolute() and os.environ.get("COMPSTRUCT_OUTDIR"):
            out = Path(os.environ["COMPSTRUCT_OUTDIR"]) / out
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(body + "\n")
    else:
        print(body)


# ---------------------------------------------------------------------------
# subcommands


def cmd_cpf(args):
    _check_size(args.n)
    cpf = build_cpf(args.family, _scalar(args.alpha), _scalar(args.theta),
                    args.matrix_file)
    _emit(args, lambda: tables.cpf_table_lines(cpf, args.n),
          lambda: tables.cpf_table_tree(cpf, args.n))
    return EXIT_OK


def cmd_sample(args):
    from .stochastic import (RngStream, batch_ewens_strings, batch_markov_compositions,
                             batch_poisson_construction, batch_renewal_strings,
                             batch_uniform_construction, codes_to_counts)

    _check_size(args.n)
    if args.method != "string" and args.family != "ewens":
        raise CliError(f"--method {args.method} samples only --family ewens",
                       EXIT_BAD_PARAMS)
    alpha, theta = _scalar(args.alpha), _scalar(args.theta)
    pair = build_pair(args.family, alpha, theta, args.matrix_file)
    stream = RngStream(seed=args.seed, stream=args.stream)
    try:
        if args.method == "uniform-set":
            codes = batch_uniform_construction(theta, args.n, args.draws, stream)
        elif args.method == "poisson-set":
            codes = batch_poisson_construction(theta, args.n, args.draws, stream)
        elif args.family == "ewens":
            codes = batch_ewens_strings(theta, args.n, args.draws, stream)
        elif args.family == "renewal":
            codes = batch_renewal_strings(alpha, args.n, args.draws, stream)
        else:
            codes = batch_markov_compositions(pair, args.n, args.draws, stream)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc), EXIT_BAD_PARAMS) from exc

    if args.log_file:
        try:
            with open(args.log_file, "w") as fh:
                for code in codes:
                    fh.write(format(int(code), f"0{args.n}b") + "\n")
        except OSError as exc:
            raise CliError(f"cannot write log file {args.log_file}: {exc.strerror}",
                           EXIT_BAD_PARAMS) from None

    counts = codes_to_counts(codes, args.n)
    probs = markov_cpf(pair).float_probs(args.n)
    _emit(args, lambda: tables.count_table_lines(counts, probs, args.n),
          lambda: tables.count_table_tree(counts, probs, args.n))
    return EXIT_OK


def cmd_check(args):
    _check_size(args.n_max, "--n-max")
    pair = build_pair(args.family, _scalar(args.alpha), _scalar(args.theta),
                      args.matrix_file)
    if args.control == "regenerative":
        pair = DecrementMatrixPair(q=pair.q, qstar=pair.q, label=pair.label + "[q*:=q]")
    cpf = markov_cpf(pair)
    reports = [check_decrement_recursions(pair, args.n_max - 1),
               check_right_consistency(cpf, args.n_max),
               check_uniform_consistency(cpf, args.n_max),
               check_theorem_SL(cpf, args.n_max)]
    _emit(args, lambda: tables.report_lines(reports), lambda: tables.report_tree(reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_reconstruct(args):
    try:
        values = tables.parse_moments(_read_text(args.moments, "moments file"))
    except ValueError as exc:
        raise CliError(f"{args.moments}: {exc}", EXIT_BAD_PARAMS) from None
    try:
        moments = StructuralMoments(tuple(values))
        pair, cpf = reconstruct_markov(moments)
    except (ReconstructionError, ValueError) as exc:
        print(f"reconstruction infeasible: {exc}", file=sys.stderr)
        return EXIT_RECONSTRUCTION
    N = moments.max_n - 1
    table_n = N if args.n is None else min(N, args.n)
    _check_size(table_n)
    ok = None
    if args.roundtrip_family:
        ref = build_cpf(args.roundtrip_family, _scalar(args.alpha), _scalar(args.theta),
                        args.matrix_file)
        # exact when both sides are exact, else within the float checks' tolerance
        pairs = ((cpf(c), ref(c)) for m in range(1, table_n + 1)
                 for c in enumerate_compositions(m))
        ok = all(abs(a - b) <= (0 if is_exact(a, b) else FLOAT_TOL) for a, b in pairs)

    def lines():
        out = (["# q"] + [f"q\t{ln}" for ln in tables.matrix_lines(pair.q, N)]
               + ["# q*"] + [f"q*\t{ln}" for ln in tables.matrix_lines(pair.qstar, N + 1)]
               + ["# cpf"] + tables.cpf_table_lines(cpf, table_n))
        if ok is not None:
            out.append(f"# roundtrip {args.roundtrip_family}: {'pass' if ok else 'FAIL'}")
        return out

    def tree():
        out = {"q": tables.matrix_lines(pair.q, N),
               "qstar": tables.matrix_lines(pair.qstar, N + 1),
               "cpf": tables.cpf_table_tree(cpf, table_n)}
        if ok is not None:
            out["roundtrip"] = bool(ok)
        return out

    _emit(args, lines, tree)
    return EXIT_CHECK_FAILED if ok is False else EXIT_OK


def arrangement_probs(lam: Partition, alpha, theta) -> list:
    """Exact law of an arranged partition, in code order.

    Arranged (alpha, theta) partitions follow the stationary (alpha, alpha +
    theta) law, so conditionally on the parts the law is that CPF restricted
    to the arrangements of ``lam`` and renormalised.
    """
    cpf = markov_cpf(two_param_stationary_pair(alpha, alpha + theta))
    mass = {c.code: cpf(c) for c in lam.distinct_arrangements()}
    total = sum(mass.values())
    base = 1 << (lam.n - 1)
    probs = [0.0] * base
    for code, p in mass.items():
        probs[code - base] = p / total
    return probs


def cmd_arrange(args):
    alpha, theta = _scalar(args.alpha), _scalar(args.theta)
    if alpha is None or theta is None:
        raise CliError("arrange needs --alpha and --theta", EXIT_BAD_PARAMS)
    if args.draws < 0:
        raise CliError(f"draws must be >= 0, got {args.draws}", EXIT_BAD_PARAMS)
    try:
        lam = Partition.from_string(args.partition)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_PARAMS) from exc
    _check_size(lam.n)
    import numpy as np

    from .stochastic import RngStream, batch_arrangements, codes_to_counts

    stream = RngStream(seed=args.seed, stream=args.stream)
    try:
        parts = np.tile(np.array(lam.parts, dtype=np.int64), (args.draws, 1))
        codes = batch_arrangements(parts, lam.n, alpha, theta, stream)
        probs = arrangement_probs(lam, alpha, theta)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc), EXIT_BAD_PARAMS) from exc
    counts = codes_to_counts(codes, lam.n)
    _emit(args, lambda: tables.count_table_lines(counts, probs, lam.n),
          lambda: tables.count_table_tree(counts, probs, lam.n))
    return EXIT_OK


def cmd_fragment(args):
    _check_size(args.n)
    outer = build_pair(args.outer, _scalar(args.outer_alpha), _scalar(args.outer_theta),
                       args.matrix_file)
    inner = build_cpf(args.inner, _scalar(args.inner_alpha), _scalar(args.inner_theta),
                      args.matrix_file)
    frag = fragment_cpf(outer, inner)
    _emit(args, lambda: tables.cpf_table_lines(frag, args.n),
          lambda: tables.cpf_table_tree(frag, args.n))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


_FAMILY_FLAGS = {"--alpha": "exact fraction 'p/q' or decimal",
                 "--theta": "exact fraction 'p/q' or decimal",
                 "--matrix-file": "decrement-matrix file for markov-table"}


def _add_common(p, family_flags=tuple(_FAMILY_FLAGS), sampling=False):
    for flag in family_flags:
        p.add_argument(flag, help=_FAMILY_FLAGS[flag])
    p.add_argument("--output", help="output path (COMPSTRUCT_OUTDIR resolves bare names)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    if sampling:
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--stream", type=int, default=0)
        p.add_argument("--draws", type=int, default=1000)


def make_parser():
    ap = argparse.ArgumentParser(prog="compstruct",
                                 description="composition-structure tables, samplers and checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cpf", help="exact CPF table over all compositions of n")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_cpf)

    p = sub.add_parser("sample", help="seeded Monte Carlo draws with count table")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("string", "uniform-set", "poisson-set"),
                   default="string")
    p.add_argument("--log-file", help="also write one binary draw per line here")
    _add_common(p, sampling=True)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("check", help="run consistency checks; exit 1 on failure")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--control", choices=("regenerative",),
                   help="negative control: force q* := q")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("reconstruct", help="rebuild (q, q*, CPF) from moments")
    p.add_argument("--moments", required=True, help="file of p(1..N+1) values")
    p.add_argument("--n", type=int, help="table order for the emitted CPF")
    p.add_argument("--roundtrip-family", choices=FAMILIES)
    _add_common(p)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("arrange", help="arrange a partition into compositions")
    p.add_argument("--partition", required=True, help="comma-separated parts")
    _add_common(p, family_flags=("--alpha", "--theta"), sampling=True)
    p.set_defaults(fn=cmd_arrange)

    p = sub.add_parser("fragment", help="exact fragmentation-product CPF table")
    p.add_argument("--outer", choices=FAMILIES, required=True)
    p.add_argument("--inner", choices=FAMILIES, required=True)
    p.add_argument("--outer-alpha")
    p.add_argument("--outer-theta")
    p.add_argument("--inner-alpha")
    p.add_argument("--inner-theta")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, family_flags=("--matrix-file",))
    p.set_defaults(fn=cmd_fragment)

    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
