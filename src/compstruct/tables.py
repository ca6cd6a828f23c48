"""Line-oriented record formats for CPF tables, count tables and reports.

Default format is tab-delimited text; a JSON tree is available for
structured consumers.  Exact values serialize as "p/q" strings, floats as
repr decimals, so rational tables survive the round trip bit-exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .composition import _joined_by_code
from .ratmath import parse_scalar


def format_value(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return f"{v}/1"
    return repr(float(v))


def parse_value(text: str):
    """Inverse of ``format_value`` on finite values: "p/q" and integers exact."""
    return parse_scalar(text)


def _cpf_rows(cpf, n):
    """(code, probability text) pairs of level n in code order, and the total's
    text: a rational level writes each num/den as "p/q" with one gcd."""
    nums, den = cpf.level(n)
    codes = range(1 << (n - 1), 1 << n)
    if den is None:
        return zip(codes, map(format_value, nums)), format_value(sum(nums))
    texts = []
    for x in nums:
        g = gcd(x, den)
        texts.append(f"{x // g}/{den // g}")
    return zip(codes, texts), format_value(Fraction(sum(nums), den))


def cpf_table_lines(cpf, n: int) -> list:
    """Rows: binary code, probability, family tag; normalization line last."""
    rows, total = _cpf_rows(cpf, n)
    lines = [f"{code:b}\t{p}\t{cpf.name}" for code, p in rows]
    lines.append(f"# total\t{total}")
    return lines


def cpf_table_tree(cpf, n: int) -> dict:
    rows, total = _cpf_rows(cpf, n)
    return {
        "family": cpf.name,
        "n": n,
        # each text is the composition "3,1,2" with a leading comma
        "rows": [{"composition": text[1:], "binary": f"{code:b}", "probability": p}
                 for text, (code, p) in zip(
                     _joined_by_code(n, [""] + [f",{r}" for r in range(1, n + 1)]), rows)],
        "total": total,
    }


def count_table_lines(counts, expected_probs, n: int) -> list:
    """Rows: binary code, count, expected, standardized residual."""
    total = int(sum(counts))
    lines = []
    for code, cnt, p in zip(range(1 << (n - 1), 1 << n), counts, expected_probs):
        exp = total * float(p)
        resid = (cnt - exp) / exp ** 0.5 if exp > 0 else 0.0
        lines.append(f"{code:b}\t{int(cnt)}\t{exp:.6f}\t{resid:+.3f}")
    return lines


def count_table_tree(counts, expected_probs, n: int) -> dict:
    total = int(sum(counts))
    rows = []
    for code, cnt, p in zip(range(1 << (n - 1), 1 << n), counts, expected_probs):
        exp = total * float(p)
        rows.append({"binary": format(code, "b"), "count": int(cnt),
                     "expected": exp,
                     "residual": (cnt - exp) / exp ** 0.5 if exp > 0 else 0.0})
    return {"n": n, "draws": total, "rows": rows}


def moments_lines(values) -> list:
    return [f"{i}\t{format_value(v)}" for i, v in enumerate(values, start=1)]


def parse_moments(text: str) -> list:
    """Read 'index<TAB>value' lines (or bare values, one per line).

    The indices must be 1..N, each once, in any order; a repeated index or
    a gap is a ValueError naming its line.
    """
    out, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        try:
            if len(toks) == 1:
                i, value = len(out) + 1, parse_value(toks[0])
            else:
                i, value = int(toks[0]), parse_value(toks[1])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: bad moment line {line!r}") from None
        if i in out:
            raise ValueError(f"line {lineno}: moment index {i} repeats line {lines[i]}")
        out[i], lines[i] = value, lineno
    for k, i in enumerate(sorted(out), start=1):
        if i != k:
            raise ValueError(f"line {lines[i]}: moment index {i}, expected {k} "
                             f"(indices run 1..N without gaps)")
    return [out[i] for i in sorted(out)]


def matrix_lines(dm, N: int) -> list:
    return [f"{n}\t{r}\t{format_value(dm(n, r))}"
            for n in range(1, N + 1) for r in range(1, n + 1)]


def report_lines(reports) -> list:
    return [str(rep) for rep in reports]


def report_tree(reports) -> dict:
    return {"checks": [{
        "name": r.name, "scope": r.scope, "verdict": "pass" if r.passed else "fail",
        "mode": r.mode,
        "witness": None if r.worst is None else [repr(x) for x in r.worst],
    } for r in reports]}


def to_json(tree) -> str:
    return json.dumps(tree)
