"""The enumerating and Fraction forms of the exact layer, an oracle for its int paths.

Each consistency check walks the compositions of every level, builds the
grown, appended or ball-deleted ``Composition`` it compares with, and adds
the values one at a time in code order.  The recursion check, the block
counts, the table writers and the scalar parser compute one ``Fraction`` per
operation.  ``compstruct`` computes the same values on code-indexed levels
and in ints over one denominator; for every input the two give equal
reports, values and text.  Ball deletion on compositions lives here, with
the oracle that is its only caller.
"""

from fractions import Fraction

from compstruct.composition import Composition, enumerate_compositions
from compstruct.ratmath import binom, is_exact
from compstruct.structural import _mixed_moment, structural_moments
from compstruct.tables import format_value
from compstruct.verify import _run_identity


class EmptyComposition:
    """Sentinel for the result of deleting the only ball (n = 0)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "EMPTY"


EMPTY = EmptyComposition()


def delete_ball(comp, pos):
    """Remove the ball at place ``pos`` (1-based) of ``comp``; empty boxes vanish.

    Returns EMPTY when the composition had a single ball.
    """
    n = comp.n
    if not 1 <= pos <= n:
        raise ValueError(f"ball position {pos} out of range [1, {n}]")
    if n == 1:
        return EMPTY
    parts = list(comp.parts)
    acc = 0
    for i, p in enumerate(parts):
        if pos <= acc + p:
            if p == 1:
                del parts[i]
            else:
                parts[i] = p - 1
            return Composition(tuple(parts))
        acc += p
    raise AssertionError("unreachable")


def check_right_consistency(cpf, n_max):
    """p(lam) = p(.., lam_l + 1) + p(.., lam_l, 1) for all |lam| < n_max."""

    def pairs():
        for n in range(1, n_max):
            for c in enumerate_compositions(n):
                grown = Composition(c.parts[:-1] + (c.last_part + 1,))
                appended = Composition(c.parts + (1,))
                yield c, cpf(c), cpf(grown) + cpf(appended)

    return _run_identity("right-consistency", f"{cpf.name}, n<{n_max}", pairs())


def check_uniform_consistency(cpf, n_max):
    """p(lam) = sum_mu p(mu) kappa(mu, lam) under uniform ball deletion."""

    def pairs():
        for n in range(2, n_max + 1):
            # sums[lam] = n * sum_mu p(mu) kappa(mu, lam); every ball of a
            # part deletes to the same composition
            sums = {}
            for mu in enumerate_compositions(n):
                p_mu = cpf(mu)
                pos = 0
                for part in mu.parts:
                    pos += part
                    lam = delete_ball(mu, pos)
                    sums[lam] = sums.get(lam, 0) + p_mu * part
            for lam in enumerate_compositions(n - 1):
                s = sums.get(lam, 0)
                yield lam, cpf(lam), Fraction(s, n) if is_exact(s) else s / n

    return _run_identity("uniform-consistency", f"{cpf.name}, n<={n_max}", pairs())


def last_part_law(cpf, n):
    """P(L_n = r), r = 1..n, by enumeration of all compositions of n."""
    law = [0] * n
    for c in enumerate_compositions(n):
        law[c.last_part - 1] = law[c.last_part - 1] + cpf(c)
    return law


def check_theorem_SL(cpf, n_max):
    """Last-part law equals the size-biased part law r mu_{n,r}/n."""
    moments = structural_moments(cpf, n_max)

    def pairs():
        for n in range(1, n_max + 1):
            last = last_part_law(cpf, n)
            sized = size_biased_part_law(moments, n)
            for r in range(1, n + 1):
                yield (n, r), last[r - 1], sized[r - 1]

    return _run_identity("theorem-S=L", f"{cpf.name}, n<={n_max}", pairs())


def check_decrement_recursions(dm, n_max):
    """Entrywise recursions tying rows n and n+1 of q and q*, every term a Fraction."""

    def pairs():
        for n in range(1, n_max + 1):
            for r in range(1, n + 1):
                lhs = dm.q(n, r)
                rhs = (Fraction(r + 1, n + 1) * dm.q(n + 1, r + 1)
                       + Fraction(n + 1 - r, n + 1) * dm.q(n + 1, r)
                       + Fraction(1, n + 1) * dm.q(n + 1, 1) * dm.q(n, r))
                yield ("q", n, r), lhs, rhs
                lhs = dm.qstar(n, r)
                rhs = (Fraction(r + 1, n + 1) * dm.qstar(n + 1, r + 1)
                       + Fraction(n + 1 - r, n + 1) * dm.qstar(n + 1, r)
                       + Fraction(1, n + 1) * dm.qstar(n + 1, 1) * dm.q(n, r))
                yield ("q*", n, r), lhs, rhs

    return _run_identity("decrement-recursions", f"{dm.label or dm.q.name}, n<={n_max}",
                         pairs())


def block_count_row(moments, n):
    """mu_{n,r} = C(n,r) E[V^(r-1) (1-V)^(n-r)], each by the alternating sum."""
    if n > moments.max_n:
        raise ValueError(f"need moments up to p({n})")
    return [binom(n, r) * _mixed_moment(moments.p, r - 1, n - r) for r in range(1, n + 1)]


def size_biased_part_law(moments, n):
    """P(P_n = r) = r mu_{n,r} / n on the oracle's block counts."""
    row = block_count_row(moments, n)
    if is_exact(*row):
        return [Fraction(r, n) * row[r - 1] for r in range(1, n + 1)]
    return [r * row[r - 1] / n for r in range(1, n + 1)]


def parse_scalar(text):
    """'p/q' and integers through ``Fraction(text)``, decimals through ``float``."""
    text = text.strip()
    if "/" in text or ("." not in text and "e" not in text.lower()):
        return Fraction(text)
    return float(text)


def _cpf_rows(cpf, n):
    values = cpf.values(n)
    total = sum(values)
    return enumerate(values, start=1 << (n - 1)), total


def _parts_text(code):
    return ",".join(str(len(zeros) + 1) for zeros in format(code, "b")[1:].split("1"))


def cpf_table_lines(cpf, n):
    """Rows: binary code, probability, family tag; each value through ``format_value``."""
    rows, total = _cpf_rows(cpf, n)
    lines = [f"{code:b}\t{format_value(p)}\t{cpf.name}" for code, p in rows]
    lines.append(f"# total\t{format_value(total)}")
    return lines


def cpf_table_tree(cpf, n):
    rows, total = _cpf_rows(cpf, n)
    return {
        "family": cpf.name,
        "n": n,
        "rows": [{"composition": _parts_text(code), "binary": format(code, "b"),
                  "probability": format_value(p)} for code, p in rows],
        "total": format_value(total),
    }
