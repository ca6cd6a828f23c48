"""Consistency checkers and statistical test machinery.

Each check compares the two sides of a consistency identity value by value
with ``ratmath.close``: bit-exactly where both are rational, within
``ratmath.FLOAT_TOL`` where either is a float.  A report's witness is the
failing pair with the largest gap, and its mode is exact iff every compared
value was rational (a check that compares nothing is exact).  A pooled
chi-square gate compares sampled counts with an exact table; its p-value is
a standard-library chi-square tail, so this module imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .composition import Composition
from .laws import Cpf, DecrementMatrixPair
from .ratmath import _over_lcm, close, is_exact
from .structural import last_part_law, size_biased_part_law, structural_moments

__all__ = [
    "CheckReport",
    "check_right_consistency",
    "check_uniform_consistency",
    "check_decrement_recursions",
    "check_theorem_SL",
    "chi_square_gof",
]


@dataclass(frozen=True)
class CheckReport:
    name: str
    scope: str
    passed: bool
    worst: Optional[tuple]  # (witness, lhs, rhs) with the largest |lhs-rhs|
    mode: str

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        extra = "" if self.worst is None else f"  worst: {self.worst}"
        return f"[{verdict}] {self.name} ({self.scope}, {self.mode}){extra}"


def _run_identity(name, scope, pairs):
    """pairs yields (key, lhs, rhs); passes iff every pair is ``close``, with the
    failing pair of largest |lhs - rhs| as worst, an int key shown as a composition."""
    worst, worst_gap, exact = None, 0, True
    for key, lhs, rhs in pairs:
        exact = exact and is_exact(lhs, rhs)
        if not close(lhs, rhs):
            gap = abs(lhs - rhs)
            if worst is None or gap > worst_gap:
                worst, worst_gap = (key, lhs, rhs), gap
    if worst is not None and isinstance(worst[0], int):
        worst = (Composition.from_code(worst[0], worst[0].bit_length()),) + worst[1:]
    return CheckReport(name=name, scope=scope, passed=worst is None, worst=worst,
                       mode="exact" if exact else "float")


def _against_lower(cpf: Cpf, n: int, fold, k: int):
    """(code, p(lam), s / k) over the codes lam of n-1, s = fold(level n)[index]: two
    rational levels fold their int nums and compare by cross-multiplying, yielding
    only the pairs that differ; else both levels are read as values."""
    (lower, d_lower), (upper, d) = cpf.level(n - 1), cpf.level(n)
    codes = range(1 << (n - 2), 1 << (n - 1))
    if d_lower is None or d is None:
        for c, v, s in zip(codes, cpf.values(n - 1), fold(cpf.values(n))):
            yield c, v, s if k == 1 else Fraction(s, k) if is_exact(s) else s / k
        return
    for c, v, s in zip(codes, lower, fold(upper)):
        if v * k * d != s * d_lower:
            yield c, Fraction(v, d_lower), Fraction(s, k * d)


def check_right_consistency(cpf: Cpf, n_max: int) -> CheckReport:
    """p(lam) = p(.., lam_l + 1) + p(.., lam_l, 1) for all |lam| < n_max.

    Growing the last part of a code appends a 0 and opening a part appends
    a 1: index i of level n-1 is compared with indices 2i and 2i+1 of level n.
    """
    pairs = (pair for n in range(2, n_max + 1) for pair in _against_lower(
        cpf, n, lambda upper: [a + b for a, b in zip(upper[::2], upper[1::2])], 1))
    return _run_identity("right-consistency", f"{cpf.name}, n<{n_max}", pairs)


def check_uniform_consistency(cpf: Cpf, n_max: int) -> CheckReport:
    """p(lam) = sum_mu p(mu) kappa(mu, lam) under uniform ball deletion.

    Every ball of a part deletes to the same composition, the one whose code
    lacks the binary digit of the part's last ball, so each part of mu adds
    p(mu) times its size to that code; the sum is then divided by n.  Values
    with a float are summed in code order.
    """

    def fold(weights):
        half = len(weights) // 2  # code of index 0 of level n-1
        sums = [0] * half
        for c, w in enumerate(weights, start=2 * half):
            rest, p = c, 0  # p: the digit of the last ball of the last part left
            while rest:
                r = (rest & -rest).bit_length()
                sums[(c >> (p + 1) << p | c & ((1 << p) - 1)) - half] += w * r
                rest, p = rest >> r, p + r
        return sums

    pairs = (pair for n in range(2, n_max + 1) for pair in _against_lower(cpf, n, fold, n))
    return _run_identity("uniform-consistency", f"{cpf.name}, n<={n_max}", pairs)


def check_decrement_recursions(dm: DecrementMatrixPair, n_max: int) -> CheckReport:
    """Entrywise recursions tying rows n and n+1 of q and q*.

    When rows n and n+1 of q and of q* are rational, each goes over its lcm
    and both recursions are compared by cross-multiplying ints; only a pair
    that differs is evaluated in Fractions.  Any other n runs the Fraction
    recursions entry by entry, in their order, so a missing entry raises as
    it does there.
    """

    def pairs():
        for n in range(1, n_max + 1):
            try:
                rows = [_over_lcm(m.row(k)) for m, k in
                        ((dm.q, n), (dm.q, n + 1), (dm.qstar, n), (dm.qstar, n + 1))]
            except Exception:  # a missing entry: the Fraction recursions raise it again
                rows = [None]
            if None in rows:
                for r in range(1, n + 1):
                    yield _recursion_pair(dm, "q", n, r)
                    yield _recursion_pair(dm, "q*", n, r)
                continue
            (a, d), (b, d1), (s, e), (t, e1) = rows
            # q times (n+1) d1 d: a_r ((n+1) d1 - b_1) = ((r+1) b_{r+1} + (n+1-r) b_r) d;
            # q* times (n+1) e1 e d:
            # s_r (n+1) e1 d = (((r+1) t_{r+1} + (n+1-r) t_r) d + t_1 a_r) e
            q_scale, qs_scale = (n + 1) * d1 - b[0], (n + 1) * e1 * d
            for r in range(1, n + 1):
                if a[r - 1] * q_scale != ((r + 1) * b[r] + (n + 1 - r) * b[r - 1]) * d:
                    yield _recursion_pair(dm, "q", n, r)
                if s[r - 1] * qs_scale != (((r + 1) * t[r] + (n + 1 - r) * t[r - 1]) * d
                                           + t[0] * a[r - 1]) * e:
                    yield _recursion_pair(dm, "q*", n, r)

    return _run_identity("decrement-recursions", f"{dm.label or dm.q.name}, n<={n_max}",
                         pairs())


def _recursion_pair(dm, kind, n, r):
    """(key, lhs, rhs) of the recursion of q or q* (``kind``) at (n, r), in Fractions."""
    m = dm.q if kind == "q" else dm.qstar
    lhs = m(n, r)
    rhs = (Fraction(r + 1, n + 1) * m(n + 1, r + 1) + Fraction(n + 1 - r, n + 1) * m(n + 1, r)
           + Fraction(1, n + 1) * m(n + 1, 1) * dm.q(n, r))
    return (kind, n, r), lhs, rhs


def check_theorem_SL(cpf: Cpf, n_max: int) -> CheckReport:
    """Last-part law equals the size-biased part law r mu_{n,r}/n."""
    moments = structural_moments(cpf, n_max)

    def pairs():
        for n in range(1, n_max + 1):
            last = last_part_law(cpf, n)
            sized = size_biased_part_law(moments, n)
            for r in range(1, n + 1):
                yield (n, r), last[r - 1], sized[r - 1]

    return _run_identity("theorem-S=L", f"{cpf.name}, n<={n_max}", pairs())


# ---------------------------------------------------------------------------
# statistical gates


#: Cells expecting fewer counts than this are pooled by ``chi_square_gof``.
MIN_EXPECTED = 5.0


def chi_square_gof(counts: Sequence, expected_probs: Sequence):
    """Pearson statistic, p-value and df, pooling small-expectation cells.

    Cells with expected count below ``MIN_EXPECTED`` are pooled into a single
    'other' cell before computing the statistic; the p-value is ``_chi2_tail``.
    """
    import numpy as np

    counts = np.asarray(counts, dtype=float)
    probs = np.asarray([float(p) for p in expected_probs])
    if counts.size == 0 or counts.size != probs.size:
        raise ValueError("counts and expected table must be nonempty, same length")
    total = counts.sum()
    expected = total * probs
    keep = expected >= MIN_EXPECTED
    obs = list(counts[keep])
    exp = list(expected[keep])
    if not keep.all():
        obs.append(counts[~keep].sum())
        exp.append(expected[~keep].sum())
    obs, exp = np.array(obs), np.array(exp)
    positive = exp > 0
    stat = float((((obs - exp) ** 2)[positive] / exp[positive]).sum())
    df = int(positive.sum()) - 1
    if df <= 0:
        return stat, 1.0, 0
    return stat, _chi2_tail(df, stat), df


def _chi2_tail(df: int, x: float) -> float:
    """P(chi2_df > x) for an integer df >= 1, as a Poisson tail.

    With y = x/2 the tail is the sum of e^-y y^s / Gamma(s+1) over
    s = df/2 - 1, df/2 - 2, ... down to 0 (even df) or 1/2 (odd df), plus
    erfc(sqrt y) for odd df (Abramowitz and Stegun, section 26.4).  Every
    term is positive and formed in log space, so a tail past the float range
    is 0.0, not NaN.
    """
    if x <= 0:
        return 1.0
    y = x / 2
    log_y = math.log(y)
    terms = [math.exp(s * log_y - y - math.lgamma(s + 1))
             for s in (df / 2 - j for j in range(1, df // 2 + 1))]
    if df % 2:
        terms.append(math.erfc(math.sqrt(y)))
    return min(1.0, math.fsum(terms))  # rounded terms can sum to 1 + 2^-52

