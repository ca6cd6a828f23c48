"""Consistency checkers and statistical test machinery.

Exact checks turn the consistency identities into pass/fail reports with a
reproducible worst-violation witness; chi-square and KS helpers gate the
Monte Carlo samplers against exact tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .composition import Composition, enumerate_compositions
from .laws import Cpf, DecrementMatrixPair
from .ratmath import is_exact
from .structural import last_part_law, size_biased_part_law, structural_moments

__all__ = [
    "CheckReport",
    "check_right_consistency",
    "check_left_consistency",
    "check_uniform_consistency",
    "check_decrement_recursions",
    "check_theorem_SL",
    "chi_square_gof",
    "ks_two_sample",
    "ks_against_cdf",
]

FLOAT_TOL = 1e-9


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


def _run_identity(name, scope, pairs, exact):
    """pairs yields (witness, lhs, rhs); collects worst violation."""
    worst = None
    worst_gap = 0
    for witness, lhs, rhs in pairs:
        gap = abs(lhs - rhs)
        if worst is None or gap > worst_gap:
            worst, worst_gap = (witness, lhs, rhs), gap
    tol = 0 if exact else FLOAT_TOL
    passed = worst is None or worst_gap <= tol
    return CheckReport(name=name, scope=scope, passed=passed,
                       worst=None if passed else worst,
                       mode="exact" if exact else "float")


def _cpf_is_exact(cpf: Cpf) -> bool:
    return is_exact(cpf(Composition((1,))), cpf(Composition((2,))))


def check_right_consistency(cpf: Cpf, n_max: int) -> CheckReport:
    """p(lam) = p(.., lam_l + 1) + p(.., lam_l, 1) for all |lam| < n_max."""

    def pairs():
        for n in range(1, n_max):
            for c in enumerate_compositions(n):
                grown = Composition(c.parts[:-1] + (c.last_part + 1,))
                appended = Composition(c.parts + (1,))
                yield c, cpf(c), cpf(grown) + cpf(appended)

    return _run_identity("right-consistency", f"{cpf.name}, n<{n_max}", pairs(),
                         _cpf_is_exact(cpf))


def check_left_consistency(cpf: Cpf, n_max: int) -> CheckReport:
    """p(lam) = p(lam_1 + 1, ..) + p(1, lam_1, ..) for all |lam| < n_max."""

    def pairs():
        for n in range(1, n_max):
            for c in enumerate_compositions(n):
                grown = Composition((c.parts[0] + 1,) + c.parts[1:])
                prepended = Composition((1,) + c.parts)
                yield c, cpf(c), cpf(grown) + cpf(prepended)

    return _run_identity("left-consistency", f"{cpf.name}, n<{n_max}", pairs(),
                         _cpf_is_exact(cpf))


def check_uniform_consistency(cpf: Cpf, n_max: int) -> CheckReport:
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
                    lam = mu.delete_ball(pos)
                    sums[lam] = sums.get(lam, 0) + p_mu * part
            for lam in enumerate_compositions(n - 1):
                yield lam, cpf(lam), sums.get(lam, 0) / n

    return _run_identity("uniform-consistency", f"{cpf.name}, n<={n_max}", pairs(),
                         _cpf_is_exact(cpf))


def check_decrement_recursions(dm: DecrementMatrixPair, n_max: int) -> CheckReport:
    """Entrywise recursions tying rows n and n+1 of q and q*."""
    exact = is_exact(dm.q(1, 1), dm.q(2, 1), dm.qstar(2, 1))

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
                         pairs(), exact)


def check_theorem_SL(cpf: Cpf, n_max: int) -> CheckReport:
    """Last-part law equals the size-biased part law r mu_{n,r}/n."""
    moments = structural_moments(cpf, n_max)

    def pairs():
        for n in range(1, n_max + 1):
            last = last_part_law(cpf, n)
            sized = size_biased_part_law(moments, n)
            for r in range(1, n + 1):
                yield (n, r), last[r - 1], sized[r - 1]

    return _run_identity("theorem-S=L", f"{cpf.name}, n<={n_max}", pairs(),
                         _cpf_is_exact(cpf))


# ---------------------------------------------------------------------------
# statistical gates


#: Cells expecting fewer counts than this are pooled by ``chi_square_gof``.
MIN_EXPECTED = 5.0


def chi_square_gof(counts: Sequence, expected_probs: Sequence):
    """Pearson statistic and p-value, pooling small-expectation cells.

    Cells with expected count below ``MIN_EXPECTED`` are pooled into a single
    'other' cell before computing the statistic.
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
    from scipy.special import chdtrc  # imports far faster than scipy.stats

    return stat, float(chdtrc(df, stat)), df


def ks_two_sample(xs: Sequence, ys: Sequence):
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("samples must be nonempty")
    from scipy.stats import ks_2samp

    res = ks_2samp(xs, ys)
    return float(res.statistic), float(res.pvalue)


def ks_against_cdf(xs: Sequence, cdf):
    if len(xs) == 0:
        raise ValueError("sample must be nonempty")
    from scipy.stats import kstest

    res = kstest(xs, cdf)
    return float(res.statistic), float(res.pvalue)
