"""The enumerating consistency checks, an oracle for the code-indexed ones.

Each check walks the compositions of every level, builds the grown, appended
or ball-deleted ``Composition`` it compares with, and adds the values one at
a time in code order.  ``compstruct.verify`` and ``compstruct.structural``
compute the same sums on code-indexed levels; for every CPF the two give
reports whose strings are equal.  Ball deletion on compositions lives here,
with the oracle that is its only caller.
"""

from fractions import Fraction

from compstruct.composition import Composition, enumerate_compositions
from compstruct.ratmath import is_exact
from compstruct.structural import size_biased_part_law, structural_moments
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
