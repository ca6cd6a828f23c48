"""Structural-distribution machinery and moment-based reconstruction.

The structural distribution is the law of the length V of the interval
containing an independent uniform point.  Its moments p(n) = E V^(n-1) are
read off a CPF at the one-part composition, and drive expected block counts,
deletion-size laws, potential functions, and the reconstruction of a
self-similar Markov CPF from its moments alone.

Block counts and potentials read the moments through one alternating
binomial sum, ``_mixed_moment``; it cancels catastrophically in floats.
Rational moments enter it as ints over one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .composition import Composition
from .laws import Cpf, DecrementMatrix, DecrementMatrixPair, markov_cpf
from .ratmath import _over_lcm, binom, close, is_exact

__all__ = [
    "StructuralMoments",
    "structural_moments",
    "block_count_row",
    "expected_num_parts",
    "potential_from_cpf",
    "deletion_law",
    "last_part_law",
    "size_biased_part_law",
    "ReconstructionError",
    "reconstruct_markov",
]


@dataclass(frozen=True)
class StructuralMoments:
    """p(1..N) with p(n) = E V^(n-1) and p(1) ``close`` to 1."""

    p: tuple

    def __post_init__(self):
        if not close(self.p[0] if self.p else 0, 1):
            raise ValueError("moment sequence must start with p(1) = 1")

    def __call__(self, n: int):
        if not 1 <= n <= len(self.p):
            raise ValueError(f"moment p({n}) not available (have 1..{len(self.p)})")
        return self.p[n - 1]

    @property
    def max_n(self) -> int:
        return len(self.p)


def structural_moments(cpf: Cpf, N: int) -> StructuralMoments:
    """p(n) = cpf((n)): probability the n-ball composition has a single part."""
    return StructuralMoments(tuple(cpf(Composition((n,))) for n in range(1, N + 1)))


def _mixed_moment(p: Sequence, a: int, b: int):
    """E[V^a (1-V)^b] = sum_j (-1)^j C(b,j) p(a+j+1) over p = p(1), p(2), ...

    The one alternating sum, added in order of j: ints over the lcm of
    rational moments, or the raw values otherwise.
    """
    total = 0
    for j in range(b + 1):
        term = binom(b, j) * p[a + j]
        total = total + (term if j % 2 == 0 else -term)
    return total


def _moments_upto(moments: StructuralMoments, n: int):
    """(p(1..n), D): int nums over their lcm D if rational, else the values and None."""
    if n > moments.max_n:
        raise ValueError(f"need moments up to p({n})")
    return _over_lcm(moments.p[:n]) or (moments.p[:n], None)


def block_count_row(moments: StructuralMoments, n: int) -> list:
    """mu_{n,r} = E K_{n,r} = C(n,r) E[V^(r-1) (1-V)^(n-r)], r = 1..n."""
    p, den = _moments_upto(moments, n)
    row = [binom(n, r) * _mixed_moment(p, r - 1, n - r) for r in range(1, n + 1)]
    return row if den is None else [Fraction(x, den) for x in row]


def expected_num_parts(moments: StructuralMoments, n: int):
    """mu_n = E K_n."""
    return sum(block_count_row(moments, n))


def potential_from_cpf(moments: StructuralMoments, j: int):
    """g(j) = E (1-V)^(j-1), expanded in the structural moments."""
    p, den = _moments_upto(moments, j)
    g = _mixed_moment(p, 0, j - 1)
    return g if den is None else Fraction(g, den)


def deletion_law(mu_row_n: Sequence, mu_row_prev: Sequence) -> list:
    """Size law omega_{n,r} of the box hit by the removed ball (Lemma-style).

    omega_{n,n} = mu_{n,n} and omega_{n,r} = omega_{n,r+1} + mu_{n,r} -
    mu_{n-1,r}, filled descending in r.  A negative intermediate signals that
    the two block-count rows do not come from a single-ball coupling.
    """
    n = len(mu_row_n)
    if len(mu_row_prev) != n - 1:
        raise ValueError("rows must be for n and n-1")
    omega = [None] * n
    omega[n - 1] = mu_row_n[n - 1]
    for r in range(n - 1, 0, -1):
        omega[r - 1] = omega[r] + mu_row_n[r - 1] - mu_row_prev[r - 1]
    eps = 0 if is_exact(*mu_row_n) else 1e-12
    if any(w < -eps for w in omega):
        raise ValueError(f"inconsistent block-count rows: negative omega in {omega}")
    return omega


def last_part_law(cpf: Cpf, n: int) -> list:
    """P(L_n = r), r = 1..n, summed over level n in code order.

    The last part of code c is (c & -c).bit_length().  A rational level sums
    its int nums, each sum reduced once as s / D.
    """
    nums, den = cpf.level(n)
    law = [0] * n
    for c, w in enumerate(nums, start=1 << (n - 1)):
        law[(c & -c).bit_length() - 1] += w
    return law if den is None else [Fraction(s, den) for s in law]


def size_biased_part_law(moments: StructuralMoments, n: int) -> list:
    """P(P_n = r) = r mu_{n,r} / n: the size-biased part-size law."""
    p, den = _moments_upto(moments, n)
    if den is None:  # p(1..n) holds a float
        return [r * v / n for r, v in enumerate(block_count_row(moments, n), start=1)]
    return [Fraction(r * binom(n, r) * _mixed_moment(p, r - 1, n - r), n * den)
            for r in range(1, n + 1)]


class ReconstructionError(ValueError):
    """Moments do not come from a self-similar Markov composition structure."""


def reconstruct_markov(moments: StructuralMoments):
    """Recover (q, q*) and the CPF from structural moments p(1..N+1).

    Valid for self-similar Markov structures: q*(n:r) = r mu_{n,r}/n, and q is
    solved from the q* recursion of the decreasing chain.  The output is
    validated (row sums, nonnegativity); failures raise ReconstructionError
    rather than returning a non-law.
    """
    N = moments.max_n - 1
    if N < 1:
        raise ValueError("need at least p(1..2)")
    exact = is_exact(*moments.p)
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    qstar_rows = {n: size_biased_part_law(moments, n) for n in range(1, N + 2)}
    one_block = all(close(p, 1) for p in moments.p)

    q_rows = {1: [one]}
    if one_block:
        # degenerate single-block law: q* is a point mass at r = n and the
        # interior chain never moves, so no q solve is needed
        for n in range(2, N + 1):
            q_rows[n] = [zero] * (n - 1) + [one]
    else:
        for n in range(1, N + 1):
            up, pivot = qstar_rows[n + 1], qstar_rows[n + 1][0]
            if pivot == 0 or (not exact and abs(pivot) < 1e-15):
                raise ReconstructionError(
                    f"q*({n + 1}:1) = 0: no singleton mass, q is not solvable")
            q_rows[n] = [(qstar_rows[n][r - 1] - Fraction(r + 1, n + 1) * up[r]
                          - Fraction(n + 1 - r, n + 1) * up[r - 1]) * (n + 1) / pivot
                         for r in range(1, n + 1)]

    for n, row in list(q_rows.items()) + [(n, qstar_rows[n]) for n in qstar_rows]:
        s = sum(row)
        if (exact and (s != 1 or any(v < 0 for v in row))) or (
                not exact and (abs(s - 1) > 1e-8 or any(v < -1e-10 for v in row))):
            raise ReconstructionError(
                f"reconstructed row {n} is not a probability vector: {row}")

    def q_entry(n, r):
        try:
            return q_rows[n][r - 1]
        except KeyError:
            raise ValueError(f"reconstructed q only covers n <= {N}") from None

    def qstar_entry(n, r):
        try:
            return qstar_rows[n][r - 1]
        except KeyError:
            raise ValueError(f"reconstructed q* only covers n <= {N + 1}") from None

    pair = DecrementMatrixPair(q=DecrementMatrix("q[reconstructed]", q_entry),
                               qstar=DecrementMatrix("q*[reconstructed]", qstar_entry),
                               label="reconstructed")
    return pair, markov_cpf(pair)
