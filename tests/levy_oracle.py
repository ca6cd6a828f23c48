"""The alternating Levy-binomial path, an exact oracle for the closed forms.

The decrement calculus gives q(n:m) = Phi(n:m) / Phi(n), with the Levy
binomial Phi(n:m) = C(n,m) sum_j (-1)^(j+1) C(m,j) Phi(n-m+j).  Its terms
alternate, so the sum cancels in floats (the float q row 40 at (1/2, 1)
sums to 13.2, with an entry of -985); with rational Levy data it is exact
and equals ``two_param_q`` entry by entry.
"""

from compstruct.laws import (DecrementMatrix, DecrementMatrixPair, LevySpec,
                             beta_meander, levy_exponent, meander_moments)
from compstruct.ratmath import binom


def levy_binomial(spec: LevySpec, n: int, m: int):
    """Phi(n:m) = C(n,m) sum_{j=0}^m (-1)^(j+1) C(m,j) Phi(n-m+j)."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got (n={n}, m={m})")
    total = 0
    for j in range(m + 1):
        term = binom(m, j) * levy_exponent(spec, n - m + j)
        total = total + (term if (j + 1) % 2 == 0 else -term)
    return binom(n, m) * total


def levy_stationary_pair(spec: LevySpec) -> DecrementMatrixPair:
    """q(n:m) = Phi(n:m)/Phi(n) and q*(n:m) = Psi(n:0) q(n:m) + Psi(n:m).

    Psi are the moments of the spec's own stationary meander,
    Beta(1-alpha, theta), so the pair needs a two-parameter tail.
    """
    law = beta_meander(spec.alpha, spec.theta)
    q = DecrementMatrix(f"q[{spec.label}]",
                        lambda n, m: levy_binomial(spec, n, m) / levy_exponent(spec, n))
    qstar = DecrementMatrix(f"q*[{law.label}]", lambda n, m: (
        meander_moments(law, n, 0) * q(n, m) + meander_moments(law, n, m)))
    return DecrementMatrixPair(q=q, qstar=qstar, label=f"levy[{spec.label}]")
