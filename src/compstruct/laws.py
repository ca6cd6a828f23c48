"""Exact probability laws on compositions.

Each composition probability function (CPF) is the product formula of a
decrement-matrix pair (q, q*): Bernoulli strings (Ewens), reversed and forward
discrete renewal, and the two-parameter self-similar Markov family.  The
decrement-matrix calculus connects the pairs to Levy data of regenerative sets.

Every formula here is a rational function of the parameters, so with
Fraction-valued parameters all identities can be checked bit-exactly.  Float
parameters switch the same code paths to float mode; the mode follows the
inputs, and no function takes a switch for it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from .composition import Composition, Partition, enumerate_compositions
from .ratmath import binom, factorial, is_exact, rising

__all__ = [
    "Cpf",
    "DecrementMatrix",
    "DecrementMatrixPair",
    "LevySpec",
    "MeanderLaw",
    "ewens_cpf",
    "ewens_pair",
    "renewal_cpf",
    "renewal_pair",
    "markov_cpf",
    "polya_q",
    "two_param_q",
    "two_param_levy",
    "beta_meander",
    "pure_drift_meander",
    "levy_exponent",
    "levy_exponent_exact",
    "levy_binomial",
    "meander_moments",
    "stationary_pair",
    "two_param_stationary_pair",
    "potential_from_levy",
    "upchain_transition",
    "sibi_cpf",
    "partition_law",
]


# ---------------------------------------------------------------------------
# CPF container


@dataclass(frozen=True)
class Cpf:
    """A law over compositions of every n, evaluable exactly or in floats.

    Each value is computed once per instance: ``evaluate`` must be a pure
    function of the composition, and ``__call__`` memoises its values by
    parts.  A table of n keeps 2^(n-1) values alive as long as the instance.
    """

    name: str
    evaluate: Callable[[Composition], object]
    max_n: int = 10 ** 9
    params: tuple = ()
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, comp: Composition):
        try:
            return self._memo[comp.parts]
        except KeyError:
            pass
        if comp.n > self.max_n:
            raise ValueError(f"{self.name}: n = {comp.n} beyond supported {self.max_n}")
        val = self._memo[comp.parts] = self.evaluate(comp)
        return val

    def table(self, n: int):
        """(composition, probability) pairs in deterministic code order."""
        return [(c, self(c)) for c in enumerate_compositions(n)]

    def float_probs(self, n: int):
        """Probabilities in code order as floats (for sampling/chi-square)."""
        return [float(self(c)) for c in enumerate_compositions(n)]


# ---------------------------------------------------------------------------
# Decrement matrices


class DecrementMatrix:
    """Rows q(n:r), 1 <= r <= n, of a decrement matrix; entries are cached."""

    def __init__(self, name: str, entry: Callable[[int, int], object]):
        self.name = name
        self._entry = entry
        self._cache = {}
        self._cdf = {}

    def __call__(self, n: int, r: int):
        if not 1 <= r <= n:
            raise ValueError(f"{self.name}: need 1 <= r <= n, got (n={n}, r={r})")
        key = (n, r)
        if key not in self._cache:
            self._cache[key] = self._entry(n, r)
        return self._cache[key]

    def row(self, n: int):
        return [self(n, r) for r in range(1, n + 1)]

    def row_sum(self, n: int):
        return sum(self.row(n))

    def cdf(self, n: int):
        """Cumulative float row n, checked to be a law once and then cached.

        A row with a negative or NaN entry, or whose sum is off 1 by more
        than 1e-9, raises ValueError on every use.  The array is read-only.
        """
        row = self._cdf.get(n)
        if row is None:
            import numpy as np

            probs = np.array([float(v) for v in self.row(n)])
            row = np.cumsum(probs)
            if not (probs >= 0).all() or not abs(row[-1] - 1.0) <= 1e-9:
                raise ValueError(f"{self.name} row {n} is not a probability vector: "
                                 f"min = {probs.min()}, sum = {row[-1]}")
            row.flags.writeable = False
            self._cdf[n] = row
        return row


@dataclass(frozen=True)
class DecrementMatrixPair:
    """Transition data (q, q*) of the decreasing chain in the product formula."""

    q: DecrementMatrix
    qstar: DecrementMatrix
    label: str = ""
    family: str = ""  # names the CPF (ewens, renewal, ...); else markov[label]


def _check_alpha_theta(alpha, theta):
    if not (0 <= alpha < 1 and theta > -alpha):
        raise ValueError(f"need 0 <= alpha < 1 and theta > -alpha, got {(alpha, theta)}")


def polya_q(alpha, theta) -> DecrementMatrix:
    """Polya-Eggenberger decrement matrix q_{alpha,theta}."""
    _check_alpha_theta(alpha, theta)

    def entry(n, r):
        num = binom(n - 1, r - 1) * rising(theta + alpha, n - r) * rising(1 - alpha, r - 1)
        den = rising(theta + 1, n - 1)
        return _div(num, den, alpha, theta)

    return DecrementMatrix(f"polya({alpha},{theta})", entry)


def two_param_q(alpha, theta) -> DecrementMatrix:
    """Decrement matrix of the (alpha, theta) regenerative composition."""
    if not (0 <= alpha < 1 and theta >= 0 and alpha + theta > 0):
        raise ValueError(
            f"need 0 <= alpha < 1, theta >= 0, alpha + theta > 0, got {(alpha, theta)}")
    return _two_param_q(alpha, theta)


def _two_param_q(alpha, theta) -> DecrementMatrix:
    def entry(n, r):
        if r == n and theta == 0:
            # theta -> 0 limit of the closed form (0/0 at face value)
            val = rising(1 - alpha, n - 1) / math.factorial(n - 1)
            return _div(val, 1, alpha, theta)
        if is_exact(alpha, theta):
            num = binom(n, r) * rising(1 - alpha, r - 1) * ((n - r) * alpha + r * theta)
            den = rising(theta + n - r, r) * n
            return Fraction(num, 1) / den
        # log-space keeps large rows finite (plain float products overflow
        # past r ~ 170)
        a, t = float(alpha), float(theta)
        log = (math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
               + math.lgamma(r - a) - math.lgamma(1 - a)
               + math.lgamma(t + n - r) - math.lgamma(t + n))
        return math.exp(log) * ((n - r) * a + r * t) / n

    return DecrementMatrix(f"two-param({alpha},{theta})", entry)


def _div(num, den, *params):
    if is_exact(num, den, *params):
        return Fraction(num, 1) / den
    return num / den


def markov_cpf(dm: DecrementMatrixPair, max_n: int = 10 ** 9) -> Cpf:
    """Product-formula CPF: p(lam) = q*(n:lam_l) prod_{k<l} q(Lam_k:lam_k).

    Every composition extending a prefix mu shares its head product
    H(mu) = prod_k q(M_k:mu_k), so H is memoised per prefix in this closure,
    H(mu) = H(mu minus its last part) q(|mu|:mu_last), and p(lam) =
    q*(n:lam_l) H(lam_1..lam_{l-1}).  A table of n then costs about 2^n
    multiplications.  Exact values are those of the plain left fold; float
    values may differ from it in the last bits.
    """
    return _product_cpf(dm, max_n=max_n)


def _product_cpf(dm: DecrementMatrixPair, params: tuple = (), max_n: int = 10 ** 9) -> Cpf:
    """``markov_cpf``, with the family's parameters as ``params``."""
    heads = {(): 1}

    def head(mu):
        # the longest memoised prefix of mu, extended one part at a time
        k = len(mu)
        while mu[:k] not in heads:
            k -= 1
        val, total = heads[mu[:k]], sum(mu[:k])
        for j in range(k, len(mu)):
            total += mu[j]
            val = val * dm.q(total, mu[j])
            heads[mu[:j + 1]] = val
        return val

    def ev(comp):
        return dm.qstar(comp.n, comp.last_part) * head(comp.parts[:-1])

    return Cpf(name=dm.family or f"markov[{dm.label or dm.q.name}]", evaluate=ev,
               max_n=max_n, params=params)


# ---------------------------------------------------------------------------
# Levy data


@dataclass(frozen=True)
class LevySpec:
    """Drift d and closed-form tail x -> nu~[x,1] of a Levy measure on (0,1].

    ``alpha``/``theta`` mark the tail x^(-alpha) (1-x)^theta; without them
    the spec is pure drift.  Rational data evaluate exactly, floats in float
    mode.
    """

    drift: object = 0
    alpha: Optional[object] = None
    theta: Optional[object] = None
    label: str = ""

    @property
    def is_two_param(self) -> bool:
        return self.alpha is not None

    @property
    def is_exact(self) -> bool:
        if self.is_two_param:
            return is_exact(self.alpha, self.theta, self.drift)
        return is_exact(self.drift)

    def log_moment(self) -> float:
        """m = int |log(1-x)| nu~(dx) = B(1-alpha, theta), 0 for pure drift (float)."""
        if not self.is_two_param:
            return 0.0
        from scipy.special import beta as beta_fn

        return float(beta_fn(1.0 - float(self.alpha), float(self.theta)))


def two_param_levy(alpha, theta) -> LevySpec:
    """Levy data with tail x^(-alpha) (1-x)^theta on (0,1]."""
    if not (0 <= alpha < 1 and theta > 0):
        raise ValueError(f"need 0 <= alpha < 1 and theta > 0, got {(alpha, theta)}")
    return LevySpec(drift=0, alpha=alpha, theta=theta, label=f"two-param({alpha},{theta})")


def levy_exponent(spec: LevySpec, s) -> float:
    """Levy exponent Phi(s) = d s + s B(1-alpha, s+theta) (float)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return 0.0
    integral = 0.0
    if spec.is_two_param:
        from scipy.special import beta as beta_fn

        integral = float(beta_fn(1.0 - float(spec.alpha), s + float(spec.theta)))
    return float(spec.drift) * s + s * integral


def levy_exponent_exact(spec: LevySpec, s: int) -> Fraction:
    """Exact Phi(s) under the m = 1 normalisation (only ratios are meaningful).

    For the closed-form tail, Phi(s)/m = s (theta)_s / (1-alpha+theta)_s.  For
    a pure-drift spec the absolute value d*s is returned.
    """
    if not spec.is_exact:
        raise ValueError("exact mode needs rational Levy data")
    if not spec.is_two_param:
        return Fraction(spec.drift) * s
    if spec.drift:
        raise ValueError("two-parameter spec with drift is not supported exactly")
    a, t = Fraction(spec.alpha), Fraction(spec.theta)
    return s * rising(t, s) / rising(1 - a + t, s)


def _phi(spec: LevySpec) -> Callable:
    """s -> Phi(s) in the spec's own mode: exact (m = 1) or float."""
    return partial(levy_exponent_exact if spec.is_exact else levy_exponent, spec)


def levy_binomial(spec: LevySpec, n: int, m: int):
    """Phi(n:m) = C(n,m) sum_{j=0}^m (-1)^(j+1) C(m,j) Phi(n-m+j)."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got (n={n}, m={m})")
    phi = _phi(spec)
    total = 0
    for j in range(m + 1):
        term = binom(m, j) * phi(n - m + j)
        total = total + (term if (j + 1) % 2 == 0 else -term)
    return binom(n, m) * total


# ---------------------------------------------------------------------------
# Meander laws (the stationary-delay distribution A_1 = 1 - exp(-X))


@dataclass(frozen=True)
class MeanderLaw:
    """Law of the meander length A_1, given by its joint moments.

    ``moment(a, b)`` returns E[A_1^a (1-A_1)^b]; ``atom`` is P(A_1 = 0);
    ``density`` (optional, float) is the density of the absolutely continuous
    part on (0, 1].
    """

    moment: Callable[[int, int], object]
    atom: object = 0
    density: Optional[Callable[[float], float]] = None
    label: str = ""


def beta_meander(alpha, theta) -> MeanderLaw:
    """A_1 ~ Beta(1-alpha, theta): the two-parameter stationary meander."""
    if not (0 <= alpha < 1 and theta > 0):
        raise ValueError(f"need 0 <= alpha < 1 and theta > 0, got {(alpha, theta)}")

    def moment(a, b):
        if is_exact(alpha, theta):
            return _div(rising(1 - alpha, a) * rising(theta, b),
                        rising(1 - alpha + theta, a + b))
        # log-space, as in two_param_q: the rising factorials overflow past
        # a + b ~ 170
        s, t = 1.0 - float(alpha), float(theta)
        return math.exp(math.lgamma(s + a) - math.lgamma(s) + math.lgamma(t + b)
                        - math.lgamma(t) - math.lgamma(s + t + a + b) + math.lgamma(s + t))

    def density(x):
        from scipy.special import beta as beta_fn

        a, t = float(alpha), float(theta)
        return x ** (-a) * (1.0 - x) ** (t - 1.0) / beta_fn(1.0 - a, t)

    return MeanderLaw(moment=moment, atom=0, density=density,
                      label=f"beta({1 - alpha},{theta})")


def pure_drift_meander(atom_mass=1) -> MeanderLaw:
    """Degenerate meander A_1 = 0 (heavy set driven by drift alone)."""

    def moment(a, b):
        return Fraction(1) if a == 0 else Fraction(0)

    return MeanderLaw(moment=moment, atom=atom_mass, density=None, label="drift-atom")


def meander_moments(law: MeanderLaw, n: int, m: int):
    """Psi(n:m) = C(n,m) E[A_1^m (1-A_1)^(n-m)]."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got (n={n}, m={m})")
    moment = law.moment(m, n - m)
    try:
        return binom(n, m) * moment
    except OverflowError:  # an int times a float, with C(n, m) past the float range
        raise ValueError(f"C({n},{m}) overflows a float: float meander moments "
                         f"need n <= 1029") from None


# ---------------------------------------------------------------------------
# Stationary pairs and potentials


def stationary_pair(spec: LevySpec, law: MeanderLaw,
                    N: Optional[int] = None) -> DecrementMatrixPair:
    """Decrement matrices q(n:m) = Phi(n:m)/Phi(n), q* = Psi(n:0) q + Psi(n:m).

    The meander law must be the stationary delay of ``spec``; this is checked
    through the potential identity E(1-A_1) = Phi(1)/(d+m).  The alternating
    Levy-binomial sums cancel in float mode (a float q row sums to 75.6 at
    n = 40), so this path is an exact oracle; the two-parameter family has
    the closed form ``two_param_stationary_pair``.
    """
    exact = spec.is_exact and is_exact(law.moment(0, 1))
    _check_stationary_consistency(spec, law, exact)
    phi = _phi(spec)

    def q_fn(n, m):
        return levy_binomial(spec, n, m) / phi(n)

    q = DecrementMatrix(f"q[{spec.label or 'levy'}]", q_fn)
    return _meander_pair(q, law, spec.label, N, exact)


def _meander_pair(q: DecrementMatrix, law: MeanderLaw, label: str,
                  N: Optional[int], exact: bool) -> DecrementMatrixPair:
    """Pair (q, q*) with q*(n:m) = Psi(n:0) q(n:m) + Psi(n:m).

    With ``N``, every row n <= N of both matrices must sum to 1 (exactly, or
    within 1e-9 in float mode).
    """
    psi0 = {}  # Psi(n:0), shared by the n entries of q* row n

    def qstar_fn(n, m):
        if n not in psi0:
            psi0[n] = meander_moments(law, n, 0)
        return psi0[n] * q(n, m) + meander_moments(law, n, m)

    qstar = DecrementMatrix(f"q*[{law.label or 'meander'}]", qstar_fn)
    pair = DecrementMatrixPair(q=q, qstar=qstar, label=f"stationary[{label}]")
    if N is not None:
        for n in range(1, N + 1):
            for m_ in (q, qstar):
                s = m_.row_sum(n)
                ok = s == 1 if exact else abs(s - 1.0) <= 1e-9
                if not ok:
                    raise ValueError(f"{m_.name} row {n} sums to {s}, not 1")
    return pair


def _check_stationary_consistency(spec: LevySpec, law: MeanderLaw, exact: bool):
    """E(1-A_1) must equal g(2) = Phi(1)/(d+m), exactly or within 1e-9."""
    lhs, rhs = law.moment(0, 1), potential_from_levy(spec, 2)
    if lhs != rhs if exact else abs(float(lhs) - float(rhs)) > 1e-9:
        raise ValueError(f"meander law inconsistent with Levy data: "
                         f"E(1-A_1) = {lhs} but Phi(1)/(d+m) = {rhs}")


def two_param_stationary_pair(alpha, theta, N: Optional[int] = None) -> DecrementMatrixPair:
    """Stationary pair of the (alpha, theta) family, exact for rational params.

    q is the closed-form regenerative matrix ``two_param_q`` (Gnedin and
    Pitman, Regenerative composition structures, Ann. Probab. 33, 2005) and
    q* comes from it through the Beta(1-alpha, theta) meander.  Equal to
    ``stationary_pair(two_param_levy(alpha, theta), beta_meander(alpha,
    theta))`` without the alternating Levy-binomial sums, whose float values
    cancel as n grows; float rows sum to 1 within about 1e-12 up to n = 1000
    (past n = 1029 a float q* row raises ``ValueError``).
    """
    law = beta_meander(alpha, theta)  # first: its range error is two_param_levy's
    return _meander_pair(two_param_q(alpha, theta), law, f"two-param({alpha},{theta})",
                         N, is_exact(alpha, theta))


def potential_from_levy(spec: LevySpec, j: int):
    """g(1) = 1; g(j) = Phi(j-1) / ((d+m)(j-1)) for j > 1.

    Exact for rational Levy data, with Phi under the m = 1 normalisation of
    ``levy_exponent_exact``; float otherwise.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if j == 1:
        return Fraction(1) if spec.is_exact else 1.0
    if spec.is_exact:
        dm = 1 if spec.is_two_param else spec.drift
    else:
        dm = float(spec.drift) + spec.log_moment()
    if dm == 0:
        raise ValueError("d + m = 0: potential undefined")
    return _phi(spec)(j - 1) / (dm * (j - 1))


def upchain_transition(q: DecrementMatrix, g: Callable[[int], object],
                       i: int, j: int):
    """Transition f(j|i) of the increasing chain: q(j-1:j-i) g(j) / g(i)."""
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got (i={i}, j={j})")
    gi = g(i)
    if not gi > 0:
        raise ValueError(f"zero potential g({i})")
    return q(j - 1, j - i) * g(j) / gi


# ---------------------------------------------------------------------------
# The Bernoulli-string and renewal families as decrement-matrix pairs.  The
# perfbench tracer wraps every public function, so the family CPFs call
# private builders and show as one span each (forward renewal also opens the
# stationary-pair spans).


def _ewens_pair(theta) -> DecrementMatrixPair:
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    q = _two_param_q(0, theta)
    return DecrementMatrixPair(q=q, qstar=q, label=f"ewens({theta})", family="ewens")


def _renewal_pair(alpha, reversed_) -> DecrementMatrixPair:
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if not reversed_:
        return replace(two_param_stationary_pair(alpha, alpha), family="renewal")
    q = _two_param_q(alpha, 0)
    return DecrementMatrixPair(q=q, qstar=q, label=f"renewal-reversed({alpha})",
                               family="renewal-reversed")


def ewens_pair(theta) -> DecrementMatrixPair:
    """Regenerative pair q = q* = ``two_param_q(0, theta)`` of the Ewens law."""
    return _ewens_pair(theta)


def renewal_pair(alpha, reversed_: bool = False) -> DecrementMatrixPair:
    """Renewal law: the stationary (alpha, alpha) pair, or reversed the
    regenerative pair q = q* = ``two_param_q(alpha, 0)``."""
    return _renewal_pair(alpha, reversed_)


def ewens_cpf(theta) -> Cpf:
    """Bernoulli-string CPF: p(lam) = theta^l n! / (theta)_n * prod 1/Lam_j."""
    return _product_cpf(_ewens_pair(theta), params=(theta,))


def renewal_cpf(alpha, reversed_: bool = False) -> Cpf:
    """Discrete-renewal CPF: p(lam) = lam_l alpha^(l-1) prod (1-alpha)_(lam_j-1)/lam_j!.

    With ``reversed_``, the law of the reversed composition.  The forward law
    is the inner factor of the identity in ``stochastic.fragment_cpf``.
    """
    return _product_cpf(_renewal_pair(alpha, reversed_), params=(alpha,))


# ---------------------------------------------------------------------------
# Size-biased arrangements of the two-parameter partition family


def sibi_cpf(alpha, theta) -> Cpf:
    """CPF of (alpha,theta) partitions arranged right-to-left size-biased.

    p^(lam) = prod_k q_{alpha, theta+(l-k)alpha}(Lam_k : lam_k).  Summed over
    the distinct arrangements of a partition it gives ``partition_law``.
    """
    _check_alpha_theta(alpha, theta)
    matrices = {}

    def q_at(shift):
        if shift not in matrices:
            matrices[shift] = polya_q(alpha, theta + shift * alpha)
        return matrices[shift]

    def ev(comp):
        ell = comp.num_parts
        sums = comp.partial_sums()
        val = Fraction(1) if is_exact(alpha, theta) else 1.0
        for k in range(1, ell + 1):
            val = val * q_at(ell - k)(sums[k - 1], comp.parts[k - 1])
        return val

    return Cpf(name="sibi", evaluate=ev, params=(alpha, theta))


def partition_law(alpha, theta, partition: Partition):
    """Probability pi_{alpha,theta}(lam) of the partition with parts lam.

    Pitman's two-parameter EPPF times the number of set partitions of [n]
    with block sizes lam (Pitman, Exchangeable and partially exchangeable
    random partitions, PTRF 102, 1995):

        n! / (prod lam_i! prod m_j!) * prod_{i=1}^{k-1} (theta + i alpha)
           * prod_i (1-alpha)_{lam_i - 1} / (theta + 1)_{n-1},

    with k parts and m_j parts of size j.  Exact for rational (alpha,
    theta); float parameters are evaluated in log space.
    """
    _check_alpha_theta(alpha, theta)
    exact = is_exact(alpha, theta)
    parts, n, k = partition.parts, partition.n, partition.num_parts
    if not parts:
        return Fraction(1) if exact else 1.0
    mults = Counter(parts).values()
    if exact:
        den = math.prod(factorial(p) for p in parts) * math.prod(factorial(m) for m in mults)
        val = Fraction(factorial(n) // den)
        for i in range(1, k):
            val *= theta + i * alpha
        for p in parts:
            val *= rising(1 - alpha, p - 1)
        return val / rising(theta + 1, n - 1)
    a, t = float(alpha), float(theta)
    log = (math.lgamma(n + 1) - sum(math.lgamma(p + 1) for p in parts)
           - sum(math.lgamma(m + 1) for m in mults)
           + sum(math.log(t + i * a) for i in range(1, k))
           + sum(math.lgamma(p - a) - math.lgamma(1 - a) for p in parts)
           - math.lgamma(t + n) + math.lgamma(t + 1))
    return math.exp(log)
