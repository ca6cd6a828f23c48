"""Exact probability laws on compositions.

Each composition probability function (CPF) is the product formula of a
decrement-matrix pair (q, q*): Bernoulli strings (Ewens), reversed and forward
discrete renewal, and the two-parameter self-similar Markov family.  Each
stationary pair has one construction, the closed form of its family; the Levy
exponent and the potential it determines read the same (alpha, theta) data.

Every closed form here is a ratio of rising factorials, evaluated by
``ratmath.rising_ratio``: with Fraction-valued parameters all identities can
be checked bit-exactly, and float parameters switch the same expressions to
float mode, computed in log space.  The mode follows the inputs, and no
function takes a switch for it.  The Levy exponent has one normalisation in
both modes, m = 1.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .composition import Composition, Partition, _codes, enumerate_compositions
from .ratmath import (FLOAT_TOL, _over_lcm, _rising_num, binom, factorial, is_exact,
                      rising_ratio)

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
    "fragment_cpf",
    "polya_q",
    "two_param_q",
    "two_param_levy",
    "beta_meander",
    "levy_exponent",
    "meander_moments",
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

    ``level(n)`` is the law at n in code order (index i holds code 2^(n-1) + i):
    int nums over one int den if every value is rational, else (values, None).
    It is built once, by ``build`` or else by ``evaluate`` on each code.
    """

    name: str
    evaluate: Optional[Callable[[Composition], object]]
    build: Optional[Callable[[int], tuple]] = field(default=None, compare=False)
    _levels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, comp: Composition):
        """One value: ``evaluate(comp)``, or without ``evaluate`` read off its level."""
        if self.evaluate is not None:
            return self.evaluate(comp)
        nums, den = self.level(comp.n)
        v = nums[comp.code - (1 << (comp.n - 1))]
        return v if den is None else Fraction(v, den)

    def level(self, n: int) -> tuple:
        """(nums, den) of level n, for n <= ``MAX_ENUM_N``."""
        if n not in self._levels:
            _codes(n)  # refuses n past the cap
            nums, den = self.build(n) if self.build else (
                [self.evaluate(c) for c in enumerate_compositions(n)], None)
            if den is None:
                nums, den = _over_lcm(nums) or (nums, None)
            self._levels[n] = tuple(nums), den
        return self._levels[n]

    def values(self, n: int) -> list:
        """Level n read as values: Fractions over its den, or as they are."""
        nums, den = self.level(n)
        return list(nums) if den is None else [Fraction(x, den) for x in nums]

    def table(self, n: int):
        """(composition, probability) pairs in deterministic code order."""
        return list(zip(enumerate_compositions(n), self.values(n)))

    def float_probs(self, n: int):
        """Probabilities in code order as floats (for sampling/chi-square)."""
        nums, den = self.level(n)  # int / int rounds as float(Fraction) does
        return [float(v) for v in nums] if den is None else [x / den for x in nums]


# ---------------------------------------------------------------------------
# Decrement matrices


class DecrementMatrix:
    """Rows q(n:r), 1 <= r <= n, of a decrement matrix; entries are cached."""

    def __init__(self, name: str, entry: Callable[[int, int], object]):
        self.name = name
        self._entry = entry
        self._cache = {}
        self._floats = {}

    def __call__(self, n: int, r: int):
        if not 1 <= r <= n:
            raise ValueError(f"{self.name}: need 1 <= r <= n, got (n={n}, r={r})")
        key = (n, r)
        if key not in self._cache:
            self._cache[key] = self._entry(n, r)
        return self._cache[key]

    def row(self, n: int):
        return [self(n, r) for r in range(1, n + 1)]

    def float_row(self, n: int):
        """Float row n, checked to be a law once and then cached.

        A row with a negative or NaN entry, or whose left-to-right sum is off
        1 by more than ``FLOAT_TOL``, raises ValueError on every use.  The array is
        read-only.
        """
        row = self._floats.get(n)
        if row is None:
            import numpy as np

            row = np.array([float(v) for v in self.row(n)])
            total = np.cumsum(row)[-1]  # sequential, not numpy's pairwise sum
            if not (row >= 0).all() or not abs(total - 1.0) <= FLOAT_TOL:
                raise ValueError(f"{self.name} row {n} is not a probability vector: "
                                 f"min = {row.min()}, sum = {total}")
            row.flags.writeable = False
            self._floats[n] = row
        return row


@dataclass(frozen=True)
class DecrementMatrixPair:
    """Transition data (q, q*) of the decreasing chain in the product formula."""

    q: DecrementMatrix
    qstar: DecrementMatrix
    label: str = ""
    family: str = ""  # names the CPF (ewens, renewal, ...); else markov[label]

    @property
    def cpf_name(self) -> str:
        return self.family or f"markov[{self.label or self.q.name}]"


def _check_params(ok: bool, need: str, *params):
    """Range check of a family's parameters, which must also be finite."""
    shown = params[0] if len(params) == 1 else params
    if any(isinstance(p, float) and not math.isfinite(p) for p in params):
        raise ValueError(f"parameters must be finite, got {shown}")
    if not ok:
        raise ValueError(f"{need}, got {shown}")


def _check_alpha_theta(alpha, theta):
    _check_params(0 <= alpha < 1 and theta > -alpha,
                  "need 0 <= alpha < 1 and theta > -alpha", alpha, theta)


def polya_q(alpha, theta) -> DecrementMatrix:
    """Polya-Eggenberger decrement matrix q_{alpha,theta}.

    q(n:r) = C(n-1,r-1) (theta+alpha)_{n-r} (1-alpha)_{r-1} / (theta+1)_{n-1};
    float rows stay laws past the overflow of the rising factorials.
    """
    _check_alpha_theta(alpha, theta)
    up, down, total = theta + alpha, 1 - alpha, theta + 1

    def entry(n, r):
        return rising_ratio(((up, n - r), (down, r - 1)), ((total, n - 1),), binom(n - 1, r - 1))

    return DecrementMatrix(f"polya({alpha},{theta})", entry)


def two_param_q(alpha, theta) -> DecrementMatrix:
    """Decrement matrix of the (alpha, theta) regenerative composition."""
    _check_params(0 <= alpha < 1 and theta >= 0 and alpha + theta > 0,
                  "need 0 <= alpha < 1, theta >= 0, alpha + theta > 0", alpha, theta)
    return _two_param_q(alpha, theta)


def _two_param_q(alpha, theta) -> DecrementMatrix:
    # q(n:r) = C(n,r) (1-alpha)_{r-1} / (theta+n-r)_r * ((n-r) alpha + r theta) / n.
    # Split off the first factor of (theta+n-r)_r: the rest is
    # ((n-r) alpha + r theta) / (n (theta+n-r)), which is 1 at r = n, also in
    # the theta -> 0 limit where it reads 0/0.  For r < n and alpha = a/v,
    # theta = c/d rational, the entry is one int ratio, reduced once.
    exact = is_exact(alpha, theta)
    if exact:
        a, v, c, d = alpha.numerator, alpha.denominator, theta.numerator, theta.denominator

    def entry(n, r):
        if exact and r < n:
            top = (binom(n, r) * _rising_num(v - a, v, r - 1)
                   * ((n - r) * a * d + r * c * v) * d ** (r - 1))
            return Fraction(top, n * v ** r * _rising_num(c + (n - r) * d, d, r))
        val = rising_ratio(((1 - alpha, r - 1),), ((theta + n - r + 1, r - 1),), binom(n, r))
        if r == n:
            return val
        return val * ((n - r) * alpha + r * theta) / (n * (theta + n - r))

    return DecrementMatrix(f"two-param({alpha},{theta})", entry)


def markov_cpf(dm: DecrementMatrixPair) -> Cpf:
    """Product-formula CPF: p(lam) = q*(n:lam_l) prod_{k<l} q(Lam_k:lam_k).

    A call reads q*(n:lam_l), then folds the head product left to right.  A
    level extends each head once: code c has last part r = (c & -c).bit_length()
    and head c >> r.  Rational rows m go over their lcms D_m, so the level is
    ints over D_1 ... D_{n-1} D*_n; a float keeps the raw entries and order.
    """
    return _product_cpf(dm)


def _product_cpf(dm: DecrementMatrixPair) -> Cpf:
    """``markov_cpf`` for the family CPFs, which call no public function."""

    def ev(comp):
        val, head, total = dm.qstar(comp.n, comp.last_part), 1, 0
        for part in comp.parts[:-1]:
            total += part
            head = head * dm.q(total, part)
        return val * head

    def build(n):
        top = dm.qstar.row(n)  # first: a missing q* row is the error a call gives
        rows = [dm.q.row(m) for m in range(1, n)] + [top]
        ints = [_over_lcm(row) for row in rows]
        exact = None not in ints
        heads, prods = [1], [1]  # heads by code, 0 the empty one; prods D_1 ... D_k
        for m, row in enumerate(rows, start=1):
            if exact:  # a head of total m - r grows by r and gains D_{m-r+1} ... D_m
                nums, d = ints[m - 1]
                row = [x * (prods[-1] // prods[m - r]) for r, x in enumerate(nums, start=1)]
                prods.append(prods[-1] * d)
            for c in range(1 << (m - 1), 1 << m):
                r = (c & -c).bit_length()
                heads.append(heads[c >> r] * row[r - 1])
        return heads[1 << (n - 1):], prods[-1] if exact else None

    return Cpf(name=dm.cpf_name, evaluate=ev, build=build)


def fragment_cpf(outer: DecrementMatrixPair, inner: Cpf) -> Cpf:
    """CPF of ``outer`` with each part split by an independent ``inner`` composition.

    The product formula of ``outer`` factorises over the segment boundaries:
    F(0) = 1, F(j) = sum_{i<j} F(i) q(Lam_j : Lam_j - Lam_i) inner(lam_{i+1..j})
    and p''(lam) = sum_{i<l} F(i) q*(n : n - Lam_i) inner(lam_{i+1..l}).  A
    boundary is a 1 digit of the code: F is read off its own levels at the
    digits above it, inner at the digits from it down, and the terms are
    summed in the order of i.  A level of n costs about n 2^n terms.

    For 0 < alpha < 1 and alpha < theta, fragmenting ``ewens_pair(theta -
    alpha)`` by the forward ``renewal_cpf(alpha)`` gives the stationary
    (alpha, theta) law (Pitman's coagulation-fragmentation duality
    PD(alpha, theta - alpha) = Frag_{PD(alpha, 0)} PD(0, theta - alpha)).
    """
    if not isinstance(outer, DecrementMatrixPair):
        raise TypeError(f"outer must be a DecrementMatrixPair, got {type(outer).__name__}")

    def boundary_level(n, matrix):
        row = [None] + matrix.row(n)  # row[m] = matrix(n : m), m balls past the boundary
        heads = [1] + [v for k in range(1, n) for v in prefix.values(k)]  # by code
        tails = [None] + [v for m in range(1, n + 1) for v in inner.values(m)]
        nums = []
        for c in _codes(n):
            total, rest = 0, c
            while rest:
                m = rest.bit_length()  # a part starts at digit m - 1
                total = total + heads[c >> m] * row[m] * tails[c & ((1 << m) - 1)]
                rest ^= 1 << (m - 1)
            nums.append(total)
        return nums, None

    prefix = Cpf("F", None, build=lambda n: boundary_level(n, outer.q))
    return Cpf(f"fragment[{outer.cpf_name}|{inner.name}]", None,
               build=lambda n: boundary_level(n, outer.qstar))


# ---------------------------------------------------------------------------
# Levy data


@dataclass(frozen=True)
class LevySpec:
    """Drift d or closed-form tail x -> nu~[x,1] of a Levy measure on (0,1].

    ``alpha``/``theta`` mark the tail x^(-alpha) (1-x)^theta; without them
    the spec is pure drift.  A spec with both a drift and a tail, or with a
    negative or non-finite drift, is refused.  Rational data evaluate exactly
    (an int drift is stored as a Fraction), floats in float mode.
    """

    drift: object = 0
    alpha: Optional[object] = None
    theta: Optional[object] = None
    label: str = ""

    def __post_init__(self):
        _check_params(self.drift >= 0, "the drift must be >= 0", self.drift)
        if self.is_two_param and self.drift != 0:
            raise ValueError(f"a Levy spec has a drift or a tail, not both: "
                             f"drift = {self.drift}, tail ({self.alpha}, {self.theta})")
        if isinstance(self.drift, int):
            object.__setattr__(self, "drift", Fraction(self.drift))

    @property
    def is_two_param(self) -> bool:
        return self.alpha is not None


def two_param_levy(alpha, theta) -> LevySpec:
    """Levy data with tail x^(-alpha) (1-x)^theta on (0,1]."""
    _check_params(0 <= alpha < 1 and theta > 0, "need 0 <= alpha < 1 and theta > 0",
                  alpha, theta)
    return LevySpec(alpha=alpha, theta=theta, label=f"two-param({alpha},{theta})")


def _exponent_slope(spec: LevySpec, s):
    """Phi(s)/s: d for pure drift, (theta)_s / (1-alpha+theta)_s for the tail."""
    if not spec.is_two_param:
        return spec.drift
    return rising_ratio(((spec.theta, s),), ((1 - spec.alpha + spec.theta, s),))


def levy_exponent(spec: LevySpec, s):
    """Levy exponent Phi(s) = d s + s (theta)_s / (1-alpha+theta)_s.

    The tail is normalised to m = int |log(1-x)| nu~(dx) = 1 (its raw m is
    B(1-alpha, theta)), in both modes; only ratios of Phi carry meaning for a
    tail, and the decrement matrices and potentials are such ratios.  Exact
    for rational data and an integer s (a rational tail with another s is a
    ValueError); float data take any real s >= 0.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    exact_tail = spec.is_two_param and is_exact(spec.alpha, spec.theta)
    if exact_tail and not isinstance(s, numbers.Integral):
        raise ValueError(f"an exact Levy exponent needs an integer s, got s = {s}")
    return s * _exponent_slope(spec, s)


# ---------------------------------------------------------------------------
# Meander laws (the stationary-delay distribution A_1 = 1 - exp(-X))


@dataclass(frozen=True)
class MeanderLaw:
    """Law of the meander length A_1, given by its joint moments.

    ``moment(a, b)`` returns E[A_1^a (1-A_1)^b], exact for rational data;
    the q* rows read A_1 only through these moments.
    """

    moment: Callable[[int, int], object]
    label: str = ""


def beta_meander(alpha, theta) -> MeanderLaw:
    """A_1 ~ Beta(1-alpha, theta): the two-parameter stationary meander.

    E[A_1^a (1-A_1)^b] = (1-alpha)_a (theta)_b / (1-alpha+theta)_{a+b},
    exact for rational (alpha, theta) and a float otherwise.
    """
    _check_params(0 <= alpha < 1 and theta > 0, "need 0 <= alpha < 1 and theta > 0",
                  alpha, theta)

    def moment(a, b):
        return rising_ratio(((1 - alpha, a), (theta, b)), ((1 - alpha + theta, a + b),))

    return MeanderLaw(moment=moment, label=f"beta({1 - alpha},{theta})")


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


def two_param_stationary_pair(alpha, theta) -> DecrementMatrixPair:
    """Stationary pair of the (alpha, theta) family, exact for rational params.

    q is the closed-form regenerative matrix ``two_param_q`` and q* the
    Polya matrix ``polya_q(alpha, theta - alpha)`` (Gnedin and Pitman,
    Regenerative composition structures, Ann. Probab. 33, 2005).  It equals
    q*(n:m) = Psi(n:0) q(n:m) + Psi(n:m) with Psi the moments of the
    Beta(1-alpha, theta) meander, which the tests keep as its reference.
    Every term is positive and float rows are evaluated in log space, so
    they stay laws past the overflow of the rising factorials and binomials.
    A float theta so small that theta - alpha rounds to -alpha is refused.
    """
    _check_params(0 <= alpha < 1 and theta > 0, "need 0 <= alpha < 1 and theta > 0",
                  alpha, theta)
    return DecrementMatrixPair(q=two_param_q(alpha, theta), qstar=polya_q(alpha, theta - alpha),
                               label=f"stationary[two-param({alpha},{theta})]")


def potential_from_levy(spec: LevySpec, j: int):
    """g(j) = Phi(j-1) / ((d+m)(j-1)), with g(1) = 1 its limit.

    With Phi under the m = 1 normalisation of ``levy_exponent``, d + m is
    the drift d of a pure-drift spec and 1 for a tail.  Exact for rational
    Levy data, float otherwise.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    d_plus_m = spec.drift + (1 if spec.is_two_param else 0)
    if d_plus_m == 0:
        raise ValueError("d + m = 0: potential undefined")
    return _exponent_slope(spec, j - 1) / d_plus_m


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
    _check_params(theta > 0, "theta must be positive", theta)
    q = _two_param_q(0, theta)
    return DecrementMatrixPair(q=q, qstar=q, label=f"ewens({theta})", family="ewens")


def _renewal_pair(alpha, reversed_) -> DecrementMatrixPair:
    _check_params(0 < alpha < 1, "alpha must be in (0,1)", alpha)
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
    return _product_cpf(_ewens_pair(theta))


def renewal_cpf(alpha, reversed_: bool = False) -> Cpf:
    """Discrete-renewal CPF: p(lam) = lam_l alpha^(l-1) prod (1-alpha)_(lam_j-1)/lam_j!.

    With ``reversed_``, the law of the reversed composition.  The forward law
    is the inner factor of the identity in ``fragment_cpf``.
    """
    return _product_cpf(_renewal_pair(alpha, reversed_))


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
        return math.prod(q_at(ell - k)(sums[k - 1], comp.parts[k - 1])
                         for k in range(1, ell + 1))

    return Cpf(name="sibi", evaluate=ev)


def partition_law(alpha, theta, partition: Partition):
    """Probability pi_{alpha,theta}(lam) of the partition with parts lam.

    Pitman's two-parameter EPPF times the number of set partitions of [n]
    with block sizes lam (Pitman, Exchangeable and partially exchangeable
    random partitions, PTRF 102, 1995):

        n! / (prod lam_i! prod m_j!) * prod_{i=1}^{k-1} (theta + i alpha)
           * prod_i (1-alpha)_{lam_i - 1} / (theta + 1)_{n-1},

    with k parts and m_j parts of size j.  Exact for rational (alpha,
    theta); in float mode the rising factorials are evaluated in log space.
    """
    _check_alpha_theta(alpha, theta)
    parts, n = partition.parts, partition.n
    den = math.prod(factorial(p) for p in parts)
    den *= math.prod(factorial(m) for m in Counter(parts).values())
    # theta + i alpha > 0 for i >= 1, as (theta + i alpha)_1
    num = tuple((theta + i * alpha, 1) for i in range(1, len(parts)))
    num += tuple((1 - alpha, p - 1) for p in parts)
    # (theta + 1)_{n-1}; the empty partition (n = 0) has probability 1
    return rising_ratio(num, ((theta + 1, max(n - 1, 0)),), factorial(n) // den)
