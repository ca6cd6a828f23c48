"""Randomised constructions: string laws grown ball by ball, the
scale-invariant Poisson set and its two sampling constructions, and the
size-biased arrangement of partitions.

Each sampled law has one vectorised numpy kernel that draws many
compositions at once from an ``np.random.Generator`` and returns them as
integer binary codes (MSB = first digit).  The five composition laws share
one kernel that grows a composition ball by ball; each law supplies only
the probability that the next ball opens a new part: a hazard table for the
right-consistent string laws (Ewens, forward renewal, Markov product form),
a Renyi gap or a Poisson window for the two set constructions.  The first m
digits of a draw at n are the draw at m, so one row samples the whole
sequence C_1, ..., C_n.  The ``batch_*`` functions run a kernel on a seeded
:class:`RngStream`.  One lazy :class:`ScaleInvariantSet` is the op-level
reference for both set constructions:
``uniform_sampling_composition(sset, n, rng)`` reads its gaps,
``poisson_sampling_composition(sset, n, rng)`` its atoms.
"""

from __future__ import annotations

import bisect
import collections
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .composition import MAX_ENUM_N, Composition, enumerate_partitions
from .laws import DecrementMatrixPair, _check_alpha_theta, _check_params, partition_law
from .ratmath import FLOAT_TOL

__all__ = [
    "RngStream",
    "ScaleInvariantSet",
    "uniform_sampling_composition",
    "poisson_sampling_composition",
    "batch_ewens_strings",
    "batch_renewal_strings",
    "batch_markov_compositions",
    "batch_uniform_construction",
    "batch_poisson_construction",
    "batch_arrangements",
    "sample_partition_batch",
    "codes_to_counts",
]


@dataclass(frozen=True)
class RngStream:
    """Seeded random source; distinct stream ids give independent streams."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)

    def kernel_seed(self, salt: int = 0) -> int:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, salt))
        return int(ss.generate_state(1)[0])


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)}")


# ---------------------------------------------------------------------------
# the scale-invariant Poisson set and its two sampling constructions


class ScaleInvariantSet:
    """Lazy atom set S of the scale-invariant Poisson process PPP(theta dx/x).

    In log coordinates the atoms form a homogeneous rate-theta Poisson
    process on the line; downward atoms exp(-Gamma_k) < 1 and upward atoms
    exp(+Gamma'_k) > 1 are generated on demand, so queries are never affected
    by truncation.
    """

    def __init__(self, theta, rng):
        _check_theta(theta)
        self.theta = float(theta)
        self._rng = _as_rng(rng)
        self._down: List[float] = []   # increasing partial sums Gamma_k
        self._up: List[float] = []     # increasing partial sums Gamma'_k

    def _extend(self, sums: List[float], limit: float):
        # draw atoms until one lies beyond limit
        while not sums or sums[-1] <= limit:
            sums.append((sums[-1] if sums else 0.0) + self._rng.exponential(1.0 / self.theta))

    def has_atom_in(self, a: float, b: float) -> bool:
        """Whether the atom set meets the compact interval [a, b], 0 < a <= b."""
        if not 0 < a <= b:
            raise ValueError(f"need 0 < a <= b, got [{a}, {b}]")
        lo, hi = math.log(a), math.log(b)
        # some Gamma_k in [max(-hi, 0), -lo] or some Gamma'_k in [max(lo, 0), hi]
        for sums, start, end in ((self._down, max(-hi, 0.0), -lo),
                                 (self._up, max(lo, 0.0), hi)):
            if end > 0:
                self._extend(sums, end)
                if sums[bisect.bisect_left(sums, start)] <= end:
                    return True
        return False

    def gap(self, u: float) -> tuple:
        """The gap (exp(-Gamma_{k+1}), exp(-Gamma_k)) of S in [0, 1] that
        contains u in (0, 1], with Gamma_0 = 0; ``gap(1.0)`` is the meander."""
        if not 0 < u <= 1:
            raise ValueError(f"need 0 < u <= 1, got {u}")
        depth = -math.log(u)
        self._extend(self._down, depth)
        k = bisect.bisect_right(self._down, depth)
        return math.exp(-self._down[k]), math.exp(-self._down[k - 1]) if k else 1.0


def uniform_sampling_composition(sset: ScaleInvariantSet, n: int, rng) -> Composition:
    """Sizes of the groups of n uniforms on (0, 1] sharing a gap, left to right."""
    _check_params(n >= 1, "n must be >= 1", n)
    g = _as_rng(rng)
    counts = collections.Counter(sset.gap(u) for u in 1.0 - g.random(n))
    return Composition(tuple(counts[gap] for gap in sorted(counts)))


def poisson_sampling_composition(sset: ScaleInvariantSet, n: int, rng) -> Composition:
    """Digits xi_j = 1(S meets [eps_{j-1}, eps_j]) for rate-1 Poisson arrivals."""
    _check_params(n >= 1, "n must be >= 1", n)
    g = _as_rng(rng)
    eps = np.cumsum(g.exponential(1.0, size=n))
    bits = ["1"]
    for j in range(1, n):
        bits.append("1" if sset.has_atom_in(eps[j - 1], eps[j]) else "0")
    return Composition.from_binary("".join(bits))


# ---------------------------------------------------------------------------
# sampling kernels: one per law, (draws,) int64 codes from a Generator

MAX_CODE_N = 63  # the code of a composition of n has its top bit at n - 1


def _check_size(n, draws):
    if not 1 <= n <= MAX_CODE_N:
        raise ValueError(f"need 1 <= n <= {MAX_CODE_N} for int64 composition codes, "
                         f"got n = {n}")
    if not draws >= 0:
        raise ValueError(f"draws must be >= 0, got {draws}")


def _check_theta(theta):
    _check_params(theta > 0, "theta must be positive", theta)


def _growth_codes(law, n, draws, stream):
    # grow every draw one ball at a time: ball m+1 opens a new part when its
    # uniform falls below p, else it extends the last part.  law(n, last, g)
    # yields the (draws,) column p of each ball m+1 = 2..n and may read last
    # = r - 1, r the last part of the first m balls, which this loop updates
    # in place.  Each ball draws its uniforms before its column, so the first
    # m digits of a draw at n are the draw at m from the same stream
    _check_size(n, draws)
    g = _kernel_rng(stream)
    codes = np.ones(draws, dtype=np.int64)
    last = np.zeros(draws, dtype=np.intp)  # r - 1, reset to 0 by a new part
    columns = law(n, last, g)
    u = np.empty(draws)
    for _ in range(1, n):
        g.random(out=u)
        new = u < next(columns)
        codes <<= 1
        codes |= new
        last += 1
        last *= ~new
    return codes


def _hazard_law(hazard):
    # a string law reads p = h[m-1, r-1] off the (n-1, n-1) table hazard(n),
    # built before the first ball
    return lambda n, last, g: (row.take(last) for row in hazard(n))


def _uniform_set_law(theta):
    # Theorem-1 construction: uniforms map to depths -log u, read left to
    # right from the deepest.  By Renyi's representation the gap between the
    # m-th and (m+1)-th deepest depths is an independent Exp(1)/m, and ball
    # m+1 starts a new box iff the rate-theta line process has a point in
    # that gap, which has probability 1 - exp(-theta * gap)
    return lambda n, last, g: (-np.expm1(g.exponential(size=last.size) * (-float(theta) / m))
                               for m in range(1, n))


def _poisson_set_law(theta):
    # Theorem-2 construction: given the rate-1 arrivals eps_1 < eps_2 < ...,
    # the line process meets the disjoint windows [log eps_m, log eps_{m+1}]
    # independently, and ball m+1 opens a part iff its window holds a point,
    # with probability 1 - (eps_m / eps_{m+1})^theta
    def columns(n, last, g):
        eps = g.exponential(size=last.size)  # eps_m, a running sum
        for _ in range(1, n):
            prev = eps.copy()
            eps += g.exponential(size=last.size)
            yield 1.0 - (prev / eps) ** float(theta)

    return columns


def _stationary_hazard(alpha, theta):
    # h(m, r) = (alpha (m-r) + theta r) / ((m + theta - alpha) r), at row
    # m - 1 and column r - 1, is q*(m+1:1) q(m:r) / q*(m:r) of the stationary
    # (alpha, theta) pair in closed form: theta/(m+theta) for Ewens (alpha =
    # 0), the Sibuya hazard alpha/r for forward renewal (theta = alpha)
    alpha, theta = float(alpha), float(theta)
    return lambda n: np.fromfunction(
        lambda i, j: (alpha * (i - j) + theta * (j + 1)) / ((i + 1 + theta - alpha) * (j + 1)),
        (n - 1, n - 1))


def _markov_hazard(dm):
    # h = q*(m+1:1) q(m:r) / q*(m:r) by right consistency of the product
    # form, and 0 where q*(m:r) = 0: no draw reaches that state
    def table(n):
        # every row a draw reads must be a law (DecrementMatrix.float_row
        # checks it): q rows 1..n-1 and q* rows 1..n
        q = np.zeros((n - 1, n - 1))
        qs = np.zeros((n, n))
        for m in range(1, n + 1):
            if m < n:
                q[m - 1, :m] = dm.q.float_row(m)
            qs[m - 1, :m] = dm.qstar.float_row(m)
        # q*(m+1:1) q(m:r), q*(m+1:r+1) and q*(m:r) for m, r < n; every
        # entry with r > m is 0
        new, extend, here = qs[1:, :1] * q, qs[1:, 1:], qs[:-1, :-1]
        err = np.abs(new + extend - here)
        if not err.max(initial=0.0) <= FLOAT_TOL:
            m, r = np.unravel_index(np.argmax(err), err.shape)
            raise ValueError(f"{dm.label or dm.qstar.name} is not right-consistent: "
                             f"q*({m + 2}:1) q({m + 1}:{r + 1}) + q*({m + 2}:{r + 2}) - "
                             f"q*({m + 1}:{r + 1}) = {err[m, r]:.3g}")
        return np.divide(new, here, out=np.zeros_like(new), where=here > 0)

    return table


def _arrange_codes(parts, n, alpha, theta, g):
    # all rows are arranged right to left in step.  Sorted by part count,
    # descending, the rows still being arranged at each step are a prefix.  A
    # step weights the columns, zero for a placed or padding column; one
    # uniform in (0, total] per row then picks the first column whose
    # cumulative weight reaches it, which is never a zero-weight column
    _check_alpha_theta(alpha, theta)
    parts = np.array(parts, dtype=np.int64, ndmin=2)
    _check_size(n, parts.shape[0])
    if (parts < 0).any() or (parts.sum(axis=1) != n).any():
        raise ValueError(f"every row of parts must be a partition of n = {n}")
    tau = float(alpha) / (2.0 * float(alpha) + float(theta))
    k = (parts > 0).sum(axis=1)
    order = np.argsort(-k, kind="stable")
    left, k = parts[order], k[order]
    s = np.full(len(k), n, dtype=np.int64)
    codes = np.zeros(len(k), dtype=np.int64)
    weights = left.astype(float)  # the first pick is size-biased
    for step in range(int(k.max(initial=0))):
        a = int(np.count_nonzero(k > step))
        left, s, rows = left[:a], s[:a], np.arange(a)
        cum = weights[:a].cumsum(axis=1)
        u = (1.0 - g.random(a)) * cum[:, -1]
        pick = (u[:, None] > cum).sum(axis=1)
        r = left[rows, pick]
        codes[:a] |= np.int64(1) << (n - s + r - 1)
        s -= r
        left[rows, pick] = 0
        # (s - r) tau + r (1 - tau) = s tau + r (1 - 2 tau) for each unplaced r
        weights = (left > 0) * (s[:, None] * tau + left * (1.0 - 2.0 * tau))
    out = np.empty_like(codes)
    out[order] = codes
    return out


# ---------------------------------------------------------------------------
# batch samplers


def codes_to_counts(codes: np.ndarray, n: int) -> np.ndarray:
    """Counts per composition of n in code order (length 2^(n-1)).

    The table is indexed like ``enumerate_compositions(n)``, so n is capped at
    ``MAX_ENUM_N``.
    """
    _check_size(n, 0)
    if n > MAX_ENUM_N:
        raise ValueError(f"a count table has 2^(n-1) cells: need n <= {MAX_ENUM_N}, "
                         f"got n = {n}")
    if not (np.right_shift(codes, n - 1) == 1).all():
        raise ValueError(f"codes must be compositions of n = {n}, in [2^{n - 1}, 2^{n})")
    base = 1 << (n - 1)
    return np.bincount(codes - base, minlength=base)


def _kernel_rng(stream: RngStream, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(stream.kernel_seed(salt))


def batch_ewens_strings(theta, n: int, draws: int, stream: RngStream) -> np.ndarray:
    _check_theta(theta)
    return _growth_codes(_hazard_law(_stationary_hazard(0, theta)), n, draws, stream)


def batch_renewal_strings(alpha, n: int, draws: int, stream: RngStream) -> np.ndarray:
    _check_params(0 < alpha < 1, "alpha must be in (0,1)", alpha)
    return _growth_codes(_hazard_law(_stationary_hazard(alpha, alpha)), n, draws, stream)


def batch_markov_compositions(dm: DecrementMatrixPair, n: int, draws: int,
                              stream: RngStream) -> np.ndarray:
    """Exact product-formula draws, grown ball by ball.

    Ball m+1 opens a new part with probability q*(m+1:1) q(m:r) / q*(m:r),
    r the last part of the first m balls.  q rows 1..n-1 and q* rows 1..n
    must each be a law, summing to 1 within ``FLOAT_TOL``, and the pair must
    be right-consistent: q*(m+1:1) q(m:r) + q*(m+1:r+1) = q*(m:r) within
    ``FLOAT_TOL`` for every m < n.  Otherwise it raises ValueError.
    """
    return _growth_codes(_hazard_law(_markov_hazard(dm)), n, draws, stream)


def batch_uniform_construction(theta, n: int, draws: int, stream: RngStream) -> np.ndarray:
    """Uniform sampling from the scale-invariant set, grown ball by ball."""
    _check_theta(theta)
    return _growth_codes(_uniform_set_law(theta), n, draws, stream)


def batch_poisson_construction(theta, n: int, draws: int, stream: RngStream) -> np.ndarray:
    """Poisson sampling of digits from the scale-invariant set, grown ball by ball."""
    _check_theta(theta)
    return _growth_codes(_poisson_set_law(theta), n, draws, stream)


def sample_partition_batch(alpha, theta, n: int, draws: int, stream: RngStream
                           ) -> np.ndarray:
    """Partition draws from the exact (alpha,theta) partition law, as a
    zero-padded (draws, n) parts matrix."""
    _check_alpha_theta(alpha, theta)
    _check_params(n >= 1, "n must be >= 1", n)
    partitions = enumerate_partitions(n)
    probs = np.array([float(partition_law(alpha, theta, lam)) for lam in partitions])
    probs = probs / probs.sum()
    g = stream.generator()
    picks = g.choice(len(partitions), size=draws, p=probs)
    mat = np.zeros((len(partitions), n), dtype=np.int64)  # (1,) * n has n parts
    for i, lam in enumerate(partitions):
        mat[i, :lam.num_parts] = lam.parts
    return mat[picks]


def batch_arrangements(parts_matrix: np.ndarray, n: int, alpha, theta,
                       stream: RngStream) -> np.ndarray:
    return _arrange_codes(parts_matrix, n, alpha, theta, _kernel_rng(stream, salt=1))
