"""Randomised constructions: string laws grown ball by ball, the
scale-invariant Poisson set and its two sampling constructions, and the
size-biased arrangement of partitions.

Each sampled law has one vectorised numpy kernel that draws many
compositions at once from an ``np.random.Generator`` and returns them as
integer binary codes (MSB = first digit).  The right-consistent string laws
(Ewens, forward renewal, Markov product form) share one kernel that grows a
composition ball by ball; each law supplies only its hazard table, the
probability that the next ball opens a new part.  The first m digits of a
draw at n are the draw at m, so one row samples the whole sequence
C_1, ..., C_n.  The ``batch_*`` functions run a kernel on a seeded
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

from .composition import Composition, enumerate_partitions
from .laws import DecrementMatrixPair, _check_alpha_theta, _check_params, partition_law

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
    g = _as_rng(rng)
    counts = collections.Counter(sset.gap(u) for u in 1.0 - g.random(n))
    return Composition(tuple(counts[gap] for gap in sorted(counts)))


def poisson_sampling_composition(sset: ScaleInvariantSet, n: int, rng) -> Composition:
    """Digits xi_j = 1(S meets [eps_{j-1}, eps_j]) for rate-1 Poisson arrivals."""
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


def _bits_to_codes(bits):
    # a (draws, n) bool matrix, right-aligned in 64 columns, packs into one
    # big-endian 8-byte word per row
    draws, n = bits.shape
    padded = np.zeros((draws, 64), dtype=bool)
    padded[:, 64 - n:] = bits
    return np.packbits(padded, axis=1).view(">u8").astype(np.int64).ravel()


def _growth_codes(hazard, n, draws, g):
    # grow every draw one ball at a time: given m balls and a last part of
    # r, ball m+1 opens a new part with probability h[m-1, r-1], else it
    # extends the last part.  hazard(n) gives the table h for m, r < n (or
    # anything that broadcasts to it).  One column of uniforms per ball, so
    # the first m digits of a draw at n are the draw at m from the same
    # stream
    _check_size(n, draws)
    h = np.broadcast_to(hazard(n), (n - 1, n - 1))
    codes = np.ones(draws, dtype=np.int64)
    last = np.zeros(draws, dtype=np.intp)  # r - 1, reset to 0 by a new part
    u = np.empty(draws)
    for m in range(1, n):
        g.random(out=u)
        new = u < h[m - 1].take(last)
        codes <<= 1
        codes |= new
        last += 1
        last *= ~new
    return codes


def _ewens_hazard(theta):
    # h = theta/(m+theta): each digit is an independent Bernoulli
    _check_theta(theta)
    theta = float(theta)
    return lambda n: theta / (np.arange(1, n)[:, None] + theta)


def _renewal_hazard(alpha):
    # h = alpha/r = P(X = r)/P(X >= r), the hazard of the Sibuya spacing
    # P(X = r) = alpha (1-alpha)_{r-1} / r!
    _check_params(0 < alpha < 1, "alpha must be in (0,1)", alpha)
    alpha = float(alpha)
    return lambda n: alpha / np.arange(1, n)


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
        if not err.max(initial=0.0) <= 1e-9:
            m, r = np.unravel_index(np.argmax(err), err.shape)
            raise ValueError(f"{dm.label or dm.qstar.name} is not right-consistent: "
                             f"q*({m + 2}:1) q({m + 1}:{r + 1}) + q*({m + 2}:{r + 2}) - "
                             f"q*({m + 1}:{r + 1}) = {err[m, r]:.3g}")
        return np.divide(new, here, out=np.zeros_like(new), where=here > 0)

    return table


def _uniform_set_codes(theta, n, draws, g):
    # Theorem-1 construction: uniforms map to depths -log u, read left to
    # right from the deepest.  By Renyi's representation the gap between the
    # i-th and (i+1)-th deepest depths is an independent Exp(1)/i, and the
    # (i+1)-th uniform starts a new box iff the rate-theta line process has
    # a point in that gap, which has probability 1 - exp(-theta * gap)
    _check_theta(theta)
    _check_size(n, draws)
    bits = np.ones((draws, n), dtype=bool)
    if n > 1:
        gaps = g.exponential(size=(draws, n - 1)) / np.arange(1, n)
        bits[:, 1:] = g.random((draws, n - 1)) < -np.expm1(-float(theta) * gaps)
    return _bits_to_codes(bits)


def _poisson_set_codes(theta, n, draws, g):
    # Theorem-2 construction: presence of line-process points in the disjoint
    # windows [log eps_{j-1}, log eps_j] is independent Bernoulli given the
    # arrivals
    _check_theta(theta)
    _check_size(n, draws)
    eps = g.exponential(size=(draws, n)).cumsum(axis=1)
    bits = np.ones((draws, n), dtype=bool)
    if n > 1:
        p = 1.0 - (eps[:, :-1] / eps[:, 1:]) ** float(theta)
        bits[:, 1:] = g.random((draws, n - 1)) < p
    return _bits_to_codes(bits)


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
    """Counts per composition in code order (length 2^(n-1))."""
    _check_size(n, 0)
    base = 1 << (n - 1)
    return np.bincount(codes - base, minlength=base)


def _kernel_rng(stream: RngStream, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(stream.kernel_seed(salt))


def batch_ewens_strings(theta, n: int, draws: int, stream: RngStream) -> np.ndarray:
    return _growth_codes(_ewens_hazard(theta), n, draws, _kernel_rng(stream))


def batch_renewal_strings(alpha, n: int, draws: int, stream: RngStream) -> np.ndarray:
    return _growth_codes(_renewal_hazard(alpha), n, draws, _kernel_rng(stream))


def batch_markov_compositions(dm: DecrementMatrixPair, n: int, draws: int,
                              stream: RngStream) -> np.ndarray:
    """Exact product-formula draws, grown ball by ball.

    Ball m+1 opens a new part with probability q*(m+1:1) q(m:r) / q*(m:r),
    r the last part of the first m balls.  q rows 1..n-1 and q* rows 1..n
    must each be a probability vector summing to 1 within 1e-9, and the pair
    must be right-consistent: q*(m+1:1) q(m:r) + q*(m+1:r+1) = q*(m:r)
    within 1e-9 for every m < n.  Otherwise it raises ValueError.
    """
    return _growth_codes(_markov_hazard(dm), n, draws, _kernel_rng(stream))


def batch_uniform_construction(theta, n: int, draws: int, stream: RngStream) -> np.ndarray:
    """Uniform sampling from the scale-invariant set, vectorised over draws."""
    return _uniform_set_codes(theta, n, draws, _kernel_rng(stream))


def batch_poisson_construction(theta, n: int, draws: int, stream: RngStream) -> np.ndarray:
    """Poisson sampling of digits from the scale-invariant set, vectorised."""
    return _poisson_set_codes(theta, n, draws, _kernel_rng(stream))


def sample_partition_batch(alpha, theta, n: int, draws: int, stream: RngStream
                           ) -> np.ndarray:
    """Partition draws from the exact (alpha,theta) partition law, as a
    zero-padded (draws, max_parts) parts matrix."""
    _check_alpha_theta(alpha, theta)
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n}")
    partitions = enumerate_partitions(n)
    probs = np.array([float(partition_law(alpha, theta, lam)) for lam in partitions])
    probs = probs / probs.sum()
    g = stream.generator()
    picks = g.choice(len(partitions), size=draws, p=probs)
    kmax = max(p.num_parts for p in partitions)
    mat = np.zeros((len(partitions), kmax), dtype=np.int64)
    for i, lam in enumerate(partitions):
        mat[i, :lam.num_parts] = lam.parts
    return mat[picks]


def batch_arrangements(parts_matrix: np.ndarray, n: int, alpha, theta,
                       stream: RngStream) -> np.ndarray:
    return _arrange_codes(parts_matrix, n, alpha, theta, _kernel_rng(stream, salt=1))
