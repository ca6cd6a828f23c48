"""Randomised constructions: string samplers, decreasing-chain sampling,
stick-breaking, scale-invariant Poisson sets, the two uniform/Poisson
sampling constructions, fragmentation, and the size-biased arrangement
algorithm.

Each sampled law has one vectorised numpy kernel that draws many
compositions at once from an ``np.random.Generator`` and returns them as
integer binary codes (MSB = first digit).  The ``batch_*`` functions run a
kernel on a seeded :class:`RngStream`; the per-draw string, Markov and
arrangement samplers are single-draw calls of the same kernels.  The lazy
interval-partition and atom-set objects are independent reference
constructions, convenient for inspection.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .composition import Composition, Partition, enumerate_partitions
from .laws import Cpf, DecrementMatrixPair, _check_alpha_theta, partition_law
from .ratmath import factorial, rising

__all__ = [
    "RngStream",
    "sample_bernoulli_string",
    "sample_renewal_string",
    "sample_markov_composition",
    "sample_gem",
    "ScaleInvariantSet",
    "IntervalPartitionSample",
    "sample_scale_invariant_partition",
    "uniform_sampling_composition",
    "poisson_sampling_composition",
    "fragment_sample",
    "fragment_cpf",
    "arrange_partition",
    "renewal_spacing_cdf",
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
# string samplers and the decreasing chain


def sample_bernoulli_string(theta, n: int, rng) -> Composition:
    """Independent digits with P(xi_j = 1) = theta/(j+theta-1); xi_1 = 1."""
    return Composition.from_code(int(_ewens_codes(theta, n, 1, _as_rng(rng))[0]), n)


def renewal_spacing_cdf(alpha, n: int) -> np.ndarray:
    """cdf[r-1] = P(X <= r) for the renewal spacing P(X=r) = alpha(1-alpha)_{r-1}/r!."""
    probs = [float(alpha * rising(1 - alpha, r - 1)) / factorial(r)
             for r in range(1, n + 1)]
    return np.cumsum(probs)


def sample_renewal_string(alpha, n: int, rng) -> Composition:
    """1s at the renewal times R_k = 1 + X_1 + ... + X_k, truncated at n."""
    return Composition.from_code(int(_renewal_codes(alpha, n, 1, _as_rng(rng))[0]), n)


def sample_markov_composition(dm: DecrementMatrixPair, n: int, rng) -> Composition:
    """Exact product-formula sampler: last part from q*(n:.), then q(rem:.).

    Every row it may use must be a probability vector summing to 1 within
    1e-9.
    """
    code = _markov_codes(dm, n, 1, _as_rng(rng))[0]
    return Composition.from_code(int(code), n)


def sample_gem(alpha, theta, k: int, rng) -> list:
    """First k size-biased frequencies by stick-breaking.

    W_i ~ Beta(1-alpha, theta + i*alpha), the standard two-parameter
    residual-allocation indexing.
    """
    _check_alpha_theta(alpha, theta)
    g = _as_rng(rng)
    a, t = float(alpha), float(theta)
    out = []
    stick = 1.0
    for i in range(1, k + 1):
        w = g.beta(1.0 - a, t + i * a)
        out.append(stick * w)
        stick *= 1.0 - w
    return out


# ---------------------------------------------------------------------------
# scale-invariant Poisson sets and interval partitions


class ScaleInvariantSet:
    """Lazy atom set of the scale-invariant Poisson process PPP(theta dx/x).

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

    def _extend_down(self, limit: float):
        while not self._down or self._down[-1] < limit:
            last = self._down[-1] if self._down else 0.0
            self._down.append(last + self._rng.exponential(1.0 / self.theta))

    def _extend_up(self, limit: float):
        while not self._up or self._up[-1] < limit:
            last = self._up[-1] if self._up else 0.0
            self._up.append(last + self._rng.exponential(1.0 / self.theta))

    def atoms_below(self, count: int) -> list:
        """The largest ``count`` atoms below 1, decreasing."""
        while len(self._down) < count:
            last = self._down[-1] if self._down else 0.0
            self._down.append(last + self._rng.exponential(1.0 / self.theta))
        return [math.exp(-g) for g in self._down[:count]]

    def has_atom_in(self, a: float, b: float) -> bool:
        """Whether the atom set meets the compact interval [a, b], 0 < a <= b."""
        if not 0 < a <= b:
            raise ValueError(f"need 0 < a <= b, got [{a}, {b}]")
        lo, hi = math.log(a), math.log(b)
        if lo < 0:
            self._extend_down(-lo)
            i = bisect.bisect_left(self._down, -min(hi, 0.0))
            if i < len(self._down) and self._down[i] <= -lo:
                return True
        if hi > 0:
            self._extend_up(hi)
            i = bisect.bisect_left(self._up, max(lo, 0.0))
            if i < len(self._up) and self._up[i] <= hi:
                return True
        return False


@dataclass
class IntervalPartitionSample:
    """Disjoint open subintervals of [0,1], left to right, plus residual mass.

    ``extend`` (optional) grows the partition toward 0 and returns the new
    residual; without it a uniform landing in the residual is an error.
    The rightmost interval is the meander.
    """

    intervals: List[tuple]
    residual: float
    extend: Optional[Callable[[], float]] = None

    def __post_init__(self):
        for (a, b), (c, d) in zip(self.intervals, self.intervals[1:]):
            if not (a < b <= c < d):
                raise ValueError("intervals must be disjoint and ordered")

    @property
    def meander_length(self) -> float:
        return self.intervals[-1][1] - self.intervals[-1][0]

    def locate(self, u: float) -> int:
        """Index of the interval containing u, extending on demand."""
        while u < self.intervals[0][0]:
            if self.extend is None:
                raise ValueError(
                    f"uniform {u} fell in the unresolved residual {self.residual}")
            self.residual = self.extend()
        lefts = [a for a, _ in self.intervals]
        i = bisect.bisect_right(lefts, u) - 1
        return i


def sample_scale_invariant_partition(theta, rng, depth_cutoff: float = 1e-12
                                     ) -> IntervalPartitionSample:
    """Gaps (exp(-Gamma_{k+1}), exp(-Gamma_k)) of the scale-invariant set.

    Atoms are generated until the unresolved residual mass drops below
    ``depth_cutoff``; the returned partition keeps extending lazily if a
    sample point lands below that.
    """
    _check_theta(theta)
    g = _as_rng(rng)
    th = float(theta)
    atoms = [1.0]  # right endpoints; atoms[k] = exp(-Gamma_k), Gamma_0 = 0
    gamma = 0.0
    intervals: List[tuple] = []
    while atoms[-1] >= depth_cutoff:
        gamma += g.exponential(1.0 / th)
        nxt = math.exp(-gamma)
        intervals.append((nxt, atoms[-1]))
        atoms.append(nxt)
    intervals.reverse()

    state = {"gamma": gamma}
    sample = IntervalPartitionSample(intervals=intervals, residual=atoms[-1])

    def extend():
        prev = math.exp(-state["gamma"])
        state["gamma"] += g.exponential(1.0 / th)
        nxt = math.exp(-state["gamma"])
        sample.intervals.insert(0, (nxt, prev))
        return nxt

    sample.extend = extend
    return sample


def uniform_sampling_composition(partition: IntervalPartitionSample, n: int,
                                 rng) -> Composition:
    """Sizes of groups of n uniforms classified by containing interval."""
    g = _as_rng(rng)
    us = g.random(n)
    indices = sorted(partition.locate(u) for u in us)
    parts = []
    run = 1
    for prev, cur in zip(indices, indices[1:]):
        if cur == prev:
            run += 1
        else:
            parts.append(run)
            run = 1
    parts.append(run)
    return Composition(tuple(parts))


def poisson_sampling_composition(sset: ScaleInvariantSet, n: int, rng) -> Composition:
    """Digits xi_j = 1(S meets [eps_{j-1}, eps_j]) for rate-1 Poisson arrivals."""
    g = _as_rng(rng)
    eps = np.cumsum(g.exponential(1.0, size=n))
    bits = ["1"]
    for j in range(1, n):
        bits.append("1" if sset.has_atom_in(eps[j - 1], eps[j]) else "0")
    return Composition.from_binary("".join(bits))


# ---------------------------------------------------------------------------
# fragmentation


def fragment_sample(outer: Composition, inner_sampler: Callable[[int], Composition],
                    ) -> Composition:
    """Replace each part r of ``outer`` by an independent inner composition of r."""
    parts = []
    for r in outer.parts:
        inner = inner_sampler(r)
        if inner.n != r:
            raise ValueError(f"inner sampler returned a composition of {inner.n}, not {r}")
        parts.extend(inner.parts)
    return Composition(tuple(parts))


def fragment_cpf(outer: Cpf, inner: Cpf, max_n: int = 16) -> Cpf:
    """Exact CPF of the fragmentation product.

    p''(lam) sums over all 2^(l-1) segmentations of lam into consecutive
    segments: outer evaluated at the segment sums times the inner law of each
    segment.

    For 0 < alpha < 1 and theta > alpha, fragmenting ``ewens_cpf(theta -
    alpha)`` by the forward ``renewal_cpf(alpha)`` gives exactly the stationary
    (alpha, theta) law ``markov_cpf(two_param_stationary_pair(alpha, theta))``
    (Pitman's coagulation-fragmentation duality PD(alpha, theta - alpha) =
    Frag_{PD(alpha, 0)} PD(0, theta - alpha)).  theta > alpha keeps the outer
    Ewens parameter positive.
    """

    def ev(comp):
        parts = comp.parts
        ell = len(parts)
        total = 0
        for mask in range(1 << (ell - 1)):
            # bit k set = boundary after part k+1
            segments = []
            start = 0
            for k in range(ell - 1):
                if mask >> k & 1:
                    segments.append(parts[start:k + 1])
                    start = k + 1
            segments.append(parts[start:])
            val = outer(Composition(tuple(sum(s) for s in segments)))
            for seg in segments:
                val = val * inner(Composition(seg))
            total = total + val
        return total

    return Cpf(name=f"fragment[{outer.name}|{inner.name}]", evaluate=ev, max_n=max_n)


# ---------------------------------------------------------------------------
# arrangement of partitions


def arrange_partition(partition: Partition, alpha, theta, rng) -> Composition:
    """Arrange a partition as a self-similar Markov composition.

    A size-biased pick becomes the rightmost part; the rest is arranged right
    to left with the deletion kernel weighting each part of size r of the
    remainder (of size S) proportionally to (S-r) tau + r (1-tau),
    tau = alpha/(2 alpha + theta).
    """
    code = _arrange_codes([partition.parts], partition.n, alpha, theta, _as_rng(rng))[0]
    return Composition.from_code(int(code), partition.n)


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
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")


def _bits_to_codes(bits):
    # a (draws, n) bool matrix, right-aligned in 64 columns, packs into one
    # big-endian 8-byte word per row
    draws, n = bits.shape
    padded = np.zeros((draws, 64), dtype=bool)
    padded[:, 64 - n:] = bits
    return np.packbits(padded, axis=1).view(">u8").astype(np.int64).ravel()


def _ewens_codes(theta, n, draws, g):
    _check_theta(theta)
    _check_size(n, draws)
    theta = float(theta)
    bits = np.ones((draws, n), dtype=bool)
    if n > 1:
        js = np.arange(2, n + 1, dtype=float)
        bits[:, 1:] = g.random((draws, n - 1)) < theta / (js + theta - 1.0)
    return _bits_to_codes(bits)


def _renewal_codes(alpha, n, draws, g):
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    _check_size(n, draws)
    # u beyond cdf[-1] means the next renewal falls outside the first n digits
    cdf = renewal_spacing_cdf(alpha, n)
    codes = np.full(draws, np.int64(1) << (n - 1), dtype=np.int64)
    cur = np.ones(draws, dtype=np.int64)
    active = cur < n
    while active.any():
        u = g.random(active.sum())
        x = np.searchsorted(cdf, u, side="left") + 1
        cur_active = cur[active] + x
        hit = cur_active <= n
        idx = np.flatnonzero(active)
        codes[idx[hit]] |= np.int64(1) << (n - cur_active[hit])
        cur[idx] = cur_active
        active = cur < n
    return codes


def _markov_codes(dm, n, draws, g):
    # every row a draw may use must be a law (DecrementMatrix.cdf checks it)
    _check_size(n, draws)
    # q_cdf[m-1, r-1] = sum_{r' <= r} q(m:r'); row n is never reached, since
    # the first step draws from q*(n:.)
    q_cdf = np.ones((n, n))
    for m in range(1, n):
        q_cdf[m - 1, :m] = dm.q.cdf(m)
    qstar_cdf = dm.qstar.cdf(n)
    codes = np.zeros(draws, dtype=np.int64)
    u = g.random(draws)
    r = np.searchsorted(qstar_cdf, u, side="left").astype(np.int64) + 1
    np.minimum(r, n, out=r)
    m = np.full(draws, n, dtype=np.int64)
    codes |= np.int64(1) << (n - (m - r + 1))
    m -= r
    while (m > 0).any():
        act = np.flatnonzero(m > 0)
        u = g.random(act.size)
        rows = q_cdf[m[act] - 1]
        r = (u[:, None] > rows).sum(axis=1).astype(np.int64) + 1
        np.minimum(r, m[act], out=r)
        codes[act] |= np.int64(1) << (n - (m[act] - r + 1))
        m[act] -= r
    return codes


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
    base = 1 << (n - 1)
    return np.bincount(codes - base, minlength=base)


def _kernel_rng(stream: RngStream, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(stream.kernel_seed(salt))


def batch_ewens_strings(theta, n: int, draws: int, stream: RngStream) -> np.ndarray:
    return _ewens_codes(theta, n, draws, _kernel_rng(stream))


def batch_renewal_strings(alpha, n: int, draws: int, stream: RngStream) -> np.ndarray:
    return _renewal_codes(alpha, n, draws, _kernel_rng(stream))


def batch_markov_compositions(dm: DecrementMatrixPair, n: int, draws: int,
                              stream: RngStream) -> np.ndarray:
    """Product-formula draws; every row used must be a probability vector
    summing to 1 within 1e-9."""
    return _markov_codes(dm, n, draws, _kernel_rng(stream))


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
