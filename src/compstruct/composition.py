"""Compositions and partitions of an integer, and their binary codes.

A composition of n is an ordered tuple of positive parts summing to n.  It is
equivalently a length-n binary string starting with 1 (a 1 marks the first
ball of each box), so there are 2^(n-1) compositions of n.  All values here
are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

#: Hard cap for exhaustive enumeration: 2^15 compositions at n = 16.  There,
#: ``check --family two-param --alpha 1/2 --theta 1 --n-max 16`` takes about
#: 0.33 s and ``cpf ... --n 16 --format json`` about 0.22 s, process start
#: included, and ``enumerate_compositions(16)`` about 25 ms in-process
#: (2-CPU Intel Xeon VM, Python 3.11.7, medians of five runs).
MAX_ENUM_N = 16


@dataclass(frozen=True)
class Composition:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(map(int, self.parts)))
        if not self.parts:
            raise ValueError("composition needs at least one part")
        if min(self.parts) < 1:
            raise ValueError(f"parts must be positive, got {self.parts}")

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def partial_sums(self) -> tuple:
        out = []
        acc = 0
        for p in self.parts:
            acc += p
            out.append(acc)
        return tuple(out)

    @property
    def last_part(self) -> int:
        return self.parts[-1]

    # -- encodings ---------------------------------------------------------

    def to_binary(self) -> str:
        """Binary string of length n: a 1 at the first ball of each box."""
        return "".join("1" + "0" * (p - 1) for p in self.parts)

    @property
    def code(self) -> int:
        """Binary string read as an integer (MSB = first digit, always 1)."""
        return int(self.to_binary(), 2)

    @classmethod
    def from_binary(cls, bits: str) -> "Composition":
        if not bits or bits[0] != "1" or set(bits) - {"0", "1"}:
            raise ValueError(f"not a valid composition code: {bits!r}")
        parts = []
        run = 0
        for b in bits:
            if b == "1":
                if run:
                    parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        return cls(tuple(parts))

    @classmethod
    def from_code(cls, code: int, n: int) -> "Composition":
        """The composition of n whose code is ``code``, in [2^(n-1), 2^n)."""
        if n < 1 or not 1 << (n - 1) <= code < 1 << n:
            raise ValueError(f"code {code} is not a composition code of n = {n}: "
                             f"need 2^(n-1) <= code < 2^n")
        return cls.from_binary(format(code, "b"))

    @classmethod
    def _of_valid(cls, parts: tuple) -> "Composition":
        """A composition of parts known to be a tuple of positive ints."""
        comp = object.__new__(cls)
        object.__setattr__(comp, "parts", parts)
        return comp

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    # -- rearrangements ----------------------------------------------------

    def reverse(self) -> "Composition":
        return Composition(self.parts[::-1])

    def rank(self) -> "Partition":
        """Decreasing rearrangement (the partition derived from self)."""
        return Partition(tuple(sorted(self.parts, reverse=True)))


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing parts; the unordered multiset behind a composition."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if any(p < 1 for p in self.parts):
            raise ValueError(f"invalid partition parts {self.parts}")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError(f"partition parts must be sorted descending: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def remove_part(self, r: int) -> "Partition":
        parts = list(self.parts)
        parts.remove(r)
        return Partition(tuple(parts))

    def distinct_arrangements(self) -> Iterator[Composition]:
        """Each distinct ordering of the parts once, lexicographically largest
        first."""
        return map(Composition, _orderings(self.parts))

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        parts = tuple(sorted((int(t) for t in text.split(",")), reverse=True))
        return cls(parts)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


def _orderings(parts: tuple) -> Iterator[tuple]:
    # the first part runs over the distinct values, largest first
    if not parts:
        yield ()
    for i, p in enumerate(parts):
        if p not in parts[:i]:
            for rest in _orderings(parts[:i] + parts[i + 1:]):
                yield (p,) + rest


def enumerate_compositions(n: int) -> tuple:
    """All 2^(n-1) compositions of n, in lexicographic order of binary codes."""
    return tuple(map(Composition._of_valid,
                     _joined_by_code(n, [()] + [(r,) for r in range(1, n + 1)])))


def _joined_by_code(n: int, pieces: list) -> list:
    """out[c] = out[c >> r] + pieces[r] for the codes c of n, in code order.

    r = (c & -c).bit_length() is the last part of code c and c >> r its head,
    so with out[0] = pieces[0] every code below 2^n is built from a shorter one.
    """
    codes = _codes(n)
    out = [pieces[0]]
    for c in range(1, codes.stop):
        r = (c & -c).bit_length()
        out.append(out[c >> r] + pieces[r])
    return out[codes.start:]


def _codes(n: int) -> range:
    """The binary codes of the compositions of n, checked against the cap."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_ENUM_N:
        raise ValueError(f"n = {n} exceeds enumeration cap {MAX_ENUM_N}")
    return range(1 << (n - 1), 1 << n)


def enumerate_partitions(n: int) -> list:
    """All partitions of n, largest-first within each partition."""
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(n, n, [])
    return out

