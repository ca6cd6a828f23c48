"""Scalar helpers shared by the exact (rational) and float evaluation modes.

A Scalar is either a fractions.Fraction (exact mode) or a float.  A whole
computation runs in one mode: exact whenever every parameter is rational,
float as soon as any input is a float.
"""

from __future__ import annotations

import math
from fractions import Fraction

Scalar = object  # Fraction | float; kept loose on purpose


def is_exact(*values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def as_exact(value):
    """Coerce ints/strings like '1/2' to Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def parse_scalar(text: str):
    """CLI-boundary parser: 'p/q' stays exact, a decimal forces float mode."""
    text = text.strip()
    if "/" in text or ("." not in text and "e" not in text.lower()):
        return Fraction(text)
    return float(text)


def binom(n: int, k: int):
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def rising(x, k: int):
    """Rising factorial (x)_k = x (x+1) ... (x+k-1); (x)_0 = 1.

    The result has the type of x: int, Fraction or float.  For x = a/b it
    is the integer product prod (a + i b) over b^k, reduced once.
    """
    if isinstance(x, Fraction):
        a, b = x.numerator, x.denominator
        return Fraction(math.prod(a + i * b for i in range(k)), b ** k)
    out = x ** 0
    for i in range(k):
        out = out * (x + i)
    return out


def factorial(k: int) -> int:
    return math.factorial(k)
