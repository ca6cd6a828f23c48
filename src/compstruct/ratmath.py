"""Scalar helpers shared by the exact (rational) and float evaluation modes.

A Scalar is either a fractions.Fraction (exact mode) or a float.  A whole
computation runs in one mode: exact whenever every parameter is rational,
float as soon as any input is a float.  ``rising_ratio`` evaluates the
closed forms of the laws in either mode: an exact integer ratio, or a float
computed in log space so that no rising factorial overflows.  ``close`` is
the equality rule of every check, decided per pair of values.
"""

from __future__ import annotations

import math
from fractions import Fraction

Scalar = object  # Fraction | float; kept loose on purpose

#: Absolute tolerance of ``close`` when either value is a float.
FLOAT_TOL = 1e-9


def is_exact(*values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def close(a, b) -> bool:
    """a == b when both values are rational, else |a - b| <= FLOAT_TOL."""
    if is_exact(a, b):
        return a == b
    return abs(a - b) <= FLOAT_TOL


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
        return Fraction(*_rising_terms(x, k))
    out = x ** 0
    for i in range(k):
        out = out * (x + i)
    return out


def _rising_terms(x, k: int):
    """(x)_k of a rational x = a/b as the integer pair (prod (a + i b), b^k)."""
    a, b = x.numerator, x.denominator
    return math.prod(a + i * b for i in range(k)), b ** k


def rising_ratio(num, den, coef: int = 1):
    """coef * prod (x)_k / prod (y)_l over the pairs (x, k) of num and (y, l) of den.

    Exact (a Fraction, reduced once) when every x and y is rational; otherwise
    a float from the log-gamma differences lgamma(x + k) - lgamma(x), which
    needs x > 0 wherever k > 0 (ValueError otherwise).  A coef past 2^53
    enters the log too, so a huge coef times a tiny ratio stays finite.
    """
    for x, _ in num + den:
        # the float test first: it is cheaper than the ABC check of Fraction
        if isinstance(x, float) or not isinstance(x, (int, Fraction)):
            break
    else:
        top, bottom = coef, 1
        for x, k in num:
            p, q = _rising_terms(x, k)
            top, bottom = top * p, bottom * q
        for y, l in den:
            p, q = _rising_terms(y, l)
            top, bottom = top * q, bottom * p
        return Fraction(top, bottom)
    # a coef exact as a float multiplies the result; a larger one enters the log
    scale, log = (coef, 0.0) if coef < 2 ** 53 else (1, math.log(coef))
    lgamma = math.lgamma
    for x, k in num:
        if k:
            if not x > 0:
                raise ValueError(f"float rising factorials need x > 0, got ({x})_{k}")
            log += lgamma(x + k) - lgamma(x)
    for y, l in den:
        if l:
            if not y > 0:
                raise ValueError(f"float rising factorials need x > 0, got ({y})_{l}")
            log -= lgamma(y + l) - lgamma(y)
    return scale * math.exp(log)


def factorial(k: int) -> int:
    return math.factorial(k)
