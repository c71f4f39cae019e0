"""Exact counting formulas: binomial, Fuss-Catalan, Raney, Motzkin.

Every counting function returns a plain Python int (arbitrary precision).
Closed forms are evaluated as integer products with an exactness check on
each division; nothing here ever rounds.  All functions are pure and keep
no state between calls, so concurrent callers are safe: nothing is cached.

One function returns text: ``decimal_text`` writes an int in decimal.
``str(int)`` in CPython 3.11 converts base 2**30 to base 10**9 digit by
digit, in time quadratic in the length of the answer (0.5 s on a 2-vCPU
machine for the 165,853 digits of R_200000^(3,2)), and refuses answers
past the interpreter's digit cap.  ``decimal_text`` converts by divide
and conquer (Knuth, TAOCP vol. 2, section 4.4), with ``decimal`` doing
the big multiplications, and has no digit cap.

A large binomial is computed from its prime factorization, which needs
only multiplications (Kummer's theorem; P. Goetgheluck, "Computing
binomial coefficients", Amer. Math. Monthly 94, 1987).  ``math.comb``
ends in a long division, which CPython 3.11 does in time quadratic in
the length of the answer.
"""

from __future__ import annotations

import decimal
import math
from bisect import bisect_right
from itertools import compress

from .errors import InvalidParameterError

# C(n, j) is factored when m = min(j, n - j) has m * m >= _FACTORED_FROM * n.
# The factored path costs O(n) for the sieve and the primes; math.comb
# costs about the square of the answer's length, ~ m * log(n / m) bits.
# On a 2-vCPU machine (Python 3.11) the two took the same time between
# m * m = 200 n and 400 n, for every n / m from 2 to 51 (m ~ 900 at
# n = 3m, m ~ 15000 at n = 51m).  A bound on m alone would sieve up to n
# however small m is, and be slower than math.comb when n / m is large.
_FACTORED_FROM = 300

# decimal_text converts a piece of at most this many bits with
# Decimal(int) directly; below ~128 bits that is faster than splitting.
_DIRECT_BITS = 128


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"division {num}/{den} is not exact")
    return q


def binomial(n: int, j: int) -> int:
    """Binomial coefficient C(n, j); zero outside 0 <= j <= n.

    With m = min(j, n - j), small cases (m * m < _FACTORED_FROM * n) go to
    math.comb.  Larger ones multiply p ** e over the primes p <= n, where
    e is the number of borrows when m is subtracted from n in base p
    (Kummer's theorem), in a balanced product tree.  The primes are sieved
    anew on every call; nothing is cached.
    """
    check_knr(n=n)
    if j < 0 or j > n:
        return 0
    m = min(j, n - j)
    if m * m < _FACTORED_FROM * n:
        return math.comb(n, j)
    primes = _primes_upto(n)
    small = bisect_right(primes, math.isqrt(n))
    factors = [p ** _borrows(n, m, p) for p in primes[:small]]
    # Above sqrt(n), n has at most two base-p digits and m <= n, so the
    # only possible borrow is in the units digit.
    factors += [p for p in primes[small:] if n % p < m % p]
    return _product(factors)


def _primes_upto(n: int) -> list[int]:
    """The primes <= n in increasing order (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def _borrows(n: int, j: int, p: int) -> int:
    """Number of borrows when j <= n is subtracted from n in base p."""
    count = borrow = 0
    while j or borrow:
        n, a = divmod(n, p)
        j, b = divmod(j, p)
        borrow = a < b + borrow
        count += borrow
    return count


def _product(factors: list[int]) -> int:
    """Product of the factors, multiplied pairwise in rounds, so that the
    two operands of each multiplication have about the same length."""
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) % 2 else []
        factors = [a * b for a, b in zip(factors[::2], factors[1::2])] + odd
    return factors[0] if factors else 1


def decimal_text(value: int) -> str:
    """str(value), in time subquadratic in the number of digits.

    The magnitude is split at half its width, both halves are converted
    to Decimal recursively, and they are joined as lo + hi * 2**half.
    libmpdec multiplies large decimals by a number-theoretic transform,
    and str(Decimal) is linear.  Each 2**half is built once per call, in
    a dict local to the call.  The context has room for every digit and
    traps Inexact, so a rounding would raise rather than print a wrong
    digit.
    """
    if type(value) is not int:
        raise InvalidParameterError(f"decimal_text takes an int, got {value!r}")
    powers: dict[int, decimal.Decimal] = {}

    def convert(v: int, bits: int) -> decimal.Decimal:
        if bits <= _DIRECT_BITS:
            return decimal.Decimal(v)
        half = bits >> 1
        hi = v >> half
        lo = v - (hi << half)
        if half not in powers:
            powers[half] = decimal.Decimal(2) ** half
        return convert(lo, half) + convert(hi, bits - half) * powers[half]

    magnitude = abs(value)
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        text = str(convert(magnitude, magnitude.bit_length()))
    return "-" + text if value < 0 else text


def fuss_catalan(k: int, n: int) -> int:
    """Number of k-ary trees with n internal nodes: C(kn, n) / ((k-1)n + 1)."""
    return raney(k, 1, n)  # raney's second closed form at r = 1


def catalan(n: int) -> int:
    """Catalan number C_n (binary-tree case of fuss_catalan)."""
    return fuss_catalan(2, n)


def raney(k: int, r: int, n: int) -> int:
    """Raney number: (r/(kn+r)) * C(kn+r, n).

    Counts ordered r-tuples of k-ary trees with n internal nodes in total.
    Both known closed forms are evaluated and must agree.
    """
    check_knr(k, n, r)
    first = _exact_div(r * binomial(k * n + r, n), k * n + r)
    second = _exact_div(r * binomial(k * n + r - 1, n), (k - 1) * n + r)
    if first != second:
        raise ArithmeticError(f"Raney closed forms disagree: {first} != {second}")
    return first


def fuss_catalan_rec(k: int, n: int) -> int:
    """fuss_catalan by its defining recurrence: F(0) = 1 and F(m) is the
    k-fold convolution of F at m - 1, over all child internal-node counts.

    Bottom-up: conv[r - 1][m] is the r-fold convolution of F at m, so
    conv[0] is F itself; every row grows by one entry per m.
    """
    check_knr(k, n)
    conv: list[list[int]] = [[] for _ in range(k)]
    fuss = conv[0]
    for m in range(n + 1):
        fuss.append(conv[k - 1][m - 1] if m else 1)
        for r in range(1, k):
            conv[r].append(sum(fuss[i] * conv[r - 1][m - i] for i in range(m + 1)))
    return fuss[n]


def raney_convolution(k: int, r: int, n: int) -> int:
    """raney by the r-fold convolution of closed-form fuss_catalan values."""
    check_knr(k, n, r)
    base = [fuss_catalan(k, i) for i in range(n + 1)]
    acc = [1] + [0] * n
    for _ in range(r):
        acc = [sum(acc[j] * base[i - j] for j in range(i + 1)) for i in range(n + 1)]
    return acc[n]


def motzkin(n: int) -> int:
    """Motzkin number M_n = sum_j C(n, 2j) * catalan(j)."""
    if type(n) is int and n < 0:
        raise InvalidParameterError("motzkin requires n >= 0")
    check_knr(n=n)  # names an n that is not an int
    return sum(binomial(n, 2 * j) * catalan(j) for j in range(n // 2 + 1))


def check_knr(k: int = 2, n: int = 0, r: int = 1) -> None:
    """Check an arity k, a size n and a tuple length r: each an int, bool
    excluded, with k >= 2, n >= 0 and r >= 1.  The defaults pass, so a
    caller names only what it takes."""
    if type(k) is type(n) is type(r) is int and k >= 2 and n >= 0 and r >= 1:
        return
    for name, value in (("k", k), ("n", n), ("r", r)):
        if type(value) is not int:
            raise InvalidParameterError(f"{name} must be an int, got {value!r}")
    raise InvalidParameterError(
        "k must be >= 2" if k < 2 else "n must be >= 0" if n < 0 else
        "a tuple needs r >= 1 trees")
