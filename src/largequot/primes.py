"""Exact primality and factoring for the integers the package meets.

The bound's primes, the unit witnesses' moduli, the prime sequences of the
verbal series and the exponents q = M t are small numbers, or products of
small primes, so one trial-division list serves them all: ``_PRIMES``,
extended on demand.  A number is tested for primality by a Miller-Rabin
round to each of the first 13 primes as base, which is a proof of primality
below ``PSI_13`` (Sorenson and Webster, Math. Comp. 86, 2017): no composite
below it is a strong probable prime to all 13 bases.  Only at or past
``PSI_13``, and for a composite cofactor that trial division leaves, is
sympy imported, so the package and its command line start without it.
"""

from __future__ import annotations

import itertools

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least composite that is a strong probable prime to every base above
PSI_13 = 3317044064679887385961981

# trial division stops at the primes up to here
TRIAL_LIMIT = 2**16
# a prime p is past TRIAL_LIMIT iff p * p is past this
_LIMIT_SQUARE = TRIAL_LIMIT * (TRIAL_LIMIT + 2)

# the primes in increasing order, as far as any caller has read them
_PRIMES = [2, 3]


def _next_prime(primes):
    """The least prime past the last of ``primes``, which are every prime
    up to it, by trial division."""
    n = primes[-1]
    while True:
        n += 2
        for q in primes:
            if q * q > n:
                return n
            if n % q == 0:
                break


def primes_up_to(limit):
    """The primes up to ``limit``, in increasing order, read off ``_PRIMES``
    and extended one prime at a time past its end, so a caller that stops
    early never lists the primes up to a huge limit."""
    primes = _PRIMES
    for i in itertools.count():
        if i == len(primes):
            primes.append(_next_prime(primes))
        if primes[i] > limit:
            return
        yield primes[i]


def strong_probable_prime(n, a):
    """Whether odd n > a passes the Miller-Rabin round to base a."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n):
    """Whether the integer n is prime: trial division by the 13 bases, then
    a Miller-Rabin round to each, and ``sympy.isprime`` at or past PSI_13."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n < _BASES[-1] ** 2:
        return True
    if n >= PSI_13:
        from sympy import isprime

        return bool(isprime(n))
    return all(strong_probable_prime(n, a) for a in _BASES)


def trial_division(n):
    """({prime: exponent} over the primes up to TRIAL_LIMIT, cofactor) of an
    integer n >= 1.  The cofactor has no prime factor up to TRIAL_LIMIT; it
    is 1 or a prime whenever division stopped early, at a prime past its
    square root.  ``_PRIMES`` is read by index, and extended past its end
    one prime at a time, as far as :func:`primes_up_to` would."""
    found = {}
    # p > TRIAL_LIMIT or p * p > n, in one test
    bound = min(n, _LIMIT_SQUARE)
    primes, i = _PRIMES, 0
    while True:
        if i == len(primes):
            primes.append(_next_prime(primes))
        p = primes[i]
        if p * p > bound:
            return found, n
        i += 1
        if n % p == 0:
            n, e = n // p, 1
            while n % p == 0:
                n, e = n // p, e + 1
            found[p] = e
            bound = min(n, bound)


def factor(n):
    """{prime: exponent} of an integer n >= 1: trial division, a cofactor
    tested by :func:`is_prime`, and ``sympy.factorint`` only for a
    composite cofactor, all of whose primes are past TRIAL_LIMIT."""
    found, n = trial_division(n)
    if n > 1 and is_prime(n):
        found[n] = 1
    elif n > 1:
        from sympy import factorint

        found.update((int(p), int(e)) for p, e in factorint(n).items())
    return found
