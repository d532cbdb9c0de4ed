"""The package's own primality test and factoring, against sympy."""

import random

import pytest
import sympy

from largequot import primes, series
from largequot.periodic import format_order
from largequot.primes import PSI_13, factor, is_prime, strong_probable_prime

BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least composite that is a strong probable prime to the first 12 bases
PSI_12 = 318665857834031151167461


def test_every_integer_up_to_ten_to_the_fifth_matches_sympy():
    for n in range(1, 10**5 + 1):
        assert is_prime(n) == sympy.isprime(n), n
        assert factor(n) == sympy.factorint(n), n


@pytest.mark.parametrize("bits", [64, 80])
def test_random_integers_match_sympy(bits):
    rng = random.Random(bits)
    for _ in range(100):
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        assert is_prime(n) == sympy.isprime(n), n
        assert factor(n) == sympy.factorint(n), n
    # primes themselves, which trial division never shortens
    for _ in range(20):
        p = sympy.randprime(2**(bits - 1), 2**bits)
        assert is_prime(p) and factor(p) == {p: 1}


@pytest.mark.parametrize("n", [561, 41041, 3215031751, 3825123056546413051,
                               PSI_12])
def test_strong_pseudoprimes_are_composite(n):
    assert not sympy.isprime(n)
    assert not is_prime(n)
    assert factor(n) == sympy.factorint(n)


def test_psi_12_is_caught_by_the_last_base_only():
    assert all(strong_probable_prime(PSI_12, a) for a in BASES[:-1])
    assert not strong_probable_prime(PSI_12, 41)


def test_psi_13_reaches_sympy_and_is_refused(monkeypatch):
    # every base passes it, so no Miller-Rabin round may decide it
    assert primes._BASES == BASES
    assert all(strong_probable_prime(PSI_13, a) for a in BASES)
    asked = []
    isprime = sympy.isprime
    monkeypatch.setattr(sympy, "isprime", lambda n: asked.append(n) or isprime(n))
    assert not is_prime(PSI_13)
    assert asked == [PSI_13]
    # below it the 13 rounds decide alone
    asked.clear()
    assert is_prime(PSI_13 - 2) == isprime(PSI_13 - 2)
    assert asked == []


def _forget_sympy_factors():
    # sympy 1.13+ keeps the factors it finds, and a limited search that meets
    # them again goes past its limit: each comparison starts from none
    cache = getattr(sympy.ntheory.factor_, "factor_cache", None)
    if cache is not None:
        cache.clear()


def _sympy_modulus_primes(m):
    # _witness_primes' former body, before the unit-witness filter
    _forget_sympy_factors()
    return [m] if sympy.isprime(m) else [p for p in sympy.factorint(
        m, limit=2**16, use_rho=False, use_pm1=False) if sympy.isprime(p)]


def test_modulus_primes_match_the_limited_sympy_search():
    rng = random.Random(18)
    moduli = [2, 3, 4, 6, 65536, 65537, 65537 * 65539, 65537**3, 1000003**2,
              (2**61 - 1) * 3, 10**18, 10**18 - 1]
    moduli += [rng.randrange(2, 10**18) for _ in range(300)]
    moduli += [int(10 ** rng.uniform(0.5, 18)) for _ in range(300)]
    for m in moduli:
        _forget_sympy_factors()
        found = series._modulus_primes(m)
        _, cofactor = primes.trial_division(m)
        if cofactor == 1 or is_prime(cofactor):
            assert found == _sympy_modulus_primes(m), m
        else:
            # sympy's order here depends on its own factor cache
            assert sorted(found) == sorted(_sympy_modulus_primes(m)), m
    assert sorted(series._modulus_primes(65537 * 65539)) == [65537, 65539]
    assert series._modulus_primes(65537**3) == [65537]
    assert series._modulus_primes(1000003**2) == [1000003]
    assert series._modulus_primes((2**61 - 1) * 3) == [3, 2**61 - 1]


def test_format_order_of_a_long_order():
    assert format_order(972 * 5**973) == {"factored": "2^2 * 3^5 * 5^973"}


def _generator_trial_division(n):
    """trial_division as it once ran, through the lazy generator: its
    answer, and how far the prime list reaches after it."""
    found = {}
    for p in primes.primes_up_to(primes.TRIAL_LIMIT):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            found[p] = found.get(p, 0) + 1
    return found, n, primes._PRIMES[-1]


@pytest.mark.parametrize("n", [1, 2, 4, 97, 2**60, 3**30, 2 * 1000003,
                               10**12 + 39, 2**31 - 1, 65537**2 * 3,
                               (2**61 - 1) * (2**31 - 1)])
def test_trial_division_lists_primes_as_lazily_as_the_generator(monkeypatch,
                                                                 n):
    monkeypatch.setattr(primes, "_PRIMES", [2, 3])
    found, cofactor = primes.trial_division(n)
    reached = primes._PRIMES[-1]
    monkeypatch.setattr(primes, "_PRIMES", [2, 3])
    assert (found, cofactor, reached) == _generator_trial_division(n)
