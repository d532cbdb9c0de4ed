"""The period walk of recorded powers, checked against the letter-by-letter
walk it replaces, which stays as ``FiniteQuotient._walk``."""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from largequot.quotients import mod_abelianization
from largequot.series import unit_image_quotient
from largequot.verbal import build_series
from largequot.words import Word, parse_word, power

# every start coset is walked for these; orders 8 to 512
SMALL = {
    "mod_ab(2,6)": lambda: mod_abelianization(2, 6),
    "mod_ab(3,2)": lambda: mod_abelianization(3, 2),
    "mod_ab(1,7)": lambda: mod_abelianization(1, 7),
    "unit(2,2,4)": lambda: unit_image_quotient(2, 2, 4),
    "unit(3,2,3)": lambda: unit_image_quotient(3, 2, 3),
    "unit(2,3,3)": lambda: unit_image_quotient(2, 3, 3),
    # F/gamma_2 over (2, 2): the mod-2 cover of (Z/2)^2, order 128
    "gamma_2(2,2)": lambda: build_series((2, 2, 2), 2, 3)[2].parent_quotient,
}


@functools.lru_cache(maxsize=None)
def _quotient(name):
    if name == "unit(2,2,5)":
        return unit_image_quotient(2, 2, 5)
    return SMALL[name]()


def _letters(max_size):
    # generators 1..3, folded into the quotient's rank when the word is built
    return st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from((1, -1))),
        max_size=max_size,
    )


# w = t * c^k * t^-1 from raw letters: a conjugator t, possibly nonempty,
# and a core that may be a proper power (k > 1) or trivial
CONJUGATED_POWERS = st.tuples(_letters(3), _letters(3), st.integers(1, 3))


def _word(rank, case):
    t_letters, c_letters, k = case
    fold = lambda letters: Word(rank, [((g - 1) % rank + 1, e) for g, e in letters])
    t = fold(t_letters)
    return t * power(fold(c_letters), k) * t.inverse()


def _letter_order(q, letters):
    """Image order by repeated letter-by-letter walks (the oracle)."""
    c = q._walk(0, letters)
    n = 1
    while c != 0:
        c = q._walk(c, letters)
        n += 1
    return n


def _check_queries(q, w, n, starts):
    p = power(w, n)
    assert q.coset_of(p) == q._walk(0, p.letters)
    assert q.kernel_contains(p) == (q._walk(0, p.letters) == 0)
    assert q.image_order(p) == _letter_order(q, p.letters)
    for c in starts:
        assert q.walk(c, p) == q._walk(c, p.letters), (c, w, n)


EXPONENTS = st.integers(-3000, 3000)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SMALL)), CONJUGATED_POWERS, EXPONENTS)
@example("unit(2,2,4)", ([(2, 1)], [(1, 1), (2, 1)], 2), 0)
@example("unit(2,2,4)", ([(2, 1)], [(1, 1), (2, 1)], 2), 1)
@example("unit(2,2,4)", ([(2, 1)], [(1, 1), (2, 1)], 2), -1)
@example("mod_ab(1,7)", ([], [(1, 1)], 3), 3000)
@example("unit(3,2,3)", ([], [], 1), 5)
def test_period_walk_matches_letter_walk_from_every_coset(name, case, n):
    q = _quotient(name)
    _check_queries(q, _word(q.rank, case), n, range(q.order))


@settings(max_examples=40, deadline=None)
@given(CONJUGATED_POWERS, EXPONENTS,
       st.lists(st.integers(0, 2**13 - 1), min_size=1, max_size=8))
@example(([], [(1, 1), (2, 1)], 2), 3000, [0, 8191])
@example(([(2, 1)], [(1, -1)], 2), -3000, [1, 4096])
@example(([], [], 1), 7, [5])
def test_period_walk_matches_letter_walk_on_order_2_13(case, n, starts):
    # 2^13 starts times a 10^4-letter walk is seconds per example, so the
    # start cosets are drawn here; the quotients above cover every start
    q = _quotient("unit(2,2,5)")
    assert q.order == 2**13
    _check_queries(q, _word(2, case), n, starts)


@given(CONJUGATED_POWERS, st.integers(-50, 50))
def test_equality_and_hash_ignore_the_record(case, n):
    p = power(_word(2, case), n)
    plain = Word(2, p.letters)
    assert plain.power_record is None
    assert p == plain
    assert hash(p) == hash(plain)


def test_only_power_sets_the_record():
    w = parse_word("babaB", 2)
    p = power(w, 5)
    assert p.power_record == (((2, 1),), ((1, 1), (2, 1), (1, 1)), 5)
    assert power(w, -5).power_record == (((2, 1),), ((1, -1), (2, -1), (1, -1)), 5)
    assert power(w, 0).power_record is None
    for other in (w, p * w, p.inverse(), parse_word(str(p), 2),
                  Word(2, p.letters), Word.identity(2)):
        assert other.power_record is None


class _Unreadable(tuple):
    """Letters that fail the test when the walk reads them."""

    def __iter__(self):
        raise AssertionError("the walk read the power's letters")

    def __getitem__(self, key):
        raise AssertionError("the walk read the power's letters")


@pytest.mark.parametrize("make", [
    lambda: mod_abelianization(2, 7),
    lambda: unit_image_quotient(3, 2, 4),
    lambda: unit_image_quotient(2, 2, 5),
])
@pytest.mark.parametrize("n", [10**5, -(10**5 + 1)])
def test_long_powers_are_walked_without_reading_their_letters(make, n):
    q = make()
    w = parse_word("babaB", 2)
    p = power(w, n)
    coset = q._walk(0, p.letters)
    order = _letter_order(q, p.letters)
    p.letters = _Unreadable(p.letters)
    assert q.coset_of(p) == coset
    assert q.kernel_contains(p) == (coset == 0)
    assert q.image_order(p) == order
