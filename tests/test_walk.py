"""The period walk of recorded powers, checked against the letter-by-letter
walk it replaces, which stays as ``FiniteQuotient._walk``: the coset it
reaches, the non-tree crossings it counts (checked also against
Reidemeister-Schreier rewriting), and the verbal queries built on it, which
must answer for a long power without reading its letters."""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from largequot.quotients import reidemeister_schreier
from largequot.series import embed, unit_image_quotient
from largequot.verbal import build_series
from largequot.words import Word, parse_word, power
from oracles import mod_abelianization

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


# the quotients of the long-power test below, by name
LONG = {
    "mod_ab(2,7)": lambda: mod_abelianization(2, 7),
    "unit(3,2,4)": lambda: unit_image_quotient(3, 2, 4),
    "unit(2,2,5)": lambda: unit_image_quotient(2, 2, 5),
}


@pytest.mark.parametrize("make", [*SMALL.values(), *LONG.values(),
                                  lambda: _levels()[0].parent_quotient,
                                  lambda: _levels()[1].parent_quotient])
def test_schreier_tables_match_the_tree_edge_set_oracle(make, schreier_tables_oracle):
    q = make()
    assert (q.schreier_generators(), q.crossing_table()) == schreier_tables_oracle(q)


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
    """Letters that fail the test when the walk reads them, planted where a
    power keeps its letters once they are spelled out."""

    def __iter__(self):
        raise AssertionError("the walk read the power's letters")

    def __getitem__(self, key):
        raise AssertionError("the walk read the power's letters")


@pytest.mark.parametrize("make", LONG.values())
@pytest.mark.parametrize("n", [10**5, -(10**5 + 1)])
def test_long_powers_are_walked_without_reading_their_letters(make, n):
    q = make()
    w = parse_word("babaB", 2)
    p = power(w, n)
    coset = q._walk(0, p.letters)
    order = _letter_order(q, p.letters)
    p._letters = _Unreadable(p.letters)
    assert q.coset_of(p) == coset
    assert q.kernel_contains(p) == (coset == 0)
    assert q.image_order(p) == order


def _period(q, w, n):
    """Passes of the recorded core of power(w, n) before the walk returns.

    The quotients are groups, so this is the core's image order from every
    start coset."""
    _, core, _ = power(w, n).power_record
    return q.image_order(Word(q.rank, core)) if core else 1


def _exponents_around_the_period(q, w):
    period = _period(q, w, 1)
    return sorted({n for k in (period - 1, period, period + 1, 2 * period + 3, 1)
                   for n in (k, -k) if n})


COUNTED_CASES = [
    ([], [(1, 1)], 1),
    ([(2, 1)], [(1, 1), (2, 1)], 2),
    ([(1, -1), (3, 1)], [(2, 1), (1, 1), (3, -1)], 1),
]


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("case", COUNTED_CASES)
def test_period_walk_counts_match_letter_walk_counts(name, case):
    q = _quotient(name)
    w = _word(q.rank, case)
    for n in _exponents_around_the_period(q, w):
        p = power(w, n)
        for c in range(q.order):
            fast, slow = {}, {}
            assert q.walk(c, p, fast) == q._walk(c, p.letters, slow)
            assert fast == slow, (name, case, n, c)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SMALL)), CONJUGATED_POWERS, st.integers(-40, 40))
def test_period_walk_counts_match_letter_walk_counts_drawn(name, case, n):
    q = _quotient(name)
    p = power(_word(q.rank, case), n)
    for c in range(q.order):
        fast, slow = {}, {}
        assert q.walk(c, p, fast) == q._walk(c, p.letters, slow)
        assert fast == slow


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("case", COUNTED_CASES)
def test_kernel_word_counts_are_rewritten_exponent_sums(name, case):
    q = _quotient(name)
    w = _word(q.rank, case)
    order = q.image_order(w)
    for n in (order, 2 * order + order * _period(q, w, 1), -order):
        p = power(w, n)
        counts = {}
        assert q.walk(0, p, counts) == 0
        relator, = reidemeister_schreier(q, [p]).relators
        sums = relator.exponent_sums()
        assert len(sums) == len(q.schreier_generators())
        assert [counts.get(i, 0) for i in range(len(sums))] == list(sums)
        # image_order threads the counts of its one closed walk
        counted = {}
        assert q.image_order(p, counted) == 1
        assert counted == counts


# levels whose parent tables are F/gamma_1 over (2, 3), order 4, and
# F/gamma_2 over (2, 2, 2), order 128
def _levels():
    return [build_series((2, 3), 2, 2)[1], build_series((2, 2, 2), 2, 3)[2]]


def _answers(level, w):
    try:
        vector = level.component_vector(w)
    except ValueError:
        vector = "outside"
    return level.member(w), level.order_mod(w), vector


@pytest.mark.parametrize("text", ["a", "ab", "babaB", "aabAb"])
def test_verbal_queries_agree_on_powers_and_plain_words(text):
    for level in _levels():
        w = parse_word(text, 2)
        for n in (1, 2, 3, 4, 6, 8, 12, 16, 24, -2, -6, -9):
            p = power(w, n)
            assert p.power_record is not None
            assert _answers(level, p) == _answers(level, Word(2, p.letters)), \
                (level.depth, text, n)


@pytest.mark.parametrize("n", [10**5, -(10**5 + 1)])
def test_verbal_queries_on_long_powers_read_no_letters(n):
    for level in _levels():
        p = power(parse_word("babaB", 2), n)
        expected = _answers(level, Word(2, p.letters))
        p._letters = _Unreadable(p.letters)
        assert _answers(level, p) == expected


def test_verbal_queries_reject_a_word_of_another_rank():
    for level in _levels():
        for w in (parse_word("ab", 3), power(parse_word("abc", 3), 4)):
            with pytest.raises(ValueError, match="rank mismatch"):
                level.member(w)
            with pytest.raises(ValueError, match="rank mismatch"):
                level.order_mod(w)
            with pytest.raises(ValueError, match="rank mismatch"):
                level.component_vector(w)


# a power whose letters could never be spelled out: 3 * 10^30 + 2 of them
HUGE = 10**30


@pytest.mark.parametrize("n", [HUGE, -HUGE - 1])
def test_huge_powers_are_answered_without_spelling_their_letters(n):
    w = parse_word("babaB", 2)
    p = power(w, n)
    # __len__() and not len(), which refuses lengths past sys.maxsize
    assert p.__len__() == 2 + 3 * abs(n)
    assert p == power(w, n) and p != power(w, n + 1)
    assert len(power(w, 10**5)) == 2 + 3 * 10**5
    t, _, count = p.power_record
    for make in LONG.values():
        q = make()
        o = q.image_order(w)
        # the image of w^n depends only on n mod o
        small = Word(2, power(w, n % o).letters)
        assert q.kernel_contains(p) == q.kernel_contains(small)
        assert q.image_order(p) == q.image_order(small)
        for k in (HUGE, -3):
            nested = power(p, k)
            assert nested.power_record[::2] == (t, count * abs(k))
            assert q.coset_of(nested) == q.coset_of(power(small, k))
            assert nested._letters is None
    for level in _levels():
        small = Word(2, power(w, n % level.order_mod(w)).letters)
        assert level.member(p) == level.member(small)
        assert level.order_mod(p) == level.order_mod(small)
    for modulus in (None, 2, 5):
        assert embed(p, 4, modulus) == embed(w, 4, modulus).power(n)
    assert p._letters is None
