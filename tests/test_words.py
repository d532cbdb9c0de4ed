import functools
import random
import re
import time
import tracemalloc
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from largequot import words
from largequot.quotients import lemma0_conjugates
from largequot.series import unit_image_quotient
from largequot.words import (
    Word,
    _alphabet,
    _cyclic_split,
    _reduce_letters,
    indexed_word,
    parse_word,
    power,
    random_reduced_indices,
    random_reduced_sample,
    random_reduced_word,
    shortlex_words,
)


# -- differential tests: each operation against the reducing constructor ----


@st.composite
def raw_words(draw, count):
    """A rank in 1..3 and ``count`` unreduced letter lists over it."""
    rank = draw(st.integers(1, 3))
    letter = st.tuples(st.integers(1, rank), st.sampled_from((1, -1)))
    return rank, [draw(st.lists(letter, max_size=12)) for _ in range(count)]


def raw_inverse(letters):
    return [(g, -e) for g, e in reversed(letters)]


def assert_reduced(w):
    assert type(w.letters) is tuple
    assert _reduce_letters(w.letters) == w.letters


@given(raw_words(2))
def test_mul_matches_reducing_constructor(case):
    rank, (u_raw, v_raw) = case
    u, v = Word(rank, u_raw), Word(rank, v_raw)
    product = u * v
    assert product == Word(rank, u.letters + v.letters)
    assert product == Word(rank, u_raw + v_raw)
    assert_reduced(product)


@given(raw_words(1), st.integers(-6, 6))
def test_power_matches_reducing_constructor(case, n):
    rank, (g_raw,) = case
    g = Word(rank, g_raw)
    base = g.letters if n >= 0 else tuple(raw_inverse(g.letters))
    p = power(g, n)
    assert p == Word(rank, base * abs(n))
    assert_reduced(p)


@functools.lru_cache(maxsize=None)
def _unit_quotient(rank):
    return unit_image_quotient(2, rank, 3)


@settings(max_examples=150, deadline=None)
@given(raw_words(2), st.integers(-8, 8).filter(bool), st.integers(-3, 3))
def test_lazy_powers_agree_with_eager_words(case, n, k):
    rank, (g_raw, other_raw) = case
    g, other = Word(rank, g_raw), Word(rank, other_raw)
    assume(not g.is_identity)

    def lazy():
        # a fresh power for every check, its letters not yet spelled out
        p = power(g, n)
        assert p._letters is None
        return p

    t, c, count = lazy().power_record
    eager = Word(rank, t + c * count + tuple(raw_inverse(t)))
    assert eager.power_record is None
    base = g.letters if n > 0 else tuple(raw_inverse(g.letters))
    assert eager == Word(rank, base * abs(n))
    assert lazy() == eager and eager == lazy() and lazy() == lazy()
    assert not lazy() != eager
    assert hash(lazy()) == hash(eager)
    assert len(lazy()) == len(eager)
    assert str(lazy()) == str(eager) and repr(lazy()) == repr(eager)
    assert lazy().letters == eager.letters
    assert lazy().inverse() == eager.inverse()
    assert lazy() * other == eager * other
    assert other * lazy() == other * eager
    assert lazy().exponent_sums() == eager.exponent_sums()
    summed = lazy()
    summed.exponent_sums()
    assert summed._letters is None  # read off the record
    assert lazy().is_identity == eager.is_identity is False
    inner = lazy()
    nested = power(inner, k)
    assert nested == power(eager, k)
    assert nested.letters == power(eager, k).letters
    assert inner._letters is None
    if k:
        # composed records: (t, c, count * |k|), c inverted for k < 0
        core = c if k > 0 else tuple(raw_inverse(c))
        assert nested.power_record == (t, core, count * abs(k))
    q = _unit_quotient(rank)
    assert q.coset_of(lazy()) == q.coset_of(eager)


@given(raw_words(2))
def test_inverse_and_conjugate_match_reducing_constructor(case):
    rank, (g_raw, t_raw) = case
    g, t = Word(rank, g_raw), Word(rank, t_raw)
    inv = g.inverse()
    assert inv == Word(rank, raw_inverse(g_raw))
    assert_reduced(inv)
    conj = t.inverse() * g * t
    assert conj == Word(rank, raw_inverse(t_raw) + g_raw + t_raw)
    assert_reduced(conj)


@given(raw_words(1))
def test_cyclic_decomposition_recomposes(case):
    rank, (g_raw,) = case
    g = Word(rank, g_raw)
    t, c = (Word._reduced(rank, part) for part in _cyclic_split(g.letters))
    assert Word(rank, t.letters + c.letters + tuple(raw_inverse(t.letters))) == g
    assert_reduced(t)
    assert_reduced(c)
    if len(c) > 1:
        assert c.letters[0] != (c.letters[-1][0], -c.letters[-1][1])


def test_reduction_cancels_adjacent_inverses():
    w = Word(2, [(1, 1), (2, 1), (2, -1), (1, -1), (1, 1)])
    assert w.letters == ((1, 1),)
    assert str(w) == "a"


def test_reduction_of_full_cancellation_is_identity():
    w = Word(2, [(1, 1), (2, 1), (2, -1), (1, -1)])
    assert w.is_identity
    assert len(w) == 0
    assert str(w) == "1"


def test_identity_and_generator_constructors():
    e = Word.identity(3)
    a2 = Word.generator(3, 2)
    assert e.is_identity
    assert a2.letters == ((2, 1),)
    assert e * a2 == a2


def test_generator_index_out_of_range():
    with pytest.raises(ValueError):
        Word.generator(2, 3)
    with pytest.raises(ValueError):
        Word(2, [(0, 1)])


def test_constructor_rejects_bad_exponents():
    for exp in (0, 2, -2):
        with pytest.raises(ValueError):
            Word(2, [(1, exp)])


def test_mul_cancels_across_boundary():
    u = parse_word("abb", 2)
    v = parse_word("BBA", 2)
    assert (u * v).is_identity
    w = parse_word("abbA", 2) * parse_word("aB", 2)
    assert str(w) == "ab"


def test_inverse_reverses_and_flips():
    w = parse_word("abA", 2)
    assert str(w.inverse()) == "aBA"
    assert (w * w.inverse()).is_identity


def test_inverse_of_product_is_reversed_product():
    rng = random.Random(11)
    for _ in range(100):
        u = random_reduced_word(rng, 3, rng.randint(0, 8))
        v = random_reduced_word(rng, 3, rng.randint(0, 8))
        assert (u * v).inverse() == v.inverse() * u.inverse()


def test_power_matches_repeated_multiplication():
    rng = random.Random(5)
    for _ in range(60):
        w = random_reduced_word(rng, 2, rng.randint(1, 6))
        n = rng.randint(-5, 5)
        direct = Word.identity(2)
        base = w if n >= 0 else w.inverse()
        for _ in range(abs(n)):
            direct = direct * base
        assert power(w, n) == direct
        assert w**n == direct


def test_power_of_conjugate_stays_short():
    # (t c t^-1)^n reduces to t c^n t^-1: length n|c| + 2|t|, not n|w|
    t = parse_word("ba", 2)
    c = parse_word("ab", 2)
    w = t * c * t.inverse()
    assert len(w) == 6
    p = power(w, 50)
    assert len(p) == 50 * len(c) + 2 * len(t)


def test_conjugate_definition():
    # Lemma 0's conjugate set is Z = {t^-1 g^q t : t in T}
    w = parse_word("ab", 2)
    t_words, z_words = lemma0_conjugates(_unit_quotient(2), w, 4)
    assert len(t_words) > 1
    assert z_words == [
        Word(2, [*raw_inverse(t.letters), *w.letters * 4, *t.letters])
        for t in t_words]


def test_exponent_sums():
    w = parse_word("aabAB", 2)
    assert w.exponent_sums() == (1, 0)
    assert Word.identity(2).exponent_sums() == (0, 0)
    # a power's sums come from its record, whatever its length
    assert power(parse_word("abaBB", 2), -10**30).exponent_sums() == (
        -2 * 10**30, 10**30)


def test_cyclic_decomposition_roundtrip():
    rng = random.Random(3)
    for _ in range(80):
        w = random_reduced_word(rng, 2, rng.randint(0, 10))
        t, c = (Word._reduced(2, part) for part in _cyclic_split(w.letters))
        assert t * c * t.inverse() == w
        # c is cyclically reduced: first and last letters do not cancel
        if len(c) > 1:
            g1, e1 = c.letters[0]
            g2, e2 = c.letters[-1]
            assert not (g1 == g2 and e1 == -e2)


def test_parse_letter_and_indexed_syntax_agree():
    assert parse_word("aBa", 2) == parse_word("g1*g2^-1*g1", 2)
    assert parse_word("a^3", 2) == parse_word("aaa", 2)
    assert parse_word("g2^-2", 2) == parse_word("BB", 2)
    assert parse_word("1", 2).is_identity
    assert parse_word("", 2).is_identity


def test_parse_rejects_garbage_and_out_of_range():
    with pytest.raises(ValueError):
        parse_word("a$b", 2)
    with pytest.raises(ValueError):
        parse_word("c", 2)
    with pytest.raises(ValueError):
        parse_word("g3", 2)


def test_print_parse_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        w = random_reduced_word(rng, 2, rng.randint(0, 9))
        assert parse_word(str(w), 2) == w
    # indexed printing kicks in above rank 26
    w = Word.generator(27, 27) * Word.generator(27, 1).inverse()
    assert parse_word(str(w), 27) == w


def test_equality_includes_rank():
    assert parse_word("a", 2) != parse_word("a", 3)
    assert hash(parse_word("ab", 2)) == hash(parse_word("ab", 2))


def test_mixed_rank_multiplication_rejected():
    with pytest.raises(ValueError):
        parse_word("a", 2) * parse_word("a", 3)


def test_shortlex_order_and_completeness():
    words = list(islice(shortlex_words(2), 60))
    # nontrivial, reduced, strictly shortlex-increasing, no duplicates
    assert len(set(words)) == len(words)
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)
    assert [str(w) for w in words[:4]] == ["a", "b", "A", "B"]
    # all 4*3^(n-1) reduced words of length n appear
    by_len = {}
    for w in words:
        by_len.setdefault(len(w), []).append(w)
    assert len(by_len[1]) == 4
    assert len(by_len[2]) == 12


def test_random_reduced_word_is_reduced_and_has_length():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(0, 12)
        w = random_reduced_word(rng, 2, n)
        assert len(w) == n
        assert Word(2, w.letters) == w  # re-reduction changes nothing


# -- the successor table against the per-letter rules it replaced ----------
# The oracles are the filtering sampler, the filtering shortlex generator and
# the two-loop parser that the table and the single token loop replace.


def _oracle_alphabet(rank):
    return [(g, 1) for g in range(1, rank + 1)] + [(g, -1) for g in range(1, rank + 1)]


def _oracle_random_reduced_word(rng, rank, length):
    if length == 0:
        return Word.identity(rank)
    alphabet = _oracle_alphabet(rank)
    letters = [rng.choice(alphabet)]
    while len(letters) < length:
        prev = letters[-1]
        choices = [l for l in alphabet if not (l[0] == prev[0] and l[1] == -prev[1])]
        letters.append(rng.choice(choices))
    return Word(rank, letters)


def _oracle_shortlex_words(rank):
    alphabet = _oracle_alphabet(rank)
    frontier = [()]
    while True:
        next_frontier = []
        for prefix in frontier:
            for letter in alphabet:
                if prefix and prefix[-1][0] == letter[0] \
                        and prefix[-1][1] == -letter[1]:
                    continue
                word = prefix + (letter,)
                yield Word(rank, word)
                next_frontier.append(word)
        frontier = next_frontier


_ORACLE_INDEXED = re.compile(r"g(\d+)(?:\^(-?\d+))?")
_ORACLE_LETTER = re.compile(r"([a-zA-Z])(?:\^(-?\d+))?")


def _oracle_parse_word(text, rank):
    stripped = re.sub(r"\s+", "", text)
    if stripped in ("", "1"):
        return Word.identity(rank)
    letters = []
    if re.search(r"g\d", stripped):
        body = stripped.replace("*", "")
        pos = 0
        while pos < len(body):
            m = _ORACLE_INDEXED.match(body, pos)
            if not m:
                raise ValueError(f"cannot parse indexed word at {body[pos:]!r}")
            gen = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) is not None else 1
            if exp != 0:
                letters.extend([(gen, 1 if exp > 0 else -1)] * abs(exp))
            pos = m.end()
    else:
        pos = 0
        while pos < len(stripped):
            m = _ORACLE_LETTER.match(stripped, pos)
            if not m:
                raise ValueError(f"cannot parse word at {stripped[pos:]!r}")
            ch = m.group(1)
            if ch.islower():
                gen, sign = ord(ch) - ord("a") + 1, 1
            else:
                gen, sign = ord(ch) - ord("A") + 1, -1
            exp = int(m.group(2)) if m.group(2) is not None else 1
            if exp < 0:
                sign, exp = -sign, -exp
            letters.extend([(gen, sign)] * exp)
            pos = m.end()
    return Word(rank, letters)


@given(st.integers(0, 2**32), st.integers(1, 4),
       st.lists(st.integers(0, 12), max_size=6))
def test_sampler_matches_the_filtering_oracle(seed, rank, lengths):
    fast, slow = random.Random(seed), random.Random(seed)
    for n in lengths:
        w = random_reduced_word(fast, rank, n)
        assert w == _oracle_random_reduced_word(slow, rank, n)
        assert_reduced(w)
    # the same draws, so the generator is left in the same state
    assert fast.getstate() == slow.getstate()


def _choice_random_reduced_word(rng, rank, length):
    # the former body, which drew through rng.choice from a successor table
    if length == 0:
        return Word.identity(rank)
    alphabet = tuple(_oracle_alphabet(rank))
    after = {(g, e): tuple(letter for letter in alphabet if letter != (g, -e))
             for g, e in alphabet}
    letters = [rng.choice(alphabet)]
    for _ in range(length - 1):
        letters.append(rng.choice(after[letters[-1]]))
    return Word._reduced(rank, tuple(letters))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_inlined_draws_pin_the_choice_stream(rank):
    # the benchmark's pools and the frozen sampler histograms are built on
    # this stream: every word and the generator's state must stay the same
    for seed in range(60):
        fast, slow = random.Random(seed), random.Random(seed)
        for n in list(range(11)) * 3:
            assert random_reduced_word(fast, rank, n).letters == \
                _choice_random_reduced_word(slow, rank, n).letters
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_indices_spell_the_sampled_words(rank):
    for seed in range(30):
        fast, slow = random.Random(seed), random.Random(seed)
        for n in list(range(11)) * 2:
            indices = random_reduced_indices(fast, rank, n)
            w = random_reduced_word(slow, rank, n)
            assert indexed_word(rank, indices) == w
        assert fast.getstate() == slow.getstate()


class _NoDraws(random.Random):
    """A generator whose every draw fails: a refusal must come first."""

    def getrandbits(self, k):
        raise AssertionError(f"drew getrandbits({k}) before refusing")


# (draw, its arguments after the generator, the whole refusal)
KERNEL_REFUSALS = [
    *[(draw, (rank, *rest), f"rank must be a positive integer, got {rank!r}")
      for rank in (0, -1, True)
      for draw, rest in ((random_reduced_indices, (3,)),
                         (random_reduced_word, (0,)),
                         (random_reduced_word, (3,)),
                         (random_reduced_sample, (1, 8)))],
    *[(draw, (2, length), f"length must be a nonnegative integer, got {length!r}")
      for length in (-1, 2.0)
      for draw in (random_reduced_indices, random_reduced_word)],
    *[(random_reduced_sample, (2, 5, max_length),
       f"max_length must be a positive integer, got {max_length!r}")
      for max_length in (0, 8.0)],
    (random_reduced_sample, (2, -1, 8), "count must be a nonnegative integer, got -1"),
]


@pytest.mark.parametrize("draw, args, refusal", [
    pytest.param(*case, id=f"{case[0].__name__}{case[1]}") for case in KERNEL_REFUSALS])
def test_the_draw_kernel_refuses_before_it_draws(draw, args, refusal):
    # a rank or max_length of 0 asks for a draw below 0, which never ends;
    # a negative or float length used to give a word or fail mid-draw
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        draw(_NoDraws(0), *args)
    assert str(err.value) == refusal
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=re.escape(refusal)):
        draw(rng, *args)
    assert rng.getstate() == state
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("rank", [0, -1, True, 2.0, [2], "3"])
def test_words_refuse_a_rank_below_one_or_not_an_int(rank):
    # True used to parse "ab" into a word of rank True; the unhashable [2]
    # must reach the same check, not the parse memo
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        Word(rank, ((1, 1),))
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        parse_word("ab", rank)


def test_parse_word_keeps_one_word_per_text_and_rank():
    assert words._parse_cached.cache_parameters() == {
        "maxsize": 256, "typed": True}
    w = parse_word("abA^2", 2)
    assert parse_word("abA^2", 2) is w
    assert parse_word("abA^2", 3) is not w

    class Text(str):
        pass

    # any other type is parsed afresh, to the same word
    again = parse_word(Text("abA^2"), 2)
    assert again == w and again is not w


@pytest.mark.parametrize("rank", [0, -1, True, 2.0, "3"])
def test_shortlex_words_refuses_a_rank_below_one_or_not_an_int(rank):
    # an empty alphabet leaves an empty frontier, walked forever
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        next(shortlex_words(rank))


def test_a_large_rank_builds_no_successor_table():
    # a (2r) x (2r - 1) table at r = 2000 holds 16 million entries
    _alphabet.cache_clear()
    tracemalloc.start()
    try:
        w = random_reduced_word(random.Random(0), 2000, 5)
        first = next(shortlex_words(2000))
        sample = random_reduced_sample(random.Random(0), 2000, 3, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w) == 5 and first == Word(2000, [(1, 1)])
    assert len(sample) == 3 and all(1 <= len(key) <= 5 for key in sample)
    assert peak < 3 * 2**20, peak


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_shortlex_matches_the_filtering_oracle(rank):
    # every reduced word of length 1 to 4, and the first of length 5
    count = 1 + sum(2 * rank * (2 * rank - 1) ** (n - 1) for n in range(1, 5))
    words = list(islice(shortlex_words(rank), count))
    assert words == list(islice(_oracle_shortlex_words(rank), count))
    assert [len(w) for w in words[-2:]] == [4, 5]
    for w in words:
        assert_reduced(w)


def _parse_outcome(text, rank, parse):
    try:
        return parse(text, rank).letters
    except ValueError as exc:
        return str(exc)


_EXPONENTS = st.sampled_from(["", "", "^0", "^1", "^2", "^-1", "^-3", "^12"])


@st.composite
def word_texts(draw):
    """Text in either form: exponents 0 and negative, '*' and whitespace
    between tokens, and now and then a malformed token."""
    if draw(st.booleans()):
        head = st.builds(lambda g: f"g{g}", st.integers(0, 5))
    else:
        head = st.sampled_from("abcdABCDgzZ")
    token = st.builds(str.__add__, head, _EXPONENTS)
    garbage = st.sampled_from(["^", "^-", "-", "1", "$", "g", "x1", "^a", "**"])
    tokens = draw(st.lists(st.one_of(token, garbage), max_size=6))
    seps = draw(st.lists(st.sampled_from(["", "", "*", " ", "\t", " * "]),
                         min_size=len(tokens), max_size=len(tokens)))
    return "".join(sep + tok for sep, tok in zip(seps, tokens))


@settings(max_examples=400)
@given(word_texts(), st.integers(1, 4))
# letter bodies without exponents take one lookup per character; any other
# character sends the body to the token loop
@example("abBAb", 2)
@example("a bZ", 2)
@example("ab\u00e9", 2)
@example("ab^2", 2)
def test_parse_matches_the_two_loop_oracle(text, rank):
    assert _parse_outcome(text, rank, parse_word) == \
        _parse_outcome(text, rank, _oracle_parse_word), text


def test_the_text_forms_at_their_edges():
    # letter form stops at rank 26; the indexed form prints the identity as
    # 1 and folds a run of one letter into a power
    with pytest.raises(ValueError) as err:
        Word(27, [(1, 1)]).letter_str()
    assert str(err.value) == "letter form only covers ranks up to 26"
    assert Word(27).indexed_str() == "1"
    assert Word(27, [(1, 1), (1, 1)]).indexed_str() == "g1^2"
    assert str(Word(27, [(1, -1), (1, -1), (2, 1)])) == "g1^-2*g2"
