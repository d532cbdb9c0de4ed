import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largequot import series, words
from largequot.errors import CapExceeded
from largequot.largeness import lemma_fi_bound
from largequot.series import (
    TruncSeries,
    embed,
    generator_image,
    magnus_valuation,
    unit_image_quotient,
    unit_order,
)
from largequot.words import Word, parse_word, power, random_reduced_word
from oracles import magnus_valuation as embedded_valuation
from oracles import neumann_inverse, square_and_multiply


def naive_mul(s, t):
    """Oracle: textbook convolution on raw dicts, no sparsity tricks."""
    out = {}
    for m1, c1 in s.terms():
        for m2, c2 in t.terms():
            mono = m1 + m2
            if len(mono) >= s.degree_bound:
                continue
            out[mono] = out.get(mono, 0) + c1 * c2
    return TruncSeries(s.rank, s.degree_bound, s.modulus, out)


def random_series(rng, rank, degree_bound, modulus, terms=6):
    data = {}
    for _ in range(terms):
        mono = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, degree_bound - 1)))
        data[mono] = rng.randint(-4, 4)
    return TruncSeries(rank, degree_bound, modulus, data)


def test_mul_matches_naive_oracle():
    rng = random.Random(19)
    for _ in range(150):
        modulus = rng.choice([None, 2, 3, 5])
        s = random_series(rng, 2, 5, modulus)
        t = random_series(rng, 2, 5, modulus)
        assert s.mul(t) == naive_mul(s, t)


def test_mul_is_noncommutative():
    x1 = TruncSeries(2, 4, None, {(1,): 1})
    x2 = TruncSeries(2, 4, None, {(2,): 1})
    assert x1.mul(x2) != x2.mul(x1)
    assert x1.mul(x2).coefficient((1, 2)) == 1
    assert x1.mul(x2).coefficient((2, 1)) == 0


def test_truncation_drops_degree_bound_and_above():
    x = TruncSeries(1, 3, None, {(1,): 1})
    sq = x.mul(x)
    assert sq.coefficient((1, 1)) == 1
    # the degree 3 monomial dies at bound 3
    assert sq.mul(x) == TruncSeries(1, 3, None)


def test_coefficients_normalized_mod_p():
    s = TruncSeries(1, 3, 3, {(): 4, (1,): -1})
    assert s.constant_term == 1
    assert s.coefficient((1,)) == 2
    assert TruncSeries(1, 3, 3, {(1,): 3}) == TruncSeries(1, 3, 3)


def test_addition_and_negation():
    rng = random.Random(23)
    for _ in range(50):
        s = random_series(rng, 2, 4, None)
        t = random_series(rng, 2, 4, None)
        assert (s + t) - t == s
        assert s + (-s) == TruncSeries(2, 4, None)


def test_one_is_multiplicative_identity():
    one = TruncSeries.one(2, 4, 5)
    rng = random.Random(2)
    s = random_series(rng, 2, 4, 5)
    assert one.mul(s) == s
    assert s.mul(one) == s


def test_power_square_and_multiply():
    s = TruncSeries.one(2, 5, None) + TruncSeries(2, 5, None, {(1,): 1})
    p = s.power(4)
    # binomial coefficients on the single-variable part
    assert p.coefficient(()) == 1
    assert p.coefficient((1,)) == 4
    assert p.coefficient((1, 1)) == 6
    assert p.coefficient((1, 1, 1)) == 4
    assert p.coefficient((1, 1, 1, 1)) == 1
    assert s.power(0).is_one


def test_inverse_neumann_sum():
    rng = random.Random(31)
    for modulus in (None, 2, 7):
        for _ in range(30):
            s = random_series(rng, 2, 5, modulus)
            u = TruncSeries.one(2, 5, modulus) + s - TruncSeries(
                2, 5, modulus, {(): s.constant_term}
            )
            assert u.constant_term == 1
            assert u.inverse() == neumann_inverse(u)
            assert u.mul(u.inverse()).is_one
            assert u.inverse().mul(u).is_one


def test_inverse_requires_constant_term_one():
    s = TruncSeries(2, 4, None, {(): 2})
    with pytest.raises(ValueError):
        s.inverse()


def test_negative_power_is_inverse_power():
    u = TruncSeries.one(2, 4, 3) + TruncSeries(2, 4, 3, {(2,): 1})
    assert u.power(-2) == u.inverse().power(2)
    assert u.power(-1).mul(u).is_one


HUGE_EXPONENTS = (2**70 + 3, -3**40)


@pytest.mark.parametrize("modulus", [None, 2, 4, 6, 7])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_binomial_power_matches_square_and_multiply(rank, modulus):
    rng = random.Random(rank * 10 + (modulus or 0))
    for bound in range(1, 7):
        u = random_series(rng, rank, bound, modulus, terms=3)
        u -= TruncSeries(rank, bound, modulus, {(): u.constant_term})
        exponents = list(range(-12, 13)) + ([*HUGE_EXPONENTS] if bound <= 4 else [])
        for c in (1, 0, 2, 3):
            s = u + TruncSeries(rank, bound, modulus, {(): c})
            for n in exponents:
                if s.constant_term != 1 and (
                        n < 0 or (modulus is None and n > 12)):
                    # n < 0 needs constant term 1, and over Z c^(2^70)
                    # has no room in memory
                    continue
                assert s.power(n) == square_and_multiply(s, n), (str(s), n)
            if s.constant_term != 1:
                with pytest.raises(ValueError) as err:
                    s.power(-1)
                assert str(err.value) == ("series inverse requires constant "
                                          f"term 1, got {s.constant_term}")


def test_embed_generator_and_inverse():
    a = parse_word("a", 2)
    s = embed(a, 3)
    assert str(s) == "1 + x1"
    t = embed(a.inverse(), 3, 3)
    assert str(t) == "1 + 2*x1 + x1x1"
    # over the integers the inverse image carries alternating signs
    u = embed(a.inverse(), 4)
    assert [u.coefficient(m) for m in [(), (1,), (1, 1), (1, 1, 1)]] == [1, -1, 1, -1]


@pytest.mark.parametrize("modulus", [None, 2, 3, 4, 5])
def test_inverse_generator_image_is_the_neumann_inverse(modulus):
    # the inverse letter's image is the binomial power; the Neumann sum is
    # its oracle
    for r in (1, 2, 3):
        for l in range(1, 13):
            for g in range(1, r + 1):
                forward = generator_image(r, l, modulus, g, 1)
                backward = generator_image(r, l, modulus, g, -1)
                assert backward == neumann_inverse(forward)
                assert (forward * backward).is_one


def test_embed_commutator():
    c = parse_word("ABab", 2)
    assert str(embed(c, 3, 2)) == "1 + x1x2 + x2x1"
    s = embed(c, 3)
    assert s.coefficient((1, 2)) == 1
    assert s.coefficient((2, 1)) == -1


def test_embed_is_multiplicative():
    rng = random.Random(41)
    from largequot.words import random_reduced_word

    for _ in range(40):
        u = random_reduced_word(rng, 2, rng.randint(0, 5))
        v = random_reduced_word(rng, 2, rng.randint(0, 5))
        l, p = rng.choice([(3, None), (4, 2), (5, 3)])
        assert embed(u * v, l, p) == embed(u, l, p).mul(embed(v, l, p))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1, -1))),
                min_size=1, max_size=6),
       st.integers(-12, 12), st.integers(1, 5),
       st.sampled_from([None, 2, 3, 5, 4]))
def test_embed_of_a_power_matches_the_letter_by_letter_embed(
        rank, raw, n, l, modulus):
    g = Word(rank, [((gen - 1) % rank + 1, e) for gen, e in raw])
    p = power(g, n)
    # the oracle embeds the spelled-out letters of a plain word
    spelled = Word(rank, p.letters)
    assert spelled.power_record is None
    assert embed(power(g, n), l, modulus) == embed(spelled, l, modulus)


def test_embed_word_inverse_gives_series_inverse():
    rng = random.Random(43)
    from largequot.words import random_reduced_word

    for _ in range(30):
        w = random_reduced_word(rng, 2, rng.randint(1, 6))
        s = embed(w, 4, None)
        assert embed(w.inverse(), 4, None) == s.inverse()


def test_mod_p_embed_is_reduction_of_integer_embed():
    rng = random.Random(47)
    from largequot.words import random_reduced_word

    for _ in range(40):
        w = random_reduced_word(rng, 2, rng.randint(0, 6))
        p = rng.choice([2, 3, 5])
        over_z = embed(w, 4, None)
        reduced = TruncSeries(
            2, 4, p, {m: c for m, c in over_z.terms()}
        )
        assert embed(w, 4, p) == reduced


def test_unit_order_examples():
    a = parse_word("a", 2)
    assert unit_order(embed(a, 4, 2)) == 4
    assert unit_order(embed(a, 3, 2)) == 4
    assert unit_order(embed(a, 2, 3)) == 3
    assert unit_order(TruncSeries.one(2, 5, 3)) == 1


def test_unit_order_requires_prime_modulus_and_unit():
    with pytest.raises(ValueError):
        unit_order(embed(parse_word("a", 2), 3, None))
    with pytest.raises(ValueError):
        unit_order(TruncSeries(1, 3, 2, {(): 0}))
    # 1 + x1 has order 8 over Z/4 and 12 over Z/6 at l = 3; neither the
    # valuation formula nor p-th powering gives that, so both are refused
    for modulus in (4, 6):
        with pytest.raises(ValueError, match="prime modulus"):
            unit_order(embed(parse_word("a", 2), 3, modulus))


def test_unit_order_is_the_exact_order():
    rng = random.Random(53)
    from largequot.words import random_reduced_word

    for _ in range(30):
        w = random_reduced_word(rng, 2, rng.randint(1, 4))
        p, l = rng.choice([(2, 3), (2, 4), (3, 3), (5, 2)])
        s = embed(w, l, p)
        n = unit_order(s)
        assert s.power(n).is_one
        if n > 1:
            # order is exact: the maximal proper divisor power is not 1
            assert not s.power(n // p).is_one


def test_unit_image_quotient_orders():
    assert unit_image_quotient(2, 2, 2).order == 4
    assert unit_image_quotient(2, 2, 3).order == 32
    assert unit_image_quotient(3, 2, 2).order == 9
    q = unit_image_quotient(2, 2, 2)
    assert q.kind == "magnus_unit"
    assert q.params == {"modulus": 2, "rank": 2, "degree_bound": 2}


def test_unit_image_quotient_cap():
    with pytest.raises(CapExceeded):
        unit_image_quotient(2, 2, 3, cap=16)


def test_term_cap_on_mul(monkeypatch):
    s = TruncSeries(
        2, 8, None, {(1,) * k + (2,) * j: 1 for k in range(4) for j in range(4)}
    )
    monkeypatch.setattr(series, "DEFAULT_TERM_CAP", 10)
    with pytest.raises(CapExceeded):
        s.mul(s)


def test_parse_print_roundtrip():
    rng = random.Random(59)
    for _ in range(80):
        modulus = rng.choice([None, 2, 7])
        s = random_series(rng, 2, 5, modulus)
        assert TruncSeries.parse(str(s), 2, 5, modulus) == s


def test_parse_accepts_middle_dot_product():
    s = TruncSeries.parse("1 + 2·x1x2", 2, 4, None)
    assert s.coefficient((1, 2)) == 2


def test_incompatible_series_rejected():
    a = TruncSeries.one(2, 4, None)
    b = TruncSeries.one(2, 5, None)
    c = TruncSeries.one(2, 4, 3)
    for other in (b, c):
        with pytest.raises(ValueError):
            a.mul(other)


def test_valuation():
    assert TruncSeries(2, 5, None).valuation() == 5
    assert TruncSeries.one(2, 5, None).valuation() == 0
    x = TruncSeries(2, 5, None, {(1,): 1})
    assert x.mul(x).valuation() == 2


@st.composite
def series_pairs(draw):
    """Two series of one shape, with room for cancellation mod p."""
    rank = draw(st.integers(1, 3))
    bound = draw(st.integers(1, 5))
    modulus = draw(st.sampled_from([None, 2, 3, 4, 5]))
    monomials = st.lists(st.integers(1, rank), max_size=bound - 1).map(tuple)

    def series():
        terms = draw(st.dictionaries(monomials, st.integers(-6, 6), max_size=8))
        return TruncSeries(rank, bound, modulus, terms)

    return series(), series()


@settings(max_examples=100, deadline=None)
@given(series_pairs())
def test_product_matches_the_eagerly_built_series(pair):
    s, t = pair
    product = s.mul(t)
    eager = naive_mul(s, t)
    # hash first: the product has not sorted its terms yet
    assert hash(product) == hash(eager)
    assert product == eager
    assert str(product) == str(eager)
    assert product.terms() == eager.terms()
    assert {eager: 1}[product] == 1


@settings(max_examples=100, deadline=None)
@given(series_pairs(), st.integers(0, 12))
def test_term_cap_fires_past_the_distinct_monomial_count(pair, cap):
    s, t = pair
    # every monomial the product forms, zero coefficient or not
    formed = {m1 + m2 for m1, _ in s.terms() for m2, _ in t.terms()
              if len(m1) + len(m2) < s.degree_bound}
    # a hypothesis test takes no function-scoped fixture, so no monkeypatch
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "DEFAULT_TERM_CAP", cap)
        if len(formed) > cap:
            with pytest.raises(CapExceeded) as err:
                s.mul(t)
            assert str(err.value) == \
                f"series term count: reached {cap + 1} with cap {cap}"
        else:
            assert s.mul(t) == naive_mul(s, t)


# -- graded valuations -------------------------------------------------------


def _commutator(x, y):
    return x * y * x.inverse() * y.inverse()


def _valuation_words(rank):
    """Words of valuation 1 to 6 over Z or mod a small prime: random words,
    left-normed commutators [[a, b], ..] (v_Z is their depth), their powers
    (v_p of a p-th power is p times v_p), and products of those."""
    rng = random.Random(rank)
    gens = [Word.generator(rank, i) for i in range(1, rank + 1)]
    found = [random_reduced_word(rng, rank, rng.randint(1, 6)) for _ in range(6)]
    found += [gens[0] ** n for n in (2, 3, 4, 5)]
    if rank >= 2:
        c = gens[0]
        for depth in range(2, 7):
            c = _commutator(c, gens[(depth - 1) % rank])
            found.append(c)
        c = found[-5]
        found += [c ** 2, c ** 3, found[-4] ** 2, c * found[-4],
                  gens[0] * gens[-1] * gens[0].inverse()]
        # p^a-th powers for Lucas' theorem at p = 2 and 3, and a negative one
        found += [c ** 4, c ** 6, c ** -9, c ** 12]
    found.append(gens[0] ** -8)
    # each power again with its letters spelled out, so both routes are read
    found += [parse_word(str(w), rank) for w in found if w.power_record]
    return found


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("p", [None, 2, 3, 5])
def test_graded_valuations_match_the_embedding_oracle(rank, p):
    seen = set()
    for w in _valuation_words(rank):
        v = embedded_valuation(w, p, 8)[0]
        seen.add(v)
        # a caller's start says w's image at truncation start - 1 is 1
        for start in range(2, min(v, 6) + 2):
            for limit in sorted({1, 2, v, v + 1, 7}):
                assert magnus_valuation(w, p, limit, start) == \
                    embedded_valuation(w, p, limit, start), (str(w), limit, start)
    # at rank 1, v_Z is 1 and v_p a power of p
    assert seen >= (set(range(1, 7)) if rank > 1 else {1, p or 1})


def test_graded_valuations_embed_no_parsed_word(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a word is graded, not embedded")

    monkeypatch.setattr(series, "embed", refuse)
    c = parse_word("abABaBAb", 2)  # [[a, b], a], of valuation 3
    assert magnus_valuation(c, None, 8)[0] == 3
    assert magnus_valuation(parse_word("aa", 2), 2, 8)[0] == 2
    # a power is read off its core, graded once
    assert magnus_valuation(power(c, 2), None, 8)[0] == 3


def test_huge_powers_are_valued_without_a_product(monkeypatch):
    # each answer needs no series product, and no power spells its letters
    def refuse(*args, **kwargs):
        raise AssertionError("formed a product or spelled out a power")

    monkeypatch.setattr(TruncSeries, "mul", refuse)
    monkeypatch.setattr(words._Power, "letters", property(refuse))
    ab, commutator = parse_word("ab", 2), parse_word("abAB", 2)
    assert magnus_valuation(power(commutator, 3**5), 3, 64) == (64, None)
    for base, n, m in ((commutator, 2**20, 1), (ab, 10**30, 2)):
        with pytest.raises(CapExceeded) as err:
            lemma_fi_bound([power(base, n)], m)
        assert str(err.value) == "series truncation: reached 64 with cap 64"
    # over Z the leading part of g^n is n times g's
    n = -10**30
    assert magnus_valuation(power(ab, n), None, 64) == (
        1, TruncSeries(2, 2, None, {(): 1, (1,): n, (2,): n}))


def test_a_power_is_valued_by_lucas_theorem():
    a, c = Word.generator(2, 1), parse_word("abAB", 2)
    # (1 + x1)^12 = 1 + 3 x1^4 mod 2 at truncation 5
    assert str(magnus_valuation(a ** 12, 2, 8)[1]) == "1 + x1x1x1x1"
    # [a, b] has leading part L = x1x2 - x2x1, so [a, b]^6 = 1 + 2 L^3 mod 3
    L = TruncSeries(2, 7, 3, {(1, 2): 1, (2, 1): -1})
    cube = L * L * L
    assert magnus_valuation(c ** 6, 3, 8) == (
        6, TruncSeries.one(2, 7, 3) + cube + cube)
    with pytest.raises(ValueError) as err:
        magnus_valuation(c ** 2, 4, 8)
    assert str(err.value) == "a power's valuation needs a prime modulus, got 4"


def _read_payload(params, payload):
    """The payload reader without the memo: the type checks, then parse."""
    rank, bound, modulus = params["rank"], params["degree_bound"], params["modulus"]
    if type(rank) is not int:
        raise ValueError(f"rank must be a positive integer, got {rank!r}")
    if type(bound) is not int:
        raise ValueError(f"degree bound must be a positive integer, got {bound!r}")
    if modulus is not None and type(modulus) is not int:
        raise ValueError(
            f"modulus must be None or an integer >= 2, got {modulus!r}")
    return TruncSeries.parse(payload, rank, bound, modulus)


def _outcome(read, params, payload):
    try:
        s = read(params, payload)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return s, s.terms(), (s.rank, s.degree_bound, s.modulus)


@pytest.mark.parametrize("params", [
    {"rank": 2, "degree_bound": 3, "modulus": 3},
    {"rank": 2, "degree_bound": 3, "modulus": None},
    {"rank": 2, "degree_bound": 2, "modulus": 4},
    {"rank": True, "degree_bound": 3, "modulus": 3},
    {"rank": 2, "degree_bound": True, "modulus": 3},
    {"rank": 2, "degree_bound": 3, "modulus": 3.0},
    {"rank": 0, "degree_bound": 3, "modulus": 3}])
def test_payload_memo_reads_what_parse_reads(params):
    for payload in ["1 + x1", "x1 + 1", "1 + x1 + x2", "1 - 2*x1x2 + 3*x2x1",
                    "0", "1", "1 + x0", "1 + x3", "1 + x1x1x1x1", "1 + y", "",
                    ["1 + x1"], 1, None, {"1": 1}, ("1 + x1",)]:
        expected = _outcome(_read_payload, params, payload)
        # twice: the second read comes from the memo
        assert _outcome(TruncSeries.from_payload, params, payload) == expected, \
            payload
        assert _outcome(TruncSeries.from_payload, params, payload) == expected, \
            payload


def test_series_entry_points_refuse_what_they_cannot_read():
    with pytest.raises(ValueError) as err:
        series.UnitCounts(2, 2, 5, 10**4).image_order(parse_word("ab", 3))
    assert str(err.value) == "rank mismatch: word has 3, quotient has 2"
    # a word that is no Word gets check_word's text, at rank 1 too
    for rank in (2, 1):
        with pytest.raises(ValueError) as err:
            series.UnitCounts(2, rank, 3, None).image_order("a")
        assert str(err.value) == "expected a Word, got 'a'"
    with pytest.raises(ValueError) as err:
        embed("ab", 3)
    assert str(err.value) == "embed expects a Word, got 'ab'"
    with pytest.raises(ValueError) as err:
        unit_image_quotient(None, 2, 3)
    assert str(err.value) == "unit image quotients need a prime modulus"
