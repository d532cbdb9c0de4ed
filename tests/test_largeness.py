import hashlib
import json
import math
import random

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from largequot import largeness, primes, quotients, series, words
from largequot.errors import BelowBoundError, CapExceeded
from largequot.largeness import (
    VERDICT_LARGE,
    VERDICT_UNKNOWN,
    bp_certify,
    certify_power_quotient,
    find_avoiding_quotient,
    lemma_fi_bound,
    verify_certificate,
)
from largequot.quotients import FiniteQuotient, ModVector
from largequot.series import (
    TruncSeries,
    embed,
    power_over_cap,
    unit_image_exponent,
    unit_image_quotient,
    unit_image_spec,
    unit_order,
)
from largequot.verbal import build_series
from largequot.words import (
    Word,
    parse_word,
    power,
    random_reduced_word,
    shortlex_words,
)
from oracles import mod_abelianization


# -- the search over powers, kept as the oracle of the valuations ------------


def _power_set(words, m):
    return [w**s for w in words for s in range(1, m + 1)]


def _least_faithful_truncation(powers, modulus,
                               truncation_cap=largeness.DEFAULT_TRUNCATION_CAP):
    """Least l with every power's series image nontrivial over the domain."""
    for l in range(2, truncation_cap + 1):
        if all(not embed(w, l, modulus).is_one
               for w in powers):
            return l
    raise CapExceeded("series truncation", truncation_cap, truncation_cap)


def _oracle_bound(words, m, truncation_cap=largeness.DEFAULT_TRUNCATION_CAP,
                  enum_cap=quotients.DEFAULT_ENUM_CAP):
    """The bound document, from every power embedded at every truncation."""
    powers = _power_set(words, m)
    l = _least_faithful_truncation(powers, None, truncation_cap)
    max_coeff = 0
    for w in powers:
        image = embed(w, l, None)
        witness = next(c for mono, c in image.terms() if mono)
        max_coeff = max(max_coeff, abs(witness))
    M0 = max(l, 1 + max_coeff)
    exponents, truncations, M = {}, {}, 1
    for p in sympy.primerange(2, M0 + 1):
        l_p = _least_faithful_truncation(powers, p, truncation_cap)
        jp = unit_image_exponent(p, words[0].rank, l_p, cap=enum_cap)
        if power_over_cap(p, jp, enum_cap):
            raise CapExceeded("quotient enumeration", enum_cap + 1, enum_cap)
        exponents[p], truncations[p] = jp, l_p
        M *= p**jp
    return largeness.LemmaFiBound(words, m, l, M0, exponents, truncations,
                                  M).to_doc()


def test_bp_certify_threshold():
    assert bp_certify(2, 0) == VERDICT_LARGE
    assert bp_certify(3, 1) == VERDICT_LARGE
    assert bp_certify(5, 3) == VERDICT_LARGE
    assert bp_certify(3, 2) == VERDICT_UNKNOWN
    assert bp_certify(1, 0) == VERDICT_UNKNOWN
    with pytest.raises(ValueError):
        bp_certify(-1, 0)
    with pytest.raises(ValueError):
        bp_certify(2, -1)


def test_lemma_fi_bound_single_generator():
    b = lemma_fi_bound([parse_word("a", 2)], 1)
    assert b.l == 2
    assert b.M0 == 2
    assert b.small_prime_exponents == {2: 2}
    assert b.small_prime_truncations == {2: 2}
    assert b.M == 4
    doc = b.to_doc()
    assert doc["base_words"] == ["a"]
    assert doc["M"] == 4
    assert doc["small_prime_exponents"] == {"2": 2}


def test_lemma_fi_bound_commutator_free_word():
    b = lemma_fi_bound([parse_word("ab", 2)], 1)
    assert b.l == 2
    assert b.M == 4


def test_lemma_fi_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        lemma_fi_bound([], 1)
    with pytest.raises(ValueError):
        lemma_fi_bound([Word.identity(2)], 1)
    with pytest.raises(ValueError):
        lemma_fi_bound([parse_word("a", 2), parse_word("a", 3)], 1)
    with pytest.raises(ValueError):
        lemma_fi_bound([parse_word("a", 2)], 0)


@pytest.mark.parametrize("call", [
    lambda words: lemma_fi_bound(words, 1),
    lambda words: certify_power_quotient(words, 2),
    lambda words: find_avoiding_quotient(words, 1, 2),
], ids=["lemma_fi_bound", "certify_power_quotient", "find_avoiding_quotient"])
def test_base_words_that_are_not_words_are_refused(call):
    # the first word's rank used to be read first: AttributeError on a str
    for words in (["a"], ["a", parse_word("a", 2)], [parse_word("a", 2), "a"]):
        with pytest.raises(ValueError) as err:
            call(words)
        assert str(err.value) == "expected a Word, got 'a'"


def test_find_avoiding_quotient_small_prime_branch():
    a = parse_word("a", 2)
    q4 = find_avoiding_quotient([a], 1, 4)
    assert q4.order == 4
    assert q4.image_order(a) == 2


def test_find_avoiding_quotient_large_prime_branch():
    a = parse_word("a", 2)
    q5 = find_avoiding_quotient([a], 1, 5)
    assert q5.order == 25
    assert q5.image_order(a) == 5


def test_find_avoiding_quotient_below_bound():
    with pytest.raises(BelowBoundError) as err:
        find_avoiding_quotient([parse_word("a", 2)], 1, 2)
    assert err.value.q == 2
    assert err.value.bound == 4


def test_find_avoiding_quotient_respects_enum_cap():
    with pytest.raises(CapExceeded):
        find_avoiding_quotient([parse_word("a", 2)], 1, 5, enum_cap=10)


def test_avoidance_postconditions_literal():
    # check the contract directly on the words, not through image_order
    a = parse_word("a", 2)
    ab = parse_word("ab", 2)
    for words, m, q in [
        ([a], 1, 4),
        ([a], 1, 8),
        ([a], 1, 5),
        ([a], 1, 20),
        ([a, ab], 2, 288),
    ]:
        quotient = find_avoiding_quotient(words, m, q)
        for w in words:
            assert quotient.kernel_contains(w ** q)
            for s in range(1, m + 1):
                assert not quotient.kernel_contains(w ** s)


def test_avoidance_near_the_bound_tolerates_caps():
    """Exponents just above M can demand witnesses past any enumeration cap
    (a huge prime factor forces a huge unit quotient); those may fail with
    CapExceeded, but every witness actually returned must honor the
    contract."""
    rng = random.Random(571)
    a = parse_word("a", 2)
    ab = parse_word("ab", 2)
    for words, m in [([a], 1), ([ab], 1), ([a, ab], 2)]:
        bound = lemma_fi_bound(words, m)
        returned = 0
        for _ in range(15):
            q = bound.M + rng.randrange(41)
            try:
                quotient = find_avoiding_quotient(words, m, q, bound=bound)
            except CapExceeded:
                continue
            returned += 1
            for w in words:
                o = quotient.image_order(w)
                assert o > m and q % o == 0
        assert returned > 0  # q = M itself is always feasible, so some succeed


def test_certificate_single_word_q4():
    cert = certify_power_quotient([parse_word("a", 2)], 4)
    assert cert["verdict"] == VERDICT_LARGE
    assert cert["counts"] == {"j": 4, "gens": 5, "rels": 2, "deficiency": 3}
    assert cert["target"] == {"rank": 2, "base_words": ["a"], "exponent": 4}
    assert cert["witness"]["kind"] == "magnus_unit"
    assert cert["assumptions"] == []


def test_certificate_below_bound_falls_back_to_direct_search():
    # M = 4 for g = a, yet q = 2 still has the mod-2 abelianization as witness
    cert = certify_power_quotient([parse_word("a", 2)], 2)
    assert cert["verdict"] == VERDICT_LARGE
    assert cert["counts"] == {"j": 4, "gens": 5, "rels": 2, "deficiency": 3}


def test_certificate_with_explicit_witnesses():
    cert = certify_power_quotient(
        [parse_word("a", 2)], 3, witness=unit_image_quotient(3, 2, 2)
    )
    assert cert["counts"] == {"j": 9, "gens": 10, "rels": 3, "deficiency": 7}
    assert cert["verdict"] == VERDICT_LARGE

    cert2 = certify_power_quotient(
        [parse_word("a", 2), parse_word("b", 2)], 3,
        witness=mod_abelianization(2, 3),
    )
    assert cert2["counts"] == {"j": 9, "gens": 10, "rels": 6, "deficiency": 4}
    assert cert2["verdict"] == VERDICT_LARGE


def test_certificate_relator_count_inequality():
    # rels * (k+1) <= k * j on every certificate we can produce
    cases = [
        ([parse_word("a", 2)], 4, None),
        ([parse_word("a", 2)], 2, None),
        ([parse_word("a", 2)], 3, unit_image_quotient(3, 2, 2)),
        ([parse_word("a", 2), parse_word("b", 2)], 3, mod_abelianization(2, 3)),
    ]
    for words, q, witness in cases:
        cert = certify_power_quotient(words, q, witness=witness)
        k = len(words)
        counts = cert["counts"]
        assert counts["rels"] * (k + 1) <= k * counts["j"]
        assert counts["gens"] == 1 + (words[0].rank - 1) * counts["j"]


def test_certificate_rejects_unusable_witness():
    a = parse_word("a", 2)
    with pytest.raises(ValueError):
        # image order 2 does not divide 3
        certify_power_quotient([a], 3, witness=mod_abelianization(2, 2))
    with pytest.raises(ValueError):
        # image order 2 is not above the word count k=2
        certify_power_quotient([a, parse_word("b", 2)], 2,
                               witness=mod_abelianization(2, 2))


def test_certificate_below_bound_without_witness_reraises():
    # k = 2 and q = 2 needs image orders above 2 dividing 2: impossible for
    # any witness, so the direct search must come back empty and the bound
    # error must surface
    with pytest.raises(BelowBoundError):
        certify_power_quotient([parse_word("a", 2), parse_word("b", 2)], 2)


def test_verify_certificate_roundtrip_and_tamper():
    cert = certify_power_quotient([parse_word("a", 2)], 4)
    report = verify_certificate(cert)
    assert report["ok"]
    assert report["mismatches"] == []
    assert report["computed"]["verdict"] == VERDICT_LARGE

    tampered = {**cert, "counts": {**cert["counts"], "rels": 1}}
    report2 = verify_certificate(tampered)
    assert not report2["ok"]
    assert report2["mismatches"] == ["rels"]

    tampered3 = {**cert, "verdict": VERDICT_UNKNOWN}
    report3 = verify_certificate(tampered3)
    assert not report3["ok"]
    assert "verdict" in report3["mismatches"]


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# sha256 of the sorted-key JSON of each certificate and its verify report,
# frozen from the pipeline that still built and rewrote the conjugates
NO_BUILD_CASES = [
    ("a", 4, None,
     "4b474266821f17f60b05dfc0cecd1c7af1916bcd96ce3fb135c45bf6189c45ee",
     "1c7d445b29de5b0446030a1747e1b7891d7c12e1c9f6a55691e7b843a1ad4f61"),
    ("a,b", 4, None,
     "7c3eea315fa02dd0b103da69b4370b31c07041319c3cbdb57648485821c769dc",
     "8db48d29d4b374488bf3f45eba730eb29101192a6a30c1d2fffc768a3671c1bc"),
    ("a,b", 8, (2, 2, 5),
     "c9e01e9353391b32ba9ff39ec112280e194923b42ddebc279ca08afb39e657b9",
     "2f0f15cca53bba58803c15102c2567881494b40a20df5026b8383d1c3d1be1fc"),
    ("ab,aBAb", 8, (2, 2, 5),
     "2d1bc79d3ed7940f1e8ffa404e15e6309b8f8c831dacb9f8f4689a9d8bbbd7da",
     "fbd790dba0f2fa9337aba3ec9de92ce07f8385aecbe046c0de7bd7bb9d66c1d4"),
]


def _graph_only(images):
    """No witness is standard over any prime: every count is read off the
    coset graph, the oracle of the closed forms.  It stands in for the
    memoized classification, whose earlier answers a patch of
    ``_unit_witness`` would not reach."""
    return ()


@pytest.fixture
def graph_route(monkeypatch):
    monkeypatch.setattr(series, "_witness_primes", _graph_only)


@pytest.mark.parametrize("texts,q,unit,cert_digest,report_digest",
                         NO_BUILD_CASES,
                         ids=[f"{c[0]}^{c[1]}" for c in NO_BUILD_CASES])
def test_certify_and_verify_build_no_conjugates_or_rewrites(
        monkeypatch, graph_route, texts, q, unit, cert_digest, report_digest):
    base = [parse_word(t, 2) for t in texts.split(",")]
    # the witness search builds powers g^s, so it runs before the patches
    if unit is None:
        searched = certify_power_quotient(base, q)["witness"]
        witness = FiniteQuotient.from_spec(searched)
    else:
        witness = unit_image_quotient(*unit)

    def refuse(*args, **kwargs):
        raise AssertionError("certify and verify must only count")

    monkeypatch.setattr(quotients, "lemma0_conjugates", refuse)
    monkeypatch.setattr(quotients, "reidemeister_schreier", refuse)
    monkeypatch.setattr(Word, "__pow__", refuse)
    # coset counts follow the Schreier tree, with no transversal word
    monkeypatch.setattr(FiniteQuotient, "transversal_word", refuse)
    cert = certify_power_quotient(base, q, witness=witness)
    report = verify_certificate(cert)
    assert report["ok"]
    assert _digest(cert) == cert_digest
    assert _digest(report) == report_digest


@pytest.mark.parametrize("texts,q,unit,cert_digest,report_digest",
                         NO_BUILD_CASES,
                         ids=[f"{c[0]}^{c[1]}" for c in NO_BUILD_CASES])
def test_standard_unit_witnesses_are_counted_without_a_quotient(
        monkeypatch, empty_quotient_table, texts, q, unit, cert_digest,
        report_digest):
    base = [parse_word(t, 2) for t in texts.split(",")]
    witness = None if unit is None else unit_image_quotient(*unit)

    def refuse(*args, **kwargs):
        raise AssertionError("a standard unit witness is counted by closed forms")

    monkeypatch.setattr(quotients, "build_quotient", refuse)
    monkeypatch.setattr(largeness, "build_quotient", refuse)
    monkeypatch.setattr(quotients, "coset_representatives", refuse)
    monkeypatch.setattr(largeness, "coset_representatives", refuse)
    monkeypatch.setattr(FiniteQuotient, "schreier_generators", refuse)
    cert = certify_power_quotient(base, q, witness=witness)
    report = verify_certificate(json.loads(json.dumps(cert)))
    assert report["ok"]
    assert _digest(cert) == cert_digest
    assert _digest(report) == report_digest


def _magnus(p, l, images):
    return FiniteQuotient.from_spec({
        "kind": "magnus_unit",
        "params": {"modulus": p, "rank": 2, "degree_bound": l},
        "gen_images": images,
    })


# sha256 of the sorted-key JSON of the certificate and its verify report for
# witnesses whose images are not the 1 + x_i, frozen from the pipeline that
# counted every such witness on its coset graph
GRAPH_CASES = [
    ("x1+x2", lambda: _magnus(2, 3, ["1 + x1 + x2", "1 + x2"]), "a", 4,
     "a72a7f3f1cf11c8566a843da1aacd285ad74e45803088c786f5d51bd64020898",
     "c549507879db6d78ea2e6119464636e11ae68248e10e399b739148ec68b7ee6f"),
    ("mod4", lambda: _magnus(4, 2, ["1 + x1", "1 + x2"]), "a,b", 4,
     "9416d92a6b64515ad29d4a1344f26b85d06b6f0b3970307962d7ddde2c50553e",
     "e73b96c8ad57a401ce988d8c4c77e73aa0bbbe09bf1a39dcc09d3fd6de831da6"),
    ("abelian", lambda: mod_abelianization(2, 3), "a,b", 3,
     "8479828950eea45bfc7c967a11bbe50f61f43c2c910e3f69086d754b8c91680a",
     "5ceae615ff604304e3ef2dd447b29917160308c428ae0b5864637f9c8b9819e4"),
    ("verbal", lambda: build_series((2, 3, 5), 2, 3)[2].parent_quotient, "a", 6,
     "57b885b07bfae16ba1734e6a8df2a0dd7a694bf6c8fbf7d2fde62683c0080065",
     "277f39a8b371e5f736151d7fb068b15ce031fd838205a6353be71463332b04f3"),
]


@pytest.mark.parametrize("name,build,texts,q,cert_digest,report_digest",
                         GRAPH_CASES, ids=[c[0] for c in GRAPH_CASES])
def test_other_witnesses_are_counted_on_their_coset_graph(
        monkeypatch, name, build, texts, q, cert_digest, report_digest):
    witness = build()
    base = [parse_word(t, 2) for t in texts.split(",")]
    cert = certify_power_quotient(base, q, witness=witness)
    built = []
    original = quotients.build_quotient

    def counted(*args, **kwargs):
        quotient = original(*args, **kwargs)
        built.append(quotient.order)
        return quotient

    monkeypatch.setattr(quotients, "build_quotient", counted)
    monkeypatch.setattr(largeness, "build_quotient", counted)
    report = verify_certificate(json.loads(json.dumps(cert)))
    # x1+x2 has invertible linear parts, so its kernel is the standard
    # witness's: closed forms count it, to the digests its graph gave
    assert built == ([] if name == "x1+x2" else [witness.order])
    assert report["ok"]
    assert _digest(cert) == cert_digest
    assert _digest(report) == report_digest


def test_memo_hit_over_the_cap_gives_the_fresh_error(empty_quotient_table):
    series.UnitCounts(2, 2, 5, 10**4).quotient()
    with pytest.raises(CapExceeded) as memo:
        series.UnitCounts(2, 2, 5, 100).quotient()
    with pytest.raises(CapExceeded) as fresh:
        unit_image_quotient(2, 2, 5, cap=100)
    assert str(memo.value) == str(fresh.value)


FROZEN_BOUNDS = [
    ("a", 1, {"base_words": ["a"], "rank": 2, "m": 1, "l": 2, "M0": 2,
              "small_prime_exponents": {"2": 2},
              "small_prime_truncations": {"2": 2}, "M": 4}),
    ("ab", 1, {"base_words": ["ab"], "rank": 2, "m": 1, "l": 2, "M0": 2,
               "small_prime_exponents": {"2": 2},
               "small_prime_truncations": {"2": 2}, "M": 4}),
    ("a,ab", 2, {"base_words": ["a", "ab"], "rank": 2, "m": 2, "l": 2,
                 "M0": 3, "small_prime_exponents": {"2": 5, "3": 2},
                 "small_prime_truncations": {"2": 3, "3": 2}, "M": 288}),
]


def test_bound_and_ranking_run_no_bfs(monkeypatch, empty_quotient_table):
    def refuse(*args, **kwargs):
        raise AssertionError("the bound and the ranking must not enumerate")

    monkeypatch.setattr(quotients, "build_quotient", refuse)
    monkeypatch.setattr(largeness, "build_quotient", refuse)
    for texts, m, doc in FROZEN_BOUNDS:
        words = [parse_word(t, 2) for t in texts.split(",")]
        assert lemma_fi_bound(words, m).to_doc() == doc
    # over the cap, with the texts a BFS would reach them by
    with pytest.raises(CapExceeded) as bound:
        lemma_fi_bound([parse_word("abAB", 2)], 3)
    assert str(bound.value) == \
        "quotient enumeration: reached 1000001 with cap 1000000"
    with pytest.raises(CapExceeded) as search:
        find_avoiding_quotient([parse_word("a", 2)], 1, 5, enum_cap=10)
    assert str(search.value) == "quotient enumeration: reached 11 with cap 10"


def test_only_the_returned_witness_is_enumerated(monkeypatch,
                                                 empty_quotient_table):
    built = []
    original = quotients.build_quotient

    def counted(*args, **kwargs):
        quotient = original(*args, **kwargs)
        built.append(quotient.order)
        return quotient

    monkeypatch.setattr(quotients, "build_quotient", counted)
    monkeypatch.setattr(largeness, "build_quotient", counted)
    # q = 2016 = 2^5 3^2 7 admits the 2-, 3- and 7-branches (orders 32, 9
    # and 49); only the smallest is built
    a, ab = parse_word("a", 2), parse_word("ab", 2)
    assert find_avoiding_quotient([a, ab], 2, 2016).order == 9
    assert built == [9]


def test_primes_up_to_match_sympy(monkeypatch):
    monkeypatch.setattr(primes, "_PRIMES", [2, 3])
    for limit in (0, 1, 2, 3, 4, 10, 97):
        assert list(primes.primes_up_to(limit)) == \
            list(sympy.primerange(1, limit + 1))
    assert list(primes.primes_up_to(10**5)) == \
        list(sympy.primerange(1, 10**5 + 1))
    # read again from the list
    assert list(primes.primes_up_to(10**5)) == \
        list(sympy.primerange(1, 10**5 + 1))


def test_bound_of_a_huge_power_hashes_no_word(monkeypatch):
    def refuse(self):
        raise AssertionError("spelled out the letters of a power")

    monkeypatch.setattr(words._Power, "letters", property(refuse))
    monkeypatch.setattr(primes, "_PRIMES", [2, 3])
    a = Word.generator(2, 1)
    # M0 is 10^9 + 8, but 1009^2 passes the cap: the primes stop there
    with pytest.raises(CapExceeded) as err:
        lemma_fi_bound([power(a, 10**9 + 7)], 1)
    assert str(err.value) == \
        "quotient enumeration: reached 1000001 with cap 1000000"
    assert max(primes._PRIMES) == 1009


def test_counts_read_the_bound_valuations_by_identity(monkeypatch):
    g = [parse_word("abAB", 2), parse_word("ab", 2)]
    bound = lemma_fi_bound(g, 2)
    q = 2 * 3 * 5 * bound.M

    def refuse(*args, **kwargs):
        raise AssertionError("a base word was valued or hashed again")

    monkeypatch.setattr(series, "magnus_valuation", refuse)
    monkeypatch.setattr(Word, "__hash__", refuse)
    counts = largeness._avoiding_unit(bound, q, quotients.DEFAULT_ENUM_CAP)
    expected = [series.order_of_valuation(counts.p, v, counts.l)
                for _, v in bound.valuations_mod(counts.p)]
    assert [counts.image_order(w) for w in g] == expected
    # an equal word that is not the bound's own is valued afresh
    with pytest.raises(AssertionError):
        counts.image_order(Word(2, ((1, 1), (2, 1))))


def test_unit_witness_classification_is_kept_per_image_tuple(monkeypatch):
    assert series._witness_primes.cache_parameters() == {
        "maxsize": 256, "typed": True}
    series._witness_primes.cache_clear()
    calls = []
    unit_witness, is_prime = series._unit_witness, series.is_prime
    monkeypatch.setattr(series, "_unit_witness",
                        lambda images: calls.append("rows") or unit_witness(images))
    monkeypatch.setattr(series, "is_prime",
                        lambda n: calls.append("isprime") or is_prime(n))
    spec, cap = unit_image_spec(3, 2, 3), quotients.DEFAULT_ENUM_CAP
    first = largeness._spec_counts(spec, cap)
    assert calls == ["isprime", "rows"]
    again = largeness._spec_counts(spec, cap)
    assert calls == ["isprime", "rows"]
    assert again is not first
    assert (again.p, again.l, again.order) == (first.p, first.l, first.order)
    # each call still checks its own cap
    with pytest.raises(CapExceeded):
        largeness._spec_counts(spec, first.order - 1)
    # over a composite modulus each unit witness mod p | m is refused past
    # the cap, and none is counted by the closed forms
    images = [TruncSeries(2, 3, 6, {(): 1, (g,): 1}) for g in (1, 2)]
    for _ in range(2):
        assert TruncSeries.counts(images, cap, None) is None
        with pytest.raises(CapExceeded):
            TruncSeries.counts(images, 8, None)
    assert calls.count("rows") == 3


def test_bounds_and_certificates_embed_only_base_words(monkeypatch,
                                                       empty_quotient_table):
    original = series.embed
    longest = 0

    def base_words_only(word, *args, **kwargs):
        if len(word) > longest:
            raise AssertionError(f"embedded {word}, longer than every base word")
        return original(word, *args, **kwargs)

    monkeypatch.setattr(series, "embed", base_words_only)
    for texts, m, doc in FROZEN_BOUNDS:
        words = [parse_word(t, 2) for t in texts.split(",")]
        longest = max(map(len, words))
        assert lemma_fi_bound(words, m).to_doc() == doc
    for texts, q, unit, cert_digest, report_digest in NO_BUILD_CASES:
        base = [parse_word(t, 2) for t in texts.split(",")]
        longest = max(map(len, base))
        witnesses = [None] if unit is None else [unit_image_quotient(*unit)]
        if unit is None:
            witnesses.append(FiniteQuotient.from_spec(
                certify_power_quotient(base, q)["witness"]))
        for witness in witnesses:
            cert = certify_power_quotient(base, q, witness=witness)
            report = verify_certificate(json.loads(json.dumps(cert)))
            assert _digest(cert) == cert_digest
            assert _digest(report) == report_digest


def test_large_prime_branch_takes_the_bound_truncation(monkeypatch):
    a, ab, c = parse_word("a", 2), parse_word("ab", 2), parse_word("abAB", 2)
    # M is 4, 4, 288 and 864; the commutator's truncation l is 3
    cases = [([a], 1, 5), ([a], 1, 4 * 7), ([ab], 1, 4 * 11 + 1),
             ([a, ab], 2, 288 * 5 + 1), ([c], 1, 864 + 1)]
    bounds = [lemma_fi_bound(words, m) for words, m, _ in cases]
    expected = [find_avoiding_quotient(words, m, q, bound=bound).serialize()
                for (words, m, q), bound in zip(cases, bounds)]

    def refuse(*args, **kwargs):
        raise AssertionError("past M0 the truncation is the bound's l")

    monkeypatch.setattr(series, "embed", refuse)
    for (words, m, q), bound, doc in zip(cases, bounds, expected):
        large = [p for p in sympy.factorint(q) if p > bound.M0]
        assert large
        quotient = find_avoiding_quotient(words, m, q, bound=bound)
        assert quotient.serialize() == doc
        # the oracle's least truncation mod that prime, searched over powers
        # (the oracle embeds through series, which stays unpatched)
        p = quotient.params["modulus"]
        if p in large:
            least = _least_faithful_truncation(_power_set(words, m), p)
            assert quotient.params["degree_bound"] == least == bound.l


def test_bound_truncation_is_least_for_every_prime_past_m0():
    # the brute-force search the large-prime branch no longer runs
    rng = random.Random(2053)
    # commutators need truncations 3 and 4; random short words mostly 2
    sets = [[parse_word(t, 2) for t in texts.split(",")] for texts in
            ("abAB", "aabAAB", "abABaaBAbA", "abABAbaB", "abAB,a", "abAB,baBA")]
    for _ in range(12):
        k, words = rng.randint(1, 2), []
        while len(words) < k:
            w = random_reduced_word(rng, 2, rng.randint(1, 4))
            if not w.is_identity and w not in words:
                words.append(w)
        sets.append(words)
    checked = 0
    for words in sets:
        m = rng.randint(1, 2)
        # the bound's orders are closed-form, so no cap is ever met here
        bound = lemma_fi_bound(words, m, enum_cap=10**400)
        powers = _power_set(words, m)
        for p in sympy.primerange(bound.M0 + 1, bound.M0 + 40):
            least = _least_faithful_truncation(powers, p)
            assert least == bound.l, ([str(w) for w in words], m, p)
            checked += 1
    assert checked >= 100


def test_a_bound_for_other_words_is_refused():
    a, ab = parse_word("a", 2), parse_word("ab", 2)
    bound = lemma_fi_bound([a], 1)
    with pytest.raises(ValueError, match="bound is for"):
        find_avoiding_quotient([ab], 1, 5, bound=bound)
    with pytest.raises(ValueError, match="bound is for"):
        find_avoiding_quotient([a], 2, 5, bound=bound)
    with pytest.raises(ValueError, match="bound is for"):
        find_avoiding_quotient([a, ab], 1, 5, bound=bound)


def test_witness_survives_serialization():
    a = parse_word("a", 2)
    quotient = find_avoiding_quotient([a], 1, 5)
    again = FiniteQuotient.from_spec(quotient.serialize())
    assert again.order == 25
    assert again.image_order(a) == 5


P_GROUP_UNDER_O = """
from largequot import largeness, series
from largequot.words import parse_word
from oracles import mod_abelianization

# an order-3 quotient posing as the unit image mod 2
series.unit_image_quotient = (
    lambda p, rank, l, cap=None: mod_abelianization(rank, 3))
try:
    largeness.find_avoiding_quotient([parse_word("a", 1)], 1, 4)
except AssertionError as exc:
    print("refused:", exc)
else:
    print("accepted")
"""


def test_p_group_order_is_checked_under_python_O(run_under_O):
    # every unit quotient built is checked against Jennings' order p^j(p);
    # the check must survive python -O
    out = run_under_O(P_GROUP_UNDER_O)
    assert out.strip() == "refused: unit image quotient must be a p-group"


# -- closed-form counts against the coset graph -----------------------------


def _outcome(call):
    """A call's result, or the type and text of the error it raises."""
    try:
        return call()
    except (ValueError, CapExceeded) as exc:
        return type(exc).__name__, str(exc)


class _GraphUnitCounts(largeness._GraphCounts):
    """Certify's own unit witness (p, r, l), counted on its rebuilt coset
    graph; its relator count checks the image orders certify passes in, and
    its exponent is log_p of the enumerated order."""

    def __init__(self, p, rank, l, cap, serialize=None, valuations=None):
        super().__init__(unit_image_quotient(p, rank, l, cap=cap))
        self.p, self.l = p, l
        self.exponent = 0
        while p**self.exponent < self.order:
            self.exponent += 1
        assert p**self.exponent == self.order


def _on_both_routes(call):
    """The outcome by the closed forms, then with every witness counted on
    its coset graph."""
    fast = _outcome(call)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_witness_primes", _graph_only)
        mp.setattr(series, "UnitCounts", _GraphUnitCounts)
        mp.setattr(largeness, "UnitCounts", _GraphUnitCounts)
        slow = _outcome(call)
    return fast, slow


def unit_witnesses(limit):
    """(p, r, l), p in {2,3,5,7} and r in {1,2,3}, with p^e <= limit.

    Rank-1 orders p^ceil(log_p l) stay small far out, so there l stops at
    p + 2, past the jump from p to p^2.
    """
    cases = []
    for p in (2, 3, 5, 7):
        for r in (1, 2, 3):
            l = 1
            while (l <= p + 2 if r == 1
                   else p**unit_image_exponent(p, r, l) <= limit):
                cases.append((p, r, l))
                l += 1
    return cases


def _word_sets(rank):
    if rank == 1:
        return [["a"], ["a", "aa"], ["A", "aaa"]]
    return [["a"], ["ab", "aB"], ["a", "abAB"]]


@pytest.mark.parametrize("p,r,l", unit_witnesses(10**5))
def test_closed_form_counts_match_the_coset_graph(p, r, l):
    witness = unit_image_quotient(p, r, l, cap=10**5)
    j = witness.order
    for texts in _word_sets(r):
        words = [parse_word(t, r) for t in texts]
        for q in (j, p):
            fast, slow = _on_both_routes(
                lambda: certify_power_quotient(words, q, witness=witness))
            assert fast == slow, (texts, q)
    # reports, on a certificate as made and on one whose words and exponent
    # make problems
    cert = {
        "schema": largeness.CERTIFICATE_SCHEMA,
        "target": {"rank": r, "base_words": ["a"], "exponent": j},
        "witness": witness.serialize(),
        "counts": {"j": j, "gens": 1 + (r - 1) * j, "rels": 1, "deficiency": 0},
        "verdict": VERDICT_LARGE,
    }
    other = {**cert, "target": {"rank": r, "base_words": _word_sets(r)[1],
                                "exponent": p}}
    for doc in (cert, other):
        fast, slow = _on_both_routes(
            lambda: verify_certificate(doc, enum_cap=10**5))
        assert fast == slow


WORDS = st.lists(st.text("aAbB", min_size=1, max_size=4), min_size=1,
                 max_size=2)


@settings(max_examples=40, deadline=None)
@given(WORDS, st.integers(1, 400))
def test_chosen_witnesses_count_as_their_coset_graph(texts, q):
    words = [parse_word(t, 2) for t in texts]
    if any(w.is_identity for w in words) or len(set(words)) < len(words):
        return
    cap = 2000
    fast, slow = _on_both_routes(
        lambda: certify_power_quotient(words, q, enum_cap=cap))
    assert fast == slow
    if isinstance(fast, dict):
        report, oracle = _on_both_routes(
            lambda: verify_certificate(fast, enum_cap=cap))
        assert report == oracle
        assert report["ok"]


@pytest.mark.parametrize("n", range(1, 13))
def test_rank_one_orders_from_valuations_match_the_coset_graph(n):
    # certify's own witness takes a^n's order from v_p(a^n) = p^nu_p(n)
    words = [parse_word("a" * n, 1)]
    for q in (2, 3, 4, 6, 8, 9, 12, 16, 27, 35):
        fast, slow = _on_both_routes(
            lambda: certify_power_quotient(words, q, enum_cap=2000))
        assert fast == slow, q


@pytest.mark.parametrize("texts,q,cap,error", [
    ("a", 5, 10, "quotient enumeration: reached 11 with cap 10"),
    ("a,b", 2, 10**6, "exponent 2 is below the avoidance bound M=288"),
    ("a,ab", 7, 20, "quotient enumeration: reached 21 with cap 20"),
    ("a", 2, 3, "quotient enumeration: reached 4 with cap 3"),
    ("abAB", 1000, 100, "avoiding quotient enumeration: reached 1000 with cap 100"),
])
def test_negative_texts_match_the_coset_graph(texts, q, cap, error):
    words = [parse_word(t, 2) for t in texts.split(",")]
    fast, slow = _on_both_routes(
        lambda: certify_power_quotient(words, q, enum_cap=cap))
    assert fast == slow
    assert fast[1] == error


def test_verify_is_refused_at_the_cap_before_any_series_work(monkeypatch):
    cert = certify_power_quotient([parse_word("a", 2)], 4)
    cert["witness"]["params"]["degree_bound"] = 10**6

    def refuse(*args, **kwargs):
        raise AssertionError("past the cap nothing is multiplied")

    monkeypatch.setattr(series, "embed", refuse)
    monkeypatch.setattr(TruncSeries, "inverse", refuse)
    with pytest.raises(CapExceeded) as err:
        verify_certificate(cert)
    assert str(err.value) == \
        "quotient enumeration: reached 1000001 with cap 1000000"


def test_rank_one_orders_take_no_series(monkeypatch):
    # l = 2^12 at rank 1 is a cyclic witness of order 4096, and a^-1 there
    # is a series of 4096 terms with monomials up to degree 4095
    def refuse(*args, **kwargs):
        raise AssertionError("a cyclic witness needs no series")

    monkeypatch.setattr(series, "embed", refuse)
    monkeypatch.setattr(TruncSeries, "inverse", refuse)
    report = verify_certificate({
        "schema": largeness.CERTIFICATE_SCHEMA,
        "target": {"rank": 1, "base_words": ["A", "aaa"], "exponent": 2**12},
        "witness": unit_image_spec(2, 1, 2**12),
        "counts": {"j": 4096, "gens": 1, "rels": 2, "deficiency": -1},
        "verdict": VERDICT_UNKNOWN,
    })
    assert report["ok"], report


LOW_ORDER_UNDER_O = """
from largequot import largeness, quotients
from largequot.series import unit_image_quotient, unit_image_spec
from largequot.words import parse_word

witness = unit_image_quotient(2, 2, 2)
def refuse(*args, **kwargs):
    raise RuntimeError("built a quotient")
quotients.build_quotient = largeness.build_quotient = refuse
words = [parse_word("a", 2), parse_word("b", 2)]
try:
    largeness.certify_power_quotient(words, 2, witness=witness)
except ValueError as exc:
    print("refused:", exc)
else:
    print("accepted")
report = largeness.verify_certificate({
    "schema": largeness.CERTIFICATE_SCHEMA,
    "target": {"rank": 2, "base_words": ["a", "b"], "exponent": 2},
    "witness": unit_image_spec(2, 2, 2),
    "counts": {"j": 4, "gens": 5, "rels": 4, "deficiency": 1},
    "verdict": "not-certified",
})
print(report["ok"], report["problems"])
"""


def test_low_image_orders_are_refused_under_python_O(run_under_O):
    # the closed-form route keeps the order checks as explicit raises
    out = run_under_O(LOW_ORDER_UNDER_O).splitlines()
    assert out == [
        "refused: image order of a is 2, needs to exceed the word count 2",
        "False ['image order of a is 2, not above the word count 2', "
        "'image order of b is 2, not above the word count 2']",
    ]


# -- valuations against the powers they stand for ---------------------------


def _leading_degree(image, p):
    """Least degree of a nonconstant term of ``image`` whose coefficient p
    does not divide (any nonzero one for p None); the truncation if none."""
    return next((len(mono) for mono, c in image.terms()
                 if mono and (p is None or c % p)), image.degree_bound)


def _nu(p, s):
    a = 0
    while s % p == 0:
        s, a = s // p, a + 1
    return a


@st.composite
def _base_word_sets(draw):
    """Rank 1-3 word sets: words of length <= 5, some raised to a power or
    made a commutator with another short word, and m <= 3."""
    rank = draw(st.integers(1, 3))
    letters = "aAbBcC"[:2 * rank]

    def short():
        return parse_word(draw(st.text(letters, min_size=1, max_size=5)), rank)

    words = []
    for _ in range(draw(st.integers(1, 3))):
        w = short()
        shape = draw(st.sampled_from(("word", "power", "commutator")))
        if shape == "power":
            w = w ** draw(st.integers(2, 3))
        elif shape == "commutator":
            u = short()
            w = w * u * w.inverse() * u.inverse()
        words.append(w)
    assume(not any(w.is_identity for w in words))
    return words, draw(st.integers(1, 3))


# Drawn once by hypothesis: the bound refuses the unit group mod 3 (at
# truncation 28) at the enumeration cap in about 1 ms, while the search over
# the powers, embedding each at truncations up to 28, meets the series term
# cap first, after about 28 s on one 2-vCPU container; so only the bound's
# side of it is run here.
_TERM_CAP_CASE = (("A", "bABa", "bbbbbbbbb"), 3, 64, 10**6)


@settings(max_examples=150, deadline=None)
@given(_base_word_sets(), st.integers(1, 12) | st.just(64),
       st.sampled_from((30, 10**4, 10**6)))
@example(([parse_word(t, 2) for t in _TERM_CAP_CASE[0]], _TERM_CAP_CASE[1]),
         *_TERM_CAP_CASE[2:])
def test_bound_matches_the_search_over_powers(case, truncation_cap, enum_cap):
    """The bound's document or error text is the search's, except where the
    search meets the series term cap: the bound builds no power, so it never
    does, and it refuses there with a cap of its own (past the term cap the
    truncation is at least 13, where every unit group drawn passes its cap)."""
    words, m = case
    caps = {"truncation_cap": truncation_cap, "enum_cap": enum_cap}
    fast = _outcome(lambda: lemma_fi_bound(words, m, **caps).to_doc())
    if (tuple(map(str, words)), m, truncation_cap, enum_cap) == _TERM_CAP_CASE:
        assert fast == ("CapExceeded",
                        "quotient enumeration: reached 1000001 with cap 1000000")
        return
    slow = _outcome(lambda: _oracle_bound(words, m, **caps))
    if isinstance(slow, tuple) and slow[1].startswith("series term count"):
        assert isinstance(fast, tuple) and fast[0] == "CapExceeded", \
            ([str(w) for w in words], m, caps)
    else:
        assert fast == slow, ([str(w) for w in words], m, caps)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2), st.text("aAbB", min_size=1, max_size=5),
       st.integers(1, 12), st.sampled_from((None, 2, 3, 5)))
def test_valuations_of_powers(rank, text, s, p):
    g = parse_word(text if rank == 2 else text.replace("b", "a").replace("B", "A"),
                   rank)
    assume(not g.is_identity)
    v = series.magnus_valuation(g, p, 8)[0]
    # v_Z(g^s) = v_Z(g); v_p(g^s) = p^a v_p(g) for s = p^a t, p not dividing t
    expected = v if p is None else p**_nu(p, s) * v
    assume(expected < 8)
    image = embed(g**s, expected + 1, p)
    assert _leading_degree(image, p) == expected
    if p is None:
        # g^s's least monomial carries s times g's coefficient
        lead = next((mono, c) for mono, c in embed(g, v + 1).terms() if mono)
        assert next((mono, c) for mono, c in image.terms() if mono) == \
            (lead[0], s * lead[1])


def _order_by_multiplying(s):
    """Oracle: the least n with s^n = 1, by repeated multiplication."""
    power, n = s, 1
    while not power.is_one:
        power, n = power * s, n + 1
    return n


def test_order_formula_is_the_unit_order():
    words = []
    for w in shortlex_words(2):
        if len(w) > 5:
            break
        words.append(w)
    assert len(words) == 4 + 12 + 36 + 108 + 324
    for p in (2, 3, 5):
        for l in range(1, 7):
            counts = series.UnitCounts(p, 2, l, None)
            for w in words:
                assert counts.image_order(w) == \
                    _order_by_multiplying(embed(w, l, p)), (str(w), p, l)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3), st.integers(1, 6),
       st.data())
def test_unit_order_matches_repeated_multiplication(p, rank, l, data):
    # random nonconstant terms of degree < 6 on top of the constant 1
    monomials = st.lists(st.integers(1, rank), min_size=1, max_size=5).map(tuple)
    terms = data.draw(st.dictionaries(monomials, st.integers(-p, p), max_size=4))
    s = TruncSeries(rank, l, p, {**terms, (): 1})
    assert unit_order(s) == _order_by_multiplying(s)


# -- unit witnesses recognised by their kernel -------------------------------


@st.composite
def _magnus_witnesses(draw):
    """A magnus_unit spec over p in {2, 3, 5}: r images in r variables, each
    1 + a row of a random r x r linear part + random terms of degree 2 to 3.
    Returns the spec and whether the linear part is invertible mod p."""
    p = draw(st.sampled_from((2, 3, 5)))
    r = draw(st.integers(1, 3))
    l = draw(st.integers(1, 4))
    rows = [[draw(st.integers(0, p - 1)) for _ in range(r)] for _ in range(r)]
    higher = st.lists(st.integers(1, r), min_size=2, max_size=3).map(tuple)
    images = []
    for row in rows:
        terms = {(): 1, **{(j,): c for j, c in enumerate(row, 1)}}
        terms.update(draw(st.dictionaries(higher, st.integers(1, p - 1),
                                          max_size=3)))
        images.append(str(TruncSeries(r, l, p, terms)))
    spec = {"kind": "magnus_unit",
            "params": {"modulus": p, "rank": r, "degree_bound": l},
            "gen_images": images}
    return spec, l == 1 or sympy.Matrix(rows).det() % p != 0


@settings(max_examples=60, deadline=None)
@given(_magnus_witnesses(), st.data())
def test_kernel_recognised_witnesses_count_as_their_coset_graph(case, data):
    spec, invertible = case
    p, r = spec["params"]["modulus"], spec["params"]["rank"]
    letters = "aAbBcC"[:2 * r]
    texts = data.draw(st.lists(st.text(letters, min_size=1, max_size=4),
                               min_size=1, max_size=2))
    words = [parse_word(t, r) for t in texts]
    assume(not any(w.is_identity for w in words))
    q = data.draw(st.sampled_from([p, p**2, p**3, p**4, 6, 10]))
    cap = 1000
    built = []
    original = quotients.build_quotient

    def counted(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    def certify():
        counts = largeness._spec_counts(spec, cap)
        return certify_power_quotient(words, q, witness=counts, enum_cap=cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quotients, "build_quotient", counted)
        mp.setattr(largeness, "build_quotient", counted)
        fast = _outcome(certify)
    # an invertible linear part is counted by closed forms; a singular one
    # still goes to the BFS
    assert bool(built) != invertible
    slow = _on_both_routes(certify)[1]
    assert fast == slow
    doc = fast if isinstance(fast, dict) else {
        "schema": largeness.CERTIFICATE_SCHEMA,
        "target": {"rank": r, "base_words": texts, "exponent": q},
        "witness": spec,
        "counts": {"j": 1, "gens": 1, "rels": 0, "deficiency": 1},
        "verdict": VERDICT_UNKNOWN,
    }
    report, oracle = _on_both_routes(lambda: verify_certificate(doc, enum_cap=cap))
    assert report == oracle
    if isinstance(fast, dict):
        assert report["ok"]


# -- one counting route against the routes it replaced -----------------------
#
# The oracles below are the routes that counted witnesses before one test
# and one entry did: an equality shortcut and an elimination for prime
# moduli, a second pass over the prime factors of a composite modulus, a
# separate route for built witnesses, and valuations shared through an
# image store.


def _oracle_invertible_mod(p, rows):
    while rows:
        at = next((i for i, row in enumerate(rows) if row[0] % p), None)
        if at is None:
            return False
        pivot = rows.pop(at)
        f = pow(pivot[0], -1, p)
        rows = [[(c - row[0] * f * d) % p for c, d in zip(row[1:], pivot[1:])]
                for row in rows]
    return True


def _oracle_standard_unit(params, images):
    p, rank, l = params["modulus"], params["rank"], params["degree_bound"]
    if (not images or not isinstance(p, int) or not sympy.isprime(p)
            or len(images) != rank):
        return None
    if all(g == series.generator_image(rank, l, p, i, 1)
           for i, g in enumerate(images, 1)):
        return p, rank, l
    if any(g.constant_term != 1 for g in images) or l > 1 and not \
            _oracle_invertible_mod(p, [[g.coefficient((i,))
                                        for i in range(1, rank + 1)]
                                       for g in images]):
        return None
    return p, rank, l


def _oracle_spec_counts(spec, cap):
    kind = quotients.element_kind(spec["kind"])
    if kind is TruncSeries:
        params = spec["params"]
        images = [kind.from_payload(params, payload) for payload in spec["gen_images"]]
        unit = _oracle_standard_unit(params, images)
        if unit is not None:
            return series.UnitCounts(*unit, cap, lambda: {
                "kind": spec["kind"], "params": dict(params),
                "gen_images": [g.payload() for g in images]})
        m = images[0].modulus if images else None
        if all(g.constant_term == 1 for g in images):
            if m is None and not all(g.is_one for g in images):
                raise CapExceeded("quotient enumeration", cap + 1, cap)
            for p in sympy.factorint(m or 1, limit=2**16, use_rho=False,
                                     use_pm1=False):
                reduced = [TruncSeries(g.rank, g.degree_bound, p, dict(g.terms()))
                           for g in images]
                unit = _oracle_standard_unit({**params, "modulus": p}, reduced)
                if unit is not None:
                    series.UnitCounts(*unit, cap)
    return largeness._GraphCounts(FiniteQuotient.from_spec(spec, cap=cap))


def _oracle_quotient_counts(quotient):
    if quotient.kind == "magnus_unit" and quotient.params:
        unit = _oracle_standard_unit(quotient.params, quotient.gen_images)
        if unit is not None:
            return series.UnitCounts(*unit, None, quotient.serialize)
    return largeness._GraphCounts(quotient)


def _oracle_valuation(w, p, limit, images):
    start = 2
    for key in ((w, None), (w, p)):
        image = images.get(key)
        if image is not None:
            v = _leading_degree(image, p)
            if v < image.degree_bound:
                return min(v, limit)
            start = max(start, image.degree_bound + 1)
    for L in range(start, limit + 1):
        image = images[w, p] = embed(w, L, p)
        if not image.is_one:
            return _leading_degree(image, p)
    return limit


def _oracle_store_bound(words, m, truncation_cap, enum_cap):
    """The bound, with valuations shared through an image store."""
    words, rank = largeness._check_base_words(words)
    images = {}

    def valuations(p, limit):
        found = []
        for w in words:
            v = _oracle_valuation(w, p, limit, images)
            if v >= limit:
                raise CapExceeded("series truncation", truncation_cap,
                                  truncation_cap)
            found.append(v)
        return tuple(found)

    found = {None: valuations(None, truncation_cap)}
    l = 1 + max(found[None])
    max_coeff = m * max(abs(next(c for mono, c in images[w, None].terms() if mono))
                        for w in words)
    M0 = max(l, 1 + max_coeff)
    exponents, truncations, M = {}, {}, 1
    for p in sympy.primerange(2, M0 + 1):
        P = 1
        while P * p <= m:
            P *= p
        found[p] = valuations(p, -(-truncation_cap // P))
        counts = series.UnitCounts(p, rank, 1 + P * max(found[p]), enum_cap)
        exponents[p], truncations[p] = counts.exponent, counts.l
        M *= counts.order
    return largeness.LemmaFiBound(words, m, l, M0, exponents, truncations, M,
                                  found)


def _route_outcome(call, words):
    """The route a count takes and all it gives, or the error it raises."""
    try:
        counts = call()
        orders = [counts.image_order(w) for w in words]
        return (type(counts).__name__, counts.order, counts.gens, orders,
                [counts.cosets(w, o) for w, o in zip(words, orders)],
                counts.serialize())
    except Exception as exc:
        return type(exc).__name__, str(exc)


_GRAPH_LIMIT = 2000


class _Deferred(Exception):
    """A coset graph past _GRAPH_LIMIT elements, not built here: both
    routes reaching it with the same witness and cap is the same outcome."""


@pytest.fixture
def shared_graphs(monkeypatch):
    """Coset graphs built once per witness and cap, for both routes: the
    builder is patched at every binding they read."""
    built = {}
    real = quotients.build_quotient

    def build_quotient(rank, gen_images, cap=quotients.DEFAULT_ENUM_CAP,
                       kind=None, params=None):
        gen_images = list(gen_images)
        witness = json.dumps([rank, kind, params, [repr(g) for g in gen_images]],
                             sort_keys=True)
        key = (witness, min(cap, _GRAPH_LIMIT))
        if key not in built:
            try:
                built[key] = real(rank, gen_images, cap=key[1], kind=kind,
                                  params=params)
            except Exception as exc:
                built[key] = exc
        found = built[key]
        if isinstance(found, CapExceeded) and cap > _GRAPH_LIMIT:
            raise _Deferred(witness, cap)
        if isinstance(found, Exception):
            raise found
        return found

    monkeypatch.setattr(quotients, "build_quotient", build_quotient)
    monkeypatch.setattr(largeness, "build_quotient", build_quotient)


_ROUTE_MODULI = [None, 2, 3, 4, 6, 9, 12, 1000003, 2**61 - 1, 2 * 1000003]
_ROUTE_WORDS = {1: ["a", "aa", "A"], 2: ["a", "ab", "aB", "abAB"],
                3: ["a", "abc", "aCb", "abAB"]}


def _route_images(rank):
    """Image families: the 1 + x_i; invertible triangular and scaled ones
    (singular mod the primes that divide the scale); 1 + x1 + x2 in every
    image; a constant term other than 1; all trivial."""
    standard = [f"1 + x{i}" for i in range(1, rank + 1)]
    families = {"standard": standard,
                "scaled2": ["1 + 2*x1"] + standard[1:],
                "scaled3": ["1 + 3*x1"] + standard[1:],
                "constant": ["2 + x1"] + standard[1:],
                "trivial": ["1"] * rank}
    if rank > 1:
        families["triangular"] = ["1 + x1 + 5*x2"] + standard[1:]
        families["twice"] = ["1 + x1 + x2"] * rank
    return families


@pytest.mark.parametrize("modulus", _ROUTE_MODULI)
def test_one_route_counts_as_the_routes_it_replaced(shared_graphs, modulus):
    for rank in (1, 2, 3):
        words = [parse_word(t, rank) for t in _ROUTE_WORDS[rank]]
        for l in (1, 2, 3, 5):
            for name, images in _route_images(rank).items():
                spec = {"kind": "magnus_unit", "gen_images": images,
                        "params": {"modulus": modulus, "rank": rank,
                                   "degree_bound": l}}
                for cap in (10, 10**4, 10**6):
                    case = (rank, l, name, cap)
                    new = _route_outcome(
                        lambda: largeness._spec_counts(spec, cap), words)
                    old = _route_outcome(
                        lambda: _oracle_spec_counts(spec, cap), words)
                    assert new == old, case
                    # a spec refused at the cap has no built witness under it
                    if new[0] == "CapExceeded":
                        continue
                    try:
                        built = FiniteQuotient.from_spec(spec, cap=cap)
                    except Exception:
                        continue
                    # certify's branch for a built witness, counted with no cap
                    new = _route_outcome(lambda: largeness._witness_counts(
                        built.gen_images, None, built.serialize,
                        lambda: built), words)
                    old = _route_outcome(
                        lambda: _oracle_quotient_counts(built), words)
                    assert new == old, case
                    q = built.order * 2
                    assert _outcome(lambda: certify_power_quotient(
                        words[:1], q, witness=built)) == _outcome(
                        lambda: certify_power_quotient(
                            words[:1], q, witness=_oracle_quotient_counts(built)))


class _ClosedCounts:
    """The counts of (Z/m)^r over the images e_1, .., e_r, from closed forms."""

    def __init__(self, m, rank, serialize):
        self.rank, self.order, self._serialize = rank, m**rank, serialize
        self.gens = 1 + (rank - 1) * self.order
        self.m = m

    def image_order(self, w):
        return self.m // math.gcd(self.m, *w.exponent_sums())

    def cosets(self, w, o):
        return self.order // o

    def serialize(self):
        return self._serialize()


class _CountedVector(ModVector):
    """A residue vector kind whose class counts its own witnesses when the
    images are the standard basis, and leaves any other to the coset graph."""

    __slots__ = ()
    kind = "counted_modvec"
    calls = []

    @classmethod
    def counts(cls, images, cap, serialize):
        cls.calls.append(cap)
        basis = [tuple(int(i == k) for i in range(len(images)))
                 for k in range(len(images))]
        if [g.values for g in images] != basis:
            return None
        return _ClosedCounts(images[0].modulus, len(images), serialize)


def test_every_kind_with_counts_is_asked_for_them(monkeypatch):
    monkeypatch.setitem(quotients.KINDS, _CountedVector.kind, _CountedVector)
    monkeypatch.setattr(_CountedVector, "calls", [])
    words, q, cap = [parse_word("a", 2), parse_word("ab", 2)], 5, 10**4
    plain = {"kind": "modvec", "params": {"modulus": 5, "dim": 2},
             "gen_images": [[1, 0], [0, 1]]}
    counted = {**plain, "kind": _CountedVector.kind}
    # a kind without counts, and one whose counts decline, go to the graph
    assert type(largeness._spec_counts(plain, cap)) is largeness._GraphCounts
    declined = {**counted, "gen_images": [[2, 0], [0, 1]]}
    assert type(largeness._spec_counts(declined, cap)) is largeness._GraphCounts
    assert _CountedVector.calls == [cap]
    graph = certify_power_quotient(
        words, q, witness=largeness._spec_counts(plain, cap))
    built = quotients.build_quotient(
        2, [_CountedVector(5, (1, 0)), _CountedVector(5, (0, 1))])

    def refuse(*args, **kwargs):
        raise AssertionError("a kind that counts its witness is not enumerated")

    for name in ("build_quotient", "coset_representatives"):
        monkeypatch.setattr(quotients, name, refuse)
        monkeypatch.setattr(largeness, name, refuse)
    from_spec = largeness._spec_counts(counted, cap)
    assert type(from_spec) is _ClosedCounts
    for witness in (from_spec, built):
        cert = certify_power_quotient(words, q, witness=witness)
        assert cert == {**graph, "witness": counted}
    # the built witness is counted with no cap
    assert _CountedVector.calls == [cap, cap, None]
    report = verify_certificate(json.loads(json.dumps(cert)), enum_cap=cap)
    assert report["ok"], report


@settings(max_examples=150, deadline=None)
@given(_base_word_sets(), st.booleans(), st.integers(1, 12) | st.just(64),
       st.sampled_from((30, 10**4, 10**6)))
def test_bound_matches_the_image_store_route(case, repeat, truncation_cap,
                                              enum_cap):
    words, m = case
    if repeat:
        # a repeated word is the only one the store answered mod p
        words = words + words[:1]
    caps = {"truncation_cap": truncation_cap, "enum_cap": enum_cap}

    def document(bound):
        return bound.to_doc(), bound.valuations

    fast = _outcome(lambda: document(lemma_fi_bound(words, m, **caps)))
    slow = _outcome(lambda: document(_oracle_store_bound(words, m, **caps)))
    assert fast == slow, ([str(w) for w in words], m, caps)


def _oracle_avoiding_unit(bound, q, enum_cap):
    """The witness choice of find_avoiding_quotient with the primes past M0
    read off the full factorization of q, as a (p, rank, l, exponent)."""
    if q < bound.M:
        raise BelowBoundError(q, bound.M)
    candidates = [(p**jp, p, bound.small_prime_truncations[p])
                  for p, jp in bound.small_prime_exponents.items()
                  if q % p**jp == 0]
    for p in [p for p in sympy.factorint(q) if p > bound.M0]:
        e = unit_image_exponent(p, bound.rank, bound.l, cap=enum_cap)
        if bound.l > 2 and power_over_cap(p, e, enum_cap):
            continue
        candidates.append((p**e, p, bound.l))
    if not candidates:
        raise CapExceeded("avoiding quotient enumeration", q, enum_cap)
    _, p, l = min(candidates)
    counts = series.UnitCounts(p, bound.rank, l, enum_cap)
    return counts.p, counts.rank, counts.l, counts.exponent


@settings(max_examples=80, deadline=None)
@given(_base_word_sets(), st.integers(1, 40), st.integers(1, 50),
       st.sampled_from((50, 10**4, 10**6)))
def test_avoiding_unit_matches_the_full_factorization(case, t, r, enum_cap):
    words, m = case
    try:
        bound = lemma_fi_bound(words, m)
    except CapExceeded:
        assume(False)
    large = sympy.nextprime(bound.M0 + r)
    over_cap = sympy.nextprime(max(bound.M0, enum_cap) + r)
    # q = M*t; a prime past M0 to the first and second power; q below M;
    # and a q whose only prime past M0 is over the cap
    qs = [bound.M * t, bound.M * large, bound.M * t * large**2, large**2,
          max(1, bound.M - t), over_cap, over_cap**2]
    if bound.M > 1:
        qs.append(over_cap * bound.M // 2)

    def chosen(q):
        counts = largeness._avoiding_unit(bound, q, enum_cap)
        return counts.p, counts.rank, counts.l, counts.exponent

    for q in qs:
        fast = _outcome(lambda: chosen(q))
        slow = _outcome(lambda: _oracle_avoiding_unit(bound, q, enum_cap))
        assert fast == slow, ([str(w) for w in words], m, q, enum_cap)
