import random
import sys
from itertools import islice
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largequot import verbal
from largequot.errors import CapExceeded, NotMaterializedError
from largequot.periodic import (
    ConstructionState,
    check_pigraded_properties,
    next_step,
    run_construction,
)
from largequot.quotients import (
    FiniteQuotient,
    ModVector,
    build_quotient,
)
from largequot.verbal import (
    ORDER_EXPONENT_CAP,
    LayeredCoset,
    PrimeSeq,
    _escape_level,
    _iter_levels,
    _order_repr,
    build_series,
    levi_bound,
    quotient_order_factors,
)
from largequot.words import Word, parse_word, power, random_reduced_word
from oracles import (
    VerbalCoset,
    mod_abelianization,
    quotient_from_spec,
    packed_sums,
    table_member,
    table_order_mod,
)


def test_primeseq_validation():
    with pytest.raises(ValueError):
        PrimeSeq([])
    with pytest.raises(ValueError):
        PrimeSeq([2, 4])
    seq = PrimeSeq([2, 3, 5, 3])
    assert not seq.distinct
    assert PrimeSeq([2, 3, 5]).distinct


def test_build_series_argument_checks():
    with pytest.raises(ValueError):
        build_series([2, 3], 2, -1)
    with pytest.raises(ValueError):
        build_series([2, 3], 2, 3)
    assert build_series([2, 3], 2, 0) == []


@pytest.mark.parametrize("call", [
    lambda: build_series([2, 3], 2, 0, coset_cap=True),
    # a state the scan refuses as too short still has its cap checked first
    lambda: next_step(ConstructionState(rank=2, pi=PrimeSeq([2, 3]), depth=2),
                      parse_word("b", 2), coset_cap=True),
], ids=["build_series", "next_step"])
def test_the_level_stream_checks_its_coset_cap_when_it_is_made(call):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == "coset_cap must be a positive integer, got True"


@pytest.mark.parametrize("read", [build_series, quotient_order_factors])
def test_order_formulas_check_the_depth_as_build_series_does(read):
    with pytest.raises(ValueError) as deep:
        read([2, 3], 2, 3)
    assert str(deep.value) == "prime sequence has 2 terms, cannot build depth 3"
    with pytest.raises(ValueError) as negative:
        read([2, 3], 2, -1)
    assert str(negative.value) == "depth must be a nonnegative integer, got -1"
    # True == 1, and used to answer as depth 1
    with pytest.raises(ValueError) as boolean:
        read([2, 3], 2, True)
    assert str(boolean.value) == "depth must be a nonnegative integer, got True"


def test_order_formula_matches_bfs_enumeration():
    # |F_2/gamma_2| over (2, 3): 4 * 3^(1+4) = 972, and the coset graph of
    # F/gamma_2 (the parent of level 3) must enumerate to the same count.
    assert quotient_order_factors([2, 3], 2, 1) == {2: 2}
    assert quotient_order_factors([2, 3], 2, 2) == {2: 2, 3: 5}  # 972
    levels = build_series([2, 3, 5], 2, 3)
    assert levels[2].parent_quotient.order == 972
    assert levels[2].parent_order == 972
    # so is each basis rank, 1 + (r-1)|F/gamma_{d-1}|, as BFS counts it
    assert len(levels[1].parent_quotient.schreier_generators()) == 1 + 1 * 4
    assert len(levels[2].parent_quotient.schreier_generators()) == 1 + 1 * 972


def test_order_formula_depth_zero_and_rank_one():
    assert quotient_order_factors([5], 3, 0) == {}
    # rank 1: every Schreier rank is 1, so the tower is just a product
    assert quotient_order_factors([2, 3, 5], 1, 3) == {2: 1, 3: 1, 5: 1}


def test_level_one_vectors_and_membership():
    level1, level2 = build_series([2, 3], 2, 2)
    a = parse_word("a", 2)
    assert level1.component_vector(a) == (1, 0)
    assert not level1.member(a)
    assert level1.member(parse_word("aa", 2))
    assert level1.member(parse_word("ABab", 2))
    with pytest.raises(ValueError):
        level2.component_vector(a)  # a is not in gamma_1


def test_normal_form_frozen_example():
    _, level2 = build_series([2, 3], 2, 2)
    a = parse_word("a", 2)
    assert level2.normal_form(a) == ((1, 0), (0, 0, 0, 0, 0))
    assert level2.normal_form(Word.identity(2)) == ((0, 0), (0, 0, 0, 0, 0))


def test_normal_form_is_a_coset_invariant():
    rng = random.Random(89)
    _, level2 = build_series([2, 3], 2, 2)
    for _ in range(20):
        w = random_reduced_word(rng, 2, rng.randint(1, 6))
        nf = level2.normal_form(w)
        # multiplying by the reconstructed representative's inverse lands in gamma_2
        u = w
        for lvl, v in zip(level2._chain(), nf):
            u = u * lvl.representative(v).inverse()
        assert level2.member(u)
        # and a gamma_2 perturbation does not change the normal form
        deep = parse_word("aa", 2) ** 3  # aa in gamma_1, (aa)^3 kills the mod-3 layer
        assert level2.member(deep)
        assert level2.normal_form(w * deep) == nf


def test_representative_inverts_component_vector():
    rng = random.Random(97)
    level1, level2 = build_series([2, 3], 2, 2)
    for level in (level1, level2):
        q = level.prime
        for _ in range(15):
            v = tuple(rng.randrange(q) for _ in level.basis_words)
            assert level.component_vector(level.representative(v)) == v


def test_membership_is_nested():
    rng = random.Random(101)
    levels = build_series([2, 3], 2, 2)
    for _ in range(60):
        w = random_reduced_word(rng, 2, rng.randint(0, 7))
        flags = []
        for lvl in levels:
            try:
                flags.append(lvl.member(w))
            except ValueError:
                flags.append(False)
        if flags[1]:
            assert flags[0], "gamma_2 must sit inside gamma_1"


def test_order_mod_frozen_and_exact():
    rng = random.Random(103)
    _, level2 = build_series([2, 3], 2, 2)
    assert level2.order_mod(parse_word("a", 2)) == 6
    assert level2.order_mod(Word.identity(2)) == 1
    for _ in range(15):
        w = random_reduced_word(rng, 2, rng.randint(1, 5))
        n = level2.order_mod(w)
        assert level2.member(power(w, n))
        for p in {2, 3}:
            if n % p == 0:
                assert not level2.member(power(w, n // p))


def test_layered_cosets_generate_the_right_group():
    level1 = build_series([2, 3], 2, 1)[0]
    images = [LayeredCoset(level1, Word.generator(2, g)) for g in (1, 2)]
    q = build_quotient(2, images)
    ref = mod_abelianization(2, 2)
    assert q.order == ref.order == 4
    x = VerbalCoset(level1, parse_word("ab", 2))
    y = VerbalCoset(level1, parse_word("ba", 2))
    assert x == y  # same coset despite different representatives
    assert x * x.inverse() == VerbalCoset(level1, Word.identity(2))


def test_verbal_quotient_serialization_roundtrip():
    levels = build_series([2, 3], 2, 2)
    q = levels[1].parent_quotient
    doc = q.serialize()
    assert doc["kind"] == "verbal"
    assert doc["params"] == {"primes": [2], "rank": 2, "depth": 1}
    again = quotient_from_spec(doc)
    assert again.order == 4
    assert again.mult == q.mult


def test_materialization_cap_defers_membership():
    levels = build_series([2, 3], 2, 2, coset_cap=2)
    assert not levels[1].materialized
    assert levels[1].quotient_order == 972  # closed formula still answers
    with pytest.raises(NotMaterializedError):
        levels[1].member(parse_word("aa", 2))


def test_exponent_cap_cuts_off_tower_orders():
    levels = build_series([2, 3, 5, 7], 2, 4)
    d3 = levels[2]
    assert d3.quotient_order == 972 * 5 ** 973
    d4 = levels[3]
    # the basis rank of gamma_3, the exponent of q_4 in the factored depth-4
    # order, is one more than the depth-3 order: huge but representable
    assert quotient_order_factors([2, 3, 5, 7], 2, 4)[7] == 1 + 972 * 5 ** 973
    with pytest.raises(CapExceeded):
        d4.quotient_order
    # one level further even the factored form is refused
    with pytest.raises(CapExceeded) as refused:
        quotient_order_factors([2, 3, 5, 7, 11], 2, 5)
    assert str(refused.value).startswith("depth-4 quotient order exponent: ")


@pytest.mark.parametrize("primes", [(3, 3, 2), (5, 2, 3)])
def test_a_level_order_is_computed_on_first_read(primes):
    # |F/gamma_3| is 3^12 * 2^531442 over (3, 3, 2) and an exponent tower
    # over (5, 2, 3); a request that never reads it never computes it
    levels = build_series(primes, 2, 3)
    deepest = levels[-1]
    assert deepest._quotient_order is verbal._UNREAD
    # pulling level 3 read level 2's order, which it needs for its own
    assert levels[1]._quotient_order == prod(
        p**e for p, e in quotient_order_factors(primes, 2, 2).items())
    assert deepest.parent_order == levels[1].quotient_order
    factors = quotient_order_factors(primes, 2, 3)
    if factors[primes[2]] > ORDER_EXPONENT_CAP:
        with pytest.raises(CapExceeded) as refused:
            deepest.quotient_order
        assert str(refused.value) == (
            f"depth-3 quotient order: reached an exponent tower with cap "
            f"{ORDER_EXPONENT_CAP}")
        assert deepest._quotient_order is None
        assert repr(deepest).endswith("order=beyond representation)")
    else:
        expected = prod(p**e for p, e in factors.items())
        assert deepest.quotient_order == expected
        assert deepest._quotient_order == expected
        assert repr(deepest).endswith(f"order={_order_repr(expected)})")
    assert factors[primes[2]] == 1 + levels[1].quotient_order


def test_repr_never_computes_a_tower():
    deepest = build_series([2, 3, 5, 7], 2, 4)[-1]
    assert repr(deepest) == ("VerbalLevel(depth=4, primes=[2, 3, 5, 7], rank=2, "
                             "order=beyond representation)")
    assert deepest._quotient_order is None


def test_factored_order_survives_one_more_level():
    factors = quotient_order_factors([2, 3, 5, 7], 2, 4)
    assert factors[2] == 2
    assert factors[3] == 5
    assert factors[5] == 973
    assert factors[7] == 1 + 972 * 5 ** 973
    # while both forms exist they agree
    levels = build_series([2, 3, 5, 7], 2, 3)
    for depth in (1, 2, 3):
        f = quotient_order_factors([2, 3, 5, 7], 2, depth)
        assert prod(p**e for p, e in f.items()) == levels[depth - 1].quotient_order


def test_factored_order_with_a_huge_deepest_level():
    # |F/gamma_3| over (3, 3, 7) is 3^12 * 7^531442; the factors need only
    # the Schreier ranks, and a repeated prime sums its exponents
    assert quotient_order_factors([3, 3, 7], 2, 3) == {3: 12, 7: 531442}
    assert quotient_order_factors([3, 3, 3], 2, 3) == {3: 12 + 531442}
    assert quotient_order_factors([3, 3], 1, 2) == {3: 2}
    assert quotient_order_factors([3, 3], 2, 0) == {}
    with pytest.raises(CapExceeded):
        quotient_order_factors([2, 3, 5, 7, 11], 2, 5)


@pytest.mark.parametrize("primes, rank", [
    *[(primes, rank) for primes in ((3, 3, 7), (2, 2, 3), (3, 3, 3))
      for rank in (1, 2, 3)],
    # level 4's order is an exponent tower, so level 5 has no factored order
    ((2, 3, 5, 7, 11), 2),
])
def test_a_level_holds_the_factored_order_of_the_formula(primes, rank):
    refused = []
    for depth, level in enumerate(build_series(primes, rank, len(primes)), 1):
        try:
            factors = quotient_order_factors(primes, rank, depth)
        except CapExceeded as exc:
            with pytest.raises(CapExceeded) as held:
                level._factors()
            assert str(held.value) == str(exc)
            refused.append(str(exc))
            continue
        assert level._factors() == factors
        try:
            order = level.quotient_order
        except CapExceeded:  # an exponent tower
            continue
        assert prod(p**e for p, e in factors.items()) == order
    assert refused == ([] if len(primes) < 5 else [
        "depth-4 quotient order exponent: reached about 10^683 with cap "
        f"{ORDER_EXPONENT_CAP}"])


def test_a_series_longer_than_the_recursion_limit_is_read():
    # at rank 1 every order stays representable, so nothing caps the depth
    depth = sys.getrecursionlimit() + 100
    assert quotient_order_factors([2] * depth, 1, depth) == {2: depth}
    deepest = build_series([2] * depth, 1, depth)[-1]
    assert deepest._factors() == {2: depth}
    assert len(deepest._chain()) == depth


def test_the_factored_order_answers_a_rank_whose_levels_are_refused():
    # |F/gamma_1| = 2^(10^18) has one factor, but build_series refuses
    # levels whose F/gamma_0 table would hold 10^18 entries per row
    assert quotient_order_factors([2], 10**18, 1) == {2: 10**18}
    with pytest.raises(CapExceeded) as refused:
        build_series([2], 10**18, 1)
    assert str(refused.value) == (
        "depth-1 quotient order: reached an exponent tower with cap "
        f"{ORDER_EXPONENT_CAP}")


@pytest.mark.parametrize("call, text", [
    (lambda: levi_bound(["ab"], [2, 3]), "expected a Word, got 'ab'"),
    (lambda: levi_bound([None], [2, 3]), "expected a Word, got None"),
    (lambda: levi_bound([parse_word("a", 2), "b"], [2, 3]),
     "expected a Word, got 'b'"),
    (lambda: next_step(ConstructionState(2, (2, 3)), "ab"),
     "expected a Word, got 'ab'"),
], ids=["levi_bound_text", "levi_bound_none", "levi_bound_second",
        "next_step"])
def test_a_non_word_is_refused_before_it_is_read(call, text):
    # these used to raise AttributeError on .rank or .is_identity
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == text


def test_levi_bound_examples_and_errors():
    a = parse_word("a", 2)
    aa = parse_word("aa", 2)
    assert levi_bound([a], [2, 3]) == 1
    assert levi_bound([aa], [2, 3]) == 2
    assert levi_bound([a, aa], [2, 3]) == 2
    with pytest.raises(ValueError):
        levi_bound([], [2, 3])
    with pytest.raises(ValueError):
        levi_bound([Word.identity(2)], [2, 3])
    with pytest.raises(ValueError):
        levi_bound([a, parse_word("a", 3)], [2, 3])
    with pytest.raises(ValueError):
        levi_bound([aa], [2])  # sequence exhausted before escaping
    with pytest.raises(CapExceeded):
        levi_bound([aa], [2, 3], depth_cap=1)
    with pytest.raises(CapExceeded):
        levi_bound([aa], [2, 3], coset_cap=2)


def _oracle_levi_bound(words, primes, depth_cap, coset_cap):
    """levi_bound's own escape scan, from before the driver shared it."""
    primes = PrimeSeq(primes)
    rank = words[0].rank
    if depth_cap < 1:
        raise CapExceeded("verbal depth", 1, depth_cap)
    max_depth = min(depth_cap, len(primes))
    for level in islice(_iter_levels(primes, rank, coset_cap), max_depth):
        if not level.materialized:
            raise CapExceeded(
                "verbal materialization", _order_repr(level.parent_order),
                coset_cap,
            )
        if not any(level.member(w) for w in words):
            return level.depth
    if len(primes) < depth_cap:
        raise ValueError(
            f"prime sequence exhausted at depth {max_depth} before avoiding the set"
        )
    raise CapExceeded("verbal depth", max_depth, depth_cap)


def _oracle_driver_scan(pi, rank, r, f_word, depth_cap, coset_cap):
    """next_step's own escape scan, from before it shared levi_bound's.

    Returns the escape depth and the depth of the level the stream yields
    next, the driver's target."""
    pi = PrimeSeq(pi)
    max_scan = min(depth_cap, len(pi))
    if r + 1 > max_scan:
        if len(pi) < depth_cap:
            raise ValueError(
                f"prime sequence has {len(pi)} terms, too short to scan past "
                f"depth {r}"
            )
        raise CapExceeded("verbal depth", r + 1, depth_cap)
    prefix_exponent = prod(pi.primes[:r])
    g = power(f_word, prefix_exponent)
    stream = _iter_levels(pi, rank, coset_cap)
    for level in stream:
        if level.depth <= r:
            continue
        if not level.materialized:
            raise CapExceeded(
                "verbal materialization", _order_repr(level.parent_order),
                coset_cap,
            )
        if not level.member(g):
            target = next(stream, None)
            return level.depth, target and target.depth
        if level.depth >= max_scan:
            if len(pi) < depth_cap:
                raise ValueError(
                    f"prime sequence exhausted at depth {max_scan} with "
                    f"{f_word}^{prefix_exponent} still inside the series"
                )
            raise CapExceeded("verbal depth", max_scan, depth_cap)


def _driver_scan(pi, rank, r, f_word, depth_cap, coset_cap):
    """The shared scan, called as next_step calls it."""
    prefix_exponent = prod(pi[:r])
    g = power(f_word, prefix_exponent)
    level = _escape_level(
        PrimeSeq(pi), rank, r, lambda level: level.member(g),
        f"with {f_word}^{prefix_exponent} still inside the series",
        depth_cap, coset_cap,
    )
    target = next(_iter_levels(pi, rank, coset_cap, after=level), None)
    return level.depth, target and target.depth


def _outcome(scan, *args):
    try:
        return scan(*args)
    except (CapExceeded, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def _scan_inputs(draw):
    rank = draw(st.integers(1, 2))
    letters = "aA" if rank == 1 else "aAbB"
    words = []
    for _ in range(draw(st.integers(1, 3))):
        base = parse_word(draw(st.text(letters, min_size=1, max_size=5)), rank)
        w = base ** draw(st.sampled_from((6, 12, 4, 3, 2, 1)))
        if not w.is_identity:
            words.append(w)
    if not words:
        words.append(Word.generator(rank, rank))
    primes = draw(st.lists(st.sampled_from((2, 3, 5)), min_size=1, max_size=4))
    return (rank, words, primes, draw(st.integers(0, len(primes) + 1)),
            draw(st.sampled_from((16, 2, 1, 0))),
            draw(st.sampled_from((10**4, 50, 2))))


@settings(max_examples=150, deadline=None)
@given(_scan_inputs())
def test_one_escape_scan_matches_both_former_scans(inputs):
    rank, words, primes, start, depth_cap, coset_cap = inputs
    if depth_cap == 0:
        # the former scans read a depth cap of 0 as a depth reached; the
        # shared scan refuses it before it scans
        refused = (ValueError, "depth_cap must be a positive integer, got 0")
        assert _outcome(levi_bound, words, primes, 0, coset_cap) == refused
        assert _outcome(_driver_scan, primes, rank, start, words[0], 0,
                        coset_cap) == refused
        return
    assert _outcome(levi_bound, words, primes, depth_cap, coset_cap) == \
        _outcome(_oracle_levi_bound, words, primes, depth_cap, coset_cap)
    f_word = words[0]
    assert _outcome(_driver_scan, primes, rank, start, f_word, depth_cap,
                    coset_cap) == \
        _outcome(_oracle_driver_scan, primes, rank, start, f_word, depth_cap,
                 coset_cap)


def _level_facts(level):
    try:
        order = level.quotient_order
    except CapExceeded as exc:  # an exponent tower
        order = str(exc)
    return (level.depth, level.primes_prefix, level.parent_order,
            level.materialized, order)


@pytest.mark.parametrize("primes, rank, coset_cap, after_cap", [
    *[((2, 3, 5, 7), rank, 10**4, 10**4) for rank in (1, 2, 3)],
    # a lowered cap: F/gamma_2 of order 972 at rank 2 does not fit
    ((2, 3, 5, 7), 2, 100, 100),
    # the new levels hold the stream's cap, not that of the level they
    # go on from
    ((2, 3, 5, 7), 2, 100, 10**4),
    ((2, 3, 5, 7), 1, 10, 10**4),
    # level 4 is an exponent tower, and the levels past it have no order
    ([2] * 6, 2, 10**4, 10**4),
])
def test_a_stream_past_a_level_matches_a_fresh_stream(primes, rank, coset_cap,
                                                       after_cap):
    made = list(_iter_levels(primes, rank, after_cap))
    for k, after in enumerate(made, 1):
        past = list(_iter_levels(primes, rank, coset_cap, after=after))
        fresh = list(islice(_iter_levels(primes, rank, coset_cap), k, None))
        assert len(past) == len(primes) - k
        assert [_level_facts(lvl) for lvl in past] == \
            [_level_facts(lvl) for lvl in fresh]
        # the stream goes on from ``after`` itself
        assert all(lvl.parent_level is below
                   for lvl, below in zip(past, [after] + past))


def test_exponent_cap_is_sane():
    assert ORDER_EXPONENT_CAP >= 10 ** 3


@pytest.mark.parametrize("rank", [1, 2, 5])
def test_one_coset_base_is_the_bfs_over_trivial_vectors(rank):
    # F/gamma_0 is built directly; the BFS it stands for is the oracle
    bfs = build_quotient(rank, [ModVector(1, (0,))] * rank)
    base = build_series([2], rank, 1)[0].parent_quotient
    for field in ("rank", "gen_images", "elements", "mult", "inv_mult",
                  "tree_parent", "kind", "params"):
        assert getattr(base, field) == getattr(bfs, field), field
    assert base.crossing_table() == bfs.crossing_table()
    assert base.schreier_generators() == bfs.schreier_generators()
    assert base.serialize() == bfs.serialize()


@pytest.mark.parametrize("rank", [0, -1, -10**20])
def test_a_rank_below_one_is_refused(rank):
    with pytest.raises(ValueError, match="rank must be at least 1"):
        build_series([2], rank, 1)


@pytest.mark.parametrize("rank", [0, -1, True, 2.0, "3"])
def test_every_verbal_order_route_refuses_a_rank_that_is_no_positive_int(rank):
    # -1 used to give the order 0.5, 2.0 the order 972.0, and True levels of
    # rank True
    for call in (lambda: quotient_order_factors([2, 3], rank, 2),
                 lambda: build_series([2, 3], rank, 2)):
        with pytest.raises(ValueError, match="rank must be at least 1"):
            call()


@pytest.mark.parametrize("primes", [[2.9, 3.2], ["5"], [2.5, 3], [True, 3],
                                    [2, 3.0]])
def test_prime_entries_are_read_as_ints_only(primes):
    # they used to be converted: [2.9, 3.2] read as (2, 3), "5" as 5
    with pytest.raises(ValueError, match="primes must be integers"):
        PrimeSeq(primes)
    with pytest.raises(ValueError, match="primes must be integers"):
        build_series(primes, 2, 1)


def test_a_rank_past_the_exponent_cap_is_refused_before_any_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rank past the cap allocates no table")

    monkeypatch.setattr(FiniteQuotient, "__init__", refuse)
    for rank in (ORDER_EXPONENT_CAP + 1, 10**18, 10**1000):
        with pytest.raises(CapExceeded) as err:
            build_series([2, 3], rank, 1)
        assert str(err.value) == ("depth-1 quotient order: reached an exponent "
                                  "tower with cap 1000000")


# -- levels from the table of built quotients -------------------------------


def _answer(fn, w):
    try:
        return ("value", fn(w))
    except NotMaterializedError as exc:
        return ("not materialized", str(exc))


def _same_tables(a, b):
    assert (a.elements, a.mult, a.inv_mult, a.tree_parent) == (
        b.elements, b.mult, b.inv_mult, b.tree_parent)
    assert a.crossing_table() == b.crossing_table()
    assert a.serialize() == b.serialize()


def _built_series(primes, rank, depth, **caps):
    """build_series, with every table it has coset data for read, and so
    built or taken from the table of built quotients."""
    levels = build_series(primes, rank, depth, **caps)
    for level in levels:
        level.parent_quotient
    return levels


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("primes", [(2, 3, 5), (2, 2, 3), (3, 2, 5)])
def test_levels_from_the_table_match_fresh_builds(empty_quotient_table, primes,
                                                  rank):
    first = _built_series(primes, rank, len(primes))
    served = _built_series(primes, rank, len(primes))
    empty_quotient_table.clear()
    fresh = _built_series(primes, rank, len(primes))
    rng = random.Random(f"{primes}-{rank}")
    words = [random_reduced_word(rng, rank, rng.randint(0, 8)) for _ in range(30)]
    words += [power(w, e) for w, e in zip(words, (2, 3, 5, 6, 30))]
    tabled = 0
    for old, level, new in zip(first, served, fresh):
        assert level.materialized == new.materialized
        if level.depth > 1 and level.materialized:
            # level 1's one-coset base is no BFS and is not tabled
            assert level.parent_quotient is old.parent_quotient
            assert new.parent_quotient is not level.parent_quotient
            tabled += 1
        if level.materialized:
            _same_tables(level.parent_quotient, new.parent_quotient)
        for query in ("member", "order_mod", "normal_form"):
            assert [_answer(getattr(level, query), w) for w in words] == [
                _answer(getattr(new, query), w) for w in words], query
    assert tabled >= 1


def test_a_level_is_built_once_per_process(empty_quotient_table, monkeypatch):
    # its exponent sums vanish, so membership needs the walk
    commutator = parse_word("abAB", 2)
    _built_series((2, 3, 5), 2, 3)
    levels = _built_series((2, 3, 5), 2, 3)
    assert levi_bound([commutator], (2, 3, 5)) == 2
    # levi_bound's membership walks the homology cover of F/gamma_1
    assert set(empty_quotient_table.quotients) == {
        ("verbal", 2, 2), ("verbal", 2, 2, 3), ("verbal cover", 2, 2)}

    def refuse(*args, **kwargs):
        raise AssertionError("a tabled quotient was rebuilt")

    monkeypatch.setattr(verbal, "build_quotient", refuse)
    monkeypatch.setattr(verbal, "HomologyCover", refuse)
    again = build_series((2, 3, 5, 7), 2, 3)
    assert again[2].parent_quotient is levels[2].parent_quotient
    assert levi_bound([commutator], (2, 3, 5)) == 2
    assert run_construction([2, 3, 5, 7], 1)["steps_completed"] == 1
    # a witness over F/gamma_2 parses its images against the tabled levels
    spec = quotient_from_spec(levels[2].parent_quotient.serialize())
    assert spec.order == 972


def _refusal(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except (CapExceeded, NotMaterializedError) as exc:
        return type(exc).__name__, str(exc)
    raise AssertionError("no refusal")


def test_a_smaller_cap_after_a_larger_one_refuses_as_before(empty_quotient_table):
    # its exponent sums vanish, so its order at depth 3 needs the walk
    commutator6 = power(parse_word("abAB", 2), 6)

    def refusals():
        levels = build_series((2, 3, 5), 2, 3, coset_cap=100)
        return [
            [level.materialized for level in levels],
            _refusal(levels[2]._require_fits),
            _refusal(levels[2].member, commutator6),
            _refusal(levi_bound, [parse_word("aa", 2)], (2, 3), coset_cap=2),
            run_construction([2, 3, 5, 7], 2, coset_cap=100)["halt_reason"],
        ]

    before = refusals()
    # the cover walked at depth 3 under the larger cap is held as well
    deep = _built_series((2, 3, 5), 2, 3, coset_cap=10**4)[2]
    assert deep.order_mod(commutator6) == 5
    run_construction([2, 3, 5, 7], 1, coset_cap=10**4)
    assert set(empty_quotient_table.quotients) == {
        ("verbal", 2, 2), ("verbal", 2, 2, 3), ("verbal cover", 2, 2),
        ("verbal cover", 2, 2, 3)}
    assert refusals() == before
    assert before == [
        [True, True, False],
        ("CapExceeded", "verbal materialization: reached 972 with cap 100"),
        ("NotMaterializedError", "level 3 has no coset data: |F/gamma_2| = 972 "
         "exceeded the materialization cap"),
        ("CapExceeded", "verbal materialization: reached 4 with cap 2"),
        "verbal materialization: reached 972 with cap 100",
    ]


def _held(table):
    return sum(q.order for q in table.quotients.values())


def test_the_table_evicts_the_least_recently_used_past_its_bound(
        empty_quotient_table, monkeypatch):
    monkeypatch.setattr(empty_quotient_table, "cosets", 1000)
    _built_series((2, 3, 5), 2, 3)
    evicted = empty_quotient_table.quotients[("verbal", 2, 2, 3)]
    assert empty_quotient_table.held == _held(empty_quotient_table) == 4 + 972
    # (2,) is used again, so the 128 cosets over (2, 2) evict (2, 3)
    _built_series((2, 2, 3), 2, 3)
    assert list(empty_quotient_table.quotients) == [("verbal", 2, 2),
                                                    ("verbal", 2, 2, 2)]
    assert empty_quotient_table.held == _held(empty_quotient_table) == 4 + 128
    rebuilt = build_series((2, 3, 5), 2, 3)[2].parent_quotient
    assert rebuilt is not evicted
    _same_tables(rebuilt, evicted)
    assert list(empty_quotient_table.quotients) == [("verbal", 2, 2),
                                                    ("verbal", 2, 2, 3)]
    assert empty_quotient_table.held == _held(empty_quotient_table) <= 1000


def test_a_quotient_past_the_bound_is_never_stored(empty_quotient_table,
                                                   monkeypatch):
    monkeypatch.setattr(empty_quotient_table, "cosets", 500)
    first = build_series((2, 3, 5), 2, 3)[2].parent_quotient
    again = build_series((2, 3, 5), 2, 3)[2].parent_quotient
    assert first.order == 972 and again is not first
    _same_tables(again, first)
    assert list(empty_quotient_table.quotients) == [("verbal", 2, 2)]
    assert empty_quotient_table.held == 4


# -- member and order_mod against the table walk -----------------------------

DIFFERENTIAL = [(rank, primes, depth)
                for rank in (1, 2, 3)
                for primes in ((2, 3), (3, 2), (3, 3), (2, 2, 3), (2, 3, 5))
                for depth in range(1, len(primes) + 1)]
# a repeated prime throughout, after the cases above so their ids stay
DIFFERENTIAL += [(rank, (2, 2, 2), depth)
                 for rank in (1, 2, 3) for depth in (1, 2, 3)]


def _differential_words(rng, rank, primes, count=200):
    """Random words, their powers by exponents up to 10^6, powers by
    multiples of the exponent q_1 .. q_d of F/gamma_d, members all, and
    commutators, whose exponent sums vanish and so decide nothing."""
    words = [random_reduced_word(rng, rank, rng.randint(0, 10))
             for _ in range(count)]
    words += [u * v * u.inverse() * v.inverse()
              for u, v in zip(words[:count // 4], words[count // 4:])]
    words += [power(w, rng.randint(1, 10**6)) for w in words[:count // 2]]
    words += [power(w, 10**6) for w in words[:20]]
    words += [power(w, prod(primes) * rng.randint(1, 10**4))
              for w in words[:20]]
    return words


def _answer_or_refusal(fn, w):
    """fn(w), or the type and text of what it raised; unlike _answer, a
    word refused with ValueError is an answer here too."""
    try:
        return ("value", fn(w))
    except (NotMaterializedError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("rank, primes, depth", DIFFERENTIAL)
def test_member_and_order_mod_match_the_table_walk(rank, primes, depth):
    level = build_series(primes, rank, depth)[-1]
    rng = random.Random(f"{rank}-{primes}-{depth}")
    words = _differential_words(rng, rank, primes[:depth])
    # a word of another rank and no word at all are refused alike
    words += [Word.generator(rank + 1, 1), "a"]
    # the shipped answers first, before the oracle builds any table
    found = [(_answer_or_refusal(level.member, w),
              _answer_or_refusal(level.order_mod, w)) for w in words]
    expected = [(_answer_or_refusal(lambda u: table_member(level, u), w),
                 _answer_or_refusal(lambda u: table_order_mod(level, u), w))
                for w in words]
    assert found == expected
    # both answers occur, or the refusal of the level past the cap
    assert {member for member, _ in found} >= {
        ("value", False), ("value", True) if level.materialized else
        ("NotMaterializedError", f"level {depth} has no coset data: "
         f"|F/gamma_{depth - 1}| = {level.parent_order} exceeded the "
         "materialization cap")}


def test_a_depth_three_query_builds_no_table_of_f_mod_gamma_2(
        empty_quotient_table):
    # its exponent sums vanish, so its order and membership need the walk
    commutator = parse_word("abAB", 2)
    level = build_series((3, 2, 5), 2, 3)[-1]
    assert level.order_mod(commutator) == 10
    assert not level.member(commutator)
    assert ("verbal", 2, 3, 2) not in empty_quotient_table.quotients
    # the cover walked in its place is held, charged |F/gamma_2| cosets
    cover = empty_quotient_table.quotients[("verbal cover", 2, 3, 2)]
    assert set(empty_quotient_table.quotients) == {
        ("verbal", 2, 3), ("verbal cover", 2, 3, 2)}
    assert cover.order == 9216 == level.parent_order
    assert empty_quotient_table.held == 9 + 9216
    # and it reaches only the vertices its walks visit
    assert 0 < len(cover._rows) - cover._rows.count(None) < 100
    rng = random.Random(325)
    words = _differential_words(rng, 2, (3, 2, 5), 40)
    found = [(level.member(w), level.order_mod(w)) for w in words]
    assert ("verbal", 2, 3, 2) not in empty_quotient_table.quotients
    assert found == [(table_member(level, w), table_order_mod(level, w))
                     for w in words]


def test_a_prime_off_the_exponent_sums_is_stepped_past_without_a_walk(
        empty_quotient_table):
    # a^6 has exponent sums (6, 0): q_3 = 5 does not divide them, so its
    # order in F/gamma_3 is 5 times that in F/gamma_2, where q_2 = 3 does,
    # and only F/gamma_1's cover is walked
    level = build_series((2, 3, 5), 2, 3)[-1]
    a6 = power(Word.generator(2, 1), 6)
    assert level.order_mod(a6) == 5
    assert set(empty_quotient_table.quotients) == {("verbal cover", 2, 2)}
    keys = [(0,) * 6, (0, 1, 2, 3)]  # a^6 and abAB
    sums = [packed_sums(a6, 6), packed_sums(parse_word("abAB", 2), 6)]
    tally, classes, walked = level._tally_classes(keys, sums, 6)
    assert tally == {(5, 2): 1, (15, 1): 1}
    # neither class is closed by its sums, so each word is walked
    assert classes == dict.fromkeys(sums)
    assert walked == dict(zip(keys, [(5, 2), (15, 1)]))
    assert ("verbal cover", 2, 2, 3) in empty_quotient_table.quotients
    assert table_order_mod(level, a6) == 5


@pytest.mark.parametrize("primes", [(3, 5, 2), (2, 5, 3)])
def test_past_the_cap_the_exponent_sums_answer_nothing_refused(
        empty_quotient_table, primes):
    # |F/gamma_2| is past the cap, so level 3 refuses before reading a's
    # exponent sums (1, 0), which alone would give its order q_1 q_2 q_3
    level = build_series(primes, 2, 3)[-1]
    a, c = Word.generator(2, 1), Word.generator(3, 1)
    refused = ("NotMaterializedError", "level 3 has no coset data: "
               f"|F/gamma_2| = {level.parent_order} exceeded the "
               "materialization cap")
    assert level.parent_order in (87890625, 12500)
    assert _answer_or_refusal(check_pigraded_properties, level) == refused
    assert _answer_or_refusal(level.order_mod, a) == refused
    assert _answer_or_refusal(level.order_mod, "a") == refused
    # membership is decided at level 2, where a lies outside gamma_1
    assert level.member(a) is False
    assert _answer_or_refusal(level.member, "a") == (
        "ValueError", "expected a Word, got 'a'")
    assert _answer_or_refusal(level.member, c) == (
        "ValueError", "rank mismatch: word has 3, quotient has 2")
    assert empty_quotient_table.quotients == {}


def test_rank_one_queries_build_no_table(empty_quotient_table):
    primes = (2, 3, 5, 7, 11, 13)
    a = Word.generator(1, 1)
    level = build_series(primes, 1, 6)[-1]
    assert level.order_mod(a) == prod(primes)
    assert level.order_mod(power(a, 7 * 11**30)) == 2 * 3 * 5 * 13
    assert level.member(power(a, 30030 * 10**20))
    assert not level.member(power(a, 30030 * 10**20 + 1))
    assert empty_quotient_table.quotients == {}
    assert level._parent_quotient is None


def test_a_basis_rank_past_an_exponent_tower_is_refused():
    # |F/gamma_4| over (2, 3, 5, 7) is a tower, so level 5 has no parent order
    # by the factored order, whose exponent at depth 5 is that basis rank
    deepest = build_series([2, 3, 5, 7, 11], 2, 5)[-1]
    assert deepest.parent_order is None
    with pytest.raises(CapExceeded) as err:
        quotient_order_factors([2, 3, 5, 7, 11], 2, 5)
    assert str(err.value) == ("depth-4 quotient order exponent: reached about "
                              f"10^683 with cap {ORDER_EXPONENT_CAP}")
