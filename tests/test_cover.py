"""The cover build of F/gamma_d, the verbal kind's packed action, and the
single-table verbal queries, checked against the layered-coset enumeration
and a level-by-level oracle."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largequot.errors import CapExceeded, NotMaterializedError
from largequot.quotients import ModVector, build_quotient
from largequot.verbal import LayeredCoset, build_series
from largequot.words import Word, parse_word, power
from oracles import VerbalCoset, mod_abelianization, quotient_from_spec

SERIES = [
    ((2, 3, 5), 2),
    ((2, 2, 3), 2),
    ((3, 2, 5), 2),
    ((5, 2, 3), 2),
    ((2, 3), 3),
    ((2, 3, 5, 7, 11, 13), 1),
]
CAPS = (10**4, 100, 2)


@functools.lru_cache(maxsize=None)
def _levels(primes, rank, cap):
    return build_series(primes, rank, len(primes), coset_cap=cap)


def _images(level, texts):
    return [LayeredCoset(level, parse_word(t, level.rank)) for t in texts]


def _generators(level):
    return [chr(ord("a") + g) for g in range(level.rank)]


def _outcomes(level, texts, cap):
    """The packed build and the multiply-and-hash build of one image set,
    each as the quotient or the text of the CapExceeded it raised."""
    def build(images, **kwargs):
        try:
            return build_quotient(level.rank, images, cap=cap, **kwargs)
        except CapExceeded as exc:
            return str(exc)
    images = _images(level, texts)
    ref = build([VerbalCoset(level, img.word) for img in images], kind="verbal",
                params={"primes": list(level.primes_prefix),
                        "rank": level.rank, "depth": level.depth})
    return build(images), ref


@functools.lru_cache(maxsize=None)
def _oracle(primes, rank, depth):
    level = _levels(primes, rank, 10**4)[depth - 1]
    return _outcomes(level, _generators(level), 10**6)[1]


def _assert_same_quotient(packed, ref):
    assert packed.order == ref.order
    assert packed.mult == ref.mult
    assert packed.inv_mult == ref.inv_mult
    assert packed.tree_parent == ref.tree_parent
    assert packed.schreier_generators() == ref.schreier_generators()
    assert [packed.schreier_generator_word(lab)
            for lab in packed.schreier_generators()] == [
        ref.schreier_generator_word(lab) for lab in ref.schreier_generators()]
    assert packed.serialize() == ref.serialize()


def test_cover_equals_layered_coset_enumeration():
    covers = 0
    for primes, rank in SERIES:
        for cap in CAPS:
            levels = _levels(primes, rank, cap)
            for below, level in zip(levels, levels[1:]):
                cover = level.parent_quotient
                if cover is None:
                    break
                assert cover.order == level.parent_order
                _assert_same_quotient(cover, _oracle(primes, rank, below.depth))
                covers += 1
    assert covers >= 2 * len(SERIES)


def test_schreier_tables_match_the_tree_edge_set_oracle(schreier_tables_oracle):
    quotients = []
    for primes, rank in SERIES:
        for cap in CAPS:
            levels = _levels(primes, rank, cap)
            for below, level in zip(levels, levels[1:]):
                if level.parent_quotient is None:
                    break
                quotients += [level.parent_quotient,
                              _oracle(primes, rank, below.depth)]
    level = _levels((2, 3), 2, 10**4)[1]
    for texts in (("ab", "b"), ("aba", "bbb")):
        quotients += _outcomes(level, texts, 10**6)
    for primes in ((5,), (3, 2), (2, 2, 3)):
        level = build_series(primes, 1, len(primes))[-1]
        quotients += [build_quotient(1, _images(level, ["a"])),
                      mod_abelianization(1, level.parent_order * level.prime)]
    for q in quotients:
        assert (q.schreier_generators(), q.crossing_table()) == \
            schreier_tables_oracle(q)


@pytest.mark.parametrize("texts, order", [(("ab", "b"), 972),
                                          (("aba", "bbb"), 18)])
def test_packed_action_takes_any_image_words(texts, order):
    level = _levels((2, 3), 2, 10**4)[1]
    packed, ref = _outcomes(level, texts, 10**6)
    assert packed.order == order
    _assert_same_quotient(packed, ref)
    for cap in (100, order - 1):
        packed, ref = _outcomes(level, texts, cap)
        if isinstance(ref, str):
            assert packed == ref
        else:
            _assert_same_quotient(packed, ref)
    assert packed == f"quotient enumeration: reached {order} with cap {order - 1}"


def test_from_spec_rebuilds_the_cover_without_multiplying(empty_quotient_table):
    level = build_series((2, 3, 5), 2, 3)[2]
    doc = level.parent_quotient.serialize()
    # so the levels the images parse against are built again
    empty_quotient_table.clear()
    # layered cosets cannot be multiplied: the cover's int keys are the
    # only elements a quotient over them holds
    assert not hasattr(LayeredCoset, "__mul__")
    again = quotient_from_spec(doc)
    assert all(type(key) is int for key in again.elements)
    assert (again.elements, again.mult, again.inv_mult, again.tree_parent) == (
        level.parent_quotient.elements, level.parent_quotient.mult,
        level.parent_quotient.inv_mult, level.parent_quotient.tree_parent)


@pytest.mark.parametrize("other", [
    lambda: LayeredCoset(build_series((2, 5), 2, 2)[1], parse_word("b", 2)),
    lambda: LayeredCoset(build_series((2, 3), 2, 1)[0], parse_word("b", 2)),
    lambda: LayeredCoset(build_series((2, 3), 3, 2)[1], parse_word("b", 3)),
    lambda: ModVector(2, (0, 1)),
])
def test_cover_refuses_images_of_two_quotients(other):
    # the second image is from another series (primes, depth or rank), or
    # is not a layered coset at all; a level without tables (depth 4 over
    # (2,3,5,7)) is refused by the same text, before its tables are asked
    for level in (build_series((2, 3), 2, 2)[1],
                  build_series((2, 3, 5, 7), 2, 4)[3]):
        images = [LayeredCoset(level, parse_word("a", 2)), other()]
        with pytest.raises(ValueError) as err:
            build_quotient(2, images)
        assert str(err.value) == "cosets of different verbal quotients"


def test_from_spec_of_a_level_without_tables_raises_as_normal_form():
    doc = {"kind": "verbal", "params": {"primes": [2, 3, 5, 7], "rank": 2,
                                        "depth": 4}, "gen_images": ["a", "b"]}
    level = build_series((2, 3, 5, 7), 2, 4)[3]
    with pytest.raises(NotMaterializedError) as expected:
        level.normal_form(Word.generator(2, 1))
    with pytest.raises(NotMaterializedError) as got:
        quotient_from_spec(doc)
    assert str(got.value) == str(expected.value)


def test_cover_of_a_cyclic_table_is_cyclic():
    # over rank 1, F/gamma_d is the Z/q cover of Z/n (one loop edge off the
    # tree), with n = |F/gamma_{d-1}| and q the last prime: it is Z/nq
    for primes in ((5,), (3, 2), (2, 2, 3)):
        level = build_series(primes, 1, len(primes))[-1]
        n, q = level.parent_order, level.prime
        cover = build_quotient(1, _images(level, ["a"]))
        ref = mod_abelianization(1, n * q)
        assert (cover.mult, cover.inv_mult, cover.tree_parent) == (
            ref.mult, ref.inv_mult, ref.tree_parent)


def _outcome(fn, w):
    try:
        return ("value", fn(w))
    except NotMaterializedError as exc:
        return ("not materialized", str(exc))


def _chain_member(level, w):
    """Membership level by level, one component vector per level."""
    for lvl in level._chain():
        if any(lvl.component_vector(w)):
            return False
    return True


def _chain_order(level, w):
    """The order gains q at each level where the running power of w has a
    nonzero component vector."""
    n = 1
    u = w
    for lvl in level._chain():
        if any(lvl.component_vector(u)):
            n *= lvl.prime
            u = power(u, lvl.prime)
    return n


@st.composite
def series_words(draw):
    primes, rank = draw(st.sampled_from(SERIES))
    cap = draw(st.sampled_from(CAPS))
    letter = st.tuples(st.integers(1, rank), st.sampled_from((1, -1)))
    w = Word(rank, draw(st.lists(letter, max_size=10)))
    exponent = draw(st.sampled_from((1, 1, 2, 3, 5, 6, 30)))
    return primes, rank, cap, power(w, exponent)


@settings(max_examples=300, deadline=None)
@given(series_words())
def test_queries_match_the_chain_walk_oracle(case):
    primes, rank, cap, w = case
    for level in _levels(primes, rank, cap):
        assert _outcome(level.member, w) == _outcome(
            functools.partial(_chain_member, level), w)
        assert _outcome(level.order_mod, w) == _outcome(
            functools.partial(_chain_order, level), w)


def test_queries_name_the_lowest_unmaterialized_level():
    # (2,3,5) at cap 100: F/gamma_2 has 972 cosets, so levels 3 and up
    # have no table; aa^3 = a^6 lies in gamma_2 and needs level 3
    levels = _levels((2, 3, 5), 2, 100)
    a6 = power(Word.generator(2, 1), 6)
    for level in levels[2:]:
        kind, text = _outcome(level.member, a6)
        assert kind == "not materialized" and text.startswith("level 3 ")
        kind, text = _outcome(level.order_mod, a6)
        assert kind == "not materialized" and text.startswith("level 3 ")
    # a word outside gamma_2 is refused without the missing table
    assert levels[2].member(Word.generator(2, 1)) is False
