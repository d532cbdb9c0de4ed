"""The homology-cover build of F/gamma_d and the single-table verbal queries,
checked against the layered-coset enumeration and a level-by-level oracle."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from largequot.errors import NotMaterializedError
from largequot.quotients import build_quotient, homology_cover, mod_abelianization
from largequot.verbal import LayeredCoset, build_series
from largequot.words import Word, power

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


def _layered_enumeration(level, rank):
    """F/gamma_d enumerated over layered cosets of the level below it."""
    images = [LayeredCoset(level, Word.generator(rank, g))
              for g in range(1, rank + 1)]
    return build_quotient(rank, images)


def test_cover_equals_layered_coset_enumeration():
    for primes, rank in SERIES:
        levels = _levels(primes, rank, 10**4)
        covers = 0
        for below, level in zip(levels, levels[1:]):
            cover = level.parent_quotient
            if cover is None:
                break
            ref = _layered_enumeration(below, rank)
            assert cover.order == ref.order == level.parent_order
            assert cover.mult == ref.mult
            assert cover.inv_mult == ref.inv_mult
            assert cover.tree_parent == ref.tree_parent
            assert cover.schreier_generators() == ref.schreier_generators()
            assert [cover.schreier_generator_word(lab)
                    for lab in cover.schreier_generators()] == [
                ref.schreier_generator_word(lab)
                for lab in ref.schreier_generators()]
            assert cover.serialize() == ref.serialize()
            covers += 1
        assert covers >= 1, (primes, rank)


def test_cover_of_a_cyclic_table_is_cyclic():
    # the Z/q cover of Z/n (one loop edge off the tree) is Z/nq
    for n, q in ((1, 5), (3, 2), (4, 3)):
        cover = homology_cover(mod_abelianization(1, n), q)
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
