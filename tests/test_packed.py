"""The packed magnus action against BFS over truncated-series products.

``build_quotient`` runs magnus units over a modulus on packed coefficient
ints.  The oracle here wraps the same series in a class that is no element
kind and has no packed action, which forces the BFS to multiply series, and
the two enumerations must agree on every table, tree edge, document and
error.
"""

import pytest
from sympy import divisors, mobius

from largequot import series
from largequot.errors import CapExceeded
from largequot.quotients import build_quotient
from largequot.series import (
    TruncSeries,
    embed,
    generator_image,
    unit_image_exponent,
    unit_image_quotient,
)
from oracles import quotient_from_spec

ORDER_LIMIT = 10**4
EXPONENT_ORDER_LIMIT = 10**5


class Opaque:
    """A series that is no element kind: the BFS multiplies it as is."""

    __slots__ = ("series",)

    def __init__(self, series):
        self.series = series

    def __mul__(self, other):
        return Opaque(self.series * other.series)

    def inverse(self):
        return Opaque(self.series.inverse())

    def __eq__(self, other):
        return isinstance(other, Opaque) and self.series == other.series

    def __hash__(self):
        return hash(self.series)

    def __str__(self):
        return str(self.series)


def generic_quotient(images, params, cap=ORDER_LIMIT):
    return build_quotient(len(images), [Opaque(s) for s in images], cap=cap,
                          kind="magnus_unit", params=params)


def unit_params(p, r, l):
    return {"modulus": p, "rank": r, "degree_bound": l}


def unit_images(p, r, l):
    return [generator_image(r, l, p, g, 1) for g in range(1, r + 1)]


def closed_form_order(p, r, l):
    """p^(sum_{n<l} e_n) with e_n = sum_{p^k | n} M_r(n/p^k) (Jennings)."""
    def necklaces(n):
        return sum(mobius(d) * r ** (n // d) for d in divisors(n)) // n

    exponent = 0
    for n in range(1, l):
        m = n
        while True:
            exponent += necklaces(m)
            if m % p:
                break
            m //= p
    return p**exponent


def small_cases(limit=ORDER_LIMIT):
    """(p, r, l), p in {2,3,5,7}, r in {1,2,3}, for every l of order <= limit.

    Rank 1 orders p^ceil(log_p l) stay small far out, so there l stops at
    p + 2, past the jump from p to p^2.
    """
    cases = []
    for p in (2, 3, 5, 7):
        for r in (1, 2, 3):
            if r == 1:
                cases += [(p, 1, l) for l in range(1, p + 3)]
                continue
            l = 1
            while closed_form_order(p, r, l) <= limit:
                cases.append((p, r, l))
                l += 1
    return cases


CASES = small_cases()


@pytest.mark.parametrize("p, r, l", small_cases(EXPONENT_ORDER_LIMIT))
def test_unit_image_exponent_matches_bfs_and_mobius(p, r, l):
    # two oracles: the BFS order, and the Mobius form of the necklace count
    e = unit_image_exponent(p, r, l)
    assert type(e) is int
    assert p**e == closed_form_order(p, r, l)
    assert p**e == unit_image_quotient(p, r, l,
                                       cap=EXPONENT_ORDER_LIMIT).order


def assert_same_quotient(packed, generic):
    assert packed.order == generic.order
    assert packed.mult == generic.mult
    assert packed.inv_mult == generic.inv_mult
    assert packed.tree_parent == generic.tree_parent
    assert packed.serialize() == generic.serialize()


def cap_outcome(build, cap):
    try:
        return build(cap).order
    except CapExceeded as exc:
        return ("capped", exc.reached, exc.cap)


@pytest.fixture
def series_products(monkeypatch):
    """Counts TruncSeries products taken with ``*``, as the generic BFS does."""
    calls = []
    original = TruncSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(TruncSeries, "__mul__", counted)
    return calls


@pytest.mark.parametrize("p, r, l", CASES)
def test_packed_bfs_matches_series_bfs(p, r, l):
    packed = unit_image_quotient(p, r, l)
    assert all(isinstance(x, int) for x in packed.elements)
    assert packed.order == closed_form_order(p, r, l)
    params = unit_params(p, r, l)
    assert_same_quotient(packed, generic_quotient(unit_images(p, r, l), params))
    if packed.order <= 256:
        # the Schreier words reach distinct units, without the oracle BFS
        cosets = {embed(packed.transversal_word(i), l, p)
                  for i in range(packed.order)}
        assert len(cosets) == packed.order


@pytest.mark.parametrize("p, r, l", [c for c in CASES if c[2] > 1])
def test_caps_match_series_bfs(p, r, l):
    # the order is tied to the series BFS above; near it the series BFS is
    # slow, so there the expected outcome alone is checked
    order = closed_form_order(p, r, l)
    params = unit_params(p, r, l)
    images = unit_images(p, r, l)
    for cap in sorted({1, 2, order - 1, order}):
        packed = cap_outcome(lambda c: unit_image_quotient(p, r, l, cap=c), cap)
        assert packed == (order if cap >= order else ("capped", cap + 1, cap))
        if cap <= 2:
            assert packed == cap_outcome(
                lambda c: generic_quotient(images, params, c), cap)


def spec(modulus, rank, degree_bound, gen_images):
    return {
        "kind": "magnus_unit",
        "params": unit_params(modulus, rank, degree_bound),
        "gen_images": gen_images,
    }


@pytest.mark.parametrize("doc", [
    spec(3, 2, 3, ["1 + x1 + x1x2", "1 + 2*x2 + x2x1"]),
    spec(5, 2, 3, ["1 + x1x2", "1 + x2 + 3*x1x1"]),
    spec(2, 3, 3, ["1 + x1 + x2x3", "1 + x2", "1 + x3 + x1x1"]),
    spec(4, 2, 3, ["1 + x1", "1 + x2"]),
    spec(4, 1, 5, ["1 + 3*x1 + 2*x1x1"]),
    spec(6, 2, 2, ["1 + x1", "1 + x2"]),
])
def test_from_spec_packed_matches_series_bfs(doc, series_products):
    packed = quotient_from_spec(doc, cap=ORDER_LIMIT)
    assert not series_products
    assert all(isinstance(x, int) for x in packed.elements)
    params = doc["params"]
    images = [TruncSeries.parse(text, params["rank"], params["degree_bound"],
                                params["modulus"]) for text in doc["gen_images"]]
    assert_same_quotient(packed, generic_quotient(images, params))
    assert packed.serialize() == doc


def test_from_spec_over_the_integers_multiplies_series(series_products):
    doc = spec(None, 2, 3, ["1 + x1", "1 + x2"])
    images = [TruncSeries.parse(t, 2, 3, None) for t in doc["gen_images"]]
    with pytest.raises(CapExceeded) as packed:
        quotient_from_spec(doc, cap=200)
    assert series_products
    with pytest.raises(CapExceeded) as generic:
        generic_quotient(images, doc["params"], cap=200)
    assert (packed.value.reached, packed.value.cap) == \
        (generic.value.reached, generic.value.cap) == (201, 200)


def test_from_spec_non_unit_image_raises_the_series_error():
    doc = spec(3, 2, 3, ["2 + x1", "1 + x2"])
    images = [TruncSeries.parse(t, 2, 3, 3) for t in doc["gen_images"]]
    with pytest.raises(ValueError) as packed:
        quotient_from_spec(doc)
    with pytest.raises(ValueError) as generic:
        generic_quotient(images, doc["params"])
    assert str(packed.value) == str(generic.value)
    assert str(packed.value) == "series inverse requires constant term 1, got 2"


def test_hand_built_magnus_quotient_takes_the_packed_action(series_products):
    images = [TruncSeries.parse("1 + x1 + 2*x2x1", 2, 4, 3),
              TruncSeries.parse("1 + x2", 2, 4, 3)]
    q = build_quotient(2, images)
    assert not series_products
    assert q.kind == "magnus_unit"
    assert_same_quotient(q, generic_quotient(images, unit_params(3, 2, 4)))


def test_a_vertex_past_the_term_cap_is_not_packed():
    # at rank 1001 and truncation 3 a vertex would have 1 + 1001 + 1001^2
    # fields, more than a series product may have terms
    images = unit_images(2, 1001, 3)
    inverses = [g.inverse() for g in images]
    assert series.TruncSeries.packed_action(images, inverses) is None
