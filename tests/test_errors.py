"""The one integer check, at every entry point that reads an integer."""

import pytest

from largequot.config import Config
from largequot.errors import check_int
from largequot.largeness import certify_power_quotient, lemma_fi_bound
from largequot.periodic import (
    check_pigraded_properties,
    format_order,
    run_construction,
)
from largequot.quotients import ModVector
from largequot.series import TruncSeries, embed
from largequot.verbal import build_series
from largequot.words import Word, parse_word, power


def test_check_int_returns_the_value_or_refuses_it():
    assert check_int(5, "n") == 5
    assert check_int(-5, "n") == -5
    assert check_int(0, "n", 0) == 0
    for value, low in ((True, None), (False, None), (2.0, None), ("3", None),
                       (None, None), (0, 1), (-1, 0)):
        with pytest.raises(ValueError) as err:
            check_int(value, "n must be fine", low)
        assert str(err.value) == f"n must be fine, got {value!r}"


A = parse_word("a", 2)

# (entry point, a call with the value where the entry point reads its
# integer, the frozen refusal text, the least value it accepts or None)
ENTRY_POINTS = [
    *[(f"Config.{name}", lambda v, name=name: Config(**{name: v}),
       f"{name} must be a positive integer", 1)
      for name in ("enumeration_cap", "coset_cap", "depth_cap",
                   "truncation_cap")],
    ("lemma_fi_bound", lambda v: lemma_fi_bound([A], v),
     "m must be a positive integer", 1),
    ("certify_power_quotient", lambda v: certify_power_quotient([A], v),
     "exponent must be a positive integer", 1),
    ("run_construction", lambda v: run_construction([2, 3], v),
     "steps must be a positive integer", 1),
    ("format_order", format_order, "orders are positive", 1),
    ("ModVector", lambda v: ModVector(v, [1]),
     "modulus must be a positive integer", 1),
    # every int is a residue
    ("ModVector.values", lambda v: ModVector(2, [v, 0]),
     "residue vector entries must be integers", None),
    ("ModVector.from_payload.modulus",
     lambda v: ModVector.from_payload({"modulus": v, "dim": 1}, [1]),
     "modulus must be a positive integer", 1),
    # dim 0 is an int, refused by the payload's length
    ("ModVector.from_payload.dim",
     lambda v: ModVector.from_payload({"modulus": 2, "dim": v}, [1]),
     "residue vector dimension must be an integer", None),
    ("TruncSeries.rank", lambda v: TruncSeries(v, 2, None),
     "rank must be a positive integer", 1),
    ("TruncSeries.degree_bound", lambda v: TruncSeries(2, v, None),
     "degree bound must be a positive integer", 1),
    ("TruncSeries.modulus", lambda v: TruncSeries(2, 2, v),
     "modulus must be None or an integer >= 2", 2),
    ("TruncSeries.from_payload",
     lambda v: TruncSeries.from_payload(
         {"rank": 2, "degree_bound": v, "modulus": 2}, "1 + x1"),
     "degree bound must be a positive integer", 1),
    ("TruncSeries.power", lambda v: TruncSeries.one(2, 2, 2).power(v),
     "exponent must be an integer", None),
    ("embed", lambda v: embed(A, v), "degree bound must be a positive integer", 1),
    ("power", lambda v: power(A, v), "exponent must be an integer", None),
    # an int out of range, or an exponent other than +-1, keeps its own text
    ("Word.generator", lambda v: Word(2, [(v, 1)]),
     "generator index must be an integer", None),
    ("Word.exponent", lambda v: Word(2, [(1, v)]),
     "letter exponent must be +1 or -1", None),
    ("build_series.depth", lambda v: build_series([2, 3], 2, v),
     "depth must be a nonnegative integer", 0),
    ("check_pigraded_properties",
     lambda v: check_pigraded_properties(build_series([2, 3], 2, 1)[-1],
                                         sample_count=v),
     "sample count must be a nonnegative integer", 0),
]


# True as a bool, 2.0 and "3" as no int, and low - 1 as below the least
# value the site accepts (0 where that is 1); a site that takes every int
# has no such value
CASES = [(f"{name}-{value!r}", call, text, value)
         for name, call, text, low in ENTRY_POINTS
         for value in (True, 2.0, "3") + (() if low is None else (low - 1,))]


@pytest.mark.parametrize("call, text, value", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_entry_points_refuse_what_is_no_int_or_too_small(call, text, value):
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{text}, got {value!r}"


def test_letters_and_residues_that_are_no_ints_are_refused():
    # each was accepted: 1 <= 1.0 <= 2 and 1.0 in (1, -1) both hold
    for letters, text in (
            ([(1.0, 1.0)], "generator index must be an integer, got 1.0"),
            ([(True, 1)], "generator index must be an integer, got True"),
            ([(1, True)], "letter exponent must be +1 or -1, got True"),
            ([(3, 1)], "generator index 3 out of range for rank 2"),
            ([(0, 1)], "generator index 0 out of range for rank 2"),
            ([(1, 2)], "letter exponent must be +1 or -1, got 2")):
        with pytest.raises(ValueError) as err:
            Word(2, letters)
        assert str(err.value) == text
    with pytest.raises(ValueError) as err:
        ModVector(2, [1.5, 0])
    assert str(err.value) == "residue vector entries must be integers, got 1.5"
    assert ModVector(3, [4, -1]).values == (1, 2)
    assert (ModVector(3, [1, 2]) * ModVector(3, [2, 2])).values == (0, 1)
    assert ModVector(3, [1, 2]).inverse().values == (2, 1)
