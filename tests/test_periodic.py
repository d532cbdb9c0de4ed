import json
import random
from collections import Counter
from math import gcd, prod

import pytest
import sympy

from largequot import periodic
from largequot.cli import main
from largequot.errors import CapExceeded, NotMaterializedError
from largequot.periodic import (
    ASSUMPTION_MARGIN,
    ASSUMPTION_SURJECTION,
    TRACE_SCHEMA,
    ConstructionState,
    check_pigraded_properties,
    format_factors,
    next_step,
    replay_matches,
    run_construction,
    trace_to_jsonl,
)
from largequot.primes import factor
from largequot.verbal import (
    DEFAULT_COSET_CAP,
    PrimeSeq,
    VerbalLevel,
    build_series,
)
from largequot.words import (
    Word,
    _Power,
    indexed_word,
    parse_word,
    power,
    random_reduced_sample,
    random_reduced_word,
    shortlex_words,
)
from oracles import parse_order, step_table, table_orders_and_depths


def test_format_order_shapes():
    # an order document, from the factorization of the order
    assert format_factors({}) == {"factored": "1", "decimal": 1}
    assert format_factors({2: 2, 3: 5}) == {"factored": "2^2 * 3^5",
                                            "decimal": 972}
    assert format_factors({5: 1, 3: 1, 2: 1, 7: 0}) == {"factored": "2 * 3 * 5",
                                                        "decimal": 30}
    assert format_factors({2: 64}) == {"factored": "2^64"}
    assert "decimal" in format_factors(factor(2**64 - 1))
    # documents are formatted once per factorization, and each call gets its
    # own: a caller that edits one leaves the next call's intact
    doc = format_factors({2: 2, 3: 5})
    doc["factored"] = "edited"
    del doc["decimal"]
    assert format_factors({3: 5, 2: 2}) == {"factored": "2^2 * 3^5",
                                            "decimal": 972}
    # a zero exponent and the order of the keys change nothing
    assert format_factors({5: 1, 3: 1, 2: 1, 7: 0}) == \
        format_factors({2: 1, 3: 1, 5: 1})


def _format_order_reference(n):
    # an order document made from the value alone, factored by sympy
    if n == 1:
        factored = "1"
    else:
        parts = []
        for p, e in sorted(sympy.factorint(n).items()):
            parts.append(f"{p}^{e}" if e > 1 else str(p))
        factored = " * ".join(parts)
    doc = {"factored": factored}
    if n < 2**64:
        doc["decimal"] = n
    return doc


def test_format_order_matches_its_reference():
    rng = random.Random(64)
    values = list(range(1, 20001))
    values += [2**64 - 1, 2**64, 2**64 + 1, sympy.prevprime(2**64)]
    values += [rng.randrange(2**60, 2**68) for _ in range(40)]
    for n in values:
        assert format_factors(factor(n)) == _format_order_reference(n), n


def test_parse_order_inverts_format():
    for n in (1, 2, 12, 972, 2**63, 2**64, 3**100, 972 * 5**20):
        assert parse_order(format_factors(factor(n))) == n


def test_format_factors_matches_format_order():
    for n, factors in [
        (972, {2: 2, 3: 5}),
        (1, {}),
        (2**63, {2: 63}),
        (2**64, {2: 64}),
        (3**40, {3: 40}),
        (3**41, {3: 41}),
    ]:
        assert format_factors(factors) == _format_order_reference(n)
    # no-factorint path must survive orders far past any decimal budget
    tower = format_factors({5: 973, 2: 2, 3: 5})
    assert "decimal" not in tower
    assert parse_order(tower) == 972 * 5**973


def test_single_step_frozen_values():
    trace = run_construction([2, 3, 5, 7], 1)
    assert trace["schema"] == TRACE_SCHEMA
    assert trace["steps_completed"] == 1
    assert not trace["halted"]
    step = trace["steps"][0]
    assert step["word"] == "a"
    assert step["prefix_exponent"] == 1
    assert step["escape_depth"] == 1
    assert step["levi_depth"] == 1
    assert step["new_depth"] == 2
    assert step["order_at_level"] == 6
    assert step["relator"] == {"base": "a", "exponent": 6}
    assert step["relator_in_level"]
    assert [parse_order(o) for o in step["level_orders"]] == [4, 972]
    assert parse_order(step["growth"]["to"]) == 972
    assert len(step["assumptions_added"]) == 2
    tags = "".join(step["assumptions_added"])
    assert ASSUMPTION_SURJECTION in tags and ASSUMPTION_MARGIN in tags


def test_state_documents_along_the_trace():
    trace = run_construction([2, 3, 5, 7], 1)
    first, last = trace["states"]
    assert first["step"] == 0
    assert first["depth"] == 0
    assert first["relators"] == []
    assert [parse_order(o) for o in first["order_history"]] == [1]
    assert last["step"] == 1
    assert last["depth"] == 2
    assert last["relators"] == [{"base": "a", "exponent": 6}]
    assert [parse_order(o) for o in last["order_history"]] == [1, 972]
    assert len(last["assumptions"]) == 2


def test_second_step_halts_at_materialization_cap():
    trace = run_construction([2, 3, 5, 7], 2)
    assert trace["halted"]
    assert trace["steps_completed"] == 1
    assert "verbal materialization" in trace["halt_reason"]
    assert "about 10^683" in trace["halt_reason"]
    # the partial trace still carries the completed step
    assert trace["steps"][0]["relator"] == {"base": "a", "exponent": 6}
    assert len(trace["states"]) == 2


def _fold_of_steps(primes, steps, rank, coset_cap=DEFAULT_COSET_CAP):
    """The trace of :func:`run_construction`, as a fold of the public
    next_step from a fresh state."""
    state = ConstructionState(rank=rank, pi=primes)
    states, records, halt_reason = [state.to_doc()], [], None
    words = shortlex_words(rank)
    for _ in range(steps):
        try:
            state, record = next_step(state, next(words), coset_cap=coset_cap)
        except (CapExceeded, ValueError) as exc:
            halt_reason = str(exc)
            break
        states.append(state.to_doc())
        records.append(record)
    return {"schema": TRACE_SCHEMA, "rank": rank, "pi": list(primes),
            "steps_requested": steps, "steps_completed": len(records),
            "halted": halt_reason is not None, "halt_reason": halt_reason,
            "states": states, "steps": records,
            "assumptions": list(state.assumptions)}


@pytest.mark.parametrize("primes, steps, rank, coset_cap", [
    *[((2, 3, 5, 7), steps, rank, DEFAULT_COSET_CAP)
      for rank in (1, 2, 3) for steps in (1, 2, 3)],
    ((2, 3, 5, 7, 11, 13), 4, 1, DEFAULT_COSET_CAP),
    # F/gamma_2 of order 6 fits the cap, F/gamma_3 of order 30 does not: the
    # second step halts at its target level 4
    ((2, 3, 5, 7), 3, 1, 10),
])
def test_one_stream_per_run_matches_a_fold_of_steps(monkeypatch, primes, steps,
                                                     rank, coset_cap):
    fold = _fold_of_steps(primes, steps, rank, coset_cap)
    built = Counter()
    made = VerbalLevel.__init__

    def counted(self, *args, **kwargs):
        made(self, *args, **kwargs)
        built[self.depth] += 1

    monkeypatch.setattr(VerbalLevel, "__init__", counted)
    trace = run_construction(primes, steps, rank=rank, coset_cap=coset_cap)
    # each step goes on past the level the last one reached: no depth's
    # level is built twice in a run
    assert built and max(built.values()) == 1
    assert trace == fold
    assert replay_matches(trace, coset_cap=coset_cap)


@pytest.mark.parametrize("pi", [(2, 3), [2, 3], PrimeSeq([2, 3])])
def test_a_state_takes_any_prime_sequence(pi):
    # a tuple or list of primes raised AttributeError on .distinct
    state = ConstructionState(rank=2, pi=pi)
    assert type(state.pi) is PrimeSeq and state.pi.primes == (2, 3)
    assert state.to_doc()["pi"] == [2, 3]
    stepped, record = next_step(state, Word.generator(2, 1))
    assert stepped.to_doc() == run_construction([2, 3], 1)["states"][1]
    assert record["relator"] == {"base": "a", "exponent": 6}


def test_states_over_equal_primes_compare_equal():
    states = [ConstructionState(rank=2, pi=pi)
              for pi in ((2, 3), [2, 3], PrimeSeq([2, 3]))]
    assert states[0] == states[1] == states[2]
    assert len(set(states)) == 1
    assert PrimeSeq([2, 3]) == PrimeSeq((2, 3)) != PrimeSeq([3, 2])
    assert ConstructionState(rank=2, pi=(2, 3)) != \
        ConstructionState(rank=2, pi=(2, 3, 5))


@pytest.mark.parametrize("primes, rank, before", [
    ((2, 3, 5, 7), 1, 0), ((2, 3, 5, 7), 2, 0), ((2, 3, 5, 7), 3, 0),
    ((2, 3, 5, 7, 11, 13), 1, 2),
])
def test_stepping_one_state_twice_gives_equal_results(primes, rank, before):
    # a fold of next_step reaches the state, ``before`` steps in
    state, words = ConstructionState(rank=rank, pi=primes), shortlex_words(rank)
    for _ in range(before):
        state, _ = next_step(state, next(words))
    f_word, held = next(words), state.level
    first, second = next_step(state, f_word), next_step(state, f_word)
    assert first == second
    assert first[0].to_doc() == second[0].to_doc()
    assert first[0].level.depth == first[0].depth
    # the state a step goes on from is left as it was
    assert state.level is held


def test_a_state_refuses_what_a_prime_sequence_refuses():
    with pytest.raises(ValueError) as refused:
        ConstructionState(rank=2, pi=(2, 4))
    assert str(refused.value) == "4 is not prime"
    with pytest.raises(ValueError) as empty:
        ConstructionState(rank=2, pi=[])
    assert str(empty.value) == "prime sequence must be nonempty"


def test_halts_when_prime_sequence_runs_out():
    trace = run_construction([2], 1)
    assert trace["halted"]
    assert trace["steps_completed"] == 0
    assert "prime sequence" in trace["halt_reason"]


def test_replay_matches_serialized_traces():
    one = run_construction([2, 3, 5, 7], 1)
    assert replay_matches(one)
    halted = run_construction([2, 3, 5, 7], 2)
    assert replay_matches(halted)
    # a JSON round trip replays as the trace it was
    assert replay_matches(json.loads(json.dumps(halted)))
    # a doctored order must be caught, and so must any other doctored key:
    # the whole document is compared, not only its states
    doctored = json.loads(json.dumps(one))
    doctored["states"][1]["order_history"][1]["decimal"] = 973
    assert not replay_matches(doctored)
    for doctor in (lambda t: t["steps"][0].__setitem__("order_at_level", 7),
                   lambda t: t.__setitem__("assumptions", []),
                   lambda t: t.__setitem__("halted", not t["halted"]),
                   lambda t: t.__setitem__("schema", "periodic-trace/0")):
        doctored = json.loads(json.dumps(one))
        doctor(doctored)
        assert not replay_matches(doctored)
    # a missing key is refused by the check that reads it
    for key, error in (("rank", "rank must be a positive integer, got None"),
                       ("pi", "prime sequence must be nonempty"),
                       ("steps_requested",
                        "steps must be a positive integer, got None")):
        doctored = json.loads(json.dumps(one))
        del doctored[key]
        with pytest.raises(ValueError) as err:
            replay_matches(doctored)
        assert str(err.value) == error


def _cli_trace(capsys, *extra):
    assert main(["construct-periodic", "--primes", "2,3,5,7", "--steps", "1",
                 *extra]) in (0, 2)
    return json.loads(capsys.readouterr().out)


def test_replay_matches_cli_traces(capsys, tmp_path):
    # the CLI wraps the trace in its command/config envelope
    trace = _cli_trace(capsys)
    assert trace["command"] == "construct-periodic" and "config" in trace
    assert replay_matches(trace)
    doctored = json.loads(json.dumps(trace))
    doctored["steps"][0]["order_at_level"] = 7
    assert not replay_matches(doctored)
    assert not replay_matches({**trace, "command": "levi"})
    # the caps a config file set are read back from the envelope
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("coset_cap = 2\n")
    capped = _cli_trace(capsys, "--config", str(cfg))
    assert capped["halted"] and capped["config"]["caps"]["coset"] == 2
    assert replay_matches(capped)
    bare = {k: v for k, v in capped.items() if k != "config"}
    assert not replay_matches(bare)
    assert replay_matches(bare, coset_cap=2)
    for config, error in (
            ({"caps": {"coset": True}}, "coset_cap must be a positive integer, got True"),
            ({"caps": {"depth": 0}}, "depth_cap must be a positive integer, got 0"),
            ([], "trace config must hold a caps mapping, got []")):
        with pytest.raises(ValueError) as err:
            replay_matches({**trace, "config": config})
        assert str(err.value) == error


def test_replay_refuses_primes_that_are_not_ints():
    one = run_construction([2, 3, 5, 7], 1)
    for pi in (["2", "3", "5", "7"], [2.0, 3, 5, 7], [True, 3, 5, 7]):
        with pytest.raises(ValueError, match="primes must be integers"):
            replay_matches({**one, "pi": pi})


@pytest.mark.parametrize("pi, error", [
    (None, "trace pi must be a list of primes, got None"),
    (7, "trace pi must be a list of primes, got 7"),
    ("2,3", "trace pi must be a list of primes, got '2,3'"),
    ({"2": 3}, "trace pi must be a list of primes, got {'2': 3}"),
])
def test_replay_refuses_a_pi_that_is_no_list(pi, error):
    # None raised TypeError from the prime sequence's tuple(primes)
    one = run_construction([2, 3, 5, 7], 1)
    with pytest.raises(ValueError) as err:
        replay_matches({**one, "pi": pi})
    assert str(err.value) == error


@pytest.mark.parametrize("trace, name", [
    ([], "list"), ("trace", "str"), (None, "NoneType"), (3, "int"),
    ([("rank", 2)], "list"),
])
def test_replay_refuses_a_trace_that_is_no_mapping(trace, name):
    # each raised TypeError or AttributeError
    with pytest.raises(ValueError) as err:
        replay_matches(trace)
    assert str(err.value) == f"a construction trace is a mapping, got {name}"


def test_trace_runs_are_deterministic():
    a = run_construction([2, 3, 5, 7], 2)
    b = run_construction([2, 3, 5, 7], 2)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_jsonl_emits_one_line_per_state():
    trace = run_construction([2, 3, 5, 7], 1)
    lines = trace_to_jsonl(trace).splitlines()
    assert len(lines) == len(trace["states"]) == 2
    docs = [json.loads(line) for line in lines]
    assert docs == trace["states"]


def test_next_step_input_validation():
    state = ConstructionState(rank=2, pi=PrimeSeq([2, 3]))
    with pytest.raises(ValueError):
        next_step(state, parse_word("1", 2))
    with pytest.raises(ValueError):
        next_step(state, parse_word("a", 3))
    deep = ConstructionState(rank=2, pi=PrimeSeq([2, 3]), depth=2)
    with pytest.raises(ValueError):
        next_step(deep, parse_word("b", 2))  # primes too short to scan on
    with pytest.raises(ValueError) as zero:
        next_step(state, parse_word("a", 2), depth_cap=0)
    assert str(zero.value) == "depth_cap must be a positive integer, got 0"
    scanned = ConstructionState(rank=2, pi=PrimeSeq([2, 3, 5]), depth=1)
    with pytest.raises(CapExceeded):
        next_step(scanned, parse_word("a", 2), depth_cap=1)



def test_a_state_the_scan_refuses_builds_no_power(monkeypatch):
    # f^(2 * 1000000007) would be two billion letters
    def refuse(*args):
        raise AssertionError("spelled out a power")

    monkeypatch.setattr(_Power, "letters", property(refuse))
    deep = ConstructionState(rank=2, pi=PrimeSeq([2, 1000000007]), depth=2)
    with pytest.raises(ValueError) as short:
        next_step(deep, parse_word("b", 2))
    assert str(short.value) == \
        "prime sequence has 2 terms, too short to scan past depth 2"
    with pytest.raises(CapExceeded) as capped:
        next_step(deep, parse_word("b", 2), depth_cap=1)
    assert str(capped.value) == "verbal depth: reached 3 with cap 1"


ORDER_GROWTH_UNDER_O = """
from largequot.periodic import ConstructionState, next_step
from largequot.verbal import PrimeSeq, VerbalLevel
from largequot.words import parse_word

VerbalLevel.quotient_order = property(lambda self: 4)
try:
    next_step(ConstructionState(rank=2, pi=PrimeSeq([2, 3, 5, 7])),
              parse_word("a", 2))
except AssertionError as exc:
    print("refused:", exc)
else:
    print("accepted")
"""


def test_order_growth_is_checked_under_python_O(run_under_O):
    # with every level order the same, strict growth fails; the check must
    # not be an assert statement, which python -O strips
    out = run_under_O(ORDER_GROWTH_UNDER_O)
    assert out.strip() == "refused: level orders must strictly grow along the series"


def test_run_construction_validates_steps():
    with pytest.raises(ValueError):
        run_construction([2, 3], 0)
    with pytest.raises(ValueError):
        run_construction([2, 3], "two")


@pytest.mark.parametrize("rank", [0, -1, True, 2.0, "3"])
def test_run_construction_refuses_a_rank_below_one_or_not_an_int(rank):
    # rank 0 used to enumerate an empty alphabet forever, True to run as 1
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        run_construction([2, 3], 1, rank=rank)


def test_graded_order_report():
    level = build_series([2, 3], 2, 2)[1]
    report = check_pigraded_properties(level, sample_count=200, seed=11)
    assert report["checked"] == 200
    assert report["violations"] == []
    assert set(report["order_histogram"]) <= {"1", "2", "3", "6"}
    assert sum(report["order_histogram"].values()) == 200
    assert report["solvable"]
    assert report["derived_length_bound"] == 2


def test_graded_order_needs_distinct_primes():
    level = build_series([2, 2], 2, 2)[1]
    with pytest.raises(ValueError):
        check_pigraded_properties(level, sample_count=5)


# -- the one-walk sampler against the per-level loop it replaced ------------


def _oracle_graded_report(level, sample_count=1000, seed=0, max_length=8):
    """check_pigraded_properties' former body: order_mod per word, then
    member down the chain of levels for its depth."""
    if len(set(level.primes_prefix)) != len(level.primes_prefix):
        raise ValueError("graded order properties need pairwise distinct primes")
    rng = random.Random(seed)
    # test_words pins this stream to the rng.choice sampler it replaced
    words = [
        random_reduced_word(rng, level.rank, rng.randint(1, max_length))
        for _ in range(sample_count)
    ]
    full_product = prod(level.primes_prefix)
    violations = []
    order_counts = {}
    for w in words:
        n = level.order_mod(w)
        order_counts[n] = order_counts.get(n, 0) + 1
        if full_product % n:
            if any(e > 1 for e in sympy.factorint(n).values()):
                violations.append(f"order {n} of {w} is not square-free")
            violations.append(f"order {n} of {w} does not divide {full_product}")
        depth_reached = _oracle_depth(level, w)
        blocked = prod(level.primes_prefix[:depth_reached])
        if gcd(n, blocked) != 1:
            violations.append(
                f"{w} lies in gamma_{depth_reached} but its order {n} shares "
                f"a factor with p_1..p_{depth_reached}"
            )
    return {
        "rank": level.rank,
        "depth": level.depth,
        "primes": list(level.primes_prefix),
        "checked": len(words),
        "order_histogram": {str(n): c for n, c in sorted(order_counts.items())},
        "violations": violations,
        "solvable": True,
        "derived_length_bound": level.depth,
    }


def _oracle_depth(level, w):
    depth_reached = 0
    for lvl in level._chain():
        if not lvl.member(w):
            break
        depth_reached = lvl.depth
    return depth_reached


SAMPLER_SPECS = [
    ((2, 3), 2, 2), ((3, 2), 2, 2),
    ((2, 3, 5), 2, 1), ((2, 3, 5), 2, 2), ((2, 3, 5), 2, 3),
    ((2, 3), 1, 2), ((2, 3, 5), 1, 3), ((2, 3), 3, 2), ((2, 3, 5, 7), 1, 3),
]


@pytest.mark.parametrize("primes, rank, depth", SAMPLER_SPECS)
def test_sampler_matches_the_per_level_loop(primes, rank, depth):
    level = build_series(primes, rank, depth)[-1]
    for seed in range(8):
        got = check_pigraded_properties(level, sample_count=150, seed=seed)
        assert got == _oracle_graded_report(level, sample_count=150, seed=seed)


def _indices(w):
    """The alphabet indices of w's letters, a1 < .. < ar < a1^-1 < .."""
    return tuple(g - 1 if e == 1 else g - 1 + w.rank for g, e in w.letters)


@pytest.mark.parametrize("primes, rank, depth", SAMPLER_SPECS + [
    ((5, 2, 3), 2, 2), ((3, 2, 5), 2, 3)])
def test_depth_from_the_cover_keys_matches_membership(primes, rank, depth):
    level = build_series(primes, rank, depth)[-1]
    rng = random.Random(f"{primes}-{rank}-{depth}")
    p = prod(primes)
    words = [random_reduced_word(rng, rank, rng.randint(0, 8))
             for _ in range(300)]
    # powers reach every depth, the identity the deepest; they are spelled
    # out, so only short ones are
    words += [Word(rank, power(w, e).letters) for w in words[:60]
              for e in (p // primes[-1], p, prod(primes[:depth - 1]))
              if len(w) * e <= 200]
    words.append(Word.identity(rank))
    depths = set()
    found = level._orders_and_depths([_indices(w) for w in words])
    for w, answer in zip(words, found):
        depth_reached = _oracle_depth(level, w)
        assert answer == (level.order_mod(w), depth_reached), w
        depths.add(depth_reached)
    assert depths == set(range(depth + 1))


def test_every_failing_word_keeps_its_own_violations(monkeypatch):
    # no level fails the checks, so forged answers stand in for failing
    # ones: each word is named in its own answer's violation, in order
    level = build_series([2, 3], 2, 2)[-1]
    forged = [(5, 0), (2, 1), (5, 0), (3, 2)]
    monkeypatch.setattr(level, "_orders_and_depths",
                        lambda keys: forged[:len(keys)])
    rng = random.Random(5)
    words = [random_reduced_word(rng, 2, rng.randint(1, 8)) for _ in range(4)]
    report = check_pigraded_properties(level, sample_count=4, seed=5)
    assert report["order_histogram"] == {"2": 1, "3": 1, "5": 2}
    assert report["violations"] == [
        f"order 5 of {words[0]} does not divide 6",
        f"{words[1]} lies in gamma_1 but its order 2 shares a factor with "
        "p_1..p_1",
        f"order 5 of {words[2]} does not divide 6",
        f"{words[3]} lies in gamma_2 but its order 3 shares a factor with "
        "p_1..p_2",
    ]


@pytest.mark.parametrize("primes, rank, depth", SAMPLER_SPECS + [
    ((3, 2, 5), 2, 3)])
def test_orders_and_depths_match_the_step_table_walk(primes, rank, depth):
    level = build_series(primes, rank, depth)[-1]
    keys = random_reduced_sample(random.Random(len(primes) * depth), rank,
                                 300, periodic.SAMPLE_MAX_LENGTH)
    # words whose exponent sums leave order and depth open: commutators,
    # squares and powers, spelled out
    words = [indexed_word(rank, key) for key in keys[:40]]
    gens = [Word.generator(rank, g) for g in range(1, rank + 1)]
    words += [u * v * u.inverse() * v.inverse()
              for u, v in zip(words, words[1:] + gens)]
    words += [u * u for u in words[:40]]
    words += [Word(rank, power(u, e).letters) for u in words[:20]
              for e in (primes[-1], prod(primes[:depth - 1]), prod(primes))
              if len(u) * e <= 120]
    keys += [_indices(w) for w in words if not w.is_identity]
    found = level._orders_and_depths(keys)
    assert found == table_orders_and_depths(level, keys)
    # the walked words reach every depth but d, which only the identity has
    assert {d for _, d in found} >= set(range(depth))


@pytest.mark.parametrize("primes, rank, depth", SAMPLER_SPECS)
def test_step_table_matches_single_letter_walks(primes, rank, depth):
    quotient = build_series(primes, rank, depth)[-1].parent_quotient
    steps, width = step_table(quotient), 2 * rank
    assert len(steps) == quotient.order * width
    alphabet = [(g, 1) for g in range(1, rank + 1)] + \
        [(g, -1) for g in range(1, rank + 1)]
    for c in range(quotient.order):
        for i, letter in enumerate(alphabet):
            counts = {}
            end = quotient._walk(c, (letter,), counts)
            assert len(counts) <= 1
            crossing = sum((at + 1) * e for at, e in counts.items())
            assert steps[c * width + i] == (end * width, crossing)


@pytest.mark.parametrize("primes, depth", [((2, 3), 2), ((2, 3, 5), 3)])
@pytest.mark.parametrize("max_length", [1, 2, 3, 7, 8, 9, 16])
def test_sampler_lengths_match_the_per_level_loop(primes, depth, max_length,
                                                  monkeypatch):
    # the sampler's length bound is a constant; the draw is pinned at others
    monkeypatch.setattr(periodic, "SAMPLE_MAX_LENGTH", max_length)
    level = build_series(primes, 2, depth)[-1]
    for count in (0, 1, 1000):
        got = check_pigraded_properties(level, sample_count=count,
                                        seed=max_length)
        assert got == _oracle_graded_report(
            level, sample_count=count, max_length=max_length, seed=max_length)
        assert got["checked"] == count


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("max_length", [1, 2, 3, 7, 8, 9, 16, 100])
def test_inlined_length_draw_pins_the_randint_stream(rank, max_length):
    # the frozen sampler histograms are built on this stream, on every
    # interpreter the package supports
    for seed in range(20):
        fast, slow = random.Random(seed), random.Random(seed)
        keys = random_reduced_sample(fast, rank, 50, max_length)
        words = [random_reduced_word(slow, rank, slow.randint(1, max_length))
                 for _ in range(50)]
        assert [indexed_word(rank, key) for key in keys] == words
        assert fast.getstate() == slow.getstate()


def test_an_empty_sample_touches_no_table(monkeypatch):
    unbuilt = build_series([5, 2, 3], 2, 3)[-1]

    def refuse(*args):
        raise AssertionError("an empty sample reads no table")

    for name in ("_walker", "_require_chain"):
        monkeypatch.setattr(type(unbuilt), name, refuse)
    monkeypatch.setattr(type(unbuilt), "parent_quotient", property(refuse))
    assert check_pigraded_properties(unbuilt, sample_count=0) == \
        _oracle_graded_report(unbuilt, sample_count=0)


def test_a_failing_sampled_word_is_named_by_its_letters(monkeypatch):
    level = build_series([2, 3], 2, 2)[-1]
    monkeypatch.setattr(level, "_orders_and_depths",
                        lambda keys: [(4, 1)] * len(keys))
    rng = random.Random(3)
    words = [random_reduced_word(rng, 2, rng.randint(1, 8)) for _ in range(4)]
    report = check_pigraded_properties(level, sample_count=4, seed=3)
    assert report["order_histogram"] == {"4": 4}
    assert report["violations"] == [
        text.format(w=str(w)) for w in words for text in (
            "order 4 of {w} is not square-free",
            "order 4 of {w} does not divide 6",
            "{w} lies in gamma_1 but its order 4 shares a factor with p_1..p_1",
        )]


def _refusal_text(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except (NotMaterializedError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    raise AssertionError("no refusal")


def test_sampler_refuses_as_the_per_level_loop():
    unbuilt = build_series([5, 2, 3], 2, 3)[-1]
    assert not unbuilt.materialized
    assert _refusal_text(check_pigraded_properties, unbuilt) == _refusal_text(
        _oracle_graded_report, unbuilt) == (
        "NotMaterializedError", "level 3 has no coset data: |F/gamma_2| = "
        "1677721600 exceeded the materialization cap")
    repeated = build_series([2, 3, 2], 2, 3)[-1]
    assert _refusal_text(check_pigraded_properties, repeated) == _refusal_text(
        _oracle_graded_report, repeated)


def test_parse_order_reads_a_factored_one():
    # format_factors({}) also writes the decimal; a document may carry only
    # the factored form
    assert parse_order({"factored": "1"}) == 1
