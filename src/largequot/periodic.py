"""Driver for the iterative periodic-quotient construction.

Starting from a free group F and a prime sequence pi = (p_1, p_2, ..), the
driver enumerates nontrivial words f_1, f_2, .. in shortlex order and, at
step i, imposes the relator g^n where g = f^{p_1 .. p_r} is the power of the
enumerated word lying in the current verbal level gamma_r and n is the exact
order of g modulo the next target level.  The target depth is r + D + 1:
D is the least extra depth at which g escapes the series (iterating the
series definition inside gamma_r identifies its depth-d level with the
ambient gamma_{r+d}, so the escape scan runs in the ambient series: it is
the scan of :func:`largequot.verbal.levi_bound`, started at depth r), and
the extra level is the headroom the largeness transfer needs.

Relator membership in the target level, square-freeness of the exponent and
strict growth of the per-level quotient orders are machine-checked.  The two
claims that justify continuing past the materialized range (the deep verbal
level of the new quotient still surjects onto a non-abelian free group, and
the one-level headroom suffices) are recorded in an assumption ledger, never
silently assumed.

All verbal computations run against free-group preimages: each imposed
relator is a proven member of its level, so the reported orders
|G_i / gamma_r(G_i)| = |F / gamma_r(F)| are exact.

A run does each piece of its bookkeeping once.  A state is a value that
holds the level its last step reached, and the next step's escape scan makes
its levels past that one, so no level of a run is built twice, and stepping
one state twice gives equal results.  Each level holds its factored order,
each order document is formatted once per factorization, and each
enumerated word is spelled once.
"""

from __future__ import annotations

import functools
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import starmap
from math import gcd, prod
from operator import itemgetter

from .errors import CapExceeded, check_int
from .primes import factor
from .quotients import check_word
from .verbal import (
    DEFAULT_COSET_CAP,
    DEFAULT_DEPTH_CAP,
    PrimeSeq,
    VerbalLevel,
    _as_primeseq,
    _escape_level,
)
from .words import (
    indexed_word,
    power,
    random_reduced_sample,
    shortlex_words,
)

TRACE_SCHEMA = "periodic-construction-trace/1"

ASSUMPTION_SURJECTION = "free-image-surjection"
ASSUMPTION_MARGIN = "depth-margin-c"

SAMPLE_MAX_LENGTH = 8  # the graded sampler's words have lengths 1 .. 8


@dataclass(frozen=True)
class ConstructionState:
    """State after a number of steps: depth, relators, orders, assumptions.

    ``pi`` may be any sequence of primes; it is kept as a
    :class:`largequot.verbal.PrimeSeq`.  ``level``, set by :func:`next_step`
    and left out of equality and repr, is the level at depth ``depth`` that
    the last step reached: the next step makes its levels past it with that
    step's coset cap, while ``level`` and those below it keep the cap they
    were made with.  A state made here holds none.
    """

    rank: int
    pi: PrimeSeq
    step: int = 0
    depth: int = 0
    relators: tuple = ()  # pairs (base word as spelled, exponent)
    # each quotient order so far as its sorted (prime, exponent) pairs,
    # every exponent nonzero
    order_history: tuple = ((),)
    assumptions: tuple = ()
    level: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pi", _as_primeseq(self.pi))

    @property
    def quotient_order(self):
        return prod(starmap(pow, self.order_history[-1]))

    def to_doc(self):
        return {
            "step": self.step,
            "rank": self.rank,
            "pi": list(self.pi.primes),
            "depth": self.depth,
            "relators": [
                {"base": str(base), "exponent": e} for base, e in self.relators
            ],
            "order_history": [dict(_order_doc(items))
                              for items in self.order_history],
            "assumptions": list(self.assumptions),
        }


def format_factors(factors):
    """Order document from a known {prime: exponent} factorization.

    Quotient orders grow beyond anything a decimal string should carry
    around, so the canonical form is ``{"factored": "2^2 * 3^5"}``; the
    ``decimal`` field is attached while the value stays below 2**64.  The
    value is never factored, which matters for orders whose decimal
    expansion is long.  Each call returns a new dict.
    """
    nonzero = filter(itemgetter(1), factors.items())
    return dict(_order_doc(tuple(sorted(nonzero))))


@functools.lru_cache(maxsize=256)
def _order_doc(items):
    """:func:`format_factors` of nonzero sorted (prime, exponent) items, once
    per factorization: a run formats every level's order on each step and
    each state after it.  Callers copy the document."""
    if not items:
        return {"factored": "1", "decimal": 1}
    doc = {"factored": " * ".join(f"{p}^{e}" if e > 1 else str(p)
                                  for p, e in items)}
    # cheap exact smallness test: sum of e*(bits(p)-1) underestimates log2
    if sum(e * (p.bit_length() - 1) for p, e in items) < 64:
        value = prod(starmap(pow, items))
        if value < 2**64:
            doc["decimal"] = value
    return doc


def next_step(state, f_word, coset_cap=DEFAULT_COSET_CAP,
              depth_cap=DEFAULT_DEPTH_CAP):
    """Impose the relator for one enumerated word; returns (state, record).

    The escape scan and the target are levels made past ``state.level``
    with this step's ``coset_cap``, and the new state holds the target.
    ``state`` is not changed, so stepping it again with the same word gives
    an equal state and record.  Raises :class:`CapExceeded` when the escape
    scan runs past ``depth_cap`` or a needed level cannot be materialized,
    and ``ValueError`` for anything but a nontrivial Word of the state's
    rank, and when the prime sequence is too short to hold the new depth.
    """
    check_word(f_word)
    if f_word.is_identity:
        raise ValueError("enumerated words must be nontrivial")
    if f_word.rank != state.rank:
        raise ValueError(
            f"enumerated word has rank {f_word.rank}, construction has {state.rank}"
        )
    pi = state.pi
    r = state.depth
    prefix_exponent = prod(pi.primes[:r])
    text = str(f_word)
    # a symbolic power, spelled out by no walk
    g = power(f_word, prefix_exponent)
    escape = _escape_level(
        pi, state.rank, r, lambda level: level.member(g),
        f"with {text}^{prefix_exponent} still inside the series",
        depth_cap, coset_cap, state.level,
    )
    escape_depth = escape.depth
    new_depth = escape_depth + 1
    if new_depth > len(pi):
        raise ValueError(
            f"prime sequence has {len(pi)} terms, cannot reach depth {new_depth}"
        )
    target = VerbalLevel(escape, pi.primes[escape_depth], coset_cap, state.rank)
    target._require_fits()

    n = target.order_mod(g)
    relator_exponent = prefix_exponent * n
    if not target.member(power(g, n)):
        raise AssertionError("relator must lie in the target level")
    # a divisor of a product of distinct primes is square-free as it is
    if pi.distinct and prod(pi.primes[:new_depth]) % relator_exponent and any(
            e > 1 for e in factor(relator_exponent).values()):
        raise AssertionError(
            f"relator exponent {relator_exponent} not square-free despite "
            "distinct primes"
        )
    chain = target._chain()
    level_orders = [lvl.quotient_order for lvl in chain]
    # strictly growing iff no order repeats and none is out of order
    if level_orders != sorted(set(level_orders)):
        raise AssertionError("level orders must strictly grow along the series")
    if level_orders[-1] <= state.quotient_order:
        raise AssertionError("quotient order must strictly grow")
    level_factors = [tuple(sorted(lvl._factors().items())) for lvl in chain]

    step_index = state.step + 1
    new_assumptions = (
        f"step {step_index} [{ASSUMPTION_SURJECTION}]: after imposing "
        f"{text}^{relator_exponent}, the depth-{new_depth} verbal level of "
        "the new quotient is assumed to still surject onto a non-abelian "
        "free group; not machine-checked",
        f"step {step_index} [{ASSUMPTION_MARGIN}]: the single level of "
        f"headroom above the escape depth {escape_depth} is assumed to "
        "suffice for the largeness transfer; not machine-checked",
    )
    new_state = ConstructionState(
        rank=state.rank,
        pi=pi,
        step=step_index,
        depth=new_depth,
        relators=state.relators + ((text, relator_exponent),),
        order_history=state.order_history + (level_factors[-1],),
        assumptions=state.assumptions + new_assumptions,
    )
    object.__setattr__(new_state, "level", target)
    record = {
        "step": step_index,
        "word": text,
        "prefix_exponent": prefix_exponent,
        "escape_depth": escape_depth,
        "levi_depth": escape_depth - r,
        "new_depth": new_depth,
        "order_at_level": n,
        "relator": {"base": text, "exponent": relator_exponent},
        "relator_in_level": True,
        "level_orders": [dict(_order_doc(items)) for items in level_factors],
        "growth": {
            "from": dict(_order_doc(state.order_history[-1])),
            "to": dict(_order_doc(level_factors[-1])),
        },
        "assumptions_added": list(new_assumptions),
    }
    return new_state, record


def run_construction(primes, steps, rank=2, coset_cap=DEFAULT_COSET_CAP,
                     depth_cap=DEFAULT_DEPTH_CAP):
    """Run the driver for the given number of steps; returns a trace dict.

    Enumerated words come in shortlex order, and the run is a fold of
    :func:`next_step` from a fresh state: each step makes its levels past
    the one its state holds, so every level is built, and its order
    computed, once per run.  Hitting a cap does not raise: the trace comes
    back with ``halted`` set, the reason verbatim, and the steps completed
    so far, so a partial run is still a usable document.
    """
    pi = _as_primeseq(primes)
    check_int(steps, "steps must be a positive integer", 1)
    # checked here too, as the steps' refusals land in halt_reason
    check_int(coset_cap, "coset_cap must be a positive integer", 1)
    check_int(depth_cap, "depth_cap must be a positive integer", 1)
    state = ConstructionState(rank=rank, pi=pi)
    states = [state.to_doc()]
    records = []
    halted = False
    halt_reason = None
    word_stream = shortlex_words(rank)
    for _ in range(steps):
        f_word = next(word_stream)
        try:
            state, record = next_step(
                state, f_word, coset_cap=coset_cap, depth_cap=depth_cap
            )
        except (CapExceeded, ValueError) as exc:
            halted = True
            halt_reason = str(exc)
            break
        states.append(state.to_doc())
        records.append(record)
    return {
        "schema": TRACE_SCHEMA,
        "rank": rank,
        "pi": list(pi.primes),
        "steps_requested": steps,
        "steps_completed": len(records),
        "halted": halted,
        "halt_reason": halt_reason,
        "states": states,
        "steps": records,
        "assumptions": list(state.assumptions),
    }


def trace_to_jsonl(trace):
    """One JSON line per construction state, for streaming consumers."""
    return "\n".join(json.dumps(s, sort_keys=True) for s in trace["states"])


def replay_matches(trace, coset_cap=None, depth_cap=None):
    """Re-run a serialized trace and compare the whole document exactly.

    In the envelope ``largequot construct-periodic`` writes, ``command``
    must name that command, it and ``config`` are left out of the comparison,
    and a cap not given here is read from ``config``.  A trace that is no
    mapping, or whose primes, step count or rank are missing or of the wrong
    type, is refused with ``ValueError``.
    """
    if not isinstance(trace, dict):
        raise ValueError(
            f"a construction trace is a mapping, got {type(trace).__name__}")
    body = dict(trace)
    if body.pop("command", "construct-periodic") != "construct-periodic":
        return False
    config = body.pop("config", {})
    caps = config.get("caps", {}) if isinstance(config, dict) else None
    if not isinstance(caps, dict):
        raise ValueError(f"trace config must hold a caps mapping, got {config!r}")
    if coset_cap is None:
        coset_cap = check_int(caps.get("coset", DEFAULT_COSET_CAP),
                              "coset_cap must be a positive integer", 1)
    if depth_cap is None:
        depth_cap = check_int(caps.get("depth", DEFAULT_DEPTH_CAP),
                              "depth_cap must be a positive integer", 1)
    pi = body.get("pi", [])
    if type(pi) is not list:
        raise ValueError(f"trace pi must be a list of primes, got {pi!r}")
    again = run_construction(
        pi, body.get("steps_requested"),
        rank=body.get("rank"), coset_cap=coset_cap, depth_cap=depth_cap,
    )
    return again == body


def check_pigraded_properties(level, sample_count=1000, seed=0):
    """Check the graded order properties of F/gamma_d on sampled words.

    For each word w with image order n: n must be square-free and divide
    p_1 .. p_d, and whenever w lies in gamma_i the order must be coprime to
    p_1 .. p_i (deeper elements only feel deeper primes).  Requires pairwise
    distinct primes.  Returns a report dict whose ``violations`` list holds
    one verbatim entry per failed check; solvability of the quotient is
    structural (an iterated extension of elementary abelian layers) and is
    reported as such rather than re-proved.

    The ``sample_count`` words are random reduced words of lengths
    ``rng.randint(1, SAMPLE_MAX_LENGTH)``, drawn by
    :func:`largequot.words.random_reduced_sample`, the drawn-length case
    of the one kernel that draws every random reduced word, and kept as
    tuples of alphabet indices, each with its exponent sums packed into one
    int as it is drawn.  They are answered by exponent-sum class
    (:meth:`largequot.verbal.VerbalLevel._tally_classes`): a thousand
    words fall in about a hundred classes, each answered once, most by the
    gcd of their sums alone; only the words of the rest are walked, each
    distinct word once through a homology cover, which gives the order and,
    off the cover key it reaches, the depth (the deepest i with w in
    gamma_i).  No table is built for the sample.  The histogram comes from
    the tally, the checks run once per distinct (order, depth) pair, and
    only when one fails is each word's answer read back, from its class or
    its walk, to name it in its violations in sample order.  A
    ``sample_count`` that is no int of at least 0, or a ``seed`` that is
    no int, is refused; 0 checks nothing.
    """
    check_int(sample_count, "sample count must be a nonnegative integer", 0)
    check_int(seed, "seed must be an integer")
    if len(set(level.primes_prefix)) != len(level.primes_prefix):
        raise ValueError("graded order properties need pairwise distinct primes")
    keys, sums = random_reduced_sample(random.Random(seed), level.rank,
                                       sample_count, SAMPLE_MAX_LENGTH,
                                       sums=True)
    tally, classes, walked = level._tally_classes(keys, sums,
                                                   SAMPLE_MAX_LENGTH)
    full_product = prod(level.primes_prefix)
    order_counts = Counter()
    for (n, _), count in tally.items():
        order_counts[n] += count
    failures = {answer: _graded_failures(*answer, level.primes_prefix,
                                         full_product) for answer in tally}
    violations = []
    if any(failures.values()):
        # each word named in its own answer's texts, in sample order
        violations = [text.format(w=indexed_word(level.rank, key))
                      for key, packed in zip(keys, sums)
                      for text in failures[classes[packed] or walked[key]]]
    return {
        "rank": level.rank,
        "depth": level.depth,
        "primes": list(level.primes_prefix),
        "checked": len(keys),
        "order_histogram": {str(n): c for n, c in sorted(order_counts.items())},
        "violations": violations,
        "solvable": True,
        "derived_length_bound": level.depth,
    }


def _graded_failures(n, depth, primes, full_product):
    """The checks that order n at depth ``depth`` fails, as texts naming
    the word by ``{w}``."""
    failed = []
    # a divisor of p_1 .. p_d, pairwise distinct, is square-free as it is
    if full_product % n:
        if any(e > 1 for e in factor(n).values()):
            failed.append(f"order {n} of {{w}} is not square-free")
        failed.append(f"order {n} of {{w}} does not divide {full_product}")
    if gcd(n, prod(primes[:depth])) != 1:
        failed.append(f"{{w}} lies in gamma_{depth} but its order {n} shares "
                      f"a factor with p_1..p_{depth}")
    return failed
