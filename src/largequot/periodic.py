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
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from math import gcd, prod

from .errors import CapExceeded, check_int
from .primes import factor
from .verbal import (
    DEFAULT_COSET_CAP,
    DEFAULT_DEPTH_CAP,
    PrimeSeq,
    _as_primeseq,
    _escape_level,
)
from .words import indexed_word, power, random_reduced_sample, shortlex_words

TRACE_SCHEMA = "periodic-construction-trace/1"

ASSUMPTION_SURJECTION = "free-image-surjection"
ASSUMPTION_MARGIN = "depth-margin-c"

SAMPLE_MAX_LENGTH = 8  # the graded sampler's words have lengths 1 .. 8


@dataclass(frozen=True)
class ConstructionState:
    """State after a number of steps: depth, relators, orders, assumptions."""

    rank: int
    pi: PrimeSeq
    step: int = 0
    depth: int = 0
    relators: tuple = ()  # pairs (base word, exponent)
    # each quotient order so far as its (prime, exponent) pairs
    order_history: tuple = ((),)
    assumptions: tuple = ()

    @property
    def quotient_order(self):
        return prod(p**e for p, e in self.order_history[-1])

    def to_doc(self):
        return {
            "step": self.step,
            "rank": self.rank,
            "pi": list(self.pi.primes),
            "depth": self.depth,
            "relators": [
                {"base": str(base), "exponent": e} for base, e in self.relators
            ],
            "order_history": [format_factors(dict(f))
                              for f in self.order_history],
            "assumptions": list(self.assumptions),
        }


def format_order(n):
    """Factored form of a positive integer, with decimal only when it fits.

    Quotient orders grow beyond anything a decimal string should carry
    around, so the canonical form is ``{"factored": "2^2 * 3^5"}``; the
    ``decimal`` field is attached while the value stays below 2**64.
    """
    return format_factors(factor(check_int(n, "orders are positive", 1)))


def format_factors(factors):
    """Order document from a known {prime: exponent} factorization.

    Same shape as :func:`format_order` without refactoring the value, which
    matters for orders whose decimal expansion is long.
    """
    factors = {p: e for p, e in factors.items() if e}
    if not factors:
        return {"factored": "1", "decimal": 1}
    parts = []
    for p, e in sorted(factors.items()):
        parts.append(f"{p}^{e}" if e > 1 else str(p))
    doc = {"factored": " * ".join(parts)}
    # cheap exact smallness test: sum of e*(bits(p)-1) underestimates log2
    if sum(e * (p.bit_length() - 1) for p, e in factors.items()) < 64:
        value = prod(p**e for p, e in factors.items())
        if value < 2**64:
            doc["decimal"] = value
    return doc


def parse_order(doc):
    """Inverse of :func:`format_order`."""
    if "decimal" in doc:
        return doc["decimal"]
    if doc["factored"] == "1":
        return 1
    n = 1
    for part in doc["factored"].split("*"):
        base, _, exponent = part.strip().partition("^")
        n *= int(base) ** int(exponent or 1)
    return n


def next_step(state, f_word, coset_cap=DEFAULT_COSET_CAP,
              depth_cap=DEFAULT_DEPTH_CAP):
    """Impose the relator for one enumerated word; returns (state, record).

    Raises :class:`CapExceeded` when the escape scan runs past ``depth_cap``
    or a needed level cannot be materialized, and ``ValueError`` when the
    prime sequence is too short to hold the new depth.
    """
    if f_word.is_identity:
        raise ValueError("enumerated words must be nontrivial")
    if f_word.rank != state.rank:
        raise ValueError(
            f"enumerated word has rank {f_word.rank}, construction has {state.rank}"
        )
    pi = state.pi
    r = state.depth
    prefix_exponent = prod(pi[i] for i in range(r))
    g = None

    def inside(level):
        nonlocal g
        if g is None:  # a state the scan refuses never spells out f^prefix
            g = power(f_word, prefix_exponent)
        return level.member(g)

    escape, levels = _escape_level(
        pi, state.rank, r, inside,
        f"with {f_word}^{prefix_exponent} still inside the series",
        depth_cap, coset_cap,
    )
    escape_depth = escape.depth
    levi_depth = escape_depth - r
    new_depth = escape_depth + 1
    if new_depth > len(pi):
        raise ValueError(
            f"prime sequence has {len(pi)} terms, cannot reach depth {new_depth}"
        )
    target = next(levels)
    target._require_fits(coset_cap)

    n = target.order_mod(g)
    relator_exponent = prefix_exponent * n
    if not target.member(power(g, n)):
        raise AssertionError("relator must lie in the target level")
    if pi.distinct and any(e > 1 for e in factor(relator_exponent).values()):
        raise AssertionError(
            f"relator exponent {relator_exponent} not square-free despite "
            "distinct primes"
        )
    chain = target._chain()
    level_orders = [lvl.quotient_order for lvl in chain]
    if any(a >= b for a, b in zip(level_orders, level_orders[1:])):
        raise AssertionError("level orders must strictly grow along the series")
    if level_orders[-1] <= state.quotient_order:
        raise AssertionError("quotient order must strictly grow")
    # the orders' factorizations by the product formula, never by factoring:
    # |F/gamma_d| = |F/gamma_{d-1}| q_d^(Schreier rank of gamma_{d-1})
    factors, level_factors = {}, []
    for lvl in chain:
        factors = {**factors,
                   lvl.prime: factors.get(lvl.prime, 0) + lvl.schreier_rank}
        level_factors.append(factors)

    step_index = state.step + 1
    new_assumptions = (
        f"step {step_index} [{ASSUMPTION_SURJECTION}]: after imposing "
        f"{f_word}^{relator_exponent}, the depth-{new_depth} verbal level of "
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
        relators=state.relators + ((f_word, relator_exponent),),
        order_history=state.order_history + (tuple(sorted(factors.items())),),
        assumptions=state.assumptions + new_assumptions,
    )
    record = {
        "step": step_index,
        "word": str(f_word),
        "prefix_exponent": prefix_exponent,
        "escape_depth": escape_depth,
        "levi_depth": levi_depth,
        "new_depth": new_depth,
        "order_at_level": n,
        "relator": {"base": str(f_word), "exponent": relator_exponent},
        "relator_in_level": True,
        "level_orders": [format_factors(f) for f in level_factors],
        "growth": {
            "from": format_factors(dict(state.order_history[-1])),
            "to": format_factors(factors),
        },
        "assumptions_added": list(new_assumptions),
    }
    return new_state, record


def run_construction(primes, steps, rank=2, coset_cap=DEFAULT_COSET_CAP,
                     depth_cap=DEFAULT_DEPTH_CAP):
    """Run the driver for the given number of steps; returns a trace dict.

    Enumerated words come in shortlex order.  Hitting a cap does not raise:
    the trace comes back with ``halted`` set, the reason verbatim, and the
    steps completed so far, so a partial run is still a usable document.
    """
    pi = _as_primeseq(primes)
    check_int(steps, "steps must be a positive integer", 1)
    state = ConstructionState(rank=rank, pi=pi)
    states = [state.to_doc()]
    records = []
    halted = False
    halt_reason = None
    # its first pull, before any step, refuses a rank that is no positive int
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
    :func:`largequot.words.random_reduced_sample` as
    :func:`largequot.words.random_reduced_word` draws them but kept as
    tuples of alphabet indices, and answered by
    :meth:`largequot.verbal.VerbalLevel._orders_and_depths`: most by their
    exponent sums alone, the rest by one walk through a homology cover each,
    which gives the order and, off the cover key it reaches, the depth (the
    deepest i with w in gamma_i).  No table is built for the sample.  The
    checks run once per distinct (order, depth) pair.  A
    ``sample_count`` that is no int of at least 0 is refused; 0 checks
    nothing.
    """
    check_int(sample_count, "sample count must be a nonnegative integer", 0)
    if len(set(level.primes_prefix)) != len(level.primes_prefix):
        raise ValueError("graded order properties need pairwise distinct primes")
    keys = random_reduced_sample(random.Random(seed), level.rank, sample_count,
                                 SAMPLE_MAX_LENGTH)
    found = level._orders_and_depths(keys)
    full_product = prod(level.primes_prefix)
    tally = Counter(found)  # words per distinct (order, depth)
    order_counts = Counter()
    for (n, _), count in tally.items():
        order_counts[n] += count
    failures = {answer: _graded_failures(*answer, level.primes_prefix,
                                         full_product) for answer in tally}
    violations = [text.format(w=indexed_word(level.rank, keys[i]))
                  for i, answer in enumerate(found)
                  for text in failures[answer]]
    return {
        "rank": level.rank,
        "depth": level.depth,
        "primes": list(level.primes_prefix),
        "checked": len(found),
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
