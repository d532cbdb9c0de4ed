"""The benchmark's three workloads: certify, avoid and verbal.

A workload has a pool of units, sorted into strata (classes of inputs of
similar cost).  A unit is a short list of operations that belong together:
one certification request, one avoidance word set with its searches, one
verbal request.  A seed turns the pool into a list of blocks.  Every block
of a workload has the same composition: a fixed number of units from each
stratum, with the seed choosing the concrete units inside each stratum and
their order.  A run executes whole blocks, so its cost mix does not depend
on the seed or on where the clock stops, while different seeds still feed
the program different inputs.

certify and avoid draw their units from ``catalog.json``, the generator's
labelled stream (see ``make_catalog.py``); their quotas follow the shares
of the strata in that stream.  verbal draws from a pool of requests
generated with a fixed pool seed, since each request type already fixes
its cost.  Because every unit comes from a fixed pool, the digest of every
unit's documents can be recorded once (``digests.json``) and checked on
any seed.

An operation is executed by ``execute``, which is the timed part, and then
checked by ``check``, which is not timed.  Operations raising an honest
negative (``BelowBoundError``, ``CapExceeded``, ``NotMaterializedError``)
or returning a halted trace count as completed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from math import prod

import sympy

import largequot as lq
from largequot import BelowBoundError, CapExceeded, NotMaterializedError
from largequot.words import random_reduced_word

HONEST_NEGATIVES = (BelowBoundError, CapExceeded, NotMaterializedError)

# Enumeration cap for every quotient the certify and avoid requests build.
# Large enough for the 2^13 and 3^7 witnesses, small enough that a
# cap-negative request stops within seconds.
ENUM_CAP = 10**4

# certify: the exponent menu (small prime powers and products, 2 .. 125).
EXPONENTS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 18, 25, 27, 32, 36, 49,
             64, 81, 100, 125)

# avoid: exponents q = M*t for t = 1..AVOID_MULTIPLES, as in the avoidance
# contract; g**q is built and walked only while q*|g| stays below this.
AVOID_MULTIPLES = 20
AVOID_POWER_LETTERS = 200_000

CATALOG_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "catalog.json")


def words_of(texts, rank=2):
    return [lq.parse_word(t, rank) for t in texts]


def digest(doc):
    """Short hash of a document in its canonical JSON form."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def unit_key(unit):
    """The text a unit's digest is recorded under: its first operation."""
    return json.dumps(unit[0], separators=(",", ":"))


def load_catalog():
    with open(CATALOG_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _draw_blocks(pool, quotas, leading, seed, count, name):
    """``count`` blocks, each taking quotas[s] units of every stratum s.

    A stratum's pool is ordered by cost and cut into quotas[s] bins of
    about equal size, and each bin into ``count`` sub-bins.  The run takes
    one unit from each sub-bin, and every block one of the units of each
    bin.  Every block thus spans the stratum's cost range the same way, the
    run covers it more finely still, and the run's figures depend little on
    which units the seed picks.  The units of the ``leading`` strata open
    each block in that order and the rest follow shuffled.  The expensive
    requests thus meet the same memo and heap state in every block and for
    every seed: placed at random they cost up to twice as much in one
    position as in another.
    """
    rng = random.Random(f"{name}/{seed}")
    dealt = {}
    for stratum, n in quotas.items():
        units, bins = pool.get(stratum, []), count * n
        dealt[stratum] = [[] for _ in range(count)]
        for i in range(n):
            group = []
            for k in range(i * count, (i + 1) * count):
                lo = len(units) * k // bins
                hi = max(lo + 1, len(units) * (k + 1) // bins)
                group.append(rng.choice(units[lo:hi]))
            rng.shuffle(group)
            for block, unit in zip(dealt[stratum], group):
                block.append(unit)
    blocks = []
    for b in range(count):
        head = [u for stratum in leading for u in dealt[stratum][b]]
        tail = [u for stratum in quotas if stratum not in leading
                for u in dealt[stratum][b]]
        rng.shuffle(tail)
        blocks.append(head + tail)
    return blocks


def _catalog_pool(entries, stratum_of, unit_of, cost_of):
    """Units of the catalog entries by stratum, each stratum in the order
    of ``cost_of``, a measure of an entry's work."""
    pool = {}
    for entry in sorted(entries, key=cost_of):
        pool.setdefault(stratum_of(entry), []).append(unit_of(entry))
    return pool


class _Workload:
    """Blocks drawn from ``self.pool`` with ``quotas`` and ``leading``."""

    def blocks(self, seed, count):
        return _draw_blocks(self.pool, self.quotas, self.leading, seed,
                            count, self.name)

    def pool_units(self):
        """Every distinct unit of the strata the blocks draw from."""
        units = {}
        for stratum in self.quotas:
            for unit in self.pool.get(stratum, []):
                units.setdefault(unit_key(unit), unit)
        return list(units.values())


# -- certify --------------------------------------------------------------


def certify_request(rng):
    """One seeded certification request: rank 2, k in {1,1,2}, |g| <= 4."""
    k = rng.choice([1, 1, 2])
    words = []
    while len(words) < k:
        w = random_reduced_word(rng, 2, rng.randint(1, 4))
        if w not in words:
            words.append(w)
    return [str(w) for w in words], rng.choice(EXPONENTS)


# Largest quotient a request of a light stratum may enumerate: the order
# 49..343 witnesses, and the small unit images a bound is built from.
LIGHT_ENUMERATION = 343
# Witness orders of the light strata; the small witnesses are split by
# order because their costs differ by order.
WITNESS_STRATA = {4: "order4", 9: "order9", 25: "order25", 27: "order27-32",
                  32: "order27-32", 49: "order49-343", 125: "order49-343",
                  343: "order49-343"}
# 2^13 requests cost 0.8 s to 4 s, about in proportion to the relator
# letters they rewrite; they are split at these letter counts into strata
# a, b, c and d.  The first three are of similar size, so that every block
# has one of each; d, the few requests rewriting over 10^6 letters, is too
# rare for a block of 100 requests.
REWRITE_BANDS_2_13 = (200_000, 500_000, 1_000_000)


def witness_bucket(order):
    """Witness-order bucket of a certificate, as the input report names it."""
    if order <= 32:
        return "order<=32"
    if order <= 343:
        return "order49-343"
    return {2187: "order3^7", 8192: "order2^13"}.get(order, f"order{order}")


def certify_stratum(entry):
    """Stratum of a catalog request from its outcome in the seed program,
    or ``dropped:<reason>`` for a request that belongs to none.

    The outcome is the witness order or the kind of honest negative;
    ``largest`` and ``capped`` describe the request's enumeration work from
    an empty memo and ``letters`` the relator letters it rewrote.  A light
    request that enumerates past its witness (a 2^13 quotient scanned
    before a witness of order 9 is found, say) pays for that enumeration
    once per process, since the quotient is memoized: it forms the
    past-witness stratum.  An enumeration stopped by the cap is never
    memoized, so a request that hits the cap and then finds a witness
    forms a stratum of its own.
    """
    outcome = entry["outcome"]
    if outcome == "timeout":
        return "dropped:timeout"
    if outcome == "cap-negative":
        if entry["capped"] == 1 and entry["largest"] <= LIGHT_ENUMERATION:
            return "cap-negative"
        return "dropped:cap-negative-heavy"
    if entry["capped"]:
        return "cap-then-found"
    if outcome == 2187:
        return "order3^7"
    if outcome == 8192:
        band = sum(entry["letters"] > n for n in REWRITE_BANDS_2_13)
        return f"order2^13-{'abcd'[band]}"
    witness = 0 if outcome == "below-bound" else outcome
    if entry["largest"] > max(witness, LIGHT_ENUMERATION):
        return "past-witness"
    if outcome == "below-bound":
        return outcome
    return WITNESS_STRATA.get(outcome, f"dropped:order{outcome}")


class Certify(_Workload):
    """Certify, JSON round trip, verify: BFS over truncated-series units."""

    name = "certify"
    block_ops = 100
    block_seconds = 18
    # Requests per block, from the stratum shares of the catalog's 4000
    # draws (in %): order4 22.4, order9 21.4, order27-32 15.2, order25 14.5,
    # past-witness 13.0, order49-343 9.0, order2^13 2.8 (a 1.05, b 1.03,
    # c 0.48, d 0.23), below-bound 0.77, cap-negative 0.53, order3^7 0.50
    # and cap-then-found 0 (no draw hit the cap and then found a witness).
    # The rare strata get one request a block (cap-negative, order3^7 and
    # order2^13-c about twice their share, so that every block has one)
    # but order2^13-d, whose largest requests would set the run's peak
    # memory alone; the light strata share the other 94 by largest
    # remainder.
    quotas = {
        "order2^13-a": 1,
        "order2^13-b": 1,
        "order2^13-c": 1,
        "order2^13-d": 0,
        "order3^7": 1,
        "cap-negative": 1,
        "order4": 22,
        "order9": 21,
        "order27-32": 15,
        "order25": 14,
        "past-witness": 13,
        "order49-343": 9,
        "below-bound": 1,
        "cap-then-found": 0,
    }
    leading = ("order2^13-c", "order2^13-b", "order2^13-a", "order3^7",
               "cap-negative")

    def __init__(self, catalog):
        # the catalog's time of the request, then the relator letters it
        # rewrote: the time is what the latency quantiles see
        self.pool = _catalog_pool(
            catalog["certify"], certify_stratum,
            lambda e: (("certify", tuple(e["words"]), e["q"]),),
            lambda e: (e["seconds"], e["letters"]))

    def execute(self, op, state):
        _, texts, q = op
        cert = lq.certify_power_quotient(words_of(texts), q, enum_cap=ENUM_CAP)
        restored = json.loads(json.dumps(cert, sort_keys=True))
        report = lq.verify_certificate(restored, enum_cap=ENUM_CAP)
        return {"certificate": cert, "report": report}

    def check(self, op, result, state):
        texts = op[1]
        if "negative" in result:
            return [], result
        cert, report = result["certificate"], result["report"]
        counts = cert["counts"]
        k, j = len(texts), counts["j"]
        problems = []
        if cert["verdict"] == "certified-large":
            if not report["ok"]:
                problems.append(f"certificate does not verify: {report}")
            if counts["gens"] != 1 + (cert["target"]["rank"] - 1) * j:
                problems.append(f"gens {counts['gens']} != 1+(r-1)j, j={j}")
            if counts["rels"] * (k + 1) > k * j:
                problems.append(f"rels {counts['rels']} breaks rels(k+1) <= kj")
        if report["computed"] != {**counts, "verdict": cert["verdict"]}:
            problems.append("verification recomputed different counts")
        return problems, result

    def properties(self, ops, results):
        buckets = {}
        seen, reused = set(), 0
        for op, result in zip(ops, results):
            if result is None:
                bucket = "failed"
            elif "negative" in result:
                bucket = {"BelowBoundError": "below-bound"}.get(
                    result["negative"], "cap-negative")
            else:
                params = result["certificate"]["witness"]["params"]
                key = (params["modulus"], params["degree_bound"])
                reused += key in seen
                seen.add(key)
                bucket = witness_bucket(result["certificate"]["counts"]["j"])
            buckets[bucket] = buckets.get(bucket, 0) + 1
        return {
            "witness_order_share": _shares(buckets, len(ops)),
            "witness_reuse_ratio": reused / len(ops),
        }


# -- avoid ----------------------------------------------------------------


def avoid_instance(rng):
    """One word set of the avoidance contract: k in {1,1,2}, m in {1,2}."""
    k = rng.choice([1, 1, 2])
    words = []
    while len(words) < k:
        w = random_reduced_word(rng, 2, rng.randint(1, 3 if k == 2 else 4))
        if not w.is_identity and w not in words:
            words.append(w)
    return [str(w) for w in words], rng.randint(1, 2)


def avoid_stratum(entry):
    """Stratum of a catalog word set from its bound M in the seed program.

    Sets with M above AVOID_POWER_LETTERS never build a power and form the
    order-only stratum; their bounds need quotients of up to 2^13 elements,
    paid once per process because the quotients are memoized.  M = 7200 and
    M = 8748 both build powers of up to AVOID_POWER_LETTERS letters for the
    first 27/|g| and 22/|g| multiples and share a stratum.  A set whose
    bound hits the cap has no searches to run.
    """
    M = entry["outcome"]
    if M in ("timeout", "cap-negative"):
        return f"dropped:{M}"
    if M > AVOID_POWER_LETTERS:
        return "order-only"
    if M in (7200, 8748):
        return "M=7200-8748"
    return f"M={M}"


def avoid_letters(entry):
    """Letters of the powers g**q a word set's searches build, and the
    letters of its words."""
    M = entry["outcome"] if isinstance(entry["outcome"], int) else 0
    lengths = [len(w) for w in entry["words"]]
    built = sum(M * t * n for t in range(1, AVOID_MULTIPLES + 1)
                for n in lengths if M * t * n <= AVOID_POWER_LETTERS)
    return built, sum(lengths)


class Avoid(_Workload):
    """Avoidance bound, then the avoiding quotient for q = M*t and its proof.

    One unit is a bound operation followed by AVOID_MULTIPLES search
    operations; each search proves g^s (s <= m) outside the kernel and g^q
    inside, building g**q when q*|g| <= AVOID_POWER_LETTERS and checking the
    image order otherwise.
    """

    name = "avoid"
    block_ops = 20 * (1 + AVOID_MULTIPLES)
    block_seconds = 6
    # Word sets per block, from the stratum shares of the catalog's 3000
    # draws (in %): M=288 40.5, M=4 30.4, order-only 13.1, M=36 8.0,
    # M=7200-8748 6.8, M=864 0.8, cap-negative 0.3, M=69984 0.2.  Twenty
    # sets by largest remainder; M=864 and M=69984 round to none.
    quotas = {"order-only": 3, "M=7200-8748": 1, "M=288": 8, "M=4": 6,
              "M=36": 2}
    leading = ("order-only", "M=7200-8748")

    def __init__(self, catalog):
        def unit(e):
            inst = (tuple(e["words"]), e["m"])
            return (("bound", inst),) + tuple(
                ("search", inst, t) for t in range(1, AVOID_MULTIPLES + 1))
        self.pool = _catalog_pool(catalog["avoid"], avoid_stratum, unit,
                                  avoid_letters)

    def execute(self, op, state):
        texts, m = op[1]
        words = words_of(texts)
        if op[0] == "bound":
            bound = lq.lemma_fi_bound(words, m, enum_cap=ENUM_CAP)
            state[op[1]] = bound
            return bound.to_doc()
        bound = state[op[1]]
        q = bound.M * op[2]
        quotient = lq.find_avoiding_quotient(words, m, q, bound=bound,
                                             enum_cap=ENUM_CAP)
        outside, inside, built = [], [], []
        for w in words:
            outside.extend(not quotient.kernel_contains(w ** s)
                           for s in range(1, m + 1))
            if q * len(w) <= AVOID_POWER_LETTERS:
                power = w ** q
                inside.append(quotient.kernel_contains(power))
                built.append(len(power))
            else:
                inside.append(q % quotient.image_order(w) == 0)
                built.append(0)
        return {"q": q, "witness": quotient.serialize(), "outside": outside,
                "inside": inside, "letters_built": built}

    def check(self, op, result, state):
        if op[0] == "bound":
            return [], result
        problems = []
        if not all(result["outside"]):
            problems.append(f"some g^s (s <= m) collapsed at q={result['q']}")
        if not all(result["inside"]):
            problems.append(f"some g^q is outside the kernel at q={result['q']}")
        return problems, result

    def properties(self, ops, results):
        searches = power = letters = 0
        strata = {}
        for op, result in zip(ops, results):
            if op[0] == "bound":
                if result is not None:
                    M = result["M"]
                    s = f"M={M}" if M <= AVOID_POWER_LETTERS else "order-only"
                    strata[s] = strata.get(s, 0) + 1
                continue
            searches += 1
            if result is not None and any(result["letters_built"]):
                power += 1
                letters += sum(result["letters_built"])
        return {
            "bound_M_share": _shares(strata, sum(strata.values())),
            "long_power_share": power / searches if searches else 0.0,
            "order_only_share": 1 - power / searches if searches else 0.0,
            "letters_built_per_search": letters / searches if searches else 0,
        }


# -- verbal ---------------------------------------------------------------

VERBAL_COSET_CAP = 10**4
GAMMA_PRIMES = {"gamma-235": (2, 3, 5), "gamma-223": (2, 2, 3),
                "gamma-325": (3, 2, 5)}
OVERCAP_PRIMES = ((2, 5, 3), (5, 2, 3), (3, 3, 2))
LEVI_PRIMES = (2, 3, 5)
DRIVER_PRIMES = (2, 3, 5, 7)
# (rank, steps) of the ten cheap driver requests in every block; a rank-2
# request of two steps halts at the materialization cap after ~0.1 s.
DRIVER_RUNS = ((1, 1), (1, 1), (1, 2), (1, 2), (2, 1), (2, 1), (2, 2),
               (3, 1), (3, 2), (3, 2))
# Rank-1 driver requests of 3 or 4 steps over six primes: the cyclic
# quotient passes 2000 elements, whose Schreier tree is deeper than the
# recursion limit, so these requests hit the known RecursionError defect.
DEEP_DRIVER_PRIMES = (2, 3, 5, 7, 11, 13)
# Generated requests in the pool of each request type, per request of the
# type in a block.
POOL_PER_QUOTA = 4


def _random_word(rng, lo=1, hi=6, rank=2):
    return str(random_reduced_word(rng, rank, rng.randint(lo, hi)))


def verbal_request(kind, rng):
    """Seeded parameters for one verbal request of the given type."""
    if kind in GAMMA_PRIMES:
        return (kind, GAMMA_PRIMES[kind], 3, rng.choice(("order", "member")),
                _random_word(rng))
    if kind == "gamma-d2":
        return (kind, rng.choice(list(GAMMA_PRIMES.values())), 2,
                rng.choice(("order", "member")), _random_word(rng))
    if kind == "gamma-overcap":
        return (kind, rng.choice(OVERCAP_PRIMES), 3, "order",
                _random_word(rng))
    if kind in ("levi-shallow", "levi-deep"):
        words = [_random_word(rng, 1, 4) for _ in range(rng.randint(1, 3))]
        if kind == "levi-deep":
            # w^(p1 p2) lies in gamma_2, so the bound needs F/gamma_2
            w = lq.parse_word(words[0], 2) ** (LEVI_PRIMES[0] * LEVI_PRIMES[1])
            words[0] = str(w)
        return (kind, LEVI_PRIMES, tuple(words))
    if kind in ("sample-d2", "sample-d3"):
        primes, depth = ((2, 3), 2) if kind == "sample-d2" else ((2, 3, 5), 3)
        return (kind, primes, depth, rng.randrange(10**6))
    if kind == "construct-deep":
        return (kind, DEEP_DRIVER_PRIMES, rng.randint(3, 4), 1)
    raise ValueError(kind)


class Verbal(_Workload):
    """CLI-shaped verbal requests, each building its own levels."""

    name = "verbal"
    block_ops = 50
    block_seconds = 11
    # 50 requests per block.  gamma-223 (F/gamma_2 of order 128) carries the
    # median; gamma-235 and levi-deep (order 972) carry the 90th
    # percentile.  As in _draw_blocks, the expensive requests open every
    # block.
    leading = ("construct-deep", "gamma-325", "sample-d3")
    quotas = {
        "construct-deep": 1,
        "gamma-325": 1,
        "sample-d3": 1,
        "gamma-235": 4,
        "levi-deep": 4,
        "sample-d2": 2,
        "gamma-223": 15,
        "gamma-d2": 4,
        "gamma-overcap": 4,
        "levi-shallow": 4,
        "construct": len(DRIVER_RUNS),
    }

    def __init__(self, catalog):
        rng = random.Random(f"{self.name}-pool")
        self.pool = {
            kind: [(verbal_request(kind, rng),)
                   for _ in range(POOL_PER_QUOTA * n)]
            for kind, n in self.quotas.items() if kind != "construct"
        }
        self.pool["construct"] = [
            (("construct", DRIVER_PRIMES, steps, rank),)
            for rank, steps in DRIVER_RUNS]

    def execute(self, op, state):
        kind = op[0]
        if kind.startswith("gamma"):
            _, primes, depth, query, text = op
            doc = {"primes": list(primes), "rank": 2, "depth": depth,
                   "quotient_order": lq.format_factors(
                       lq.quotient_order_factors(primes, 2, depth))}
            word = lq.parse_word(text, 2)
            try:
                level = lq.build_series(primes, 2, depth,
                                        coset_cap=VERBAL_COSET_CAP)[-1]
                if query == "member":
                    doc["member"] = {"word": text, "result": level.member(word)}
                else:
                    doc["element_order"] = {"word": text,
                                            "order": level.order_mod(word)}
            except HONEST_NEGATIVES as exc:
                doc["error"] = str(exc)
                return doc
            state["level"] = level
            return doc
        if kind.startswith("levi"):
            _, primes, texts = op
            doc = {"set": list(texts), "primes": list(primes)}
            try:
                doc["bound"] = lq.levi_bound(words_of(texts), primes,
                                             coset_cap=VERBAL_COSET_CAP)
            except HONEST_NEGATIVES as exc:
                doc["error"] = str(exc)
            return doc
        if kind.startswith("sample"):
            _, primes, depth, seed = op
            level = lq.build_series(primes, 2, depth,
                                    coset_cap=VERBAL_COSET_CAP)[-1]
            return lq.check_pigraded_properties(level, sample_count=1000,
                                                seed=seed)
        _, primes, steps, rank = op
        return lq.run_construction(primes, steps, rank=rank,
                                   coset_cap=VERBAL_COSET_CAP)

    def check(self, op, result, state):
        kind = op[0]
        problems = []
        if kind.startswith("gamma") and "error" not in result:
            level = state.pop("level")
            if "element_order" in result:
                orders = [result["element_order"]["order"]]
            else:
                member = result["member"]["result"]
                nf = level.normal_form(lq.parse_word(op[4], 2))
                if member != (not any(any(v) for v in nf)):
                    problems.append(f"member and normal form disagree on {op[4]}")
                orders = []
            problems += _order_problems(orders, op[1])
        elif kind.startswith("sample"):
            if result["violations"] or result["checked"] != 1000:
                problems.append(f"graded order report: {result['violations']}")
            problems += _order_problems(
                [int(n) for n in result["order_histogram"]], op[1])
        elif kind.startswith("construct"):
            if not lq.replay_matches(result, coset_cap=VERBAL_COSET_CAP):
                problems.append("trace does not replay")
        return problems, result

    def properties(self, ops, results):
        kinds = {}
        for op in ops:
            kinds[op[0]] = kinds.get(op[0], 0) + 1
        return {"request_type_share": _shares(kinds, len(ops))}


def _order_problems(orders, primes):
    """Orders divide p_1..p_d, and are square-free when the primes are
    distinct (a repeated prime can square: a has order 12 over (2,2,3))."""
    problems = []
    full = prod(primes)
    distinct = len(set(primes)) == len(primes)
    for n in orders:
        if distinct and any(e > 1 for e in sympy.factorint(n).values()):
            problems.append(f"order {n} is not square-free")
        if full % n:
            problems.append(f"order {n} does not divide {full}")
    return problems


def _shares(counts, total):
    return {k: round(v / total, 4) for k, v in sorted(counts.items())}


WORKLOADS = {w.name: w for w in (Certify, Avoid, Verbal)}
