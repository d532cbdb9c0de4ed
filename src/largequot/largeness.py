"""Largeness certificates for power quotients F / <<g_1^q, .., g_k^q>>.

The pipeline: pick a finite quotient F -> F/N in which no g_i^s dies for
s <= k but every g_i^q does.  Over N, the normal closure of g_i^q is the
closure of one conjugate per coset of <g_i>N, so N/<<..>> has a
presentation with 1 + (r-1)j generators (Schreier's index formula) and
sum_i j/o(g_i) relators, one per coset of <g_i>N (Lemma 0).  Whenever every
image order exceeds k the relator count stays below j while the generator
count grows linearly in j, so the deficiency criterion (n generators and at
most n-2 relators) certifies largeness.

The counts need only j and the image orders.  A witness arrives as a
spec, counted by :func:`_spec_counts`, so a certificate is recounted by
the route that made it: closed forms where the images' kind has ``counts``
(:data:`largequot.quotients.KINDS`; the magnus kind's unit witnesses, see
:mod:`largequot.series`), else the coset graph, whose non-tree edges are
the generators and whose cosets of <g_i>N the relators.  The presentation
itself (conjugate sets and Reidemeister-Schreier rewriting) stays library
API in :mod:`largequot.quotients`, which the tests check the counts against.

The avoiding quotients come from the truncated series units: any word with a
nonzero integer coefficient below the truncation keeps it mod p for p past
that coefficient, and mod-p units of the truncated algebra have p-power
order, so a single bound M (product of small-prime contributions) makes
every exponent q >= M reachable by one of two branches: q divisible by the
full small-prime unit-group order p^{j(p)}, or q owning a prime factor
p > M0 where truncation l already works.  Jennings' formula gives every
unit-group order, so candidates are ranked without enumeration, and only
:func:`find_avoiding_quotient`, whose callers walk words through the
witness, builds the one it returns.

Every truncation and order is read off one valuation per base word.  v_R(g)
is the least degree of a nonconstant term of g's Magnus image over R = Z or
F_p.  Both power series rings have no zero divisors, so leading homogeneous
parts multiply (Magnus 1935; Jennings, Trans. AMS 50, 1941): over Z the
leading part of g^s is s times g's, so v_Z(g^s) = v_Z(g) and g^s's least
monomial carries s c_g; over F_p, (1 + u)^(p^a) = 1 + u^(p^a), so
v_p(g^s) = p^a v_p(g) for s = p^a t with p not dividing t.  No power g^s
is built or embedded, and no base word is: its valuation is graded over
its prefixes, or a power's over its core (see :mod:`largequot.series`).
"""

from __future__ import annotations

from .errors import BelowBoundError, CapExceeded, check_int
from .primes import factor, primes_up_to
from .quotients import (
    DEFAULT_ENUM_CAP,
    _spec_images,
    build_quotient,
    check_word,
    coset_representatives,
)
from .series import (
    UnitCounts,
    magnus_valuation,
    power_over_cap,
    unit_image_exponent,
)
from .words import parse_word

CERTIFICATE_SCHEMA = "largeness-certificate/1"
DEFAULT_TRUNCATION_CAP = 64

VERDICT_LARGE = "certified-large"
VERDICT_UNKNOWN = "not-certified"


def bp_certify(gen_count, rel_count):
    """Deficiency verdict: n >= 2 generators and at most n-2 relators."""
    if gen_count < 0 or rel_count < 0:
        raise ValueError("generator and relator counts must be nonnegative")
    if gen_count >= 2 and rel_count <= gen_count - 2:
        return VERDICT_LARGE
    return VERDICT_UNKNOWN


def _check_base_words(words):
    words = list(words)
    if not words:
        raise ValueError("need at least one base word")
    for w in words:
        # words[0] is checked on the first pass, before its rank is read
        check_word(w)
        if w.rank != words[0].rank:
            raise ValueError("base words of mixed rank")
        if w.is_identity:
            raise ValueError("base words must be nontrivial")
    return words, words[0].rank


class LemmaFiBound:
    """Avoidance data for a word set: truncation, prime cutoff and M.

    ``l`` is the least truncation where every g_i^s (s <= m) has a nontrivial
    integer series image; ``M0 = max(l, 1 + max witness coefficient)``;
    ``small_prime_exponents[p] = j(p)`` is log_p of the unit-image quotient
    order (Jennings) at the least truncation ``small_prime_truncations[p]``;
    ``M`` is the product of the p^{j(p)}.  ``valuations[R]`` holds the
    v_R(g_i), for R = None (the integers) and every prime up to M0.
    """

    def __init__(self, words, m, l, M0, small_prime_exponents,
                 small_prime_truncations, M, valuations=None):
        self.words = tuple(words)
        self.m = m
        self.rank = words[0].rank
        self.l = l
        self.M0 = M0
        self.small_prime_exponents = dict(small_prime_exponents)
        self.small_prime_truncations = dict(small_prime_truncations)
        self.M = M
        self.valuations = dict(valuations or {})

    def valuations_mod(self, p):
        """(g_i, v_p(g_i)) for the base words in order, for any prime p.

        Past M0 each g_i's least integer coefficient c_g survives mod p
        (|c_g| < M0), so there v_p(g_i) = v_Z(g_i).
        """
        return tuple(zip(self.words,
                         self.valuations[p if p <= self.M0 else None]))

    def to_doc(self):
        return {
            "base_words": [str(w) for w in self.words],
            "rank": self.rank,
            "m": self.m,
            "l": self.l,
            "M0": self.M0,
            "small_prime_exponents": {
                str(p): j for p, j in sorted(self.small_prime_exponents.items())
            },
            "small_prime_truncations": {
                str(p): t for p, t in sorted(self.small_prime_truncations.items())
            },
            "M": self.M,
        }

    def __repr__(self):
        return (
            f"LemmaFiBound(l={self.l}, M0={self.M0}, "
            f"j={self.small_prime_exponents}, M={self.M})"
        )


# -- counting a witness --------------------------------------------------


class _GraphCounts:
    """The counts of any witness, read off its coset graph."""

    def __init__(self, quotient):
        self.quotient = quotient
        self.rank, self.order = quotient.rank, quotient.order
        # one generator per non-tree edge
        self.gens = len(quotient.schreier_generators())
        # explicit raises, not assert statements, which python -O strips
        if self.gens != 1 + (self.rank - 1) * self.order:
            raise AssertionError("generator count must be 1 + (r-1)j")

    def image_order(self, w):
        return self.quotient.image_order(w)

    def cosets(self, w, o):
        count = len(coset_representatives(self.quotient, w))
        if count != self.order // o:
            raise AssertionError("relator count must be the sum of j / image order")
        return count

    def serialize(self):
        return self.quotient.serialize()


def _spec_counts(spec, cap):
    """The counts of a serialized witness, read by
    :func:`largequot.quotients._spec_images`: closed forms where the images'
    kind has ``counts`` and it answers (as ``build_quotient`` reads
    ``packed_action``), else the graph of the quotient rebuilt under
    ``cap``.  Either serializes to what that quotient would."""
    params, images = _spec_images(spec)
    if not images:
        raise ValueError("witness has no generator images")
    kind = type(images[0])

    def serialize():
        return {"kind": spec["kind"], "params": dict(params),
                "gen_images": [g.payload() for g in images]}

    counts = hasattr(kind, "counts") and kind.counts(images, cap, serialize)
    return counts or _GraphCounts(build_quotient(
        len(images), images, cap=cap, kind=spec["kind"], params=params))


def lemma_fi_bound(words, m, truncation_cap=DEFAULT_TRUNCATION_CAP,
                   enum_cap=DEFAULT_ENUM_CAP):
    """Compute the avoidance bound record for S = {g_i^s : 1 <= s <= m}.

    Every truncation and witness coefficient comes from the valuations of
    the base words alone (see the module docstring).  Each word's integer
    image at truncation v_Z + 1 gives c_g and, for each prime p, v_p: it is
    v_Z unless p divides every nonconstant coefficient there, and then the
    mod-p search starts at truncation v_Z + 2.  Words are taken in order and
    primes in increasing order, each prime's truncation before its j(p): a
    power past ``truncation_cap`` raises as soon as its valuation shows it,
    and a p^{j(p)} over ``enum_cap`` raises the error its enumeration would.
    No power is built, and a power given as a base word is valued off its
    core, so the series term cap, which a search over the powers can meet
    first, is never met here.
    """
    words, rank = _check_base_words(words)
    check_int(m, "m must be a positive integer", 1)
    check_int(truncation_cap, "truncation_cap must be a positive integer", 1)
    check_int(enum_cap, "enum_cap must be a positive integer", 1)
    # each word's integer image at truncation v_Z + 1, by position: a word
    # is never a key, as hashing a power spells out its letters
    images = [None] * len(words)
    at = range(len(words))

    def valuation(i, p, limit):
        image = images[i]
        if p is None:
            v, images[i] = magnus_valuation(words[i], None, limit)
        elif any(c % p for mono, c in image.terms() if mono):
            v = min(image.degree_bound - 1, limit)
        else:
            # the mod-p image is 1 through degree v_Z
            v = magnus_valuation(words[i], p, limit, image.degree_bound + 1)[0]
        if v >= limit:
            raise CapExceeded("series truncation", truncation_cap,
                              truncation_cap)
        return v

    # v_Z(g^s) = v_Z(g), so every power is nontrivial from truncation v + 1
    found = {None: tuple(valuation(i, None, truncation_cap) for i in at)}
    l = 1 + max(found[None])
    # witness: the coefficient s c_g of g^s's least non-constant monomial
    max_coeff = m * max(abs(next(c for mono, c in image.terms() if mono))
                        for image in images)
    M0 = max(l, 1 + max_coeff)
    exponents = {}
    truncations = {}
    M = 1
    for p in primes_up_to(M0):
        # v_p(g^s) = p^a v_p(g) for s = p^a t, so the largest power P of p
        # up to m sets the truncation; P v_p(g) < cap iff v_p(g) < ceil(cap/P)
        P = 1
        while P * p <= m:
            P *= p
        limit = -(-truncation_cap // P)
        found[p] = tuple(valuation(i, p, limit) for i in at)
        counts = UnitCounts(p, rank, 1 + P * max(found[p]), enum_cap)
        exponents[p], truncations[p] = counts.exponent, counts.l
        M *= counts.order
    return LemmaFiBound(words, m, l, M0, exponents, truncations, M, found)


def _avoiding_unit(bound, q, enum_cap):
    """The counts of the smallest admissible unit witness for the bound's
    words and m, by closed-form order, with the bound's valuations.

    The ranking half of :func:`find_avoiding_quotient`: nothing is built.
    """
    if q < bound.M:
        raise BelowBoundError(q, bound.M)
    candidates = []  # (quotient order, prime, truncation)
    for p, jp in bound.small_prime_exponents.items():
        if q % p**jp == 0:
            candidates.append((p**jp, p, bound.small_prime_truncations[p]))
    # past M0 every witness coefficient survives mod p, and a truncation
    # below l already kills some power over Z, so l is the least one mod p
    l = bound.l
    # the bound's small primes are every prime up to M0: only the cofactor
    # they leave can hold a larger one
    cofactor = q
    for p in bound.small_prime_exponents:
        while cofactor % p == 0:
            cofactor //= p
    for p in [p for p in factor(cofactor) if p > bound.M0]:
        e = unit_image_exponent(p, bound.rank, l, cap=enum_cap)
        # an over-cap candidate past truncation 2 is dropped; one at
        # truncation 2 stays, and counting or building it reports the cap
        if l > 2 and power_over_cap(p, e, enum_cap):
            continue
        candidates.append((p**e, p, l))
    if not candidates:
        raise CapExceeded("avoiding quotient enumeration", q, enum_cap)
    _, p, l_p = min(candidates)
    return UnitCounts(p, bound.rank, l_p, enum_cap,
                       valuations=bound.valuations_mod(p))


def find_avoiding_quotient(words, m, q, bound=None, enum_cap=DEFAULT_ENUM_CAP):
    """A finite quotient N with g_i^s outside N for s <= m and g_i^q inside.

    Requires q >= M.  Branches: if p^{j(p)} divides q for a small prime p,
    the mod-p unit quotient at that prime's truncation works outright; else
    q has a prime factor p > M0, and the unit quotient mod p at the bound's
    truncation l keeps S alive (every witness coefficient is below p) and
    works because every unit there has order p.  Without a ``bound`` the
    default one is computed, under the default truncation cap; a ``bound``
    computed for other words or another m raises ``ValueError``.
    Among admissible branches the smallest quotient wins, ranked by the
    closed-form orders; only the winner is enumerated, once per process
    (:meth:`largequot.series.UnitCounts.quotient`), since callers walk
    words through it.  Both postcondition halves are checked on return.
    """
    words, _ = _check_base_words(words)
    check_int(enum_cap, "enum_cap must be a positive integer", 1)
    if bound is None:
        bound = lemma_fi_bound(words, m, enum_cap=enum_cap)
    elif bound.words != tuple(words) or bound.m != m:
        raise ValueError("bound is for other base words or another m")
    quotient = _avoiding_unit(bound, q, enum_cap).quotient()
    _check_avoidance(quotient, words, m, q)
    return quotient


def _check_avoidance(quotient, words, m, q):
    for w in words:
        o = quotient.image_order(w)
        if o <= m:
            raise RuntimeError(
                f"avoidance contract violated: image order {o} of {w} is <= {m}"
            )
        if q % o:
            raise RuntimeError(
                f"avoidance contract violated: image order {o} of {w} "
                f"does not divide {q}"
            )


def _direct_witness_search(bound, k, q, truncation_cap, enum_cap):
    """Scan mod-p unit witnesses (p | q) for one, smallest first.

    The bound M is sufficient, not necessary: exponents below it can still
    have avoiding quotients (q=2 for g=a does).  Unit image orders are
    p-powers that only grow with the truncation, so per prime the scan can
    stop as soon as some order outgrows the p-part of q, or the witness
    outgrows the cap.  Orders come from the bound's valuations and the cap
    from Jennings' formula, so nothing is embedded or enumerated.  Returns
    the counts of the witness found, or None.
    """
    for p, e in sorted(factor(q).items()):
        p_part = p**e
        valuations = bound.valuations_mod(p)
        for l in range(2, truncation_cap + 1):
            try:
                counts = UnitCounts(p, bound.rank, l, enum_cap,
                                     valuations=valuations)
            except CapExceeded:
                break
            orders = [counts.image_order(w) for w in bound.words]
            if all(o > k and p_part % o == 0 for o in orders):
                return counts
            if any(p_part % o for o in orders):
                break
    return None


def certify_power_quotient(words, q, witness=None, enum_cap=DEFAULT_ENUM_CAP,
                           truncation_cap=DEFAULT_TRUNCATION_CAP):
    """Build a largeness certificate for F/<<g_1^q, .., g_k^q>>.

    ``witness`` is optional: a witness spec as :func:`_spec_counts` counts
    it (so a spec is never enumerated when closed forms count it), and any
    other object raises ``ValueError`` before a count is read.  By default
    the avoiding quotient comes from the bound machinery with m = k, falling
    back to a direct search when q sits below the bound M, and is counted
    without being built, its image orders read off the bound's valuations.
    The certificate is a plain JSON-ready dict; `verify_certificate`
    recomputes it from the serialized witness alone.
    """
    words, rank = _check_base_words(words)
    check_int(q, "exponent must be a positive integer", 1)
    check_int(enum_cap, "enum_cap must be a positive integer", 1)
    check_int(truncation_cap, "truncation_cap must be a positive integer", 1)
    k = len(words)
    if witness is None:
        bound = lemma_fi_bound(words, k, truncation_cap=truncation_cap,
                               enum_cap=enum_cap)
        try:
            counts = _avoiding_unit(bound, q, enum_cap)
        except BelowBoundError:
            counts = _direct_witness_search(bound, k, q, truncation_cap,
                                            enum_cap)
            if counts is None:
                raise
    elif not callable(getattr(witness, "cosets", None)):
        raise ValueError("witness must be the counts of a spec, as _spec_counts "
                         f"gives them, got {type(witness).__name__}")
    else:
        counts = witness
    orders = [counts.image_order(w) for w in words]
    for w, o in zip(words, orders):
        if o <= k:
            raise ValueError(
                f"image order of {w} is {o}, needs to exceed the word count {k}"
            )
        if q % o:
            raise ValueError(f"{w}^{q} is not in the witness kernel")
    j, gens = counts.order, counts.gens
    rels = sum(counts.cosets(w, o) for w, o in zip(words, orders))
    deficiency = gens - rels
    # explicit raises, not assert statements, which python -O strips: with
    # every image order >= k+1 the relator count stays under kj/(k+1),
    # which for rank >= 2 pins the deficiency above j/(k+1)
    if rels * (k + 1) > k * j:
        raise AssertionError("relator count must stay at most kj/(k+1)")
    if rank >= 2 and (deficiency - 1) * (k + 1) < j:
        raise AssertionError("deficiency must be at least 1 + j/(k+1)")
    return {
        "schema": CERTIFICATE_SCHEMA,
        "target": {
            "rank": rank,
            "base_words": [str(w) for w in words],
            "exponent": q,
        },
        "witness": counts.serialize(),
        "counts": {
            "j": j,
            "gens": gens,
            "rels": rels,
            "deficiency": deficiency,
        },
        "assumptions": [],
        "verdict": bp_certify(gens, rels),
    }


def verify_certificate(doc, enum_cap=DEFAULT_ENUM_CAP):
    """Recompute a certificate's counts and verdict from its witness.

    Works from the serialized document alone: re-derives the generator and
    relator counts from the witness (not from the recorded numbers), by
    :func:`_spec_counts`, and compares bit-exactly.  Returns a report dict with ``ok``, the recomputed counts,
    the list of mismatching fields and the list of problems.  A problem is
    a wrong schema, ``base_words`` that is not a list of strings, a base
    word that does not parse, a target rank not the witness's (or a bool), an
    exponent that is not an integer >= 1, a ``counts`` that is not an object
    or a recorded count that is not an integer; no image order is taken for
    base words that have a problem.  A witness that cannot be counted
    raises: a malformed spec, or one past ``enum_cap``, with the error its
    enumeration would give.
    """
    check_int(enum_cap, "enum_cap must be a positive integer", 1)
    problems = []
    target = doc["target"]
    if doc.get("schema") != CERTIFICATE_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {CERTIFICATE_SCHEMA!r}"
        )
    rank = target["rank"]
    texts = target["base_words"]
    words = []
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        problems.append(f"base_words must be a list of strings, got {texts!r}")
    else:
        for text in texts:
            try:
                words.append(parse_word(text, rank))
            except ValueError as exc:
                problems.append(f"base word {text!r} does not parse: {exc}")
    q = target["exponent"]
    q_ok = type(q) is int and q >= 1
    if not q_ok:
        problems.append(f"exponent must be an integer >= 1, got {q!r}")
    recorded = doc.get("counts")
    if not isinstance(recorded, dict):
        problems.append(f"counts must be an object, got {recorded!r}")
        recorded = {}
    k = len(words)
    counts = _spec_counts(doc["witness"], enum_cap)
    if type(rank) is not int or rank != counts.rank:
        problems.append(
            f"rank mismatch: target has rank {rank!r}, witness has {counts.rank}"
        )
        words = []
    j, gens = counts.order, counts.gens
    rels = 0
    for w in words:
        o = counts.image_order(w)
        if o <= k:
            problems.append(
                f"image order of {w} is {o}, not above the word count {k}"
            )
        if not q_ok:
            continue
        if q % o:
            problems.append(f"{w}^{q} is not in the witness kernel")
        else:
            rels += counts.cosets(w, o)
    computed = {
        "j": j,
        "gens": gens,
        "rels": rels,
        "deficiency": gens - rels,
    }
    for key in computed:
        if key in recorded and type(recorded[key]) is not int:
            problems.append(
                f"counts.{key} must be an integer, got {recorded[key]!r}")
    verdict = bp_certify(gens, rels)
    mismatches = [key for key in computed if computed[key] != recorded.get(key)]
    if verdict != doc.get("verdict"):
        mismatches.append("verdict")
    ok = not mismatches and not problems
    return {
        "ok": ok,
        "computed": {**computed, "verdict": verdict},
        "recorded": {**recorded, "verdict": doc.get("verdict")},
        "mismatches": mismatches,
        "problems": problems,
    }
