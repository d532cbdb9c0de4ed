"""Largeness certificates for power quotients F / <<g_1^q, .., g_k^q>>.

The pipeline: pick a finite quotient F -> F/N in which no g_i^s dies for
s <= k but every g_i^q does.  Over N, the normal closure of g_i^q is the
closure of one conjugate per coset of <g_i>N, so N/<<..>> has a
presentation with 1 + (r-1)j generators (Schreier's index formula) and
sum_i j/o(g_i) relators, one per coset of <g_i>N (Lemma 0).  Whenever every
image order exceeds k the relator count stays below j while the generator
count grows linearly in j, so the deficiency criterion (n generators and at
most n-2 relators) certifies largeness.

The counts need only j and the image orders.  A unit witness is r units
g_i of F_p<x_1..x_r>/X^l, p prime, with linear parts invertible mod p:
x_i -> g_i - 1 then extends to an automorphism taking each 1 + x_i to g_i,
so F -> <g_i> has the kernel of a_i -> 1 + x_i.  For it j is p^e by
Jennings' formula (:func:`largequot.series.unit_image_exponent`) and o(g)
the least p^k with p^k v_p(g) >= l, v_p(g) being g's mod-p Magnus valuation
(below); :class:`_UnitCounts` holds these, and nothing is enumerated.  One
test (:func:`_unit_witness`) recognises a unit witness, and one entry
(:func:`_unit_counts`) asks it once per prime p dividing a magnus witness's
modulus m, of the images reduced mod p.  For p = m the closed forms count
the witness; for p < m the witness maps onto the unit witness mod p, so one
whose p^e passes the cap is refused before any BFS.  Every other witness
(residue vectors, verbal cosets, composite moduli under the cap, singular
linear parts) is counted on its coset graph: the generators are its
non-tree edges, the relators its cosets of <g_i>N.  Certify and verify pick
the route from the witness spec alone, so a certificate is recounted by the
route that made it.  The presentation itself (conjugate sets and
Reidemeister-Schreier rewriting in :mod:`largequot.quotients`) is never
built here; it stays library API, against which the tests check the counts.

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
is built or embedded.
"""

from __future__ import annotations

import math

import sympy

from .errors import BelowBoundError, CapExceeded
from .quotients import (
    BUILT_QUOTIENTS,
    DEFAULT_ENUM_CAP,
    FiniteQuotient,
    coset_representatives,
    element_kind,
)
from .series import (
    TruncSeries,
    embed,
    order_of_valuation,
    power_over_cap,
    unit_image_exponent,
    unit_image_quotient,
    unit_image_spec,
)
from .words import Word, parse_word

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
    rank = words[0].rank
    for w in words:
        if not isinstance(w, Word):
            raise ValueError(f"expected a Word, got {w!r}")
        if w.rank != rank:
            raise ValueError("base words of mixed rank")
        if w.is_identity:
            raise ValueError("base words must be nontrivial")
    return words, rank


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
        """The v_p(g_i) of the base words, keyed by word, for any prime p.

        Past M0 each g_i's least integer coefficient c_g survives mod p
        (|c_g| < M0), so there v_p(g_i) = v_Z(g_i).
        """
        return dict(zip(self.words, self.valuations[p if p <= self.M0 else None]))

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


def _valuation(w, p, limit, start=2):
    """(min(v_p(w), limit), w's image at truncation v + 1 or None at the
    limit), where v_None is v_Z.  w alone is embedded at truncations start,
    start + 1, .. up to ``limit`` until it is not 1; as its image at start - 1
    is 1 (v >= 1 for the default start), that first image has truncation v + 1.
    """
    for L in range(start, limit + 1):
        image = embed(w, L, p)
        if not image.is_one:
            return L - 1, image
    return limit, None


# -- counting a witness --------------------------------------------------


class _UnitCounts:
    """Everything known about the unit witness (p, r, l), from closed forms.

    j = p^e by Jennings' formula, o(g) is the least p^k with p^k v_p(g) >= l,
    and each coset of <g>N holds o elements.  At rank 1 the group is
    cyclic, so a^n has order j / gcd(n, j) and no series is formed: there l
    may be as large as the cap, and the series of a^-1 has l terms.  With a
    ``cap``, a p^e past it raises the error the witness's BFS would, before
    any series work.  ``valuations`` maps words to their known v_p, such as
    a bound's; any other word is embedded.  ``serialize``, when given,
    returns the witness as serialized in place of :func:`unit_image_spec`.
    Its coset graph comes from :data:`largequot.quotients.BUILT_QUOTIENTS`.
    """

    __slots__ = ("exponent", "p", "rank", "l", "order", "gens", "_serialize",
                 "_valuations")

    def __init__(self, p, rank, l, cap, serialize=None, valuations=None):
        self.exponent = unit_image_exponent(p, rank, l, cap=cap)
        if cap is not None and power_over_cap(p, self.exponent, cap):
            raise CapExceeded("quotient enumeration", cap + 1, cap)
        self.p, self.rank, self.l = p, rank, l
        self.order = p**self.exponent
        self.gens = 1 + (rank - 1) * self.order
        self._serialize = serialize
        self._valuations = valuations or {}

    def image_order(self, w):
        if w.rank != self.rank:
            raise ValueError(
                f"rank mismatch: word has {w.rank}, quotient has {self.rank}")
        if self.rank == 1:
            return self.order // math.gcd(w.exponent_sums()[0], self.order)
        v = self._valuations.get(w) or _valuation(w, self.p, self.l)[0]
        return order_of_valuation(self.p, v, self.l)

    def cosets(self, w, o):
        return self.order // o

    def serialize(self):
        if self._serialize is None:
            return unit_image_spec(self.p, self.rank, self.l)
        return self._serialize()

    def quotient(self):
        """The standard witness's coset graph."""
        def build():
            quotient = unit_image_quotient(self.p, self.rank, self.l, cap=self.order)
            # an explicit raise, not an assert statement, which python -O strips
            if quotient.order != self.order:
                raise AssertionError("unit image quotient must be a p-group")
            return quotient
        return BUILT_QUOTIENTS.get(("magnus_unit", self.p, self.rank, self.l), build)


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


def _unit_witness(images):
    """Whether magnus images of constant term 1 over a prime p form a unit
    witness (see the module docstring): r images in r variables whose linear
    parts are invertible mod p.  At l = 1 every image is 1, and the linear
    parts are not looked at."""
    first = images[0]
    p, rank = first.modulus, first.rank
    if len(images) != rank:
        return False
    rows = [[g.coefficient((i,)) for i in range(1, rank + 1)] for g in images]
    while rows and first.degree_bound > 1:
        # clear the first column by a row whose entry there is a unit
        at = next((i for i, row in enumerate(rows) if row[0] % p), None)
        if at is None:
            return False
        pivot = rows.pop(at)
        f = pow(pivot[0], -1, p)
        rows = [[(c - row[0] * f * d) % p for c, d in zip(row[1:], pivot[1:])]
                for row in rows]
    return True


def _unit_counts(images, cap, serialize):
    """The closed-form counts of magnus images that form a unit witness, or
    None when their coset graph counts them (see the module docstring).

    Each prime p | m, m the modulus, is found by trial division only (fully
    factoring m can take longer than the BFS) and asked once.  A witness
    already built is counted with ``cap`` None.
    """
    # any other constant term fails the BFS's inverse()
    if not images or any(g.constant_term != 1 for g in images):
        return None
    m, rank, l = images[0].modulus, images[0].rank, images[0].degree_bound
    if m is None:
        if not all(g.is_one for g in images):
            # over Z, 1 + u with u != 0 has infinite order (the leading
            # part of (1 + u)^n is n u_v): the BFS can only end at the cap
            raise CapExceeded("quotient enumeration", cap + 1, cap)
        return None
    # a cofactor that trial division leaves may be composite
    primes = [m] if sympy.isprime(m) else [p for p in sympy.factorint(
        m, limit=2**16, use_rho=False, use_pm1=False) if sympy.isprime(p)]
    for p in primes:
        reduced = images if p == m else [
            TruncSeries(rank, l, p, dict(g.terms())) for g in images]
        if _unit_witness(reduced):
            if p == m:
                return _UnitCounts(p, rank, l, cap, serialize)
            _UnitCounts(p, rank, l, cap)
    return None


def _spec_counts(spec, cap):
    """Count a serialized witness by the route its spec picks.  Magnus
    payloads are parsed by :meth:`TruncSeries.from_payload`, so a malformed spec
    raises what :meth:`FiniteQuotient.from_spec` raises, and the counts
    serialize to what the rebuilt quotient would."""
    if element_kind(spec["kind"]) is TruncSeries:
        params = spec["params"]
        images = [TruncSeries.from_payload(params, payload)
                  for payload in spec["gen_images"]]
        counts = _unit_counts(images, cap, lambda: {
            "kind": spec["kind"], "params": dict(params),
            "gen_images": [g.payload() for g in images]})
        if counts is not None:
            return counts
    return _GraphCounts(FiniteQuotient.from_spec(spec, cap=cap))


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
    No power is built, so the series term cap, which a search over the
    powers can meet first, is never met here.
    """
    words, rank = _check_base_words(words)
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    images = {}  # word -> its integer image at truncation v_Z + 1

    def valuation(w, p, limit):
        if p is None:
            v, images[w] = _valuation(w, None, limit)
        elif any(c % p for mono, c in images[w].terms() if mono):
            v = min(images[w].degree_bound - 1, limit)
        else:
            # the mod-p image is 1 through degree v_Z
            v = _valuation(w, p, limit, images[w].degree_bound + 1)[0]
        if v >= limit:
            raise CapExceeded("series truncation", truncation_cap,
                              truncation_cap)
        return v

    # v_Z(g^s) = v_Z(g), so every power is nontrivial from truncation v + 1
    found = {None: tuple(valuation(w, None, truncation_cap) for w in words)}
    l = 1 + max(found[None])
    # witness: the coefficient s c_g of g^s's least non-constant monomial
    max_coeff = m * max(abs(next(c for mono, c in images[w].terms() if mono))
                        for w in words)
    M0 = max(l, 1 + max_coeff)
    exponents = {}
    truncations = {}
    M = 1
    for p in sympy.primerange(2, M0 + 1):
        # v_p(g^s) = p^a v_p(g) for s = p^a t, so the largest power P of p
        # up to m sets the truncation; P v_p(g) < cap iff v_p(g) < ceil(cap/P)
        P = 1
        while P * p <= m:
            P *= p
        limit = -(-truncation_cap // P)
        found[p] = tuple(valuation(w, p, limit) for w in words)
        counts = _UnitCounts(p, rank, 1 + P * max(found[p]), enum_cap)
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
    large = sympy.factorint(cofactor) if cofactor > 1 else {}
    for p in [p for p in large if p > bound.M0]:
        e = unit_image_exponent(p, bound.rank, l, cap=enum_cap)
        # an over-cap candidate past truncation 2 is dropped; one at
        # truncation 2 stays, and counting or building it reports the cap
        if l > 2 and power_over_cap(p, e, enum_cap):
            continue
        candidates.append((p**e, p, l))
    if not candidates:
        raise CapExceeded("avoiding quotient enumeration", q, enum_cap)
    _, p, l_p = min(candidates)
    return _UnitCounts(p, bound.rank, l_p, enum_cap,
                       valuations=bound.valuations_mod(p))


def find_avoiding_quotient(words, m, q, bound=None,
                           truncation_cap=DEFAULT_TRUNCATION_CAP,
                           enum_cap=DEFAULT_ENUM_CAP):
    """A finite quotient N with g_i^s outside N for s <= m and g_i^q inside.

    Requires q >= M.  Branches: if p^{j(p)} divides q for a small prime p,
    the mod-p unit quotient at that prime's truncation works outright; else
    q has a prime factor p > M0, and the unit quotient mod p at the bound's
    truncation l keeps S alive (every witness coefficient is below p) and
    works because every unit there has order p.  A ``bound`` computed for
    other words or another m raises ``ValueError``.
    Among admissible branches the smallest quotient wins, ranked by the
    closed-form orders; only the winner is enumerated, once per process
    (:meth:`_UnitCounts.quotient`), since callers walk words through it.
    Both postcondition halves are machine-checked before returning.
    """
    words, _ = _check_base_words(words)
    if bound is None:
        bound = lemma_fi_bound(words, m, truncation_cap=truncation_cap,
                               enum_cap=enum_cap)
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
    for p, e in sorted(sympy.factorint(q).items()):
        p_part = p**e
        valuations = bound.valuations_mod(p)
        for l in range(2, truncation_cap + 1):
            try:
                counts = _UnitCounts(p, bound.rank, l, enum_cap,
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

    ``witness`` is an optional user-supplied FiniteQuotient, or a witness
    spec already counted by :func:`_spec_counts` (so a spec read from a file
    is never enumerated when closed forms count it); by default the
    avoiding quotient comes from the bound machinery with m = k, falling
    back to a direct search when q sits below the bound M, and is counted
    without being built, its image orders read off the bound's valuations.
    The certificate is a plain JSON-ready dict; `verify_certificate`
    recomputes it from the serialized witness alone.
    """
    words, rank = _check_base_words(words)
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"exponent must be a positive integer, got {q!r}")
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
    elif isinstance(witness, FiniteQuotient):
        counts = witness.kind == "magnus_unit" and _unit_counts(
            witness.gen_images, None, witness.serialize) or _GraphCounts(witness)
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
    j = counts.order
    gens = counts.gens
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
    relator counts from the witness (not from the recorded numbers), by the
    route its spec picks: closed forms for a standard unit witness, the
    coset graph of the rebuilt quotient for any other, and compares
    bit-exactly.  Returns a report dict with ``ok``, the recomputed counts,
    the list of mismatching fields and the list of problems.  A problem is
    a wrong schema, ``base_words`` that is not a list of strings, a base
    word that does not parse, a target rank not the witness's (or a bool), an
    exponent that is not an integer >= 1, a ``counts`` that is not an object
    or a recorded count that is not an integer; no image order is taken for
    base words that have a problem.  A witness that cannot be counted
    raises: a malformed spec, or one past ``enum_cap``, with the error its
    enumeration would give.
    """
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
    j = counts.order
    gens = counts.gens
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
