"""Iterated verbal quotients gamma_0 = F, gamma_d = [H,H]H^{q_d} for H = gamma_{d-1}.

H = gamma_{d-1} is the fundamental group of the coset graph of F/gamma_{d-1},
a free group on the Schreier generators (the non-tree edges), and the level
factor H/[H,H]H^q = H_1(gamma_{d-1}; Z/q) is the cycle space of that graph
mod q.  So a word u in gamma_{d-1} lies in gamma_d iff its walk through the
coset graph of F/gamma_{d-1}, which closes up, crosses every non-tree edge a
net multiple of q_d times; no rewriting or free reduction is needed.

The same picture builds the groups: F/gamma_d is the mod-q_d homology cover
of the coset graph of F/gamma_{d-1} (the voltage-graph picture of
Gross-Tucker), whose vertices are pairs (coset of gamma_{d-1}, crossing
counts mod q_d).  That cover is :meth:`LayeredCoset.packed_action`, the
packed action of the ``verbal`` element kind, so
:func:`largequot.quotients.build_quotient` enumerates it on int keys,
whether the images come from the series or from a document.
Each level keeps the coset table of F/gamma_{d-1}; ``member``,
``order_mod``, ``component_vector`` and the cover's move table walk the
word through such a table with :meth:`largequot.quotients.FiniteQuotient.walk`
and reduce its crossing sums mod the prime, so a power built by
:func:`largequot.words.power` is walked by the period of its core.  The
graded sampler of :func:`largequot.periodic.check_pigraded_properties`
walks words given by their alphabet indices instead, all passes of each in
one loop over the table's flat step table
(:meth:`VerbalLevel._orders_and_depths`).
F/gamma_d is only materialized while its order fits the materialization
cap; deeper levels still know their order and Schreier rank through the
closed product formula

    |F/gamma_d| = |F/gamma_{d-1}| * q_d ^ (1 + (r-1)|F/gamma_{d-1}|),

but raise :class:`NotMaterializedError` for queries that need their tables.
Levels take F/gamma_d from :data:`largequot.quotients.BUILT_QUOTIENTS`, so
each cover BFS runs once per process while that table keeps it.

The layered normal form of a coset w*gamma_d is one vector per level,
computed by repeatedly subtracting the canonical representative (the product
of Schreier basis words raised to the vector's entries).  It is a complete
coset invariant, read by no build: a :class:`LayeredCoset` only carries a
serialized generator image of F/gamma_d, and the cover is the one way
F/gamma_d is built from such images.
"""

from __future__ import annotations

import functools
from itertools import islice

import sympy

from .errors import CapExceeded, NotMaterializedError
from .quotients import (
    BUILT_QUOTIENTS,
    KINDS,
    FiniteQuotient,
    ModVector,
    build_quotient,
)
from .words import Word, parse_word, power, word_indices

DEFAULT_COSET_CAP = 10**4
DEFAULT_DEPTH_CAP = 16

# Orders double-exponentiate along the series; past this exponent the value
# is an exponent tower nothing downstream could store or print anyway.
ORDER_EXPONENT_CAP = 10**6


# what a level's _quotient_order holds until its first read
_UNREAD = object()


def _order_repr(n):
    if n is None:
        return "beyond representation"
    if n < 10**24:
        return str(n)
    return f"about 10^{int(n.bit_length() * 0.30103)}"


class PrimeSeq:
    """A finite sequence of primes q_1, q_2, .. indexing the verbal levels."""

    def __init__(self, primes):
        primes = tuple(int(p) for p in primes)
        if not primes:
            raise ValueError("prime sequence must be nonempty")
        for p in primes:
            if not sympy.isprime(p):
                raise ValueError(f"{p} is not prime")
        self.primes = primes

    @property
    def distinct(self):
        return len(set(self.primes)) == len(self.primes)

    def __len__(self):
        return len(self.primes)

    def __getitem__(self, i):
        return self.primes[i]

    def __repr__(self):
        return f"PrimeSeq({list(self.primes)})"


def _as_primeseq(primes):
    return primes if isinstance(primes, PrimeSeq) else PrimeSeq(primes)


class VerbalLevel:
    """Level d of the series, holding the coset data of F/gamma_{d-1}.

    ``parent_quotient`` is the finite quotient F/gamma_{d-1} (``None`` when
    the materialization cap was passed) and ``basis_words`` its Schreier
    generators as words of F, i.e. a free basis of gamma_{d-1}, built on
    first use.
    ``schreier_rank`` and ``quotient_order`` outlive materialization, but
    once they pass ORDER_EXPONENT_CAP digits-wise they are not represented
    and accessing them raises :class:`CapExceeded`.  ``parent_order`` is
    |F/gamma_{d-1}| (None past the cap).  The level's own order is computed
    on its first read, or when level d+1 is pulled, and then kept in
    ``_quotient_order``, which holds ``_UNREAD`` until then: the deepest
    level of a series can be of hundreds of thousands of digits, and most
    requests never read it.
    """

    def __init__(self, rank, depth, prime, primes_prefix, parent_level,
                 parent_quotient, parent_order):
        self.rank = rank
        self.depth = depth
        self.prime = prime
        self.primes_prefix = primes_prefix
        self.parent_level = parent_level
        self.parent_quotient = parent_quotient
        self._basis_words = None
        self.parent_order = parent_order
        self._quotient_order = _UNREAD

    @property
    def basis_words(self):
        if self._basis_words is None and self.materialized:
            quotient = self.parent_quotient
            self._basis_words = tuple(
                quotient.schreier_generator_word(label)
                for label in quotient.schreier_generators()
            )
        return self._basis_words

    @property
    def schreier_rank(self):
        if self.parent_order is None:
            raise CapExceeded(
                f"depth-{self.depth} basis rank", "an exponent tower",
                ORDER_EXPONENT_CAP,
            )
        return _schreier_rank(self.rank, self.parent_order)

    def _order(self):
        """|F/gamma_d|, or None once it is an exponent tower; kept once read."""
        if self._quotient_order is _UNREAD:
            self._quotient_order = _next_order(self.parent_order, self.prime,
                                               self.rank)
        return self._quotient_order

    @property
    def quotient_order(self):
        order = self._order()
        if order is None:
            raise CapExceeded(
                f"depth-{self.depth} quotient order", "an exponent tower",
                ORDER_EXPONENT_CAP,
            )
        return order

    def __repr__(self):
        # a tower is never computed: _order() gives None for it
        return (
            f"VerbalLevel(depth={self.depth}, primes={list(self.primes_prefix)}, "
            f"rank={self.rank}, order={_order_repr(self._order())})"
        )

    @property
    def materialized(self):
        return self.parent_quotient is not None

    def _require_materialized(self):
        if not self.materialized:
            raise NotMaterializedError(
                f"level {self.depth} has no coset data: |F/gamma_{self.depth - 1}| "
                f"= {_order_repr(self.parent_order)} exceeded the "
                "materialization cap"
            )

    def _require_fits(self, coset_cap):
        """Raise the materialization cap's text when the level has no coset data."""
        if not self.materialized:
            raise CapExceeded("verbal materialization",
                              _order_repr(self.parent_order), coset_cap)

    def _first_unmaterialized(self):
        """The lowest level of the chain up to this one without coset data."""
        first = None
        lvl = self
        while not lvl.materialized:
            first, lvl = lvl, lvl.parent_level
        return first

    def _table(self):
        """The coset table of F/gamma_{d-1}; raises the
        :class:`NotMaterializedError` of the lowest level without one."""
        if not self.materialized:
            self._first_unmaterialized()._require_materialized()
        return self.parent_quotient

    def _chain(self):
        levels = []
        lvl = self
        while lvl is not None:
            levels.append(lvl)
            lvl = lvl.parent_level
        return levels[::-1]

    def component_vector(self, u):
        """Exponent vector of u over the Schreier basis of gamma_{d-1}, mod q_d.

        Only meaningful when u lies in gamma_{d-1}; the walk closing up is
        exactly that membership, and a word outside gamma_{d-1} raises.
        """
        self._require_materialized()
        quotient = self.parent_quotient
        counts = {}
        if quotient.coset_of(u, counts) != 0:
            raise ValueError(
                f"word is not in gamma_{self.depth - 1}; its level-{self.depth} "
                "vector is undefined"
            )
        return tuple(counts.get(at, 0) % self.prime
                     for at in range(len(quotient.schreier_generators())))

    def representative(self, vector):
        """Canonical preimage of a level vector: product of basis powers."""
        self._require_materialized()
        out = Word.identity(self.rank)
        for basis_word, e in zip(self.basis_words, vector):
            if e:
                out = out * power(basis_word, e)
        return out

    def normal_form(self, w):
        """Layered exponent vectors (one per level) of the coset w*gamma_d."""
        u = w
        vectors = []
        for lvl in self._chain():
            v = lvl.component_vector(u)
            vectors.append(v)
            if lvl.depth < self.depth and any(v):
                u = u * lvl.representative(v).inverse()
        return tuple(vectors)

    def member(self, w):
        """Whether w lies in gamma_d.

        One walk through the deepest materialized table F/gamma_{k-1},
        k <= d: w lies in gamma_k iff the walk closes and every crossing
        count vanishes mod q_k.  A word outside gamma_k is outside gamma_d;
        a word inside it needs the next, unmaterialized, level, which raises.
        """
        first = self._first_unmaterialized()
        deepest = self if first is None else first.parent_level
        counts = {}
        if deepest.parent_quotient.coset_of(w, counts) != 0 or any(
            c % deepest.prime for c in counts.values()
        ):
            return False
        if first is not None:
            first._require_materialized()
        return True

    def order_mod(self, w):
        """Order of the coset w*gamma_d in F/gamma_d.

        The order k of w modulo gamma_{d-1} comes from walking w through
        F/gamma_{d-1} until the walk closes.  Then w^k lies in gamma_{d-1},
        whose factor modulo gamma_d is elementary abelian of exponent q_d,
        so the order is k*q_d when the crossings summed over the k passes
        are nonzero mod q_d, and k otherwise.
        """
        return self._coset_and_order(w)[1]

    def _coset_and_order(self, w):
        """(c, n): the coset c of w in F/gamma_{d-1} and n = ``order_mod(w)``,
        from one walk.  For c == 0 the walk is one pass, so n == 1 exactly
        when w lies in gamma_d."""
        quotient, counts = self._table(), {}
        c = quotient.coset_of(w, counts)
        k = quotient.image_order(w, counts, first=c)
        if any(x % self.prime for x in counts.values()):
            return c, k * self.prime
        return c, k

    def _order_and_depth(self, w):
        """(``order_mod(w)``, the deepest i <= d with w in gamma_i), from
        one walk of w through F/gamma_{d-1}.

        A plain word goes through :meth:`_orders_and_depths` by its
        alphabet indices; a power is walked by its period
        (:meth:`largequot.quotients.FiniteQuotient.walk`).
        """
        quotient = self._table()
        quotient._check_word(w)
        if w.power_record is None:
            return self._orders_and_depths([word_indices(w)])[0]
        c, n = self._coset_and_order(w)
        return n, self._depth_of(c, n)

    def _orders_and_depths(self, sequences):
        """:meth:`_order_and_depth` of each word given by a tuple of its
        alphabet indices (see :func:`largequot.words.random_reduced_indices`),
        once per distinct tuple.

        One loop over the step table of F/gamma_{d-1}
        (:meth:`largequot.quotients.FiniteQuotient.step_table`) walks the
        k passes of w that close up, counting the signed crossings; the
        order is k * q_d when some crossing count is nonzero mod q_d, and k
        otherwise, as in :meth:`order_mod`.  The coset the first pass
        reaches gives the depth (:meth:`_depth_of`).  An empty list asks
        nothing of the table.
        """
        if not sequences:
            return []
        steps = self._table().step_table()
        width, q = 2 * self.rank, self.prime
        answers, out = {}, []
        for seq in sequences:
            answer = answers.get(seq)
            if answer is None:
                counts = {}
                get = counts.get
                c = k = 0
                while True:
                    for i in seq:
                        c, x = steps[c + i]
                        if x:
                            counts[x] = get(x, 0) + 1
                    k += 1
                    if k == 1:
                        first = c // width
                    if not c:
                        break
                # crossings are keyed +(pos + 1) forward, -(pos + 1) backward
                for x, m in counts.items():
                    if (m - get(-x, 0)) % q:
                        k *= q
                        break
                answer = answers[seq] = (k, self._depth_of(first, k))
            out.append(answer)
        return out

    def _depth_of(self, c, n):
        """The deepest i <= d with w in gamma_i, for a word w of order n in
        F/gamma_d whose walk from the trivial coset of F/gamma_{d-1} ends
        at coset c.

        When c is trivial, w lies in gamma_d iff n is 1.  Otherwise c is
        projected down the series: in F/gamma_{k-1} the key of c is
        x * |F/gamma_{k-2}| + v, with v its coset of gamma_{k-2} (see
        :meth:`LayeredCoset.packed_action`), until v is trivial.
        """
        if c == 0:
            return self.depth if n == 1 else self.depth - 1
        lvl = self
        while c:
            below = lvl.parent_level
            c = lvl.parent_quotient.elements[c] % below.parent_quotient.order
            lvl = below
        return lvl.depth - 1


class LayeredCoset:
    """A coset of gamma_d carried by a representative word: a generator
    image of F/gamma_d, which the ``verbal`` kind's packed action walks.

    It is neither multiplied nor compared; two of them are equal only when
    they are the same object.
    """

    __slots__ = ("level", "word")
    kind = "verbal"

    def __init__(self, level, word):
        self.level = level
        self.word = word

    def _same_series(self, other):
        return (
            self.level.depth == other.level.depth
            and self.level.primes_prefix == other.level.primes_prefix
            and self.level.rank == other.level.rank
        )

    def inverse(self):
        return LayeredCoset(self.level, self.word.inverse())

    def __repr__(self):
        return f"LayeredCoset(depth={self.level.depth}, word={self.word})"

    # -- the verbal element kind -----------------------------------------

    def params(self):
        return {"primes": list(self.level.primes_prefix),
                "rank": self.level.rank, "depth": self.level.depth}

    def payload(self):
        return str(self.word)

    @classmethod
    def from_payload(cls, params, payload):
        # type() and not isinstance(): a bool is an int to isinstance, and True
        # hashes equal to 1 in a level-table key
        depth, rank, primes = params["depth"], params["rank"], params["primes"]
        if type(depth) is not int or depth < 1:
            raise ValueError(f"verbal depth must be a positive integer, got {depth!r}")
        if type(rank) is not int or rank < 1:
            raise ValueError(f"verbal rank must be a positive integer, got {rank!r}")
        if type(primes) is not list or any(type(p) is not int for p in primes):
            raise ValueError(
                f"verbal primes must be a list of integers, got {primes!r}")
        level = build_series(primes, rank, depth)[-1]
        return cls(level, parse_word(payload, rank))

    @staticmethod
    def packed_action(images, inverses):
        """Right multiplication by the images on the vertices of the cover.

        The packed action of the ``verbal`` kind (see
        :data:`largequot.quotients.KINDS`).  For images in F/gamma_d,
        a key is x * |F/gamma_{d-1}| + v: a coset v of gamma_{d-1} and a chain
        x over the non-tree edges of its coset graph, read in base q_d, so
        key % |F/gamma_{d-1}| is the element's coset of gamma_{d-1}:
        :meth:`VerbalLevel._depth_of` reads it for the depths of the graded
        sampler of :func:`largequot.periodic.check_pigraded_properties`.  An
        image word u acts on (v, x) by walking from v: the walk's end replaces
        v and its crossings, summed mod q_d, add into the digits of x.  Both
        are tabulated once per base coset and image, so any image words work,
        not only the generators.  Raises ``ValueError`` unless every image is a
        :class:`LayeredCoset` of one series, one per generator of the series'
        free group, and the :class:`NotMaterializedError` of
        :meth:`VerbalLevel._table` when the series has no table for
        F/gamma_{d-1}.
        """
        first = images[0]
        if any(type(u) is not LayeredCoset or not first._same_series(u)
               for u in images):
            raise ValueError("cosets of different verbal quotients")
        level = first.level
        if len(images) != level.rank:
            raise ValueError(f"a verbal quotient over rank {level.rank} needs "
                             f"{level.rank} generator images, got {len(images)}")
        base, q = level._table(), level.prime
        n = base.order
        # digit units n q^pos, formed only for the non-tree edges a walk crosses:
        # a base has 1 + (R - 1) n of them at rank R, their units ~(R n)^2 bits
        unit = functools.cache(lambda pos: n * q**pos)
        words = [u.word for pair in zip(images, inverses) for u in pair]
        # moves[v]: per image, the coset shift and the (digit unit, count) adds
        moves = []
        for v in range(n):
            row = []
            for w in words:
                counts = {}
                end = base.walk(v, w, counts)
                row.append((end - v, [(unit(at), c % q)
                                      for at, c in counts.items() if c % q]))
            moves.append(row)

        def expand(key):
            row = moves[key % n]
            out = []
            for shift, adds in row:
                y = key + shift
                for u, c in adds:
                    y += c * u if key // u % q + c < q else (c - q) * u
                out.append(y)
            return out

        # the identity is coset 0 with the zero chain
        return 0, expand


def _schreier_rank(rank, order):
    """Rank of a subgroup of index ``order`` in the free group of ``rank``."""
    return 1 + (rank - 1) * order


def _next_order(order, q, rank):
    """|F/gamma_d| = order * q ^ (Schreier rank of gamma_{d-1}), from
    order = |F/gamma_{d-1}|; None once the exponent passes
    ORDER_EXPONENT_CAP, and for order None."""
    if order is None:
        return None
    exponent = _schreier_rank(rank, order)
    return None if exponent > ORDER_EXPONENT_CAP else order * q**exponent


def _level_orders(primes, rank):
    """Yield (d, q_d, Schreier rank of gamma_{d-1}, |F/gamma_d|) for d = 1, 2, ..

    The order is None once its exponent passes ORDER_EXPONENT_CAP, and both
    are None after that level.
    """
    order = 1
    for d, q in enumerate(primes, 1):
        exponent = None if order is None else _schreier_rank(rank, order)
        order = _next_order(order, q, rank)
        yield d, q, exponent, order


def _depth_checked(primes, depth):
    """The primes as a PrimeSeq whose series reaches the given depth."""
    primes = _as_primeseq(primes)
    if not isinstance(depth, int) or depth < 0:
        raise ValueError(f"depth must be a nonnegative integer, got {depth!r}")
    if depth > len(primes):
        raise ValueError(
            f"prime sequence has {len(primes)} terms, cannot build depth {depth}"
        )
    return primes


def _iter_levels(primes, rank, coset_cap):
    """Yield levels 1, 2, .. lazily.

    The coset graph of F/gamma_d is built only when level d+1 is pulled, so
    consumers that stop early never pay for enumerations they do not use,
    and it comes from the table of built quotients when it was built before.
    Level d's order is computed then too, if nothing read it before.
    """
    primes = _as_primeseq(primes)
    if isinstance(rank, int) and rank < 1:
        raise ValueError("rank must be at least 1")
    if isinstance(rank, int) and rank > ORDER_EXPONENT_CAP:
        # |F/gamma_1| = q_1^rank is already an exponent tower: refuse before
        # F/gamma_0 allocates tables of rank entries
        raise CapExceeded("depth-1 quotient order", "an exponent tower",
                          ORDER_EXPONENT_CAP)
    # F/gamma_0 is one coset, every edge a loop: what the BFS over trivial
    # residue vectors builds, without its 2 * rank products
    trivial = ModVector(1, (0,))
    parent_quotient = FiniteQuotient(
        rank, [trivial] * rank, [trivial], [[0] * rank], [[0] * rank], [None],
        kind="modvec", params={"modulus": 1, "dim": 1})
    parent_order = 1
    parent_level = None
    for d, q in enumerate(primes.primes, 1):
        if d > 1:
            parent_order = parent_level._order()
            parent_quotient = None
            # orders grow along the series, so every lower level fits too
            if parent_order is not None and parent_order <= coset_cap:
                parent_quotient = BUILT_QUOTIENTS.get(
                    ("verbal", rank) + parent_level.primes_prefix,
                    lambda: build_quotient(rank, [
                        LayeredCoset(parent_level, Word.generator(rank, g))
                        for g in range(1, rank + 1)], cap=coset_cap))
        level = VerbalLevel(
            rank=rank,
            depth=d,
            prime=q,
            primes_prefix=primes.primes[:d],
            parent_level=parent_level,
            parent_quotient=parent_quotient,
            parent_order=parent_order,
        )
        yield level
        parent_level = level


def build_series(primes, rank, depth, coset_cap=DEFAULT_COSET_CAP):
    """Materialize levels 1..depth of the series over the given primes.

    Returns the list of :class:`VerbalLevel`; depth 0 gives an empty list.
    Levels stay usable for order/size queries past the materialization cap,
    but membership needs |F/gamma_{d-1}| <= coset_cap.
    """
    primes = _depth_checked(primes, depth)
    return list(islice(_iter_levels(primes, rank, coset_cap), depth))


def quotient_order(primes, rank, depth):
    """|F/gamma_depth| by the closed product formula (no materialization).

    Raises :class:`CapExceeded` once the running exponent passes
    ORDER_EXPONENT_CAP; by then the value is an exponent tower.
    """
    primes = _depth_checked(primes, depth)
    order = 1
    for d, _, exponent, order in islice(_level_orders(primes, rank), depth):
        if order is None:
            raise CapExceeded(f"depth-{d} quotient order exponent",
                              _order_repr(exponent), ORDER_EXPONENT_CAP)
    return order


def quotient_order_factors(primes, rank, depth):
    """{prime: exponent} factorization of |F/gamma_depth|.

    The factored form outlives :func:`quotient_order` by one level: the
    exponents are the Schreier ranks, which stay representable until the
    order itself already is not.
    """
    primes = _depth_checked(primes, depth)
    if depth == 0:
        return {}
    # the deepest level's order is never read, and can be a power of
    # hundreds of thousands of digits: stop the recurrence one level short
    factors, order = {}, 1
    for d, q, exponent, order in islice(_level_orders(primes, rank), depth - 1):
        factors[q] = factors.get(q, 0) + exponent
        if order is None:
            raise CapExceeded(f"depth-{d} quotient order exponent",
                              _order_repr(exponent), ORDER_EXPONENT_CAP)
    q = primes[depth - 1]
    factors[q] = factors.get(q, 0) + _schreier_rank(rank, order)
    return factors


def _escape_level(primes, rank, start, inside, exhausted, depth_cap, coset_cap):
    """The first level past depth ``start`` that ``inside`` rejects, and the
    stream of the levels after it.

    Levels start+1 .. min(depth_cap, len(primes)) are tested in order; none
    is built when there is none to test.  Running out of primes raises a
    ``ValueError`` whose text ends in ``exhausted``; running out of depth,
    or a level past ``coset_cap``, raises :class:`CapExceeded`.
    """
    max_depth = min(depth_cap, len(primes))
    if start >= max_depth:
        if len(primes) < depth_cap:
            raise ValueError(f"prime sequence has {len(primes)} terms, too short "
                             f"to scan past depth {start}")
        raise CapExceeded("verbal depth", start + 1, depth_cap)
    levels = _iter_levels(primes, rank, coset_cap)
    for level in islice(levels, max_depth):
        if level.depth <= start:
            continue
        level._require_fits(coset_cap)
        if not inside(level):
            return level, levels
    if len(primes) < depth_cap:
        raise ValueError(f"prime sequence exhausted at depth {max_depth} {exhausted}")
    raise CapExceeded("verbal depth", max_depth, depth_cap)


def levi_bound(words, primes, depth_cap=DEFAULT_DEPTH_CAP,
               coset_cap=DEFAULT_COSET_CAP):
    """Least D <= depth_cap with no word of S in gamma_D.

    By the nesting gamma_{D+1} <= gamma_D this single D works for every
    deeper level as well.  Raises ``ValueError`` for an identity word (it
    lies in every level) and :class:`CapExceeded` when depth_cap is reached
    without success or a required level cannot be materialized.
    """
    primes = _as_primeseq(primes)
    words = list(words)
    if not words:
        raise ValueError("need at least one word")
    rank = words[0].rank
    for w in words:
        if w.is_identity:
            raise ValueError("the identity word lies in every verbal level")
        if w.rank != rank:
            raise ValueError("words of mixed rank")
    level, _ = _escape_level(
        primes, rank, 0, lambda level: any(level.member(w) for w in words),
        "before avoiding the set", depth_cap, coset_cap,
    )
    return level.depth


KINDS[LayeredCoset.kind] = LayeredCoset
