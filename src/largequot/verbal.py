"""Iterated verbal quotients gamma_0 = F, gamma_d = [H,H]H^{q_d} for H = gamma_{d-1}.

H = gamma_{d-1} is the fundamental group of the coset graph of F/gamma_{d-1},
and the level factor H/[H,H]H^q = H_1(gamma_{d-1}; Z/q) is the first
homology of that graph mod q, which is its cycle space.  So a word u of
gamma_{d-1} lies in gamma_d iff its walk through the coset graph of
F/gamma_{d-1}, which closes up, crosses every edge a net multiple of q_d
times; no rewriting, free reduction, spanning tree or BFS numbering is
needed.  Counted on the non-tree edges alone, the same sums are the
exponents of u over the Schreier basis of gamma_{d-1}.

The same picture builds the groups: F/gamma_d is the mod-q_d homology cover
of the coset graph of F/gamma_{d-1} (the voltage-graph picture of
Gross-Tucker), whose vertices are pairs (coset of gamma_{d-1}, crossing
counts mod q_d).  That cover is :meth:`LayeredCoset.packed_action`, the
packed action of the ``verbal`` element kind, so
:func:`largequot.quotients.build_quotient` enumerates it on int keys,
whether the images come from the series or from a document.

Exponent sums answer most queries without a walk.  Each layer
gamma_{i-1}/gamma_i has exponent q_i, so the exponent-sum map F -> Z^r
sends gamma_i into q_1 .. q_i Z^r (H. Neumann, *Varieties of Groups*,
1967; see :meth:`VerbalLevel._answering_level`), and where F/gamma_k is
abelian, at rank 1 or depth 1, they answer alone.  The graded sampler of
:func:`largequot.periodic.check_pigraded_properties` asks this once per
exponent-sum class of its sample, not once per word
(:meth:`VerbalLevel._tally_classes`).  The rest is walked: ``member``,
``order_mod`` and the sampler, for the words of the classes the sums leave
open, walk a word through F/gamma_{d-1} as the :class:`HomologyCover` of
F/gamma_{d-2}'s table, whose rows are expanded from that packed action as
the walk reaches them, and a power built by :func:`largequot.words.power`
by the period of its core.

A level builds the BFS table of F/gamma_{d-1} (its ``parent_quotient``)
only when something needs its numbering: the Schreier basis, component
vectors and normal forms, the depths the sampler reads off cover keys, the
cover of the level above, and witnesses serialized from it.  Tables and
covers come from :data:`largequot.quotients.BUILT_QUOTIENTS` on each read,
so each is made once per process while that table keeps it, inside its one
coset budget, and what is derived from a table, such as the Schreier basis,
is kept on the table.

Levels are hash-consed: each comes from :func:`_level`, one per (level
below, prime, coset cap, rank) while its cache of 256 levels keeps it, and
each prime sequence is checked once while the cache of :func:`_as_primeseq`
keeps it.  So requests over one series share its levels, and each level's
order and factored order are computed once.  Each level is made from the
one below it and holds the exponent of the series' one product formula,
the Schreier rank of gamma_{d-1}:

    |F/gamma_d| = |F/gamma_{d-1}| * q_d ^ (1 + (r-1)|F/gamma_{d-1}|),

so a level past the materialization cap, where F/gamma_{d-1} has no coset
data, still knows its order and factored order, but raises
:class:`NotMaterializedError` for queries that need coset data.

The layered normal form of a coset w*gamma_d is one vector per level,
computed by repeatedly subtracting the canonical representative (the product
of Schreier basis words raised to the vector's entries).  It is a complete
coset invariant, read by no build: a :class:`LayeredCoset` only carries a
serialized generator image of F/gamma_d, and the cover is the one way
F/gamma_d is built from such images.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import compress, islice
from math import gcd, prod

from .errors import CapExceeded, NotMaterializedError, check_int
from .primes import is_prime
from .quotients import (
    BUILT_QUOTIENTS,
    KINDS,
    CosetGraph,
    FiniteQuotient,
    ModVector,
    build_quotient,
    check_word,
)
from .words import Word, indexed_word, packed_sums_gcd, parse_word, power

DEFAULT_COSET_CAP = 10**4
DEFAULT_DEPTH_CAP = 16

LEVEL_RANK_TEXT = "rank must be at least 1"

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
        primes = tuple(primes)
        if not primes:
            raise ValueError("prime sequence must be nonempty")
        for p in primes:
            if not is_prime(check_int(p, "primes must be integers")):
                raise ValueError(f"{p} is not prime")
        self.primes = primes

    @property
    def distinct(self):
        return len(set(self.primes)) == len(self.primes)

    def __len__(self):
        return len(self.primes)

    def __eq__(self, other):
        if not isinstance(other, PrimeSeq):
            return NotImplemented
        return self.primes == other.primes

    def __hash__(self):
        return hash(self.primes)

    def __repr__(self):
        return f"PrimeSeq({list(self.primes)})"


# one PrimeSeq per tuple of ints, its primes checked once while kept
_primeseq = functools.lru_cache(maxsize=256)(PrimeSeq)


def _as_primeseq(primes):
    if isinstance(primes, PrimeSeq):
        return primes
    primes = tuple(primes)
    # (2.0, 3) == (2, 3) and (True, 3) == (1, 3) as keys: such a sequence
    # goes to the constructor for its refusal, never to the cache
    if all(type(p) is int for p in primes):
        return _primeseq(primes)
    return PrimeSeq(primes)


class VerbalLevel:
    """Level d of the series, holding the coset data of F/gamma_{d-1}.

    It is made from ``below``, level d-1 (None for level 1), and sets what
    the chain decides once: ``depth``, ``primes_prefix``, ``parent_order``
    = |F/gamma_{d-1}| and ``exponent`` = 1 + (r-1)|F/gamma_{d-1}|, both None
    past an exponent tower; ``materialized``, whether it has coset data
    (|F/gamma_{d-1}| <= the coset cap), and ``first_unmaterialized``, the
    lowest level of its chain without them, if any; and ``abelian``, whether
    F/gamma_d is, at rank 1 or depth 1, where exponent sums answer every
    query.

    ``parent_quotient`` is F/gamma_{d-1} with its BFS numbering (None past
    the cap), and ``basis_words`` its Schreier generators as words of F, a
    free basis of gamma_{d-1}; ``member`` and ``order_mod`` read neither
    (:meth:`_walker`).  The level holds no table: each read takes it from
    BUILT_QUOTIENTS, which builds it when it holds none, so a table that
    BUILT_QUOTIENTS evicts is not kept alive by the levels :func:`_level`
    keeps.  Two kinds of table stay on the level: F/gamma_0's one coset at
    level 1, and one larger than the budget of BUILT_QUOTIENTS, which it
    never stores (:meth:`_tabled`), possible only under a ``coset_cap`` past
    :data:`largequot.quotients.TABLE_COSETS`.  The level's order and its
    factorization (:meth:`_factors`) are computed on their first read, or
    when level d+1 is made, and kept: the deepest level can be of hundreds
    of thousands of digits, and most requests never read it.  Reading
    ``quotient_order`` past ORDER_EXPONENT_CAP raises :class:`CapExceeded`.
    """

    def __init__(self, below, prime, coset_cap, rank):
        self.rank = rank
        self.prime = prime
        self.parent_level = below
        self._coset_cap = coset_cap
        if below is None:
            self.depth, self.primes_prefix, self.parent_order = 1, (prime,), 1
        else:
            self.depth = below.depth + 1
            self.primes_prefix = below.primes_prefix + (prime,)
            self.parent_order = below._order()
        order = self.parent_order
        self.exponent = None if order is None else 1 + (rank - 1) * order
        # orders grow along the series, so every lower level fits too
        self.materialized = self.depth == 1 or (
            order is not None and order <= coset_cap)
        self.first_unmaterialized = None if self.materialized else (
            below.first_unmaterialized or self)
        # F/gamma_d is abelian, so exponent sums decide every query
        self.abelian = rank == 1 or self.depth == 1
        self._kept = {}
        self._quotient_order = _UNREAD
        self._factorization = None

    def _tabled(self, key, build):
        """The table under ``key`` of BUILT_QUOTIENTS, made by ``build()``
        when it holds none.  One larger than the budget of BUILT_QUOTIENTS,
        which never stores it, is kept on the level instead."""
        table = self._kept.get(key)
        if table is None:
            table = BUILT_QUOTIENTS.get(key, build)
            if table.order > BUILT_QUOTIENTS.cosets:
                self._kept[key] = table
        return table

    @property
    def parent_quotient(self):
        """F/gamma_{d-1}, built by the BFS over the cover of the table below,
        or taken from BUILT_QUOTIENTS; None past the cap.

        Its readers are those that need the BFS numbering: the Schreier
        basis and normal forms, the cover of the level above, the depths
        the graded sampler reads off the keys of that cover, and the
        witnesses serialized from it."""
        if not self.materialized:
            return None
        below, rank = self.parent_level, self.rank
        if below is None:
            # F/gamma_0 is one coset, every edge a loop: what the BFS over
            # trivial residue vectors builds, without its 2 * rank products;
            # it is kept on level 1, not tabled
            table = self._kept.get(None)
            if table is None:
                trivial = ModVector(1, (0,))
                table = self._kept[None] = FiniteQuotient(
                    rank, [trivial] * rank, [trivial], [[0] * rank],
                    [[0] * rank], [None], kind="modvec",
                    params={"modulus": 1, "dim": 1})
            return table
        return self._tabled(
            ("verbal", rank) + below.primes_prefix,
            lambda: build_quotient(rank, below._generator_cosets(),
                                   cap=self._coset_cap))

    def _generator_cosets(self):
        """The images a_1 .. a_r of F/gamma_d, as cosets of this level."""
        return [LayeredCoset(self, Word.generator(self.rank, g))
                for g in range(1, self.rank + 1)]

    @property
    def basis_words(self):
        quotient = self.parent_quotient
        return None if quotient is None else quotient.schreier_basis()

    def _order(self):
        """|F/gamma_d|, or None once it is an exponent tower; kept once read."""
        if self._quotient_order is _UNREAD:
            e = self.exponent
            self._quotient_order = (
                None if e is None or e > ORDER_EXPONENT_CAP
                else self.parent_order * self.prime**e)
        return self._quotient_order

    def _factors(self):
        """{prime: exponent} of |F/gamma_d|, kept once read: the level
        below's with q_d raised by ``exponent``.  It outlives
        :attr:`quotient_order` by one level, while the order below is
        represented; a level further raises :class:`CapExceeded`."""
        if self._factorization is None:
            factors = {}
            for lvl in self._chain():
                if lvl.exponent is None:
                    raise CapExceeded(
                        f"depth-{lvl.depth - 1} quotient order exponent",
                        _order_repr(lvl.parent_level.exponent),
                        ORDER_EXPONENT_CAP)
                factors[lvl.prime] = factors.get(lvl.prime, 0) + lvl.exponent
            self._factorization = factors
        return self._factorization

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

    def _require_materialized(self):
        if not self.materialized:
            raise NotMaterializedError(
                f"level {self.depth} has no coset data: |F/gamma_{self.depth - 1}| "
                f"= {_order_repr(self.parent_order)} exceeded the "
                "materialization cap"
            )

    def _require_fits(self):
        """Raise the materialization cap's text when the level has no coset data."""
        if not self.materialized:
            raise CapExceeded("verbal materialization",
                              _order_repr(self.parent_order), self._coset_cap)

    def _require_chain(self):
        """Raise the :class:`NotMaterializedError` of the lowest level of the
        chain without coset data, if any."""
        if not self.materialized:
            self.first_unmaterialized._require_materialized()

    def _walker(self):
        """F/gamma_{d-1} as the coset graph ``member`` and ``order_mod`` walk,
        for a level of rank >= 2 and depth >= 2 with coset data: the
        :class:`HomologyCover` of level d-1, whose rows are filled as walks
        reach them, held in BUILT_QUOTIENTS under ``("verbal cover", rank,
        q_1, .., q_{d-1})`` and charged |F/gamma_{d-1}| cosets there, so no
        BFS of F/gamma_{d-1} runs for them.
        """
        below = self.parent_level
        return self._tabled(("verbal cover", self.rank) + below.primes_prefix,
                            lambda: HomologyCover(below))

    def _sums_gcd(self, w):
        """The gcd of the exponent sums of w, 0 when they vanish, which a
        power reads off its record."""
        check_word(w, self.rank)
        return gcd(*w.exponent_sums())

    def _holds(self, w):
        """Whether w lies in gamma_d, at a level with coset data.

        Not unless q_1 .. q_d divides :meth:`_sums_gcd`, which decides it
        where F/gamma_d is abelian.  Else iff the walk of w through
        F/gamma_{d-1} (:meth:`_walker`) closes and crosses every edge a net
        multiple of q_d times.
        """
        inside = self._sums_gcd(w) % prod(self.primes_prefix) == 0
        if not inside or self.abelian:
            return inside
        counts = {}
        return self._walker().coset_of(w, counts) == 0 and not any(
            c % self.prime for c in counts.values())

    def _answering_level(self, g):
        """(level k <= d, q_{k+1} .. q_d, the answer or None) for a word w
        whose exponent sums have gcd g: the order of w in F/gamma_d is the
        product of that in F/gamma_k and q_{k+1} .. q_d, and its depth, the
        deepest i with w in gamma_i, is that in F/gamma_k.

        gamma_i maps into q_1 .. q_i Z^r under the exponent sums.  So when
        q_d does not divide g, w lies outside gamma_d, and its order there
        is q_d n for n its order in F/gamma_{d-1}: it is n or q_d n, and w^n
        lies outside gamma_d, as n divides q_1 .. q_{d-1}, which q_d divides
        fewer times than q_1 .. q_d.  This steps down to the first level
        whose prime divides g, for any primes, or to one where F/gamma_k is
        abelian: cyclic of order N = q_1 .. q_k, or (Z/q_1)^r.  There the
        answer is (order, depth) in F/gamma_d: the order is N / gcd(g, N)
        times q_{k+1} .. q_d, and the depth the largest i with q_1 .. q_i
        dividing g.
        """
        lvl, scale = self, 1
        while not lvl.abelian and g % lvl.prime:
            lvl, scale = lvl.parent_level, scale * lvl.prime
        if not lvl.abelian:
            return lvl, scale, None
        primes = lvl.primes_prefix
        depth = 0
        while depth < len(primes) and g % prod(primes[:depth + 1]) == 0:
            depth += 1
        n = prod(primes)
        return lvl, scale, (n // gcd(g, n) * scale, depth)

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

        Decided at the deepest level k <= d with coset data (:meth:`_holds`):
        a word outside gamma_k is outside gamma_d; a word inside it needs
        the next level, which has none and raises.
        """
        first = self.first_unmaterialized
        deepest = self if first is None else first.parent_level
        if not deepest._holds(w):
            return False
        if first is not None:
            first._require_materialized()
        return True

    def order_mod(self, w):
        """Order of the coset w*gamma_d in F/gamma_d.

        The gcd of the exponent sums of w picks a level k <= d
        (:meth:`_answering_level`), and the order is q_{k+1} .. q_d times
        that in F/gamma_k, in closed form where F/gamma_k is abelian.
        Otherwise the order j of w modulo gamma_{k-1} comes from walking w
        through F/gamma_{k-1} (:meth:`_walker`) until the walk closes.  Then
        w^j lies in gamma_{k-1}, whose factor modulo gamma_k is elementary
        abelian of exponent q_k, so the order in F/gamma_k is j*q_k when
        the crossings summed over the j passes are nonzero mod q_k, and j
        otherwise.
        """
        self._require_chain()
        lvl, scale, answer = self._answering_level(self._sums_gcd(w))
        if answer:
            return answer[0]
        return lvl._walk_order(w)[1] * scale

    def _walk_order(self, w):
        """(the cover key of w in F/gamma_{d-1}, the order of w in
        F/gamma_d), by the walk of :meth:`order_mod`."""
        counts = {}
        key, k = self._walker().image_and_order(w, counts)
        if any(x % self.prime for x in counts.values()):
            k *= self.prime
        return key, k

    def _tally_classes(self, sequences, sums, longest):
        """Answer a sample of words by exponent-sum class.

        Each word w is a tuple of its alphabet indices, and ``sums`` holds
        its exponent sums packed into one int as
        :func:`largequot.words.random_reduced_sample` draws words of at most
        ``longest`` letters: equal ints are equal sums.  Returns (a Counter
        of the words per (:meth:`order_mod`, the deepest i <= d with w in
        gamma_i), the answer of each class by its packed sums, None for an
        open class, and the answer of each distinct word of an open class).

        The gcd of a class's sums picks the level k that answers it
        (:meth:`_answering_level`, called once per distinct gcd), in closed
        form where F/gamma_k is abelian: such a class adds its count, and
        none of its words is read.  Each distinct word of an open class is
        walked once (:meth:`_walk_order`), and its depth read off the cover
        key its first pass reaches (:meth:`_depth_of`).  An empty sample
        asks nothing of the series.
        """
        if sequences:
            self._require_chain()
        tally, classes, opened, levels = Counter(), {}, {}, {}
        for packed, count in Counter(sums).items():
            g = packed_sums_gcd(packed, self.rank, longest)
            if g not in levels:
                levels[g] = self._answering_level(g)
            lvl, scale, answer = levels[g]
            classes[packed] = answer
            if answer:
                tally[answer] += count
            else:
                opened[packed] = lvl, scale
        walked = {}
        for (seq, packed), count in Counter(compress(
                zip(sequences, sums), map(opened.__contains__, sums))).items():
            lvl, scale = opened[packed]
            key, k = lvl._walk_order(indexed_word(self.rank, seq))
            answer = walked[seq] = (k * scale, lvl._depth_of(key, k))
            tally[answer] += count
        return tally, classes, walked

    def _depth_of(self, key, n):
        """The deepest i <= d with w in gamma_i, for a word w of order n in
        F/gamma_d whose walk reaches ``key`` of the cover of F/gamma_{d-1}
        (:meth:`_walker`), for d >= 2.

        When the key is 0, w lies in gamma_d iff n is 1.  Otherwise it is
        projected down the series: a key of F/gamma_{k-1} is
        x * |F/gamma_{k-2}| + v, with v the BFS index of its coset of
        gamma_{k-2} (see :meth:`LayeredCoset.packed_action`), whose key is
        read off that table, until v is 0.
        """
        if key == 0:
            return self.depth if n == 1 else self.depth - 1
        lvl = self.parent_level
        c = key % lvl.parent_order
        while c:
            c = lvl.parent_quotient.elements[c] % lvl.parent_level.parent_order
            lvl = lvl.parent_level
        return lvl.depth - 1


class HomologyCover(CosetGraph):
    """F/gamma_d, for a level d of rank >= 2, walked as the mod-q_d
    homology cover of the coset graph of F/gamma_{d-1}, with its rows filled
    on demand.

    A vertex is a key of :meth:`LayeredCoset.packed_action`, 0 for the
    identity.  The row of a key, its 2r neighbours in the edge order a_1,
    a_1^-1, a_2, .., is expanded on the first step from it, so a walk pays
    only for the vertices it reaches, and no BFS numbering is formed.  A
    crossing of the edge from key c along a_g counts at the slot
    c * rank + g - 1.  Since H_1 of a graph is its cycle space, a closed
    walk lies in gamma_{d+1} iff every slot's count vanishes mod q_{d+1}.
    ``order`` is |F/gamma_d|, what the table of built quotients charges it.
    """

    def __init__(self, level):
        self.rank = level.rank
        self.order = level.quotient_order
        images = level._generator_cosets()
        _, self._expand = LayeredCoset.packed_action(
            images, [u.inverse() for u in images])
        # every key x * |F/gamma_{d-1}| + v lies below |F/gamma_d|
        self._rows = [None] * self.order

    def _walk(self, c, letters, counts=None):
        rows, expand, rank = self._rows, self._expand, self.rank
        if counts is None:
            counts = {}
        get = counts.get
        for gen, exp in letters:
            row = rows[c]
            if row is None:
                row = rows[c] = expand(c)
            if exp == 1:
                slot = c * rank + gen - 1
                c = row[2 * gen - 2]
            else:
                c = row[2 * gen - 1]
                slot = c * rank + gen - 1
            counts[slot] = get(slot, 0) + exp
        return c


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
        # checked here with the verbal kind's own texts, before build_series
        depth = check_int(params["depth"],
                          "verbal depth must be a positive integer", 1)
        rank = check_int(params["rank"],
                         "verbal rank must be a positive integer", 1)
        primes = params["primes"]
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
        :meth:`VerbalLevel._depth_of` reads it off the :class:`HomologyCover`
        keys that the walks of the graded sampler reach.  An image word u
        acts on (v, x) by walking from v: the walk's end replaces v and its
        crossings, summed mod q_d, add into the digits of x.  Both
        are tabulated once per base coset and image, so any image words work,
        not only the generators.  Raises ``ValueError`` unless every image is a
        :class:`LayeredCoset` of one series, one per generator of the series'
        free group, and the :class:`NotMaterializedError` of
        :meth:`VerbalLevel._require_chain` when the series has no table for
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
        level._require_chain()
        base, q = level.parent_quotient, level.prime
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


def _depth_checked(primes, rank, depth):
    """The primes as a PrimeSeq, with the rank and the depth checked."""
    primes = _as_primeseq(primes)
    check_int(rank, LEVEL_RANK_TEXT, 1)
    check_int(depth, "depth must be a nonnegative integer", 0)
    if depth > len(primes):
        raise ValueError(
            f"prime sequence has {len(primes)} terms, cannot build depth {depth}"
        )
    return primes


def _iter_levels(primes, rank, coset_cap, after=None):
    """The stream of levels after ``after``, a level of this series, or of
    levels 1, 2, .. when it is None, its arguments checked as it is made.

    The levels it makes hold ``coset_cap``; ``after`` and the levels below
    it keep the cap they were made with.  No coset graph is built: each
    level comes from :func:`_level` over the one before it, whose order is
    computed if nothing read it before, and F/gamma_{d-1}'s table is built
    only when its ``parent_quotient`` is read.
    """
    primes = _as_primeseq(primes)
    check_int(rank, LEVEL_RANK_TEXT, 1)
    check_int(coset_cap, "coset_cap must be a positive integer", 1)
    return _levels(primes, rank, coset_cap, after)


def _levels(primes, rank, coset_cap, level):
    if level is None and rank > ORDER_EXPONENT_CAP:
        # |F/gamma_1| = q_1^rank is already an exponent tower: refuse
        # before any level's F/gamma_0 allocates tables of rank entries
        raise CapExceeded("depth-1 quotient order", "an exponent tower",
                          ORDER_EXPONENT_CAP)
    for q in primes.primes[0 if level is None else level.depth:]:
        level = _level(level, q, coset_cap, rank)
        yield level


@functools.lru_cache(maxsize=256)
def _level(below, prime, coset_cap, rank):
    """The level over ``below`` (None for level 1), made once while this
    cache keeps it: every level of the package comes from here, so a
    request reuses the orders, factorizations and table reads of the levels
    an earlier one made.  The bound is on the levels kept, not on what they
    hold: a level keeps the levels below it, its order, which past the cap
    can run to hundreds of thousands of digits, and a table too large for
    BUILT_QUOTIENTS.  Its arguments are checked by the caller."""
    return VerbalLevel(below, prime, coset_cap, rank)


def build_series(primes, rank, depth, coset_cap=DEFAULT_COSET_CAP):
    """Materialize levels 1..depth of the series over the given primes.

    Returns the list of :class:`VerbalLevel`; depth 0 gives an empty list.
    Levels stay usable for order/size queries past the materialization cap,
    but membership needs |F/gamma_{d-1}| <= coset_cap.
    """
    primes = _depth_checked(primes, rank, depth)
    return list(islice(_iter_levels(primes, rank, coset_cap), depth))


def quotient_order_factors(primes, rank, depth):
    """{prime: exponent} factorization of |F/gamma_depth|, a copy of the
    :meth:`VerbalLevel._factors` of levels made in a loop of its own, so it
    answers for a rank whose levels :func:`build_series` refuses to make:
    they build no table."""
    primes = _depth_checked(primes, rank, depth)
    level = None
    for q in primes.primes[:depth]:
        level = _level(level, q, DEFAULT_COSET_CAP, rank)
    return {} if level is None else dict(level._factors())


def _escape_level(primes, rank, start, inside, exhausted, depth_cap, coset_cap,
                  after=None):
    """The first level past depth ``start`` that ``inside`` rejects.

    Levels start+1 .. min(depth_cap, len(primes)) are tested in order; none
    is made when there is none to test.  They come from a new stream of
    :func:`_iter_levels` past ``after``, a level of the series at depth at
    most ``start``, or from level 1 when it is None, and are made with
    ``coset_cap``.  Running out of primes raises a ``ValueError`` whose text
    ends in ``exhausted``; running out of depth, or a level past
    ``coset_cap``, raises :class:`CapExceeded`.
    """
    check_int(depth_cap, "depth_cap must be a positive integer", 1)
    levels = _iter_levels(primes, rank, coset_cap, after)
    max_depth = min(depth_cap, len(primes))
    if start >= max_depth:
        if len(primes) < depth_cap:
            raise ValueError(f"prime sequence has {len(primes)} terms, too short "
                             f"to scan past depth {start}")
        raise CapExceeded("verbal depth", start + 1, depth_cap)
    for level in levels:
        if level.depth > start:
            level._require_fits()
            if not inside(level):
                return level
            if level.depth == max_depth:
                break
    if len(primes) < depth_cap:
        raise ValueError(
            f"prime sequence exhausted at depth {max_depth} {exhausted}")
    raise CapExceeded("verbal depth", max_depth, depth_cap)


def levi_bound(words, primes, depth_cap=DEFAULT_DEPTH_CAP,
               coset_cap=DEFAULT_COSET_CAP):
    """Least D <= depth_cap with no word of S in gamma_D.

    By the nesting gamma_{D+1} <= gamma_D this single D works for every
    deeper level as well.  Raises ``ValueError`` for anything but a Word,
    for an identity word (it lies in every level) and for words of mixed
    rank, and :class:`CapExceeded` when depth_cap is reached without
    success or a required level cannot be materialized.
    """
    primes = _as_primeseq(primes)
    words = list(words)
    if not words:
        raise ValueError("need at least one word")
    for w in words:
        check_word(w)
        if w.is_identity:
            raise ValueError("the identity word lies in every verbal level")
        if w.rank != words[0].rank:
            raise ValueError("words of mixed rank")
    level = _escape_level(
        primes, words[0].rank, 0,
        lambda level: any(level.member(w) for w in words),
        "before avoiding the set", depth_cap, coset_cap,
    )
    return level.depth


KINDS[LayeredCoset.kind] = LayeredCoset
