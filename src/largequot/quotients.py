"""Finite quotients of a free group, given by images of the generators.

A quotient is materialized by breadth-first closure of the generator images
inside a concrete finite group.  Element numbering is deterministic: the
identity is 0, BFS processes vertices in discovery order and edges in the
order a_1, a_1^-1, a_2, a_2^-1, .., a_r, a_r^-1, so the Schreier tree and
the prefix-closed transversal are unique: each transversal word is the
shortlex-least word reaching its coset over the alphabet order
a_1 < a_1^-1 < a_2 < a_2^-1 < ...  An element kind is its own class,
listed in :data:`KINDS` under its ``kind`` name: residue vectors
(:class:`ModVector`), truncated-series units
(:class:`largequot.series.TruncSeries`) and verbal cosets
(:class:`largequot.verbal.LayeredCoset`).  Each reads and writes its own
serialization (``params()``, ``payload()`` and ``from_payload``), so
quotients can travel inside certificate documents.  A kind may define a
packed action, which lets the BFS run on int keys with one expansion per
vertex: magnus units over a modulus (see :mod:`largequot.series`) and
verbal cosets, whose keys are the vertices of a mod-q homology cover (see
:mod:`largequot.verbal`).  Other elements need multiplication,
``inverse()``, equality and hashing; verbal cosets have none but
``inverse()``, and the cover is their only build.
:func:`build_quotient` holds the one BFS loop every quotient goes through.

Every coset question is answered by one walk, :meth:`CosetGraph.walk`,
shared by the BFS tables and by the verbal homology covers whose rows are
filled as walks reach them (see :mod:`largequot.verbal`).
A power t * u^n * t^-1 built by :func:`largequot.words.power` is walked by
the period of u: walking a word permutes the cosets, so passes of u return
to the coset where they started after at most the order of u's image, and
only n mod that period further passes are needed.  The result is the coset
the letter-by-letter walk reaches, without stepping n * |u| letters.  On a
BFS table the walk can also sum its signed non-tree crossings, the exponent
sums of a kernel word over the Schreier generators.
The Schreier generators are the non-tree edges (Sims, *Computation with
Finitely Presented Groups*, 1994, ch. 2), numbered in one pass over the tree.

On top of the coset graph this module counts the cosets of <g>N that the
largeness certificates need (:func:`coset_representatives`), and keeps the
two presentation-level tools those counts stand for, as library API:
conjugate sets that convert a normal closure over F into a normal closure
over a finite-index subgroup, and Reidemeister-Schreier rewriting onto the
Schreier generators.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .errors import CapExceeded, check_int
from .words import Word

DEFAULT_ENUM_CAP = 10**6
TABLE_COSETS = 10**5  # the most cosets BUILT_QUOTIENTS holds in all


class ModVector:
    """A residue vector, the element type of mod-q abelianized quotients."""

    __slots__ = ("modulus", "values")
    kind = "modvec"

    def __init__(self, modulus, values):
        self.modulus = check_int(modulus, "modulus must be a positive integer", 1)
        self.values = tuple(
            check_int(v, "residue vector entries must be integers") % modulus
            for v in values)

    @classmethod
    def _reduced(cls, modulus, values):
        """Residues of int values mod a checked modulus, unchecked: only for
        the products and inverses of checked vectors."""
        vector = object.__new__(cls)
        vector.modulus = modulus
        vector.values = tuple(v % modulus for v in values)
        return vector

    def __mul__(self, other):
        if not isinstance(other, ModVector):
            return NotImplemented
        if self.modulus != other.modulus or len(self.values) != len(other.values):
            raise ValueError("residue vector shape mismatch")
        return ModVector._reduced(
            self.modulus, [a + b for a, b in zip(self.values, other.values)]
        )

    def inverse(self):
        return ModVector._reduced(self.modulus, [-v for v in self.values])

    def __eq__(self, other):
        if not isinstance(other, ModVector):
            return NotImplemented
        return self.modulus == other.modulus and self.values == other.values

    def __hash__(self):
        return hash((self.modulus, self.values))

    def __repr__(self):
        return f"ModVector({self.modulus}, {self.values})"

    def params(self):
        return {"modulus": self.modulus, "dim": len(self.values)}

    def payload(self):
        return list(self.values)

    @classmethod
    def from_payload(cls, params, payload):
        # the types are checked before the payload; the constructor refuses
        # a modulus below 1
        modulus = check_int(params["modulus"], "modulus must be a positive integer")
        dim = check_int(params["dim"],
                        "residue vector dimension must be an integer")
        if (type(payload) is not list or len(payload) != dim
                or any(type(v) is not int for v in payload)):
            raise ValueError(f"a residue vector is given as a list of {dim} "
                             f"integers, got {payload!r}")
        return cls(modulus, payload)


# Each element kind's class by its ``kind``; the other modules add theirs.
# :func:`build_quotient` calls a kind's ``packed_action(images, inverses)``,
# where it has one, for ``(identity, expand)`` or None: ``identity`` is a
# hashable key for the identity, and ``expand`` maps the key of x to the
# 2r keys of x * image(edge) in the edge order a_1, a_1^-1, a_2, ...  Keys
# are equal exactly when their elements are, so the BFS numbering does not
# depend on the path taken.  None leaves the BFS to multiply the elements.
# Likewise :mod:`largequot.largeness` calls a kind's classmethod ``counts(images,
# cap, serialize)``, where it has one, for a witness's closed-form counts (with
# ``order``, ``gens``, ``image_order``, ``cosets``, ``serialize``) or None.
KINDS = {ModVector.kind: ModVector}


def element_kind(name):
    if name not in KINDS:
        raise ValueError(f"unregistered element kind {name!r}")
    return KINDS[name]


def _spec_images(doc):
    """The params and generator images of a serialized witness, parsed once."""
    kind, params = element_kind(doc["kind"]), doc["params"]
    return params, [kind.from_payload(params, payload)
                    for payload in doc["gen_images"]]


# -- walking a coset graph ---------------------------------------------------


def check_word(w, rank=None):
    """Refuse anything but a Word, and one of another rank when a rank is
    given."""
    if not isinstance(w, Word):
        raise ValueError(f"expected a Word, got {w!r}")
    if rank is not None and w.rank != rank:
        raise ValueError(f"rank mismatch: word has {w.rank}, quotient has {rank}")


class CosetGraph:
    """A coset graph of F_r, walked from its identity vertex 0.

    A subclass gives ``rank`` and ``_walk(c, letters, counts)``, the vertex
    reached by stepping the letters from vertex c, which with a dict
    ``counts`` also adds +1 or -1 per crossing of an edge under the edge's
    own key: the position of a non-tree edge in
    :meth:`FiniteQuotient.schreier_generators`, or the edge slot of a verbal
    homology cover (see :mod:`largequot.verbal`).  Everything else, the
    period walk of powers included, is shared.
    """

    def walk(self, c, w, counts=None):
        """The vertex reached by walking the word w from vertex c.

        A power t * u^n * t^-1 built by :func:`largequot.words.power` is
        walked by the period of its core u: walk t, then passes of u until
        the walk is back where the first pass started after P passes (at
        most the order of u's image, since walking a word permutes the
        cosets), then n mod P further passes, then t^-1; the crossings of
        the P passes are counted once and added n // P times.  This lands
        where the letter-by-letter walk does, with the same counts, in time
        bounded by the quotient and not by n.  Any other word is walked
        letter by letter.
        """
        record = w.power_record
        if record is None:
            return self._walk(c, w.letters, counts)
        t, core, n = record
        start = c = self._walk(c, t, counts)
        period = None if counts is None else {}
        passes = 0
        while passes < n:
            c = self._walk(c, core, period)
            passes += 1
            if c == start:
                break
        laps, rest = divmod(n, passes)
        if counts is not None:
            for at, k in period.items():
                counts[at] = counts.get(at, 0) + laps * k
        for _ in range(rest):
            c = self._walk(c, core, counts)
        return self._walk(c, [(g, -e) for g, e in reversed(t)], counts)

    def coset_of(self, w, counts=None):
        """The vertex of the image of w (the coset of the kernel containing w).

        A dict ``counts`` gets the walk's crossings, as in :meth:`walk`."""
        check_word(w, self.rank)
        return self.walk(0, w, counts)

    def kernel_contains(self, w):
        return self.coset_of(w) == 0

    def image_order(self, w, counts=None):
        """Order k of the image of w in the quotient group.

        A dict ``counts`` gets the crossings of the closed walk of w^k."""
        return self.image_and_order(w, counts)[1]

    def image_and_order(self, w, counts=None):
        """(:meth:`coset_of`, :meth:`image_order`) of w, in one walk."""
        image = c = self.coset_of(w, counts)
        k = 1
        while c != 0:
            c = self.walk(c, w, counts)
            k += 1
        return image, k


# -- the quotient itself -----------------------------------------------------


class FiniteQuotient(CosetGraph):
    """A finite quotient F_r -> Q with its coset graph and Schreier tree.

    Built through :func:`build_quotient`; the fields are read-only in
    practice.  ``elements[i]`` is the element with BFS index i: the
    concrete element, or its packed int key where one stands in for it
    (magnus units over a modulus, see :mod:`largequot.series`, and verbal
    cosets, see :mod:`largequot.verbal`).
    ``mult[i][g-1]`` / ``inv_mult[i][g-1]`` are the indices of
    elements[i] * image(a_g^{+-1}), and ``tree_parent[i]`` is
    ``(parent_index, (g, exp))`` for the tree edge that discovered i.
    Its vertices are the BFS indices.
    """

    def __init__(self, rank, gen_images, elements, mult, inv_mult, tree_parent,
                 kind=None, params=None):
        self.rank = rank
        self.gen_images = tuple(gen_images)
        self.elements = elements
        self.mult = mult
        self.inv_mult = inv_mult
        self.tree_parent = tree_parent
        self.kind = kind
        self.params = dict(params) if params else None
        self._transversal = None
        self._nontree = None
        self._crossing = None
        self._payload = None

    @property
    def order(self):
        return len(self.elements)

    def _walk(self, c, letters, counts=None):
        """The coset reached by walking the letters from coset c.

        With a dict ``counts``, each non-tree edge crossed adds +1 (forward)
        or -1 (backward) at its position in :meth:`schreier_generators`;
        tree edges add nothing.
        """
        mult, inv_mult = self.mult, self.inv_mult
        if counts is None:
            for gen, exp in letters:
                c = mult[c][gen - 1] if exp == 1 else inv_mult[c][gen - 1]
            return c
        rank, table = self.rank, self.crossing_table()
        for gen, exp in letters:
            if exp == 1:
                at = table[c * rank + gen - 1]
                c = mult[c][gen - 1]
            else:
                c = inv_mult[c][gen - 1]
                at = table[c * rank + gen - 1]
            if at is not None:
                counts[at] = counts.get(at, 0) + exp
        return c

    # -- Schreier tree and transversal -----------------------------------

    def transversal_word(self, index):
        """Shortlex-minimal word carrying coset 0 to the given coset."""
        cache = self._transversal
        if cache is None:
            cache = self._transversal = [None] * self.order
            cache[0] = Word.identity(self.rank)
        if cache[index] is None:
            # only the requested word is cached: caching every ancestor on
            # the way would cost memory quadratic in the tree depth
            letters = []
            c = index
            while cache[c] is None:
                c, letter = self.tree_parent[c]
                letters.append(letter)
            letters.reverse()
            cache[index] = cache[c] * Word(self.rank, letters)
        return cache[index]

    def schreier_generators(self):
        """Non-tree edges (coset, gen), sorted by coset index then generator."""
        self.crossing_table()  # which keeps the labels
        return self._nontree

    def crossing_table(self):
        """Flat non-tree edge table, built once per quotient.

        Entry ``c*rank + g-1`` is the position in :meth:`schreier_generators`
        of the edge (c, g) from coset c to c*a_g, or None on the tree.  A
        tree edge takes the parent's slot when forward, the child's when
        backward; the other slots are numbered in order, and their labels
        kept as :meth:`schreier_generators`.
        """
        if self._crossing is None:
            rank = self.rank
            table = [0] * (self.order * rank)
            for child in range(1, self.order):
                parent, (gen, exp) = self.tree_parent[child]
                table[(parent if exp == 1 else child) * rank + gen - 1] = None
            labels = []
            for slot, mark in enumerate(table):
                if mark is not None:
                    table[slot] = len(labels)
                    labels.append((slot // rank, slot % rank + 1))
            self._crossing, self._nontree = table, tuple(labels)
        return self._crossing

    def schreier_generator_word(self, label):
        """The subgroup element t_c * a_g * t_{c.g}^-1 of a non-tree edge."""
        c, g = label
        target = self.mult[c][g - 1]
        return (
            self.transversal_word(c)
            * Word.generator(self.rank, g)
            * self.transversal_word(target).inverse()
        )

    # -- serialization ----------------------------------------------------

    def serialize(self):
        """The spec; payloads are formed once, and each result gets copies
        of the params and payloads, lists included."""
        if self.kind is None:
            raise ValueError("quotient has no registered element kind to serialize")
        if self._payload is None:
            kind = element_kind(self.kind)
            self._payload = tuple(kind.payload(img) for img in self.gen_images)
        return {
            "kind": self.kind,
            "params": {key: copy.copy(value) for key, value in self.params.items()},
            "gen_images": [copy.copy(payload) for payload in self._payload],
        }


def build_quotient(rank, gen_images, cap=DEFAULT_ENUM_CAP, kind=None, params=None):
    """BFS closure of the generator images into a FiniteQuotient.

    ``gen_images`` must be r elements of one concrete group.  The element
    protocol is duck-typed: ``*``, ``inverse()``, ``==`` and ``hash``.  When
    the images' kind has a packed action that takes them, the BFS runs over
    its keys instead, and ``elements`` holds those keys.  ``kind`` and
    ``params`` default to those of the first image's class.
    Raises :class:`CapExceeded` when the closure passes ``cap`` elements.
    """
    gen_images = list(gen_images)
    if len(gen_images) != rank:
        raise ValueError(f"expected {rank} generator images, got {len(gen_images)}")
    if not gen_images:
        raise ValueError("rank must be at least 1")
    first = type(gen_images[0])
    if kind is None and params is None and hasattr(first, "kind"):
        kind, params = first.kind, gen_images[0].params()
    inverses = [img.inverse() for img in gen_images]
    packed = None
    if hasattr(first, "packed_action"):
        packed = first.packed_action(gen_images, inverses)
    if packed is not None:
        identity, expand = packed
    else:
        other = next((img for img in gen_images if type(img) is not first), None)
        if other is not None:
            raise ValueError(f"generator images of different types: {first.__name__} "
                             f"and {type(other).__name__}")
        identity = gen_images[0] * inverses[0]
        images = [img for pair in zip(gen_images, inverses) for img in pair]

        def expand(x):
            return [x * img for img in images]
    edges = [(g, exp) for g in range(1, rank + 1) for exp in (1, -1)]
    elements = [identity]
    index = {identity: 0}
    mult = []
    inv_mult = []
    tree_parent = [None]
    head = 0
    while head < len(elements):
        targets = []
        e = 0
        for y in expand(elements[head]):
            at = index.get(y)
            if at is None:
                at = len(elements)
                if at >= cap:
                    raise CapExceeded("quotient enumeration", at + 1, cap)
                elements.append(y)
                index[y] = at
                tree_parent.append((head, edges[e]))
            targets.append(at)
            e += 1
        mult.append(targets[0::2])
        inv_mult.append(targets[1::2])
        head += 1
    return FiniteQuotient(
        rank, gen_images, elements, mult, inv_mult, tree_parent,
        kind=kind, params=params,
    )


class QuotientTable:
    """The quotients built in this process, keyed by a tuple naming the kind first:
    ``("verbal", rank, q_1, .., q_d)`` for F/gamma_d, ``("verbal cover", rank,
    q_1, .., q_d)`` for its homology cover walked on demand (see
    :class:`largequot.verbal.HomologyCover`), ``("magnus_unit", p, r, l)`` for
    the unit witness.  Each is a pure function of its key, so it is made
    once while the table keeps it, and counts ``order`` cosets against the
    budget.  It holds at most ``cosets`` cosets in all,
    evicts the least recently used quotient first, and never stores one larger
    than that.  It checks no cap: callers ask it only where their own cap admits
    the build, so a smaller cap after a larger one refuses with the same text.  A
    verbal quotient's images keep the levels below it alive, with fewer cosets in
    all, so under twice ``held`` stays alive.  Not locked: one thread.
    """

    def __init__(self, cosets):
        self.cosets = cosets
        self.quotients = {}
        self.held = 0

    def get(self, key, build):
        """The quotient under ``key``, made by ``build()`` when not held."""
        quotient = self.quotients.pop(key, None)
        if quotient is None:
            quotient = build()
            if quotient.order > self.cosets:
                return quotient
            self.held += quotient.order
            while self.held > self.cosets:
                self.held -= self.quotients.pop(next(iter(self.quotients))).order
        self.quotients[key] = quotient
        return quotient

    def clear(self):
        self.quotients.clear()
        self.held = 0


BUILT_QUOTIENTS = QuotientTable(TABLE_COSETS)


# -- conjugate sets (normal closure over F as closure over the kernel) -------


def coset_representatives(quotient, base):
    """BFS indices of the least element of each right coset <base>N x.

    N is the kernel, so there are [F:N] / order(base) such cosets; the
    indices come out increasing.  The coset <g>N x is the orbit of x under
    left multiplication by the image of g, read off the Schreier tree: if
    x = y * a then g x = (g y) * a, one table step from g y.  No word is
    built, and none is walked but g.
    """
    # left[x] is the BFS index of g x, filled in tree order
    left = [quotient.coset_of(base)]
    for x in range(1, quotient.order):
        y, (gen, exp) = quotient.tree_parent[x]
        table = quotient.mult if exp == 1 else quotient.inv_mult
        left.append(table[left[y]][gen - 1])
    reps = []
    seen = [False] * quotient.order
    for idx in range(quotient.order):
        if seen[idx]:
            continue
        reps.append(idx)
        c = idx
        while not seen[c]:
            seen[c] = True
            c = left[c]
    return reps


def lemma0_conjugates(quotient, base, q):
    """Coset representatives T of <base>*ker and the conjugate set Z.

    For g = base with g^q in the kernel N, the normal closure of g^q over
    the whole free group equals the normal closure over N of
    Z = { t^-1 g^q t : t in T }, where T is a right-coset transversal of
    <g>N in F.  T is read off the Schreier transversal at the indices of
    :func:`coset_representatives`, so the representatives are
    shortlex-minimal and the output is deterministic.  Returns ``(T, Z)``
    as lists of words.
    """
    order = quotient.image_order(base)
    if q % order:
        raise ValueError(
            f"base^{q} is not in the kernel (image order {order} does not divide {q})"
        )
    t_words = [quotient.transversal_word(i)
               for i in coset_representatives(quotient, base)]
    gq = base ** q
    z_words = [t.inverse() * gq * t for t in t_words]
    return t_words, z_words


# -- Reidemeister-Schreier rewriting -----------------------------------------


@dataclass
class SubgroupPresentation:
    """Presentation of N/<<relators>>^N on the Schreier generators of N.

    ``relators`` are words of rank ``generator_count`` over the Schreier
    generators, in the order of ``generator_labels``; the generator of a
    label, written in the ambient free group, is
    ``source_quotient.schreier_generator_word(label)``.
    """

    generator_count: int
    generator_labels: tuple
    relators: tuple
    source_quotient: FiniteQuotient = field(repr=False, default=None)


def reidemeister_schreier(quotient, relators):
    """Rewrite relators of F lying in N onto the Schreier generators of N.

    Every relator must lie in the kernel; its trace through the coset graph
    then closes up and spells a word in the non-tree Schreier generators
    (tree edges contribute nothing).  The presentation has
    1 + (r-1)*[F:N] generators and one rewritten relator per input word.
    """
    labels = quotient.schreier_generators()
    rewritten = []
    for w in relators:
        check_word(w, quotient.rank)
        # the crossings in walk order spell w over the Schreier generators
        c, out = 0, []
        for letter in w.letters:
            crossed = {}
            c = quotient._walk(c, (letter,), crossed)
            out.extend((at + 1, exp) for at, exp in crossed.items())
        if c != 0:
            raise ValueError(f"relator {w} is not in the kernel")
        rewritten.append(Word(len(labels) or 1, out) if labels else Word(1, ()))
    return SubgroupPresentation(
        generator_count=len(labels),
        generator_labels=tuple(labels),
        relators=tuple(rewritten),
        source_quotient=quotient,
    )
