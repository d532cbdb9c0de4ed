"""Test oracles the package does not ship: the mod-q abelianization, a
quotient rebuilt from its serialized spec, the integer an order document
spells, the abelian invariants of a rewritten presentation, verbal cosets
multiplied as words and compared by their layered normal form, verbal
membership and orders by a walk through the BFS table of F/gamma_{d-1}, the
graded sampler's orders and depths by one loop over that table's steps, a
word's exponent sums packed as the draw packs them, and Magnus valuations
found by embedding a word at one truncation after another.

Each is a slower or independent route to what the package computes another
way, so the tests check the shipped path against it.  Subprocess tests
import this module too: the test environment puts ``tests/`` on
``PYTHONPATH`` beside the source tree.
"""

from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from largequot.quotients import (
    DEFAULT_ENUM_CAP,
    ModVector,
    _spec_images,
    build_quotient,
)
from largequot.series import embed


def mod_abelianization(rank, modulus, cap=DEFAULT_ENUM_CAP):
    """The mod-q abelianized quotient F_r -> (Z/q)^r."""
    images = [
        ModVector(modulus, [1 if i == g else 0 for i in range(rank)])
        for g in range(rank)
    ]
    return build_quotient(rank, images, cap=cap)


def quotient_from_spec(doc, cap=DEFAULT_ENUM_CAP):
    """The quotient a serialized witness spec describes, rebuilt by the BFS."""
    params, images = _spec_images(doc)
    return build_quotient(len(images), images, cap=cap, kind=doc["kind"],
                          params=params)


def parse_order(doc):
    """The integer an order document of
    :func:`largequot.periodic.format_factors` spells."""
    if "decimal" in doc:
        return doc["decimal"]
    if doc["factored"] == "1":
        return 1
    n = 1
    for part in doc["factored"].split("*"):
        base, _, exponent = part.strip().partition("^")
        n *= int(base) ** int(exponent or 1)
    return n


def exponent_matrix(presentation):
    """Relator-by-generator abelianized exponent matrix of a
    :class:`largequot.quotients.SubgroupPresentation`."""
    return [list(rel.exponent_sums()) for rel in presentation.relators]


def abelian_invariants(presentation):
    """Elementary divisors of the abelianized presentation, 0 = free factor.

    The nonzero invariant factors come first in their divisibility order,
    followed by one 0 per infinite cyclic factor.  They are read off sympy's
    Smith normal form.
    """
    s = smith_normal_form(Matrix(exponent_matrix(presentation)))
    nonzero = [abs(int(s[i, i])) for i in range(min(s.shape)) if s[i, i]]
    return ([d for d in nonzero if d > 1]
            + [0] * (presentation.generator_count - len(nonzero)))


class VerbalCoset:
    """A coset of gamma_d carried by a representative word, of no element
    kind: the BFS multiplies the words and hashes the layered normal form,
    a complete coset invariant, instead of walking the cover.
    """

    __slots__ = ("level", "word", "_nf")

    def __init__(self, level, word):
        self.level = level
        self.word = word
        self._nf = None

    @property
    def nf(self):
        if self._nf is None:
            self._nf = self.level.normal_form(self.word)
        return self._nf

    def _series(self):
        level = self.level
        return level.depth, level.primes_prefix, level.rank

    def __mul__(self, other):
        if self._series() != other._series():
            raise ValueError("cosets of different verbal quotients")
        return VerbalCoset(self.level, self.word * other.word)

    def inverse(self):
        return VerbalCoset(self.level, self.word.inverse())

    def __eq__(self, other):
        return (isinstance(other, VerbalCoset)
                and self._series() == other._series() and self.nf == other.nf)

    def __hash__(self):
        return hash(self._series() + (self.nf,))


def table_member(level, w):
    """:meth:`largequot.verbal.VerbalLevel.member` by one walk through the
    BFS table of F/gamma_{k-1}, at the deepest level k <= d with coset data:
    w lies in gamma_k iff the walk closes and every non-tree crossing count
    vanishes mod q_k.  Inside gamma_k, the level past it raises."""
    first = level.first_unmaterialized
    deepest = level if first is None else first.parent_level
    counts = {}
    if deepest.parent_quotient.coset_of(w, counts) != 0 or any(
        c % deepest.prime for c in counts.values()
    ):
        return False
    if first is not None:
        first._require_materialized()
    return True


def table_order_mod(level, w):
    """:meth:`largequot.verbal.VerbalLevel.order_mod` by walking w through
    the BFS table of F/gamma_{d-1} until it closes after k passes: k * q_d
    when the summed non-tree crossings are nonzero mod q_d, else k."""
    level._require_chain()
    quotient, counts = level.parent_quotient, {}
    k = quotient.image_order(w, counts)
    if any(x % level.prime for x in counts.values()):
        return k * level.prime
    return k


def step_table(quotient):
    """Flat table of single steps over alphabet indices of a BFS table.

    Slot ``c*2r + i`` is for the letter at index i of the alphabet
    a_1 < .. < a_r < a_1^-1 < .. < a_r^-1 (see
    :func:`largequot.words.random_reduced_indices`) read from coset c.  It
    holds the pair ``(c'*2r, x)``: the slot base of the coset c' the letter
    reaches, and x = pos + 1 when the step crosses the non-tree edge at
    position pos of ``schreier_generators()`` forward, -(pos + 1) when
    backward, 0 on the tree.  So a walk over indices steps
    ``c, x = table[c + i]`` from c = 0, as ``_walk`` steps the letters.
    """
    rank, width = quotient.rank, 2 * quotient.rank
    crossing = quotient.crossing_table()
    steps = []
    for c in range(quotient.order):
        for g, d in enumerate(quotient.mult[c]):
            at = crossing[c * rank + g]
            steps.append((d * width, 0 if at is None else at + 1))
        for g, d in enumerate(quotient.inv_mult[c]):
            at = crossing[d * rank + g]
            steps.append((d * width, 0 if at is None else -at - 1))
    return steps


def table_orders_and_depths(level, sequences):
    """The (order, depth) of each word that
    :meth:`largequot.verbal.VerbalLevel._tally_classes` answers by class,
    word by word in one loop over the :func:`step_table` of F/gamma_{d-1}'s
    BFS table, which walks the k passes of each word that close up,
    counting the signed crossings: the order is k * q_d when some count is
    nonzero mod q_d, else k.  The BFS index the first pass reaches is
    projected down the series for the depth: in F/gamma_{k-1} its key is
    x * |F/gamma_{k-2}| + v, with v its BFS index in F/gamma_{k-2}, until v
    is 0."""
    if not sequences:
        return []
    level._require_chain()
    steps = step_table(level.parent_quotient)
    width, q = 2 * level.rank, level.prime
    out = []
    for seq in sequences:
        counts = {}
        c = k = 0
        while True:
            for i in seq:
                c, x = steps[c + i]
                if x:
                    counts[x] = counts.get(x, 0) + 1
            k += 1
            if k == 1:
                first = c // width
            if not c:
                break
        # crossings are keyed +(pos + 1) forward, -(pos + 1) backward
        if any((m - counts.get(-x, 0)) % q for x, m in counts.items()):
            k *= q
        if first == 0:
            depth = level.depth if k == 1 else level.depth - 1
        else:
            lvl, c = level, first
            while c:
                below = lvl.parent_level
                c = lvl.parent_quotient.elements[c] % below.parent_order
                lvl = below
            depth = lvl.depth - 1
        out.append((k, depth))
    return out


def packed_sums(w, longest):
    """The exponent sums of w (:meth:`largequot.words.Word.exponent_sums`)
    packed into one int in the base 2 * longest + 1, as
    :func:`largequot.words._reduced_draws` packs those of a word it draws
    with at most ``longest`` letters."""
    base = 2 * longest + 1
    return sum(s * base**g for g, s in enumerate(w.exponent_sums()))


def magnus_valuation(w, p, limit, start=2):
    """:func:`largequot.series.magnus_valuation` by embedding: w's image at
    truncations start, start + 1, .. up to ``limit`` until it is not 1."""
    for L in range(start, limit + 1):
        image = embed(w, L, p)
        if not image.is_one:
            return L - 1, image
    return limit, None
