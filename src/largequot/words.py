"""Freely reduced words over a free group of finite rank.

A word is a tuple of letters, each letter a pair ``(generator, exponent)``
with ``generator`` in ``1..rank`` and ``exponent`` +1 or -1.  Every ``Word``
holds freely reduced letters, so letter tuples are canonical: two ``Word``
objects represent the same group element iff they compare equal, and hashing
is structural.  Words are treated as immutable; nothing in the package
mutates ``letters`` after construction.

The public constructor ``Word(rank, letters)`` (and :func:`parse_word` on top
of it) takes letters from outside the package, so it validates every letter
and freely reduces.  Products, inverses and powers are reduced by
construction: ``*`` cancels only at the seam between its two reduced
operands, an inverse of a reduced word is reduced, and ``t * c^n * t^-1``
with ``c`` cyclically reduced is reduced as written.  These
build their result through ``Word._reduced``, which neither checks nor
reduces, so each word is built once in time linear in its length.  So do
:func:`shortlex_words` and :func:`random_reduced_word`, which extend words
by index over one letter tuple per rank (``_alphabet``).  One kernel,
``_reduced_draws``, draws every random reduced word, refuses a bad
rank, length, count or ``max_length`` before its first draw, and packs each
drawn word's exponent sums into one int for a caller that asks.

A word built by :func:`power` is symbolic: it holds its record
``power_record = (t, c, n)``, the letters of t and of c and the count n >= 1
with the word equal to t * c^n * t^-1, and spells out its letters only on
the first read of ``letters``.  Its length comes from the record, and a
power of a power composes records, (t, c, a) to (t, c, a*n), so g^(ab)
stays as short as g^a.  Walks through a finite coset graph step c^n by the
period of c's image and read no letter (see
:meth:`largequot.quotients.FiniteQuotient.walk`), and so does
:func:`largequot.series.embed`.  Every other word has ``power_record =
None`` and keeps its letters in a slot.  Equality and hashing are those of
the letters: ``==`` compares ranks and lengths, then equal records, and
only then letters.

Two textual forms are supported:

* letter form, for rank <= 26: generators 1..26 print as ``a``..``z`` and
  inverses as ``A``..``Z``, concatenated (``abA`` is a * b * a^-1); the
  identity prints as ``1``;
* indexed form, for any rank: ``g3`` and ``g3^-1``, joined by ``*``.

Parsing accepts an optional ``^k`` exponent after any letter in either form
(``a^6``, ``g2^-3``).  ``parse_word(str(w), w.rank) == w`` holds exactly.
"""

from __future__ import annotations

import functools
import re
from math import gcd

from .errors import check_int

RANK_TEXT = "rank must be a positive integer"


def _reduce_letters(letters):
    """Freely reduce a letter sequence with a cancellation stack."""
    out = []
    for gen, exp in letters:
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def _inverse_letters(letters):
    return tuple([(g, -e) for g, e in reversed(letters)])


def _cyclic_split(letters):
    """Reduced letters as (t, c) with letters == t + c + t^-1, c cyclically
    reduced: t is the longest prefix cancelled by the matching suffix."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i][0] == letters[j - 1][0] \
            and letters[i][1] == -letters[j - 1][1]:
        i += 1
        j -= 1
    return letters[:i], letters[i:j]


class Word:
    """A freely reduced word in the free group of the given rank."""

    __slots__ = ("rank", "letters", "power_record")

    def __init__(self, rank, letters=()):
        check_int(rank, RANK_TEXT, 1)
        letters = tuple(letters)
        for letter in letters:
            gen, exp = letter
            # check_int only on refusal: parse_word builds every word here
            if type(gen) is not int or not 1 <= gen <= rank:
                check_int(gen, "generator index must be an integer")
                raise ValueError(
                    f"generator index {gen} out of range for rank {rank}"
                )
            if type(exp) is not int or exp not in (1, -1):
                raise ValueError(f"letter exponent must be +1 or -1, got {exp!r}")
        self.rank = rank
        self.letters = _reduce_letters(letters)
        self.power_record = None

    @classmethod
    def _reduced(cls, rank, letters):
        """Wrap a letter tuple that is already freely reduced and in range.

        No validation and no reduction: only for letters built by this
        module's own operations from reduced words of the same rank.
        """
        word = object.__new__(cls)
        word.rank = rank
        word.letters = letters
        word.power_record = None
        return word

    @classmethod
    def identity(cls, rank):
        return cls(rank)

    @classmethod
    def generator(cls, rank, index):
        return cls(rank, ((index, 1),))

    def __len__(self):
        return len(self.letters)

    @property
    def is_identity(self):
        return not self.letters

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if self.rank != other.rank:
            return False
        record = self.power_record
        if record is None and other.power_record is None:
            # tuple equality compares the lengths first
            return self.letters == other.letters
        # __len__() and not len(), which refuses lengths past sys.maxsize;
        # equal records spell equal letters, and unequal ones may too
        return self.__len__() == other.__len__() and (
            record == other.power_record or self.letters == other.letters)

    def __hash__(self):
        return hash((self.rank, self.letters))

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        a, b = self.letters, other.letters
        i, k, n = len(a), 0, len(b)
        while i and k < n and a[i - 1][0] == b[k][0] and a[i - 1][1] == -b[k][1]:
            i -= 1
            k += 1
        return Word._reduced(self.rank, a[:i] + b[k:])

    def inverse(self):
        return Word._reduced(self.rank, _inverse_letters(self.letters))

    def __pow__(self, n):
        return power(self, n)

    def exponent_sums(self):
        """Abelianized exponent vector, one integer per generator.

        A power t * c^n * t^-1 sums n times the letters of c, read off its
        record, so its letters are never spelled out."""
        record = self.power_record
        letters, n = (self.letters, 1) if record is None else record[1:]
        sums = [0] * self.rank
        for gen, exp in letters:
            sums[gen - 1] += exp
        return tuple(sums if n == 1 else [n * s for s in sums])

    def __str__(self):
        if self.rank <= 26:
            return self.letter_str()
        return self.indexed_str()

    def __repr__(self):
        return f"Word({self.rank}, {str(self)!r})"

    def letter_str(self):
        if self.rank > 26:
            raise ValueError("letter form only covers ranks up to 26")
        if not self.letters:
            return "1"
        chars = []
        for gen, exp in self.letters:
            base = ord("a") if exp == 1 else ord("A")
            chars.append(chr(base + gen - 1))
        return "".join(chars)

    def indexed_str(self):
        if not self.letters:
            return "1"
        runs = []
        for gen, exp in self.letters:
            if runs and runs[-1][0] == gen and (runs[-1][1] > 0) == (exp > 0):
                runs[-1][1] += exp
            else:
                runs.append([gen, exp])
        parts = []
        for gen, exp in runs:
            parts.append(f"g{gen}" if exp == 1 else f"g{gen}^{exp}")
        return "*".join(parts)


class _Power(Word):
    """t * c^n * t^-1 held as its record; the letters are spelled out on
    their first read and kept.  Only :func:`power` builds one."""

    __slots__ = ("_letters",)

    def __init__(self, rank, record):
        self.rank = rank
        self.power_record = record
        self._letters = None

    @property
    def letters(self):
        if self._letters is None:
            t, core, n = self.power_record
            # reduced as written, since c is cyclically reduced
            self._letters = t + core * n + _inverse_letters(t)
        return self._letters

    def __len__(self):
        t, core, n = self.power_record
        return 2 * len(t) + n * len(core)

    @property
    def is_identity(self):
        return False


def power(g, n):
    """g**n for any integer n, as a symbolic word built in time O(|g|).

    With base = t * c * t^-1 and c cyclically reduced, base^|n| is
    t * c^|n| * t^-1, freely reduced as written; base is g for n > 0 and
    g^-1 for n < 0.  The result's ``power_record`` is
    ``(t.letters, c.letters, |n|)``, so a coset walk can take c^|n| by the
    period of c, and its letters are spelled out only when read.  A power
    of a power composes records: g = t * c^a * t^-1 gives ``(t, c, a|n|)``,
    with c inverted for n < 0.
    """
    check_int(n, "exponent must be an integer")
    if n == 0 or g.is_identity:
        return Word.identity(g.rank)
    if g.power_record is None:
        (t, core), count = _cyclic_split(g.letters), 1
    else:
        t, core, count = g.power_record
    if n < 0:
        core = _inverse_letters(core)
    return _Power(g.rank, (t, core, count * abs(n)))


_INDEXED_TOKEN = re.compile(r"g(\d+)(?:\^(-?\d+))?")
_LETTER_TOKEN = re.compile(r"([a-zA-Z])(?:\^(-?\d+))?")
# the generator and sign of each letter of the letter form
_LETTERS = {chr(base + g): (g + 1, sign)
            for base, sign in ((ord("a"), 1), (ord("A"), -1)) for g in range(26)}


def parse_word(text, rank):
    """Parse either textual form (indexed iff ``g<digit>`` occurs) into a Word.

    A str and an int rank are parsed once per pair (:func:`_parse_cached`):
    verify and the avoid search read the same few texts on every request,
    and words are immutable.  Any other input takes the checks uncached.
    """
    if type(text) is str and type(rank) is int:
        return _parse_cached(text, rank)
    return _parse(text, rank)


@functools.lru_cache(maxsize=256, typed=True)
def _parse_cached(text, rank):
    return _parse(text, rank)


def _parse(text, rank):
    stripped = re.sub(r"\s+", "", text)
    if stripped in ("", "1"):
        return Word.identity(rank)
    try:
        # letter form without exponents: one lookup per character
        letters = [_LETTERS[ch] for ch in stripped]
    except KeyError:
        pass
    else:
        return Word(rank, letters)
    if re.search(r"g\d", stripped):
        body, token, form = stripped.replace("*", ""), _INDEXED_TOKEN, "indexed word"
    else:
        body, token, form = stripped, _LETTER_TOKEN, "word"
    letters = []
    pos = 0
    while pos < len(body):
        m = token.match(body, pos)
        if not m:
            raise ValueError(f"cannot parse {form} at {body[pos:]!r}")
        head, exp = m.groups()
        gen, sign = _LETTERS.get(head) or (int(head), 1)
        exp = int(exp or 1)
        letters.extend([(gen, sign if exp > 0 else -sign)] * abs(exp))
        pos = m.end()
    return Word(rank, letters)


@functools.lru_cache(maxsize=64)
def _alphabet(rank):
    """The letters a1 < .. < ar < a1^-1 < .. < ar^-1, built once per rank.
    In a reduced word the letter at index i is followed by any but its
    inverse, at (i + r) mod 2r: the k-th of those is at k, or k + 1 from there."""
    return tuple((g, e) for e in (1, -1) for g in range(1, rank + 1))


def shortlex_words(rank):
    """Yield reduced words in shortlex order over a1 < .. < ar < a1^-1 < ..

    This alphabet order is not the BFS edge order of coset enumeration
    (a1, a1^-1, a2, a2^-1, ..), so two words of one length can compare
    differently here and in a Schreier transversal.  A rank below 1 is
    refused on the first pull: its frontier would stay empty forever.
    """
    check_int(rank, RANK_TEXT, 1)
    alphabet = _alphabet(rank)
    frontier = [()]
    while True:
        next_frontier = []
        for prefix in frontier:
            skip = (prefix[-1][0] - 1 + rank * (prefix[-1][1] == 1)
                    if prefix else len(alphabet))
            for letter in alphabet[:skip] + alphabet[skip + 1:]:
                word = prefix + (letter,)
                yield Word._reduced(rank, word)
                next_frontier.append(word)
        frontier = next_frontier


def _reduced_draws(rng, rank, count, length, max_length, sums=False):
    """The alphabet indices (see :func:`_alphabet`) of ``count`` uniformly
    random reduced words, each of exactly ``length`` letters or, with
    ``length`` None, of ``rng.randint(1, max_length)`` letters: one uniform
    draw from the alphabet, then from each letter's successors.  With
    ``sums`` true, the list of each word's exponent sums packed as one int
    comes along, as ``(indices, sums)``.

    A rank or ``max_length`` below 1, a negative length or count, and any
    of them that is no int are refused by :func:`largequot.errors.check_int`
    before the first draw, which leaves the generator as it was.  A draw
    below n, ``getrandbits`` of n's bit length until it is below n, is the
    loop of ``rng.choice`` and ``rng.randint`` inlined, so the indices and
    the generator's state afterwards are exactly theirs.  It makes no call
    per word: one would cost the verbal benchmark a tenth of its speed.

    The letter loop adds up the packed sums as it draws: the sums s_1 ..
    s_r of a word as s_1 + s_2 B + .. + s_r B^(r-1), in the base B = 2L + 1
    for L the longest length a word may have (``length``, or
    ``max_length``).  Every |s_g| <= L, so equal packed ints are equal sums.
    """
    check_int(rank, RANK_TEXT, 1)
    check_int(count, "count must be a nonnegative integer", 0)
    drawn = length is None
    if drawn:
        longest = check_int(max_length, "max_length must be a positive integer",
                            1)
        k = longest.bit_length()
    elif check_int(length, "length must be a nonnegative integer", 0) == 0:
        return ([()] * count, [0] * count) if sums else [()] * count
    else:
        longest, rest = length, length - 1
    bits = rng.getrandbits
    n, m = 2 * rank, 2 * rank - 1
    kn, km = n.bit_length(), m.bit_length()
    # unasked, the sums stay 0 and no power of the base is made
    weight = [(2 * longest + 1)**g if sums else 0 for g in range(rank)]
    weight += [-x for x in weight]
    keys, packed = [], []
    for _ in range(count):
        if drawn:
            # randint(1, max_length) is 1 + a draw below max_length
            rest = bits(k)
            while rest >= max_length:
                rest = bits(k)
        i = bits(kn)
        while i >= n:
            i = bits(kn)
        indices = [i]
        total = weight[i]
        for _ in range(rest):
            skip = i + rank if i < rank else i - rank
            i = bits(km)
            while i >= m:
                i = bits(km)
            if i >= skip:
                i += 1
            indices.append(i)
            total += weight[i]
        keys.append(tuple(indices))
        packed.append(total)
    return (keys, packed) if sums else keys


def random_reduced_indices(rng, rank, length):
    """The alphabet indices of a uniformly random reduced word of exactly
    the given length, drawn and checked by :func:`_reduced_draws`."""
    return _reduced_draws(rng, rank, 1, length, None)[0]


def random_reduced_sample(rng, rank, count, max_length, sums=False):
    """The index tuples of ``count`` calls ``random_reduced_indices(rng,
    rank, rng.randint(1, max_length))``, drawn and checked by
    :func:`_reduced_draws` with no call per word, which leaves the generator
    in the state those calls would.  With ``sums`` true, ``(indices,
    sums)``: each word's exponent sums packed as one int, as that kernel
    packs them."""
    return _reduced_draws(rng, rank, count, None, max_length, sums)


def packed_sums_gcd(packed, rank, longest):
    """The gcd of the exponent sums that :func:`_reduced_draws` packed into
    one int for a word of at most ``longest`` letters, 0 when they vanish."""
    base, g = 2 * longest + 1, 0
    for _ in range(rank):
        # the lowest digit, balanced: in -longest .. longest
        digit = (packed + longest) % base - longest
        packed = (packed - digit) // base
        g = gcd(g, digit)
    return g


def indexed_word(rank, indices):
    """The word spelled by alphabet indices of a reduced word, unchecked."""
    alphabet = _alphabet(rank)
    return Word._reduced(rank, tuple([alphabet[i] for i in indices]))


def random_reduced_word(rng, rank, length):
    """A uniformly random reduced word of exactly the given length, drawn
    and checked by :func:`random_reduced_indices`."""
    return indexed_word(rank, random_reduced_indices(rng, rank, length))
