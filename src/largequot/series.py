"""Truncated noncommutative power series and the 1+x generator embedding.

Series live in A = R<x_1..x_r> / X^l where R is the integers or a prime
field F_p and X is the augmentation ideal: every monomial of degree >= l is
identically zero.  A series is stored sparsely as a map from monomials
(tuples of variable indices, so ``(1, 2, 1)`` is x1*x2*x1) to nonzero
coefficients; the constant term has the empty monomial.  Monomials are
ordered by degree then lexicographically, and printing follows that order.
That sorted key is built on first use (``terms()``, ``hash``, ``str``), not
with the series: the products certify takes orders from are mostly read
only through ``is_one`` or another product.  A product keeps the monomials
it forms without validating them again; it only reduces the coefficients
and drops the zeros.

The group embedding sends the i-th free generator to 1 + x_i and its inverse
to the truncated geometric series sum_{k<l} (-x_i)^k.  Over F_p every series
with constant term 1 is a unit of p-power order (:func:`unit_order`, read
off the valuation of s - 1), which is what the avoiding quotients in
:mod:`largequot.largeness` are built from.

A unit witness is r units g_i of F_p<x_1..x_r>/X^l, p prime, with linear
parts invertible mod p: x_i -> g_i - 1 then extends to an automorphism
taking each 1 + x_i to g_i, so F -> <g_i> has the kernel of a_i -> 1 + x_i.
Its certificate counts are closed forms (:class:`UnitCounts`): j = p^e by
Jennings' formula (:func:`unit_image_exponent`), o(g) the least p^k with
p^k v_p(g) >= l for g's mod-p Magnus valuation (:func:`magnus_valuation`).
:meth:`TruncSeries.counts` tests the images reduced mod each prime p | m,
the modulus, once per tuple of images (:func:`_witness_primes`, by
:func:`_unit_witness`): for p = m the closed forms count
it; for p < m it maps onto the unit witness mod p, so one whose p^e passes
the cap is refused before any BFS.  Others are counted on their coset graph.

Both closed forms are read, not rebuilt.  Jennings' exponent is a function
of four ints, memoized, since the bound, the witness search, certify and
verify ask for the same few.  A valuation is graded, not embedded: the
homogeneous part C_k of the image of every prefix u of w follows from the
parts of degree k - 1, as C_k(u a_i) = C_k(u) + C_{k-1}(u) x_i and, since
u = (u a_i^-1) a_i, C_k(u a_i^-1) = C_k(u) - C_{k-1}(u a_i^-1) x_i
(Magnus, Karrass and Solitar, Combinatorial Group Theory, ch. 5).  One pass
over the letters per degree, up to v, finds v and the leading part; the
degree-1 part is the exponent-sum vector, so a word of valuation 1 takes
no pass at all.  Payloads are parsed through a small memo too, since
verify reads the same few on every request.

Enumerating such a unit group (the ``magnus_unit`` element kind, which is
:class:`TruncSeries` itself) does not multiply series: its
:meth:`TruncSeries.packed_action` runs the BFS on ints.  Over a modulus m,
a series with N = sum_{d<l} r^d monomials packs into one int with a
fixed-width field per monomial, and x_{i1}..x_{id} is stored at the
degree-then-lex slot of x_{id}..x_{i1}.  Stored reversed, right
multiplication by a monomial u moves each degree block of the vector by a
single shift, so right multiplication by a fixed image g is sum_u g_u
(shifted blocks): one product per degree block, with
fields wide enough that the unreduced sums never carry into each other, and
one Barrett step, ``y -= (((y * mu) >> s) & low) * m``, reduces every field
mod m at once.  Packing is canonical, so the BFS numbering is the one that
multiplying series gives.  A vertex costs N fields however sparse its
series, yet on every truncation tried (N up to 8,191, caps 100 to 3,000)
that was faster and smaller than series products, so every size takes it
up to ``DEFAULT_TERM_CAP`` monomials.  Past that, and over Z, the BFS
multiplies series.
"""

from __future__ import annotations

import functools
import math
import re

from . import quotients
from .errors import CapExceeded, check_int
from .primes import TRIAL_LIMIT, is_prime, trial_division
from .words import RANK_TEXT, Word

DEFAULT_TERM_CAP = 10**6


def _normalize_coeff(c, modulus):
    return c % modulus if modulus is not None else c


class TruncSeries:
    """An element of R<x_1..x_r>/X^l with sparse term storage.

    ``modulus`` is a prime p for F_p coefficients or ``None`` for integer
    coefficients.  Instances are immutable and hashable; arithmetic returns
    new objects and raises ``ValueError`` on rank/degree/modulus mismatch.
    """

    __slots__ = ("rank", "degree_bound", "modulus", "_terms", "_key")

    def __init__(self, rank, degree_bound, modulus, terms=None):
        check_int(rank, RANK_TEXT, 1)
        check_int(degree_bound, "degree bound must be a positive integer", 1)
        if modulus is not None:
            check_int(modulus, "modulus must be None or an integer >= 2", 2)
        self.rank = rank
        self.degree_bound = degree_bound
        self.modulus = modulus
        stored = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) >= degree_bound:
                continue
            for var in mono:
                if not 1 <= var <= rank:
                    raise ValueError(
                        f"variable index {var} out of range for rank {rank}"
                    )
            c = _normalize_coeff(coeff, modulus)
            if c:
                stored[mono] = c
        self._terms = stored
        self._key = None

    @classmethod
    def _trusted(cls, rank, degree_bound, modulus, terms):
        """A series from monomials already in range for its shape.

        Only reduces the coefficients and drops the zeros: the products and
        sums of valid series need no other check."""
        self = object.__new__(cls)
        self.rank = rank
        self.degree_bound = degree_bound
        self.modulus = modulus
        if modulus is not None:
            terms = {mono: r for mono, c in terms.items() if (r := c % modulus)}
        else:
            terms = {mono: c for mono, c in terms.items() if c}
        self._terms = terms
        self._key = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, rank, degree_bound, modulus=None):
        return cls(rank, degree_bound, modulus, {(): 1})

    # -- structure ---------------------------------------------------------

    def terms(self):
        """Sorted (monomial, coefficient) pairs in degree-then-lex order."""
        if self._key is None:
            self._key = tuple(sorted(self._terms.items(),
                                     key=lambda kv: (len(kv[0]), kv[0])))
        return self._key

    def coefficient(self, mono):
        return self._terms.get(tuple(mono), 0)

    @property
    def constant_term(self):
        return self._terms.get((), 0)

    @property
    def is_zero(self):
        return not self._terms

    @property
    def is_one(self):
        return self._terms == {(): 1}

    def valuation(self):
        """Least degree of a nonzero term; degree_bound if the series is 0."""
        if not self._terms:
            return self.degree_bound
        return min(len(m) for m in self._terms)

    def _check_compatible(self, other):
        if (self.rank, self.degree_bound, self.modulus) != (
            other.rank,
            other.degree_bound,
            other.modulus,
        ):
            raise ValueError(
                "series mismatch: "
                f"({self.rank}, {self.degree_bound}, {self.modulus}) vs "
                f"({other.rank}, {other.degree_bound}, {other.modulus})"
            )

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.degree_bound == other.degree_bound
            and self.modulus == other.modulus
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.rank, self.degree_bound, self.modulus, self.terms()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return TruncSeries._trusted(self.rank, self.degree_bound, self.modulus, terms)

    def __neg__(self):
        return TruncSeries._trusted(
            self.rank,
            self.degree_bound,
            self.modulus,
            {m: -c for m, c in self._terms.items()},
        )

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def mul(self, other):
        self._check_compatible(other)
        cap = DEFAULT_TERM_CAP
        bound = self.degree_bound
        # the right factor's terms by degree, so each row stops at its room
        right = sorted(other._terms.items(), key=lambda kv: len(kv[0]))
        terms = {}
        get = terms.get
        for m1, c1 in self._terms.items():
            room = bound - len(m1)
            for m2, c2 in right:
                if len(m2) >= room:
                    break
                mono = m1 + m2
                terms[mono] = get(mono, 0) + c1 * c2
            # the term count grows one at a time, so it first passes the
            # cap at cap + 1, whichever row takes it there
            if len(terms) > cap:
                raise CapExceeded("series term count", cap + 1, cap)
        # stored monomials are below the bound, so the products kept are too
        return TruncSeries._trusted(self.rank, bound, self.modulus, terms)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.mul(other)

    def power(self, n):
        """self**n by square and multiply; n < 0 inverts first."""
        if check_int(n, "exponent must be an integer") < 0:
            return self.inverse().power(-n)
        result = TruncSeries.one(self.rank, self.degree_bound, self.modulus)
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    def inverse(self):
        """Inverse of a series with constant term 1 (truncated Neumann sum)."""
        if self.constant_term != 1:
            raise ValueError(
                f"series inverse requires constant term 1, got {self.constant_term}"
            )
        u = self - TruncSeries.one(self.rank, self.degree_bound, self.modulus)
        result = TruncSeries.one(self.rank, self.degree_bound, self.modulus)
        piece = TruncSeries.one(self.rank, self.degree_bound, self.modulus)
        for _ in range(1, self.degree_bound):
            piece = piece.mul(-u)
            if piece.is_zero:
                break
            result = result + piece
        return result

    # -- text form ---------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            body = "".join(f"x{v}" for v in mono)
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + text)
        return " ".join(parts)

    def __repr__(self):
        dom = "ZZ" if self.modulus is None else f"F{self.modulus}"
        return f"TruncSeries({self.rank}, {self.degree_bound}, {dom}, {str(self)!r})"

    _TERM_RE = re.compile(r"^(\d+)?(?:[*·])?((?:x\d+)+)?$")

    @classmethod
    def parse(cls, text, rank, degree_bound, modulus=None):
        """Parse the printed form back into a series (round-trip exact)."""
        if not isinstance(text, str):
            raise ValueError(f"a series is given as a string, got {text!r}")
        cleaned = text.strip()
        if cleaned == "0":
            return cls(rank, degree_bound, modulus)
        cleaned = cleaned.replace("-", "+-").replace(" ", "")
        terms = {}
        for chunk in cleaned.split("+"):
            if not chunk:
                continue
            sign = 1
            if chunk.startswith("-"):
                sign = -1
                chunk = chunk[1:]
            m = cls._TERM_RE.match(chunk)
            if not m or (m.group(1) is None and m.group(2) is None):
                raise ValueError(f"cannot parse series term {chunk!r}")
            coeff = int(m.group(1)) if m.group(1) is not None else 1
            mono = ()
            if m.group(2):
                mono = tuple(int(v) for v in m.group(2)[1:].split("x"))
            terms[mono] = terms.get(mono, 0) + sign * coeff
        return cls(rank, degree_bound, modulus, terms)

    # -- the magnus_unit element kind --------------------------------------

    kind = "magnus_unit"

    def params(self):
        return {"modulus": self.modulus, "rank": self.rank,
                "degree_bound": self.degree_bound}

    def payload(self):
        return str(self)

    @classmethod
    def from_payload(cls, params, payload):
        # the types are checked here, as the parse reads the payload before
        # the constructor checks them; the texts are the constructor's own
        rank, bound, modulus = params["rank"], params["degree_bound"], params["modulus"]
        check_int(rank, RANK_TEXT)
        check_int(bound, "degree bound must be a positive integer")
        if modulus is not None:
            check_int(modulus, "modulus must be None or an integer >= 2")
        # a payload that is no string gets parse's own refusal, where the
        # memo would raise TypeError for a list
        read = _parse_payload if isinstance(payload, str) else cls.parse
        return read(payload, rank, bound, modulus)

    @staticmethod
    def packed_action(images, inverses):
        """Right multiplication by the images as maps on packed coefficient ints.

        The packed action of the ``magnus_unit`` kind (see
        :data:`largequot.quotients.KINDS`).  Returns the packed identity and
        the expansion of a key into its successors along the edges a_1,
        a_1^-1, a_2, .., or None when the images are over Z, are not units of
        one shape, or have more than ``DEFAULT_TERM_CAP`` monomials.  Raises
        ``ValueError`` unless there is one image per variable.
        """
        first = images[0]
        rank, bound, modulus = first.rank, first.degree_bound, first.modulus
        if len(images) != rank:
            raise ValueError(f"a magnus_unit quotient over rank {rank} needs "
                             f"{rank} generator images, got {len(images)}")
        shape = (rank, bound, modulus)
        if modulus is None or any(
            type(g) is not TruncSeries
            or (g.rank, g.degree_bound, g.modulus) != shape
            or g.constant_term != 1
            for g in images + inverses
        ):
            return None
        offsets = [0]  # offsets[d]: slot of the first monomial of degree d
        for d in range(bound):
            offsets.append(offsets[-1] + rank**d)
            # a vertex of more fields than a series product may have terms is
            # no gain (a rank of 10^18 would be a vertex of 10^18 fields)
            if offsets[-1] > DEFAULT_TERM_CAP:
                return None
        # a field of x * g sums at most `bound` products of two residues; with
        # 2^s > top * modulus the Barrett quotient floor(v * mu / 2^s) is exactly
        # floor(v / modulus) for every field value v <= top, and no field of
        # v * mu carries into the next
        top = bound * (modulus - 1) ** 2
        s = (top * modulus).bit_length()
        mu = -(-(1 << s) // modulus)
        width = max((top * mu).bit_length(), s)
        low = sum(((1 << (width - s)) - 1) << (width * k) for k in range(offsets[-1]))

        def slot(mono):
            # x_{i1}..x_{id} sits at the degree-then-lex slot of x_{id}..x_{i1}
            return offsets[len(mono)] + sum(
                (v - 1) * rank**k for k, v in enumerate(mono))

        def blocks_of(g):
            # x * u moves the whole degree-d block of x by one shift, so the
            # block times G_d = sum_u g_u 2^(shift of block d under u) is what
            # that block adds to x * (g - 1), in one product
            blocks = []
            for d in range(bound - 1):
                factor = 0
                for mono, c in g.terms():
                    e = len(mono)
                    if 0 < e < bound - d:
                        j = slot(mono) - offsets[e]
                        factor += c << (width * (offsets[d + e] + rank**d * j))
                if factor:
                    blocks.append(
                        (width * offsets[d], (1 << (width * rank**d)) - 1, factor)
                    )
            return blocks

        edges = [blocks_of(g) for pair in zip(images, inverses) for g in pair]

        def expand(x):
            out = []
            for blocks in edges:
                y = x
                for at, mask, factor in blocks:
                    y += ((x >> at) & mask) * factor
                out.append(y - (((y * mu) >> s) & low) * modulus)
            return out

        # the identity is the constant 1, in field 0
        return 1, expand

    @classmethod
    def counts(cls, images, cap, serialize):
        """The :class:`UnitCounts` of the witness the images generate, or None
        for its coset graph (see the module docstring), over the primes
        :func:`_modulus_primes` finds."""
        # any other constant term fails the BFS's inverse()
        if any(g.constant_term != 1 for g in images):
            return None
        m, rank, l = images[0].modulus, images[0].rank, images[0].degree_bound
        if m is None:
            if not all(g.is_one for g in images):
                # over Z, 1 + u with u != 0 has infinite order (the leading
                # part of (1 + u)^n is n u_v): the BFS can only end at the cap
                raise CapExceeded("quotient enumeration", cap + 1, cap)
            return None
        for p in _witness_primes(tuple(images)):
            counts = UnitCounts(p, rank, l, cap, serialize)  # refuses past cap
            if p == m:
                return counts
        return None


@functools.lru_cache(maxsize=256, typed=True)
def _witness_primes(images):
    """The primes p | m, the images' modulus, over which the images reduced
    mod p are a unit witness (:func:`_unit_witness`), for images of
    constant term 1.  Once per tuple of images: verify reads the same
    standard witness, with its images shared by :func:`_parse_payload`, on
    every request."""
    first = images[0]
    m, rank, l = first.modulus, first.rank, first.degree_bound
    return tuple(p for p in _modulus_primes(m) if _unit_witness(
        images if p == m else [TruncSeries(rank, l, p, dict(g.terms()))
                               for g in images]))


def _modulus_primes(m):
    """The primes p | m found by trial division to TRIAL_LIMIT, in increasing
    order, then the cofactor it leaves when that is a prime.  A composite
    cofactor takes sympy's search over the same trial range, which past it
    still finds perfect powers and factors close to the square root; fully
    factoring m can outlast the BFS."""
    found, cofactor = trial_division(m)
    if cofactor > 1 and not is_prime(cofactor):
        from sympy import factorint

        return [p for p in factorint(m, limit=TRIAL_LIMIT, use_rho=False,
                                     use_pm1=False) if is_prime(p)]
    return list(found) + ([cofactor] if cofactor > 1 else [])


@functools.lru_cache(maxsize=256, typed=True)
def _parse_payload(text, rank, degree_bound, modulus):
    """:meth:`TruncSeries.parse`, once per payload: a witness's images are
    read on every verify of it, and series are immutable."""
    return TruncSeries.parse(text, rank, degree_bound, modulus)


# -- group-side operations --------------------------------------------------


@functools.lru_cache(maxsize=256, typed=True)
def generator_image(rank, degree_bound, modulus, gen, exp):
    """Series image of a single letter: 1+x_i, or sum_{k<l} (-x_i)^k.

    Series are immutable, so each image is built once and shared.
    """
    if exp == 1:
        terms = {(): 1, (gen,): 1}
    else:
        terms = {(gen,) * k: (-1) ** k for k in range(degree_bound)}
    return TruncSeries(rank, degree_bound, modulus, terms)


def _embed_letters(rank, letters, degree_bound, modulus):
    result = TruncSeries.one(rank, degree_bound, modulus)
    for gen, exp in letters:
        image = generator_image(rank, degree_bound, modulus, gen, exp)
        result = result.mul(image)
    return result


def embed(word, degree_bound, modulus=None):
    """Multiplicative image of a word under a_i -> 1 + x_i.

    The result is exact in R<x_1..x_r>/X^l; over F_p this is the reduction
    of the integer image, which the tests check explicitly.  A power
    t * c^n * t^-1 built by :func:`largequot.words.power` is embedded
    through its record, as embed(t) * embed(c)^n * embed(t)^-1 with
    square and multiply, without spelling out its letters.
    """
    if not isinstance(word, Word):
        raise ValueError(f"embed expects a Word, got {word!r}")
    rank, record = word.rank, word.power_record
    if record is None:
        return _embed_letters(rank, word.letters, degree_bound, modulus)
    t, core, n = record
    head = _embed_letters(rank, t, degree_bound, modulus)
    core = _embed_letters(rank, core, degree_bound, modulus)
    return head.mul(core.power(n)).mul(head.inverse())


def order_of_valuation(p, v, l):
    """Order in F_p<x>/X^l of 1 + u, u of valuation v >= 1: the least p^k
    with p^k v >= l, as (1 + u)^(p^k) = 1 + u^(p^k) over F_p and the free
    algebra has no zero divisors, so u^(p^k) has valuation p^k v."""
    order = 1
    while v < l:
        v, order = v * p, order * p
    return order


def unit_order(s):
    """Order of a constant-term-1 series over F_p, by :func:`order_of_valuation`.

    Another modulus raises ``ValueError``: over Z/4 the middle binomial
    terms of (1 + u)^p need not vanish, so no p-power formula applies."""
    if s.modulus is None or not is_prime(s.modulus):
        raise ValueError("unit_order requires a prime modulus")
    if s.constant_term != 1:
        raise ValueError(f"unit_order requires constant term 1, got {s.constant_term}")
    one = TruncSeries.one(s.rank, s.degree_bound, s.modulus)
    return order_of_valuation(s.modulus, (s - one).valuation(), s.degree_bound)


def power_over_cap(p, e, cap):
    """Whether p^e > cap, without building p^e for a huge exponent e."""
    return e >= cap.bit_length() or p**e > cap


@functools.lru_cache(maxsize=1024, typed=True)
def unit_image_exponent(p, rank, l, cap=None):
    """log_p of the order of the group the 1 + x_i generate in F_p<x>/X^l.

    Jennings (Trans. AMS 50, 1941): sum_{n<l} sum_{p^k | n} M_r(n/p^k), with
    Witt's necklace count n M_r(n) = r^n - sum_{d | n, d < n} d M_r(d).
    With a ``cap``, the sum stops as soon as p^e passes it and returns that
    partial e, so the work depends on the cap and not on l: each degree
    adds at least one for rank >= 2, and rank 1 takes the closed form.
    """
    if rank == 1:
        # M_1(n) is 1 at n = 1 and 0 past it, so e counts the p^k below l
        e, pk = 0, 1
        while pk < l and (cap is None or pk <= cap):
            e, pk = e + 1, pk * p
        return e
    necklaces = [0]
    e = 0
    for n in range(1, l):
        divided = sum(d * necklaces[d] for d in range(1, n) if n % d == 0)
        necklaces.append((rank**n - divided) // n)
        pk = 1
        while n % pk == 0:
            e += necklaces[n // pk]
            pk *= p
        if cap is not None and power_over_cap(p, e, cap):
            break
    return e


def _next_parts(letters, lower, p):
    """C_k of the image of each prefix of the letters, first to last, from
    ``lower``, their C_{k-1} (see the module docstring); coefficients are
    reduced mod p unless p is None.  Each part is a dict from monomial to
    nonzero coefficient, shared with the previous prefix when equal."""
    part = {}
    parts = [part]
    for i, (gen, exp) in enumerate(letters):
        below = lower[i] if exp == 1 else lower[i + 1]
        if below:
            part = dict(part)
            for mono, c in below.items():
                mono += (gen,)
                c = part.get(mono, 0) + (c if exp == 1 else -c)
                if p is not None:
                    c %= p
                if c:
                    part[mono] = c
                else:
                    del part[mono]
        parts.append(part)
    return parts


def magnus_valuation(w, p, limit, start=2):
    """(min(v_p(w), limit), w's image at truncation v + 1 or None at the
    limit), where v_None is v_Z.  The caller knows w's image at truncation
    start - 1 to be 1 (v >= 1 for the default start), so v is read from
    degree start - 1 on; the image returned is 1 + C_1 + .. + C_v.

    The parts C_k are graded over w's prefixes (see the module docstring),
    degree 1 first through the exponent sums.  A power t * c^n * t^-1 built
    by :func:`largequot.words.power` keeps its record: it is embedded at
    truncations start, start + 1, .. until its image is not 1.
    """
    rank = w.rank
    if w.power_record is not None:
        for L in range(start, limit + 1):
            image = embed(w, L, p)
            if not image.is_one:
                return L - 1, image
        return limit, None
    letters = w.letters
    if start <= 2 <= limit:
        sums = {}
        for gen, exp in letters:
            sums[gen] = sums.get(gen, 0) + exp
        if any(s if p is None else s % p for s in sums.values()):
            linear = {(gen,): s for gen, s in sums.items()}
            return 1, TruncSeries._trusted(rank, 2, p, {(): 1, **linear})
    parts = [{(): 1}] * (len(letters) + 1)  # C_0 of every prefix
    found = {(): 1}
    for k in range(1, limit):
        parts = _next_parts(letters, parts, p)
        found.update(parts[-1])
        if k >= start - 1 and len(found) > 1:
            return k, TruncSeries._trusted(rank, k + 1, p, found)
    return limit, None


def unit_image_spec(modulus, rank, degree_bound):
    """The serialized :func:`unit_image_quotient`, built without its BFS."""
    images = [generator_image(rank, degree_bound, modulus, g, 1)
              for g in range(1, rank + 1)]
    return {
        "kind": TruncSeries.kind,
        "params": {"modulus": modulus, "rank": rank, "degree_bound": degree_bound},
        "gen_images": [img.payload() for img in images],
    }


def unit_image_quotient(modulus, rank, degree_bound, cap=None):
    """Finite quotient of the free group by the kernel of the 1+x_i map.

    Enumerates the subgroup of units generated by the images 1 + x_i in
    F_p<x_1..x_r>/X^l.  Returns a :class:`largequot.quotients.FiniteQuotient`
    whose generator images are the series :func:`generator_image` builds, so
    it serializes to :func:`unit_image_spec`.  The BFS runs on packed
    coefficient ints (see the module docstring), which are its ``elements``.
    """
    if modulus is None or modulus < 2:
        raise ValueError("unit image quotients need a prime modulus")
    images = [generator_image(rank, degree_bound, modulus, g, 1)
              for g in range(1, rank + 1)]
    kwargs = {} if cap is None else {"cap": cap}
    return quotients.build_quotient(rank, images, **kwargs)


# -- counting a unit witness -------------------------------------------------


class UnitCounts:
    """Everything known about the unit witness (p, r, l), from closed forms.

    j and o(g) are as in the module docstring, and each coset of <g>N holds
    o(g) elements.  At rank 1 the group is cyclic, so a^n has order
    j / gcd(n, j) and no series is formed: there l may be as large as the
    cap, and the series of a^-1 has l terms.  With a ``cap``, a p^e past it
    raises the error the witness's BFS would, before any series work.
    ``valuations`` pairs words with their known v_p, such as a bound's, and
    is searched by identity, so no word is hashed (a power's hash would
    spell out its letters); any other word is valued afresh.  ``serialize``,
    when given, returns the witness as serialized in place of
    :func:`unit_image_spec`.  Its coset graph comes from
    :data:`largequot.quotients.BUILT_QUOTIENTS`.
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
        self._valuations = valuations or ()

    def image_order(self, w):
        quotients.check_word(w, self.rank)
        if self.rank == 1:
            return self.order // math.gcd(w.exponent_sums()[0], self.order)
        v = next((v for u, v in self._valuations if u is w), None)
        if v is None:
            v = magnus_valuation(w, self.p, self.l)[0]
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
        return quotients.BUILT_QUOTIENTS.get(
            ("magnus_unit", self.p, self.rank, self.l), build)


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


quotients.KINDS[TruncSeries.kind] = TruncSeries
