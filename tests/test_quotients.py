import random
import subprocess
import sys
import tracemalloc

import pytest

from largequot import series
from largequot.errors import CapExceeded
from largequot.quotients import (
    ModVector,
    SubgroupPresentation,
    build_quotient,
    coset_representatives,
    element_kind,
    lemma0_conjugates,
    reidemeister_schreier,
)
from largequot.series import embed, generator_image, unit_image_quotient
from largequot.verbal import LayeredCoset, build_series
from largequot.words import Word, parse_word, random_reduced_word
from oracles import (
    abelian_invariants,
    exponent_matrix,
    mod_abelianization,
    quotient_from_spec,
)


class Perm:
    """Test-local permutation on {0..n-1}; exercises the duck-typed protocol."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    def __mul__(self, other):
        return Perm(tuple(other.images[i] for i in self.images))

    def inverse(self):
        out = [0] * len(self.images)
        for i, v in enumerate(self.images):
            out[v] = i
        return Perm(out)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)


def crossing_matrix(quotient, relators):
    """Oracle: abelianized rewriting as plain signed edge-crossing counts.

    Bypasses the word rewriter entirely; only the coset graph and the
    non-tree labels are shared with the code under test.
    """
    labels = quotient.schreier_generators()
    at = {lab: i for i, lab in enumerate(labels)}
    rows = []
    for w in relators:
        row = [0] * len(labels)
        c = 0
        for gen, exp in w.letters:
            if exp == 1:
                edge = (c, gen)
                nxt = quotient.mult[c][gen - 1]
            else:
                nxt = quotient.inv_mult[c][gen - 1]
                edge = (nxt, gen)
            if edge in at:
                row[at[edge]] += exp
            c = nxt
        assert c == 0, "oracle fed a relator outside the kernel"
        rows.append(row)
    return rows


def test_modvector_group_laws():
    v = ModVector(4, (1, 3))
    w = ModVector(4, (2, 2))
    assert (v * w).values == (3, 1)
    assert (v * v.inverse()).values == (0, 0)
    with pytest.raises(ValueError):
        v * ModVector(5, (1, 1))


def test_mod2_abelianization_layout():
    q = mod_abelianization(2, 2)
    assert q.order == 4
    assert [str(q.transversal_word(i)) for i in range(q.order)] == \
        ["1", "a", "b", "ab"]
    assert q.schreier_generators() == ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2))
    basis = [str(q.schreier_generator_word(lab)) for lab in q.schreier_generators()]
    assert basis == ["aa", "baBA", "bb", "abaB", "abbA"]


def test_bfs_numbering_is_deterministic():
    a = q_build = mod_abelianization(3, 3)
    again = mod_abelianization(3, 3)
    assert q_build.mult == again.mult
    assert q_build.inv_mult == again.inv_mult
    assert [e.values for e in q_build.elements] == [e.values for e in again.elements]
    del a


def _first_words_by_brute_force(q):
    """For every coset, the first word reaching it in shortlex order over
    a_1 < a_1^-1 < a_2 < a_2^-1 < .., the BFS edge order."""
    alphabet = [(g, e) for g in range(1, q.rank + 1) for e in (1, -1)]
    first = {0: ()}
    layer = [()]
    while len(first) < q.order:
        layer = [w + (x,) for w in layer for x in alphabet]
        for letters in layer:
            first.setdefault(q.coset_of(Word(q.rank, letters)), letters)
    return [first[i] for i in range(q.order)]


def test_transversal_words_are_shortlex_minimal():
    q = mod_abelianization(2, 3)
    words = [q.transversal_word(i) for i in range(q.order)]
    for i, t in enumerate(words):
        assert q.coset_of(t) == i
        # no strictly shorter word reaches the same coset earlier in BFS
        assert len(t) <= max(len(w) for w in words)
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)
    for q in (q, mod_abelianization(3, 2), mod_abelianization(2, 4),
              unit_image_quotient(2, 2, 3)):
        assert [q.transversal_word(i).letters for i in range(q.order)] == \
            _first_words_by_brute_force(q)


def test_transversal_word_deeper_than_recursion_limit():
    # BFS over Z/5000 alternates a and A, so index 4999 is the residue 2500,
    # reached by a^2500 at depth 2500 of the Schreier tree
    q = mod_abelianization(1, 5000)
    t = q.transversal_word(4999)
    assert t.letters == ((1, 1),) * 2500
    assert q.coset_of(t) == 4999
    assert q.transversal_word(4998).letters == ((1, -1),) * 2499


def test_transversal_word_memory_is_linear_in_depth():
    q = mod_abelianization(1, 5000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        t = q.transversal_word(4999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(t) == 2500
    assert peak < 2 * 10**6


def test_coset_walk_and_kernel():
    q = mod_abelianization(2, 2)
    assert q.kernel_contains(parse_word("aa", 2))
    assert q.kernel_contains(parse_word("ABab", 2))
    assert not q.kernel_contains(parse_word("a", 2))
    assert q.coset_of(parse_word("ab", 2)) == 3


def test_image_order_and_cyclic_index_against_brute_force():
    rng = random.Random(71)
    quotients = [
        mod_abelianization(2, 2),
        mod_abelianization(2, 6),
        mod_abelianization(3, 2),
        unit_image_quotient(2, 2, 3),
    ]
    for q in quotients:
        # brute-force coset counting for the index runs over concrete
        # elements: the magnus quotient keeps packed ints, so its cosets get
        # their series from their transversal words
        if q.kind == "magnus_unit":
            l, p = q.params["degree_bound"], q.params["modulus"]
            elements = [embed(q.transversal_word(i), l, p) for i in range(q.order)]
        else:
            elements = q.elements
        index = {x: i for i, x in enumerate(elements)}
        for _ in range(20):
            w = random_reduced_word(rng, q.rank, rng.randint(1, 6))
            img = q.coset_of(w)
            # brute force the cyclic subgroup through the coset graph
            orbit = [0]
            c = img
            while c != 0:
                orbit.append(c)
                for gen, exp in w.letters:
                    c = q._walk(c, [(gen, exp)])
            assert q.image_order(w) == len(orbit)
            subgroup = [elements[i] for i in orbit]
            cosets = set()
            for x in elements:
                cosets.add(frozenset(index[h * x] for h in subgroup))
            assert q.order // q.image_order(w) == len(cosets)


def test_build_quotient_cap():
    with pytest.raises(CapExceeded) as err:
        mod_abelianization(2, 100, cap=50)
    assert err.value.cap == 50


def test_build_quotient_duck_typing_with_permutations():
    # S_3 as images of rank-2: a -> (0 1), b -> (0 1 2)
    a = Perm((1, 0, 2))
    b = Perm((1, 2, 0))
    q = build_quotient(2, [a, b])
    assert q.order == 6
    assert q.kind is None
    assert q.image_order(parse_word("b", 2)) == 3
    with pytest.raises(ValueError):
        q.serialize()


def _image_of_kind(name):
    """A rank-2 generator image of each element kind."""
    if name == "modvec":
        return ModVector(2, (0, 1))
    if name == "magnus_unit":
        return generator_image(2, 3, 2, 1, 1)
    return LayeredCoset(build_series((2, 3), 2, 2)[1], parse_word("a", 2))


@pytest.mark.parametrize("first, second", [
    ("modvec", "magnus_unit"), ("magnus_unit", "modvec"),
    ("modvec", "verbal"), ("verbal", "modvec"),
    ("magnus_unit", "verbal"), ("verbal", "magnus_unit"),
])
def test_images_of_two_kinds_are_refused_in_either_order(first, second):
    images = [_image_of_kind(first), _image_of_kind(second)]
    with pytest.raises(ValueError) as err:
        build_quotient(2, images)
    # the cover refuses first when it acts; otherwise the multiplying BFS
    # refuses before its first product
    if first == "verbal":
        assert str(err.value) == "cosets of different verbal quotients"
    else:
        assert str(err.value) == (
            "generator images of different types: "
            f"{type(images[0]).__name__} and {type(images[1]).__name__}")


def test_rank_identity_for_schreier_generators():
    cases = [
        mod_abelianization(2, 2),
        mod_abelianization(2, 5),
        mod_abelianization(3, 2),
        mod_abelianization(4, 2),
        unit_image_quotient(2, 2, 3),
        unit_image_quotient(3, 2, 2),
        build_quotient(2, [Perm((1, 0, 2)), Perm((1, 2, 0))]),
    ]
    for q in cases:
        assert len(q.schreier_generators()) == 1 + (q.rank - 1) * q.order


def test_lemma0_conjugates_frozen_example():
    q = mod_abelianization(2, 2)
    t_words, z_words = lemma0_conjugates(q, parse_word("a", 2), 2)
    assert [str(t) for t in t_words] == ["1", "b"]
    assert [str(z) for z in z_words] == ["aa", "Baab"]


def test_lemma0_transversal_covers_group():
    rng = random.Random(73)
    q = mod_abelianization(2, 6)
    for _ in range(10):
        w = random_reduced_word(rng, 2, rng.randint(1, 5))
        o = q.image_order(w)
        t_words, z_words = lemma0_conjugates(q, w, o * rng.randint(1, 3))
        assert len(t_words) == q.order // q.image_order(w)
        assert len(z_words) == len(t_words)
        # translates of <image(w)> by the representatives tile the group
        covered = set()
        for t in t_words:
            t_idx = q.coset_of(t)
            c = q.coset_of(w)
            members = [0]
            while c != 0:
                members.append(c)
                for gen, exp in w.letters:
                    c = q._walk(c, [(gen, exp)])
            for m in members:
                covered.add(q.elements.index(q.elements[m] * q.elements[t_idx]))
        assert covered == set(range(q.order))
        for z in z_words:
            assert q.kernel_contains(z)


def test_coset_count_and_schreier_rank_match_the_rewriting():
    # the counts a certificate reads off the coset graph, against the
    # conjugate set and the rewritten presentation they stand for
    rng = random.Random(2029)
    quotients = [mod_abelianization(2, m) for m in (2, 3, 4)] + [
        unit_image_quotient(p, 2, l)
        for p, l in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4),
                     (5, 2), (5, 3), (7, 2)]
    ]
    for q in quotients:
        assert q.order <= 2**13
        for _ in range(3):
            w = random_reduced_word(rng, 2, rng.randint(1, 6))
            if w.is_identity:
                continue
            o = q.image_order(w)
            reps = coset_representatives(q, w)
            t_words, z_words = lemma0_conjugates(q, w, o * rng.randint(1, 2))
            assert len(reps) == len(t_words) == q.order // o
            assert [q.coset_of(t) for t in t_words] == reps
            pres = reidemeister_schreier(q, z_words)
            assert len(q.schreier_generators()) == pres.generator_count


def _transversal_coset_representatives(quotient, base):
    """Oracle: mark each coset <base>N x by walking x's transversal word
    from every vertex of <base>N."""
    subgroup = [0]
    c = quotient.coset_of(base)
    while c != 0:
        subgroup.append(c)
        c = quotient.walk(c, base)
    reps = []
    seen = [False] * quotient.order
    for idx in range(quotient.order):
        if seen[idx]:
            continue
        reps.append(idx)
        x = quotient.transversal_word(idx)
        for c in subgroup:
            seen[quotient.walk(c, x)] = True
    return reps


def test_coset_representatives_match_the_transversal_walk():
    rng = random.Random(2039)
    # S_4 from a transposition and a 4-cycle: cosets of a non-normal <g>
    s4 = build_quotient(2, [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))])
    quotients = [s4, mod_abelianization(1, 12), mod_abelianization(3, 2)] + [
        unit_image_quotient(p, r, l)
        for p, r, l in [(2, 2, 3), (2, 2, 4), (3, 2, 3), (2, 3, 3), (5, 2, 2)]
    ]
    for q in quotients:
        bases = [Word.identity(q.rank)] + [
            random_reduced_word(rng, q.rank, rng.randint(1, 7)) for _ in range(6)
        ]
        bases += [w ** rng.randint(2, 40) for w in bases[1:3]]
        for w in bases:
            assert coset_representatives(q, w) == \
                _transversal_coset_representatives(q, w), (q.order, str(w))


def test_lemma0_rejects_exponent_outside_kernel():
    q = mod_abelianization(2, 2)
    with pytest.raises(ValueError):
        lemma0_conjugates(q, parse_word("a", 2), 3)


def test_reidemeister_schreier_frozen_example():
    q = mod_abelianization(2, 2)
    _, z = lemma0_conjugates(q, parse_word("a", 2), 2)
    pres = reidemeister_schreier(q, z)
    assert pres.generator_count == 5
    assert len(pres.relators) == 2
    assert pres.generator_count - len(pres.relators) == 3
    assert exponent_matrix(pres) == [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 1, 0],
    ]
    assert abelian_invariants(pres) == [0, 0, 0]


def test_reidemeister_schreier_rejects_nonkernel_relator():
    q = mod_abelianization(2, 2)
    with pytest.raises(ValueError):
        reidemeister_schreier(q, [parse_word("a", 2)])


def test_rewritten_relators_evaluate_back_to_originals():
    """Substituting the Schreier generator words into a rewritten relator
    must recover the original relator up to free reduction."""
    rng = random.Random(79)
    q = mod_abelianization(2, 3)
    relators = []
    for _ in range(6):
        w = random_reduced_word(rng, 2, rng.randint(1, 4))
        r = w ** q.image_order(w)
        if not r.is_identity:
            relators.append(r)
    pres = reidemeister_schreier(q, relators)
    for original, rewritten in zip(relators, pres.relators):
        value = Word.identity(2)
        for gen, exp in rewritten.letters:
            label = pres.generator_labels[gen - 1]
            g_word = pres.source_quotient.schreier_generator_word(label)
            value = value * (g_word if exp == 1 else g_word.inverse())
        assert value == original


def test_abelian_invariants_direct_presentations():
    x_squared = SubgroupPresentation(
        generator_count=1,
        generator_labels=((0, 1),),
        relators=(Word(1, [(1, 1), (1, 1)]),),
    )
    assert abelian_invariants(x_squared) == [2]
    free_two = SubgroupPresentation(
        generator_count=2,
        generator_labels=((0, 1), (0, 2)),
        relators=(),
    )
    assert abelian_invariants(free_two) == [0, 0]


def test_abelian_invariants_match_sympy_oracle(smith_invariants_oracle):
    rng = random.Random(83)
    quotients = [
        mod_abelianization(2, 2),
        mod_abelianization(2, 3),
        mod_abelianization(2, 4),
        mod_abelianization(3, 2),
        unit_image_quotient(2, 2, 3),
    ]
    for q in quotients:
        for _ in range(8):
            base = random_reduced_word(rng, q.rank, rng.randint(1, 4))
            o = q.image_order(base)
            _, z = lemma0_conjugates(q, base, o)
            pres = reidemeister_schreier(q, z)
            crossings = crossing_matrix(q, z)
            # rewriting checked without any Smith form: row for row, the
            # abelianized relators are the raw signed edge crossings
            assert exponent_matrix(pres) == crossings
            expected = smith_invariants_oracle(crossings, pres.generator_count)
            assert abelian_invariants(pres) == expected


# A 7x7 exponent matrix on which a pivot-by-least-entry Smith form blows up:
# its entries passed 700 bits within four pivots and it ran past a minute.
WIDE_SMITH_MATRIX = [
    [12, 0, 7, -8, -12, -6, 0],
    [-7, -6, 9, 0, 10, 0, -1],
    [-8, -2, 7, 7, 0, -3, -3],
    [-2, 3, 0, -12, 0, 0, 1],
    [6, 0, 10, -6, -5, 0, 0],
    [-1, 0, 2, 11, 0, -3, -10],
    [4, 0, 0, 10, -3, 0, -10],
]

WIDE_SMITH_INVARIANTS = f"""
from largequot.quotients import SubgroupPresentation
from largequot.words import Word
from oracles import abelian_invariants, exponent_matrix

rows = {WIDE_SMITH_MATRIX!r}
relators = tuple(
    Word(7, [(g, 1 if e > 0 else -1) for g, e in enumerate(row, 1)
             for _ in range(abs(e))])
    for row in rows)
pres = SubgroupPresentation(generator_count=7,
                            generator_labels=tuple((0, g) for g in range(1, 8)),
                            relators=relators)
assert exponent_matrix(pres) == rows
print(abelian_invariants(pres))
"""


def test_abelian_invariants_finish_on_a_coefficient_growth_matrix(package_env):
    result = subprocess.run(
        [sys.executable, "-c", WIDE_SMITH_INVARIANTS],
        env=package_env, capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[4, 741672]"


def _presentation(rows, gen_count):
    """A presentation whose abelianized exponent matrix is ``rows``."""
    relators = tuple(
        Word(gen_count, [(g, 1 if e > 0 else -1) for g, e in enumerate(row, 1)
                         for _ in range(abs(e))])
        for row in rows)
    return SubgroupPresentation(
        generator_count=gen_count,
        generator_labels=tuple((0, g) for g in range(1, gen_count + 1)),
        relators=relators)


def test_the_oracle_reads_the_wide_matrix(smith_invariants_oracle):
    assert smith_invariants_oracle(WIDE_SMITH_MATRIX, 7) == [4, 741672]
    assert abelian_invariants(_presentation(WIDE_SMITH_MATRIX, 7)) == [4, 741672]


def test_abelian_invariants_match_determinantal_divisors(
        smith_invariants_oracle):
    # the Smith diagonal itself, against gcds of minors, up to 7 x 7; scaled
    # rows and repeated rows give invariants past 1 and rank deficits
    rng = random.Random(59)
    torsion = free = 0
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        spread = rng.choice([1, 3, 12])
        rows = [[rng.randint(-spread, spread) if rng.random() < 0.6 else 0
                 for _ in range(n)] for _ in range(m)]
        for row in rng.sample(rows, rng.randint(0, m)):
            row[:] = [rng.choice([2, 3, 4, 6]) * e for e in row]
        if m > 1 and rng.random() < 0.3:
            rows[-1] = list(rows[0])
        expected = smith_invariants_oracle(rows, n)
        assert abelian_invariants(_presentation(rows, n)) == expected, rows
        torsion += any(d > 1 for d in expected)
        free += 0 in expected
    assert torsion >= 100 and free >= 100, (torsion, free)


def test_serialize_roundtrip_modvec():
    q = mod_abelianization(2, 3)
    doc = q.serialize()
    assert doc["kind"] == "modvec"
    again = quotient_from_spec(doc)
    assert again.order == q.order
    assert again.mult == q.mult
    assert again.inv_mult == q.inv_mult


def test_serialize_roundtrip_magnus_unit():
    q = unit_image_quotient(2, 2, 3)
    doc = q.serialize()
    assert doc["kind"] == "magnus_unit"
    assert doc["params"]["degree_bound"] == 3
    again = quotient_from_spec(doc)
    assert again.order == q.order == 32
    assert again.mult == q.mult


def test_serialize_forms_payloads_once_and_returns_fresh_containers(monkeypatch):
    from largequot.series import TruncSeries

    q = unit_image_quotient(2, 2, 3)
    first = q.serialize()
    calls = []
    original = TruncSeries.__str__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(TruncSeries, "__str__", counted)
    second = q.serialize()
    assert calls == []
    assert second == first
    first["gen_images"].append("1")
    first["gen_images"][0] = "1 + x2"
    first["params"]["rank"] = 3
    first["kind"] = "modvec"
    assert q.serialize() == second == {
        "kind": "magnus_unit",
        "params": {"modulus": 2, "rank": 2, "degree_bound": 3},
        "gen_images": ["1 + x1", "1 + x2"],
    }
    # list payloads and list params are copied too
    v = mod_abelianization(2, 3)
    v.serialize()["gen_images"][0].append(7)
    assert v.serialize()["gen_images"] == [[1, 0], [0, 1]]
    cover = build_series((2, 3), 2, 2)[1].parent_quotient
    cover.serialize()["params"]["primes"].append(99)
    assert cover.serialize()["params"]["primes"] == [2]


def test_unknown_element_kind_rejected():
    with pytest.raises(ValueError):
        element_kind("no-such-kind")
    with pytest.raises(ValueError):
        quotient_from_spec({"kind": "nope", "params": {}, "gen_images": []})


# -- the process-level table of built quotients -----------------------------


def _unit(p, r, l):
    return series.UnitCounts(p, r, l, None).quotient()


def _same_quotient(a, b):
    assert (a.elements, a.mult, a.inv_mult, a.tree_parent) == (
        b.elements, b.mult, b.inv_mult, b.tree_parent)
    assert a.serialize() == b.serialize()


@pytest.mark.parametrize("p, r, l", [(2, 2, 2), (3, 2, 3), (5, 2, 2), (2, 2, 5)])
def test_unit_quotients_from_the_table_match_fresh_builds(empty_quotient_table,
                                                          p, r, l):
    first = _unit(p, r, l)
    served = _unit(p, r, l)
    assert served is first
    assert list(empty_quotient_table.quotients) == [("magnus_unit", p, r, l)]
    assert empty_quotient_table.held == served.order
    fresh = unit_image_quotient(p, r, l)
    assert fresh is not served
    _same_quotient(served, fresh)


def test_a_unit_quotient_past_the_budget_is_built_and_not_stored(
        empty_quotient_table, monkeypatch):
    monkeypatch.setattr(empty_quotient_table, "cosets", 100)
    first, again = _unit(2, 2, 4), _unit(2, 2, 4)
    assert first.order == 128 and again is not first
    _same_quotient(again, first)
    assert empty_quotient_table.quotients == {}
    assert empty_quotient_table.held == 0
    assert _unit(3, 2, 2) is _unit(3, 2, 2)
    assert list(empty_quotient_table.quotients) == [("magnus_unit", 3, 2, 2)]
    assert empty_quotient_table.held == 9


def test_verbal_and_unit_quotients_share_one_budget(empty_quotient_table,
                                                    monkeypatch):
    table = empty_quotient_table
    monkeypatch.setattr(table, "cosets", 1000)
    # F/gamma_1, 4 cosets, and F/gamma_2, 972
    build_series((2, 3, 5), 2, 3)[2].parent_quotient
    _unit(3, 2, 2)  # 9 cosets
    build_series((2, 2), 2, 2)[1].parent_quotient  # F/gamma_1 over (2,) again
    assert list(table.quotients) == [
        ("verbal", 2, 2, 3), ("magnus_unit", 3, 2, 2), ("verbal", 2, 2)]
    assert table.held == 4 + 972 + 9
    # 25 more cosets evict the least recently used, the verbal 972
    _unit(5, 2, 2)
    assert list(table.quotients) == [
        ("magnus_unit", 3, 2, 2), ("verbal", 2, 2), ("magnus_unit", 5, 2, 2)]
    assert table.held == 9 + 4 + 25
    # and a verbal build evicts the least recently used unit quotient
    _unit(3, 2, 2)
    build_series((2, 3, 5), 2, 3)[2].parent_quotient
    assert list(table.quotients) == [
        ("magnus_unit", 3, 2, 2), ("verbal", 2, 2), ("verbal", 2, 2, 3)]
    assert table.held == sum(q.order for q in table.quotients.values()) == 985


def test_build_quotient_refuses_a_wrong_image_count_and_rank_zero():
    image = generator_image(2, 3, 5, 1, 1)
    with pytest.raises(ValueError) as err:
        build_quotient(2, [image])
    assert str(err.value) == "expected 2 generator images, got 1"
    with pytest.raises(ValueError) as err:
        build_quotient(0, [])
    assert str(err.value) == "rank must be at least 1"
