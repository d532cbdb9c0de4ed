"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Each test prints ``ACCEPTANCE <name>: PASS|FAIL`` on the real stdout (past
pytest's capture) so a full run always shows the per-criterion outcome, and
then asserts, so the gate also fails loudly.  Time budgets are part of the
criteria and are asserted, not just measured.
"""

import json
import random
import time
from itertools import takewhile

import sympy

from largequot.cli import main
from largequot.largeness import (
    certify_power_quotient,
    find_avoiding_quotient,
    lemma_fi_bound,
    verify_certificate,
)
from largequot.periodic import check_pigraded_properties, parse_order
from largequot.quotients import lemma0_conjugates, reidemeister_schreier
from largequot.series import embed, unit_image_quotient
from largequot.verbal import build_series, quotient_order
from largequot.words import parse_word, random_reduced_word, shortlex_words
from oracles import abelian_invariants, exponent_matrix, mod_abelianization


def _report(capsys, name, problems):
    status = "PASS" if not problems else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {status}")
    assert not problems, f"{name}: " + "; ".join(problems)


def test_magnus_unit_faithfulness_sweep(capsys):
    # every nontrivial rank-2 word of length <= 6 has a nontrivial image in
    # some truncated unit group with prime modulus <= 13 and truncation <= 7
    t0 = time.monotonic()
    problems = []
    words = list(takewhile(lambda w: len(w) <= 6, shortlex_words(2)))
    if len(words) != 1456:
        problems.append(f"expected 1456 candidate words, got {len(words)}")
    for w in words:
        if not any(
            not embed(w, l, p).is_one
            for p in (2, 3, 5, 7, 11, 13)
            for l in (7, 6, 5, 4, 3, 2)
        ):
            problems.append(f"{w} invisible in every tested truncation")
    elapsed = time.monotonic() - t0
    if elapsed > 60:
        problems.append(f"sweep took {elapsed:.1f} s, budget is 60 s")
    _report(capsys, "magnus-unit-faithfulness-sweep", problems)


def test_schreier_rank_identity(capsys):
    # kernels of finite quotients are free of rank 1 + (r-1)j, read off the
    # spanning-tree complement; at least 50 quotients up to order 2000
    problems = []
    pool = []
    for m in range(2, 31):
        pool.append(mod_abelianization(2, m))
    for m in range(2, 13):
        pool.append(mod_abelianization(3, m))
    for m in (2, 3, 4, 5, 6):
        pool.append(mod_abelianization(4, m))
    for m in (2, 3, 4, 5):
        pool.append(mod_abelianization(1, m))
    for p, r, l in [(2, 2, 2), (2, 2, 3), (3, 2, 2), (5, 2, 2), (7, 2, 2),
                    (2, 3, 2), (3, 3, 2)]:
        pool.append(unit_image_quotient(p, r, l))
    levels = build_series([2, 3, 5], 2, 3)
    pool.append(levels[1].parent_quotient)
    pool.append(levels[2].parent_quotient)
    if len(pool) < 50:
        problems.append(f"only {len(pool)} quotients in the pool")
    for q in pool:
        if q.order > 2000:
            problems.append(f"quotient of order {q.order} exceeds the 2000 cap")
        got = len(q.schreier_generators())
        want = 1 + (q.rank - 1) * q.order
        if got != want:
            problems.append(
                f"rank {q.rank} order {q.order}: {got} Schreier generators, "
                f"expected {want}"
            )
    _report(capsys, "schreier-rank-identity", problems)


def _crossing_matrix(quotient, relators):
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
        rows.append(row)
    return rows


def test_rewriting_matches_abelianization_oracle(capsys, smith_invariants_oracle):
    # rewritten presentations against an independent route, the raw
    # edge-crossing exponent matrices: equal row for row, and with the same
    # invariants once put through sympy's Smith form
    t0 = time.monotonic()
    problems = []
    witnesses = (
        [mod_abelianization(2, 2), mod_abelianization(2, 3),
         mod_abelianization(3, 2), unit_image_quotient(2, 2, 2)]
        + [mod_abelianization(1, m) for m in range(2, 13)]
    )
    instances = 0
    for q in witnesses:
        if q.order > 12:
            problems.append(f"witness of order {q.order} exceeds the 12 cap")
            continue
        words = [w for w in takewhile(lambda w: len(w) <= 2,
                                      shortlex_words(q.rank))]
        for w in words:
            o = q.image_order(w)
            for mult in (1, 2):
                _, z = lemma0_conjugates(q, w, o * mult)
                pres = reidemeister_schreier(q, z)
                crossings = _crossing_matrix(q, z)
                expected = smith_invariants_oracle(crossings,
                                                   pres.generator_count)
                instances += 1
                if exponent_matrix(pres) != crossings:
                    problems.append(
                        f"exponent matrix mismatch: witness order {q.order}, "
                        f"word {w}, exponent {o * mult}"
                    )
                if abelian_invariants(pres) != expected:
                    problems.append(
                        f"invariant mismatch: witness order {q.order}, "
                        f"word {w}, exponent {o * mult}"
                    )
    elapsed = time.monotonic() - t0
    if elapsed > 30:
        problems.append(f"oracle comparison took {elapsed:.1f} s, budget is 30 s")
    if instances < 100:
        problems.append(f"only {instances} instances exercised")
    _report(capsys, "rewriting-vs-abelianization-oracle", problems)


def test_avoidance_bound_contract(capsys):
    # 100 seeded word sets; for 20 exponents q >= M each, the avoiding
    # quotient keeps every g^s (s <= m) outside and puts every g^q inside
    rng = random.Random(2026)
    problems = []
    instances = []
    while len(instances) < 100:
        k = rng.choice([1, 1, 2])
        words = []
        while len(words) < k:
            w = random_reduced_word(rng, 2, rng.randint(1, 3 if k == 2 else 4))
            if not w.is_identity and w not in words:
                words.append(w)
        instances.append((words, rng.randint(1, 2)))
    for words, m in instances:
        bound = lemma_fi_bound(words, m)
        for t in range(1, 21):
            q = bound.M * t
            quotient = find_avoiding_quotient(words, m, q, bound=bound)
            for w in words:
                for s in range(1, m + 1):
                    if quotient.kernel_contains(w ** s):
                        problems.append(f"{w}^{s} collapsed, M={bound.M} q={q}")
                if q * len(w) <= 200000:
                    if not quotient.kernel_contains(w ** q):
                        problems.append(f"{w}^{q} not in kernel, M={bound.M}")
                elif q % quotient.image_order(w):
                    problems.append(f"order of {w} does not divide q={q}")
    _report(capsys, "avoidance-bound-contract", problems)


def test_certificate_end_to_end(capsys):
    # the CLI certifies F/<<a^2>> large with the frozen counts, every
    # produced certificate satisfies rels*(k+1) <= k*j, and verification
    # recomputes the numbers bit-exactly from the serialized witness
    problems = []
    code = main(["certify-large", "-r", "2", "-g", "a", "-q", "2"])
    doc = json.loads(capsys.readouterr().out)
    if code != 0:
        problems.append(f"exit code {code}")
    if doc.get("verdict") != "certified-large":
        problems.append(f"verdict {doc.get('verdict')}")
    if doc.get("counts") != {"j": 4, "gens": 5, "rels": 2, "deficiency": 3}:
        problems.append(f"counts {doc.get('counts')}")
    cases = [
        ([parse_word("a", 2)], 2, None),
        ([parse_word("a", 2)], 4, None),
        ([parse_word("a", 2)], 3, unit_image_quotient(3, 2, 2)),
        ([parse_word("a", 2), parse_word("b", 2)], 3, mod_abelianization(2, 3)),
    ]
    for words, q, witness in cases:
        cert = certify_power_quotient(words, q, witness=witness)
        k = len(words)
        counts = cert["counts"]
        if counts["rels"] * (k + 1) > k * counts["j"]:
            problems.append(
                f"relator bound violated at q={q}: {counts['rels']} relators, "
                f"j={counts['j']}, k={k}"
            )
        report = verify_certificate(cert)
        if not report["ok"]:
            problems.append(f"verification failed at q={q}: {report['mismatches']}")
        if report["computed"] != {**counts, "verdict": cert["verdict"]}:
            problems.append(f"recomputation differs at q={q}")
    _report(capsys, "certificate-end-to-end", problems)


def test_verbal_order_and_nesting(capsys):
    # closed order formula against honest BFS enumeration, the frozen order
    # of a modulo gamma_2 over (2,3), and nesting on 1000 sampled words
    problems = []
    formula = quotient_order([2, 3], 2, 2)
    levels = build_series([2, 3, 5], 2, 3)
    enumerated = levels[2].parent_quotient.order
    if formula != 972 or enumerated != 972:
        problems.append(f"972 expected, formula {formula}, BFS {enumerated}")
    level2 = levels[1]
    if level2.order_mod(parse_word("a", 2)) != 6:
        problems.append("order of a modulo gamma_2 is not 6")
    rng = random.Random(31)
    level1 = levels[0]
    for _ in range(1000):
        w = random_reduced_word(rng, 2, rng.randint(0, 8))
        try:
            inner = level2.member(w)
        except ValueError:
            inner = False
        if inner and not level1.member(w):
            problems.append(f"{w} in gamma_2 but not gamma_1")
        nf = level2.normal_form(w)
        if inner != (not any(any(v) for v in nf)):
            problems.append(f"membership and normal form disagree on {w}")
    _report(capsys, "verbal-order-and-nesting", problems)


def test_graded_order_sampling(capsys):
    # 1000 seeded words modulo gamma_2 over (2,3): square-free orders
    # dividing 6, coprimality with the depth reached, zero violations
    level = build_series([2, 3], 2, 2)[1]
    report = check_pigraded_properties(level, sample_count=1000, seed=0)
    problems = list(report["violations"])
    if report["checked"] != 1000:
        problems.append(f"checked {report['checked']} words")
    if report["order_histogram"] != {"1": 1, "2": 29, "3": 214, "6": 756}:
        problems.append(f"histogram drifted: {report['order_histogram']}")
    if not report["solvable"] or report["derived_length_bound"] != 2:
        problems.append("solvability report wrong")
    _report(capsys, "graded-order-sampling", problems)


def test_periodic_driver_first_step(capsys):
    # one driver step over (2,3,5,7): quotient order 4 -> 972, square-free
    # relator exponent 6, assumption ledger populated, within 60 s
    t0 = time.monotonic()
    problems = []
    code = main(["construct-periodic", "--primes", "2,3,5,7", "--steps", "1"])
    doc = json.loads(capsys.readouterr().out)
    if code != 0 or doc["halted"]:
        problems.append(f"driver halted: {doc.get('halt_reason')}")
    step = doc["steps"][0]
    orders = [parse_order(o) for o in step["level_orders"]]
    if orders != [4, 972]:
        problems.append(f"level orders {orders}")
    exponent = step["relator"]["exponent"]
    if exponent != 6:
        problems.append(f"relator exponent {exponent}")
    if any(e > 1 for e in sympy.factorint(exponent).values()):
        problems.append(f"exponent {exponent} is not square-free")
    if not doc["assumptions"]:
        problems.append("assumption ledger is empty")
    elapsed = time.monotonic() - t0
    if elapsed > 60:
        problems.append(f"driver took {elapsed:.1f} s, budget is 60 s")
    _report(capsys, "periodic-driver-first-step", problems)


class _Perm:
    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    def __mul__(self, other):
        return _Perm(tuple(other.images[i] for i in self.images))

    def inverse(self):
        out = [0] * len(self.images)
        for i, v in enumerate(self.images):
            out[v] = i
        return _Perm(out)

    def __eq__(self, other):
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)


def _psi(word, gen_images, degree):
    out = _Perm(range(degree))
    for g, e in word.letters:
        out = out * (gen_images[g - 1] if e == 1 else gen_images[g - 1].inverse())
    return out


def _generated(gens, degree):
    identity = _Perm(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _closure(seeds, conjugators, degree):
    current = set(seeds) or {_Perm(range(degree))}
    while True:
        sub = _generated(list(current), degree)
        grown = set(sub)
        for c in conjugators:
            ci = c.inverse()
            for x in sub:
                grown.add(c * x * ci)
        if grown <= sub:
            return sub
        current = grown


def test_power_conjugate_soundness(capsys):
    # 50 instances: the conjugate set Z, closed as a normal subgroup of the
    # kernel, generates the same group as the full normal closure of g^q,
    # checked inside independent permutation images of order <= 200
    rng = random.Random(4099)
    problems = []
    witnesses = [mod_abelianization(2, 2), mod_abelianization(2, 3),
                 mod_abelianization(2, 4), unit_image_quotient(2, 2, 3)]
    total = 0
    while total < 50:
        quotient = rng.choice(witnesses)
        g = random_reduced_word(rng, 2, rng.randint(1, 4))
        if g.is_identity:
            continue
        o = quotient.image_order(g)
        q = o * rng.choice([1, 2])
        _, z_words = lemma0_conjugates(quotient, g, q)
        degree = rng.choice([4, 5])
        images = []
        for _ in range(2):
            p = list(range(degree))
            rng.shuffle(p)
            images.append(_Perm(p))
        aux = _generated(images, degree)
        if len(aux) > 200:
            continue
        total += 1
        g_img = _psi(g, images, degree)
        power_img = _Perm(range(degree))
        for _ in range(q):
            power_img = power_img * g_img
        full_closure = _closure([power_img], list(aux), degree)
        z_images = [_psi(z, images, degree) for z in z_words]
        kernel_gens = [
            _psi(quotient.schreier_generator_word(lab), images, degree)
            for lab in quotient.schreier_generators()
        ]
        kernel_closure = _closure(z_images, kernel_gens, degree)
        if full_closure != kernel_closure:
            problems.append(
                f"closure mismatch: witness order {quotient.order}, g={g}, q={q}, "
                f"aux order {len(aux)}"
            )
    _report(capsys, "power-conjugate-soundness", problems)
