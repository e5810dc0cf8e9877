"""Acceptance suite: one test per criterion, exact checks, timed bounds.

Each test prints a single PASS line with its timing so the whole gate can
be read off a pytest -s run.
"""

import random
import time

import pytest

from cotame.classify import (
    decide,
    degree_condition,
    no_good_monomials,
    span_good_scan,
)
from cotame.endo import AffineMap, invert_structured, theta_map, verify_witness
from cotame.gf import GaloisField
from cotame.maps import IdealHandle, compose, elementary, identity, reduce_mod
from cotame.poly import Polynomial, parse_poly
from cotame.rings import (
    IntegerModRing,
    PrimeField,
    RationalField,
)
from cotame.delta import DeltaSpec, delta_match
from cotame.witness import (
    _seed_from_image,
    build_witness_with_info,
    vandermonde_combination,
)

Q = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F9 = GaloisField(3, 2)
Z6 = IntegerModRing(6)


def apply_scaling(g, scalevec):
    """Oracle: g(s_1 x_1, ..., s_n x_n), by scaling each term."""
    ring, n = g.ring, g.nvars
    out = {}
    zero = ring.zero_value()
    for exps, v in g.terms.items():
        factor = ring.one_value()
        for t, s in zip(exps, scalevec):
            if t:
                factor = ring.mul(factor, ring.pow(s, t))
        prod = ring.mul(factor, v)
        if prod != zero:
            out[exps] = prod
    return Polynomial(ring, n, out)


def report(criterion, detail, elapsed, bound):
    print(f"PASS criterion {criterion}: {detail} [{elapsed:.1f}s < {bound}s]")
    assert elapsed < bound, f"criterion {criterion} exceeded {bound}s"


def random_affine_letter(rng, ring, n):
    units = (
        list(ring.iter_units()) if ring.is_finite else [1, -1]
    )
    one, zero = ring.one_value(), ring.zero_value()
    lower = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.4:
                lower[i][j] = ring.coerce_value(rng.randint(-2, 2))
    diag = AffineMap.diagonal(ring, [rng.choice(units) for _ in range(n)])
    shift = [ring.coerce_value(rng.randint(-1, 1)) for _ in range(n)]
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    m = AffineMap(ring, lower, shift).compose(diag)
    return m.compose(AffineMap.permutation(ring, perm))


def random_elementary_letter(rng, ring, n, max_deg=3):
    exps = [0] * n
    for _ in range(rng.randint(1, 2)):
        v = rng.randrange(1, n)
        exps[v] += 1
        if sum(exps) >= max_deg:
            break
    if ring.is_finite:
        c = rng.randrange(1, ring.order)
    else:
        c = rng.choice([1, -1, 2])
    return elementary(Polynomial.monomial(ring, tuple(exps), c), nvars=n)


def random_tame_word(rng, ring, n, max_letters=8):
    letters = []
    for _ in range(rng.randint(1, max_letters)):
        if rng.random() < 0.55:
            m = random_affine_letter(rng, ring, n)
            letters.append((m.to_endo(), m.inverse().to_endo()))
        else:
            e = random_elementary_letter(rng, ring, n)
            letters.append((e, invert_structured(e)))
    value = identity(ring, n)
    inverse = identity(ring, n)
    for g, ginv in letters:
        value = compose(value, g)
        inverse = compose(ginv, inverse)
    return value, inverse


def test_criterion_1_group_laws():
    t0 = time.time()
    rng = random.Random(101)
    total = 0
    pools = {F5: [], Q: []}
    for ring in (F5, Q):
        ident = identity(ring, 3)
        for _ in range(100):
            value, inverse = random_tame_word(rng, ring, 3)
            assert compose(value, inverse) == ident
            assert compose(inverse, value) == ident
            pools[ring].append(value)
            total += 1
    for ring in (F5, Q):
        pool = pools[ring]
        for _ in range(20):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))
    report(1, f"{total} word-built maps: inverses and associativity exact",
           time.time() - t0, 30)


def _pattern_pool(ring, n):
    if n == 3:
        texts = ["x2^2", "x3^2", "x2^2*x3^2", "x2^4", "x2^2 + x3^4"]
    else:
        texts = ["x2^3", "x2^6", "x2^3 + 2*x2^6", "2*x2^3"]
    return [elementary(parse_poly(t, ring, n), nvars=n) for t in texts]


def test_criterion_2_ngg_subgroup():
    t0 = time.time()
    rng = random.Random(103)
    checked = 0
    for ring, n in ((F2, 3), (F3, 2)):
        pool = _pattern_pool(ring, n)
        pool_inv = [invert_structured(g) for g in pool]
        for _ in range(100):
            value = identity(ring, n)
            inverse = identity(ring, n)
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.4:
                    m = random_affine_letter(rng, ring, n)
                    g, ginv = m.to_endo(), m.inverse().to_endo()
                else:
                    k = rng.randrange(len(pool))
                    g, ginv = pool[k], pool_inv[k]
                value = compose(value, g)
                inverse = compose(ginv, inverse)
            assert no_good_monomials(value)
            assert no_good_monomials(inverse)
            checked += 1
    report(2, f"{checked} products/inverses stay inside the pattern subgroup",
           time.time() - t0, 30)


def test_criterion_3_maubach_willems_boundary():
    t0 = time.time()
    phi2 = elementary(parse_poly("x2^2", F2, 3))
    v = decide(phi2)
    assert v.answer == "NotStablyCotame" and v.reason == "ngg-membership"
    phi_q = elementary(parse_poly("x2^2", Q, 3))
    v = decide(phi_q)
    assert v.answer == "StablyCotame"
    lengths = []
    for text in ("x2*x3", "x2^3", "x3^2 + 2*x2"):
        f = parse_poly(text, Q, 3)
        word, _ = build_witness_with_info(decide(phi_q), f)
        assert verify_witness(word, phi_q, f)
        lengths.append(len(word))
    report(3, f"char-2 obstruction + 3 verified words over Q {lengths}",
           time.time() - t0, 60)


def test_criterion_4_infinite_field_dichotomy():
    t0 = time.time()
    rng = random.Random(107)
    decided = 0
    while decided < 50:
        value, _ = random_tame_word(rng, Q, 3, max_letters=6)
        if value.is_affine():
            continue
        v = decide(value)
        assert v.answer == "StablyCotame", value
        decided += 1
    for _ in range(20):
        m = random_affine_letter(rng, Q, 3)
        v = decide(m.to_endo())
        assert v.answer == "NotStablyCotame"
    report(4, "50 non-affine tame maps positive, 20 affine maps negative",
           time.time() - t0, 60)


def test_criterion_5_witness_pipeline_f5():
    t0 = time.time()
    phi = elementary(parse_poly("x2*x3", F5, 3))
    lengths = {}
    for text in ("x2*x3", "x2^2", "x2^2*x3", "x3^3", "x2 + x3^2"):
        f = parse_poly(text, F5, 3)
        word, _ = build_witness_with_info(decide(phi), f)
        assert verify_witness(word, phi, f), text
        lengths[text] = len(word)
    report(5, f"5 verified words, lengths {lengths}", time.time() - t0, 120)


def test_criterion_6_theta_desk_scale():
    t0 = time.time()
    theta1, theta1p = theta_map(1, F7)
    img = theta1p.images[1]
    assert img.terms.get((2, 0, 4)) not in (None, 0)
    for i in (1, 2, 3):
        assert img.deg_xi(i) <= 4
    v = decide(theta1)
    assert v.answer == "StablyCotame"
    from cotame.endo import _theta_generators

    beta, pi = _theta_generators(F7)
    beta_inv = invert_structured(beta)
    theta1_inv = compose(compose(compose(pi, beta_inv), pi), compose(beta, pi))
    assert compose(theta1, theta1_inv) == identity(F7, 3)
    target = parse_poly("x2*x3", F7, 3)
    word, _ = build_witness_with_info(v, target)
    assert verify_witness(word, theta1, target, phi_inverse=theta1_inv)
    elapsed_f7 = time.time() - t0
    t1 = time.time()
    for ring in (F2, GaloisField(2, 2)):
        for N in (1, 2):
            theta_n, _ = theta_map(N, ring)
            assert no_good_monomials(theta_n)
    elapsed_ngg = time.time() - t1
    report(6, f"exact theta facts + verified word (len {len(word)});"
              f" char-2 membership in {elapsed_ngg:.1f}s",
           elapsed_f7, 300)
    assert elapsed_ngg < 60


def test_criterion_7_monomial_recovery():
    t0 = time.time()
    rng = random.Random(109)
    recovered = 0
    for ring in (F5, F7, F9):
        units = list(ring.iter_units())
        bound = ring.order - 2
        done = 0
        while done < 100:
            f = Polynomial.zero(ring, 3)
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, bound) for _ in range(3))
                f = f + Polynomial.monomial(ring, exps, rng.choice(units))
            if f.is_zero() or not degree_condition(f, ring.order):
                continue
            for exps in f.monomials():
                combos = vandermonde_combination(f, exps)
                acc = Polynomial.zero(ring, 3)
                for c, vec in combos:
                    acc = acc + apply_scaling(f, vec).scale(c)
                assert acc == Polynomial.monomial(ring, exps, f.terms[exps])
                recovered += 1
            done += 1
    report(7, f"300 polynomials, {recovered} monomials recovered exactly",
           time.time() - t0, 60)


def test_criterion_8_reduction_homomorphism():
    t0 = time.time()
    rng = random.Random(113)
    ideals = [IdealHandle(Z6, [2]), IdealHandle(Z6, [3])]
    for _ in range(100):
        a, _ = random_tame_word(rng, Z6, 3, max_letters=4)
        b, _ = random_tame_word(rng, Z6, 3, max_letters=4)
        for ideal in ideals:
            lhs = reduce_mod(compose(a, b), ideal)
            rhs = compose(reduce_mod(a, ideal), reduce_mod(b, ideal))
            assert lhs == rhs
    report(8, "100 pairs over Z/6 reduce homomorphically mod (2) and (3)",
           time.time() - t0, 30)


def test_criterion_9_delta_route():
    t0 = time.time()
    phi = elementary(parse_poly("x2^2*x3^2", F3, 3))
    scan = span_good_scan(phi, 3)
    assert not scan.certified_full()
    spec = DeltaSpec.ones(F3, (0, 1, 1))
    assert delta_match(phi, spec, 1) == (2, 3)
    seed, kind = _seed_from_image(phi, 1, spec.l)
    assert kind == "product" and seed.target == parse_poly("x1*x2", F3, 3)
    seed.validate()
    f = parse_poly("x2*x3", F3, 3)
    verdict = decide(phi)
    word, _ = build_witness_with_info(verdict, f)
    assert verdict.route == "delta-route"
    assert verify_witness(word, phi, f)
    report(9, f"difference-operator certificate + verified word (len {len(word)})",
           time.time() - t0, 120)


def test_criterion_10_quintic_boundary():
    t0 = time.time()
    phi9 = elementary(parse_poly("x2^5", F9, 3))
    v9 = decide(phi9)
    assert v9.answer == "StablyCotame"
    f = parse_poly("x2*x3", F9, 3)
    word, _ = build_witness_with_info(v9, f)
    assert verify_witness(word, phi9, f)
    phi3 = elementary(parse_poly("x2^5", F3, 3))
    v3 = decide(phi3)
    assert v3.answer == "Unknown"
    assert any("exhaust" in d for d in v3.diagnostics)
    report(10, f"GF(9) verified word (len {len(word)}); F_3 honestly Unknown",
           time.time() - t0, 120)
