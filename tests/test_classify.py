import itertools
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cotame.classify import (
    ModulePattern,
    SpanWitness,
    decide,
    default_pattern,
    degree_condition,
    direct_pattern_scan,
    good_ideal,
    good_monomial_type,
    good_monomials,
    monomial_in_pattern,
    no_good_monomials,
    pattern_membership,
    reduction_search,
    resolve_k_size,
    span_good_scan,
)
from cotame.endo import AffineMap, invert_structured
from cotame.errors import CompositeCharacteristic, NoSuchUnit, Unsupported
from cotame.gf import GaloisField
from cotame.maps import (Endomorphism, IdealHandle, compose, elementary, identity,
                         reduce_mod)
from cotame.poly import Polynomial, parse_poly
from cotame.rings import (
    IntegerModRing,
    IntegerRing,
    PrimeField,
    RationalField,
    find_special_unit,
    is_prime,
    ring_from_spec,
)

Q = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_good_monomial_type_cases():
    assert good_monomial_type((0, 1, 1), 3, 5).tag == "II"
    assert good_monomial_type((0, 2, 0), 3, 2).tag == "NotGood"
    assert good_monomial_type((2, 4), 2, 2).tag == "NotGood"
    assert monomial_in_pattern((2, 4), default_pattern(2, 2))
    assert good_monomial_type((2, 4, 0), 3, 5).tag == "III"
    assert good_monomial_type((0, 2, 0), 3, 0).tag == "I"
    assert good_monomial_type((1, 2), 2, 2).tag == "IV"
    assert good_monomial_type((3, 0), 2, 2).tag == "V"
    with pytest.raises(CompositeCharacteristic):
        good_monomial_type((1, 1), 2, 6)


def test_good_matches_pattern_complement_exhaustively():
    for n, p in ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 5)):
        pattern = default_pattern(n, p)
        bound = 2 * p * p + 1
        for exps in itertools.product(range(bound), repeat=n):
            if all(e == 0 for e in exps):
                continue
            good = good_monomial_type(exps, n, p).is_good()
            inside = monomial_in_pattern(exps, pattern)
            assert good != inside, (n, p, exps)


def test_good_ideal_examples():
    phi = elementary(parse_poly("x2^2", Q, 3))
    assert good_ideal(phi).is_full()
    phi2 = elementary(parse_poly("x2^2", F2, 3))
    assert good_ideal(phi2).is_zero()
    z6 = IntegerModRing(6)
    phi6 = elementary(parse_poly("2*x2*x3", z6, 3))
    with pytest.raises(CompositeCharacteristic):
        good_ideal(phi6)


def test_degree_condition():
    assert degree_condition(parse_poly("x2^2", F5, 3), 5)
    assert not degree_condition(parse_poly("x2^2", F3, 3), 3)
    f9 = GaloisField(3, 2)
    assert degree_condition(parse_poly("x2^5", f9, 3), 9)
    assert degree_condition(parse_poly("x2^100", Q, 3), None)


def test_a_large_prime_decide_tests_primality_once_per_value():
    # each of the 497 monomials asks whether the characteristic is prime;
    # by trial division that was 0.37 s of a 0.40 s decide
    is_prime.cache_clear()
    ring = PrimeField(16777213)
    phi = elementary(parse_poly("(x2 + 2*x3 + 1)^30", ring, 3))
    assert len(phi.images[0].terms) == 497
    assert decide(phi).route == "J-full"
    info = is_prime.cache_info()
    assert info.misses == 1 and info.hits >= 497


def test_span_scan_f5_product():
    phi = elementary(parse_poly("x2*x3", F5, 3))
    scan = span_good_scan(phi, 5)
    assert scan.certified_full()
    assert scan.witnesses[0].gm_type.tag == "II"


def test_span_scan_f3_square_not_certified():
    phi = elementary(parse_poly("x2^2", F3, 3))
    scan = span_good_scan(phi, 3)
    assert not scan.certified_full()
    assert scan.exhaustive


def test_span_scan_affine_is_empty():
    phi = AffineMap.translation(F5, [1, 2, 0]).to_endo()
    scan = span_good_scan(phi, 5)
    assert not scan.witnesses and not scan.certified_full()


def oracle_span_combos(phi, budget):
    """Deterministic candidate stream of coefficient vectors; singles first,
    and over an infinite ring nothing else."""
    ring, n = phi.ring, phi.nvars
    zero, one = ring.zero_value(), ring.one_value()
    singles = []
    for i in range(n):
        vec = [zero] * n
        vec[i] = one
        singles.append(tuple(vec))
    yield from singles
    if ring.is_finite:
        values = [ring.index_value(i) for i in range(ring.order)]
        count = 0
        for combo in itertools.product(values, repeat=n):
            if count >= budget:
                return
            count += 1
            if combo in singles or all(v == zero for v in combo):
                continue
            yield combo


def oracle_span_scan(phi, k_size, budget=200000):
    """The span scan as a plain sweep: each combination of the stream is
    summed in full, then stripped of its degree-one part, and its candidate
    checked anew; the sweep stops once the good coefficients fill the ideal.

    Over a finite ring the scan is exhaustive when every nonzero vector of
    k^n was examined; over an infinite one when the singles do not certify.
    """
    ring, n = phi.ring, phi.nvars
    zero = ring.zero_value()
    gens, witnesses, seen = [], [], set()
    examined = 0
    exhausted_all = True
    for combo in oracle_span_combos(phi, budget):
        examined += 1
        seen.add(combo)
        acc = Polynomial.zero(ring, n)
        for c, img in zip(combo, phi.images):
            if c != zero:
                acc = acc + img.scale(c)
        candidate = Polynomial(
            ring, n, {e: v for e, v in acc.terms.items() if sum(e) != 1}
        )
        if candidate.is_zero() or not degree_condition(candidate, k_size):
            continue
        goods = good_monomials(candidate)
        for exps, coeff, gm_type in goods:
            witnesses.append(SpanWitness(combo, candidate, exps, coeff, gm_type))
            gens.append(coeff)
        if goods and IdealHandle(ring, gens).is_full():
            exhausted_all = False
            break
    diagnostics = []
    exhaustive = exhausted_all
    if ring.is_finite:
        total = ring.order**n
        exhaustive = exhausted_all and len(seen - {(zero,) * n}) == total - 1
        if exhausted_all and not exhaustive:
            diagnostics.append(
                f"span scan budget {budget} below the {total} coefficient vectors"
            )
    return IdealHandle(ring, gens), witnesses, exhaustive, examined, diagnostics


def assert_scan_matches_oracle(phi, k_size, **options):
    scan = span_good_scan(phi, k_size, **options)
    handle, witnesses, exhaustive, examined, diagnostics = oracle_span_scan(
        phi, k_size, **options
    )
    assert scan.examined == examined
    assert scan.exhaustive == exhaustive
    assert scan.diagnostics == diagnostics
    assert [w.describe() for w in scan.witnesses] == [
        w.describe() for w in witnesses
    ]
    assert scan.certified_full() == handle.is_full()
    return scan


SPAN_CORPUS = [
    ("GF:2^5", "x1 + x2^31*x3 + x2*x3^31", 200000),
    ("GF:3^2", "x1 + x2^5", 200000),
    ("Fp:3", "x1 + x2^5", 200000),
    ("Fp:3", "x1 + x2^2*x3^2", 200000),
    ("Fp:3", "x1 + x2^3", 200000),
    ("Fp:5", "x1 + x2*x3", 200000),
    ("Q", "x1 + x2^2", 2000),
]


@pytest.mark.parametrize("spec, first, budget", SPAN_CORPUS)
def test_span_scan_matches_oracle_on_corpus(spec, first, budget):
    ring = ring_from_spec(spec)
    phi = Endomorphism(ring, [parse_poly(t, ring, 3) for t in (first, "x2", "x3")])
    assert_scan_matches_oracle(phi, resolve_k_size(ring), budget=budget)


SPAN_SPECS = ["Fp:2", "Fp:3", "GF:2^2", "GF:3^2", "Q"]


@st.composite
def span_scan_cases(draw):
    ring = ring_from_spec(draw(st.sampled_from(SPAN_SPECS)))
    n = draw(st.integers(min_value=2, max_value=3))
    if ring.is_finite:
        values = st.sampled_from([ring.index_value(i) for i in range(ring.order)])
    else:
        values = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    # exponents up to q reach both sides of the degree bound q - 2, those up
    # to max(1, q - 2) stay inside it
    wide = ring.order or 4
    narrow = max(1, wide - 2)
    images = []
    for i in range(n):
        kind = draw(st.sampled_from(["translation", "affine", "narrow", "wide"]))
        if kind == "translation":
            exps = st.just((0,) * n)
        elif kind == "affine":
            units = [tuple(int(j == k) for j in range(n)) for k in range(-1, n)]
            exps = st.sampled_from(units)
        else:
            top = narrow if kind == "narrow" else wide
            exps = st.tuples(*[st.integers(min_value=0, max_value=top)] * n)
        terms = draw(st.dictionaries(exps, values, max_size=3))
        own = tuple(int(j == i) for j in range(n))
        terms[own] = ring.add(terms.get(own, ring.zero_value()), ring.one_value())
        images.append(Polynomial(ring, n, terms))
    if ring.is_finite:
        total = ring.order**n
        budget = draw(
            st.one_of(
                st.integers(min_value=-2, max_value=total + 2),
                st.integers(min_value=max(1, total - n - 1), max_value=total + 2),
            )
        )
    else:
        budget = draw(st.integers(min_value=-2, max_value=40))
    return Endomorphism(ring, images), {"budget": budget}


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(span_scan_cases())
def test_span_scan_matches_oracle_on_random_maps(case):
    phi, options = case
    assert_scan_matches_oracle(phi, resolve_k_size(phi.ring), **options)


def test_span_scan_exhaustive_only_when_every_vector_is_examined():
    phi = Endomorphism(
        F3, [parse_poly("x1 + x2^2", F3, 2), parse_poly("x2", F3, 2)]
    )
    for budget, exhaustive in ((7, False), (8, False), (9, True)):
        scan = assert_scan_matches_oracle(phi, 3, budget=budget)
        assert scan.exhaustive is exhaustive, budget
        below = f"span scan budget {budget} below the 9 coefficient vectors"
        assert scan.diagnostics == ([] if exhaustive else [below])


# maps whose singles fail but a later combination has a good monomial,
# with a dead image before, between or after the live ones
SPAN_LATE_EXITS = [
    ("Fp:5", ["x1 + x2^4 + x2*x3", "x2", "x3 + x2^4"]),
    ("Fp:5", ["x1", "x2 + x3^4 + x1*x3", "x3 + x3^4"]),
    ("Fp:3", ["x1 + x2^2 + x2*x3", "x2 + x2^2", "x3"]),
    ("GF:2^2", ["x1 + x2^3 + x1*x2", "x2 + x2^3"]),
]


@pytest.mark.parametrize("spec, texts", SPAN_LATE_EXITS)
def test_span_scan_exits_after_the_singles_at_every_budget(spec, texts):
    ring = ring_from_spec(spec)
    n = len(texts)
    phi = Endomorphism(ring, [parse_poly(t, ring, n) for t in texts])
    k_size = resolve_k_size(ring)
    full = span_good_scan(phi, k_size, budget=ring.order**n)
    assert full.certified_full() and full.examined > n
    for budget in range(-1, ring.order**n + 2):
        assert_scan_matches_oracle(phi, k_size, budget=budget)


@pytest.fixture
def scale_calls(monkeypatch):
    calls = []
    scale = Polynomial.scale

    def counting_scale(self, c):
        calls.append(1)
        return scale(self, c)

    monkeypatch.setattr(Polynomial, "scale", counting_scale)
    return calls


def test_span_scan_builds_one_candidate_per_live_key(scale_calls):
    # only the first image has a non-linear part, so the 64^3 vectors over
    # GF(2^6) give 64 keys, each built with one scaling
    ring = GaloisField(2, 6)
    phi = elementary(parse_poly("x2^63*x3 + x2*x3^63", ring, 3))
    scan = span_good_scan(phi, 64, budget=262144)
    assert scan.exhaustive and scan.examined == 262144 + 3 - 4
    assert len(scale_calls) <= 64


def test_span_scan_with_every_image_live_builds_each_vector_once(scale_calls):
    # keys are vectors: one candidate, of three scalings, per nonzero vector
    images = ["x1 + x2^2", "x2 + x3^2", "x3 + x1^2"]
    phi = Endomorphism(F3, [parse_poly(t, F3, 3) for t in images])
    scan = span_good_scan(phi, 3, budget=27)
    assert scan.exhaustive and scan.examined == 26 and not scan.witnesses
    assert len(scale_calls) == 26 * 3


def test_span_scan_sweeps_gf256_by_keys(scale_calls):
    # 256^3 = 16,777,216 vectors but only 256 keys; the vectors are counted,
    # not walked
    ring = ring_from_spec("GF:2^8:[1,1,0,1,1,0,0,0,1]")
    phi = elementary(parse_poly("x2^255*x3 + x2*x3^255", ring, 3))
    start = time.perf_counter()
    scan = span_good_scan(phi, 256, budget=16_777_216)
    assert time.perf_counter() - start < 2
    assert scan.exhaustive and scan.examined == 16_777_215
    assert not scan.witnesses and scan.diagnostics == []
    assert len(scale_calls) <= 256


def test_span_scan_early_exit_is_lazy(scale_calls):
    # every image is live, so keys are vectors: 256^3 of them; the first
    # single already has a good monomial, so at most the n singles are built
    ring = ring_from_spec("GF:2^8:[1,1,0,1,1,0,0,0,1]")
    images = ["x1 + x2*x3", "x2 + x3^2", "x3 + x1^2"]
    phi = Endomorphism(ring, [parse_poly(t, ring, 3) for t in images])
    scan = span_good_scan(phi, 256, budget=10**9)
    assert scan.certified_full() and scan.examined == 1
    one, zero = ring.one_value(), ring.zero_value()
    assert [w.combo for w in scan.witnesses] == [(one, zero, zero)]
    assert len(scale_calls) <= 3 * 3


@st.composite
def maps_over_q(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    images = []
    for i in range(n):
        top = draw(st.sampled_from([1, 1, 3]))  # affine images are common
        exps = st.tuples(*[st.integers(min_value=0, max_value=top)] * n)
        terms = draw(st.dictionaries(exps, values, max_size=3))
        if top == 1:
            terms = {e: v for e, v in terms.items() if sum(e) <= 1}
        own = tuple(int(j == i) for j in range(n))
        terms[own] = terms.get(own, 0) + 1
        images.append(Polynomial(Q, n, {e: Q.coerce_value(v)
                                        for e, v in terms.items()}))
    return Endomorphism(Q, images)


@settings(max_examples=80, deadline=None)
@given(maps_over_q())
def test_span_scan_over_q_is_decided_by_the_singles(phi):
    n = phi.nvars
    scan = span_good_scan(phi, None)
    singles = [tuple(Q.coerce_value(int(j == i)) for j in range(n))
               for i in range(n)]
    assert scan.diagnostics == [] and scan.examined <= n
    if scan.certified_full():
        assert not scan.exhaustive and scan.witnesses[-1].combo in singles
        return
    assert scan.exhaustive and scan.examined == n and not scan.witnesses
    for combo in itertools.product(range(-2, 3), repeat=n):
        acc = Polynomial.zero(Q, n)
        for c, img in zip(combo, phi.images):
            acc = acc + img.scale(c)
        assert not good_monomials(acc), combo


def test_span_scan_over_q_examines_the_singles_of_an_affine_map():
    phi = Endomorphism(Q, [parse_poly(t, Q, 3) for t in ("x1 + x2", "x2", "x3 + 1/2")])
    scan = span_good_scan(phi, None)
    assert scan.examined == 3 and scan.exhaustive
    assert scan.diagnostics == [] and not scan.witnesses


def test_span_scan_over_q_refuses_a_finite_base_field():
    phi = elementary(parse_poly("x2^2", Q, 3))
    with pytest.raises(ValueError, match="--ksize 4: Q has no finite base field"):
        span_good_scan(phi, 4)


@pytest.mark.parametrize("spec", ["Z", "Zn:6", "Zn:4"])
def test_span_scan_refuses_a_ring_that_is_not_a_field(spec):
    ring = ring_from_spec(spec)
    phi = elementary(parse_poly("x2*x3", ring, 3))
    with pytest.raises(Unsupported, match="the span scan needs a base field"):
        span_good_scan(phi, None)


def test_pattern_membership_examples():
    w2 = default_pattern(2, 2)
    for t in (1, 5, 9, 13):
        assert monomial_in_pattern((t, 0), w2)
    assert not monomial_in_pattern((3, 0), w2)
    v3 = default_pattern(3, 2)
    assert not monomial_in_pattern((0, 1, 1), v3)
    f = parse_poly("x2*x3", F2, 3)
    assert not pattern_membership(f, v3)


def test_elementary_generators_escape_the_patterns():
    # the obstruction subgroup misses honest tame generators: x2*x3 escapes
    # the order-p pattern for n >= 3, x2^2 escapes it for p >= 3, and
    # x2^(p+1) escapes the two-variable refinement for n = p = 2
    for p in (2, 3, 5):
        assert not monomial_in_pattern((0, 1, 1), default_pattern(3, p))
    for p in (3, 5):
        assert not monomial_in_pattern((0, 2, 0), default_pattern(3, p))
    assert not monomial_in_pattern((0, 3), default_pattern(2, 2))


def test_pattern_high_shift_branch():
    # shift exponents at or above e: x^(p^u) is a member via t >= p^u
    pat = ModulePattern(3, 1, 1, frozenset({0, 2}))
    assert monomial_in_pattern((9, 0), pat)   # 9 = 3^2
    assert monomial_in_pattern((12, 0), pat)  # 9 + 3
    assert not monomial_in_pattern((2, 0), pat)


def test_char_two_cube_identity():
    # x1^3 + x2^3 + (x1+x2)^3 = x1^2*x2 + x1*x2^2 in characteristic 2
    lhs = parse_poly("x1^3 + x2^3 + (x1 + x2)^3", F2, 2)
    assert lhs == parse_poly("x1^2*x2 + x1*x2^2", F2, 2)


def test_pattern_closure_validation():
    with pytest.raises(ValueError):
        ModulePattern(2, 3, 3, frozenset({1}))  # 1+1=2 is neither in N nor >= d
    ModulePattern(2, 2, 2, frozenset({1}))  # 1+1=2 >= d, closure holds
    ModulePattern(2, 1, 2, frozenset({0}))


def test_ngg_membership():
    assert no_good_monomials(elementary(parse_poly("x2^2", F2, 3)))
    assert not no_good_monomials(elementary(parse_poly("x2*x3", F2, 3)))
    assert no_good_monomials(AffineMap.translation(Q, [1, 1, 1]).to_endo())
    assert not no_good_monomials(elementary(parse_poly("x2^2", Q, 3)))


def oracle_no_good_monomials(phi):
    """No good monomial, by its definition case by case: affineness in
    characteristic 0, otherwise no image with a good monomial."""
    if phi.ring.characteristic == 0:
        return phi.is_affine()
    return all(not good_monomials(img) for img in phi.images)


NGG_SPECS = ["Q", "Z", "Fp:2", "Fp:3", "Fp:5", "GF:2^2"]


def ring_values(ring):
    """Coefficient values of ring: all of a finite ring, small ones otherwise."""
    if ring.is_finite:
        return st.sampled_from([ring.index_value(i) for i in range(ring.order)])
    if ring.is_field:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(min_value=-4, max_value=4)


@st.composite
def maps_for_ngg(draw):
    ring = ring_from_spec(draw(st.sampled_from(NGG_SPECS)))
    n = draw(st.integers(min_value=2, max_value=3))
    values = ring_values(ring)
    images = []
    for i in range(n):
        top = draw(st.sampled_from([1, 1, 2, 4]))  # affine images are common
        exps = st.tuples(*[st.integers(min_value=0, max_value=top)] * n)
        terms = draw(st.dictionaries(exps, values, max_size=3))
        if top == 1:
            terms = {e: v for e, v in terms.items() if sum(e) <= 1}
        own = tuple(int(j == i) for j in range(n))
        terms[own] = ring.add(ring.coerce_value(terms.get(own, 0)), ring.one_value())
        images.append(Polynomial(ring, n, {e: ring.coerce_value(v)
                                           for e, v in terms.items()}))
    return Endomorphism(ring, images)


@settings(max_examples=150, deadline=None)
@given(maps_for_ngg())
def test_no_good_monomials_is_the_zero_good_ideal(phi):
    expected = oracle_no_good_monomials(phi)
    assert no_good_monomials(phi) is expected
    assert good_ideal(phi).is_zero() is expected


def _pattern_elementary_pool(ring, n, p):
    """First-variable shifts whose added polynomial stays inside the pattern."""
    pool = []
    if (n, p) == (3, 2):
        texts = ["x2^2", "x3^2", "x2^2*x3^2", "x2^4", "x2^2 + x3^4", "x3^2 + x2^2*x3^2"]
    else:  # (2, 3)
        texts = ["x2^3", "x2^6", "x2^3 + x2^6", "2*x2^3"]
    for t in texts:
        pool.append(elementary(parse_poly(t, ring, n), nvars=n))
    return pool


def random_pattern_affine(rng, ring, n):
    units = list(ring.iter_units())
    one, zero = ring.one_value(), ring.zero_value()
    A = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.4:
                A[i][j] = ring.coerce_value(rng.randrange(ring.order))
    try:
        m = AffineMap(ring, A, [ring.coerce_value(rng.randrange(ring.order)) for _ in range(n)])
    except Exception:
        return None
    return m.to_endo()


def test_ngg_closed_under_products_and_inverses():
    rng = random.Random(41)
    for ring, n in ((F2, 3), (F3, 2)):
        p = ring.characteristic
        pool = _pattern_elementary_pool(ring, n, p)
        inverses = {id(g): invert_structured(g) for g in pool}
        count = 0
        while count < 100:
            word = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.4:
                    aff = random_pattern_affine(rng, ring, n)
                    if aff is None:
                        continue
                    word.append((aff, invert_structured(aff)))
                else:
                    g = rng.choice(pool)
                    word.append((g, inverses[id(g)]))
            if not word:
                continue
            value = identity(ring, n)
            inverse = identity(ring, n)
            for g, ginv in word:
                value = compose(value, g)
                inverse = compose(ginv, inverse)
            assert no_good_monomials(value), (ring.spec_string(), value)
            assert no_good_monomials(inverse)
            assert compose(value, inverse) == identity(ring, n)
            count += 1


def test_reduction_search():
    z6 = IntegerModRing(6)
    phi = elementary(parse_poly("3*x2^2 + 2*x2^3", z6, 3))
    # mod 2: x2^2 survives -> inside the pattern; mod 3: 2*x2^3 = frobenius cube
    found = reduction_search(phi)
    assert found is not None
    Z = IntegerRing()
    phiz = elementary(parse_poly("2*x2^2", Z, 3))
    found = reduction_search(phiz)
    assert found is not None and found["modulus"] == 2


def test_reduction_moduli_are_the_prime_divisors_below_n():
    from cotame.classify import _reduction_moduli

    def oracle(n):
        return [q for q in range(2, n) if n % q == 0 and is_prime(q)]

    for n in list(range(2, 200)) + [1024, 3 * 5 * 7 * 11 * 13, 97 * 101, 4 * 9973]:
        assert _reduction_moduli(IntegerModRing(n)) == oracle(n), n
    start = time.perf_counter()
    assert _reduction_moduli(IntegerModRing(10**12)) == [2, 5]
    assert _reduction_moduli(IntegerModRing(999983 * 1000003)) == [999983, 1000003]
    assert time.perf_counter() - start < 2


def test_every_reduction_modulus_gives_a_proper_quotient():
    # reduction_search passes each modulus to reduce_mod, which must accept it
    from cotame.classify import _reduction_moduli

    for ring in [IntegerRing()] + [IntegerModRing(n) for n in range(2, 61)]:
        phi = elementary(parse_poly("x2^2 + 2*x2*x3", ring, 3))
        for q in _reduction_moduli(ring):
            quotient = reduce_mod(phi, IdealHandle(ring, [q]))
            assert quotient.ring == IntegerModRing(q), (ring, q)


def test_direct_pattern_scan():
    phi = elementary(parse_poly("x2*x3 + x2 + 1", F2, 3))
    hit = direct_pattern_scan(phi)
    assert hit is not None and hit["case"] == "a"
    assert direct_pattern_scan(identity(F2, 3)) is None


def oracle_direct_pattern_scan(phi):
    """The direct match by a ladder over the sorted positive exponents of
    the one nonlinear monomial, case by case."""
    ring, n = phi.ring, phi.nvars
    p = ring.characteristic
    for j, img in enumerate(phi.images, start=1):
        nonlinear = Polynomial(
            ring, n, {e: v for e, v in img.terms.items() if sum(e) > 1}
        )
        if len(nonlinear.terms) != 1:
            continue
        (exps,) = nonlinear.terms
        c = nonlinear.terms[exps]
        if not ring.is_unit(c):
            continue
        positive = sorted(t for t in exps if t > 0)
        if positive == [1, 1]:
            case = "a"
        elif positive == [2] and ring.is_unit(ring.coerce_value(2)):
            case = "b"
        elif n != 2 or p != 2:
            continue
        elif positive == [1, 2]:
            case = "c"
        elif positive != [3]:
            continue
        else:
            try:
                find_special_unit(ring)
            except NoSuchUnit:
                continue
            case = "d"
        return {"kind": "direct", "image": j, "monomial": list(exps),
                "coefficient": ring.format_value(c), "case": case}
    return None


DIRECT_SPECS = ["Q", "Z", "Zn:2", "Zn:4", "Zn:6", "Zn:8", "Zn:9", "Fp:2", "Fp:3",
                "Fp:5", "GF:2^2", "GF:3^2"]


@st.composite
def maps_for_direct(draw):
    """Maps whose images are x_j plus affine terms and up to two monomials of
    degree 2 to 4, so that many have exactly one."""
    ring = ring_from_spec(draw(st.sampled_from(DIRECT_SPECS)))
    n = draw(st.integers(min_value=2, max_value=3))
    values = ring_values(ring)
    affine = st.tuples(*[st.integers(min_value=0, max_value=1)] * n).filter(
        lambda e: sum(e) <= 1)
    nonlinear = st.tuples(*[st.integers(min_value=0, max_value=3)] * n).filter(
        lambda e: 2 <= sum(e) <= 4)
    images = []
    for i in range(n):
        terms = draw(st.dictionaries(affine, values, max_size=2))
        terms.update(draw(st.dictionaries(nonlinear, values, max_size=2)))
        own = tuple(int(j == i) for j in range(n))
        terms[own] = ring.add(ring.coerce_value(terms.get(own, 0)), ring.one_value())
        images.append(Polynomial(ring, n, {e: ring.coerce_value(v)
                                           for e, v in terms.items()}))
    return Endomorphism(ring, images)


@settings(max_examples=300, deadline=None)
@given(maps_for_direct())
def test_direct_pattern_scan_agrees_with_the_case_ladder(phi):
    hit, expected = direct_pattern_scan(phi), oracle_direct_pattern_scan(phi)
    assert hit == expected


def test_decide_examples():
    v = decide(elementary(parse_poly("x2^2", F2, 3)))
    assert v.answer == "NotStablyCotame" and v.reason == "ngg-membership"
    v = decide(elementary(parse_poly("x2^2", Q, 3)))
    assert v.answer == "StablyCotame"
    v = decide(elementary(parse_poly("x2^5", F3, 3)))
    assert v.answer == "Unknown"
    f9 = GaloisField(3, 2)
    v = decide(elementary(parse_poly("x2^5", f9, 3)))
    assert v.answer == "StablyCotame"


def test_decide_affine_not_stably_cotame():
    v = decide(AffineMap.translation(Q, [1, 0, 2]).to_endo())
    assert v.answer == "NotStablyCotame"


def test_decide_proper_ideal_over_z():
    Z = IntegerRing()
    v = decide(elementary(parse_poly("2*x2^2", Z, 3)))
    assert v.answer == "NotStablyCotame"


def test_decide_composite_characteristic_ring():
    z6 = IntegerModRing(6)
    # x2*x3 has unit coefficient: the direct route applies over any ring
    v = decide(elementary(parse_poly("x2*x3", z6, 3)))
    assert v.answer == "StablyCotame" and v.route == "M-phi-case-a"
    # 3*x2^2 + 2*x2^3 dies in both prime quotients
    v = decide(elementary(parse_poly("3*x2^2 + 2*x2^3", z6, 3)))
    assert v.answer == "NotStablyCotame" and v.reason == "reduction-to-ngg"


def test_decide_soundness_certificates_verify():
    # positive verdicts must back a full generator-word witness; negative
    # pattern verdicts must survive a monomial-by-monomial recheck
    from cotame.endo import verify_witness
    from cotame.witness import build_witness_with_info
    from cotame.classify import monomial_in_pattern

    cases = [
        (elementary(parse_poly("x2*x3", F5, 3)), "x2^2"),
        (elementary(parse_poly("x2^2", Q, 3)), "x2*x3"),
        (elementary(parse_poly("x2^2*x3^2", F3, 3)), "x2*x3"),
    ]
    for phi, target_text in cases:
        v = decide(phi)
        assert v.answer == "StablyCotame"
        f = parse_poly(target_text, phi.ring, 3)
        word, _ = build_witness_with_info(v, f)
        assert verify_witness(word, phi, f)
    negative = elementary(parse_poly("x2^2", F2, 3))
    v = decide(negative)
    assert v.answer == "NotStablyCotame" and v.reason == "ngg-membership"
    pattern = default_pattern(3, 2)
    for img in negative.images:
        for exps in img.terms:
            assert monomial_in_pattern(exps, pattern)


def random_tame_2(rng, ring, max_letters=5, max_deg=4):
    units = list(ring.iter_units())
    acc = identity(ring, 2)
    for _ in range(rng.randint(1, max_letters)):
        if rng.random() < 0.5:
            u1, u2 = rng.choice(units), rng.choice(units)
            b = [rng.randrange(ring.order), rng.randrange(ring.order)]
            m = AffineMap(ring, [[u1, 0], [rng.randrange(ring.order), u2]], b)
            if rng.random() < 0.5:
                m = m.compose(AffineMap.permutation(ring, [2, 1]))
            acc = compose(acc, m.to_endo())
        else:
            exps = (0, rng.randint(0, max_deg))
            c = rng.randrange(1, ring.order)
            f = Polynomial.monomial(ring, exps, c)
            acc = compose(acc, elementary(f, nvars=2))
    return acc


def test_both_odd_coefficients_vanish_in_two_variables_char_two():
    # over a field of characteristic 2 no image of a tame map in two
    # variables carries a monomial with both exponents odd
    rng = random.Random(43)
    for ring in (F2, GaloisField(2, 2)):
        for _ in range(40):
            phi = random_tame_2(rng, ring)
            for img in phi.images:
                for exps in img.terms:
                    assert not (exps[0] % 2 == 1 and exps[1] % 2 == 1), (
                        ring.spec_string(),
                        phi,
                    )
