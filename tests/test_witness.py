import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cotame.classify import decide, degree_condition, span_good_scan
from cotame.endo import AffineMap, invert_structured
from cotame.errors import DegreeConditionError, NoRouteFound, NotAUnit, ResourceLimit
from cotame.gf import GaloisField
from cotame.maps import (
    Endomorphism,
    compose,
    elementary,
    elementary_last,
    extend,
    identity,
)
from cotame.poly import Polynomial, parse_poly
from cotame.rings import (
    PrimeField,
    RationalField,
    enumerate_units,
    ring_from_spec,
)
from cotame import witness
from cotame.witness import (
    SpanDecomposition,
    build_witness,
    build_witness_with_info,
    compile_last_word,
    compile_tame_word,
    convert_cube,
    convert_square,
    dec_apply_affine,
    dec_linear_combine,
    normalize_to_seed,
    shift_extract,
    span_decomposition,
    theta_map,
    trivial_decomposition,
    unit_normalize,
    vandermonde_combination,
    vandermonde_extract,
    verify_witness,
)

Q = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F9 = GaloisField(3, 2)


def apply_scaling(g, scalevec):
    """Oracle: g(s_1 x_1, ..., s_n x_n), by scaling each term."""
    ring, n = g.ring, g.nvars
    out = {}
    zero = ring.zero_value()
    for exps, v in g.terms.items():
        factor = ring.one_value()
        for t, s in zip(exps, scalevec):
            if t:
                factor = ring.mul(factor, ring.pow(s.value, t))
        prod = ring.mul(factor, v)
        if prod != zero:
            out[exps] = prod
    return Polynomial(ring, n, out)


def P(text, ring=Q, nvars=3):
    return parse_poly(text, ring, nvars)


def phi_product(ring=F5):
    return elementary(parse_poly("x2*x3", ring, 3))


def test_span_decomposition_validates():
    phi = phi_product()
    dec = span_decomposition(phi, [F5.of(1), F5.of(0), F5.of(0)])
    assert dec.target == parse_poly("x1 + x2*x3", F5, 3)
    assert dec.validate()
    bogus = SpanDecomposition(phi, parse_poly("x1", F5, 3), Polynomial.zero(F5, 3), [])
    with pytest.raises(ValueError):
        bogus.validate()


def test_dec_apply_affine():
    phi = phi_product()
    dec = span_decomposition(phi, [1, 0, 0])
    same = dec_apply_affine(dec, AffineMap.identity(F5, 3))
    assert same.target == dec.target
    swap = dec_apply_affine(dec, AffineMap.permutation(F5, [2, 1, 3]))
    assert swap.target == parse_poly("x2 + x1*x3", F5, 3)
    swap.validate()
    scaled = dec_apply_affine(dec, AffineMap.diagonal(F5, [2, 1, 1]))
    assert scaled.target == parse_poly("2*x1 + x2*x3", F5, 3)
    scaled.validate()


def test_dec_linear_combine():
    phi = phi_product()
    dec = span_decomposition(phi, [1, 0, 0])
    combo = dec_linear_combine([(1, dec), (0, dec)])
    assert combo.target == dec.target
    zero = dec_linear_combine([(1, dec), (-1, dec)])
    assert zero.target.is_zero() and not zero.terms
    # difference-of-squares identity as a combination of decompositions
    phiq = elementary(P("x2^2"))
    d1 = trivial_decomposition(phiq, P("x1"))
    # x1^2 = (x1 + x2^2) - ... not needed; combine trivial decs exactly
    d2 = trivial_decomposition(phiq, P("x2"))
    both = dec_linear_combine([(1, d1), (1, d2)])
    assert both.target == P("x1 + x2")


def test_vandermonde_combination_small_example():
    g = parse_poly("x1 + 2*x1^2", F5, 1)
    combos = vandermonde_combination(g, (2,))
    # reconstruct: the combination must equal 2*x1^2 exactly
    acc = Polynomial.zero(F5, 1)
    for c, vec in combos:
        acc = acc + apply_scaling(g, vec).scale(c)
    assert acc == parse_poly("2*x1^2", F5, 1)
    # the support solve needs only the units 1 and 2
    used = {vec[0].value for _, vec in combos}
    assert used <= {1, 2}


def test_vandermonde_single_monomial_degenerate():
    g = parse_poly("3*x2*x3", F5, 3)
    combos = vandermonde_combination(g, (0, 1, 1))
    acc = Polynomial.zero(F5, 3)
    for c, vec in combos:
        acc = acc + apply_scaling(g, vec).scale(c)
    assert acc == g


def test_vandermonde_extract_on_image():
    phi = phi_product()
    dec = span_decomposition(phi, [1, 0, 0])
    out = vandermonde_extract(dec, (0, 1, 1))
    assert out.target == parse_poly("x2*x3", F5, 3)
    out.validate()


def test_vandermonde_random_recovery():
    rng = random.Random(47)
    for ring in (F5, F7, F9):
        units = [u.value for u in enumerate_units(ring)]
        bound = ring.order - 2
        for _ in range(25):
            nvars = 2
            f = Polynomial.zero(ring, nvars)
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, bound) for _ in range(nvars))
                f = f + Polynomial.monomial(ring, exps, rng.choice(units))
            if f.is_zero() or not degree_condition(f, ring.order):
                continue
            for exps in f.monomials():
                combos = vandermonde_combination(f, exps)
                acc = Polynomial.zero(ring, nvars)
                for c, vec in combos:
                    acc = acc + apply_scaling(f, vec).scale(c)
                assert acc == Polynomial.monomial(ring, exps, f.terms[exps])


def test_vandermonde_needs_field_size():
    # three distinct components in one variable cannot be separated with
    # only the two units of F_3
    g = parse_poly("1 + x1 + x1^2", F3, 1)
    with pytest.raises(DegreeConditionError):
        vandermonde_combination(g, (2,))
    # two components with a unit-square gap are fine even above the
    # classical bound: the support solve needs just two scalars
    h = parse_poly("x1 + x1^2", F3, 1)
    combos = vandermonde_combination(h, (2,))
    acc = Polynomial.zero(F3, 1)
    for c, vec in combos:
        acc = acc + apply_scaling(h, vec).scale(c)
    assert acc == parse_poly("x1^2", F3, 1)


def test_shift_extract_cases():
    # type II product over F5
    phi = phi_product()
    dec = span_decomposition(phi, [1, 0, 0])
    dec = vandermonde_extract(dec, (0, 1, 1))
    out, kind, target = shift_extract(dec, 5)
    assert kind == "product" and target == (0, 1, 1)
    out.validate()

    # square over Q: shift of x2^2 contains x2^2 again
    phiq = elementary(P("x2^2"))
    decq = span_decomposition(phiq, [1, 0, 0])
    decq = vandermonde_extract(decq, (0, 2, 0))
    outq, kindq, targetq = shift_extract(decq, None)
    assert kindq == "square" and targetq == (0, 2, 0)
    outq.validate()

    # shift of (x1+1)(x2+1)^2 contains x1*x2^2 (two variables, char 2)
    lam_m = parse_poly("(x1 + 1)*(x2 + 1)^2", F2, 2)
    assert (1, 2) in lam_m.terms


def test_convert_square():
    phiq = elementary(P("x2^2"))
    dec = span_decomposition(phiq, [1, 0, 0])
    dec = vandermonde_extract(dec, (0, 2, 0))
    dec, _ = unit_normalize(dec)
    out = convert_square(dec)
    assert out.target == P("x1*x2")
    out.validate()
    # over F5 as well
    phi5 = elementary(parse_poly("x2^2", F5, 3))
    dec5 = span_decomposition(phi5, [1, 0, 0])
    dec5 = vandermonde_extract(dec5, (0, 2, 0))
    out5 = convert_square(dec5)
    assert out5.target == parse_poly("x1*x2", F5, 3)
    out5.validate()


def test_convert_square_needs_two_invertible():
    phi2 = elementary(parse_poly("x2^2 + x2^3", F2, 3))
    dec = trivial_decomposition(phi2, Polynomial.zero(F2, 3))
    fake = SpanDecomposition(
        phi2, parse_poly("x2^2", F2, 3), Polynomial.zero(F2, 3), []
    )
    with pytest.raises(NotAUnit):
        convert_square(fake)


def test_convert_cube_over_f4():
    f4 = GaloisField(2, 2)
    # synthetic: target x1^3 with a decomposition by hand is hard; use a map
    # whose image carries x2^3 directly
    phi = elementary(parse_poly("x2^3", f4, 2), nvars=2)
    base = span_decomposition(phi, [1, 0])
    dec = dec_linear_combine(
        [(1, base), (-1, trivial_decomposition(phi, parse_poly("x1", f4, 2)))]
    )
    assert dec.target == parse_poly("x2^3", f4, 2)
    out = convert_cube(dec)
    assert out.target == parse_poly("x1*x2^2", f4, 2)
    out.validate()


def test_compile_last_word_basic():
    phi = phi_product()
    dec = span_decomposition(phi, [1, 0, 0])
    dec = dec_linear_combine(
        [(1, dec), (-1, trivial_decomposition(phi, parse_poly("x1", F5, 3)))]
    )
    assert dec.target == parse_poly("x2*x3", F5, 3)
    word = compile_last_word(dec)
    value = word.evaluate(phi)
    assert value == elementary_last(parse_poly("x2*x3", F5, 3), 4)


def test_compile_last_word_image_itself():
    # decomposition of phi(x1) itself compiles to [phi, shift(x1), phi^-1]
    phi = phi_product()
    dec = span_decomposition(phi, [1, 0, 0])
    word = compile_last_word(dec)
    assert len(word) == 3
    assert type(word.letters[0]) is int and word.letters[0] == 1
    assert isinstance(word.letters[1], AffineMap)
    assert type(word.letters[2]) is int and word.letters[2] == -1
    assert word.evaluate(phi) == elementary_last(phi.images[0], 4)


def test_compile_last_word_scaled_image():
    phi = phi_product()
    dec = span_decomposition(phi, [3, 0, 0])
    word = compile_last_word(dec)
    expected = elementary_last(phi.images[0].scale(F5.of(3)), 4)
    assert word.evaluate(phi) == expected


def test_compile_last_word_affine_only():
    phi = phi_product()
    dec = trivial_decomposition(phi, parse_poly("x1 + 2", F5, 3))
    word = compile_last_word(dec)
    assert len(word) == 1
    assert word.evaluate(phi) == elementary_last(parse_poly("x1 + 2", F5, 3), 4)


def test_compile_last_word_dense_translated_image():
    # phi has five terms, but its image under a translation has 10,001:
    # (x2 + 1)^99 * (x3 + 1)^99 keeps every binomial coefficient mod 101.
    # The bracket fits the evaluator's term limit, which follows the degree
    # of phi, not its term count.
    f101 = PrimeField(101)
    phi = elementary(parse_poly("x2^99*x3^99", f101, 3))
    eta = AffineMap.translation(f101, [0, 1, 1])
    target = eta.apply(phi.images[0])
    assert len(target.terms) == 10_001
    dec = SpanDecomposition(phi, target, Polynomial.zero(f101, 3), [(1, eta, 1)])
    word = compile_last_word(dec)
    assert word.evaluate(phi) == elementary_last(target, 4)


def test_conjugated_seed_words():
    # the seed conjugates realize first-variable shifts by x_i * x_{n+1}
    phi = phi_product()
    from cotame.witness import _seed_from_span
    from cotame.endo import conjugate_word

    seed_dec, seed_kind = _seed_from_span(phi, span_good_scan(phi, 5, 1000), 5)
    assert seed_kind == "product"
    seed_word = compile_last_word(seed_dec)
    assert seed_word.evaluate(phi) == elementary_last(
        parse_poly("x1*x2", F5, 3), 4
    )
    from cotame.endo import swap_perm

    for i in (2, 3):
        sigma = AffineMap.permutation(F5, swap_perm(4, (1, 4), (2, i)))
        conj = conjugate_word(seed_word, sigma)
        expected = elementary(
            Polynomial.monomial(F5, (0,) * (i - 1) + (1,) + (0,) * (3 - i) + (1,), 1),
            nvars=4,
        )
        assert conj.evaluate(phi) == expected


def test_compile_tame_word_targets():
    phi = phi_product()
    from cotame.witness import _seed_from_span

    seed_dec, _ = _seed_from_span(phi, span_good_scan(phi, 5, 1000), 5)
    seed_word = compile_last_word(seed_dec)
    for text in ("3", "2*x3", "x2*x3", "x2^2"):
        f = parse_poly(text, F5, 3)
        word = compile_tame_word(seed_word, "product", f, 3)
        assert word.evaluate(phi) == extend(elementary(f), 1), text


def test_build_witness_end_to_end_examples():
    phi = phi_product()
    for text in ("x2*x3", "x2^2", "x2^2*x3", "x3^3", "x2 + x3^2"):
        f = parse_poly(text, F5, 3)
        word, info = build_witness_with_info(phi, f)
        assert verify_witness(word, phi, f), text


def test_build_witness_type_one_route():
    phi = elementary(P("x2^2"))
    for text in ("x2*x3", "x2^3", "x3^2 + 2*x2"):
        f = P(text)
        word = build_witness(phi, f)
        assert verify_witness(word, phi, f)


def test_build_witness_mutation_fails():
    phi = phi_product()
    f = parse_poly("x2*x3", F5, 3)
    word, _ = build_witness_with_info(phi, f)
    assert verify_witness(word, phi, f)
    from cotame.endo import GeneratorWord

    for drop in (0, len(word) // 2, len(word) - 1):
        mutated = GeneratorWord(
            word.ambient, word.letters[:drop] + word.letters[drop + 1 :]
        )
        assert not verify_witness(mutated, phi, f), drop


def test_verify_witness_empty_word_identity():
    phi = phi_product()
    from cotame.endo import GeneratorWord

    empty = GeneratorWord(4, [])
    assert verify_witness(empty, phi, identity(F5, 3))


def test_build_witness_affine_has_no_route():
    phi = AffineMap.translation(F5, [1, 0, 0]).to_endo()
    with pytest.raises(NoRouteFound):
        build_witness(phi, parse_poly("x2^2", F5, 3))


def test_build_witness_degree_cap():
    phi = phi_product()
    with pytest.raises(ResourceLimit):
        build_witness(phi, parse_poly("x2^5", F5, 3))


def test_build_witness_rejects_x1():
    phi = phi_product()
    with pytest.raises(NoRouteFound):
        build_witness(phi, parse_poly("x1*x2", F5, 3))


def test_cube_route_end_to_end():
    f8 = GaloisField(2, 3)
    phi = elementary(parse_poly("x2^3", f8, 2), nvars=2)
    for text in ("x2^3", "x2^2", "x2^4"):
        f = parse_poly(text, f8, 2)
        word, info = build_witness_with_info(phi, f)
        assert info.seed_kind == "cube"
        assert verify_witness(word, phi, f), text


def test_mixed_cube_seed_from_type_iv():
    # a two-variable map over GF(16) whose second image carries x1*x2^6,
    # an exponent pattern of the (1 mod 4, 2 mod 4) kind
    f16 = GaloisField(2, 4)
    tame1 = elementary(parse_poly("x2^3", f16, 2), nvars=2)
    swap = AffineMap.permutation(f16, [2, 1]).to_endo()
    tame2 = compose(swap, compose(tame1, swap))  # adds x1^3 to x2
    phi = compose(tame1, tame2)
    img = phi.images[1]
    assert (1, 6) in img.terms
    from cotame.classify import good_monomial_type

    assert good_monomial_type((1, 6), 2, 2).tag == "IV"
    f = parse_poly("x2^2", f16, 2)
    word, info = build_witness_with_info(phi, f)
    assert info.seed_kind == "cube"
    phi_inv = compose(invert_structured(tame2), invert_structured(tame1))
    assert compose(phi, phi_inv) == identity(f16, 2)
    assert verify_witness(word, phi, f, phi_inverse=phi_inv)


def test_shift_extract_two_odd_exponents_char_two():
    # x1^3*x2 over GF(8) is case II (two odd exponents): the shift exposes
    # x1*x2, although x1^3 is 3 mod 4 as well
    f8 = GaloisField(2, 3)
    phi = Endomorphism(f8, [parse_poly("x1 + x1^3*x2", f8, 2), parse_poly("x2", f8, 2)])
    dec = vandermonde_extract(span_decomposition(phi, [1, 0]), (3, 1))
    out, kind, target = shift_extract(dec, 8)
    assert kind == "product" and target == (1, 1)
    out.validate()
    seed_dec, seed_kind = normalize_to_seed(out, kind)
    assert seed_kind == "product"
    assert seed_dec.target == parse_poly("x1*x2", f8, 2)


TAME_RINGS = ["Fp:2", "Fp:3", "Fp:5", "GF:2^2", "Q"]


@st.composite
def tame_maps(draw):
    """(phi, phi^-1): a composition of elementary and triangular maps in
    three variables with small non-linear parts, inverted factor by factor."""
    ring = ring_from_spec(draw(st.sampled_from(TAME_RINGS)))
    if ring.is_finite:
        coeff = st.sampled_from([el.value for el in ring.elements()])
    else:
        coeff = st.integers(min_value=-3, max_value=3).map(ring.coerce_value)

    def part(variables):
        # a sum of at most two terms of degree 2 to 4 in the given variables
        terms = {}
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            exps = [0, 0, 0]
            for _ in range(draw(st.integers(min_value=2, max_value=4))):
                exps[draw(st.sampled_from(variables)) - 1] += 1
            terms[tuple(exps)] = draw(coeff)
        return Polynomial(ring, 3, terms)

    x = [Polynomial.variable(ring, 3, i) for i in (1, 2, 3)]
    phi = phi_inverse = identity(ring, 3)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        if draw(st.booleans()):
            factor = elementary(part([2, 3]))
        else:
            factor = Endomorphism(ring, [x[0] + part([2, 3]), x[1] + part([3]), x[2]])
        phi = compose(phi, factor)
        phi_inverse = compose(invert_structured(factor, hint="triangular"), phi_inverse)
    return phi, phi_inverse


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tame_maps())
def test_witness_compiles_every_stably_cotame_verdict(case):
    phi, phi_inverse = case
    assert compose(phi, phi_inverse) == identity(phi.ring, 3)
    target = parse_poly("x2*x3", phi.ring, 3)
    verdict = decide(phi)
    if verdict.answer != "StablyCotame":
        with pytest.raises(NoRouteFound):
            build_witness_with_info(phi, target)
        return
    word, info = build_witness_with_info(phi, target)
    assert info.route == verdict.route
    assert verify_witness(word, phi, target, phi_inverse=phi_inverse)


# one map per route; each build recomputes its decomposition identity once,
# where the seed becomes a word
ROUTE_MAPS = {
    "J-full-theta-F7": (lambda: theta_map(1, F7)[0], "J-full"),
    "J-full-GF9": (lambda: elementary(parse_poly("x2^5", F9, 3)), "J-full"),
    "M-phi-case-a-F5": (phi_product, "M-phi-case-a"),
    "M-phi-case-b-Q": (lambda: elementary(P("x2^2")), "M-phi-case-b"),
    "delta-route-F3": (lambda: elementary(parse_poly("x2^2*x3^2", F3, 3)), "delta-route"),
}


def counted_validations(monkeypatch):
    calls = []
    check = SpanDecomposition.validate

    def counted(dec):
        calls.append(len(dec.terms))
        return check(dec)

    monkeypatch.setattr(SpanDecomposition, "validate", counted)
    return calls


@pytest.mark.parametrize("make, route", ROUTE_MAPS.values(), ids=ROUTE_MAPS)
def test_a_build_checks_its_decomposition_once(monkeypatch, make, route):
    phi = make()
    target = parse_poly("x2*x3", phi.ring, 3)
    calls = counted_validations(monkeypatch)
    _, info = build_witness_with_info(phi, target)
    assert info.route == route
    assert len(calls) == 1


def test_a_large_broken_seed_is_refused(monkeypatch):
    # 2,001 copies of phi(x1) = x1 + x2*x3 sum to phi(x1) over F_5, not to
    # the x1*x2 that a product seed claims
    phi = phi_product()
    ident = AffineMap.identity(F5, 3)
    broken = SpanDecomposition(phi, parse_poly("x1*x2", F5, 3), Polynomial.zero(F5, 3),
                               [(1, ident, 1)] * 2001)
    monkeypatch.setattr(witness, "_seed_from_direct", lambda *_: (broken, "product"))
    calls = counted_validations(monkeypatch)
    with pytest.raises(ValueError, match="decomposition identity failed"):
        build_witness_with_info(phi, parse_poly("x2*x3", F5, 3))
    assert calls == [2001]


ELEMENTARY_RINGS = ["Fp:2", "Fp:3", "Fp:5", "GF:2^2", "Q"]


@st.composite
def elementary_maps(draw):
    """x1 + f(x2, x3), f a sum of at most three terms of degree 2 to 4."""
    ring = ring_from_spec(draw(st.sampled_from(ELEMENTARY_RINGS)))
    if ring.is_finite:
        coeff = st.sampled_from([u.value for u in enumerate_units(ring)])
    else:
        coeff = st.integers(min_value=-3, max_value=3).map(ring.coerce_value)
    exps = st.tuples(st.just(0), st.integers(0, 3), st.integers(0, 3))
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        terms[draw(exps.filter(lambda e: 2 <= sum(e) <= 4))] = draw(coeff)
    return elementary(Polynomial(ring, 3, terms))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(elementary_maps(), st.sampled_from(["x2*x3", "x2^2", "x3^3 + x2"]))
def test_every_route_of_an_elementary_map_gives_a_balanced_word(phi, text):
    verdict = decide(phi)
    if verdict.route is None:
        return
    target = parse_poly(text, phi.ring, 3)
    word, info = build_witness_with_info(phi, target, verdict=verdict)
    assert info.route == verdict.route
    assert verify_witness(word, phi, target)
    assert sum(letter for letter in word.letters if type(letter) is int) == 0
