import random

import pytest

from cotame.errors import PolynomialSyntaxError, ZeroPolynomial
from cotame.gf import GaloisField
from cotame.poly import NEG_INF, Polynomial, parse_poly
from cotame.rings import PrimeField, RationalField


Q = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def P(text, ring=Q, nvars=3):
    return parse_poly(text, ring, nvars)


def random_poly(rng, ring, nvars, max_deg=3, max_terms=4):
    out = Polynomial.zero(ring, nvars)
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if ring.is_finite:
            c = rng.randrange(1, ring.order)
            coeff = ring.elements()[c]
        else:
            coeff = ring.of(rng.randint(-4, 4))
        out = out + Polynomial.monomial(ring, exps, coeff)
    return out


def test_arith_examples():
    assert P("(x1 + x2)*(x1 - x2)") == P("x1^2 - x2^2")
    f2 = parse_poly("(x1 + x2)^2", F2, 3)
    assert f2 == parse_poly("x1^2 + x2^2", F2, 3)
    f = P("x1^2*x2 + 3")
    assert f.scale(0).is_zero()


def test_substitute_examples():
    f = P("x1 + x2^2")
    images = [P("x2"), P("x1"), P("x3")]
    assert f.substitute(images) == P("x2 + x1^2")
    g = P("x1*x2*x3 - 2*x2")
    ident = [Polynomial.variable(Q, 3, i) for i in (1, 2, 3)]
    assert g.substitute(ident) == g
    h = P("x1*x2", nvars=2)
    shifted = h.substitute([P("x1 + 1", nvars=2), P("x2 + 1", nvars=2)])
    assert shifted == P("x1*x2 + x1 + x2 + 1", nvars=2)


def test_substitute_changes_variable_count():
    f = P("x1 + x2^2", nvars=2)
    images = [P("x3", nvars=4), P("x4", nvars=4)]
    out = f.substitute(images)
    assert out.nvars == 4 and out == P("x3 + x4^2", nvars=4)


def test_degrees():
    f = P("x1 + x2^3*x1")
    assert f.deg_xi(2) == 3
    assert P("5").deg_xi(1) == 0
    assert P("x1^2*x3^4").total_deg() == 6
    z = Polynomial.zero(Q, 3)
    assert z.deg_xi(1) is NEG_INF and z.total_deg() is NEG_INF
    assert NEG_INF < 0


def test_separable_degree():
    f = parse_poly("x1^9 + x1^3", F3, 1)
    assert f.sep_deg_xi(1) == 3
    g = parse_poly("x1^4 + x1", F3, 1)
    assert g.sep_deg_xi(1) == 4
    assert P("x1^2", nvars=1).sep_deg_xi(1) == 2
    # exponent-0 terms do not block the p-power stripping
    h = parse_poly("x1^9 + 1", F3, 1)
    assert h.sep_deg_xi(1) == 1


def test_separable_degree_frobenius_invariance():
    rng = random.Random(5)
    for _ in range(30):
        g = random_poly(rng, F3, 1, max_deg=5)
        gp = g.substitute([parse_poly("x1^3", F3, 1)])
        if g.is_zero():
            continue
        assert g.sep_deg_xi(1) == gp.sep_deg_xi(1)


def test_weighted_parts():
    f = P("x1 - x3^2")
    assert f.weighted_deg((2, 0, 1)) == 2
    assert f.top_w_part((2, 0, 1)) == f
    h2 = P("x2 - x1^2*(x1 - x3^2)^2")
    assert h2.top_w_part((1, 0, 0)) == P("-x1^4")
    assert h2.top_w_part((0, 0, 1)) == P("-x1^2*x3^4")
    with pytest.raises(ZeroPolynomial):
        Polynomial.zero(Q, 3).weighted_deg((1, 1, 1))


def test_top_part_multiplicative_over_domain():
    rng = random.Random(11)
    for _ in range(25):
        f = random_poly(rng, F5, 2)
        g = random_poly(rng, F5, 2)
        if f.is_zero() or g.is_zero():
            continue
        w = (rng.randint(-2, 3), rng.randint(-2, 3))
        assert (f * g).top_w_part(w) == f.top_w_part(w) * g.top_w_part(w)


def test_substitution_is_ring_homomorphism():
    rng = random.Random(13)
    images = [random_poly(rng, F5, 2) for _ in range(2)]
    for _ in range(20):
        f = random_poly(rng, F5, 2)
        g = random_poly(rng, F5, 2)
        assert (f + g).substitute(images) == f.substitute(images) + g.substitute(
            images
        )
        assert (f * g).substitute(images) == f.substitute(images) * g.substitute(
            images
        )


def test_substitution_associativity():
    rng = random.Random(17)
    for _ in range(10):
        f = random_poly(rng, F5, 2, max_deg=2)
        psi = [random_poly(rng, F5, 2, max_deg=2) for _ in range(2)]
        phi = [random_poly(rng, F5, 2, max_deg=2) for _ in range(2)]
        composed = [g.substitute(phi) for g in psi]
        assert f.substitute(psi).substitute(phi) == f.substitute(composed)


def test_parse_and_print_round_trip():
    f = parse_poly("x1^2*x2 + 3", F5, 3)
    assert len(f.terms) == 2
    rng = random.Random(19)
    for ring in (Q, F5, GaloisField(3, 2)):
        for _ in range(20):
            f = random_poly(rng, ring, 3)
            assert parse_poly(str(f), ring, 3) == f


def test_parse_errors():
    with pytest.raises(PolynomialSyntaxError):
        parse_poly("x4", Q, 3)
    with pytest.raises(PolynomialSyntaxError):
        parse_poly("x1 + + 2", Q, 3)
    with pytest.raises(PolynomialSyntaxError):
        parse_poly("x1 2", Q, 3)


def test_gf_coefficient_literals():
    gf9 = GaloisField(3, 2)
    f = parse_poly("[1,2]*x1 + [0,1]", gf9, 2)
    assert f.coefficient((1, 0)) == gf9.of((1, 2))
    assert parse_poly(str(f), gf9, 2) == f


def test_embed():
    f = P("x1*x2", nvars=2)
    g = f.embed(4)
    assert g.nvars == 4 and g.deg_xi(3) == 0
