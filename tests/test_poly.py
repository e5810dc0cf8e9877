import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotame.errors import PolynomialSyntaxError
from cotame.gf import GaloisField
from cotame.poly import NEG_INF, Polynomial, p_power_split, parse_poly
from cotame.rings import PrimeField, RationalField, ring_from_spec


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
            coeff = ring.index_value(c)
        else:
            coeff = ring.coerce_value(rng.randint(-4, 4))
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


def per_exponent_split(exponents, p):
    """Oracle: the least p-adic valuation over the positive exponents."""
    positive = [t for t in exponents if t > 0]
    if not positive or p == 0:
        return 1
    vmin = None
    for t in positive:
        v = 0
        while t % p == 0:
            t //= p
            v += 1
        vmin = v if vmin is None else min(vmin, v)
    return p**vmin


@given(st.sampled_from([0, 2, 3, 5, 7]),
       st.lists(st.one_of(st.just(0), st.integers(0, 3**9),
                          st.builds(lambda a, b, e: a * b**e, st.integers(1, 50),
                                    st.sampled_from([2, 3, 5, 7]), st.integers(0, 8))),
                max_size=6))
@settings(max_examples=300, deadline=None)
def test_p_power_split_matches_the_per_exponent_loop(p, exponents):
    assert p_power_split(exponents, p) == per_exponent_split(exponents, p)


@given(st.integers(-10**30, 10**30), st.sampled_from([Q, F3, GaloisField(2, 2)]),
       st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_zero_polynomial_degrees_are_neg_inf(k, ring, i):
    z = Polynomial.zero(ring, 3)
    assert z.deg_xi(i) is NEG_INF
    assert z.total_deg() is NEG_INF
    assert z.sep_deg_xi(i) is NEG_INF
    assert NEG_INF < k and not NEG_INF >= k
    assert repr(NEG_INF) == "-inf"
    # deg(fg) = deg f + deg g, also with a zero factor
    f = Polynomial.monomial(ring, (i, 0, 1))
    assert (z * f).total_deg() == z.total_deg() + f.total_deg()


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


SUM_800 = "(" + " + ".join(f"x1^{i}" for i in range(800)) + ")"
DEEP = "(" * 101 + "x1" + ")" * 101

# (text, ring, n, exception type, message, position): what the parser
# raised before it built monomials directly, for each of its guards
FROZEN_ERRORS = [
    ("", "Q", 3, "PolynomialSyntaxError", "unexpected end of input (at position 0)", 0),
    ("   ", "Q", 3, "PolynomialSyntaxError", "unexpected end of input (at position 3)", 3),
    ("x4", "Q", 3, "PolynomialSyntaxError", "variable x4 outside x1..x3 (at position 2)", 2),
    ("x0 + 1", "Q", 3, "PolynomialSyntaxError", "variable x0 outside x1..x3 (at position 2)", 2),
    ("x-1", "Q", 3, "PolynomialSyntaxError", "variable x-1 outside x1..x3 (at position 3)", 3),
    ("x007 * 2", "Fp:7", 3, "PolynomialSyntaxError",
     "variable x7 outside x1..x3 (at position 4)", 4),
    ("x1 + + 2", "Q", 3, "PolynomialSyntaxError", "unexpected character '+' (at position 5)", 5),
    ("x1 2", "Q", 3, "PolynomialSyntaxError", "unexpected trailing input '2' (at position 3)", 3),
    ("x1 ** 2", "Z", 3, "PolynomialSyntaxError", "unexpected character '*' (at position 4)", 4),
    ("(x1 + x2", "Q", 3, "PolynomialSyntaxError", "expected ')' (at position 8)", 8),
    ("x1^", "Q", 3, "PolynomialSyntaxError", "expected an integer (at position 3)", 3),
    ("x1^x2", "Q", 3, "PolynomialSyntaxError", "expected an integer (at position 3)", 3),
    ("x1^-2", "Q", 3, "PolynomialSyntaxError", "negative exponent (at position 5)", 5),
    ("(x1 + 1)^ - 2", "Z", 2, "PolynomialSyntaxError", "expected an integer (at position 11)", 11),
    ("x1*-", "Fp:5", 2, "PolynomialSyntaxError", "expected an integer (at position 4)", 4),
    ("x1*- 2", "Fp:5", 2, "PolynomialSyntaxError", "expected an integer (at position 4)", 4),
    ("2 a", "Q", 2, "PolynomialSyntaxError", "unexpected trailing input 'a' (at position 2)", 2),
    ("x", "Q", 2, "PolynomialSyntaxError", "expected an integer (at position 1)", 1),
    ("[1,2", "GF:3^2", 2, "PolynomialSyntaxError", "unterminated '[' (at position 4)", 4),
    ("[1,2,3]*x1", "GF:3^2", 2, "PolynomialSyntaxError",
     "coefficient vector too long (at position 0)", 0),
    ("[1,x]", "GF:3^2", 2, "PolynomialSyntaxError", "bad integer literal 'x' (at position 0)", 0),
    ("x1 + [1]", "Fp:7", 2, "PolynomialSyntaxError",
     "bad integer literal '[1]' (at position 5)", 5),
    ("1/0*x1", "Q", 2, "PolynomialSyntaxError", "zero denominator (at position 0)", 0),
    ("x1 - 3/4/5", "Q", 2, "PolynomialSyntaxError",
     "unexpected trailing input '/5' (at position 8)", 8),
    ("1/2*x1", "Z", 2, "PolynomialSyntaxError", "bad integer literal '1/2' (at position 0)", 0),
    ("x1 + 2/", "Q", 2, "PolynomialSyntaxError", "expected an integer (at position 7)", 7),
    # integers are ASCII digits: a superscript two is no digit
    ("x\u00b2", "Q", 2, "PolynomialSyntaxError", "expected an integer (at position 1)", 1),
    ("x1^2\u00b2", "Z", 2, "PolynomialSyntaxError",
     "unexpected trailing input '\u00b2' (at position 4)", 4),
    ("x1 + \u00b2", "Fp:7", 2, "PolynomialSyntaxError",
     "unexpected character '\u00b2' (at position 5)", 5),
    # no integer of more digits than Python prints is read or made
    ("3^10000", "Z", 1, "ResourceLimit", "a coefficient exceeds the 4300-digit limit", None),
    ("7" * 4301, "Z", 1, "ResourceLimit",
     "a literal of 4301 digits exceeds the 4300-digit limit", None),
    ("x1*10^4300 + 1", "Q", 1, "ResourceLimit",
     "a coefficient exceeds the 4300-digit limit", None),
    ("(1/3)^9100*x1", "Q", 1, "ResourceLimit",
     "a coefficient exceeds the 4300-digit limit", None),
    ("x1^" + "1" * 4301, "Fp:7", 1, "ResourceLimit",
     "a literal of 4301 digits exceeds the 4300-digit limit", None),
    ("x1^1048577", "Q", 2, "ResourceLimit", "exponent 1048577 exceeds the limit 1048576", None),
    ("2^1048577", "Fp:7", 2, "ResourceLimit", "exponent 1048577 exceeds the limit 1048576", None),
    ("x1^2^1048577", "Z", 2, "ResourceLimit",
     "exponent 1048577 exceeds the limit 1048576", None),
    ("9^400000", "Z", 2, "ResourceLimit",
     "a power may have 1200000-bit coefficients (limit 1048576)", None),
    ("x1*(1/9)^400000", "Q", 2, "ResourceLimit",
     "a power may have 1200000-bit coefficients (limit 1048576)", None),
    ("(4*x1)^600000", "Z", 2, "ResourceLimit",
     "a power may have 1200000-bit coefficients (limit 1048576)", None),
    ("x2 + (x1*16)^300000", "Q", 2, "ResourceLimit",
     "a power may have 1200000-bit coefficients (limit 1048576)", None),
    ("(x1 + x2 + x3)^200", "Fp:7", 3, "ResourceLimit",
     "a power takes 27685860 term products (limit 500000)", None),
    ("(x1 + 1)^1048576", "Zn:6", 2, "ResourceLimit",
     "a power takes 366505973095 term products (limit 500000)", None),
    ("(x1 + x2)^2000", "Q", 2, "ResourceLimit",
     "a power takes 1656818 term products (limit 500000)", None),
    (SUM_800 + "*" + SUM_800, "Fp:7", 1, "ResourceLimit",
     "a product takes 640000 term products (limit 500000)", None),
    (DEEP, "Q", 1, "PolynomialSyntaxError",
     "parentheses nest deeper than 100 (at position 100)", 100),
    ("x1 + " + DEEP, "Q", 1, "PolynomialSyntaxError",
     "parentheses nest deeper than 100 (at position 105)", 105),
]


@pytest.mark.parametrize("text, spec, nvars, kind, message, position", FROZEN_ERRORS)
def test_parse_errors_are_unchanged(text, spec, nvars, kind, message, position):
    with pytest.raises(Exception) as info:
        parse_poly(text, ring_from_spec(spec), nvars)
    assert type(info.value).__name__ == kind
    assert str(info.value) == message
    assert getattr(info.value, "position", None) == position


@pytest.mark.parametrize("text, spec, nvars, canonical", [
    ("- -2*x1", "Q", 2, "2*x1"),
    ("2*3*x1 + x2", "Zn:6", 2, "x2"),
    ("x1^2^3", "Fp:7", 2, "x1^6"),
    ("0^0 + x2", "Z", 2, "x2 + 1"),
    ("(x1)^0*x2", "Q", 2, "x2"),
    (" x 1 ^ 2 *\tx2 ", "Q", 2, "x1^2*x2"),
    ("2^10*x1 - 1024*x1", "Z", 2, "0"),
    ("(x1 + x2)*(x1 - x2)", "Zn:6", 2, "x1^2 + 5*x2^2"),
    ("[1,2]*x1^2*[2,1] + [0,1]", "GF:3^2", 2, "[0,2]*x1^2 + [0,1]"),
    ("1/2*x1 - 3/4 + 1/4", "Q", 2, "1/2*x1 - 1/2"),
    ("-(x1 - 2)^2", "Z", 2, "-1*x1^2 + 4*x1 - 4"),
    ("x1*2^3*(x2 + 1)*x1", "Fp:5", 2, "3*x1^2*x2 + 3*x1^2"),
    ("3^100", "Z", 1, "515377520732011331036461129765621272702107522001"),
    ("3^1000000", "Fp:7", 1, "4"),
    ("x1^1048576^1048576", "Q", 1, "x1^1099511627776"),
    ("10^4300 - 1", "Z", 1, "9" * 4300),
])
def test_parse_accepts_as_before(text, spec, nvars, canonical):
    assert str(parse_poly(text, ring_from_spec(spec), nvars)) == canonical


def ring_values(ring):
    if ring.kind == "Q":
        return st.fractions(min_value=-20, max_value=20, max_denominator=12)
    if ring.kind == "Z":
        return st.integers(min_value=-100, max_value=100)
    if ring.kind == "GF":
        return st.tuples(*[st.integers(0, ring.p - 1)] * ring.e)
    return st.integers(0, ring.n - 1)


def ring_polynomials(ring):
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 1 << 20))
    return st.integers(0, 3).flatmap(lambda n: st.dictionaries(
        st.tuples(*[exponent] * n), ring_values(ring), max_size=6,
    ).map(lambda terms: Polynomial(
        ring, n, {e: ring.coerce_value(v) for e, v in terms.items()})))


@pytest.mark.parametrize("spec", ["Q", "Z", "Zn:6", "Fp:7", "GF:3^2", "GF:2^5"])
def test_parse_inverts_str(spec):
    ring = ring_from_spec(spec)

    @settings(max_examples=60, deadline=None)
    @given(ring_polynomials(ring))
    def check(f):
        assert parse_poly(str(f), ring, f.nvars) == f

    check()


def test_gf_coefficient_literals():
    gf9 = GaloisField(3, 2)
    f = parse_poly("[1,2]*x1 + [0,1]", gf9, 2)
    assert f.terms.get((1, 0)) == gf9.coerce_value((1, 2))
    assert parse_poly(str(f), gf9, 2) == f


def test_embed():
    f = P("x1*x2", nvars=2)
    g = f.embed(4)
    assert g.nvars == 4 and g.deg_xi(3) == 0
