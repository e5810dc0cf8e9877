"""Differential tests of the packed-exponent product.

`Polynomial.__mul__` packs exponent tuples into ints and, over Z, Z/n and
F_p, reduces raw integer sums once per output term; `substitute` multiplies
each coefficient in as it collects.  The schoolbook loops below work term
pair by term pair with the ring's own operations and serve as the
reference; sympy's `Poly` is an independent second oracle.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cotame.poly import Polynomial, parse_poly
from cotame.rings import ring_from_spec

RING_SPECS = ["Q", "Z", "Zn:6", "Fp:7", "GF:3^2", "GF:2^5"]
# exponents at or above 2^16 need bit fields of 17 bits or more
WIDE = 1 << 16

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def schoolbook_mul(f, g):
    """f * g by the pairwise loop over exponent tuples."""
    ring = f.ring
    zero = ring.zero_value()
    out = {}
    for e1, v1 in f.terms.items():
        for e2, v2 in g.terms.items():
            prod = ring.mul(v1, v2)
            if prod == zero:
                continue
            key = tuple(a + b for a, b in zip(e1, e2))
            s = ring.add(out.get(key, zero), prod)
            if s == zero:
                out.pop(key, None)
            else:
                out[key] = s
    return Polynomial(ring, f.nvars, out)


def schoolbook_pow(f, k):
    acc = Polynomial.constant(f.ring, f.nvars, 1)
    for _ in range(k):
        acc = schoolbook_mul(acc, f)
    return acc


def schoolbook_substitute(f, images):
    """f(images) as the sum of c * prod images[i]^e_i, term by term."""
    ring, m = f.ring, images[0].nvars
    acc = Polynomial.zero(ring, m)
    for exps, v in f.terms.items():
        piece = Polynomial(ring, m, {(0,) * m: v})
        for image, e in zip(images, exps):
            piece = schoolbook_mul(piece, schoolbook_pow(image, e))
        acc = acc + piece
    return acc


def coefficients(ring):
    """Raw values of `ring`, zero included so that products can cancel."""
    if ring.kind == "Q":
        return st.fractions(min_value=-6, max_value=6, max_denominator=4)
    if ring.kind == "Z":
        return st.integers(min_value=-9, max_value=9)
    if ring.kind == "GF":
        return st.tuples(
            *[st.integers(min_value=0, max_value=ring.p - 1)] * ring.e
        )
    return st.integers(min_value=0, max_value=ring.n - 1)


def exponent_tuples(nvars, wide):
    entry = st.integers(min_value=0, max_value=3)
    if wide:
        entry = st.one_of(entry, st.integers(min_value=WIDE, max_value=WIDE + 3))
    return st.tuples(*[entry] * nvars)


def polynomials(ring, nvars, wide=True):
    return st.dictionaries(
        exponent_tuples(nvars, wide), coefficients(ring), max_size=6
    ).map(
        lambda terms: Polynomial(
            ring, nvars, {e: ring.coerce_value(v) for e, v in terms.items()}
        )
    )


def polynomial_pairs(ring, wide=True):
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda nvars: st.tuples(
            polynomials(ring, nvars, wide), polynomials(ring, nvars, wide)
        )
    )


def assert_canonical(f):
    """No stored zero, and every key an exponent tuple of the right length."""
    zero = f.ring.zero_value()
    for exps, v in f.terms.items():
        assert type(exps) is tuple and len(exps) == f.nvars
        assert all(type(e) is int and e >= 0 for e in exps)
        assert v != zero


@pytest.mark.parametrize("spec", RING_SPECS)
def test_product_matches_schoolbook(spec):
    ring = ring_from_spec(spec)

    @SETTINGS
    @given(polynomial_pairs(ring))
    def check(pair):
        f, g = pair
        product = f * g
        assert product == schoolbook_mul(f, g)
        assert_canonical(product)

    check()


@pytest.mark.parametrize("spec", RING_SPECS)
def test_power_matches_schoolbook(spec):
    ring = ring_from_spec(spec)

    @SETTINGS
    @given(polynomial_pairs(ring), st.integers(min_value=0, max_value=4))
    def check(pair, k):
        f = pair[0]
        power = f**k
        assert power == schoolbook_pow(f, k)
        assert_canonical(power)

    check()


@pytest.mark.parametrize("spec", RING_SPECS)
def test_substitute_matches_schoolbook(spec):
    ring = ring_from_spec(spec)

    @SETTINGS
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.tuples(
                polynomials(ring, n, wide=False),
                st.lists(
                    polynomials(ring, 2, wide=False), min_size=n, max_size=n
                ),
            )
        )
    )
    def check(case):
        f, images = case
        value = f.substitute(images)
        assert value == schoolbook_substitute(f, images)
        assert_canonical(value)

    check()


def test_zero_divisors_cancel_in_z6():
    Z6 = ring_from_spec("Zn:6")
    f = parse_poly("2*x1 + 4*x2", Z6, 2)
    g = parse_poly(f"3*x1^{WIDE} + 3", Z6, 2)
    assert (f * g).is_zero() and (f * g).terms == {}
    # 2*3 vanishes while 3*3 survives: only the surviving term is kept
    h = parse_poly("2*x1 + 3", Z6, 2) * parse_poly("3*x2", Z6, 2)
    assert h == parse_poly("3*x2", Z6, 2)
    assert_canonical(h)
    # the same with more than one term on each side
    h = parse_poly("2*x1 + 3", Z6, 2) * parse_poly("3*x2 + 3*x1", Z6, 2)
    assert h == parse_poly("3*x2 + 3*x1", Z6, 2)
    assert_canonical(h)
    # substitute: 2 * (3*x2) vanishes when the coefficient is multiplied in
    s = parse_poly("2*x1 + x2", Z6, 2).substitute(
        [parse_poly("3*x2 + 1", Z6, 2), parse_poly("x1", Z6, 2)]
    )
    assert s == parse_poly("x1 + 2", Z6, 2)
    assert_canonical(s)


def test_wide_exponents_do_not_overflow_fields():
    F7 = ring_from_spec("Fp:7")
    f = parse_poly(f"x1^{WIDE - 1} + x2^{WIDE - 1}", F7, 2)
    square = f * f
    assert square == parse_poly(
        f"x1^{2 * WIDE - 2} + 2*x1^{WIDE - 1}*x2^{WIDE - 1} + x2^{2 * WIDE - 2}",
        F7,
        2,
    )
    # sums up to 256 need nine-bit fields; a carry out of an eight-bit field
    # would land in the neighbouring variable
    g = parse_poly("x1^255 + x2", F7, 2) * parse_poly("x1 + x2^255", F7, 2)
    assert g == schoolbook_mul(
        parse_poly("x1^255 + x2", F7, 2), parse_poly("x1 + x2^255", F7, 2)
    )
    assert g.deg_xi(1) == 256 and g.deg_xi(2) == 256


# ---------------------------------------------------------------------------
# sympy Poly as an independent oracle over GF(7) and QQ
# ---------------------------------------------------------------------------

SYMPY_DOMAINS = {"Fp:7": sympy.GF(7), "Q": sympy.QQ}


def to_sympy(f, domain):
    gens = sympy.symbols(f"x1:{f.nvars + 1}")
    data = {}
    for exps, v in f.terms.items():
        if isinstance(v, Fraction):
            data[exps] = sympy.Rational(v.numerator, v.denominator)
        else:
            data[exps] = int(v)
    if not data:
        return sympy.Poly(0, *gens, domain=domain)
    return sympy.Poly.from_dict(data, *gens, domain=domain)


def from_sympy(poly, ring, nvars):
    terms = {}
    for exps, c in poly.terms():
        if ring.kind == "Q":
            c = sympy.Rational(c)
            terms[exps] = Fraction(int(c.p), int(c.q))
        else:
            terms[exps] = int(c) % ring.n
    if poly.is_zero:
        terms = {}
    return Polynomial(ring, nvars, terms)


@pytest.mark.parametrize("spec", sorted(SYMPY_DOMAINS))
def test_product_and_power_match_sympy(spec):
    ring = ring_from_spec(spec)
    domain = SYMPY_DOMAINS[spec]

    @SETTINGS
    @given(polynomial_pairs(ring, wide=False), st.integers(min_value=0, max_value=4))
    def check(pair, k):
        f, g = pair
        expected = to_sympy(f, domain) * to_sympy(g, domain)
        assert f * g == from_sympy(expected, ring, f.nvars)
        assert f**k == from_sympy(to_sympy(f, domain) ** k, ring, f.nvars)

    check()


@pytest.mark.parametrize("spec", sorted(SYMPY_DOMAINS))
def test_substitute_matches_sympy(spec):
    ring = ring_from_spec(spec)
    domain = SYMPY_DOMAINS[spec]

    @SETTINGS
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        m = data.draw(st.integers(min_value=1, max_value=3))
        f = data.draw(polynomials(ring, n, wide=False))
        images = [data.draw(polynomials(ring, m, wide=False)) for _ in range(n)]
        gens = sympy.symbols(f"x1:{n + 1}")
        expr = to_sympy(f, domain).as_expr().subs(
            {x: to_sympy(img, domain).as_expr() for x, img in zip(gens, images)},
            simultaneous=True,
        )
        expected = sympy.Poly(expr, *sympy.symbols(f"x1:{m + 1}"), domain=domain)
        assert f.substitute(images) == from_sympy(expected, ring, m)

    check()
