"""Differential tests of the packed kernel.

`Polynomial.__mul__` and `Polynomial.substitute` work on mixed-radix
packed monomials and, over Z, Z/n, F_p and Q, accumulate native sums that
are reduced once per result.  `substitute` evaluates a non-affine f by
Horner's rule over its variables and builds each image power once, by the
cheaper of a pair of built powers or steps from the largest one; an affine f
is a direct linear combination.  The schoolbook loops below work term pair
by term pair with the ring's own operations and serve as the reference;
sympy's `Poly` is an independent second oracle.  Counting the term pairs
that pass through the kernel's one product loop keeps its work on the theta
maps from growing back.
"""

import hashlib
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cotame.poly as poly_module
from cotame.classify import decide
from cotame.endo import theta_map, verify_witness
from cotame.poly import Polynomial, _pack, _powers, _unpack, parse_poly
from cotame.rings import ring_from_spec
from cotame.witness import build_witness_with_info

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
# substitution in four variables: three levels of Horner recursion, image
# powers up to 12, zero images, affine and constant f
# ---------------------------------------------------------------------------

MAX_POWER = 12


def capped_exponents(nvars, total):
    """Exponent tuples of total degree at most `total`, in any order."""

    def cap(entries):
        out, left = [], total
        for e in entries:
            out.append(min(e, left))
            left -= out[-1]
        return out

    return (
        st.lists(st.integers(min_value=0, max_value=total),
                 min_size=nvars, max_size=nvars)
        .map(cap)
        .flatmap(st.permutations)
        .map(tuple)
    )


def four_variable_cases(ring):
    """(f, images): f in 4 variables, general (exponents up to 12), affine
    or constant; 4 images in 1 to 4 variables, of up to 3 terms of degree
    at most 2, any of them possibly zero."""
    nvars = 4
    affine = st.sampled_from(
        [(0,) * nvars] + [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    )
    shapes = {
        "general": capped_exponents(nvars, MAX_POWER),
        "affine": affine,
        "constant": st.just((0,) * nvars),
    }

    def build(args):
        kind, m = args
        f = st.dictionaries(shapes[kind], coefficients(ring), max_size=5).map(
            lambda terms: Polynomial(
                ring, nvars, {e: ring.coerce_value(v) for e, v in terms.items()}
            )
        )
        image = st.dictionaries(
            capped_exponents(m, 2), coefficients(ring), max_size=3
        ).map(
            lambda terms: Polynomial(
                ring, m, {e: ring.coerce_value(v) for e, v in terms.items()}
            )
        )
        return st.tuples(f, st.lists(image, min_size=nvars, max_size=nvars))

    return st.tuples(
        st.sampled_from(["general", "general", "affine", "constant"]),
        st.integers(min_value=1, max_value=4),
    ).flatmap(build)


@pytest.mark.parametrize("spec", RING_SPECS)
def test_substitute_four_variables_matches_schoolbook(spec):
    ring = ring_from_spec(spec)

    @SETTINGS
    @given(four_variable_cases(ring))
    def check(case):
        f, images = case
        value = f.substitute(images)
        assert value == schoolbook_substitute(f, images)
        assert_canonical(value)

    check()


@pytest.mark.parametrize("spec", RING_SPECS)
def test_substitute_zero_image_and_constant_f(spec):
    ring = ring_from_spec(spec)
    images = [
        parse_poly("x1^2 + x2", ring, 2),
        Polynomial.zero(ring, 2),
        parse_poly("x1 + 1", ring, 2),
        parse_poly("x2^2*x1", ring, 2),
    ]
    f = parse_poly("x1^12*x2 + x3^5*x4^2 + x1*x3 + x2^3 + 2", ring, 4)
    value = f.substitute(images)
    assert value == schoolbook_substitute(f, images)
    # the terms with a positive power of x2 vanish
    assert value == parse_poly(
        "(x1 + 1)^5*(x2^2*x1)^2 + (x1^2 + x2)*(x1 + 1) + 2", ring, 2
    )
    constant = parse_poly("3", ring, 4)
    assert constant.substitute(images) == parse_poly("3", ring, 2)
    affine = parse_poly("x1 + 2*x2 + x3 + 1", ring, 4)
    assert affine.substitute(images) == parse_poly("x1^2 + x2 + x1 + 2", ring, 2)


@pytest.mark.parametrize("spec", RING_SPECS)
def test_digit_at_radix_minus_one_beside_a_nonzero_digit(spec):
    ring = ring_from_spec(spec)
    # product: the x1 digit has radix 3 + 4 + 1 = 8, and x1^7*x2 reaches 7
    f = parse_poly("x1^3 + x2", ring, 2)
    g = parse_poly("x1^4*x2 + 1", ring, 2)
    product = f * g
    assert product == schoolbook_mul(f, g)
    assert product.terms.get((7, 1)) == ring.one_value()
    # substitution: radices 1 + 2*3 + 3*1 = 10 for x1 and 1 + 2*1 + 3*2 = 9
    # for x2, reached by x1^9*x2^2 and x1^6*x2^8
    h = parse_poly("x1^2*x2^3", ring, 2)
    images = [parse_poly("x1^3*x2 + 1", ring, 2), parse_poly("x1 + x2^2", ring, 2)]
    value = h.substitute(images)
    assert value == schoolbook_substitute(h, images)
    assert value.terms.get((9, 2)) == ring.one_value()
    assert value.terms.get((6, 8)) == ring.one_value()


@pytest.mark.parametrize(
    "spec, image, chained",
    [
        # 4 terms, g^2 has 10: g^2 * g^2 takes 100 pairs, two steps from
        # g^2 are counted at 2 * 4 * 10 = 80, so g^3 and g^4 are stepped
        ("Q", "x1 + x2 + x3 + x4", True),
        # in characteristic 2, g^2 = x1^2 + x2^2: g^2 * g^2 takes 4 pairs
        ("GF:2^5", "x1 + x2", False),
    ],
)
def test_image_powers_take_the_cheaper_rule(spec, image, chained):
    ring = ring_from_spec(spec)
    g = parse_poly(image, ring, 4)
    radices = [4 * d + 1 for d in poly_module._max_exponents(g.terms)]
    built = _powers(dict(_pack(g.terms, radices)), {4}, ring)
    assert (3 in built) is chained
    for e, packed in built.items():
        assert Polynomial(ring, 4, _unpack(packed, radices)) == schoolbook_pow(g, e)


# ---------------------------------------------------------------------------
# work counts: calls of the kernel's product loop and their term pairs
# ---------------------------------------------------------------------------

THETA2_DIGEST = "7386a8c2de14468309ab8f5b45665463b0674ad2822be71eccf723f62f190a57"


def count_products(monkeypatch):
    """{"calls", "pairs"}: the product-loop calls and their term pairs, from
    now on."""
    counts = {"calls": 0, "pairs": 0}
    product_loop = poly_module._mul_into

    def counting(acc, left, right, ring):
        counts["calls"] += 1
        counts["pairs"] += len(left) * len(right)
        product_loop(acc, left, right, ring)

    monkeypatch.setattr(poly_module, "_mul_into", counting)
    return counts


def test_high_power_of_a_one_term_image_takes_few_products(monkeypatch):
    # the halves of 2^20 are built, so no run of 2^20 single steps is taken
    F7 = ring_from_spec("Fp:7")
    counts = count_products(monkeypatch)
    f = parse_poly(f"x1^{1 << 20}*x2", F7, 2)
    value = f.substitute([parse_poly("3*x2", F7, 2), parse_poly("x1", F7, 2)])
    assert value == Polynomial(F7, 2, {(1, 1 << 20): pow(3, 1 << 20, 7)})
    assert counts["calls"] <= 3 * 21


def test_theta_word_verify_work(monkeypatch):
    F7 = ring_from_spec("Fp:7")
    theta, _ = theta_map(1, F7)
    target = parse_poly("x2*x3", F7, 3)
    word, _ = build_witness_with_info(decide(theta), target)
    assert len(word) == 92
    counts = count_products(monkeypatch)
    # theta is an involution, so it is its own inverse
    assert verify_witness(word, theta, target, phi_inverse=theta)
    # 1.49 M with one packed product per `Polynomial.__mul__` call
    assert counts["pairs"] <= 800_000


def test_theta_n2_work_and_images(monkeypatch):
    counts = count_products(monkeypatch)
    theta, _ = theta_map(2, ring_from_spec("Fp:7"))
    # 13.2 M with one packed product per `Polynomial.__mul__` call
    assert counts["pairs"] <= 2_000_000
    assert [len(img.terms) for img in theta.images] == [757, 39205, 1]
    text = "\n".join(str(img) for img in theta.images)
    assert hashlib.sha256(text.encode()).hexdigest() == THETA2_DIGEST


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


def sympy_substitute(f, images, domain):
    """f(images) as sum c * prod Poly(img_i)^e_i, in sympy's Poly arithmetic
    over the domain (expanding ``subs`` into an expression took up to 17 s
    on some drawn examples)."""
    gens = sympy.symbols(f"x1:{images[0].nvars + 1}")
    powers = [to_sympy(img, domain) for img in images]
    out = sympy.Poly(0, *gens, domain=domain)
    for exps, c in to_sympy(f, domain).terms():
        term = sympy.Poly(c, *gens, domain=domain)
        for image, e in zip(powers, exps):
            term = term * image**e
        out = out + term
    return out


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
        expected = sympy_substitute(f, images, domain)
        assert f.substitute(images) == from_sympy(expected, ring, m)

    check()


@pytest.mark.parametrize("spec", sorted(SYMPY_DOMAINS))
def test_substitute_four_variables_matches_sympy(spec):
    ring = ring_from_spec(spec)
    domain = SYMPY_DOMAINS[spec]

    @SETTINGS
    @given(four_variable_cases(ring))
    def check(case):
        f, images = case
        m = images[0].nvars
        expected = sympy_substitute(f, images, domain)
        assert f.substitute(images) == from_sympy(expected, ring, m)

    check()
