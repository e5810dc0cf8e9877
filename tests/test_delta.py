import itertools
import math
import random
import time

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cotame.classify import decide
from cotame.endo import AffineMap, try_invert, verify_witness
from cotame.linalg import solve_field_system
from cotame.maps import Endomorphism, elementary
from cotame.errors import ResourceLimit
from cotame.poly import Polynomial, parse_poly
from cotame.rings import PrimeField, ring_from_spec
from cotame import delta, witness
from cotame.delta import (
    DELTA_WORK,
    _admissible_patterns,
    delta_apply,
    delta_match,
    delta_power,
    delta_search,
    pattern_exps,
)
from cotame.witness import _seed_from_image, build_witness_with_info

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


# ---------------------------------------------------------------------------
# the oracle: membership by one exact linear solve over the module's generators
# ---------------------------------------------------------------------------

def kernel_generator(ring, n, i):
    """x_i^p - x_i, the invariant of the translation x_i -> x_i + 1."""
    p = ring.characteristic
    lead = Polynomial.monomial(
        ring, tuple(p if t == i - 1 else 0 for t in range(n)), ring.one_value()
    )
    return lead - Polynomial.variable(ring, n, i)


def closed_form_membership(f, l):
    """Membership in the module of delta_match, read off delta^l f."""
    return delta_power(f, l).is_affine()


def solved_membership(f, l):
    """Membership in sum_i R x_i x^l + sum_i sum_{j<l_i} A_i x_i^j.

    A_i is generated by the kernel polynomial q_i and the other variables,
    so the module is spanned by x_i*x^l and q_i^s * mu * x_i^j with mu a
    monomial in the remaining variables.  Generators up to deg(f) + p feed
    one exact linear solve over the base field.
    """
    ring, n = f.ring, f.nvars
    p = ring.characteristic
    if f.is_zero():
        return True
    D = f.total_deg() + p
    gens = []
    base_exps = tuple(l)
    # x_0 = 1 alongside the variables
    gens.append(Polynomial.monomial(ring, base_exps, ring.one_value()))
    for i in range(1, n + 1):
        exps = list(base_exps)
        exps[i - 1] += 1
        gens.append(Polynomial.monomial(ring, tuple(exps), ring.one_value()))
    for i in range(1, n + 1):
        q = kernel_generator(ring, n, i)
        q_pows = [Polynomial.constant(ring, n, 1)]
        while len(q_pows) * p <= D:
            q_pows.append(q_pows[-1] * q)
        for j in range(l[i - 1]):
            for s, qp in enumerate(q_pows):
                room = D - s * p - j
                if room < 0:
                    break
                xij = Polynomial.monomial(
                    ring,
                    tuple(j if t == i - 1 else 0 for t in range(n)),
                    ring.one_value(),
                )
                base = qp * xij
                for mu in _monomials_avoiding(n, i, room):
                    gens.append(base * Polynomial.monomial(ring, mu, ring.one_value()))
    monomials = sorted(
        set(f.terms) | {e for g in gens for e in g.terms}
    )
    index = {e: r for r, e in enumerate(monomials)}
    zero = ring.zero_value()
    rows = [[zero] * len(gens) for _ in monomials]
    for c, g in enumerate(gens):
        for e, v in g.terms.items():
            rows[index[e]][c] = v
    rhs = [zero] * len(monomials)
    for e, v in f.terms.items():
        rhs[index[e]] = v
    return solve_field_system(ring, rows, rhs) is not None


def _monomials_avoiding(n, skip_i, max_total):
    """Exponent tuples in the variables other than x_skip_i, total degree bounded."""
    other = [t for t in range(n) if t != skip_i - 1]
    for degs in itertools.product(range(max_total + 1), repeat=len(other)):
        if sum(degs) <= max_total:
            exps = [0] * n
            for t, d in zip(other, degs):
                exps[t] = d
            yield tuple(exps)


def random_poly(rng, ring, nvars, max_deg=4, max_terms=4):
    out = Polynomial.zero(ring, nvars)
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        out = out + Polynomial.monomial(ring, exps, rng.randrange(1, ring.order))
    return out


def test_delta_apply_example():
    f = parse_poly("x1^2", F3, 1)
    assert delta_apply(f, 1) == parse_poly("2*x1 + 1", F3, 1)


def test_delta_nilpotency():
    rng = random.Random(53)
    for _ in range(20):
        f = random_poly(rng, F3, 2)
        out = f
        for _ in range(3):
            out = delta_apply(out, 1)
        assert out.is_zero()


def test_delta_degree_drops():
    for d in range(1, 8):
        f = parse_poly(f"x1^{d}", F3, 1)
        out = delta_apply(f, 1)
        assert out.is_zero() or out.deg_xi(1) < d


def test_deltas_commute():
    rng = random.Random(59)
    for _ in range(15):
        f = random_poly(rng, F3, 2)
        a = delta_apply(delta_apply(f, 1), 2)
        b = delta_apply(delta_apply(f, 2), 1)
        assert a == b


def test_delta_kernel_linearity():
    # delta_i is linear over polynomials fixed by the translation
    rng = random.Random(61)
    q = kernel_generator(F3, 2, 1)
    assert delta_apply(q, 1).is_zero()
    for _ in range(10):
        f = random_poly(rng, F3, 2)
        lhs = delta_apply(q * f, 1)
        rhs = q * delta_apply(f, 1)
        assert lhs == rhs


def test_delta_power_spec():
    f = parse_poly("x2^2*x3^2", F3, 3)
    out = delta_power(f, (0, 1, 1))
    expected = parse_poly("(x2+1)^2*(x3+1)^2 - (x2+1)^2*x3^2 - x2^2*(x3+1)^2 + x2^2*x3^2", F3, 3)
    assert out == expected
    assert out == parse_poly("x2*x3 + 2*x2 + 2*x3 + 1", F3, 3).scale(4)


def test_module_membership_examples():
    l = (1, 1, 0)
    q1 = kernel_generator(F3, 3, 1)
    assert closed_form_membership(q1, l)
    assert closed_form_membership(Polynomial.constant(F3, 3, 2), l)
    x_l = parse_poly("x1*x2", F3, 3)  # the base monomial x^l
    assert closed_form_membership(parse_poly("x1*x1*x2", F3, 3), l)
    assert not closed_form_membership(parse_poly("x1*x2*x3", F3, 3) * x_l, l)


def test_module_membership_rejects_target():
    # x1*x2*x^l is exactly the complement the route extracts
    target = parse_poly("x1^2*x2^2", F3, 3)
    assert not closed_form_membership(target, (1, 1, 0))


ORACLE_RINGS = [
    ring_from_spec(s) for s in ("Fp:2", "Fp:3", "Fp:5", "Fp:7", "GF:2^2", "GF:3^2")
]


@st.composite
def profiled_polys(draw):
    """(f, l): f a few terms with exponents up to p + 1, l_i <= p - 1."""
    ring = draw(st.sampled_from(ORACLE_RINGS))
    p, units = ring.characteristic, list(ring.iter_units())
    n = draw(st.integers(1, 3))
    f = Polynomial.zero(ring, n)
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, p + 1)) for _ in range(n))
        f = f + Polynomial.monomial(ring, exps, draw(st.sampled_from(units)))
    return f, tuple(draw(st.integers(0, p - 1)) for _ in range(n))


def translation_form(f, l):
    """sum over 0 <= k <= l of prod_i (-1)^(l_i - k_i) C(l_i, k_i) * f(x + k),
    each f(x + k) by substitute."""
    ring, n = f.ring, f.nvars
    out = Polynomial.zero(ring, n)
    for k in itertools.product(*(range(li + 1) for li in l)):
        images = [Polynomial.variable(ring, n, i + 1) + Polynomial.constant(ring, n, ki)
                  for i, ki in enumerate(k)]
        c = math.prod((-1) ** (li - ki) * math.comb(li, ki) for li, ki in zip(l, k))
        out = out + f.substitute(images).scale(c)
    return out


@settings(max_examples=60, deadline=None)
@given(profiled_polys())
def test_delta_power_is_the_translation_form(case):
    f, l = case
    assert delta_power(f, l) == translation_form(f, l)


@st.composite
def membership_cases(draw):
    """(f, l): f a sum of x^l, x_i*x^l and q_i^s*x_i^j*mu with j < l_i,
    plus optional noise, so that it is a member or not."""
    ring = draw(st.sampled_from(ORACLE_RINGS))
    p, units = ring.characteristic, list(ring.iter_units())
    n = draw(st.sampled_from((2, 3)))
    # in three variables the orders sum to at most 6, which keeps the
    # oracle's solve to a fraction of a second
    budget = 6 if n == 3 else 2 * (p - 1)
    l = []
    for _ in range(n):
        l.append(draw(st.integers(0, min(p - 1, budget))))
        budget -= l[-1]
    l = tuple(draw(st.permutations(l)))

    def term(exps):
        return Polynomial.monomial(ring, exps, draw(st.sampled_from(units)))

    f = Polynomial.zero(ring, n)
    if draw(st.booleans()):
        f = f + term(l)
    for i in draw(st.lists(st.integers(1, n), max_size=2)):
        f = f + term(pattern_exps(l, (i,)))
    for i in draw(st.lists(st.integers(1, n), max_size=2)):
        if l[i - 1]:
            j = draw(st.integers(0, l[i - 1] - 1))
            mu = term(tuple(j if t == i - 1 else draw(st.integers(0, 1))
                            for t in range(n)))
            q = kernel_generator(ring, n, i)
            f = f + (mu * q if draw(st.booleans()) else mu)
    # noise: x^l times a quadratic monomial, which leaves the module unless
    # the differences lose it, and a monomial near x^l
    if draw(st.booleans()):
        pair = draw(st.lists(st.integers(1, n), min_size=2, max_size=2))
        f = f + term(pattern_exps(l, pair))
    if draw(st.booleans()):
        f = f + term(tuple(draw(st.integers(0, li + 1)) for li in l))
    return f, l


@settings(max_examples=60, deadline=None)
@given(membership_cases())
def test_closed_form_membership_agrees_with_the_solve(case):
    f, l = case
    member = closed_form_membership(f, l)
    event("member" if member else "not a member")
    assert member == solved_membership(f, l)


# membership must not grow with the image's degree or the number of
# variables: a dense solve over the module's generators took 5-9 s on the two
# F_5 maps and allocated without bound on the F_2 one
@pytest.mark.parametrize("added", ["x2^4*x3^3 + x2^9*x3^8", "x2^2*x3^3 + x2^12*x3^7"])
def test_an_exhausted_delta_search_is_fast(added):
    phi = elementary(parse_poly(added, F5, 3))
    start = time.perf_counter()
    verdict = decide(phi)
    assert time.perf_counter() - start < 1
    assert verdict.answer == "Unknown"
    assert "difference-operator search exhausted" in verdict.diagnostics


def test_a_six_variable_delta_route_is_fast_and_verifies():
    phi = elementary(parse_poly("x2*x3*x4*x5*x6 + x2^5*x3^4", F2, 6))
    start = time.perf_counter()
    verdict = decide(phi)
    assert time.perf_counter() - start < 2
    assert verdict.route == "delta-route"
    f = parse_poly("x2*x3", F2, 6)
    word, _ = build_witness_with_info(verdict, f)
    assert verify_witness(word, phi, f)


# ---------------------------------------------------------------------------
# the oracle: the search as it walked all p^n order profiles
# ---------------------------------------------------------------------------

def unit_plus_affine(f, exps):
    """The coefficient of x^exps in f if a unit and the rest of f affine, else None."""
    c = f.terms.get(exps)
    if c is None or not f.ring.is_unit(c):
        return None
    return c if (f - Polynomial.monomial(f.ring, exps, c)).is_affine() else None


def product_order_search(phi):
    """(l, j, pair) of the first match in itertools.product order
    over every order profile, each image and each admissible pattern; a match
    needs the membership of phi(x_j) less its pattern term and differences
    that are a unit times the target plus affine terms."""
    ring, n = phi.ring, phi.nvars
    p = ring.characteristic
    for l in itertools.product(range(p), repeat=n):
        if not any(l):
            continue
        for j, img in enumerate(phi.images, start=1):
            for uv in _admissible_patterns(n, p, l):
                wanted = pattern_exps(l, uv)
                c = img.terms.get(wanted)
                if c is None or not ring.is_unit(c):
                    continue
                rest = img - Polynomial.monomial(ring, wanted, c)
                differences = delta_power(img, l)
                if (closed_form_membership(rest, l) and unit_plus_affine(
                        differences, pattern_exps((0,) * n, uv)) is not None):
                    return l, j, uv
    return None


@st.composite
def searched_maps(draw):
    """Maps with p^n <= 128 whose images are x_j plus a few terms of
    exponents up to p, some of them a planted pattern x^l*x_u*x_v with
    members of the delta-kernel module beside it."""
    ring = draw(st.sampled_from(ORACLE_RINGS))
    p, units = ring.characteristic, list(ring.iter_units())
    n = draw(st.integers(2, max(k for k in range(2, 8) if p**k <= 128)))

    def term(exps):
        return Polynomial.monomial(ring, exps, draw(st.sampled_from(units)))

    images = []
    for j in range(1, n + 1):
        f = Polynomial.variable(ring, n, j)
        for _ in range(draw(st.integers(0, 3))):
            f = f + term(tuple(draw(st.integers(0, p)) for _ in range(n)))
        if draw(st.booleans()):
            l = tuple(draw(st.integers(0, p - 1)) for _ in range(n))
            pair = tuple(sorted(draw(st.lists(st.integers(1, n), min_size=2,
                                              max_size=2))))
            f = f + term(pattern_exps(l, pair))
            i = draw(st.integers(1, n))
            if l[i - 1]:
                q = kernel_generator(ring, n, i)
                f = f + q * term(pattern_exps((0,) * n, (i,) * (l[i - 1] - 1)))
        images.append(f)
    return Endomorphism(ring, images)


@settings(max_examples=80, deadline=None)
@given(searched_maps())
def test_the_search_over_read_profiles_agrees_with_the_product_order_walk(phi):
    found = delta_search(phi)
    expected = product_order_search(phi)
    event("match" if expected else "no match")
    assert found == expected


def test_the_differences_of_an_image_are_taken_once_per_profile(monkeypatch):
    phi = elementary(parse_poly(
        "x2^7*x3 + x2^3*x3^2 + x2^2*x3^3 + 2*x2^3*x3^3 + x2*x3^4", F7, 3))
    images = {id(img): j for j, img in enumerate(phi.images, start=1)}
    calls = []
    power = delta.delta_power

    def counted(f, l, charge=lambda terms: None):
        if len(f.terms) > 1:  # not the pattern monomial: an image, once
            calls.append((l, images.get(id(f))))
        return power(f, l, charge)

    monkeypatch.setattr(delta, "delta_power", counted)
    assert delta_search(phi) is not None
    assert calls and all(j is not None for _, j in calls)  # images alone
    assert len(calls) == len(set(calls))  # each once per profile
    assert not hasattr(delta, "unit_plus_affine")
    assert not hasattr(witness, "unit_plus_affine")


def test_a_map_beyond_the_old_cap_takes_the_delta_route():
    # p^n = 343: the search once refused every map with p^n > 128
    phi = elementary(parse_poly("x2^7*x3 + x2^3*x3^2", F7, 3))
    assert delta_search(phi) == ((0, 1, 2), 1, (2, 2))
    assert decide(phi).route == "delta-route"
    f = parse_poly("x2*x3", F7, 3)
    word, _ = build_witness_with_info(decide(phi), f)
    assert len(word) == 132 and verify_witness(word, phi, f)


def test_the_work_bound_stops_the_search_without_a_verdict():
    # one translation of x2^2400*x3^2400 in x3 expands to 2400 * 2401 terms
    phi = elementary(parse_poly("x2^3*x3^2 + x2^2400*x3^2400", F7, 3))
    with pytest.raises(ResourceLimit, match=f"exceed {DELTA_WORK} terms"):
        delta_search(phi)
    start = time.perf_counter()
    verdict = decide(phi)
    assert time.perf_counter() - start < 1
    assert verdict.answer == "Unknown"
    assert verdict.diagnostics[-1] == (
        "difference-operator search stopped at l = (0, 1, 2): its translations"
        f" exceed {DELTA_WORK} terms"
    )
    assert "difference-operator search exhausted" not in verdict.diagnostics


def test_delta_route_product_case():
    phi = elementary(parse_poly("x2^2*x3^2", F3, 3))
    assert delta_match(phi, (0, 1, 1), 1) == (2, 3)
    seed, kind = _seed_from_image(phi, 1, (0, 1, 1))
    assert kind == "product" and seed.target == parse_poly("x1*x2", F3, 3)
    seed.validate()


def test_delta_route_affine_no_route():
    phi = AffineMap.translation(F3, [1, 0, 0]).to_endo()
    assert delta_match(phi, (0, 1, 1), 1) is None


def test_delta_search_finds_certificate():
    phi = elementary(parse_poly("x2^2*x3^2", F3, 3))
    found = delta_search(phi)
    assert found is not None
    l, j, pair = found
    assert delta_match(phi, l, j) == pair
    seed, _ = _seed_from_image(phi, j, l)
    seed.validate()
    exps, value = seed.single_monomial()
    assert value == F3.one_value()


def test_degree_condition_fails_but_delta_succeeds():
    # the classical span route is silent here: separable degree 2 > 3 - 2
    phi = elementary(parse_poly("x2^2*x3^2", F3, 3))
    from cotame.classify import span_good_scan

    scan = span_good_scan(phi, 3)
    assert not scan.certified_full()
    v = decide(phi)
    assert v.answer == "StablyCotame" and v.route == "delta-route"


def test_delta_route_witness_end_to_end():
    phi = elementary(parse_poly("x2^2*x3^2", F3, 3))
    f = parse_poly("x2*x3", F3, 3)
    verdict = decide(phi)
    word, _ = build_witness_with_info(verdict, f)
    assert verdict.route == "delta-route"
    assert verify_witness(word, phi, f)


# ---------------------------------------------------------------------------
# decide's match (cotame.delta) against witness's decomposition
# ---------------------------------------------------------------------------

def planted_map(rng, ring, n):
    """x1 + unit*x^l*x_u*x_v (x_u^2 for a square) + members of the module
    of delta_match + noise, all in x2..xn; elementary, so a
    word for it can be verified."""
    p = ring.characteristic
    while True:
        l = (0,) + tuple(rng.randrange(p) for _ in range(n - 1))
        patterns = [pair for pair in _admissible_patterns(n, p, l) if 1 not in pair]
        if any(l) and patterns:
            break
    pair = rng.choice(patterns)
    added = Polynomial.monomial(ring, pattern_exps(l, pair),
                                rng.randrange(1, ring.order))
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(2, n + 1)
        if l[i - 1]:
            q = kernel_generator(ring, n, i)
            j = rng.randrange(l[i - 1])  # q_i * x_i^j with j < l_i
            xij = Polynomial.monomial(ring, pattern_exps((0,) * n, (i,) * j))
            added = added + (q * xij).scale(rng.randrange(1, ring.order))
        else:
            added = added + Polynomial.monomial(ring, pattern_exps(l, (i,)), 1)
    if rng.random() < 0.3:
        noise = (0,) + tuple(rng.randint(0, 3) for _ in range(n - 1))
        added = added + Polynomial.monomial(ring, noise, 1)
    return elementary(added)


def random_map(rng, ring, n):
    images = [
        Polynomial.variable(ring, n, j)
        + random_poly(rng, ring, n, max_deg=3, max_terms=3)
        for j in range(1, n + 1)
    ]
    return Endomorphism(ring, images)


def equivalence_maps():
    rng = random.Random(71)
    maps = [
        elementary(parse_poly("x2^2*x3^2", F3, 3)),
        AffineMap.translation(F3, [1, 0, 0]).to_endo(),
    ]
    # a planted pattern avoids x1, which needs a nonzero order beside it
    for ring, n in ((F2, 4), (F3, 3), (F3, 4), (F5, 3)):
        maps += [planted_map(rng, ring, n) for _ in range(3)]
    for ring, n in ((F2, 3), (F3, 2), (F3, 3), (F5, 2), (F5, 3)):
        maps += [random_map(rng, ring, n) for _ in range(2)]
    return maps


EQUIVALENCE_MAPS = equivalence_maps()


@pytest.mark.parametrize(
    "phi", EQUIVALENCE_MAPS,
    ids=[f"{phi.ring}-{k}" for k, phi in enumerate(EQUIVALENCE_MAPS)],
)
def test_delta_match_agrees_with_witness_decomposition(phi):
    ring, n = phi.ring, phi.nvars
    p = ring.characteristic
    x1x2 = Polynomial.monomial(ring, pattern_exps((0,) * n, (1, 2)))  # the seed
    for l in itertools.product(range(p), repeat=n):
        patterns = _admissible_patterns(n, p, l)
        if not any(l) or not patterns:
            continue
        for j, img in enumerate(phi.images, start=1):
            built = []
            for pair in patterns:
                # the preconditions that decide checks before the differences
                wanted = pattern_exps(l, pair)
                c = img.terms.get(wanted)
                if (c is not None and ring.is_unit(c) and closed_form_membership(
                        img - Polynomial.monomial(ring, wanted, c), l)
                        and unit_plus_affine(delta_power(img, l), pattern_exps(
                            (0,) * n, pair)) is not None):
                    seed, seed_kind = _seed_from_image(phi, j, l)
                    seed.validate()
                    assert seed_kind == "product" and seed.target == x1x2
                    built.append(pair)
            # the match is the first admissible pair whose build holds
            assert delta_match(phi, l, j) == (built[0] if built else None), (l, j)
    verdict = decide(phi)
    if verdict.route == "delta-route":
        cert = verdict.certificate
        l, j = tuple(cert["l"]), cert["image"]
        pair = delta_match(phi, l, j)
        assert pair is not None
        (target,) = parse_poly(verdict.certificate["target"], ring, n).terms
        differences = delta_power(phi.images[j - 1], l)
        assert unit_plus_affine(differences, target) is not None
        assert verdict.certificate["monomial"] == list(pattern_exps(l, pair))
        f = parse_poly("x2*x3" if n > 2 else "x2^2", ring, n)
        word, _ = build_witness_with_info(verdict, f)
        if try_invert(phi) is not None:  # the random maps are not automorphisms
            assert verify_witness(word, phi, f)
