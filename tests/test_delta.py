import itertools
import random

import pytest

from cotame.classify import decide
from cotame.endo import AffineMap, try_invert
from cotame.maps import Endomorphism, elementary
from cotame.errors import Unsupported
from cotame.poly import Polynomial, parse_poly
from cotame.rings import PrimeField
from cotame.delta import (
    DeltaSpec,
    _admissible_patterns,
    delta_apply,
    delta_match,
    delta_module_membership,
    delta_power,
    delta_search,
    kernel_generator,
    pattern_exps,
)
from cotame.witness import (
    build_witness_with_info,
    delta_decomposition,
    delta_transport,
    verify_witness,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def random_poly(rng, ring, nvars, max_deg=4, max_terms=4):
    out = Polynomial.zero(ring, nvars)
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        out = out + Polynomial.monomial(ring, exps, rng.randrange(1, ring.order))
    return out


def test_delta_apply_example():
    f = parse_poly("x1^2", F3, 1)
    assert delta_apply(f, 1, F3.of(1)) == parse_poly("2*x1 + 1", F3, 1)


def test_delta_nilpotency():
    rng = random.Random(53)
    for _ in range(20):
        f = random_poly(rng, F3, 2)
        out = f
        for _ in range(3):
            out = delta_apply(out, 1, F3.of(1))
        assert out.is_zero()


def test_delta_degree_drops():
    for d in range(1, 8):
        f = parse_poly(f"x1^{d}", F3, 1)
        out = delta_apply(f, 1, F3.of(1))
        assert out.is_zero() or out.deg_xi(1) < d


def test_deltas_commute():
    rng = random.Random(59)
    for _ in range(15):
        f = random_poly(rng, F3, 2)
        a = delta_apply(delta_apply(f, 1, F3.of(1)), 2, F3.of(2))
        b = delta_apply(delta_apply(f, 2, F3.of(2)), 1, F3.of(1))
        assert a == b


def test_delta_kernel_linearity():
    # delta_i is linear over polynomials fixed by the translation
    rng = random.Random(61)
    q = kernel_generator(F3, 2, 1, F3.of(1))
    assert delta_apply(q, 1, F3.of(1)).is_zero()
    for _ in range(10):
        f = random_poly(rng, F3, 2)
        lhs = delta_apply(q * f, 1, F3.of(1))
        rhs = q * delta_apply(f, 1, F3.of(1))
        assert lhs == rhs


def test_delta_power_spec():
    spec = DeltaSpec.ones(F3, (0, 1, 1))
    f = parse_poly("x2^2*x3^2", F3, 3)
    out = delta_power(f, spec)
    expected = parse_poly("(x2+1)^2*(x3+1)^2 - (x2+1)^2*x3^2 - x2^2*(x3+1)^2 + x2^2*x3^2", F3, 3)
    assert out == expected
    assert out == parse_poly("x2*x3 + 2*x2 + 2*x3 + 1", F3, 3).scale(F3.of(4))


def test_delta_spec_validation():
    with pytest.raises(ValueError):
        DeltaSpec.ones(F3, (3, 0, 0))
    with pytest.raises(Unsupported):
        from cotame.rings import IntegerModRing

        DeltaSpec.ones(IntegerModRing(6), (1, 0))
    with pytest.raises(ValueError):
        DeltaSpec(F3, (1, 1), (F3.zero_value(), F3.one_value()))


def test_module_membership_examples():
    spec = DeltaSpec.ones(F3, (1, 1, 0))
    q1 = kernel_generator(F3, 3, 1, F3.of(1))
    assert delta_module_membership(q1, spec)
    assert delta_module_membership(Polynomial.constant(F3, 3, 2), spec)
    x_l = parse_poly("x1*x2", F3, 3)  # the base monomial x^l
    assert delta_module_membership(parse_poly("x1*x1*x2", F3, 3), spec)
    assert not delta_module_membership(parse_poly("x1*x2*x3", F3, 3) * x_l, spec)


def test_module_membership_rejects_target():
    # x1*x2*x^l is exactly the complement the route extracts
    spec = DeltaSpec.ones(F3, (1, 1, 0))
    target = parse_poly("x1^2*x2^2", F3, 3)
    assert not delta_module_membership(target, spec)


def test_delta_route_product_case():
    phi = elementary(parse_poly("x2^2*x3^2", F3, 3))
    spec = DeltaSpec.ones(F3, (0, 1, 1))
    assert delta_match(phi, spec, 1) == ("product", (2, 3))
    dec = delta_decomposition(phi, spec, 1, (2, 3))
    assert dec.target == parse_poly("x2*x3", F3, 3)
    dec.validate()


def test_delta_route_affine_no_route():
    phi = AffineMap.translation(F3, [1, 0, 0]).to_endo()
    spec = DeltaSpec.ones(F3, (0, 1, 1))
    assert delta_match(phi, spec, 1) is None


def test_delta_route_bad_profile_precondition():
    phi = elementary(parse_poly("x2^2*x3^2", F3, 3))
    spec = DeltaSpec.ones(F3, (2, 1, 1))  # l_1 = p-1 admits no pattern at (1,2)
    with pytest.raises(ValueError):
        delta_match(phi, spec, 1, pair=(1, 2))


def test_delta_search_finds_certificate():
    phi = elementary(parse_poly("x2^2*x3^2", F3, 3))
    found = delta_search(phi)
    assert found is not None
    spec, j, kind, pair = found
    assert delta_match(phi, spec, j) == (kind, pair)
    dec = delta_decomposition(phi, spec, j, pair)
    dec.validate()
    exps, value = dec.single_monomial()
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
    word, info = build_witness_with_info(phi, f)
    assert info.route == "delta-route"
    assert verify_witness(word, phi, f)


# ---------------------------------------------------------------------------
# decide's match (cotame.delta) against witness's decomposition
# ---------------------------------------------------------------------------

def planted_map(rng, ring, n):
    """x1 + unit*x^l*x_u*x_v (x_u^2 for a square) + members of the module
    of delta_module_membership + noise, all in x2..xn; elementary, so a
    word for it can be verified."""
    p = ring.characteristic
    while True:
        l = (0,) + tuple(rng.randrange(p) for _ in range(n - 1))
        patterns = [pat for pat in _admissible_patterns(n, p, l) if 1 not in pat[1]]
        if any(l) and patterns:
            break
    _, pair = rng.choice(patterns)
    added = Polynomial.monomial(ring, pattern_exps(l, pair),
                                rng.randrange(1, ring.order))
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(2, n + 1)
        if l[i - 1]:
            q = kernel_generator(ring, n, i, ring.one_value())
            j = rng.randrange(l[i - 1])  # q_i * x_i^j with j < l_i
            xij = Polynomial.monomial(ring, pattern_exps((0,) * n, (i,) * j))
            added = added + (q * xij).scale(ring.of(rng.randrange(1, ring.order)))
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
    for l in itertools.product(range(p), repeat=n):
        patterns = _admissible_patterns(n, p, l)
        if not any(l) or not patterns:
            continue
        spec = DeltaSpec.ones(ring, l)
        for j, img in enumerate(phi.images, start=1):
            for kind, pair in patterns:
                matched = delta_match(phi, spec, j, pair) is not None
                # the preconditions that decide checks before the differences
                wanted = pattern_exps(l, pair)
                c = img.terms.get(wanted)
                built = (
                    c is not None
                    and ring.is_unit(c)
                    and delta_module_membership(
                        img - Polynomial.monomial(ring, wanted, c), spec)
                )
                if built:
                    transported = delta_transport(phi, spec, j)
                    assert transported.target == delta_power(img, spec)
                    dec = delta_decomposition(phi, spec, j, pair)
                    built = dec is not None
                if built:
                    dec.validate()
                    target = Polynomial.monomial(ring, pattern_exps((0,) * n, pair))
                    assert dec.target == target
                assert matched == built, (l, j, kind, pair)
    verdict = decide(phi)
    if verdict.route == "delta-route":
        spec, j, kind, pair = verdict.evidence["delta"]
        dec = delta_decomposition(phi, spec, j, pair)
        assert verdict.certificate["target"] == str(dec.target)
        assert verdict.certificate["monomial"] == list(pattern_exps(spec.l, pair))
        f = parse_poly("x2*x3" if n > 2 else "x2^2", ring, n)
        word, winfo = build_witness_with_info(phi, f)
        assert winfo.route == "delta-route"
        if try_invert(phi) is not None:  # the random maps are not automorphisms
            assert verify_witness(word, phi, f)
