import pytest

from cotame.classify import decide, default_pattern, no_good_monomials, pattern_membership
from cotame.endo import _theta_generators, invert_structured, theta_map, verify_witness
from cotame.errors import ResourceLimit
from cotame.gf import GaloisField
from cotame.maps import compose, identity
from cotame.poly import parse_poly
from cotame.rings import PrimeField, RationalField
from cotame.witness import build_witness_with_info

F7 = PrimeField(7)
F2 = PrimeField(2)
F4 = GaloisField(2, 2)
Q = RationalField()


def theta_inverse(ring, N):
    beta, pi = _theta_generators(ring)
    beta_inv = invert_structured(beta)
    fwd = compose(beta, pi)
    bwd = compose(pi, beta_inv)
    fwd_n, bwd_n = fwd, bwd
    for _ in range(N - 1):
        fwd_n = compose(fwd_n, fwd)
        bwd_n = compose(bwd_n, bwd)
    return compose(compose(bwd_n, pi), fwd_n)


def test_generators_and_inverse():
    beta, pi = _theta_generators(Q)
    assert beta.images[0] == parse_poly("x1 + x2^2*(x2 + x3^2)^2", Q, 3)
    beta_inv = invert_structured(beta)
    assert beta_inv.images[0] == parse_poly("x1 - (x2 - x3^2)^2*x2^2", Q, 3)
    assert compose(beta, beta_inv) == identity(Q, 3)


def test_theta_prime_strips_the_swap():
    theta1, theta1p = theta_map(1, F7)
    _, pi = _theta_generators(F7)
    assert theta1p == compose(theta1, pi)
    beta, pi = _theta_generators(F7)
    beta_inv = invert_structured(beta)
    sigma1 = compose(compose(pi, beta_inv), pi)
    assert theta1p == compose(sigma1, beta)


def test_theta_is_an_automorphism():
    theta1, _ = theta_map(1, F7)
    inv = theta_inverse(F7, 1)
    assert compose(theta1, inv) == identity(F7, 3)
    assert compose(inv, theta1) == identity(F7, 3)


def test_monomial_and_degree_claims_at_n_one():
    _, theta1p = theta_map(1, F7)
    img = theta1p.images[1]
    assert img.terms.get((2, 0, 4)) not in (None, 0)
    for i in (1, 2, 3):
        assert img.deg_xi(i) <= 4


def test_weighted_top_parts_match_the_square_pattern():
    _, theta1p = theta_map(1, F7)
    h2 = parse_poly("x2 - x1^2*(x1 - x3^2)^2", F7, 3)
    for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 1)):
        for i in (1, 2):
            lhs = theta1p.images[i - 1].top_w_part(w)
            rhs = h2.top_w_part(w) ** (4 ** (2 - i))
            assert lhs == rhs or lhs == -rhs, (w, i)


def test_theta_decide_and_witness_over_f7():
    theta1, _ = theta_map(1, F7)
    v = decide(theta1)
    assert v.answer == "StablyCotame"
    target = parse_poly("x2*x3", F7, 3)
    word, _ = build_witness_with_info(v, target)
    assert verify_witness(word, theta1, target, phi_inverse=theta_inverse(F7, 1))


def test_theta_no_good_monomials_char_two():
    pattern = default_pattern(3, 2)
    for ring in (F2, F4):
        for N in (1, 2):
            theta_n, _ = theta_map(N, ring)
            assert no_good_monomials(theta_n), (ring.spec_string(), N)
            for img in theta_n.images:
                assert pattern_membership(img, pattern)


def test_theta_not_stably_cotame_char_two():
    theta1, _ = theta_map(1, F2)
    v = decide(theta1)
    assert v.answer == "NotStablyCotame" and v.reason == "ngg-membership"


def test_resource_guard():
    with pytest.raises(ResourceLimit):
        theta_map(3, Q, max_terms=50)
