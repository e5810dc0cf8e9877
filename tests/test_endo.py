import itertools
import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotame import linalg
from cotame.endo import (
    AffineMap,
    GeneratorWord,
    check_inverse,
    conjugate,
    invert_structured,
    swap_perm,
    try_invert,
)
from cotame.errors import NotAUnit, Unsupported
from cotame.gf import GaloisField
from cotame.maps import (
    Endomorphism,
    IdealHandle,
    compose,
    elementary,
    elementary_last,
    extend,
    identity,
    reduce_mod,
)
from cotame.poly import Polynomial, parse_poly
from cotame.rings import (
    IntegerModRing,
    IntegerRing,
    PrimeField,
    RationalField,
)

Q = RationalField()
F5 = PrimeField(5)
Z6 = IntegerModRing(6)


def P(text, ring=Q, nvars=3):
    return parse_poly(text, ring, nvars)


def test_compose_convention():
    # composing two first-variable shifts adds the shift polynomials
    f, g = P("x2^2"), P("x3 + 2*x2")
    assert compose(elementary(f), elementary(g)) == elementary(f + g)
    phi = elementary(P("x2*x3"))
    ident = identity(Q, 3)
    assert compose(phi, ident) == phi == compose(ident, phi)
    pi = AffineMap.permutation(Q, [2, 1, 3]).to_endo()
    assert compose(pi, pi) == identity(Q, 3)


def test_identity_and_extend():
    phi = elementary(P("x2^2", nvars=2), nvars=2)
    ext = extend(phi, 1)
    assert ext.images[0] == P("x1 + x2^2")
    assert ext.images[2] == P("x3")
    assert extend(identity(Q, 2), 2) == identity(Q, 4)
    psi = elementary(P("x2*x3"))
    for i in range(3):
        assert extend(psi, 1).images[i] == psi.images[i].embed(4)


def test_extend_commutes_with_compose():
    rng = random.Random(3)
    for _ in range(10):
        a = random_tame(rng, F5, 3)
        b = random_tame(rng, F5, 3)
        assert extend(compose(a, b), 2) == compose(extend(a, 2), extend(b, 2))


def test_affine_rejects_singular():
    with pytest.raises(NotAUnit):
        AffineMap(Q, [[1, 1], [1, 1]], [0, 0])
    with pytest.raises(NotAUnit):
        AffineMap(Z6, [[2, 0], [0, 1]], [0, 0])


def test_affine_inverse():
    ones = AffineMap.translation(Q, [1, 1, 1])
    inv = ones.inverse()
    assert inv.to_endo().images[0] == P("x1 - 1")
    m = AffineMap(F5, [[1, 2, 0], [0, 1, 4], [3, 0, 2]], [1, 0, 2])
    assert m.compose(m.inverse()).to_endo() == identity(F5, 3)
    assert m.inverse().compose(m).to_endo() == identity(F5, 3)


def leibniz_det(ring, rows):
    """Oracle: the determinant as a signed sum over all permutations."""
    n = len(rows)
    acc = ring.zero_value()
    for perm in itertools.permutations(range(n)):
        sign = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ring.one_value()
        for i, j in enumerate(perm):
            term = ring.mul(term, rows[i][j])
        acc = ring.add(acc, ring.neg(term) if sign % 2 else term)
    return acc


def cofactor_inverse(ring, A, b):
    """Oracle: A^-1 as the adjugate over det A, and -b A^-1."""
    n = len(A)
    det_inv = ring.inv(leibniz_det(ring, A))
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [v for c, v in enumerate(row) if c != i]
                for r, row in enumerate(A)
                if r != j
            ]
            cof = leibniz_det(ring, minor) if n > 1 else ring.one_value()
            inv[i][j] = ring.mul(det_inv, ring.neg(cof) if (i + j) % 2 else cof)
    shift = [ring.zero_value()] * n
    for j in range(n):
        for t in range(n):
            shift[j] = ring.sub(shift[j], ring.mul(b[t], inv[t][j]))
    return inv, shift


def test_affine_inverse_is_lazy_and_matches_the_adjugate():
    rng = random.Random(11)
    for ring in (Q, Z6, PrimeField(7), GaloisField(3, 2)):
        pool = (
            [ring.coerce_value(v) for v in range(-3, 4)]
            if ring.order is None
            else [ring.index_value(i) for i in range(ring.order)]
        )
        checked = 0
        while checked < 12:
            n = rng.randint(1, 4)
            A = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            b = [rng.choice(pool) for _ in range(n)]
            if not ring.is_unit(leibniz_det(ring, A)):
                with pytest.raises(NotAUnit):
                    AffineMap(ring, A, b)
                continue
            m = AffineMap(ring, A, b)
            assert m._inv is None
            inv = m.inverse()
            assert (inv.A, inv.b) == cofactor_inverse(ring, A, b)
            assert m._inv is not None and m.inverse() == inv
            assert m.inverse() is inv and inv.inverse() is m
            assert m.compose(inv) == AffineMap.identity(ring, n)
            checked += 1


def test_an_affine_inverse_is_built_once(monkeypatch):
    m = AffineMap(GaloisField(3, 2), [[1, 2], [0, 1]], [1, 0])
    calls = []
    charpoly = linalg.charpoly
    monkeypatch.setattr(linalg, "charpoly",
                        lambda ring, a: calls.append(a) or charpoly(ring, a))
    assert m.inverse() is m.inverse() and m.inverse().inverse() is m
    assert len(calls) == 1  # the adjugate's; the letter keeps its determinant
    word = GeneratorWord(2, [m, 1, m.inverse(), -1])
    back = word.inverse()
    assert [back.letters[0], back.letters[2]] == [1, -1]
    assert back.letters[1] is m and back.letters[3] is m.inverse()
    assert back.inverse().letters[0] is m


DET_RINGS = [F5, Z6, GaloisField(2, 2), Q]


def known_det_letters(ring):
    """Letters from every constructor that knows its determinant."""
    units = (list(ring.iter_units()) if ring.is_finite
             else [ring.coerce_value(v) for v in (1, -1, 2, -3)])
    letters = [AffineMap.identity(ring, n) for n in (1, 2, 3)]
    letters += [AffineMap.permutation(ring, list(perm))
                for n in (1, 2, 3, 4) for perm in itertools.permutations(range(1, n + 1))]
    letters += [AffineMap.permutation(ring, [3, 4, 5, 1, 2]),
                AffineMap.permutation(ring, [2, 1, 4, 3, 5])]
    letters += [AffineMap.translation(ring, units[:n]) for n in (1, 2, 3)]
    letters += [AffineMap.diagonal(ring, list(scalars))
                for scalars in itertools.product(units[:4], repeat=2)]
    shift = parse_poly("x2 + 1", ring, 2)
    letters += [AffineMap.variable_shift(shift, ambient, index)
                for ambient in (2, 3) for index in (1, 3)[:ambient - 1]]
    letters += [letter.embed(ambient) for letter in list(letters)
                for ambient in (letter.n, letter.n + 2)]
    last = letters[-1]
    letters += [last.compose(letter.embed(last.n)) for letter in letters
                if letter.n <= last.n]
    letters += [letter.inverse() for letter in letters]
    return letters


@pytest.mark.parametrize("ring", DET_RINGS, ids=repr)
def test_affine_constructors_know_their_determinant(ring, monkeypatch):
    letters = known_det_letters(ring)  # computes nothing by Berkowitz ...
    for letter in letters:
        assert letter.det == linalg.det(ring, letter.A)  # ... which agrees
    monkeypatch.setattr("cotame.endo.matrix_det", None)
    assert len(known_det_letters(ring)) == len(letters)


@pytest.mark.parametrize("ring", DET_RINGS, ids=repr)
def test_affine_readers_compute_their_determinant(ring, monkeypatch):
    calls = []
    monkeypatch.setattr("cotame.endo.matrix_det",
                        lambda ring, a: calls.append(a) or linalg.det(ring, a))
    rows = [[1, 1, 0], [0, 1, 0], [0, 1, 1]]
    m = AffineMap.from_json(ring, {"A": [[str(v) for v in r] for r in rows],
                                   "b": ["0", "1", "0"]}, 3)
    assert AffineMap.from_affine_endo(m.to_endo()) == m
    assert calls == [m.A, m.A] and m.det == ring.one_value()


def test_a_diagonal_letter_checks_its_product():
    assert AffineMap.diagonal(Z6, [5, 5]).det == 1
    with pytest.raises(NotAUnit, match="^matrix determinant 4 is not a unit$"):
        AffineMap.diagonal(Z6, [5, 2])
    with pytest.raises(NotAUnit, match="^matrix determinant 0 is not a unit$"):
        AffineMap.diagonal(Q, [1, 0, 2])
    gf4 = GaloisField(2, 2)
    assert AffineMap.diagonal(gf4, [1, 1]) == AffineMap.identity(gf4, 2)
    assert AffineMap.diagonal(gf4, [1, 1]).det == gf4.one_value()


KERNEL_RINGS = [Q, IntegerRing(), Z6, PrimeField(7), GaloisField(2, 2),
                GaloisField(3, 2)]


def kernel_values(ring):
    """Entries of a kernel test matrix, zero about half the time."""
    if ring.is_finite:
        values = st.sampled_from([ring.index_value(i) for i in range(ring.order)])
    else:
        values = st.integers(-4, 4).map(ring.coerce_value)
    return st.one_of(st.just(ring.zero_value()), values)


@st.composite
def square_matrices(draw):
    ring = draw(st.sampled_from(KERNEL_RINGS))
    n = draw(st.integers(1, 5))
    row = st.lists(kernel_values(ring), min_size=n, max_size=n)
    return ring, draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_determinant_and_adjugate_match_the_leibniz_oracle(case):
    ring, rows = case
    n, zero = len(rows), ring.zero_value()
    det = linalg.det(ring, rows)
    assert det == leibniz_det(ring, rows)
    scalar = [[det if i == j else zero for j in range(n)] for i in range(n)]
    assert linalg.mat_mul(ring, rows, linalg.adjugate(ring, rows)) == scalar


@pytest.mark.parametrize("ring", [PrimeField(7), GaloisField(3, 2), Z6],
                         ids=["F7", "GF9", "Z6"])
def test_dense_12x12_letter_builds_and_inverts_in_under_a_second(ring):
    rng = random.Random(12)
    n, pool = 12, [ring.index_value(i) for i in range(ring.order)]
    units = list(ring.iter_units())
    # lower unitriangular times upper triangular with a unit diagonal
    lower = [[rng.choice(pool) if j < i else ring.coerce_value(int(i == j))
              for j in range(n)] for i in range(n)]
    upper = [[rng.choice(units) if j == i else rng.choice(pool) if j > i
              else ring.zero_value() for j in range(n)] for i in range(n)]
    A = linalg.mat_mul(ring, lower, upper)
    b = [rng.choice(pool) for _ in range(n)]
    assert sum(v != ring.zero_value() for row in A for v in row) > 0.7 * n * n
    start = time.perf_counter()
    m = AffineMap(ring, A, b)
    inv = m.inverse()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert m.compose(inv) == AffineMap.identity(ring, n) == inv.compose(m)


def random_monomial_map(rng, ring, n):
    """A permutation times an invertible diagonal map."""
    units = list(ring.iter_units()) if ring.is_finite else [1, -1]
    if ring is Q:
        units = [1, -1, 2, -3]
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    scaling = AffineMap.diagonal(ring, [rng.choice(units) for _ in range(n)])
    return AffineMap.permutation(ring, perm).compose(scaling)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(KERNEL_RINGS), st.integers(0, 2**32))
def test_monomial_map_apply_matches_substitution(ring, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = random_monomial_map(rng, ring, n)
    terms = {
        tuple(rng.randint(0, 4) for _ in range(n)):
            ring.coerce_value(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 6))
    }
    f = Polynomial(ring, n, terms)
    assert m.apply(f) == f.substitute(m.image_polys())


def test_only_maps_with_a_translation_or_a_mixed_column_substitute(monkeypatch):
    calls = []
    substitute = Polynomial.substitute

    def counting(self, images):
        calls.append(self)
        return substitute(self, images)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    f = P("x1^2*x3 + 2*x2 + 1", F5)
    sigma = random_monomial_map(random.Random(5), F5, 3)
    assert sigma.apply(f) == substitute(f, sigma.image_polys()) and not calls
    for m in (AffineMap.translation(F5, [0, 1, 0]),
              AffineMap(F5, [[1, 0, 0], [1, 1, 0], [0, 0, 1]], [0, 0, 0])):
        m.apply(f)
    assert len(calls) == 2


def test_from_affine_endo_and_is_affine():
    pi = AffineMap.permutation(Q, [2, 1, 3]).to_endo()
    m = AffineMap.from_affine_endo(pi)
    assert m.to_endo() == pi
    assert not elementary(P("x2^2")).is_affine()
    assert pi.is_affine()


def test_conjugation_matches_hand_example():
    # moving the added product x1*x2 with the swap (1,4) relabels it to x2*x4
    phi = elementary_last(P("x1*x2"), 4)
    sigma = AffineMap.permutation(Q, swap_perm(4, (1, 4)))
    conj = conjugate(phi, sigma)
    expected = elementary(parse_poly("x2*x4", Q, 4), nvars=4)
    assert conj == expected


def test_conjugation_hand_example_two():
    phi = elementary_last(P("x1*x2^2", nvars=2), 3)
    sigma = AffineMap.permutation(Q, swap_perm(3, (1, 3)))
    assert conjugate(phi, sigma) == elementary(P("x2^2*x3"), nvars=3)


def test_swap_perm_swaps_pairs_in_turn():
    assert swap_perm(3, (1, 3)) == [3, 2, 1]
    assert swap_perm(4, (1, 4), (2, 2)) == [4, 2, 3, 1]
    assert swap_perm(4, (1, 4), (2, 3)) == [4, 3, 2, 1]
    assert swap_perm(3) == [1, 2, 3]


def test_variable_shift_is_the_elementary_map():
    for text in ("x1 + 2*x2 + 3", "x3", "4"):
        h = P(text, F5, 3)
        shift = AffineMap.variable_shift(h, 4, 4)
        assert shift.to_endo() == elementary_last(h, 4)
    h = parse_poly("x2 + 2*x4 + 1", F5, 4)
    assert AffineMap.variable_shift(h, 4, 1).to_endo() == elementary(h, nvars=4)
    with pytest.raises(ValueError, match="must be affine"):
        AffineMap.variable_shift(P("x2^2", F5, 3), 4, 4)
    with pytest.raises(ValueError, match="must avoid the shifted variable"):
        AffineMap.variable_shift(P("x1 + x2", F5, 3), 4, 2)


def test_triangular_inverse_back_substitution():
    beta = Endomorphism(
        Q,
        [
            P("x1 + x2^2*(x2 + x3^2)^2"),
            P("x2 + x3^2"),
            P("x3"),
        ],
    )
    inv = invert_structured(beta)
    assert inv.images[0] == P("x1 - (x2 - x3^2)^2*x2^2")
    assert inv.images[1] == P("x2 - x3^2")
    assert compose(beta, inv) == identity(Q, 3)
    assert compose(inv, beta) == identity(Q, 3)


def test_elementary_inverse():
    phi = elementary(P("x2^2 + x3"))
    inv = invert_structured(phi)
    assert inv == elementary(-P("x2^2 + x3"))


def test_affine_inverse_consistency():
    m = AffineMap(Q, [[0, 1, 0], [1, 0, 0], [0, 2, 1]], [3, 0, 1])
    via_endo = invert_structured(m.to_endo())
    assert via_endo == m.inverse().to_endo()


def random_affine(rng, ring, n):
    one, zero = ring.one_value(), ring.zero_value()
    lower = [[one if i == j else zero for j in range(n)] for i in range(n)]
    upper = [[one if i == j else zero for j in range(n)] for i in range(n)]
    units = (
        list(ring.iter_units()) if ring.is_finite else [1, -1]
    )
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                lower[j][i] = ring.coerce_value(rng.randint(-2, 2))
            if rng.random() < 0.5:
                upper[i][j] = ring.coerce_value(rng.randint(-2, 2))
    diag = [[zero] * n for _ in range(n)]
    for i in range(n):
        diag[i][i] = ring.coerce_value(rng.choice(units))
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    m = AffineMap(ring, lower, [zero] * n)
    m = m.compose(AffineMap(ring, diag, [ring.coerce_value(rng.randint(-2, 2)) for _ in range(n)]))
    m = m.compose(AffineMap(ring, upper, [zero] * n))
    return m.compose(AffineMap.permutation(ring, perm))


def random_tame(rng, ring, n, max_letters=4, max_deg=2):
    acc = identity(ring, n)
    for _ in range(rng.randint(1, max_letters)):
        if rng.random() < 0.5:
            acc = compose(acc, random_affine(rng, ring, n).to_endo())
        else:
            exps = [0] + [rng.randint(0, max_deg) for _ in range(n - 1)]
            if ring.is_finite:
                c = rng.randrange(1, ring.order)
            else:
                c = rng.choice([1, -1, 2])
            f = Polynomial.monomial(ring, tuple(exps), c)
            acc = compose(acc, elementary(f, nvars=n))
    return acc


def test_word_eval_and_inverse():
    phi = elementary(P("x2*x3"))
    word = GeneratorWord(4, [1, -1])
    assert word.evaluate(phi) == identity(Q, 4)
    assert GeneratorWord(4).evaluate(phi) == identity(Q, 4)
    sigma = AffineMap.permutation(Q, [2, 3, 1, 4])
    w = GeneratorWord(4, [sigma, 1, sigma.inverse()])
    # sigma o phi o sigma^{-1} equals conjugation by sigma^{-1}
    assert w.evaluate(phi) == conjugate(extend(phi, 1), sigma.inverse())


def test_word_inverse_round_trip():
    rng = random.Random(23)
    phi = elementary(P("x2^2", F5, 3), nvars=3)
    phi_inv = invert_structured(phi)
    for _ in range(20):
        letters = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                letters.append(random_affine(rng, F5, 4))
            else:
                letters.append(rng.choice([1, -1]))
        w = GeneratorWord(4, letters)
        value = w.evaluate(phi, phi_inv)
        back = w.inverse().evaluate(phi, phi_inv)
        assert compose(value, back) == identity(F5, 4)
        assert compose(back, value) == identity(F5, 4)


def naive_evaluate(word, phi, phi_inv):
    """Left-to-right composition over every letter, with no bracket memo."""
    phi_ext, inv_ext = extend(phi, 1), extend(phi_inv, 1)
    acc = identity(phi.ring, word.ambient)
    for letter in word.letters:
        if isinstance(letter, AffineMap):
            acc = compose(acc, letter.to_endo())
        else:
            acc = compose(acc, phi_ext if letter == 1 else inv_ext)
    return acc


def shear(b):
    """x4 += x2 plus a translation b, built afresh on every call."""
    A = [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
    return AffineMap(F5, A, b)


def bracket(inner):
    return [1, inner, -1]


def evaluate_counting(monkeypatch, word, phi, phi_inv):
    """word.evaluate(phi, phi_inv) and the number of compose calls it made."""
    from cotame import endo

    calls = []

    def counting_compose(a, b):
        calls.append(1)
        return compose(a, b)

    with monkeypatch.context() as m:
        m.setattr(endo, "compose", counting_compose)
        value = word.evaluate(phi, phi_inv)
    return value, len(calls)


def test_word_memo_matches_naive_composition(monkeypatch):
    phi = elementary(P("x2^2*x3", F5, 3), nvars=3)
    phi_inv = invert_structured(phi)
    sigma = AffineMap.permutation(F5, [1, 3, 2, 4])
    # value-equal inner maps, each from its own construction
    letters = []
    for _ in range(4):
        letters += bracket(shear([0, 0, 1, 0])) + [sigma]
    word = GeneratorWord(4, letters)
    value, calls = evaluate_counting(monkeypatch, word, phi, phi_inv)
    assert value == naive_evaluate(word, phi, phi_inv)
    once = GeneratorWord(4, bracket(shear([0, 0, 1, 0])) + [sigma])
    _, calls_once = evaluate_counting(monkeypatch, once, phi, phi_inv)
    # the bracket is composed once (two calls); each of the three repeats
    # only folds the cached bracket and sigma into the product
    assert calls == calls_once + 3 * 2


def test_word_memo_keeps_distinct_brackets_apart():
    phi = elementary(P("x2^2*x3", F5, 3), nvars=3)
    phi_inv = invert_structured(phi)
    same = GeneratorWord(
        4, bracket(shear([0, 0, 1, 0])) + bracket(shear([0, 0, 1, 0]))
    )
    # the second bracket differs from the first in one translation entry
    differ = GeneratorWord(
        4, bracket(shear([0, 0, 1, 0])) + bracket(shear([0, 0, 2, 0]))
    )
    assert differ.evaluate(phi, phi_inv) == naive_evaluate(differ, phi, phi_inv)
    assert same.evaluate(phi, phi_inv) == naive_evaluate(same, phi, phi_inv)
    assert differ.evaluate(phi, phi_inv) != same.evaluate(phi, phi_inv)


MEMO_RINGS = [F5, GaloisField(2, 2), Z6, IntegerRing(), Q]


def shift(rng, ring, j, ambient=4):
    """An affine map that moves only x_j: to a unit times x_j plus a linear
    form in the other variables and a constant."""
    units = list(ring.iter_units()) if ring.is_finite else [1, -1]
    one, zero = ring.one_value(), ring.zero_value()
    A = [[one if i == k else zero for k in range(ambient)] for i in range(ambient)]
    for i in range(ambient):
        A[i][j - 1] = ring.coerce_value(rng.randint(-2, 2))
    A[j - 1][j - 1] = rng.choice(units)
    b = [zero] * ambient
    b[j - 1] = ring.coerce_value(rng.randint(-2, 2))
    return AffineMap(ring, A, b)


def memo_phi(ring):
    """phi = (x1 + g, x2 - g, x3) and its inverse (x1 - g, x2 + g, x3) for
    g = (x1 + x2)*x3 + x3^2: x1 + x2 is fixed, so the two non-affine images
    of phi^-1 read the same variables and only their index tells them apart."""
    g = "((x1 + x2)*x3 + x3^2)"
    phi, phi_inv = (
        Endomorphism(ring, [P(t, ring) for t in (f"x1 {a} {g}", f"x2 {b} {g}", "x3")])
        for a, b in (("+", "-"), ("-", "+"))
    )
    return phi, check_inverse(phi, phi_inv, "not an inverse")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MEMO_RINGS), st.integers(0, 2**32), st.booleans())
def test_word_memo_matches_naive_evaluation(ring, seed, shifts_only):
    """Brackets that share the images phi^-1 reads, repeated brackets, nested
    brackets and brackets of arbitrary affine maps: the memo changes nothing.
    Every partial product stays far below the term limit: inside sigma, the
    brackets of shifts of x4 multiply to a shift of x4 of degree at most 4,
    and two arbitrary brackets of degree 4 in three variables have at most
    3 * 969 terms."""
    rng = random.Random(seed)
    if shifts_only:
        ambient = 4
        phi, phi_inv = memo_phi(ring)
    else:
        ambient = 3
        phi = elementary(P("x2^2", ring, 2), nvars=2)
        phi_inv = invert_structured(phi)
    sigma = random_affine(rng, ring, ambient)
    letters = [sigma]
    if shifts_only:
        shifts = [shift(rng, ring, 4) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 4)):
            # a fresh copy of a drawn shift repeats its bracket by value only
            a = AffineMap(ring, *rng.choice([(s.A, s.b) for s in shifts]))
            if rng.random() < 0.3:
                letters += [1, a, *bracket(rng.choice(shifts)), a.inverse(), -1]
            else:
                letters += bracket(a)
    else:
        a = random_affine(rng, ring, 3)
        moved = shift(rng, ring, rng.randint(1, 3), ambient=3).to_endo()
        # b is a itself, its inverse, another map, or a with one image moved
        b = rng.choice([a, a.inverse(), random_affine(rng, ring, 3),
                        AffineMap.from_affine_endo(compose(a.to_endo(), moved))])
        letters += bracket(a) + [random_affine(rng, ring, 3)] + bracket(b)
    letters.append(sigma.inverse())
    word = GeneratorWord(ambient, letters)
    assert word.evaluate(phi, phi_inv) == naive_evaluate(word, phi, phi_inv)


def test_theta_word_substitutes_into_the_large_image_once(monkeypatch):
    from cotame.endo import first_mismatch, theta_map
    from cotame.classify import decide
    from cotame.witness import build_witness_with_info

    F7 = PrimeField(7)
    theta, _ = theta_map(1, F7)
    word, _ = build_witness_with_info(decide(theta), P("x2*x3", F7))
    large = extend(theta, 1).images[1]
    assert len(large.terms) == 47
    calls = []
    substitute = Polynomial.substitute

    def counting(self, images):
        if self == large:
            calls.append(1)
        return substitute(self, images)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    # theta is an involution; its six distinct brackets differ only in
    # their image of x4, which theta^-1 = theta reads only in x4's image
    assert first_mismatch(word, theta, P("x2*x3", F7), theta) is None
    assert len(calls) == 1


def test_word_file_builds_each_distinct_letter_once():
    sigma = AffineMap.permutation(F5, [2, 1, 3, 4])
    shear = AffineMap(F5, [[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 3], [0, 0, 0, 4]],
                      [0, 1, 0, 2])
    letters = [sigma, 1, shear, -1, sigma, shear]
    data = json.loads(json.dumps(GeneratorWord(4, letters).to_json()))
    word = GeneratorWord.from_json(F5, data)
    assert word.letters == letters
    first, _, second, _, third, fourth = word.letters
    assert first is third and second is fourth and first is not second
    # an equal value of another JSON type is another entry, with its own error
    data["letters"][0]["b"][2] = 0
    word = GeneratorWord.from_json(F5, data)
    assert word.letters == letters and word.letters[0] is not word.letters[4]
    for other in (0.0, False, None, [0], {"v": 0}):
        data["letters"][4]["b"][2] = other
        message = re.escape(f"matrix entry {other!r} must be")
        with pytest.raises(ValueError, match=message):
            GeneratorWord.from_json(F5, data)
    # a bad entry still ends the load with its own error
    data["letters"][4]["b"][2] = "x"
    with pytest.raises(ValueError, match="bad integer literal 'x'"):
        GeneratorWord.from_json(F5, data)


def test_word_json_round_trip():
    phi = elementary(P("x2*x3", F5, 3), nvars=3)
    sigma = AffineMap.permutation(F5, [2, 1, 3, 4])
    w = GeneratorWord(4, [sigma, 1])
    data = w.to_json()
    w2 = GeneratorWord.from_json(F5, data)
    assert w2.evaluate(phi) == w.evaluate(phi)


letters_over_f5 = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(0, 2**32).map(lambda s: random_affine(random.Random(s), F5, 4)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(letters_over_f5, max_size=8))
def test_word_json_round_trip_gives_back_the_word(letters):
    w = GeneratorWord(4, letters)
    data = w.to_json()
    back = GeneratorWord.from_json(F5, json.loads(json.dumps(data)))
    assert back.ambient == w.ambient and back.letters == w.letters
    assert all(type(a) is type(b) for a, b in zip(back.letters, w.letters))
    assert back.to_json() == data


def test_endo_json_round_trip():
    phi = elementary(P("x2^2 + 2*x3", F5, 3), nvars=3)
    assert Endomorphism.from_json(phi.to_json()) == phi


def test_ideal_handles():
    assert IdealHandle(Z6, [2, 3]).is_full()
    assert not IdealHandle(Z6, [2]).is_full()
    assert not IdealHandle(Z6, []).is_full()
    assert IdealHandle(F5, [3]).is_full()
    from cotame.rings import IntegerRing

    Z = IntegerRing()
    assert IdealHandle(Z, [6, 10]).is_full() is False
    assert IdealHandle(Z, [2, 3]).is_full()
    # the generator of the ideal as a subgroup: one gcd for Z and Z/n
    assert IdealHandle(Z, [-6, 10]).modulus() == 2
    assert IdealHandle(Z, []).modulus() == 0
    assert IdealHandle(Z6, [4]).modulus() == 2
    assert IdealHandle(Z6, []).modulus() == 6


def test_reduce_mod_examples():
    phi = Endomorphism(
        Z6,
        [
            parse_poly("x1 + 3*x2^2", Z6, 2),
            parse_poly("x2 + 4", Z6, 2),
        ],
    )
    reduced = reduce_mod(phi, IdealHandle(Z6, [3]))
    assert reduced.ring == IntegerModRing(3)
    assert reduced.images[0] == parse_poly("x1", IntegerModRing(3), 2)
    affine = AffineMap.translation(Z6, [1, 1]).to_endo()
    assert reduce_mod(affine, IdealHandle(Z6, [2])).is_affine()
    with pytest.raises(Unsupported):
        reduce_mod(phi, IdealHandle(Z6, [1]))


def test_reduce_mod_is_homomorphism():
    rng = random.Random(31)
    ideal = IdealHandle(Z6, [2])
    for _ in range(25):
        a = random_tame(rng, Z6, 2)
        b = random_tame(rng, Z6, 2)
        lhs = reduce_mod(compose(a, b), ideal)
        rhs = compose(reduce_mod(a, ideal), reduce_mod(b, ideal))
        assert lhs == rhs


def test_group_laws_on_random_words():
    rng = random.Random(37)
    for ring in (F5, Q):
        for _ in range(20):
            a = random_tame(rng, ring, 3)
            b = random_tame(rng, ring, 3)
            c = random_tame(rng, ring, 3)
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_try_invert():
    assert try_invert(elementary(P("x2^2"))) is not None
    tuple_map = Endomorphism(Q, [P("x1 + x2^2"), P("x2 + x1^2"), P("x3")])
    assert try_invert(tuple_map) is None


def check_inverse_counting(monkeypatch, phi, inverse):
    """The compose calls check_inverse makes, or None when it raises."""
    from cotame import endo

    calls = []

    def counting_compose(a, b):
        calls.append((a, b))
        return compose(a, b)

    with monkeypatch.context() as m:
        m.setattr(endo, "compose", counting_compose)
        try:
            check_inverse(phi, inverse, "no inverse")
        except ValueError:
            return None
    return calls


def test_check_inverse_composes_both_orders_unless_self_inverse(monkeypatch):
    phi = elementary(P("x2^2*x3", F5, 3), nvars=3)
    phi_inv = invert_structured(phi)
    calls = check_inverse_counting(monkeypatch, phi, phi_inv)
    assert calls == [(phi, phi_inv), (phi_inv, phi)]
    # an involution: phi o phi is both orders at once
    swap = AffineMap.permutation(F5, [2, 1, 3]).to_endo()
    assert check_inverse_counting(monkeypatch, swap, swap) == [(swap, swap)]
    assert check_inverse_counting(monkeypatch, phi, phi) is None
    assert check_inverse_counting(monkeypatch, phi_inv, phi_inv) is None
    wrong = elementary(P("4*x2^2*x3 + 1", F5, 3), nvars=3)
    assert check_inverse_counting(monkeypatch, phi, wrong) is None
