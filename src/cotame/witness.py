"""Constructive certificates for stable co-tameness.

The central object is SpanDecomposition: an explicit identity

    target = h + sum_j a_j * eta_j(phi(x_i_j))

with eta_j affine maps, certifying that the target lies in the module
generated by 1, the variables, and all affine transforms of phi's
coordinate images.  Only the target and the terms are kept: h is what
validate() leaves, and it must be affine.  Everything downstream is exact
bookkeeping on such identities.  Each route ends in a unit times a target
monomial plus affine terms: a span witness reaches it by scaling
interpolation and the all-ones shift, a difference-operator match by
translation differences of one image (a direct match is the zero-order
case), and two conversions normalize it into a seed that the word
compilers turn into a product of affine letters and phi^{+-1} composing
to a prescribed tame generator.  compile_last_word checks the identity
once, exactly and at any size, and a dumb evaluator re-checks the
compiled word.
"""

from __future__ import annotations

from .classify import (
    degree_condition,
    good_monomial_type,
    target_kind,
    witness_verdict,
)
from .endo import AffineMap, GeneratorWord, conjugate_word, swap_perm
from .errors import DegreeConditionError, NotAUnit, Unsupported
from .linalg import solve_field_system
from .poly import Polynomial, p_power_split
from .rings import distinct_scalars, find_special_unit


def __getattr__(name):
    """delta_search, imported on first access (bench/traced.py wraps it as a
    name of this module), so that loading this module never compiles delta."""
    if name == "delta_search":
        from .delta import delta_search
        return delta_search
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SpanDecomposition:
    """target = h + sum a * eta(phi(x_i)), with h what validate() leaves;
    each a is kept as a raw value of phi's ring."""

    __slots__ = ("phi", "target", "terms")

    def __init__(self, phi, target, terms):
        self.phi = phi
        self.target = target
        self.terms = [(phi.ring.coerce_value(a), eta, i) for a, eta, i in terms]

    def validate(self):
        """h = target - sum a * eta(phi(x_i)), exactly; ValueError unless affine."""
        h = self.target
        for a, eta, i in self.terms:
            if not 1 <= i <= self.phi.nvars:
                raise ValueError(f"image index {i} out of range")
            if eta.n != self.phi.nvars:
                raise ValueError("affine map arity mismatch")
            h = h - eta.apply(self.phi.images[i - 1]).scale(a)
        if not h.is_affine():
            raise ValueError("decomposition identity failed: remainder not affine")
        return h

    def single_monomial(self):
        if len(self.target.terms) != 1:
            raise ValueError("target is not a single monomial")
        ((exps, value),) = self.target.terms.items()
        return exps, value

    def __repr__(self):
        return (
            f"<decomposition of {self.target} with {len(self.terms)} terms>"
        )


def image_decomposition(phi, j):
    """Decomposition of phi(x_j): the one term 1 * phi(x_j)."""
    ring, n = phi.ring, phi.nvars
    return SpanDecomposition(phi, phi.images[j - 1],
                             [(ring.one_value(), AffineMap.identity(ring, n), j)])


def span_decomposition(phi, combo):
    """Decomposition of sum combo_i * phi(x_i)."""
    return dec_linear_combine([(c, image_decomposition(phi, i))
                               for i, c in enumerate(combo, start=1)])


def dec_apply_affine(dec, eta):
    """Decomposition of eta(target): transport the target and every term."""
    new_terms = [(a, eta.compose(eta_j), i) for a, eta_j, i in dec.terms]
    return SpanDecomposition(dec.phi, eta.apply(dec.target), new_terms)


def dec_linear_combine(pairs):
    """Decomposition of sum c * target; terms with equal (eta, i) merge."""
    if not pairs:
        raise ValueError("empty combination")
    phi = pairs[0][1].phi
    ring = phi.ring
    zero = ring.zero_value()
    target = Polynomial.zero(ring, phi.nvars)
    merged = {}  # (eta, i) -> a, in the order each key first comes
    for c, dec in pairs:
        if dec.phi is not phi and dec.phi != phi:
            raise ValueError("all decompositions must be bound to the same map")
        cv = ring.coerce_value(c)
        if cv == zero:
            continue
        target = target + dec.target.scale(cv)
        for a, eta, i in dec.terms:
            merged[eta, i] = ring.add(merged.get((eta, i), zero), ring.mul(cv, a))
    terms = [(a, eta, i) for (eta, i), a in merged.items() if a != zero]
    return SpanDecomposition(phi, target, terms)


def dec_scale(dec, c):
    return dec_linear_combine([(c, dec)])


def dec_less_affine(dec, degrees=(0, 1)):
    """Decomposition of dec.target less its terms of a degree in degrees, 0 or 1;
    dec's terms, merged and nonzero from either builder, pass through."""
    rest = Polynomial(dec.phi.ring, dec.phi.nvars, {
        e: v for e, v in dec.target.terms.items() if sum(e) not in degrees})
    return SpanDecomposition(dec.phi, rest, dec.terms)


# ---------------------------------------------------------------------------
# scaling interpolation: isolate one monomial of a degree-condition element
# ---------------------------------------------------------------------------

def vandermonde_combination(g, monomial):
    """Raw scalars (c_l, alpha_l) with sum c_l * g(alpha_l . x) = a * monomial.

    One variable at a time: writing g as a polynomial in x_v^{p^e}, scaling
    x_v by enough distinct units sets up an invertible power matrix whose
    inverse row picks out the component carrying the monomial.  The support
    exponents alone are tried first; if that generalized matrix is singular
    the full exponent range 0..d is used, which needs sep-degree + 1 units
    and is exactly where the degree condition enters.
    """
    ring = g.ring
    if not ring.is_field:
        raise Unsupported("scaling interpolation needs a base field")
    p = ring.characteristic
    monomial = tuple(monomial)
    if monomial not in g.terms:
        raise ValueError("the requested monomial does not appear")
    zero, one = ring.zero_value(), ring.one_value()
    combos = {(one,) * g.nvars: one}
    current = g
    for v in range(1, g.nvars + 1):
        exps = sorted({e[v - 1] for e in current.terms})
        if exps[-1] == 0:
            continue
        pe = p_power_split(exps, p)
        support = sorted({t // pe for t in exps})
        if len(support) == 1:
            continue
        target_i = monomial[v - 1] // pe
        d = max(support)
        solution = None
        for index_set in (support, list(range(d + 1))):
            k = len(index_set)
            alphas = distinct_scalars(ring, k)
            betas = [ring.pow(a, pe) for a in alphas]
            rows = []
            rhs = []
            for i in index_set:
                rows.append([ring.pow(b, i) for b in betas])
                rhs.append(one if i == target_i else zero)
            solution = solve_field_system(ring, rows, rhs)
            if solution is not None:
                break
        if solution is None:
            raise ValueError("power matrix unexpectedly singular")
        # every vector holds 1 at v, and the alphas are distinct: no two
        # keys collide, and over a field no product of nonzeros is zero
        combos = {
            vec[:v - 1] + (alpha,) + vec[v:]: ring.mul(c, c_l)
            for vec, c in combos.items()
            for c_l, alpha in zip(solution, alphas) if c_l != zero
        }
        current = Polynomial(
            ring,
            g.nvars,
            {
                e: val
                for e, val in current.terms.items()
                if e[v - 1] == monomial[v - 1]
            },
        )
    return [(c, vec) for vec, c in combos.items()]


def vandermonde_extract(dec, monomial):
    """Decomposition of a*monomial from a decomposition of g containing it."""
    ring = dec.phi.ring
    out = dec_linear_combine([
        (c, dec_apply_affine(dec, AffineMap.diagonal(ring, vec)))
        for c, vec in vandermonde_combination(dec.target, monomial)])
    exps, _ = out.single_monomial()
    if exps != tuple(monomial):
        raise ValueError("interpolation did not isolate the requested monomial")
    return out


# ---------------------------------------------------------------------------
# all-ones shift: expose a quadratic or cubic monomial of a good monomial
# ---------------------------------------------------------------------------

def shift_extract(dec, k_size=None):
    """From a*m (m good) to a*u*(x_i x_j | x_i^2 | x_i x_j^2 | x_i^3).

    Applies the all-ones translation and interpolates the case target out
    of the shifted monomial; u collects binomial coefficients and is a
    unit exactly when m is good.
    """
    ring = dec.phi.ring
    n = dec.phi.nvars
    exps, _ = dec.single_monomial()
    gm_type = good_monomial_type(exps, n, ring.characteristic)
    if not gm_type.is_good():
        raise ValueError("not a good monomial")
    target = gm_type.target(n)
    lam = AffineMap.translation(ring, [ring.one_value()] * n)
    shifted = dec_apply_affine(dec, lam)
    if not degree_condition(shifted.target, k_size):
        raise DegreeConditionError(
            "shifted monomial violates the separable degree bound"
        )
    return vandermonde_extract(shifted, target)


# ---------------------------------------------------------------------------
# conversions between quadratic/cubic targets
# ---------------------------------------------------------------------------

def move_monomial(dec, perm):
    """Apply a permutation to relocate the target monomial's variables."""
    ring = dec.phi.ring
    return dec_apply_affine(dec, AffineMap.permutation(ring, perm))


def _power_at_x1(dec, k):
    """(dec, swapped) for a target c*x_i^k: dec moved so that the target
    is c*x1^k, and swapped that under the (1 2)-swap."""
    n = dec.phi.nvars
    exps, _ = dec.single_monomial()
    i = [i for i, t in enumerate(exps, start=1) if t > 0][0]
    if exps[i - 1] != k or sum(exps) != k:
        raise ValueError(f"target must be a single x_i^{k} monomial")
    if i != 1:
        dec = move_monomial(dec, swap_perm(n, (1, i)))
    return dec, move_monomial(dec, swap_perm(n, (1, 2)))


def convert_square(dec):
    """From c*x_i^2 to c*x1*x2; needs 2 invertible.

    Uses the difference of squares under (x1, x2) -> (x1+x2, x1-x2): the
    image of x1^2 - x2^2 is 4*x1*x2.
    """
    ring = dec.phi.ring
    n = dec.phi.nvars
    two = ring.coerce_value(2)
    if not ring.is_unit(two):
        raise NotAUnit("2 must be a unit for the square-to-product conversion")
    dec, swapped = _power_at_x1(dec, 2)
    diff = dec_linear_combine([(1, dec), (-1, swapped)])
    one, zero = ring.one_value(), ring.zero_value()
    A = AffineMap.identity(ring, n).A
    # x1 -> x1 + x2, x2 -> x1 - x2
    A[1][0], A[0][1], A[1][1] = one, one, ring.neg(one)
    eta = AffineMap(ring, A, [zero] * n)
    mixed = dec_apply_affine(diff, eta)
    four_inv = ring.inv(ring.coerce_value(4))
    return dec_scale(mixed, four_inv)


def convert_cube(dec):
    """From c*x_i^3 to c*x1*x2^2 in two variables over characteristic 2.

    x1^3 + x2^3 + (x1+x2)^3 collapses to x1^2*x2 + x1*x2^2; combining with
    its (xi*x1, x2) rescaling leaves xi*(xi+1)*x1*x2^2, and xi*(xi+1) is a
    unit by the choice of xi.
    """
    ring = dec.phi.ring
    n = dec.phi.nvars
    if n != 2 or ring.characteristic != 2:
        raise Unsupported("cube conversion applies to n = 2 in characteristic 2")
    xi = find_special_unit(ring)
    succ = ring.add(xi, ring.one_value())
    dec, swapped = _power_at_x1(dec, 3)
    one, zero = ring.one_value(), ring.zero_value()
    # x1 -> x1 + x2, x2 -> x2
    shear = AffineMap(ring, [[one, zero], [one, one]], [zero, zero], det=one)
    summed = dec_apply_affine(dec, shear)
    both = dec_linear_combine([(1, dec), (1, swapped), (1, summed)])
    scaling = AffineMap.diagonal(ring, [xi, one])
    rescaled = dec_apply_affine(both, scaling)
    combined = dec_linear_combine([(1, rescaled), (ring.mul(xi, xi), both)])
    return dec_scale(combined, ring.inv(ring.mul(xi, succ)))


def _relabel_perm(n, sources, targets):
    """A permutation whose substitution sends x_source -> x_target pairwise."""
    perm = [None] * n
    used = set(targets)
    for s, t in zip(sources, targets):
        perm[s - 1] = t
    rest = iter(v for v in range(1, n + 1) if v not in used)
    return [v if v is not None else next(rest) for v in perm]


def normalize_to_seed(dec):
    """Route a unit times a target monomial to x1*x2 (product seed) or
    x1*x2^2 (cube seed), by the kind of the monomial.

    Returns (dec, seed_kind) with the target coefficient scaled to one.
    """
    ring, n = dec.phi.ring, dec.phi.nvars
    exps, value = dec.single_monomial()
    kind = target_kind(exps)
    if kind is None:
        raise ValueError(f"target {dec.target} is not a seed target")
    dec = dec_scale(dec, ring.inv(value))
    if kind == "product":
        support = [i + 1 for i, t in enumerate(exps) if t > 0]
        i, j = support[0], support[1]
        dec = move_monomial(dec, _relabel_perm(n, [i, j], [1, 2]))
        got, _ = dec.single_monomial()
        if got != tuple(1 if t < 2 else 0 for t in range(n)):
            raise ValueError("product normalization failed")
        return dec, "product"
    if kind == "square":
        return convert_square(dec), "product"
    if kind == "mixed-cube":
        # want exponent pattern (1, 2)
        if exps[0] == 2:
            dec = move_monomial(dec, swap_perm(n, (1, 2)))
        return dec, "cube"
    return convert_cube(dec), "cube"


# ---------------------------------------------------------------------------
# word compilers
# ---------------------------------------------------------------------------

def compile_last_word(dec):
    """A word evaluating to the map that adds dec.target to x_{n+1}.

    The affine part h that validate() leaves is one affine letter; each
    term a*eta(phi(x_i)) becomes eta~ o (phi o shift(a*x_i) o phi^{-1}) o
    eta~^{-1} with eta~ the block extension of eta, since conjugating the
    shift of a*x_i by phi adds a*phi(x_i) to the last variable.
    """
    phi = dec.phi
    ring, n = phi.ring, phi.nvars
    ambient = n + 1
    h = dec.validate()
    letters = []
    if not h.is_zero():
        letters.append(AffineMap.variable_shift(h, ambient, ambient))
    ident = AffineMap.identity(ring, n)
    for a, eta, i in dec.terms:
        shift = AffineMap.variable_shift(
            Polynomial.variable(ring, n, i).scale(a), ambient, ambient
        )
        inner = [1, shift, -1]
        if eta == ident:
            letters.extend(inner)
        else:
            eta_ext = eta.embed(ambient)
            letters += [eta_ext, *inner, eta_ext.inverse()]
    return GeneratorWord(ambient, letters)


def compile_tame_word(seed_word, seed_kind, f, n):
    """A word for the map adding f(x_2..x_n) to x_1, from a seed word.

    seed_kind "product": the seed evaluates to the last-variable shift by
    x1*x2; conjugating by (1,n+1)(2,i) yields the first-variable shift by
    x_i*x_{n+1} and a commutator multiplies any achieved shift by x_i.
    seed_kind "cube" (n = 2 only): the seed shifts by x1*x2^2 and the
    conjugate by (1,3) climbs exponents of x2 in steps of two.
    """
    if f.is_zero():
        return GeneratorWord(n + 1, [])
    ring = f.ring
    ambient = n + 1
    if f.deg_xi(1) > 0:
        raise ValueError("target polynomial must avoid x1")
    tau = AffineMap.permutation(ring, swap_perm(ambient, (1, ambient)))
    # reduce(exps): the exponents one commutator step lower, and the word
    # whose commutator with the lower word's tau-conjugate climbs back
    if seed_kind == "product":
        conj = {
            i: conjugate_word(seed_word, AffineMap.permutation(
                ring, swap_perm(ambient, (1, ambient), (2, i))))
            for i in range(2, n + 1)
        }

        def reduce(exps):
            t = next(t for t in range(1, n) if exps[t])
            return exps[:t] + (exps[t] - 1,) + exps[t + 1:], conj[t + 1]

    elif seed_kind == "cube":
        if n != 2:
            raise ValueError("the cube seed applies to n = 2 only")
        climb = conjugate_word(
            seed_word, AffineMap.permutation(ring, swap_perm(3, (1, 3))))

        def reduce(exps):
            return (0, exps[1] - 2), climb

    else:
        raise ValueError(f"unknown seed kind {seed_kind!r}")
    cache = {}

    def word_for(coeff, exps):
        key = (coeff, exps)
        out = cache.get(key)
        if out is None:
            if sum(exps) <= 1:
                poly = Polynomial.monomial(ring, exps, coeff)
                out = GeneratorWord(
                    ambient, [AffineMap.variable_shift(poly, ambient, 1)]
                )
            else:
                rest, step = reduce(exps)
                hat = conjugate_word(word_for(coeff, rest), tau)
                out = hat + step + hat.inverse() + step.inverse()
            cache[key] = out
        return out

    word = GeneratorWord(ambient, [])
    for exps in f.monomials():
        word = word + word_for(f.terms[exps], exps)
    return word


# ---------------------------------------------------------------------------
# seed construction and the full pipeline
# ---------------------------------------------------------------------------

def _seed_from_span(phi, scan, k_size):
    """(seed decomposition, seed kind) from a span scan that certified J-full.

    Its witnesses are the good monomials of one candidate, with unit
    coefficients over the field.  The lowest is taken: a low-degree good
    monomial needs no shift, so the word stays shorter and avoids
    translation wrappers entirely.
    """
    witness = min(scan.witnesses, key=lambda w: (sum(w.monomial), w.monomial))
    dec = dec_less_affine(span_decomposition(phi, witness.combo), (1,))
    if dec.target != witness.candidate:
        raise ValueError("span witness failed to rebuild")
    extracted = vandermonde_extract(dec, witness.monomial)
    if witness.gm_type.target(phi.nvars) != witness.monomial:
        extracted = shift_extract(extracted, k_size)
    return normalize_to_seed(extracted)


def _seed_from_image(phi, j, l=()):
    """(seed decomposition, seed kind) from phi(x_j), taken through l_i
    unit-step translation differences in each x_i, as delta_search matches
    them: what is left is a unit times a target monomial plus affine terms.
    A direct match is the zero-order delta match."""
    ring, n = phi.ring, phi.nvars
    dec = image_decomposition(phi, j)
    one = Polynomial.constant(ring, n, ring.one_value())
    for i, li in enumerate(l, start=1):
        eta = AffineMap.variable_shift(one, n, i)
        for _ in range(li):
            dec = dec_linear_combine([(1, dec_apply_affine(dec, eta)), (-1, dec)])
    return normalize_to_seed(dec_less_affine(dec))


def build_witness_with_info(verdict, target):
    """(word, seed kind): a generator word evaluating to the tame generator
    epsilon(target), for a verdict of witness_verdict.

    The word lives in n+1 variables; its evaluation against extend(phi, 1)
    equals extend(elementary(target), 1) exactly, where phi is the map the
    verdict decided.  The seed comes from the evidence of the verdict's
    route, so the word certifies that verdict: the span scan and base-field
    size of J-full, else the image and order profile of the certificate.
    """
    evidence, cert = verdict.evidence, verdict.certificate
    phi = evidence["phi"]
    if verdict.route == "J-full":
        seed_dec, seed_kind = _seed_from_span(
            phi, evidence["scan"], evidence["k_size"])
    else:
        seed_dec, seed_kind = _seed_from_image(phi, cert["image"], cert.get("l", ()))
    seed_word = compile_last_word(seed_dec)
    return compile_tame_word(seed_word, seed_kind, target, phi.nvars), seed_kind


def build_witness(phi, target, k_size="auto", max_degree=4):
    verdict = witness_verdict(phi, target, k_size, max_degree=max_degree)
    word, _ = build_witness_with_info(verdict, target)
    return word

