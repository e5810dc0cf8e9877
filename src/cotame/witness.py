"""Constructive certificates for stable co-tameness.

The central object is SpanDecomposition: an explicit identity

    target = h + sum_j a_j * eta_j(phi(x_i_j))

with h affine and eta_j affine maps, certifying that the target lies in
the module generated by 1, the variables, and all affine transforms of
phi's coordinate images.  Everything downstream is exact bookkeeping on
such identities: scaling interpolation isolates one monomial, the
all-ones shift exposes a quadratic or cubic monomial, two conversions
normalize it, and the word compilers turn the final decomposition into a
product of affine letters and phi^{+-1} that composes to a prescribed
tame generator.  The identity is checked once, where it becomes a word:
compile_last_word recomputes it exactly, at any size.  The compiled word
is re-checked by a dumb evaluator.
"""

from __future__ import annotations

from .classify import (
    NO_ROUTE,
    _strip_linear,
    check_witness_target,
    decide,
    degree_condition,
    good_monomial_type,
    resolve_k_size,
    target_kind,
)
# delta_search is re-exported for bench/traced.py, which wraps it here; decide
# calls it from cotame.delta, so that wrap never fires
from .delta import delta_search, pattern_exps, unit_plus_affine
from .endo import (
    AffineMap,
    GeneratorWord,
    conjugate_word,
    invert_structured,
    swap_perm,
    verify_witness,  # re-exported: the verifier lives in endo
)
from .errors import (
    DegreeConditionError,
    NoRouteFound,
    NotAUnit,
    ResourceLimit,
    Unsupported,
)
from .linalg import solve_field_system
from .maps import Endomorphism, compose
from .poly import Polynomial, p_power_split
from .rings import Record, RingElement, distinct_scalars, find_special_unit

class SpanDecomposition:
    """target = affine_part + sum a * eta(phi(x_i)), recomputable exactly."""

    __slots__ = ("phi", "target", "affine_part", "terms")

    def __init__(self, phi, target, affine_part, terms):
        self.phi = phi
        self.target = target
        self.affine_part = affine_part
        self.terms = [
            (a if isinstance(a, RingElement) else RingElement(phi.ring, a), eta, i)
            for a, eta, i in terms
        ]

    def validate(self):
        """Recompute the right-hand side exactly; ValueError unless it is target."""
        if not self.affine_part.is_affine():
            raise ValueError("affine part has degree > 1")
        acc = self.affine_part
        for a, eta, i in self.terms:
            if not 1 <= i <= self.phi.nvars:
                raise ValueError(f"image index {i} out of range")
            if eta.n != self.phi.nvars:
                raise ValueError("affine map arity mismatch")
            acc = acc + eta.apply(self.phi.images[i - 1]).scale(a)
        if acc != self.target:
            raise ValueError("decomposition identity failed to revalidate")
        return True

    def single_monomial(self):
        if len(self.target.terms) != 1:
            raise ValueError("target is not a single monomial")
        ((exps, value),) = self.target.terms.items()
        return exps, value

    def to_json(self):
        return {
            "target": str(self.target),
            "affine_part": str(self.affine_part),
            "terms": [
                {
                    "a": self.phi.ring.format_value(a.value),
                    "eta": eta.to_json(),
                    "i": i,
                }
                for a, eta, i in self.terms
            ],
        }

    def __repr__(self):
        return (
            f"<decomposition of {self.target} with {len(self.terms)} terms>"
        )


def trivial_decomposition(phi, affine_poly):
    """An affine polynomial needs no image terms at all."""
    return SpanDecomposition(phi, affine_poly, affine_poly, [])


def span_decomposition(phi, combo, linear=None):
    """Decomposition of sum combo_i * phi(x_i) + linear, built from scratch."""
    ring, n = phi.ring, phi.nvars
    zero = ring.zero_value()
    h = linear if linear is not None else Polynomial.zero(ring, n)
    ident = AffineMap.identity(ring, n)
    terms = []
    target = h
    for i, c in enumerate(combo, start=1):
        cv = ring.coerce_value(c.value if isinstance(c, RingElement) else c)
        if cv == zero:
            continue
        terms.append((RingElement(ring, cv), ident, i))
        target = target + phi.images[i - 1].scale(RingElement(ring, cv))
    return SpanDecomposition(phi, target, h, terms)


def dec_apply_affine(dec, eta):
    """Decomposition of eta(target): transport every piece through eta."""
    new_target = eta.apply(dec.target)
    new_affine = eta.apply(dec.affine_part)
    new_terms = [(a, eta.compose(eta_j), i) for a, eta_j, i in dec.terms]
    return SpanDecomposition(dec.phi, new_target, new_affine, new_terms)


def dec_linear_combine(pairs):
    """Decomposition of sum c * target; terms with equal (eta, i) merge."""
    if not pairs:
        raise ValueError("empty combination")
    phi = pairs[0][1].phi
    ring = phi.ring
    n = phi.nvars
    zero = ring.zero_value()
    target = Polynomial.zero(ring, n)
    affine = Polynomial.zero(ring, n)
    merged = {}
    order = []
    for c, dec in pairs:
        if dec.phi is not phi and dec.phi != phi:
            raise ValueError("all decompositions must be bound to the same map")
        cv = ring.coerce_value(c.value if isinstance(c, RingElement) else c)
        if cv == zero:
            continue
        ce = RingElement(ring, cv)
        target = target + dec.target.scale(ce)
        affine = affine + dec.affine_part.scale(ce)
        for a, eta, i in dec.terms:
            key = (eta, i)
            prev = merged.get(key)
            contrib = ring.mul(cv, a.value)
            if prev is None:
                merged[key] = contrib
                order.append(key)
            else:
                merged[key] = ring.add(prev, contrib)
    terms = []
    for key in order:
        v = merged[key]
        if v != zero:
            terms.append((RingElement(ring, v), key[0], key[1]))
    return SpanDecomposition(phi, target, affine, terms)


def dec_scale(dec, c):
    return dec_linear_combine([(c, dec)])


# ---------------------------------------------------------------------------
# scaling interpolation: isolate one monomial of a degree-condition element
# ---------------------------------------------------------------------------

def vandermonde_combination(g, monomial):
    """Scalars (c_l, alpha_l) with sum c_l * g(alpha_l . x) = a * monomial.

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
    combos = {tuple(ring.one_value() for _ in range(g.nvars)): ring.one_value()}
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
            betas = [(a**pe).value for a in alphas]
            rows = []
            rhs = []
            for i in index_set:
                rows.append([ring.pow(b, i) for b in betas])
                rhs.append(
                    ring.one_value() if i == target_i else ring.zero_value()
                )
            solution = solve_field_system(ring, rows, rhs)
            if solution is not None:
                break
        if solution is None:
            raise ValueError("power matrix unexpectedly singular")
        zero = ring.zero_value()
        new_combos = {}
        for vec, c in combos.items():
            for c_l, alpha in zip(solution, alphas):
                if c_l == zero:
                    continue
                coeff = ring.mul(c, c_l)
                if coeff == zero:
                    continue
                new_vec = list(vec)
                new_vec[v - 1] = ring.mul(new_vec[v - 1], alpha.value)
                key = tuple(new_vec)
                acc = ring.add(new_combos.get(key, zero), coeff)
                if acc == zero:
                    new_combos.pop(key, None)
                else:
                    new_combos[key] = acc
        combos = new_combos
        current = Polynomial(
            ring,
            g.nvars,
            {
                e: val
                for e, val in current.terms.items()
                if e[v - 1] == monomial[v - 1]
            },
        )
    return [
        (RingElement(ring, c), tuple(RingElement(ring, s) for s in vec))
        for vec, c in combos.items()
    ]


def vandermonde_extract(dec, monomial):
    """Decomposition of a*monomial from a decomposition of g containing it."""
    ring = dec.phi.ring
    combos = vandermonde_combination(dec.target, monomial)
    pairs = []
    for c, vec in combos:
        diagonal = AffineMap.diagonal(ring, [s.value for s in vec])
        pairs.append((c, dec_apply_affine(dec, diagonal)))
    out = dec_linear_combine(pairs)
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
    out = vandermonde_extract(shifted, target)
    return out, target_kind(target), target


# ---------------------------------------------------------------------------
# conversions between quadratic/cubic targets
# ---------------------------------------------------------------------------

def _single_variable_of(exps):
    support = [i for i, t in enumerate(exps) if t > 0]
    return support[0] + 1


def unit_normalize(dec):
    """Scale so that the single-monomial target has coefficient one."""
    exps, value = dec.single_monomial()
    ring = dec.phi.ring
    return dec_scale(dec, RingElement(ring, ring.inv(value))), exps


def move_monomial(dec, perm):
    """Apply a permutation to relocate the target monomial's variables."""
    ring = dec.phi.ring
    return dec_apply_affine(dec, AffineMap.permutation(ring, perm))


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
    exps, _ = dec.single_monomial()
    i = _single_variable_of(exps)
    if exps[i - 1] != 2 or sum(exps) != 2:
        raise ValueError("target must be a single x_i^2 monomial")
    if i != 1:
        dec = move_monomial(dec, swap_perm(n, (1, i)))
    swapped = move_monomial(dec, swap_perm(n, (1, 2)))
    diff = dec_linear_combine([(1, dec), (-1, swapped)])
    one, zero = ring.one_value(), ring.zero_value()
    A = AffineMap.identity(ring, n).A
    # x1 -> x1 + x2, x2 -> x1 - x2
    A[1][0], A[0][1], A[1][1] = one, one, ring.neg(one)
    eta = AffineMap(ring, A, [zero] * n)
    mixed = dec_apply_affine(diff, eta)
    four_inv = ring.inv(ring.coerce_value(4))
    return dec_scale(mixed, RingElement(ring, four_inv))


def convert_cube(dec, xi=None):
    """From c*x_i^3 to c*x1*x2^2 in two variables over characteristic 2.

    x1^3 + x2^3 + (x1+x2)^3 collapses to x1^2*x2 + x1*x2^2; combining with
    its (xi*x1, x2) rescaling leaves xi*(xi+1)*x1*x2^2, and xi*(xi+1) is a
    unit by the choice of xi.
    """
    ring = dec.phi.ring
    n = dec.phi.nvars
    if n != 2 or ring.characteristic != 2:
        raise Unsupported("cube conversion applies to n = 2 in characteristic 2")
    if xi is None:
        xi = find_special_unit(ring)
    xi_v = ring.coerce_value(xi.value if isinstance(xi, RingElement) else xi)
    succ = ring.add(xi_v, ring.one_value())
    if not (ring.is_unit(xi_v) and ring.is_unit(succ)):
        raise NotAUnit("need xi and xi+1 both invertible")
    exps, _ = dec.single_monomial()
    i = _single_variable_of(exps)
    if exps[i - 1] != 3 or sum(exps) != 3:
        raise ValueError("target must be a single x_i^3 monomial")
    if i != 1:
        dec = move_monomial(dec, swap_perm(n, (1, i)))
    swapped = move_monomial(dec, swap_perm(n, (1, 2)))
    one, zero = ring.one_value(), ring.zero_value()
    # x1 -> x1 + x2, x2 -> x2
    shear = AffineMap(ring, [[one, zero], [one, one]], [zero, zero])
    summed = dec_apply_affine(dec, shear)
    both = dec_linear_combine([(1, dec), (1, swapped), (1, summed)])
    scaling = AffineMap.diagonal(ring, [xi_v, one])
    rescaled = dec_apply_affine(both, scaling)
    combined = dec_linear_combine(
        [(1, rescaled), (RingElement(ring, ring.mul(xi_v, xi_v)), both)]
    )
    factor = ring.inv(ring.mul(xi_v, succ))
    return dec_scale(combined, RingElement(ring, factor))


def _relabel_perm(n, sources, targets):
    """A permutation whose substitution sends x_source -> x_target pairwise."""
    perm = [None] * n
    used = set(targets)
    for s, t in zip(sources, targets):
        perm[s - 1] = t
    rest = iter(v for v in range(1, n + 1) if v not in used)
    return [v if v is not None else next(rest) for v in perm]


def normalize_to_seed(dec, kind):
    """Route any extracted target to x1*x2 (product seed) or x1*x2^2 (cube seed).

    Returns (dec, seed_kind) with the target coefficient scaled to one.
    """
    n = dec.phi.nvars
    dec, exps = unit_normalize(dec)
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
    if kind == "pure-cube":
        converted = convert_cube(dec)
        return converted, "cube"
    raise ValueError(f"unknown target kind {kind!r}")


# ---------------------------------------------------------------------------
# word compilers
# ---------------------------------------------------------------------------

def compile_last_word(dec):
    """A word evaluating to the map that adds dec.target to x_{n+1}.

    The affine part is one affine letter; each term a*eta(phi(x_i)) becomes
    eta~ o (phi o shift(a*x_i) o phi^{-1}) o eta~^{-1} with eta~ the block
    extension of eta, since conjugating the shift of a*x_i by phi adds
    a*phi(x_i) to the last variable.
    """
    phi = dec.phi
    ring, n = phi.ring, phi.nvars
    ambient = n + 1
    dec.validate()
    letters = []
    if not dec.affine_part.is_zero():
        letters.append(AffineMap.variable_shift(dec.affine_part, ambient, ambient))
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
                poly = Polynomial.monomial(ring, exps, RingElement(ring, coeff))
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

class WitnessInfo(Record):
    __slots__ = _fields = ("route", "seed_kind", "seed_dec")

    def __init__(self, route, seed_kind, seed_dec):
        self.route, self.seed_kind, self.seed_dec = route, seed_kind, seed_dec


def _seed_from_span(phi, scan, k_size):
    """(seed decomposition, seed kind) from a span scan that certified J-full;
    None when no witness coefficient is a unit, which needs a non-field."""
    ring, n = phi.ring, phi.nvars
    # low-degree good monomials first: they need no shift, so the resulting
    # words stay shorter and avoid translation wrappers entirely
    witnesses = sorted(
        scan.witnesses, key=lambda w: (sum(w.monomial), w.monomial)
    )
    negated_linear_parts = [_strip_linear(img) - img for img in phi.images]
    for witness in witnesses:
        if not witness.coefficient.is_unit():
            continue
        linear = Polynomial.zero(ring, n)
        for c, part in zip(witness.combo, negated_linear_parts):
            linear = linear + part.scale(c)
        dec = span_decomposition(phi, witness.combo, linear=linear)
        if dec.target != witness.candidate:
            raise ValueError("span witness failed to rebuild")
        extracted = vandermonde_extract(dec, witness.monomial)
        target = witness.gm_type.target(n)
        if target != witness.monomial:
            extracted, _, _ = shift_extract(extracted, k_size)
        return normalize_to_seed(extracted, target_kind(target))
    return None


def _seed_from_direct(phi, found):
    """(seed decomposition, seed kind) from an image unit*m + affine."""
    ring, n = phi.ring, phi.nvars
    j = found["image"]
    monomial = Polynomial.monomial(
        ring, found["monomial"], RingElement(ring, found["coefficient"])
    )
    affine_rest = phi.images[j - 1] - monomial
    base = span_decomposition(phi, _unit_vector(ring, n, j))
    dec = dec_linear_combine(
        [(1, base), (-1, trivial_decomposition(phi, affine_rest))]
    )
    return normalize_to_seed(dec, target_kind(found["monomial"]))


def _unit_vector(ring, n, j):
    vec = [ring.zero_value()] * n
    vec[j - 1] = ring.one_value()
    return vec


def build_witness_with_info(
    phi,
    target,
    k_size="auto",
    budget=200000,
    seed=0,
    max_degree=4,
    delta_limit=128,
    verdict=None,
):
    """Compile a generator word evaluating to the tame generator epsilon(target).

    The word lives in n+1 variables; its evaluation against extend(phi, 1)
    equals extend(elementary(target), 1) exactly.  The seed comes from the
    evidence of decide's route, so the word certifies decide's verdict.  A
    caller that has already decided with these settings passes the verdict.
    """
    ring, n = phi.ring, phi.nvars
    check_witness_target(phi, target, max_degree)
    if verdict is None:
        verdict = decide(
            phi, k_size=k_size, budget=budget, seed=seed, delta_limit=delta_limit
        )
    evidence = verdict.evidence
    found = None
    if verdict.route == "J-full":
        ksz = resolve_k_size(ring, k_size)
        found = _seed_from_span(phi, evidence["scan"], ksz)
    elif verdict.route == "delta-route":
        spec, j, kind, pair = evidence["delta"]
        found = normalize_to_seed(delta_decomposition(phi, spec, j, pair), kind)
    elif verdict.route is not None:
        found = _seed_from_direct(phi, evidence["direct"])
    if found is None:
        raise NoRouteFound(NO_ROUTE)
    seed_dec, seed_kind = found
    if seed_kind == "cube" and n != 2:
        raise NoRouteFound("cube seed arose outside n = 2")
    seed_word = compile_last_word(seed_dec)
    word = compile_tame_word(seed_word, seed_kind, target, n)
    return word, WitnessInfo(verdict.route, seed_kind, seed_dec)


def build_witness(phi, target, k_size="auto", **kwargs):
    word, _ = build_witness_with_info(phi, target, k_size=k_size, **kwargs)
    return word


# ---------------------------------------------------------------------------
# difference operators: the decomposition behind a delta_match
# ---------------------------------------------------------------------------

def delta_transport(phi, spec, j):
    """Decomposition of delta_power(phi(x_j), spec): each difference is the
    decomposition transported by the translation minus itself."""
    ring, n = phi.ring, phi.nvars
    dec = span_decomposition(phi, _unit_vector(ring, n, j))
    for i, (li, ai) in enumerate(zip(spec.l, spec.a), start=1):
        eta = AffineMap.variable_shift(Polynomial.constant(ring, n, ai), n, i)
        for _ in range(li):
            moved = dec_apply_affine(dec, eta)
            dec = dec_linear_combine([(1, moved), (-1, dec)])
    return dec


def delta_decomposition(phi, spec, j, pair):
    """Decomposition of x_u*x_v (x_u^2 when u == v), coefficient one, from the
    differences of phi(x_j) less their affine rest; None if they are not so."""
    ring, n = phi.ring, phi.nvars
    dec = delta_transport(phi, spec, j)
    target = pattern_exps((0,) * n, pair)
    c = unit_plus_affine(dec.target, target)
    if c is None:
        return None
    rest = dec.target - Polynomial.monomial(ring, target, c)
    dec = dec_linear_combine([(1, dec), (-1, trivial_decomposition(phi, rest))])
    return dec_scale(dec, RingElement(ring, ring.inv(c)))


# ---------------------------------------------------------------------------
# the swap-conjugate gallery
# ---------------------------------------------------------------------------

def _theta_generators(ring):
    n = 3
    x1 = Polynomial.variable(ring, n, 1)
    x2 = Polynomial.variable(ring, n, 2)
    x3 = Polynomial.variable(ring, n, 3)
    bump = x2 + x3 * x3
    beta = Endomorphism(ring, [x1 + (x2 * x2) * (bump * bump), bump, x3])
    pi = AffineMap.permutation(ring, [2, 1, 3]).to_endo()
    return beta, pi


def theta_map(N, ring, max_terms=2_000_000):
    """The swap conjugated by N rounds of the triangular map and the swap.

    Returns (theta, theta_prime) where theta_prime = theta o swap strips
    the trailing transposition.  Exact composition with a term-count guard.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    beta, pi = _theta_generators(ring)
    beta_inv = invert_structured(beta, hint="triangular")
    forward = compose(beta, pi)
    backward = compose(pi, beta_inv)

    def guarded(a, b):
        out = compose(a, b)
        size = sum(len(img.terms) for img in out.images)
        if size > max_terms:
            raise ResourceLimit(
                f"theta composition grew to {size} terms (limit {max_terms})"
            )
        return out

    fwd_n = forward
    bwd_n = backward
    for _ in range(N - 1):
        fwd_n = guarded(fwd_n, forward)
        bwd_n = guarded(bwd_n, backward)
    theta = guarded(bwd_n, guarded(pi, fwd_n))
    theta_prime = guarded(theta, pi)
    return theta, theta_prime
