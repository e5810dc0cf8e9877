"""The difference-operator route, as decide matches it: iterated translation
differences of one image.  Module membership is read off the differences in
closed form (``delta_module_membership``), the order profiles off the terms
of the images, and a bound on the translated terms stops a search too large.
The decomposition behind a match is builder work in ``witness``; decide
loads this module only to search."""

from __future__ import annotations

import itertools

from .errors import ResourceLimit, Unsupported
from .poly import Polynomial
from .rings import Record, is_prime

# the terms that the translations of one search may expand images to
DELTA_WORK = 200_000


class DeltaSpec(Record):
    """Profile for iterated translation differences: orders l_i, steps a_i."""

    __slots__ = _fields = ("ring", "l", "a")

    def __init__(self, ring, l, a):
        self.ring, self.l, self.a = ring, l, a
        if not is_prime(p := ring.characteristic):
            raise Unsupported("difference operators need prime characteristic")
        if len(l) != len(a):
            raise ValueError("order and step vectors must have equal length")
        if any(not 0 <= li <= p - 1 for li in l):
            raise ValueError("orders must satisfy 0 <= l_i <= p-1")
        if not all(ring.is_unit(ring.coerce_value(av)) for av in a):
            raise ValueError("step values must be units")

    @classmethod
    def ones(cls, ring, l):
        return cls(ring, tuple(l), tuple(ring.one_value() for _ in l))


def delta_apply(f, i, a):
    """f(..., x_i + a, ...) - f."""
    ring, n = f.ring, f.nvars
    images = [Polynomial.variable(ring, n, t + 1) for t in range(n)]
    images[i - 1] = images[i - 1] + Polynomial.constant(ring, n, a)
    return f.substitute(images) - f


def delta_power(f, spec, charge=lambda terms: None):
    """Apply delta_i exactly l_i times for every i; `charge` first gets the
    terms each translation of x_i expands to, e_i + 1 summed over x^e."""
    out = f
    for i, (li, ai) in enumerate(zip(spec.l, spec.a), start=1):
        for _ in range(li):
            charge(sum(e[i - 1] for e in out.terms) + len(out.terms))
            out = delta_apply(out, i, ai)
    return out


def delta_module_membership(f, spec):
    """Membership in M = sum_i R x_i x^l + sum_i sum_{j<l_i} A_i x_i^j, with
    x_0 = 1 and A_i the polynomials fixed by the step-a_i translation in x_i:
    f is a member exactly when delta^l f is affine.

    The sums over j < l_i add up to ker delta^l (delta_i acts on the factor
    k[x_i] alone), and delta^l takes x^l and the x_i x^l onto the affine
    polynomials free of each x_i with l_i = p - 1, as every affine value of
    delta^l is: delta_i^{p-1} maps into k[x_i^p - a_i^{p-1} x_i, x_{k != i}].
    """
    if not f.ring.is_field:
        raise Unsupported("membership solving is implemented over fields")
    return delta_power(f, spec).is_affine()


def _admissible_patterns(n, p, l):
    """The pairs (u, v), u == v for a square, whose x^l*x_u*x_v has no
    exponent above p - 1: products before squares."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    pairs += [(u, u) for u in range(1, n + 1)]
    return [pair for pair in pairs if max(pattern_exps(l, pair)) < p]


def pattern_exps(base, pair):
    """The exponents of x^base * x_u * x_v for pair (u, v); x_u^2 when u == v."""
    exps = list(base)
    for t in pair:
        exps[t - 1] += 1
    return tuple(exps)


def delta_match(phi, spec, j, pair=None, charge=lambda terms: None):
    """The first pair (u, v) whose difference-operator pattern phi(x_j)
    matches, or None; a given pair restricts the search to its pattern.

    phi(x_j) must be c*m, c a unit and m = x^l*x_u*x_v (x^l*x_u^2 for a
    square), plus a member of the delta-kernel module: by linearity, D -
    c*delta^l(m) is affine, with D = delta^l(phi(x_j)) taken once (`charge` as
    in delta_power).  D is then a unit times x_u*x_v (x_u^2) plus affine terms,
    as the builder needs, since every exponent of m is at most p - 1.
    """
    ring, n = phi.ring, phi.nvars
    patterns = _admissible_patterns(n, ring.characteristic, spec.l)
    if pair is not None:
        patterns = [uv for uv in patterns if uv == tuple(sorted(pair))]
        if not patterns:
            raise ValueError(f"order profile {spec.l} admits no pattern at {pair}")
    img = phi.images[j - 1]
    differences = None
    for uv in patterns:
        wanted = pattern_exps(spec.l, uv)
        c = img.terms.get(wanted)
        if c is None or not ring.is_unit(c):
            continue
        if differences is None:
            differences = delta_power(img, spec, charge)
        m = Polynomial.monomial(ring, wanted, c)
        if (differences - delta_power(m, spec)).is_affine():
            return uv
    return None


def delta_search(phi):
    """(spec, j, pair) of the first match over the order profiles l in
    itertools.product order, then the images, with unit steps; None if none.
    A match at (l, j) needs a term x^e = x^l*x_u*x_v of phi(x_j) with no e_i
    above p - 1: only the profiles read off such terms are tried, each on the
    images holding one.  ResourceLimit past DELTA_WORK translated terms."""
    ring, n = phi.ring, phi.nvars
    p = ring.characteristic
    if not (is_prime(p) and ring.is_field):
        return None
    profiles = {}  # over a field every coefficient is a unit
    for j, img in enumerate(phi.images, start=1):
        for e in [e for e in img.terms if max(e) < p]:
            for u, v in itertools.combinations_with_replacement(range(n), 2):
                l = tuple(ei - (i == u) - (i == v) for i, ei in enumerate(e))
                if min(l) >= 0 and any(l):
                    profiles.setdefault(l, set()).add(j)
    work = 0

    def charge(terms):
        nonlocal work
        work += terms
        if work > DELTA_WORK:
            raise ResourceLimit(f"difference-operator search stopped at l = "
                                f"{spec.l}: its translations exceed {DELTA_WORK} terms")

    for l in sorted(profiles):
        spec = DeltaSpec.ones(ring, l)
        # the first translations of its images must fit before any is taken
        i = next(i for i, li in enumerate(l) if li)
        first = sum(e[i] + 1 for j in profiles[l] for e in phi.images[j - 1].terms)
        if work + first > DELTA_WORK:
            charge(first)  # raises
        for j in sorted(profiles[l]):
            pair = delta_match(phi, spec, j, charge=charge)
            if pair is not None:
                return spec, j, pair
    return None
