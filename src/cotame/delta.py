"""The difference-operator route, as decide matches it: iterated translation
differences of one image.  Membership in the module that a match needs is
read off the differences in closed form (``delta_module_membership``), so the
search solves no linear system.  The decomposition behind a match is builder
work and stays in ``witness``; decide loads this module only when it
searches."""

from __future__ import annotations

import itertools

from .errors import Unsupported
from .poly import Polynomial
from .rings import Record, is_prime


class DeltaSpec(Record):
    """Profile for iterated translation differences: orders l_i, steps a_i."""

    __slots__ = _fields = ("ring", "l", "a")

    def __init__(self, ring, l, a):
        self.ring, self.l, self.a = ring, l, a
        p = ring.characteristic
        if not is_prime(p):
            raise Unsupported("difference operators need prime characteristic")
        if len(l) != len(a):
            raise ValueError("order and step vectors must have equal length")
        if any(not 0 <= li <= p - 1 for li in l):
            raise ValueError("orders must satisfy 0 <= l_i <= p-1")
        for av in a:
            if not ring.is_unit(ring.coerce_value(av)):
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


def delta_power(f, spec):
    """Apply delta_i exactly l_i times for every i."""
    out = f
    for i, (li, ai) in enumerate(zip(spec.l, spec.a), start=1):
        for _ in range(li):
            out = delta_apply(out, i, ai)
    return out


def delta_module_membership(f, spec):
    """Membership in M = sum_i R x_i x^l + sum_i sum_{j<l_i} A_i x_i^j, with
    x_0 = 1 and A_i the polynomials fixed by the step-a_i translation in x_i:
    f is a member exactly when delta^l f is affine.

    The sum over j < l_i is ker delta_i^{l_i}.  k[x_1..x_n] is the tensor
    product of the k[x_i] and delta_i acts on the i-th factor alone, so these
    kernels sum to ker delta^l, and M = span{x^l, x_i x^l} + ker delta^l.
    delta^l takes x^l to the unit prod l_i! a_i^{l_i}, and x_i x^l to a
    constant plus that unit times (l_i + 1) x_i.  So the span goes onto the
    affine polynomials with no x_i term where l_i = p - 1, and no affine
    value of delta^l has such a term: delta_i^{p-1} maps into the polynomials
    in q_i = x_i^p - a_i^{p-1} x_i, whose x_i-degree is p times their
    q_i-degree, so an affine one is free of x_i.
    """
    if not f.ring.is_field:
        raise Unsupported("membership solving is implemented over fields")
    return delta_power(f, spec).is_affine()


def _admissible_patterns(n, p, l):
    """(kind, indices) patterns allowed by the order profile l."""
    out = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if l[u - 1] <= p - 2 and l[v - 1] <= p - 2:
                out.append(("product", (u, v)))
    if p >= 3:
        for u in range(1, n + 1):
            if l[u - 1] <= p - 3:
                out.append(("square", (u, u)))
    return out


def pattern_exps(base, pair):
    """The exponents of x^base * x_u * x_v for pair (u, v); x_u^2 when u == v."""
    exps = list(base)
    for t in pair:
        exps[t - 1] += 1
    return tuple(exps)


def unit_plus_affine(f, exps):
    """The coefficient of x^exps in f when it is a unit and the rest of f is
    affine, else None."""
    c = f.terms.get(exps)
    if c is None or not f.ring.is_unit(c):
        return None
    return c if (f - Polynomial.monomial(f.ring, exps, c)).is_affine() else None


def delta_match(phi, spec, j, pair=None):
    """The first (kind, (u, v)) whose difference-operator pattern phi(x_j)
    matches, or None; a given pair restricts the search to its pattern.

    phi(x_j) must be unit*m plus a member of the delta-kernel module, with
    m = x_u*x_v*x^l (x_u^2*x^l for a square), and the iterated differences
    must take phi(x_j) to unit*x_u*x_v (or unit*x_u^2) + affine, exactly.
    """
    ring, n = phi.ring, phi.nvars
    patterns = _admissible_patterns(n, ring.characteristic, spec.l)
    if pair is not None:
        uv = tuple(sorted(pair))
        kind = "square" if uv[0] == uv[1] else "product"
        if (kind, uv) not in patterns:
            raise ValueError(
                f"order profile {spec.l} does not admit the {kind} pattern at {pair}"
            )
        patterns = [(kind, uv)]
    img = phi.images[j - 1]
    differences = None
    for kind, uv in patterns:
        wanted = pattern_exps(spec.l, uv)
        c = img.terms.get(wanted)
        if c is None or not ring.is_unit(c):
            continue
        if not delta_module_membership(
            img - Polynomial.monomial(ring, wanted, c), spec
        ):
            continue
        if differences is None:
            differences = delta_power(img, spec)
        if unit_plus_affine(differences, pattern_exps((0,) * n, uv)) is not None:
            return kind, uv
    return None


def delta_search(phi):
    """(spec, j, kind, pair) of the first match over the order profiles,
    with unit steps of one in every variable; None when nothing matches.
    decide bounds the p^n profiles it lets this search try."""
    ring, n = phi.ring, phi.nvars
    p = ring.characteristic
    if not (is_prime(p) and ring.is_field):
        return None
    for l in itertools.product(range(p), repeat=n):
        if all(li == 0 for li in l):
            continue
        spec = DeltaSpec.ones(ring, l)
        if not _admissible_patterns(n, p, l):
            continue
        for j in range(1, n + 1):
            found = delta_match(phi, spec, j)
            if found is not None:
                return (spec, j, *found)
    return None
