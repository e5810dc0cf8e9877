"""The difference-operator route, as decide matches it: iterated translation
differences of one image.  The decomposition behind a match is builder work
and stays in ``witness``; decide loads this module only when it searches."""

from __future__ import annotations

import itertools

from .errors import Unsupported
from .linalg import solve_field_system
from .poly import Polynomial
from .rings import Record, RingElement, is_prime


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


def kernel_generator(ring, n, i, a):
    """x_i^p - a^{p-1} x_i, the invariant of the step-a translation in x_i."""
    p = ring.characteristic
    av = ring.coerce_value(a.value if isinstance(a, RingElement) else a)
    lead = Polynomial.monomial(
        ring, tuple(p if t == i - 1 else 0 for t in range(n)), ring.one_value()
    )
    coeff = ring.pow(av, p - 1)
    lin = Polynomial.variable(ring, n, i).scale(RingElement(ring, ring.neg(coeff)))
    return lead + lin


def delta_module_membership(f, spec):
    """Membership in sum_i R x_i x^l + sum_i sum_{j<l_i} A_i x_i^j.

    A_i is generated by the kernel polynomial q_i and the other variables,
    so the module is spanned by x_i*x^l and q_i^s * mu * x_i^j with mu a
    monomial in the remaining variables.  Generators up to deg(f) + p feed
    one exact linear solve over the base field.
    """
    ring, n = f.ring, f.nvars
    p = ring.characteristic
    if not ring.is_field:
        raise Unsupported("membership solving is implemented over fields")
    if f.is_zero():
        return True
    D = f.total_deg() + p
    gens = []
    l = spec.l
    base_exps = tuple(l)
    # x_0 = 1 alongside the variables
    gens.append(Polynomial.monomial(ring, base_exps, ring.one_value()))
    for i in range(1, n + 1):
        exps = list(base_exps)
        exps[i - 1] += 1
        gens.append(Polynomial.monomial(ring, tuple(exps), ring.one_value()))
    for i in range(1, n + 1):
        q = kernel_generator(ring, n, i, spec.a[i - 1])
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
