"""Good monomials, obstruction ideals, exponent patterns and the decision
procedure for stable co-tameness.

A monomial is *good* when its exponent pattern falls into one of five
characteristic-dependent cases; coefficients of good monomials in the
images of a map generate the obstruction ideal.  Maps with no good
monomial at all form a subgroup that blocks stable co-tameness, and over
a base field the good coefficients of degree-condition span elements
certify the positive direction.
"""

from __future__ import annotations

import bisect
import itertools
import operator

from .errors import (CompositeCharacteristic, NoRouteFound, NoSuchUnit,
                     ResourceLimit, Unsupported)
from .maps import IdealHandle, reduce_mod
from .poly import Polynomial
from .rings import (
    IntegerModRing,
    IntegerRing,
    PrimeField,
    Record,
    find_special_unit,
    is_prime,
)


def _guard_characteristic(p):
    if p != 0 and not is_prime(p):
        raise CompositeCharacteristic(
            f"good-monomial machinery needs characteristic 0 or prime, not {p}"
        )
    return p


class GoodMonomialType(Record):
    # tag: one of "I".."V" or "NotGood"; i, j: 1-based witness indices,
    # j == i in one variable
    __slots__ = _fields = ("tag", "i", "j")

    def is_good(self):
        return self.tag != "NotGood"

    def target(self, n):
        """The quadratic or cubic monomial that the all-ones shift exposes:
        x_i*x_j in cases I-III and x_i*x_j^2 in cases IV and V, so a square
        or a pure cube when j == i."""
        exps = [0] * n
        exps[self.i - 1] += 1
        exps[self.j - 1] += 2 if self.tag in ("IV", "V") else 1
        return tuple(exps)


NOT_GOOD = GoodMonomialType("NotGood", None, None)

# The kind of each target monomial, keyed by its sorted positive exponents;
# normalize_to_seed turns each kind into a seed.
TARGET_KINDS = {
    (1, 1): "product",
    (2,): "square",
    (1, 2): "mixed-cube",
    (3,): "pure-cube",
}


def target_kind(exps):
    return TARGET_KINDS.get(tuple(sorted(t for t in exps if t > 0)))


def good_monomial_type(exps, n, p):
    """Classify an exponent vector; the first matching case I..V is reported."""
    _guard_characteristic(p)
    if len(exps) != n:
        raise ValueError("exponent vector length must equal n")
    if p == 0:
        if sum(exps) < 2:
            return NOT_GOOD
        # a square where an exponent reaches 2, else the first two variables
        big = [i + 1 for i, t in enumerate(exps) if t >= 2]
        if big:
            return GoodMonomialType("I", big[0], big[0])
        ones = [i + 1 for i, t in enumerate(exps) if t == 1]
        return GoodMonomialType("I", ones[0], ones[1])
    # case II: two indices with exponent 1 mod p
    ones = [i for i, t in enumerate(exps) if t % p == 1]
    if len(ones) >= 2:
        return GoodMonomialType("II", ones[0] + 1, ones[1] + 1)
    if p >= 3:
        for i, t in enumerate(exps):
            if t % p not in (0, 1):
                return GoodMonomialType("III", i + 1, i + 1)
        return NOT_GOOD
    if n == 2 and p == 2:
        for i, j in ((0, 1), (1, 0)):
            if exps[i] % 4 == 1 and exps[j] % 4 == 2:
                return GoodMonomialType("IV", i + 1, j + 1)
        for i, t in enumerate(exps):
            if t % 4 == 3:
                return GoodMonomialType("V", i + 1, i + 1)
    return NOT_GOOD


def good_entry(ring, exps, coeff, case):
    """How a report prints a good monomial; each caller puts its own keys first."""
    return {"monomial": list(exps), "coefficient": ring.format_value(coeff),
            "case": case}


def good_monomials(f):
    """All (exponents, raw coefficient, type) triples of good monomials in f."""
    p = _guard_characteristic(f.ring.characteristic)
    out = []
    for exps in f.monomials():
        t = good_monomial_type(exps, f.nvars, p)
        if t.is_good():
            out.append((exps, f.terms[exps], t))
    return out


def image_good_monomials(phi):
    """Each (image j, exponents, coefficient, type) of a good monomial of
    phi's images, in image then monomial order, one image at a time."""
    return ((j, *good) for j, img in enumerate(phi.images, start=1)
            for good in good_monomials(img))


def good_ideal(phi):
    """The obstruction ideal generated by all good coefficients of the images."""
    return IdealHandle(phi.ring, [
        coeff for _, _, coeff, _ in image_good_monomials(phi)])


def degree_condition(f, k_size):
    """Separable degree at most #k - 2 in every variable; vacuous when k is infinite."""
    if k_size is None:
        return True
    if k_size < 2:
        raise ValueError("a field has at least 2 elements")
    bound = k_size - 2
    for i in range(1, f.nvars + 1):
        if f.sep_deg_xi(i) > bound:
            return False
    return True


# ---------------------------------------------------------------------------
# span scan: good coefficients of degree-condition span elements
# ---------------------------------------------------------------------------

class SpanWitness(Record):
    # combo: raw coefficient values c with candidate = sum c_i * phi(x_i) - linear
    # part; coefficient: the raw coefficient of the good monomial
    __slots__ = _fields = ("combo", "candidate", "monomial", "coefficient", "gm_type")

    def describe(self):
        ring = self.candidate.ring
        return {"combo": [ring.format_value(c) for c in self.combo],
                "candidate": str(self.candidate),
                **good_entry(ring, self.monomial, self.coefficient, self.gm_type.tag)}


class SpanScan(Record):
    __slots__ = _fields = ("witnesses", "exhaustive", "examined", "diagnostics")

    def certified_full(self):
        # the scan runs over a field, where one witness fills the good ideal
        return bool(self.witnesses)


def _strip_linear(f):
    """Drop degree-one monomials; the optimal span adjustment by variables."""
    return Polynomial(f.ring, f.nvars,
                      {e: v for e, v in f.terms.items() if sum(e) != 1})


def _singles(ring, n):
    zero, one = ring.zero_value(), ring.one_value()
    return [tuple(one if j == i else zero for j in range(n)) for i in range(n)]


def _stream_length(q, n, t):
    """Vectors of the finite stream up to product index t: the n singles, then
    the indices below t but those of zero (0) and of the singles (q^i)."""
    return n + t - bisect.bisect_left([0] + [q**i for i in range(n)], t)


def _swept_combos(ring, n, live, bound):
    """(position, vector) of the first vector of each live key in the finite
    stream, in stream order, up to product index `bound`.

    The stream is the singles, then itertools.product order over the raw
    values index_value(0..q-1) (zero first, one second) without zero and
    the singles.
    A key's first vector is zero off `live`, and its index t0 rises with the
    key.  A skipped t0 belongs to a key met among the singles (or, when every
    image is live, to the zero key, never met), so the rest come in key order.
    Only the values whose digit can stay below `bound` are built.
    """
    q = ring.order
    yield from enumerate(_singles(ring, n), start=1)
    skipped = [0] + [q**i for i in range(n)]
    weights = [q ** (n - 1 - j) for j in live]
    # a digit d at the lightest weight puts t0 at d * weight or beyond
    values = [ring.index_value(d)
              for d in range(min(q, -(-bound // weights[-1])) if live else 0)]
    for digits in itertools.product(range(len(values)), repeat=len(live)):
        t0 = sum(map(operator.mul, digits, weights))
        if t0 >= bound:
            return
        if t0 not in skipped:
            combo = [values[0]] * n
            for j, d in zip(live, digits):
                combo[j] = values[d]
            yield _stream_length(q, n, t0 + 1), tuple(combo)


def span_good_scan(phi, k_size, budget=200000):
    """The first span element that passes the degree condition and has a good
    monomial; over a field its good monomials, all of unit coefficient, fill
    the ideal and are the witnesses.

    Over a finite field the c-sweep with linear parts stripped is complete:
    dropping degree-one monomials never hurts the degree condition and the
    good coefficients do not depend on them.  Over `Q` the singles decide:
    every monomial of degree at least 2 is good.

    Stripping commutes with the combination, so each image is stripped once
    and the candidate depends only on the key of coefficients of the live
    images (those with something left).  Only the first vector of each key
    is visited, and the vectors are counted arithmetically; the zero key,
    the single of a dead image, is never built.
    """
    ring, n = phi.ring, phi.nvars
    if not ring.is_field:
        raise Unsupported(f"the span scan needs a base field, not {ring.spec_string()}")
    if not ring.is_finite and k_size is not None:
        raise ValueError(_no_finite_base_field(ring, k_size))
    stripped = [_strip_linear(img) for img in phi.images]
    live = [j for j, part in enumerate(stripped) if not part.is_zero()]
    parts = [stripped[j] for j in live]
    if ring.is_finite:
        total = ring.order**n
        bound = max(0, min(budget, total))
        stream = _swept_combos(ring, n, live, bound)
    else:
        stream = enumerate(_singles(ring, n), start=1)
    zero_key = (ring.zero_value(),) * len(live)
    examined = 0
    for examined, combo in stream:
        key = tuple([combo[j] for j in live])
        if key == zero_key:
            continue
        candidate = Polynomial.zero(ring, n)
        for c, part in zip(key, parts):
            candidate = candidate + part.scale(c)
        if candidate.is_zero() or not degree_condition(candidate, k_size):
            continue
        goods = good_monomials(candidate)
        if goods:
            witnesses = [SpanWitness(combo, candidate, *good) for good in goods]
            return SpanScan(witnesses, False, examined, [])
    diagnostics = []
    exhaustive = True
    if ring.is_finite:
        examined = _stream_length(ring.order, n, bound)
        exhaustive = total <= budget
        if not exhaustive:
            diagnostics.append(
                f"span scan budget {budget} below the {total} coefficient vectors"
            )
    return SpanScan([], exhaustive, examined, diagnostics)


# ---------------------------------------------------------------------------
# exponent patterns and maps with no good monomial
# ---------------------------------------------------------------------------

class ModulePattern(Record):
    """Monomial pattern R[x^{p^d}] + sum_i sum_{u in N} R[x^{p^e}] x_i^{p^u}."""

    __slots__ = _fields = ("p", "d", "e", "shifts")

    def __init__(self, p, d, e, shifts):
        self.p, self.d, self.e, self.shifts = p, d, e, shifts
        if not is_prime(p):
            raise CompositeCharacteristic(f"{p} is not prime")
        if not (0 <= d <= e):
            raise ValueError("need 0 <= d <= e")
        if not shifts:
            raise ValueError("the shift set must be nonempty")
        for u, v in itertools.product(shifts, repeat=2):
            if (u + v) not in shifts and (u + v) < d:
                raise ValueError(
                    f"shift set violates closure: {u}+{v} not in N and < d"
                )


def default_pattern(n, p):
    """The pattern whose complement is exactly the good monomials."""
    if n == 2 and p == 2:
        return ModulePattern(2, 1, 2, frozenset({0}))
    return ModulePattern(p, 1, 1, frozenset({0}))


def monomial_in_pattern(exps, pattern):
    p, pd, pe = pattern.p, pattern.p**pattern.d, pattern.p**pattern.e
    if all(t % pd == 0 for t in exps):
        return True
    for i, t in enumerate(exps):
        if any(e % pe for j, e in enumerate(exps) if j != i):
            continue
        for u in pattern.shifts:
            pu = p**u
            if t >= pu and (t - pu) % pe == 0:
                return True
    return False


def pattern_membership(f, pattern):
    return all(monomial_in_pattern(exps, pattern) for exps in f.terms)


def no_good_monomials(phi):
    """True when no good monomial appears in any image (affineness when p=0)."""
    return good_ideal(phi).is_zero()


# ---------------------------------------------------------------------------
# reduction obstruction: pass to a quotient with no good monomials
# ---------------------------------------------------------------------------

def _reduction_moduli(ring):
    if isinstance(ring, PrimeField):
        return []
    if isinstance(ring, IntegerModRing):
        # the prime divisors below n, by trial division up to sqrt(n)
        out, m, q = [], ring.n, 2
        while q * q <= m:
            if m % q == 0:
                out.append(q)
                while m % q == 0:
                    m //= q
            q += 1
        return out + [m] if 1 < m < ring.n else out
    if isinstance(ring, IntegerRing):
        return [q for q in range(2, 32) if is_prime(q)]
    return []


def reduction_search(phi):
    """The certificate of a quotient map with no good monomials, if one is found."""
    for q in _reduction_moduli(phi.ring):
        quotient = reduce_mod(phi, IdealHandle(phi.ring, [q]))
        if no_good_monomials(quotient):
            return {"kind": "reduction", "modulus": q,
                    "quotient_ring": quotient.ring.spec_string()}
    return None


# ---------------------------------------------------------------------------
# direct pattern: an image is unit * (target monomial) + affine
# ---------------------------------------------------------------------------

def normalizes(ring, n, kind):
    """Whether a unit times a target of the kind normalizes to a seed over
    ring: a square needs 2 to be a unit, a cube needs n = 2 in characteristic
    2, and a pure cube also needs a unit u with u + 1 a unit."""
    if kind == "square":
        return ring.is_unit(ring.coerce_value(2))
    if n != 2 or ring.characteristic != 2:
        return kind == "product"
    if kind == "pure-cube":
        try:
            find_special_unit(ring)
        except NoSuchUnit:
            return False
    return True


# the case letter of a direct match, by the kind of its target monomial
DIRECT_CASES = {"product": "a", "square": "b", "mixed-cube": "c", "pure-cube": "d"}


def direct_pattern_scan(phi):
    """The certificate of an image of the form unit*m + affine with m a
    target monomial of a kind the ring normalizes, if one is found.

    Valid over any coefficient ring; this is the zero-order case of the
    difference-operator route.
    """
    ring, n = phi.ring, phi.nvars
    for j, img in enumerate(phi.images, start=1):
        nonlinear = [e for e in img.terms if sum(e) > 1]
        if len(nonlinear) != 1:
            continue
        (exps,) = nonlinear
        c, kind = img.terms[exps], target_kind(exps)
        if ring.is_unit(c) and kind is not None and normalizes(ring, n, kind):
            return {"kind": "direct", "image": j,
                    **good_entry(ring, exps, c, DIRECT_CASES[kind])}
    return None


# ---------------------------------------------------------------------------
# top-level decision
# ---------------------------------------------------------------------------

class Verdict(Record):
    # answer: "StablyCotame" | "NotStablyCotame" | "Unknown".  evidence,
    # outside equality and repr, is what decide found, kept in memory for
    # witness and classify: "phi" (the map decided) and "k_size" (the
    # resolved base-field size); outside composite characteristic "goods"
    # (its image_good_monomials) and "ideal" (their good_ideal); and "scan"
    # (the SpanScan) when the span step ran
    _fields = ("answer", "route", "reason", "certificate", "diagnostics")
    __slots__ = _fields + ("evidence",)
    __hash__ = None  # its certificate is a dict, its diagnostics a list

    def to_json(self):
        # every certificate value decide builds is a str, an int or a list
        return dict(zip(self._fields, self._values()))


def _no_finite_base_field(ring, k_size):
    return f"--ksize {k_size}: {ring.spec_string()} has no finite base field"


def resolve_k_size(ring, k_size="auto"):
    """The base-field size of the degree condition: None when the field is
    infinite, "unavailable" over a ring with no base field.  A base field
    has at least 2 elements, at most those of a finite ring, and none is
    finite inside an infinite field."""
    if k_size not in ("auto", None):
        if k_size < 2:
            raise ValueError("a field has at least 2 elements")
        if ring.is_finite and k_size > ring.order:
            raise ValueError(
                f"--ksize {k_size} exceeds the {ring.order} elements of"
                f" {ring.spec_string()}"
            )
        if ring.is_field and not ring.is_finite:
            raise ValueError(_no_finite_base_field(ring, k_size))
    if not ring.is_field:
        return "unavailable"
    return ring.order if k_size == "auto" else k_size


# why a witness request whose verdict has no route ends unknown-verdict
NO_ROUTE = "no span, direct, or difference-operator route certified this map"


def witness_verdict(phi, target, k_size="auto", budget=200000, max_degree=4):
    """decide's verdict on phi, the one input of a witness word for target.

    The target is checked first: n >= 2, the target in R[x_2..x_n] and its
    degree at most the word-size cap.  NoRouteFound for a verdict with no
    route, which no word can certify.
    """
    if phi.nvars < 2:
        raise ValueError("need n >= 2")
    if target.nvars != phi.nvars:
        raise ValueError("target must live in R[x_1..x_n]")
    if not target.is_zero():
        if target.deg_xi(1) > 0:
            raise NoRouteFound("target must lie in R[x_2..x_n]")
        if target.total_deg() > max_degree:
            raise ResourceLimit(f"target degree {target.total_deg()} exceeds"
                                f" the word-size cap {max_degree}")
    verdict = decide(phi, k_size=k_size, budget=budget)
    if verdict.route is None:
        raise NoRouteFound(NO_ROUTE)
    return verdict


def decide(phi, k_size="auto", budget=200000):
    """Decide stable co-tameness where the implemented criteria apply.

    Negative routes: no good monomials at all, a proper obstruction ideal,
    or a quotient with no good monomials.  Positive routes: a direct
    unit-monomial image, a full degree-condition span ideal over a base
    field, or the difference-operator route.  Anything else is Unknown.
    The base-field size is checked first, whatever route answers.

    phi is taken to be an automorphism, unchecked: x1 + x1*x2^2, x2 over
    GF(4) is not invertible, yet answers StablyCotame by M-phi-case-c; its
    witness word is built unevaluated (verified: null), and verify refuses
    it for want of an inverse.
    """
    ring, n = phi.ring, phi.nvars
    if n < 2:
        raise ValueError("stably co-tame analysis needs n >= 2")
    ksz = resolve_k_size(ring, k_size)
    p = ring.characteristic
    composite = p != 0 and not is_prime(p)
    # every verdict shares the notes so far and what the searches found
    diagnostics, evidence = [], {"phi": phi, "k_size": ksz}

    def verdict(answer, certificate=None, route=None, reason=None):
        out = Verdict(answer, route, reason, certificate, diagnostics)
        out.evidence = evidence
        return out

    if composite:
        diagnostics.append(f"characteristic {p} is composite;"
                           " good-monomial criteria skipped")
    else:
        goods = evidence["goods"] = list(image_good_monomials(phi))
        ideal = evidence["ideal"] = IdealHandle(
            ring, [coeff for _, _, coeff, _ in goods])
        if ideal.is_zero():
            pattern = "affine" if p == 0 else repr(default_pattern(n, p))
            return verdict("NotStablyCotame", {"kind": "ngg", "pattern": pattern},
                           reason="ngg-membership")
        if not ideal.is_full():
            return verdict("NotStablyCotame",
                           {"kind": "ideal", "generators": repr(ideal)},
                           reason="I-phi-proper")
    reduction = reduction_search(phi)
    if reduction is not None:
        return verdict("NotStablyCotame", reduction, reason="reduction-to-ngg")
    direct = direct_pattern_scan(phi)
    if direct is not None:
        return verdict("StablyCotame", direct, route=f"M-phi-case-{direct['case']}")
    if ksz != "unavailable":
        scan = evidence["scan"] = span_good_scan(phi, ksz, budget=budget)
        diagnostics.extend(scan.diagnostics)
        if scan.certified_full():
            if ksz is None:
                diagnostics.append(
                    "infinite base field: the degree condition is vacuous and the"
                    " obstruction ideal alone decides"
                )
            cert = {"kind": "span-good-monomial", **scan.witnesses[-1].describe()}
            return verdict("StablyCotame", cert, route="J-full")
        if scan.exhaustive:
            diagnostics.append(
                "span scan exhausted every coefficient vector without certifying"
            )
    else:
        diagnostics.append("no base field available; degree-condition route skipped")
    if not composite and p != 0 and ring.is_field:
        from .delta import delta_search, pattern_exps

        try:
            found = delta_search(phi)
            note = "difference-operator search exhausted"
        except ResourceLimit as exc:  # past its work bound: still Unknown
            found, note = None, str(exc)
        if found is not None:
            l, j, pair = found
            target = Polynomial.monomial(ring, pattern_exps((0,) * n, pair))
            return verdict("StablyCotame", {
                "kind": "delta", "image": j, "l": list(l),
                "monomial": list(pattern_exps(l, pair)), "target": str(target),
            }, route="delta-route")
        diagnostics.append(note)
    return verdict("Unknown")
