"""Endomorphisms of R[x_1..x_n] as substitution tuples, and ideals of R.

A tuple (f_1, ..., f_n) acts by x_i -> f_i.  Composition follows the
convention (phi o psi)(x_i) = psi(x_i) evaluated at phi's images, i.e.
apply psi's substitution first, then phi's.  Invertibility is never
inferred from a bare tuple: it is carried by construction (affine,
elementary, triangular, or word with invertible letters), in ``endo``.
"""

from __future__ import annotations

import math

from .errors import Unsupported
from .poly import Polynomial, bounded_variables, parse_poly
from .rings import IntegerModRing, IntegerRing, ring_from_spec


# JSON schema checks for map and word files

def _field(data, key, check, expected):
    """data[key] of a JSON object, once check(data[key]) holds."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with {key!r}")
    if key not in data or not check(data[key]):
        raise ValueError(f"{key!r} must be {expected}")
    return data[key]


def _is_str(v):
    return isinstance(v, str)


def _is_positive_int(v):
    return type(v) is int and v > 0


def _is_list(v, length):
    return isinstance(v, list) and len(v) == length


class Endomorphism:
    __slots__ = ("ring", "nvars", "images")

    def __init__(self, ring, images):
        if not images:
            raise ValueError("an endomorphism needs at least one image")
        n = len(images)
        for img in images:
            if img.ring != ring or img.nvars != n:
                raise ValueError("images must live in the same R[x_1..x_n]")
        self.ring = ring
        self.nvars = n
        self.images = list(images)

    def apply(self, f):
        """The substitution action on a polynomial."""
        return f.substitute(self.images)

    def is_affine(self):
        return all(img.is_affine() for img in self.images)

    def __eq__(self, other):
        return (
            isinstance(other, Endomorphism)
            and self.ring == other.ring
            and self.nvars == other.nvars
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.ring, self.nvars, tuple(self.images)))

    def __repr__(self):
        inner = ", ".join(str(img) for img in self.images)
        return f"({inner})"

    def to_json(self):
        return {
            "ring": self.ring.spec_string(),
            "n": self.nvars,
            "images": [str(img) for img in self.images],
        }

    @classmethod
    def from_json(cls, data, ring=None):
        if ring is None:
            ring = ring_from_spec(_field(data, "ring", _is_str, "a ring spec"))
        n = bounded_variables(
            _field(data, "n", _is_positive_int, "a positive integer"), "'n'")
        texts = _field(
            data,
            "images",
            lambda v: _is_list(v, n) and all(map(_is_str, v)),
            f"a list of {n} polynomial strings",
        )
        return cls(ring, [parse_poly(text, ring, n) for text in texts])


def identity(ring, n):
    return Endomorphism(ring, [Polynomial.variable(ring, n, i + 1) for i in range(n)])


def compose(phi, psi):
    """phi o psi: substitute psi first, then phi."""
    if phi.ring != psi.ring or phi.nvars != psi.nvars:
        raise ValueError("cannot compose maps over different rings or arities")
    return Endomorphism(phi.ring, [phi.apply(g) for g in psi.images])


def extend(phi, r):
    """View a map in n variables inside n+r variables, fixing the new ones."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return phi
    n, m = phi.nvars, phi.nvars + r
    images = [img.embed(m) for img in phi.images]
    images += [Polynomial.variable(phi.ring, m, i + 1) for i in range(n, m)]
    return Endomorphism(phi.ring, images)


def elementary(f, nvars=None):
    """The map adding f(x_2..x_n) to x_1 and fixing every other variable."""
    n = f.nvars if nvars is None else nvars
    if f.nvars != n:
        f = f.embed(n)
    if not f.is_zero() and f.deg_xi(1) > 0:
        raise ValueError("the added polynomial must not involve x1")
    images = [Polynomial.variable(f.ring, n, 1) + f]
    images += [Polynomial.variable(f.ring, n, i) for i in range(2, n + 1)]
    return Endomorphism(f.ring, images)


def elementary_last(f, ambient=None):
    """The map adding f(x_1..x_n) to the extra last variable x_{n+1}."""
    if ambient is None:
        ambient = f.nvars + 1
    if f.nvars == ambient:
        if not (f.is_zero() or f.deg_xi(ambient) == 0):
            raise ValueError("the added polynomial must not involve the last variable")
        g = f
    elif f.nvars == ambient - 1:
        g = f.embed(ambient)
    else:
        raise ValueError("ambient must be f.nvars or f.nvars + 1")
    images = [Polynomial.variable(g.ring, ambient, i) for i in range(1, ambient)]
    images.append(Polynomial.variable(g.ring, ambient, ambient) + g)
    return Endomorphism(g.ring, images)


# ---------------------------------------------------------------------------
# finitely generated ideals of R
# ---------------------------------------------------------------------------

class IdealHandle:
    """A finitely generated ideal of the coefficient ring; its generators are
    the distinct nonzero raw values, in the ring's sort order."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring, generators):
        zero = ring.zero_value()
        seen = []
        for g in generators:
            v = ring.coerce_value(g)
            if v != zero and v not in seen:
                seen.append(v)
        seen.sort(key=ring.sort_key)
        self.ring = ring
        self.generators = seen

    def is_zero(self):
        return not self.generators

    def is_full(self):
        if self.ring.is_field:
            return bool(self.generators)
        return self.modulus() == 1

    def modulus(self):
        """Over Z or Z/n (the rings that are not fields): the m >= 0 with
        this ideal equal to mZ, or to mZ/nZ."""
        return math.gcd(self.ring.characteristic, *self.generators)

    def to_json(self):
        return {
            "ring": self.ring.spec_string(),
            "generators": [self.ring.format_value(g) for g in self.generators],
        }

    def __repr__(self):
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(map(self.ring.format_value, self.generators)) + ")"


def reduce_mod(phi, ideal):
    """The induced map over R/I, for quotients inside the supported tower."""
    ring = phi.ring
    if ideal.ring != ring:
        raise ValueError("ideal lives over a different ring")
    if isinstance(ring, (IntegerRing, IntegerModRing)):
        m = ideal.modulus()
        if m == ring.characteristic:
            return phi
        if m == 1:
            raise Unsupported("quotient by the full ideal is the zero ring")
        target = IntegerModRing(m)
    elif ideal.is_zero():  # every other ring is a field
        return phi
    else:
        raise Unsupported("a field has no proper nonzero ideals")
    return Endomorphism(target, [
        Polynomial(target, phi.nvars, {e: v % m for e, v in img.terms.items()})
        for img in phi.images
    ])
