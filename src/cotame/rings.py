"""Exact coefficient rings: Q, Z, Z/nZ and F_p here, GF(p^e) in ``gf``.

Every ring works on canonical raw values (Fraction, int residue, or a
coefficient tuple for extension fields) so that equality of elements,
polynomials and maps is plain structural equality.  Every function takes
raw values or ints and returns raw values; ``coerce_value`` turns an int
or a ring's own raw type into its canonical raw value, and
``format_value`` prints one.

Each rule the rings share is stated once.  ``Ring`` holds ring identity
(``==`` and ``hash`` on the spec string each ring sets once), the
refusal of ``coerce_value`` after a ring's own raw types, and ``pow`` and
``sub``; ``_NativeRing`` holds the native ``+ - * neg`` of Q
and Z; ``_IntegerValues`` holds the int zero, one, order, parsing and
printing of Z and Z/n.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

from .errors import (
    DegreeConditionError,
    NotAUnit,
    NoSuchUnit,
    ResourceLimit,
    Unsupported,
)

# The largest modulus or field order a ring spec may name.  The spec's
# primality and irreducibility checks are trial divisions; at this bound the
# slowest, a degree-24 modulus over F_2, takes ~0.2 s.
MAX_RING_ORDER = 1 << 24

# An integer literal has at most this many ASCII digits (Python's text limit)
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", int)() or math.inf


@functools.cache
def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Record:
    """Equality, hash and repr over the attributes named in ``_fields``, as
    a frozen dataclass generates them, without importing ``dataclasses``.
    The hash needs every field hashable; a subclass with a field that may
    not be sets ``__hash__ = None``.  The constructor takes one value per
    field, in order."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            setattr(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({', '.join(fields)})"


class Ring:
    """Common interface.  Each concrete ring, or its mixin, defines the raw
    protocol ``add mul neg inv is_unit zero_value one_value``, ``sort_key``
    (a total order for output), and ``parse_literal`` with its inverse
    ``format_value``; a finite ring adds ``index_value`` and ``iter_units``.

    A ring is known by its spec string, set once per ring (a class constant
    or at construction): ``==`` answers by identity first and otherwise
    compares specs, and ``hash`` reads the same string.
    """

    kind = "?"
    characteristic = 0
    is_field = False
    is_finite = False
    order = None  # number of elements when finite
    _spec = "?"  # the spec string, which names exactly one ring
    _label = "?"  # the ring's name in a coercion error

    # -- raw value arithmetic -------------------------------------------
    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def pow(self, a, k):
        """a^k by repeated squaring, for an int k >= 0."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        acc = self.one_value()
        while k:
            if k & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            k >>= 1
        return acc

    def coerce_value(self, x):
        """Canonical raw value from an int or raw value.

        A concrete ring converts its own raw types and passes the rest here.
        """
        raise ValueError(f"cannot coerce {x!r} into {self._label}")

    def spec_string(self):
        return self._spec

    def __eq__(self, other):
        return self is other or (isinstance(other, Ring)
                                 and self._spec == other._spec)

    def __hash__(self):
        return hash(self._spec)

    def __repr__(self):
        return self._spec


def _parse_int(text):
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"bad integer literal {text!r}")
    if len(text) > _MAX_DIGITS:
        raise ResourceLimit(f"a literal of {len(text)} digits exceeds the "
                            f"{_MAX_DIGITS}-digit limit")
    return sign * int(text)


class _NativeRing(Ring):
    """Q and Z: Python's own arithmetic on Fraction and int values."""

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a


class _IntegerValues:
    """Z and Z/n: int values, printed and ordered as ints."""

    def zero_value(self):
        return 0

    def one_value(self):
        return 1

    def sort_key(self, value):
        return value

    def parse_literal(self, text):
        return self.coerce_value(_parse_int(text))

    def format_value(self, value):
        return str(value)


class RationalField(_NativeRing):
    kind = _spec = _label = "Q"
    is_field = True

    def __init__(self):
        global Fraction  # imported only by a request that works over Q
        from fractions import Fraction

    def inv(self, a):
        if a == 0:
            raise NotAUnit("0 is not invertible in Q")
        return 1 / a

    def is_unit(self, a):
        return a != 0

    def zero_value(self):
        return Fraction(0)

    def one_value(self):
        return Fraction(1)

    def coerce_value(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        return super().coerce_value(x)

    def sort_key(self, value):
        return (float(value), value.numerator, value.denominator)

    def parse_literal(self, text):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            d = _parse_int(den)
            if d == 0:
                raise ValueError("zero denominator")
            return Fraction(_parse_int(num), d)
        return Fraction(_parse_int(text))

    def format_value(self, value):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"


class IntegerRing(_IntegerValues, _NativeRing):
    kind = _spec = _label = "Z"

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotAUnit(f"{a} is not a unit of Z")

    def is_unit(self, a):
        return a in (1, -1)

    def coerce_value(self, x):
        if isinstance(x, int):
            return x
        return super().coerce_value(x)


class IntegerModRing(_IntegerValues, Ring):
    """Z/nZ with residues in [0, n)."""

    kind = "Zn"
    is_finite = True

    def __init__(self, n):
        if not isinstance(n, int) or n < 2:
            raise ValueError("modulus must be an integer >= 2")
        self.n = n
        self.characteristic = n
        self.is_field = is_prime(n)
        self.order = n
        self._spec = f"{self.kind}:{n}"
        self._label = f"Z/{n}"

    def add(self, a, b):
        return (a + b) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def inv(self, a):
        try:
            return pow(a, -1, self.n)
        except ValueError:
            raise NotAUnit(f"{a} is not a unit of Z/{self.n}") from None

    def is_unit(self, a):
        return math.gcd(a, self.n) == 1

    def coerce_value(self, x):
        if isinstance(x, int):
            return x % self.n
        return super().coerce_value(x)

    def index_value(self, i):
        """The i-th element, 0 <= i < order: zero first, one second."""
        return i

    def iter_units(self):
        return (a for a in range(1, self.n) if math.gcd(a, self.n) == 1)


class PrimeField(IntegerModRing):
    kind = "Fp"

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p)
        self.p = p


def ring_from_spec(text):
    """Build a ring from its CLI spec string.

    Accepted forms: ``Q``, ``Z``, ``Zn:<n>``, ``Fp:<p>``,
    ``GF:<p>^<e>`` and ``GF:<p>^<e>:[c0,c1,...]``.
    """
    if not isinstance(text, str):
        raise ValueError(f"a ring spec must be a string, not {text!r}")
    text = text.strip()

    def bounded(order):
        if order > MAX_RING_ORDER:
            raise ResourceLimit(
                f"ring {text!r} has more than {MAX_RING_ORDER} elements"
            )
        return order

    if text == "Q":
        return RationalField()
    if text == "Z":
        return IntegerRing()
    if text.startswith("Zn:"):
        return IntegerModRing(bounded(_parse_int(text[3:])))
    if text.startswith("Fp:"):
        return PrimeField(bounded(_parse_int(text[3:])))
    if text.startswith("GF:"):
        rest = text[3:]
        parts = rest.split(":", 1)
        base = parts[0]
        if "^" not in base:
            raise ValueError(f"bad GF spec {text!r}; expected GF:p^e")
        p_str, e_str = base.split("^", 1)
        p, e = _parse_int(p_str), _parse_int(e_str)
        if p > 1 and e > 0:  # p^e is past the bound once e reaches its bits
            bounded(p ** min(e, MAX_RING_ORDER.bit_length()))
        modulus = None
        if len(parts) == 2:
            mtxt = parts[1].strip()
            if not (mtxt.startswith("[") and mtxt.endswith("]")):
                raise ValueError(f"bad modulus in {text!r}")
            modulus = tuple(_parse_int(c) for c in mtxt[1:-1].split(","))
        from .gf import GaloisField  # compiled only for a GF: spec

        return GaloisField(p, e, modulus)
    raise ValueError(f"unknown ring spec {text!r}")


def find_special_unit(ring):
    """A unit u with u+1 also a unit; used by the cube-to-product conversion."""
    if isinstance(ring, RationalField):
        return ring.one_value()
    if isinstance(ring, IntegerRing):
        raise NoSuchUnit("Z has no unit u with u+1 a unit")
    for v in ring.iter_units():
        if ring.is_unit(ring.add(v, ring.one_value())):
            return v
    raise NoSuchUnit(f"{ring.spec_string()} has no unit u with u+1 a unit")


def distinct_scalars(ring, count):
    """`count` pairwise distinct units, for scaling-based interpolation."""
    if isinstance(ring, RationalField):
        return [ring.coerce_value(i) for i in range(1, count + 1)]
    if not ring.is_finite:
        raise Unsupported(f"cannot pick scalars from {ring.spec_string()}")
    units = list(itertools.islice(ring.iter_units(), count))
    if len(units) < count:
        raise DegreeConditionError(
            f"need {count} distinct units but {ring.spec_string()} has {len(units)}"
        )
    return units
