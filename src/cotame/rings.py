"""Exact coefficient rings: Q, Z, Z/nZ, F_p and GF(p^e).

Every ring works on canonical raw values (Fraction, int residue, or a
coefficient tuple for extension fields) so that equality of elements,
polynomials and maps is plain structural equality.  RingElement is the
public wrapper; internal hot loops call the ring's raw methods directly.

GF(p^e) of order at most 2^10 adds, negates, multiplies and inverts by
table lookup: on first use it builds log and antilog tables over a
generator of the unit group and Zech logs log(1 + g^k), all O(order).  The
values stay coefficient tuples; larger fields keep the schoolbook product
and polynomial division.
"""

from __future__ import annotations

import itertools
import math

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
    a frozen dataclass generates them, without importing ``dataclasses``."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({', '.join(fields)})"


class RingElement:
    """An element of a Ring, stored in canonical form."""

    __slots__ = ("ring", "value")

    def __init__(self, ring, value):
        self.ring = ring
        self.value = value

    def _check(self, other):
        if not isinstance(other, RingElement) or other.ring != self.ring:
            raise ValueError("ring mismatch in element arithmetic")

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.add(self.value, other.value))

    def __sub__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.sub(self.value, other.value))

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.mul(self.value, other.value))

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.value))

    def __pow__(self, k):
        return RingElement(self.ring, self.ring.pow(self.value, k))

    def inv(self):
        return RingElement(self.ring, self.ring.inv(self.value))

    def is_unit(self):
        return self.ring.is_unit(self.value)

    def is_nilpotent(self):
        return self.ring.is_nilpotent(self.value)

    def is_zero(self):
        return self.value == self.ring.zero_value()

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring == other.ring
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.ring, self.value))

    def __repr__(self):
        return self.ring.format_value(self.value)


class Ring:
    """Common interface; concrete rings fill in the raw-value arithmetic."""

    kind = "?"
    characteristic = 0
    is_field = False
    is_finite = False
    order = None  # number of elements when finite

    # -- raw value arithmetic -------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

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

    def is_unit(self, a):
        raise NotImplementedError

    def is_nilpotent(self, a):
        raise NotImplementedError

    def zero_value(self):
        raise NotImplementedError

    def one_value(self):
        raise NotImplementedError

    def coerce_value(self, x):
        """Canonical raw value from an int, RingElement or raw value."""
        raise NotImplementedError

    # -- wrapped helpers -------------------------------------------------
    @property
    def zero(self):
        return RingElement(self, self.zero_value())

    @property
    def one(self):
        return RingElement(self, self.one_value())

    def of(self, x):
        return RingElement(self, self.coerce_value(x))

    def elements(self):
        """All elements of a finite ring, in index_value order."""
        if not self.is_finite:
            raise Unsupported(f"{self.spec_string()} is not finite")
        return [RingElement(self, self.index_value(i)) for i in range(self.order)]

    def iter_units(self):
        """The unit values, lazily, in a fixed deterministic order."""
        raise Unsupported(f"cannot enumerate units of {self.spec_string()}")

    def sort_key(self, value):
        """Total order on raw values, used only for deterministic output."""
        raise NotImplementedError

    def parse_literal(self, text):
        raise NotImplementedError

    def format_value(self, value):
        raise NotImplementedError

    def spec_string(self):
        raise NotImplementedError

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return self.spec_string()


def _parse_int(text):
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    if not text.isdigit():
        raise ValueError(f"bad integer literal {text!r}")
    return sign * int(text)


class RationalField(Ring):
    kind = "Q"
    characteristic = 0
    is_field = True

    def __init__(self):
        global Fraction  # imported only by a request that works over Q
        from fractions import Fraction

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise NotAUnit("0 is not invertible in Q")
        return 1 / a

    def is_unit(self, a):
        return a != 0

    def is_nilpotent(self, a):
        return a == 0

    def zero_value(self):
        return Fraction(0)

    def one_value(self):
        return Fraction(1)

    def coerce_value(self, x):
        if isinstance(x, RingElement):
            if x.ring != self:
                raise ValueError("cannot coerce element from a different ring")
            return x.value
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise ValueError(f"cannot coerce {x!r} into Q")

    def sort_key(self, value):
        return (float(value), value.numerator, value.denominator)

    def parse_literal(self, text):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            d = _parse_int(den)
            if d == 0:
                raise ValueError("zero denominator")
            return self.of(Fraction(_parse_int(num), d))
        return self.of(_parse_int(text))

    def format_value(self, value):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"

    def spec_string(self):
        return "Q"

    def _key(self):
        return ("Q",)


class IntegerRing(Ring):
    kind = "Z"
    characteristic = 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotAUnit(f"{a} is not a unit of Z")

    def is_unit(self, a):
        return a in (1, -1)

    def is_nilpotent(self, a):
        return a == 0

    def zero_value(self):
        return 0

    def one_value(self):
        return 1

    def coerce_value(self, x):
        if isinstance(x, RingElement):
            if x.ring != self:
                raise ValueError("cannot coerce element from a different ring")
            return x.value
        if isinstance(x, int):
            return x
        raise ValueError(f"cannot coerce {x!r} into Z")

    def sort_key(self, value):
        return value

    def parse_literal(self, text):
        return self.of(_parse_int(text))

    def format_value(self, value):
        return str(value)

    def spec_string(self):
        return "Z"

    def _key(self):
        return ("Z",)


class IntegerModRing(Ring):
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

    def is_nilpotent(self, a):
        # max prime exponent in n is at most bit_length(n)
        return pow(a, self.n.bit_length(), self.n) == 0

    def zero_value(self):
        return 0

    def one_value(self):
        return 1

    def coerce_value(self, x):
        if isinstance(x, RingElement):
            if x.ring != self:
                raise ValueError("cannot coerce element from a different ring")
            return x.value
        if isinstance(x, int):
            return x % self.n
        raise ValueError(f"cannot coerce {x!r} into Z/{self.n}")

    def index_value(self, i):
        """The i-th element, 0 <= i < order: zero first, one second."""
        return i

    def iter_units(self):
        return (a for a in range(1, self.n) if math.gcd(a, self.n) == 1)

    def sort_key(self, value):
        return value

    def parse_literal(self, text):
        return self.of(_parse_int(text))

    def format_value(self, value):
        return str(value)

    def spec_string(self):
        return f"Zn:{self.n}"

    def _key(self):
        return ("Zn", self.n)


class PrimeField(IntegerModRing):
    kind = "Fp"

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p)
        self.p = p

    def spec_string(self):
        return f"Fp:{self.n}"

    def _key(self):
        return ("Fp", self.n)


# Built-in irreducible moduli over F_p, ascending coefficients (constant first),
# covering every prime power p^e <= 64 with e >= 2.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),              # y^2 + y + 1
    (2, 3): (1, 1, 0, 1),           # y^3 + y + 1
    (2, 4): (1, 1, 0, 0, 1),        # y^4 + y + 1
    (2, 5): (1, 0, 1, 0, 0, 1),     # y^5 + y^2 + 1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # y^6 + y + 1
    (3, 2): (1, 0, 1),              # y^2 + 1
    (3, 3): (1, 2, 0, 1),           # y^3 + 2y + 1
    (5, 2): (1, 1, 1),              # y^2 + y + 1
    (7, 2): (1, 0, 1),              # y^2 + 1
}


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul_mod_p(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_sub_p(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _poly_trim([(x - y) % p for x, y in zip(a, b)])


def _poly_divmod_p(a, b, p):
    # b monic-normalized by inverting its lead
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if db < 0:
        raise ZeroDivisionError
    lead_inv = pow(b[-1], -1, p)
    q = [0] * max(da - db + 1, 0)
    while len(_poly_trim(a)) - 1 >= db:
        a = _poly_trim(a)
        shift = len(a) - 1 - db
        coef = (a[-1] * lead_inv) % p
        q[shift] = coef
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bi) % p
    return _poly_trim(q), _poly_trim(a)


def _poly_is_irreducible(mod, p):
    """Trial division by all lower-degree monic polynomials; fine at this scale."""
    mod = _poly_trim(mod)
    e = len(mod) - 1
    if e < 1 or mod[-1] % p == 0:
        return False
    if e == 1:
        return True
    for d in range(1, e // 2 + 1):
        # iterate monic divisors of degree d
        for idx in range(p**d):
            cand = []
            k = idx
            for _ in range(d):
                cand.append(k % p)
                k //= p
            cand.append(1)
            _, rem = _poly_divmod_p(mod, cand, p)
            if not rem:
                return False
    return True


# The largest field order served by log, antilog and Zech tables.
_TABLE_MAX_ORDER = 1 << 10


class GaloisField(Ring):
    """GF(p^e) as F_p[y]/(modulus); values are fixed-length coefficient tuples."""

    kind = "GF"
    is_field = True
    is_finite = True

    def __init__(self, p, e, modulus=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not isinstance(e, int) or e < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is None:
            if e == 1:
                modulus = (0, 1)
            elif (p, e) in DEFAULT_MODULI:
                modulus = DEFAULT_MODULI[(p, e)]
            else:
                raise ValueError(
                    f"no built-in modulus for GF({p}^{e}); pass one explicitly"
                )
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree e")
        if not _poly_is_irreducible(list(modulus), p):
            raise ValueError(f"modulus {list(modulus)} is reducible over F_{p}")
        self.p = p
        self.e = e
        self.modulus = modulus
        self.characteristic = p
        self.order = p**e
        self._zero = (0,) * e
        if self.order > _TABLE_MAX_ORDER:
            self._log = self._exp = self._zech = self._neg_log = None

    def _pad(self, c):
        c = list(c)[: self.e]
        return tuple(c + [0] * (self.e - len(c)))

    def __getattr__(self, name):
        # reached only before the first table lookup of a field in the bound
        if name in ("_log", "_exp", "_zech", "_neg_log"):
            self._build_tables()
            return self.__dict__[name]
        raise AttributeError(name)

    def _build_tables(self):
        """log and antilog over a generator g of the unit group; Zech logs.

        exp holds g^0..g^(m-1) twice (m = order - 1), so exp[log a + log b]
        needs no reduction; zech[k] = log(1 + g^k), None where 1 + g^k = 0,
        and a negative difference of two logs indexes it from the end.
        """
        m = self.order - 1
        one = self.one_value()
        # y need not generate: under y^2 + 1 over F_3 it has order 4
        for g in self.iter_units():
            powers, v = [one], g
            while v != one:
                powers.append(v)
                v = self._slow_mul(v, g)
            if len(powers) == m:
                break
        log = {v: k for k, v in enumerate(powers)}
        self._log, self._exp = log, powers * 2
        self._zech = [log.get(self._slow_add(one, v)) for v in powers]
        self._neg_log = log[self._slow_neg(one)]

    def add(self, a, b):
        log = self._log
        if log is None:
            return self._slow_add(a, b)
        i = log.get(a)
        if i is None:
            return b
        j = log.get(b)
        if j is None:
            return a
        # g^i + g^j = g^i * (1 + g^(j-i))
        z = self._zech[j - i]
        return self._zero if z is None else self._exp[i + z]

    def neg(self, a):
        log = self._log
        if log is None:
            return self._slow_neg(a)
        i = log.get(a)
        return a if i is None else self._exp[i + self._neg_log]

    def mul(self, a, b):
        log = self._log
        if log is None:
            return self._slow_mul(a, b)
        i = log.get(a)
        j = log.get(b)
        if i is None or j is None:
            return self._zero
        return self._exp[i + j]

    def inv(self, a):
        log = self._log
        if log is None:
            return self._slow_inv(a)
        i = log.get(a)
        if i is None:
            raise NotAUnit("0 is not invertible")
        return self._exp[self.order - 1 - i]

    # -- schoolbook arithmetic: above the table bound, and to build tables --
    def _slow_add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _slow_neg(self, a):
        return tuple((-x) % self.p for x in a)

    def _slow_mul(self, a, b):
        prod = _poly_mul_mod_p(list(a), list(b), self.p)
        _, rem = _poly_divmod_p(prod, list(self.modulus), self.p)
        return self._pad(rem)

    def _slow_inv(self, a):
        if all(x == 0 for x in a):
            raise NotAUnit("0 is not invertible")
        # extended Euclid in F_p[y]
        r0, r1 = list(self.modulus), _poly_trim(list(a))
        t0, t1 = [], [1]
        while r1:
            q, r = _poly_divmod_p(r0, r1, self.p)
            r0, r1 = r1, r
            t0, t1 = t1, _poly_sub_p(t0, _poly_mul_mod_p(q, t1, self.p), self.p)
        # r0 is the gcd, a nonzero constant since the modulus is irreducible
        c_inv = pow(r0[0], -1, self.p)
        return self._pad([(x * c_inv) % self.p for x in t0])

    def is_unit(self, a):
        return any(x != 0 for x in a)

    def is_nilpotent(self, a):
        return all(x == 0 for x in a)

    def zero_value(self):
        return self._zero

    def one_value(self):
        return self._pad([1])

    def coerce_value(self, x):
        if isinstance(x, RingElement):
            if x.ring != self:
                raise ValueError("cannot coerce element from a different ring")
            return x.value
        if isinstance(x, int):
            return self._pad([x % self.p])
        if isinstance(x, (tuple, list)):
            if len(x) > self.e:
                raise ValueError("coefficient vector too long")
            return self._pad([int(c) % self.p for c in x])
        raise ValueError(f"cannot coerce {x!r} into GF({self.p}^{self.e})")

    def index_value(self, i):
        coeffs = []
        for _ in range(self.e):
            coeffs.append(i % self.p)
            i //= self.p
        return tuple(coeffs)

    def iter_units(self):
        return (self.index_value(i) for i in range(1, self.order))

    def sort_key(self, value):
        return sum(c * self.p**i for i, c in enumerate(value))

    def parse_literal(self, text):
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError(f"unterminated coefficient vector {text!r}")
            inner = text[1:-1].strip()
            coeffs = [] if not inner else [_parse_int(c) for c in inner.split(",")]
            return self.of(coeffs)
        return self.of(_parse_int(text))

    def format_value(self, value):
        if all(c == 0 for c in value[1:]):
            return str(value[0])
        return "[" + ",".join(str(c) for c in value) + "]"

    def spec_string(self):
        if (self.p, self.e) in DEFAULT_MODULI and self.modulus == DEFAULT_MODULI[
            (self.p, self.e)
        ]:
            return f"GF:{self.p}^{self.e}"
        return f"GF:{self.p}^{self.e}:[" + ",".join(str(c) for c in self.modulus) + "]"

    def _key(self):
        return ("GF", self.p, self.e, self.modulus)


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
        return GaloisField(p, e, modulus)
    raise ValueError(f"unknown ring spec {text!r}")


def enumerate_units(ring):
    """All units of a finite ring in a fixed deterministic order."""
    if not ring.is_finite:
        raise Unsupported(f"{ring.spec_string()} has infinitely many elements")
    return [RingElement(ring, v) for v in ring.iter_units()]


def find_special_unit(ring):
    """A unit u with u+1 also a unit; used by the cube-to-product conversion."""
    if isinstance(ring, RationalField):
        return ring.one
    if isinstance(ring, IntegerRing):
        raise NoSuchUnit("Z has no unit u with u+1 a unit")
    for v in ring.iter_units():
        if ring.is_unit(ring.add(v, ring.one_value())):
            return RingElement(ring, v)
    raise NoSuchUnit(f"{ring.spec_string()} has no unit u with u+1 a unit")


def distinct_scalars(ring, count):
    """`count` pairwise distinct units, for scaling-based interpolation."""
    if isinstance(ring, RationalField):
        return [ring.of(i) for i in range(1, count + 1)]
    if not ring.is_finite:
        raise Unsupported(f"cannot pick scalars from {ring.spec_string()}")
    units = list(itertools.islice(ring.iter_units(), count))
    if len(units) < count:
        raise DegreeConditionError(
            f"need {count} distinct units but {ring.spec_string()} has {len(units)}"
        )
    return [RingElement(ring, v) for v in units]
