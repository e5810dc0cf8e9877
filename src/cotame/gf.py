"""GF(p^e) as F_p[y]/(modulus), with the F_p[t] helpers it needs.

A field of order at most 2^10 adds, negates, multiplies and inverts by
table lookup: on first use it builds log and antilog tables over a
generator of the unit group and Zech logs log(1 + g^k), all O(order).  The
values stay coefficient tuples; larger fields keep the schoolbook product
and polynomial division, and invert as a^(q-2).
"""

from __future__ import annotations

from .errors import NotAUnit
from .rings import Ring, _parse_int, is_prime


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
        self._label = f"GF({p}^{e})"
        self._spec = f"GF:{p}^{e}"
        if DEFAULT_MODULI.get((p, e)) != modulus:
            self._spec += ":[" + ",".join(map(str, modulus)) + "]"
        if self.order > _TABLE_MAX_ORDER:
            self._log = self._exp = self._zech = self._neg_log = None
            self.add, self.neg = self._slow_add, self._slow_neg
            self.mul, self.inv = self._slow_mul, self._slow_inv

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
        i = self._log.get(a)
        if i is None:
            return b
        j = self._log.get(b)
        if j is None:
            return a
        # g^i + g^j = g^i * (1 + g^(j-i))
        z = self._zech[j - i]
        return self._zero if z is None else self._exp[i + z]

    def neg(self, a):
        i = self._log.get(a)
        return a if i is None else self._exp[i + self._neg_log]

    def mul(self, a, b):
        log = self._log
        i, j = log.get(a), log.get(b)
        if i is None or j is None:
            return self._zero
        return self._exp[i + j]

    def inv(self, a):
        i = self._log.get(a)
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
        # Fermat: a^(q-1) = 1 for a unit a of the q-element field
        return self.pow(a, self.order - 2)

    def is_unit(self, a):
        return any(x != 0 for x in a)

    def zero_value(self):
        return self._zero

    def one_value(self):
        return self._pad([1])

    def coerce_value(self, x):
        if isinstance(x, int):
            return self._pad([x % self.p])
        if isinstance(x, (tuple, list)):
            if len(x) > self.e:
                raise ValueError("coefficient vector too long")
            return self._pad([int(c) % self.p for c in x])
        return super().coerce_value(x)

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
            return self.coerce_value(coeffs)
        return self.coerce_value(_parse_int(text))

    def format_value(self, value):
        if all(c == 0 for c in value[1:]):
            return str(value[0])
        return "[" + ",".join(str(c) for c in value) + "]"
