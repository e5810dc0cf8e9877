"""Sparse exact multivariate polynomials.

Terms live in a dict mapping exponent tuples to nonzero raw coefficient
values of the attached ring.  The variable count is fixed per polynomial;
moving to more variables is an explicit embed step.  Degrees of the zero
polynomial are NEG_INF = -math.inf, below every integer, so
deg(fg) = deg f + deg g holds for zero factors too.

Products and substitutions run on packed monomials (Monagan & Pearce):
each exponent tuple becomes one mixed-radix int, with a radix per variable
above any exponent the computation reaches, so a monomial product is one
int add that never carries.  Results are unpacked, so `terms` stays the
exponent-tuple dict.
"""

from __future__ import annotations

import math
import operator

from .errors import PolynomialSyntaxError, ResourceLimit, Unsupported, ZeroPolynomial
from .rings import (_MAX_DIGITS, IntegerModRing, IntegerRing, RationalField,
                    _parse_int, is_prime)


NEG_INF = -math.inf


def p_power_split(exponents, p):
    """Largest p-power dividing every positive exponent; 1 when p = 0."""
    g = math.gcd(*exponents)
    if g == 0 or p == 0:
        return 1
    v = 0
    while g % p == 0:
        g //= p
        v += 1
    return p**v


def _term_order_key(exps):
    # graded lexicographic: total degree first, then the exponent tuple
    return (sum(exps), exps)


def _max_exponents(terms):
    """The largest exponent of each variable over a nonempty term dict."""
    return [max(column) for column in zip(*terms)]


def _pack(terms, radices):
    """(key, value) pairs, key the mixed-radix number with digits exps."""
    places = [1]
    for r in radices[:-1]:
        places.append(places[-1] * r)
    return [(sum(map(operator.mul, exps, places)), v) for exps, v in terms.items()]


def _unpack(packed, radices):
    """The exponent-tuple dict of a dict keyed by packed monomials."""
    out = {}
    for key, v in packed.items():
        exps = []
        for r in radices:
            key, e = divmod(key, r)
            exps.append(e)
        out[tuple(exps)] = v
    return out


def _mul_into(acc, left, right, ring):
    """acc += left * right over packed (key, value) pairs.  Over Z, Z/n, F_p
    and Q the raw values take native + and *, and sums stay unreduced."""
    get = acc.get
    if isinstance(ring, (IntegerRing, IntegerModRing, RationalField)):
        for k1, v1 in left:
            for k2, v2 in right:
                key = k1 + k2
                acc[key] = get(key, 0) + v1 * v2
    else:
        mul, add, zero = ring.mul, ring.add, ring.zero_value()
        for k1, v1 in left:
            for k2, v2 in right:
                key = k1 + k2
                acc[key] = add(get(key, zero), mul(v1, v2))


def _reduce(acc, ring):
    """The nonzero reduced values of an accumulator filled by `_mul_into`."""
    if isinstance(ring, IntegerModRing):
        n = ring.n
        return {k: r for k, v in acc.items() if (r := v % n)}
    zero = ring.zero_value()
    return {k: v for k, v in acc.items() if v != zero}


def _powers(g, needed, ring):
    """{e: g^e} over packed terms for 1, each e > 1 in needed and its halves,
    each built once.  So g^e = g^a * g^(e-a) is always at hand; the cheapest
    such pair in term pairs is set against steps g * g^(s-1) from the largest
    built power, counted at that power's size, and the cheaper is taken."""
    closure = {h for e in needed for s in range(e.bit_length())
               for h in (e >> s, -(-e >> s)) if h > 1}
    built = {1: g}
    for e in sorted(closure):
        if e in built:
            continue
        top = max(built)
        cost, a = min((len(built[a]) * len(built[e - a]), a)
                      for a in built if e - a in built)
        steps = [e]
        if cost > (e - top) * len(g) * len(built[top]):
            steps, a = range(top + 1, e + 1), 1
        for s in steps:
            acc = {}
            _mul_into(acc, built[a].items(), built[s - a].items(), ring)
            built[s] = _reduce(acc, ring)
    return built


class Polynomial:
    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring, nvars, terms=None):
        self.ring = ring
        self.nvars = nvars
        self.terms = {}
        if terms:
            zero = ring.zero_value()
            for exps, value in terms.items():
                if len(exps) != nvars:
                    raise ValueError("exponent tuple length must equal nvars")
                if value != zero:
                    self.terms[tuple(exps)] = value

    # -- constructors ------------------------------------------------------
    @classmethod
    def _clean(cls, ring, nvars, terms):
        """Over a term dict already clean: nvars-long tuple keys, no zeros."""
        out = cls(ring, nvars)
        out.terms = terms
        return out

    @classmethod
    def zero(cls, ring, nvars):
        return cls(ring, nvars)

    @classmethod
    def constant(cls, ring, nvars, c):
        v = ring.coerce_value(c)
        return cls(ring, nvars, {(0,) * nvars: v})

    @classmethod
    def variable(cls, ring, nvars, i):
        """x_i with 1-based index i."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(ring, nvars, {exps: ring.one_value()})

    @classmethod
    def monomial(cls, ring, exps, c=1):
        return cls(ring, len(exps), {tuple(exps): ring.coerce_value(c)})

    # -- basic queries -------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_affine(self):
        return self.total_deg() <= 1

    def monomials(self):
        """Exponent tuples in canonical (graded-lex descending) order."""
        return sorted(self.terms, key=_term_order_key, reverse=True)

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise ValueError("expected a Polynomial")
        if other.ring != self.ring or other.nvars != self.nvars:
            raise ValueError("ring or variable-count mismatch")

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        ring = self.ring
        zero = ring.zero_value()
        out = dict(self.terms)
        for exps, v in other.terms.items():
            s = ring.add(out.get(exps, zero), v)
            if s == zero:
                out.pop(exps, None)
            else:
                out[exps] = s
        return Polynomial._clean(ring, self.nvars, out)

    def __neg__(self):
        ring = self.ring
        return Polynomial._clean(
            ring, self.nvars, {e: ring.neg(v) for e, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        ring = self.ring
        if not self.terms or not other.terms:
            return Polynomial(ring, self.nvars)
        radices = [a + b + 1 for a, b in zip(
            _max_exponents(self.terms), _max_exponents(other.terms))]
        acc = {}
        _mul_into(acc, _pack(self.terms, radices), _pack(other.terms, radices), ring)
        return Polynomial._clean(ring, self.nvars, _unpack(_reduce(acc, ring), radices))

    def scale(self, c):
        ring = self.ring
        cv = ring.coerce_value(c)
        zero = ring.zero_value()
        return Polynomial._clean(ring, self.nvars, {
            e: w for e, v in self.terms.items() if (w := ring.mul(cv, v)) != zero})

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        acc = None
        base = self
        while k:
            if k & 1:
                acc = base if acc is None else acc * base
            base = base * base if k > 1 else base
            k >>= 1
        if acc is None:
            return Polynomial.constant(self.ring, self.nvars, 1)
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.nvars, frozenset(self.terms.items())))

    # -- substitution -------------------------------------------------------------
    def substitute(self, images):
        """f(images[0], ..., images[n-1]); the result lives where the images do.

        An affine f is a direct linear combination of the images.  Any other
        f is one packed kernel.  The radix of x_j's digit is 1 + the largest
        sum_i e_i * deg_j(images[i]) over the terms of f, which bounds every
        exponent of x_j reached below.  f is evaluated by Horner's rule over
        its variables, the image with the most terms outermost: f = sum_k
        images[i]^k * f_k(the other images), each f_k likewise.  Each image
        power is built once (`_powers`).  Over Z, Z/n, F_p and Q the sums are
        native and unreduced within one Horner level, which reduces them
        once; the result is unpacked once.
        """
        if len(images) != self.nvars:
            raise ValueError(f"need {self.nvars} images, got {len(images)}")
        ring = self.ring
        if not images:
            raise ValueError("substitution needs at least one variable")
        m = images[0].nvars
        for img in images:
            if img.ring != ring or img.nvars != m:
                raise ValueError("images must share the ring and a variable count")
        if self.is_affine():
            mul, add, zero = ring.mul, ring.add, ring.zero_value()
            constant = {(0,) * m: ring.one_value()}
            acc = {}
            for exps, v in self.terms.items():
                terms = images[exps.index(1)].terms if any(exps) else constant
                for key, pv in terms.items():
                    acc[key] = add(acc.get(key, zero), mul(v, pv))
            return Polynomial(ring, m, acc)
        terms = list(self.terms.items())
        order = sorted((i for i in range(self.nvars) if any(e[i] for e, _ in terms)),
                       key=lambda i: -len(images[i].terms))
        degrees = {i: _max_exponents(images[i].terms or [(0,) * m]) for i in order}
        radices = [1 + max(sum(e[i] * degrees[i][j] for i in order) for e, _ in terms)
                   for j in range(m)]
        powers = {i: _powers(dict(_pack(images[i].terms, radices)),
                             {e[i] for e, _ in terms}, ring) for i in order}

        def horner(part, depth):
            if depth == len(order):
                return {0: part[0][1]}
            i, groups = order[depth], {}
            for term in part:
                groups.setdefault(term[0][i], []).append(term)
            # the terms free of x_i are taken as they are, not times images[i]^0
            acc = horner(groups.pop(0), depth + 1) if 0 in groups else {}
            for k, group in groups.items():
                _mul_into(acc, horner(group, depth + 1).items(),
                          powers[i][k].items(), ring)
            return _reduce(acc, ring) if groups else acc

        return Polynomial._clean(ring, m, _unpack(horner(terms, 0), radices))

    def embed(self, nvars):
        """The same polynomial viewed inside a larger variable set."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable count")
        pad = (0,) * (nvars - self.nvars)
        return Polynomial(
            self.ring, nvars, {e + pad: v for e, v in self.terms.items()}
        )

    # -- degrees ------------------------------------------------------------------
    def deg_xi(self, i):
        if not self.terms:
            return NEG_INF
        return max(e[i - 1] for e in self.terms)

    def total_deg(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def sep_deg_xi(self, i):
        """Degree in x_i after stripping the largest common p-power of exponents."""
        p = self.ring.characteristic
        if p != 0 and not is_prime(p):
            raise Unsupported(
                f"separable degree needs characteristic 0 or prime, not {p}"
            )
        if not self.terms:
            return NEG_INF
        exps = [e[i - 1] for e in self.terms]
        return max(exps) // p_power_split(exps, p)

    def weighted_deg(self, weights):
        if len(weights) != self.nvars:
            raise ValueError("weight vector length must equal nvars")
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no weighted degree")
        return max(sum(w * e for w, e in zip(weights, exps)) for exps in self.terms)

    def top_w_part(self, weights):
        """Sum of the terms attaining the maximal weighted degree."""
        top = self.weighted_deg(weights)
        return Polynomial(
            self.ring,
            self.nvars,
            {
                exps: v
                for exps, v in self.terms.items()
                if sum(w * e for w, e in zip(weights, exps)) == top
            },
        )

    # -- printing -------------------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        ring = self.ring
        one = ring.one_value()
        parts = []
        for exps in self.monomials():
            v = self.terms[exps]
            vars_txt = "*".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(exps)
                if e > 0
            )
            if not vars_txt:
                txt = ring.format_value(v)
            elif v == one:
                txt = vars_txt
            else:
                txt = f"{ring.format_value(v)}*{vars_txt}"
            parts.append(txt)
        out = parts[0]
        for txt in parts[1:]:
            if txt.startswith("-"):
                out += " - " + txt[1:]
            else:
                out += " + " + txt
        return out

    def __repr__(self):
        return f"<{self} over {self.ring.spec_string()}>"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# Parser guards: parentheses nest at most _MAX_DEPTH deep; a product, or a
# power before it is expanded, is refused when its term-pair products (for a
# power, predicted from the sizes of its steps) exceed _MAX_PRODUCTS; and a
# power is refused when its exponent or (over Q and Z) its predicted
# coefficient size exceeds a limit.  A one-variable power near the product
# limit takes a few seconds over Q, with its large binomials.  Integers are
# ASCII digits; a literal and (over Q and Z) a coefficient of the result have
# at most _MAX_DIGITS digits, the most that Python converts to or from text.
_MAX_DEPTH = 100
_MAX_PRODUCTS = 500_000
_MAX_EXPONENT = 1 << 20
_MAX_POWER_BITS = 1 << 20
_TOO_LONG = 10**_MAX_DIGITS

# A variable count read from outside (parse --n, a map file's n) is at most
# MAX_VARIABLES, and a word file's ambient at most one more, for the
# stabilizing variable.  Each affine letter read from a file costs O(n^4)
# for its determinant; a dense letter in 33 variables builds and inverts in
# well under a second.
MAX_VARIABLES = 32


def bounded_variables(n, what, limit=MAX_VARIABLES):
    """n, once it is at most limit; ResourceLimit naming the limit past it."""
    if n > limit:
        raise ResourceLimit(f"{what} is {n}, past the limit of {limit} variables")
    return n


def _check_products(products, what):
    if products > _MAX_PRODUCTS:
        raise ResourceLimit(
            f"{what} takes {products} term products (limit {_MAX_PRODUCTS})"
        )


def _power_products(base, k):
    """Term-pair products of base**k, from predicted sizes of the powers."""
    n, d, t = base.nvars, base.total_deg(), len(base.terms)

    def size(j):
        # at most the monomials up to degree j*d, and the multisets of j terms
        return min(math.comb(n + j * d, n), math.comb(t + j - 1, j))

    # the steps of Polynomial.__pow__
    products, acc, j = 0, 0, 1
    while k:
        if k & 1:
            products += size(acc) * size(j) if acc else 0
            acc += j
        if k > 1:
            products += size(j) ** 2
        j, k = 2 * j, k >> 1
    return products


def _check_power(base, k, ring):
    """Refuse base**k, for a Polynomial or a monomial (exps, value) base."""
    values = base.terms.values() if type(base) is Polynomial else [base[1]]
    if k > _MAX_EXPONENT:
        raise ResourceLimit(f"exponent {k} exceeds the limit {_MAX_EXPONENT}")
    if len(values) > 1:
        _check_products(_power_products(base, k), "a power")
    if values and not ring.is_finite:
        # c^k has about k * log2|c| bits, over the numerator and denominator
        bits = k * max(
            v.numerator.bit_length() + v.denominator.bit_length() - 2
            for v in values
        )
        if bits > _MAX_POWER_BITS:
            raise ResourceLimit(
                f"a power may have {bits}-bit coefficients"
                f" (limit {_MAX_POWER_BITS})"
            )


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, message):
        raise PolynomialSyntaxError(message, self.pos)

    def take_int(self):
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error("expected an integer")
        return _parse_int(self.text[start:self.pos])


def parse_poly(text, ring, nvars):
    """Parse the canonical grammar: variables x1..xn, operators + - * ^.

    Coefficients use the ring's literal forms (integers, a/b over Q,
    [c0,c1,...] over extension fields).  Parentheses group subexpressions.
    Products of literals and variables are monomials (exps, value).
    """
    tk = _Tokens(text)
    poly = _parse_expr(tk, ring, nvars)
    tk.skip_ws()
    if tk.pos != len(text):
        tk.error(f"unexpected trailing input {text[tk.pos:]!r}")
    if not ring.is_finite and any(max(abs(v.numerator), v.denominator) >= _TOO_LONG
                                  for v in poly.terms.values()):
        raise ResourceLimit(f"a coefficient exceeds the {_MAX_DIGITS}-digit limit")
    return poly


def _parse_expr(tk, ring, nvars):
    add, neg, zero = ring.add, ring.neg, ring.zero_value()
    terms, sign = {}, tk.peek()
    if sign in ("+", "-"):
        tk.pos += 1
    while True:
        term = _parse_term(tk, ring, nvars)
        for exps, v in [term] if type(term) is tuple else term.terms.items():
            s = add(terms.get(exps, zero), neg(v) if sign == "-" else v)
            if s == zero:
                terms.pop(exps, None)
            else:
                terms[exps] = s
        sign = tk.peek()
        if sign not in ("+", "-"):
            return Polynomial(ring, nvars, terms)
        tk.pos += 1


def _parse_term(tk, ring, nvars):
    acc = _parse_factor(tk, ring, nvars)
    while tk.peek() == "*":
        tk.pos += 1
        factor = _parse_factor(tk, ring, nvars)
        if type(acc) is tuple and type(factor) is tuple:
            acc = (tuple(map(operator.add, acc[0], factor[0])),
                   ring.mul(acc[1], factor[1]))
            continue
        acc, factor = (Polynomial(ring, nvars, dict([f])) if type(f) is tuple else f
                       for f in (acc, factor))
        _check_products(len(acc.terms) * len(factor.terms), "a product")
        acc = acc * factor
    return acc


def _parse_factor(tk, ring, nvars):
    base = _parse_primary(tk, ring, nvars)
    while tk.peek() == "^":
        tk.pos += 1
        e = tk.take_int()
        if e < 0:
            tk.error("negative exponent")
        _check_power(base, e, ring)
        base = base**e if type(base) is Polynomial else (
            tuple(x * e for x in base[0]),
            base[1] if base[1] == ring.one_value() else ring.pow(base[1], e))
    return base


def _parse_primary(tk, ring, nvars):
    ch = tk.peek()
    if ch == "(":
        tk.depth += 1
        if tk.depth > _MAX_DEPTH:
            tk.error(f"parentheses nest deeper than {_MAX_DEPTH}")
        tk.pos += 1
        inner = _parse_expr(tk, ring, nvars)
        if tk.peek() != ")":
            tk.error("expected ')'")
        tk.pos += 1
        tk.depth -= 1
        return inner
    if ch == "x":
        tk.pos += 1
        i = tk.take_int()
        if not 1 <= i <= nvars:
            tk.error(f"variable x{i} outside x1..x{nvars}")
        return (0,) * (i - 1) + (1,) + (0,) * (nvars - i), ring.one_value()
    if ch == "[":
        start = tk.pos
        depth = 0
        while tk.pos < len(tk.text):
            c = tk.text[tk.pos]
            tk.pos += 1
            if c == "[":
                depth += 1
            elif c == "]":
                depth -= 1
                if depth == 0:
                    break
        else:
            tk.error("unterminated '['")
        literal = tk.text[start:tk.pos]
        try:
            return (0,) * nvars, ring.parse_literal(literal)
        except ValueError as exc:
            raise PolynomialSyntaxError(str(exc), start) from None
    if "0" <= ch <= "9" or ch == "-":
        start = tk.pos
        n = tk.take_int()
        if tk.peek() == "/":
            tk.pos += 1
            d = tk.take_int()
            try:
                return (0,) * nvars, ring.parse_literal(f"{n}/{d}")
            except ValueError as exc:
                raise PolynomialSyntaxError(str(exc), start) from None
        return (0,) * nvars, ring.coerce_value(n)
    tk.error(f"unexpected character {ch!r}" if ch else "unexpected end of input")
