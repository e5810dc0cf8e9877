"""Affine maps, structured inversion and generator words.

The map core (Endomorphism, composition, elementary maps, ideals and
quotients) lives in ``maps``; this module adds what needs matrices or
words.  The word verifier (`first_mismatch`, `verify_witness`) lives here
too, so checking a word needs none of the code that builds one.
`theta_map` needs only inversion and affine maps, so it lives here too
and `theta` runs no builder code.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import NotAUnit, ResourceLimit, Unsupported
from .linalg import adjugate, det as matrix_det, mat_mul, vec_mat
from .maps import Endomorphism, compose, elementary, extend, identity
from .maps import _field, _is_list, _is_positive_int
from .poly import MAX_VARIABLES, Polynomial, bounded_variables


def swap_perm(n, *pairs):
    """The list 1..n with the 1-based positions of each pair swapped in turn."""
    perm = list(range(1, n + 1))
    for a, b in pairs:
        perm[a - 1], perm[b - 1] = perm[b - 1], perm[a - 1]
    return perm


def conjugate(phi, sigma, sigma_inverse=None):
    """sigma^{-1} o phi o sigma for an invertible sigma."""
    if isinstance(sigma, AffineMap):
        sigma_inverse = sigma.inverse().to_endo()
        sigma = sigma.to_endo()
    elif sigma_inverse is None:
        sigma_inverse = invert_structured(sigma)
    return compose(sigma_inverse, compose(phi, sigma))


# ---------------------------------------------------------------------------
# affine maps
# ---------------------------------------------------------------------------

def _affine_rows(ring, images):
    """(A, b) of affine images: A[i][j] is the coefficient of x_{i+1} in
    images[j], b[j] its constant term."""
    n = len(images)
    zero = ring.zero_value()
    A = [[zero] * n for _ in range(n)]
    b = [zero] * n
    for j, img in enumerate(images):
        if not img.is_affine():
            raise ValueError("map is not affine")
        for exps, v in img.terms.items():
            if sum(exps) == 0:
                b[j] = v
            else:
                A[exps.index(1)][j] = v
    return A, b


class AffineMap:
    """x -> xA + b with A invertible over R.

    Entries are raw ring values.  A[i][j] is the coefficient of x_{i+1} in
    the image of x_{j+1}.  Construction checks only that det A is a unit.
    A caller that knows det A passes it as `det`; otherwise Berkowitz's
    characteristic polynomial computes it.  The inverse map is built on the
    first call of inverse() and kept, with this map as its own inverse.
    """

    __slots__ = ("ring", "n", "A", "b", "det", "_inv", "_img")

    def __init__(self, ring, A, b, det=None, _inv=None):
        n = len(A)
        if any(len(row) != n for row in A) or len(b) != n:
            raise ValueError("matrix/translation shape mismatch")
        self.ring = ring
        self.n = n
        self.A = [[ring.coerce_value(v) for v in row] for row in A]
        self.b = [ring.coerce_value(v) for v in b]
        self._img = None
        self._inv = _inv
        self.det = matrix_det(ring, self.A) if det is None else det
        if not ring.is_unit(self.det):
            raise NotAUnit(
                f"matrix determinant {ring.format_value(self.det)} is not a unit"
            )

    def inverse(self):
        """x -> (x - b) A^-1, with A^-1 the adjugate over the determinant."""
        if self._inv is None:
            ring = self.ring
            det_inv = ring.inv(self.det)
            inv = [[ring.mul(det_inv, v) for v in row]
                   for row in adjugate(ring, self.A)]
            b_inv = vec_mat(ring, [ring.neg(v) for v in self.b], inv)
            self._inv = AffineMap(ring, inv, b_inv, det=det_inv, _inv=self)
        return self._inv

    def image_polys(self):
        if self._img is None:
            n = self.n
            xs = [tuple(int(t == i) for t in range(n)) for i in range(n)]
            self._img = [
                Polynomial(self.ring, n, {**dict(zip(xs, column)), (0,) * n: c})
                for column, c in zip(zip(*self.A), self.b)]
        return self._img

    def embed(self, ambient):
        """Block-extend to more variables, fixing the new ones."""
        if ambient < self.n:
            raise ValueError("cannot shrink an affine map")
        if ambient == self.n:
            return self
        ring, n = self.ring, self.n
        zero, one = ring.zero_value(), ring.one_value()
        pad = [zero] * (ambient - n)
        lower = [[one if j == i else zero for j in range(ambient)]
                 for i in range(n, ambient)]
        return AffineMap(ring, [row + pad for row in self.A] + lower, self.b + pad,
                         det=self.det)

    def to_endo(self):
        return Endomorphism(self.ring, self.image_polys())

    def apply(self, f):
        """f(xA + b).  When b = 0 and column j of A holds one nonzero c, in
        row i, the map sends x_j to c x_i: each term is moved and rescaled,
        x_j^e to c^e x_i^e, and nothing is substituted."""
        ring, n = self.ring, self.n
        zero, one = ring.zero_value(), ring.one_value()
        moves = [[(i, c) for i, c in enumerate(col) if c != zero]
                 for col in zip(*self.A)]
        if (f.nvars != n or any(v != zero for v in self.b)
                or any(len(m) != 1 for m in moves)):
            return f.substitute(self.image_polys())
        terms = {}
        for exps, v in f.terms.items():
            out = [0] * n
            for ((i, c),), e in zip(moves, exps):
                if e:
                    out[i] = e
                    if c != one:
                        v = ring.mul(v, ring.pow(c, e))
            terms[tuple(out)] = v
        return Polynomial(ring, n, terms)

    def compose(self, other):
        """self o other (apply other's substitution first)."""
        ring = self.ring
        A = mat_mul(ring, self.A, other.A)
        b = [
            ring.add(v, w)
            for v, w in zip(vec_mat(ring, self.b, other.A), other.b)
        ]
        return AffineMap(ring, A, b, det=ring.mul(self.det, other.det))

    def __eq__(self, other):
        return (isinstance(other, AffineMap) and self.ring == other.ring
                and self.A == other.A and self.b == other.b)

    def __hash__(self):
        return hash((self.ring, tuple(map(tuple, self.A)), tuple(self.b)))

    def __repr__(self):
        return f"AffineMap({self.to_endo()!r})"

    # -- constructors -----------------------------------------------------
    @classmethod
    def identity(cls, ring, n):
        return cls.translation(ring, [ring.zero_value()] * n)

    @classmethod
    def permutation(cls, ring, perm):
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError(f"{perm} is not a permutation of 1..{n}")
        one, zero = ring.one_value(), ring.zero_value()
        A = [[one if perm[j] == i else zero for j in range(n)] for i in range(1, n + 1)]
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        return cls(ring, A, [zero] * n,
                   det=ring.neg(one) if inversions % 2 else one)

    @classmethod
    def diagonal(cls, ring, scalars):
        scalars = [ring.coerce_value(s) for s in scalars]
        zeros = [ring.zero_value()] * len(scalars)
        return cls(ring, [zeros[:i] + [s] + zeros[i + 1:]
                          for i, s in enumerate(scalars)], zeros,
                   det=functools.reduce(ring.mul, scalars, ring.one_value()))

    @classmethod
    def translation(cls, ring, vector):
        n, zero, one = len(vector), ring.zero_value(), ring.one_value()
        return cls(ring, [[one if j == i else zero for j in range(n)]
                          for i in range(n)], vector, det=one)

    @classmethod
    def from_affine_endo(cls, phi):
        """Extract (A, b) from an affine endomorphism; checks invertibility."""
        return cls(phi.ring, *_affine_rows(phi.ring, phi.images))

    @classmethod
    def variable_shift(cls, h, ambient, index):
        """The affine map adding the affine polynomial h to x_index (1-based).

        h must avoid x_index, which keeps the map unipotent.
        """
        if not h.is_affine():
            raise ValueError("shift polynomial must be affine")
        g = h.embed(ambient) if h.nvars < ambient else h
        if any(exps[index - 1] for exps in g.terms):
            raise ValueError("shift polynomial must avoid the shifted variable")
        images = identity(h.ring, ambient).images
        images[index - 1] = images[index - 1] + g
        return cls(h.ring, *_affine_rows(h.ring, images), det=h.ring.one_value())

    def to_json(self):
        fmt = self.ring.format_value
        return {
            "A": [[fmt(v) for v in row] for row in self.A],
            "b": [fmt(v) for v in self.b],
        }

    @classmethod
    def from_json(cls, ring, data, n):
        """The letter's A (n lists of n entries) and b (n entries)."""

        def val(x):
            if isinstance(x, str):
                return ring.parse_literal(x)
            if type(x) is int:
                return ring.coerce_value(x)
            raise ValueError(f"matrix entry {x!r} must be a string or an integer")

        rows = _field(
            data,
            "A",
            lambda v: _is_list(v, n) and all(_is_list(row, n) for row in v),
            f"a list of {n} lists of {n} entries",
        )
        b = _field(data, "b", lambda v: _is_list(v, n), f"a list of {n} entries")
        return cls(ring, [[val(v) for v in row] for row in rows], [val(v) for v in b])


# ---------------------------------------------------------------------------
# structured inversion
# ---------------------------------------------------------------------------

def _triangular_inverse(phi):
    ring, n = phi.ring, phi.nvars
    one_exps = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    later = set()
    order = []
    remaining = set(range(1, n + 1))
    while remaining:
        progressed = False
        for i in sorted(remaining):
            img = phi.images[i - 1]
            c = img.terms.get(one_exps[i - 1])
            if c is None or not ring.is_unit(c):
                continue
            if any((exps[i - 1] > 0 and exps != one_exps[i - 1])
                   or not {j + 1 for j, e in enumerate(exps) if e > 0} <= later | {i}
                   for exps in img.terms):
                continue
            g = img - Polynomial.monomial(ring, one_exps[i - 1], c)
            order.append((i, c, g))
            later.add(i)
            remaining.remove(i)
            progressed = True
        if not progressed:
            raise ValueError("map is not triangular in any variable order")
    inv_images = [Polynomial.variable(ring, n, i + 1) for i in range(n)]
    for i, c, g in order:
        g_sub = g.substitute(inv_images)
        xi = Polynomial.variable(ring, n, i)
        inv_images[i - 1] = (xi - g_sub).scale(ring.inv(c))
    return Endomorphism(ring, inv_images)


def invert_structured(phi):
    """Exact inverse of an affine map, or else of a triangular one (an
    elementary map is triangular).

    The result is verified by composing with phi in both orders; anything
    that fails the check raises instead of returning a wrong inverse.
    """
    if phi.is_affine():
        inverse = AffineMap.from_affine_endo(phi).inverse().to_endo()
    else:
        inverse = _triangular_inverse(phi)
    message = "computed inverse failed the composition check"
    return check_inverse(phi, inverse, message)


def check_inverse(phi, inverse, message):
    """inverse, once both orders compose to the identity (one product if equal)."""
    ident = identity(phi.ring, phi.nvars)
    if compose(phi, inverse) != ident or (
        inverse != phi and compose(inverse, phi) != ident
    ):
        raise ValueError(message)
    return inverse


def try_invert(phi):
    try:
        return invert_structured(phi)
    except (ValueError, NotAUnit):
        return None


def _bounded(phi, limit, what):
    """phi, once its images hold at most limit terms in all; past that a
    ResourceLimit that names what grew."""
    size = sum(len(img.terms) for img in phi.images)
    if size > limit:
        raise ResourceLimit(f"{what} grew to {size} terms (limit {limit})")
    return phi


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
    beta_inv = invert_structured(beta)
    forward = compose(beta, pi)
    backward = compose(pi, beta_inv)

    def guarded(a, b):
        return _bounded(compose(a, b), max_terms, "theta composition")

    fwd_n = forward
    bwd_n = backward
    for _ in range(N - 1):
        fwd_n = guarded(fwd_n, forward)
        bwd_n = guarded(bwd_n, backward)
    theta = guarded(bwd_n, guarded(pi, fwd_n))
    theta_prime = guarded(theta, pi)
    return theta, theta_prime


# ---------------------------------------------------------------------------
# generator words
# ---------------------------------------------------------------------------

# Word evaluation stops once a partial product holds more terms than there
# are monomials of degree at most max(deg phi, deg phi^-1) in the word's
# variables, or than the floor if that is larger.
_EVAL_TERM_FLOOR = 10_000


def _map_degree(phi):
    return max(
        (img.total_deg() for img in phi.images if not img.is_zero()), default=0
    )


# The most work a word file may ask for, as GeneratorWord.from_json counts it:
# up to ~1 us a unit over F_7 (Python 3.11, Xeon).  The golden corpus's witness
# words for its maps padded to 32 variables weigh up to 3,643,761 (1 s to verify).
MAX_WORD_SIZE = 5_000_000


class GeneratorWord:
    """A product of affine letters and phi^{+-1} in the ambient variable count.

    Each letter is an AffineMap in `ambient` variables or the int 1 (phi)
    or -1 (phi^-1).  Evaluation is left-to-right composition: the word
    [l1, l2, l3] denotes l1 o l2 o l3.
    """

    __slots__ = ("ambient", "letters")

    def __init__(self, ambient, letters=()):
        self.ambient = ambient
        self.letters = list(letters)

    def __len__(self):
        return len(self.letters)

    def __add__(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch in word concatenation")
        return GeneratorWord(self.ambient, self.letters + other.letters)

    def inverse(self):
        return GeneratorWord(self.ambient, [
            letter.inverse() if isinstance(letter, AffineMap) else -letter
            for letter in reversed(self.letters)
        ])

    def evaluate(self, phi, phi_inverse=None):
        """Exact left-to-right composition product of the letters.

        Associativity allows any parenthesization; matched phi/phi^-1
        pairs are collapsed innermost-first, which keeps every
        substitution into the (possibly high-degree) images of phi small
        without trusting anything about where the word came from.  Each
        distinct bracket phi o A o phi^-1 is composed once per call, keyed
        on the exact value of A.  Each non-affine image g of phi^-1 is
        substituted into C = phi o A once per call and per value of C at the
        variables g reads, all that g(C) depends on.

        The top-level units then fold by two exact rules, tested on values;
        a shift adds to one x_k a polynomial free of x_k, fixing the rest.
        Affine a, b with b o a = id around a shift B are one unit a o B o b,
        built once per (a, B, b); a run of shifts of one x_k is one map, as
        (x_k + p) o (x_k + q) = x_k + p + q.  A partial product, fused unit
        or run sum past the term limit raises ResourceLimit.
        """
        ring = phi.ring
        extra = self.ambient - phi.nvars
        if extra not in (0, 1):
            raise ValueError(
                f"word has ambient {self.ambient}, phi has {phi.nvars} variables"
            )
        if phi_inverse is None and -1 in self.letters:
            phi_inverse = try_invert(phi)
            if phi_inverse is None:
                raise Unsupported(
                    "word uses phi^-1; supply the inverse tuple explicitly"
                )
        phi_ext = extend(phi, extra)
        inv_ext = None if phi_inverse is None else extend(phi_inverse, extra)
        ident = identity(ring, self.ambient)
        # Any bracket eta o phi o A o phi^-1 o eta^-1 of a witness word has
        # degree at most deg phi, so it fits however dense it is; a bracket
        # that no longer cancels has degree up to deg phi * deg phi^-1 and
        # its products grow without bound, so stop them.
        degree = max(
            _map_degree(m) for m in (phi_ext, inv_ext) if m is not None
        )
        limit = max(
            _EVAL_TERM_FLOOR, math.comb(degree + self.ambient, self.ambient)
        )

        def bounded(out):
            return _bounded(out, limit, "word evaluation")

        # phi o A o phi^-1 for each distinct inner value A, computed once
        brackets = {}
        # g(C) by the index of g in phi^-1 and C at the variables g reads
        substituted = {}

        def substitute_once(i, g, images):
            if g.is_affine():
                return g.substitute(images)
            key = (i, *(h for h, e in zip(images, zip(*g.terms)) if any(e)))
            if key not in substituted:
                substituted[key] = g.substitute(images)
            return substituted[key]

        # units: the top-level letters and brackets.  stack: from the first
        # unclosed phi on, ("open", None) for a phi, ("val", endo) after it
        units, stack = [], []

        def fold_value(value):
            if not stack:
                units.append(value)
            elif stack[-1][0] == "val":
                stack[-1] = ("val", bounded(compose(stack[-1][1], value)))
            else:
                stack.append(("val", value))

        for letter in self.letters:
            if isinstance(letter, AffineMap):
                fold_value(letter.to_endo() if stack else letter)
            elif letter == 1:
                stack.append(("open", None))
            elif not stack:
                fold_value(inv_ext)
            else:
                inner = ident
                if stack[-1][0] == "val":
                    inner = stack.pop()[1]
                stack.pop()  # the matching open marker
                bracket = brackets.get(inner)
                if bracket is None:
                    outer = bounded(compose(phi_ext, inner)).images
                    bracket = brackets[inner] = bounded(Endomorphism(ring, [
                        substitute_once(i, g, outer)
                        for i, g in enumerate(inv_ext.images)]))
                fold_value(bracket)
        # shifts: unit id -> (k, p) if the unit is the shift x_k + p
        shifts, fused, top = {}, {}, []
        zero = ring.zero_value()

        def shift_of(unit):
            if id(unit) not in shifts:
                moved = [] if isinstance(unit, AffineMap) else [
                    (k, img - x) for k, (img, x) in enumerate(
                        zip(unit.images, ident.images)) if img != x]
                shifts[id(unit)] = moved[0] if len(moved) == 1 and not any(
                    e[moved[0][0]] for e in moved[0][1].terms) else (None, None)
            return shifts[id(unit)]

        for unit in units:
            top.append(unit)
            a, B, b = ([None] * 3 + top)[-3:]
            if not (isinstance(a, AffineMap) and isinstance(b, AffineMap)
                    and shift_of(B)[0] is not None):
                continue
            key = (id(a), id(B), id(b))
            if key not in fused:
                fused[key], (k, q) = None, shift_of(B)
                if compose(a.to_endo(), b.to_endo()) == ident:
                    # x_j goes to x_j + b.A[k][j] * q(a), as b_j(a) = x_j
                    qa = a.apply(q)
                    fused[key] = bounded(Endomorphism(ring, [
                        x if c == zero else x + qa.scale(c)
                        for x, c in zip(ident.images, b.A[k])]))
            if fused[key] is not None:
                top[-3:] = [fused[key]]
        acc = ident
        for k, run in itertools.groupby(top, key=lambda unit: shift_of(unit)[0]):
            run = [unit.to_endo() if isinstance(unit, AffineMap) else unit
                   for unit in run]
            if k is not None and len(run) > 1:
                images = list(ident.images)
                images[k] = sum((shift_of(unit)[1] for unit in run), images[k])
                run = [bounded(Endomorphism(ring, images))]
            for value in run:
                acc = bounded(compose(acc, value))
        for kind, value in stack:
            acc = bounded(compose(acc, phi_ext if kind == "open" else value))
        return acc

    def to_json(self):
        """The word file's object; the entries of one letter object are one
        shared dict, which the CLI's writer encodes once."""
        distinct = {id(letter): letter for letter in self.letters}
        shared = {key: {"kind": "affine", **letter.to_json()}
                  if isinstance(letter, AffineMap) else {"kind": "phi", "exp": letter}
                  for key, letter in distinct.items()}
        return {"ambient": self.ambient,
                "letters": [shared[id(letter)] for letter in self.letters]}

    @classmethod
    def from_json(cls, ring, data):
        ambient = bounded_variables(
            _field(data, "ambient", _is_positive_int, "a positive integer"),
            "'ambient'", MAX_VARIABLES + 1)
        entries = _field(data, "letters", lambda v: isinstance(v, list), "a list")
        # a word file repeats a few letters many times: build each once, keyed
        # on the repr of its A and b, which tells apart JSON values of any type
        keys = [repr((e["A"], e.get("b"))) if isinstance(e, dict)
                and isinstance(e.get("A"), list) else None for e in entries]
        # the work they ask for, before any is built: ambient^3 to build each
        # distinct affine letter (Berkowitz) and ambient * (ambient + nonzeros
        # of A) to compose each letter; phi^+-1 has no A
        nonzeros = {key: sum(v not in (0, "0") for row in e["A"]
                             if isinstance(row, list) for v in row)
                    for key, e in dict(zip(keys, entries)).items() if key is not None}
        size = ambient * (len(nonzeros) * ambient**2
                          + sum(ambient + nonzeros.get(key, 0) for key in keys))
        if size > MAX_WORD_SIZE:
            raise ResourceLimit(
                f"a word of {len(entries)} letters in {ambient} variables has size"
                f" {size}, past the limit of {MAX_WORD_SIZE}")
        letters, built = [], {}
        for entry, key in zip(entries, keys):
            kind = _field(entry, "kind", lambda v: v in ("affine", "phi"),
                          "'affine' or 'phi'")
            if kind == "affine":
                if key not in built:
                    built[key] = AffineMap.from_json(ring, entry, ambient)
                letters.append(built[key])
            else:
                letters.append(_field(entry, "exp",
                                      lambda v: type(v) is int and v in (1, -1),
                                      "1 or -1"))
        return cls(ambient, letters)


def first_mismatch(word, phi, target, phi_inverse=None):
    """The first variable whose image differs between the word's value and
    the target, both extended to ambient; None when they agree exactly."""
    if isinstance(target, Polynomial):
        target = elementary(target)
    value = word.evaluate(phi, phi_inverse)
    expected = extend(target, word.ambient - target.nvars)
    for i in range(word.ambient):
        if value.images[i] != expected.images[i]:
            return i + 1
    return None


def verify_witness(word, phi, target, phi_inverse=None):
    """Exact check: the word evaluates to the target, both extended to ambient."""
    return first_mismatch(word, phi, target, phi_inverse) is None


def conjugate_word(word, sigma):
    """The word for sigma^{-1} o w o sigma, sigma an affine map."""
    return GeneratorWord(word.ambient, [sigma.inverse(), *word.letters, sigma])
