"""Exact linear algebra on raw ring values; matrices are lists of rows.

Products, the characteristic polynomial, the determinant and the adjugate
take only ring sums and products, so they hold over any commutative ring,
Z/n included (the affine letters of ``endo``).  Solving needs a field
(scaling interpolation in ``witness``).
"""


def mat_mul(ring, a, b):
    """a * b, skipping zero entries of both factors."""
    zero, add, mul = ring.zero_value(), ring.add, ring.mul
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for v, b_row in zip(row, b):
            if v != zero:
                for j, w in enumerate(b_row):
                    if w != zero:
                        acc[j] = add(acc[j], mul(v, w))
        out.append(acc)
    return out


def vec_mat(ring, v, a):
    return mat_mul(ring, [v], a)[0]


def charpoly(ring, a):
    """[1, c_1, ..., c_n] with det(x I - a) = x^n + c_1 x^(n-1) + ... + c_n.

    Berkowitz's division-free algorithm (IPL 1984), O(n^4) ring operations.
    With M the leading k x k block of a, C the column above a[k][k] and R
    the row left of it, the polynomial of the leading (k+1) x (k+1) block
    is the lower triangular Toeplitz matrix with first column
    (1, -a[k][k], -R C, -R M C, ..., -R M^(k-1) C) times that of M.
    """
    zero, one = ring.zero_value(), ring.one_value()
    add, mul = ring.add, ring.mul

    def dot(row, col):
        s = zero
        for i, v in col:
            if row[i] != zero:
                s = add(s, mul(row[i], v))
        return s

    p = [one]
    for k, row in enumerate(a):
        # q: the Toeplitz column below its leading 1, which passes p on as is
        q = [ring.neg(row[k])]
        # the nonzero entries (i, v) of C, then of M C, M^2 C, ...
        col = [(i, r[k]) for i, r in enumerate(a[:k]) if r[k] != zero]
        for t in range(k):
            q.append(ring.neg(dot(row, col)))
            if t < k - 1:
                col = [(i, s) for i, r in enumerate(a[:k])
                       if (s := dot(r, col)) != zero]
        new = p + [zero]
        for shift, c in enumerate(q, start=1):
            if c != zero:
                for j, v in enumerate(p[:k + 2 - shift]):
                    new[j + shift] = add(new[j + shift], mul(c, v))
        p = new
    return p


def det(ring, a):
    """(-1)^n c_n."""
    c = charpoly(ring, a)[-1]
    return ring.neg(c) if len(a) % 2 else c


def adjugate(ring, a):
    """(-1)^(n-1) (a^(n-1) + c_1 a^(n-2) + ... + c_(n-1) I), from
    Cayley-Hamilton, by Horner's rule in a."""
    n, zero = len(a), ring.zero_value()
    coeffs = charpoly(ring, a)[:n]
    out = [[zero] * n for _ in range(n)]
    for c in coeffs if n % 2 else map(ring.neg, coeffs):
        out = mat_mul(ring, a, out)
        for i in range(n):
            out[i][i] = ring.add(out[i][i], c)
    return out


def solve_field_system(ring, rows, rhs):
    """One solution of rows * x = rhs over a field, or None when inconsistent.

    rows may be rectangular; free variables are set to zero.
    """
    zero = ring.zero_value()
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for rr in range(r, nrows):
            if m[rr][c] != zero:
                pivot = rr
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ring.inv(m[r][c])
        m[r] = [ring.mul(inv, v) for v in m[r]]
        for rr in range(nrows):
            if rr != r and m[rr][c] != zero:
                factor = m[rr][c]
                m[rr] = [
                    ring.sub(v, ring.mul(factor, w)) for v, w in zip(m[rr], m[r])
                ]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for rr in range(r, nrows):
        if m[rr][ncols] != zero:
            return None
    x = [zero] * ncols
    for row_idx, c in enumerate(pivots):
        x[c] = m[row_idx][ncols]
    return x
