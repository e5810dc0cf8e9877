"""Exact linear algebra over a field, on raw ring values, for scaling
interpolation (``witness``) and the delta module membership (``delta``)."""


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
