"""Small dense-matrix helpers over arbitrary exact rings.

Matrices are lists of row lists whose entries support +, *, unary -, ==.
A zero element must be passed in where sums start from scratch.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

Matrix = list[list[Any]]


def _square(a: Matrix) -> int:
    """The size of a nonempty square matrix; anything else is refused."""
    n = len(a)
    if n == 0 or any(len(r) != n for r in a):
        raise ValueError("need a nonempty square matrix")
    return n


def mat_mul(a: Matrix, b: Matrix, zero: Any) -> Matrix:
    rows, mid, cols = len(a), len(b), len(b[0]) if b else 0
    if any(len(r) != mid for r in a):
        raise ValueError(f"cannot multiply: a row of the left factor is not {mid} long")
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = zero
            for k in range(mid):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def identity(n: int, one: Any, zero: Any) -> Matrix:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def diagonal(entries: Sequence[Any], zero: Any) -> Matrix:
    n = len(entries)
    return [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def map_entries(f: Callable[[Any], Any], a: Matrix) -> Matrix:
    return [[f(x) for x in row] for row in a]


def hermitian_fill(n: int, entry: Callable[[int, int], Any]) -> Matrix:
    """The n x n Hermitian matrix with entry(i, j) on and above the
    diagonal: each entry below it is the conjugate of its mirror, so entry
    runs once per unordered pair."""
    out: Matrix = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = entry(i, j)
            out[i][j] = val
            if i != j:
                out[j][i] = val.conj()
    return out


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return False
    return all(x == y for r, s in zip(a, b) for x, y in zip(r, s))


def determinant(a: Matrix, zero: Any, div: Callable[[Any, Any], Any]) -> Any:
    """Determinant by fraction-free (Bareiss) elimination.

    div(x, y) must be exact division; over a field x * inv(y) always works,
    and Bareiss guarantees exactness over an integral domain.
    """
    n = _square(a)
    m = [row[:] for row in a]
    flip = False
    prev = None
    for k in range(n - 1):
        if m[k][k] == zero:
            swap = next((r for r in range(k + 1, n) if not (m[r][k] == zero)), None)
            if swap is None:
                return zero
            m[k], m[swap] = m[swap], m[k]
            flip = not flip
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = t if prev is None else div(t, prev)
            m[i][k] = zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if flip else det


def mat_inverse(a: Matrix, one: Any, zero: Any, inv: Callable[[Any], Any]) -> Matrix:
    """Gauss-Jordan inverse; entries must form a field under inv."""
    n = _square(a)
    m = [row[:] + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    for k in range(n):
        piv = next((r for r in range(k, n) if not (m[r][k] == zero)), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
        w = inv(m[k][k])
        m[k] = [x * w for x in m[k]]
        for r in range(n):
            if r != k and not (m[r][k] == zero):
                f = m[r][k]
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return [row[n:] for row in m]


def ldl_decomposition(
    a: Matrix, one: Any, zero: Any, inv: Callable[[Any], Any],
    conj: Callable[[Any], Any], dot: Callable[[list[tuple[Any, Any]]], Any],
) -> tuple[Matrix, list[Any]]:
    """a = L diag(d) L*, L unit-lower-triangular, for Hermitian a.

    conj is the involution of the entry ring (identity for symmetric input).
    Every leading principal minor must be nonsingular; a zero pivot surfaces
    as whatever inv raises once a nonzero entry below it needs dividing.
    Row i keeps L[i][k] d[k], the value it divides by d[k] (Golub & Van Loan,
    Matrix Computations, 4.1), and each finished row of L is conjugated
    once, so an update is one sum of products: a[i][j] minus dot over the
    pairs (L[i][k] d[k], conj(L[j][k])).  Every certificate factors integral
    rows and passes a fused integral sum such as CycContext.dot, which then
    raises on a denominator in L.  Pairs with a zero entry are left out (an
    entry never set stays the zero object itself), so a sparse a (a diagonal
    one, say) costs only the products its nonzero entries need.
    """
    n = _square(a)
    lower = [[zero] * n for _ in range(n)]
    lower_conj: list[list[tuple[int, Any]]] = []  # (k, conj(L[j][k])), L[j][k] != 0
    diag: list[Any] = [zero] * n
    for i in range(n):
        row = lower[i]
        row_d = [zero] * i  # row_d[k] = L[i][k] d[k]
        for j in range(i + 1):
            if j == i:
                lower_conj.append([(k, conj(x)) for k, x in enumerate(row[:i]) if x is not zero])
            terms = [(row_d[k], c) for k, c in lower_conj[j] if row_d[k] is not zero]
            s = a[i][j] - dot(terms) if terms else a[i][j]
            if j == i:
                diag[i] = s
                row[i] = one
            elif not (s == zero):
                row_d[j] = s
                row[j] = s * inv(diag[j])
    return lower, diag
