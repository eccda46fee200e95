import random

import pytest

from skeinlat.cyclotomic import CycContext, CycNum
from skeinlat.matrices import determinant, ldl_decomposition, mat_eq, mat_mul, transpose


def conj(v: CycNum) -> CycNum:
    return v.conj()


def field_dot(zero):
    """Oracle for CycContext.dot in ldl_decomposition: the field products
    summed one by one, so L may carry denominators."""
    return lambda pairs: sum((x * y for x, y in pairs), zero)


def random_entry(ctx: CycContext, rng: random.Random) -> CycNum:
    vec = tuple(rng.randrange(-4, 5) for _ in range(ctx.phi))
    return CycNum(ctx, vec, rng.randrange(1, 4))


def random_hermitian(ctx: CycContext, rng: random.Random, n: int, sparse: bool):
    a = [[ctx.zero] * n for _ in range(n)]
    for i in range(n):
        x = random_entry(ctx, rng)
        a[i][i] = x + x.conj()
        for j in range(i):
            if not (sparse and rng.random() < 0.4):
                a[i][j] = random_entry(ctx, rng)
                a[j][i] = a[i][j].conj()
    return a


def leading_minors(ctx: CycContext, a):
    return [determinant([row[:k] for row in a[:k]], ctx.zero, lambda x, y: x * ctx.inv(y))
            for k in range(1, len(a) + 1)]


@pytest.mark.parametrize("sparse", (False, True), ids=("dense", "sparse"))
def test_ldl_law_on_random_hermitian_matrices(sparse):
    # a = L diag(d) L* with L unit lower triangular, and d_k is the ratio of
    # consecutive leading minors
    ctx = CycContext(7)
    rng = random.Random(7007 + sparse)
    checked = 0
    while checked < 12:
        n = rng.randrange(1, 6)
        a = random_hermitian(ctx, rng, n, sparse)
        minors = leading_minors(ctx, a)
        if not all(minors):
            continue
        lower, diag = ldl_decomposition(a, ctx.one, ctx.zero, ctx.inv, conj, field_dot(ctx.zero))
        for i in range(n):
            assert lower[i][i] == ctx.one
            assert all(x == ctx.zero for x in lower[i][i + 1:])
        lower_star = transpose([[conj(x) for x in row] for row in lower])
        d = [[diag[i] if i == j else ctx.zero for j in range(n)] for i in range(n)]
        assert mat_eq(mat_mul(mat_mul(lower, d, ctx.zero), lower_star, ctx.zero), a)
        assert diag == [m * ctx.inv(prev) for m, prev in zip(minors, [ctx.one] + minors)]
        checked += 1


def test_ldl_costs_one_product_per_update(monkeypatch):
    # keeping L[i][k] d[k] per row, an update is one product: at most one per
    # (i, j, k) with k < j <= i, plus one per off-diagonal division by a pivot
    ctx = CycContext(7)
    rng = random.Random(606)
    n = 6
    a = random_hermitian(ctx, rng, n, sparse=False)
    counted = [0]
    paused = [False]
    inner = CycNum.__mul__

    def mul(x, y):
        if not paused[0]:
            counted[0] += 1
        return inner(x, y)

    def inv(x):
        # the inverse's own products are the ring's business, not LDL's
        paused[0] = True
        try:
            return ctx.inv(x)
        finally:
            paused[0] = False

    monkeypatch.setattr(CycNum, "__mul__", mul)
    lower, diag = ldl_decomposition(a, ctx.one, ctx.zero, inv, conj, field_dot(ctx.zero))
    monkeypatch.undo()
    updates = sum(j for i in range(n) for j in range(i + 1))
    divisions = n * (n - 1) // 2
    assert counted[0] <= updates + divisions
    assert all(diag) and all(lower[i][j] for i in range(n) for j in range(i))


@pytest.mark.parametrize("n", (1, 4, 9))
def test_integral_ldl_returns_the_pivots_seeded(n):
    # the genus-2 path: a = R diag(N) R* with R integral and unit lower
    # triangular factors on ctx.dot, and gives back R and the pivots N
    ctx = CycContext(7)
    rng = random.Random(7070 + n)
    entry = lambda: CycNum(ctx, tuple(rng.randrange(-40, 41) for _ in range(ctx.phi)))
    r = [[ctx.one if i == j else entry() if j < i and rng.random() < 0.7 else ctx.zero
          for j in range(n)] for i in range(n)]
    pivots = []
    while len(pivots) < n:
        x = entry()
        if x:
            pivots.append(x)
    d = [[pivots[i] if i == j else ctx.zero for j in range(n)] for i in range(n)]
    r_star = transpose([[conj(x) for x in row] for row in r])
    a = mat_mul(mat_mul(r, d, ctx.zero), r_star, ctx.zero)
    assert all(x.den == 1 for row in a for x in row)
    lower, diag = ldl_decomposition(a, ctx.one, ctx.zero, ctx.inv, conj, ctx.dot)
    assert diag == pivots
    assert mat_eq(lower, r)
