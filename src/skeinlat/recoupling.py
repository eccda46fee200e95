"""Recoupling coefficients for the Temperley-Lieb category at the root, exactly.

Theta and tetrahedron coefficients are the quantum-factorial formulas of
Kauffman & Lins, Temperley-Lieb recoupling theory (Ann. of Math. Studies
134, 1994) and Masbaum & Vogel, 3-valent graphs and the Kauffman bracket
(Pacific J. Math. 164, 1994), read from one table per ring: [k]! at the
root for 0 <= k <= p-1 and its inverse, all from one field inverse of
[p-1]!.  Each [k] with 0 < k < p is a cyclotomic unit, so every entry is
integral.  For p-admissible colors theta needs only entries below p.  So
does tet, whose alternating sum over z stops at z = p-2: q has order p, so
[p] = 0 and every term whose numerator [z+1]! reaches p vanishes, while
every denominator argument is at most p-2.  theta_at and tet_at refuse
colors that are not p-admissible.  theta_at, tet_at and quantum_dim_at
keep each value in the ring context's memo, so it is built once per ring.

Also here: admissibility tests, rank counts for handlebody spines (a
caterpillar graph family), and the Verlinde dimension formula as an exact
field trace, the counts' second route.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .cyclotomic import CycContext, CycNum
from .laurent import IntLaurent, RefutationError


@lru_cache(maxsize=None)
def qint(m: int) -> IntLaurent:
    """[m] = q^(m-1) + q^(m-3) + .. + q^(1-m)."""
    if m < 0:
        raise ValueError("quantum integer of negative argument")
    return IntLaurent({m - 1 - 2 * s: 1 for s in range(m)})


def admissible(a: int, b: int, c: int) -> bool:
    """Generic admissibility: parity and triangle inequality."""
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


def p_admissible(p: int, a: int, b: int, c: int) -> bool:
    """Root-of-unity admissibility for colors in [0, p-2]."""
    if not all(0 <= x <= p - 2 for x in (a, b, c)):
        return False
    return admissible(a, b, c) and a + b + c <= 2 * (p - 2)


def _check_colors(p: int, *triples: tuple[int, int, int]) -> None:
    for tri in triples:
        if not p_admissible(p, *tri):
            raise ValueError(f"colors {tri} are not admissible at p = {p}")


def _factorials(ctx: CycContext) -> tuple[list[CycNum], list[CycNum]]:
    """[k]! at the root and its inverse for 0 <= k <= p-1, once per ring.

    One field inverse, of [p-1]!, gives the rest: inv([k-1]!) = inv([k]!) [k]."""

    def build() -> tuple[list[CycNum], list[CycNum]]:
        ints = [ctx.from_q_laurent(qint(k)) for k in range(ctx.p)]
        fact = [ctx.one]
        for k in range(1, ctx.p):
            fact.append(fact[-1] * ints[k])
        inv = [ctx.inv(fact[-1])]
        for k in range(ctx.p - 1, 0, -1):
            inv.append(inv[-1] * ints[k])
        return fact, inv[::-1]

    return ctx.cached(("qfact",), build)


def theta_at(ctx: CycContext, a: int, b: int, c: int) -> CycNum:
    """Theta-graph value with edge colors a, b, c at the root."""

    def build() -> CycNum:
        _check_colors(ctx.p, (a, b, c))
        fact, inv = _factorials(ctx)
        m, n, r = (a + b - c) // 2, (b + c - a) // 2, (c + a - b) // 2
        x = ctx.dot([(fact[m + n + r + 1], fact[m], fact[n], fact[r], inv[a], inv[b], inv[c])])
        return -x if (m + n + r) % 2 else x

    return ctx.cached(("theta", a, b, c), build)


def tet_at(ctx: CycContext, a: int, b: int, e: int, c: int, d: int, f: int) -> CycNum:
    """Tetrahedron coefficient at the root with vertex triples (a,b,e),
    (c,d,e), (a,d,f), (b,c,f)."""

    def build() -> CycNum:
        _check_colors(ctx.p, (a, b, e), (c, d, e), (a, d, f), (b, c, f))
        fact, inv = _factorials(ctx)
        verts = [(a + b + e) // 2, (c + d + e) // 2, (a + d + f) // 2, (b + c + f) // 2]
        squares = [(a + c + e + f) // 2, (b + d + e + f) // 2, (a + b + c + d) // 2]
        # [z+1]! = 0 once z + 1 reaches p
        terms = [
            (fact[z + 1] if z % 2 == 0 else -fact[z + 1],
             *(inv[z - av] for av in verts), *(inv[bs - z] for bs in squares))
            for z in range(max(verts), min(*squares, ctx.p - 2) + 1)
        ]
        pre = ctx.dot([tuple(fact[bs - av] for av in verts for bs in squares)])
        edges = ctx.dot([tuple(inv[x] for x in (a, b, e, c, d, f))])
        return ctx.dot([(pre, edges, ctx.dot(terms))])

    return ctx.cached(("tet", a, b, e, c, d, f), build)


def quantum_dim_at(ctx: CycContext, i: int) -> CycNum:
    """<e_i> = (-1)^i [i+1] at the root, the loop value of the i-colored core."""

    def build() -> CycNum:
        x = ctx.from_q_laurent(qint(i + 1))
        return -x if i % 2 else x

    return ctx.cached(("dim", i), build)


# ---------------------------------------------------------------------------
# rank counting on handlebody spines


def arm_weight(p: int, k: int) -> int:
    """Number of even loop colors i with (i, i, k) admissible at level p."""
    if k % 2:
        return 0
    return sum(1 for i in range(0, p - 1, 2) if p_admissible(p, i, i, k))


def count_spine_colorings(genus: int, p: int) -> int:
    """Admissible colorings of a genus-g caterpillar spine, loops colored even.

    All other edges are then forced even by parity.  The spine is cut at its
    middle arm: half[k][m] counts the colorings of a caterpillar of k+1 arms
    hanging off one edge colored m, and the two halves meet on that edge.
    Colors 2a are listed by a: for m1 = 2a and m2 = 2b the admissible s = 2c
    run over |a - b| <= c <= min(a + b, p - 2 - a - b), so w summed over
    them is one difference of its prefix sums.
    """
    if genus < 1:
        raise ValueError("genus must be positive")
    if genus == 1:
        return (p - 1) // 2
    w = [arm_weight(p, k) for k in range(0, p - 1, 2)]
    prefix = list(itertools.accumulate(w, initial=0))
    half = [w]
    for _ in range((genus - 1) // 2):
        f = half[-1]
        half.append([
            sum(f[a] * (prefix[min(a + b, p - 2 - a - b) + 1] - prefix[abs(a - b)])
                for a in range(len(w)))
            for b in range(len(w))
        ])
    left, right = half[(genus - 2) // 2], half[(genus - 1) // 2]
    return sum(x * y for x, y in zip(left, right))


def verlinde_rank(ctx: CycContext, genus: int) -> int:
    """The Verlinde rank (p/4)^(g-1) sum_{0<j<p/2} sin(2 pi j/p)^(2-2g) (Blanchet,
    Habegger, Masbaum & Vogel, Topology 34, 1995) as one exact trace: the
    conjugates of y = prod_{k=2}^{p-2} (1 - q^k) = p / |1-q|^2 over Q(zeta_p) are
    p / (4 sin^2(2 pi j/p)), each j twice (Washington, GTM 83, ch. 2), so the rank
    is Tr(y^(g-1)) (p-1) / (2 phi(n)), refuted unless it is an integer."""
    y = math.prod((ctx.one - ctx.q_pow(k) for k in range(2, ctx.p - 1)), start=ctx.one)
    rank = (y ** (genus - 1)).trace() * (ctx.p - 1) / (2 * ctx.phi)
    if rank.denominator != 1:
        raise RefutationError(f"genus-{genus} Verlinde trace at p = {ctx.p} is {rank}")
    return rank.numerator
