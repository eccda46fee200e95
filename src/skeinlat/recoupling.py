"""Recoupling coefficients for the Temperley-Lieb category, exactly.

Theta and tetrahedron coefficients are assembled from quantum factorials as
Laurent fractions in q, numerator and denominator kept apart.
QFrac.at_root specializes both at the root of unity and divides there; the
fraction is not reduced first, so a denominator that vanishes at the root
raises ZeroDivisionError even where the reduced fraction would be finite.
Ratios that are genuinely fractional (bubble collapse, fusion) are likewise
formed at the root, where the relevant thetas are nonzero for admissible
colors.  theta_at, tet_at and quantum_dim_at keep each value at the root in
the ring context's memo, so it is specialized once per ring.

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


@lru_cache(maxsize=None)
def qfact(m: int) -> IntLaurent:
    if m < 0:
        raise ValueError("quantum factorial of negative argument")
    if m == 0:
        return IntLaurent(1)
    return qfact(m - 1) * qint(m)


def quantum_dim(i: int) -> IntLaurent:
    """<e_i> = (-1)^i [i+1], the loop value of the i-colored core."""
    f = qint(i + 1)
    return f if i % 2 == 0 else -f


class QFrac:
    """Fraction of Laurent polynomials in q, never reduced.

    Theta and tetrahedron values are rational (projector coefficients bring
    in quantum-integer denominators), so fractions are the honest type here.
    The claim path only specializes them: at_root divides numerator by
    denominator in the cyclotomic field and insists the denominator does not
    vanish there; for admissible colorings below the level it never does.
    The field arithmetic and equality live with the test-side oracles.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntLaurent | int, den: IntLaurent | int = 1):
        if isinstance(num, int):
            num = IntLaurent(num)
        if isinstance(den, int):
            den = IntLaurent(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def at_root(self, ctx: CycContext) -> CycNum:
        den = ctx.from_q_laurent(self.den)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes at the root")
        return ctx.from_q_laurent(self.num) / den


def admissible(a: int, b: int, c: int) -> bool:
    """Generic admissibility: parity and triangle inequality."""
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


def p_admissible(p: int, a: int, b: int, c: int) -> bool:
    """Root-of-unity admissibility for colors in [0, p-2]."""
    if not all(0 <= x <= p - 2 for x in (a, b, c)):
        return False
    return admissible(a, b, c) and a + b + c <= 2 * (p - 2)


def theta(a: int, b: int, c: int) -> QFrac:
    """Theta-graph value with edge colors a, b, c."""
    if not admissible(a, b, c):
        raise ValueError(f"inadmissible triple {(a, b, c)}")
    m = (a + b - c) // 2
    n = (b + c - a) // 2
    r = (c + a - b) // 2
    num = qfact(m + n + r + 1) * qfact(m) * qfact(n) * qfact(r)
    den = qfact(m + n) * qfact(n + r) * qfact(r + m)
    return QFrac(num if (m + n + r) % 2 == 0 else -num, den)


def tet(a: int, b: int, e: int, c: int, d: int, f: int) -> QFrac:
    """Tetrahedron coefficient with vertex triples (a,b,e), (c,d,e),
    (a,d,f), (b,c,f)."""
    for tri in ((a, b, e), (c, d, e), (a, d, f), (b, c, f)):
        if not admissible(*tri):
            raise ValueError(f"inadmissible vertex {tri}")
    verts = [(a + b + e) // 2, (c + d + e) // 2, (a + d + f) // 2, (b + c + f) // 2]
    squares = [(a + c + e + f) // 2, (b + d + e + f) // 2, (a + b + c + d) // 2]
    zlo, zhi = max(verts), min(squares)
    if zhi < zlo:
        return QFrac(0)
    # single sum over one shared denominator: each term's factorial ratios
    # become rising products relative to the range endpoints
    num = IntLaurent()
    for z in range(zlo, zhi + 1):
        term = qfact(z + 1)
        for av in verts:
            for t in range(z + 1, zhi + 1):
                term = term * qint(t - av)
        for bs in squares:
            for t in range(zlo, z):
                term = term * qint(bs - t)
        num = num + (term if z % 2 == 0 else -term)
    den = IntLaurent(1)
    for av in verts:
        den = den * qfact(zhi - av)
    for bs in squares:
        den = den * qfact(bs - zlo)
    pre_num = IntLaurent(1)
    for av in verts:
        for bs in squares:
            pre_num = pre_num * qfact(bs - av)
    pre_den = IntLaurent(1)
    for x in (a, b, c, d, e, f):
        pre_den = pre_den * qfact(x)
    return QFrac(num * pre_num, den * pre_den)


def theta_at(ctx: CycContext, a: int, b: int, c: int) -> CycNum:
    return ctx.cached(("theta", a, b, c), lambda: theta(a, b, c).at_root(ctx))


def tet_at(ctx: CycContext, a: int, b: int, e: int, c: int, d: int, f: int) -> CycNum:
    return ctx.cached(("tet", a, b, e, c, d, f), lambda: tet(a, b, e, c, d, f).at_root(ctx))


def quantum_dim_at(ctx: CycContext, i: int) -> CycNum:
    return ctx.cached(("dim", i), lambda: ctx.from_q_laurent(quantum_dim(i)))


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
