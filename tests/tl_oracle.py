"""Temperley-Lieb diagram algebra at small strand counts.

Independent oracle for the closed-form theta and tetrahedron coefficients
(the Laurent theta and tet of oracles.py, which stand in for theta_at and
tet_at at generic q):
trivalent networks are assembled from Jones-Wenzl boxes by explicit planar
layers and evaluated by counting closed loops, with no recoupling formulas
involved.

An element is a formal combination of planar matchings on the boundary
points of a rectangle (bottom points 0..n_bot-1 left to right, then top
points n_bot..n_bot+n_top-1).  Coefficients are kept fraction-free: integer
Laurent polynomials per matching, with one shared rational prefactor per
element, so composition never touches rational arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

from skeinlat.laurent import IntLaurent
from skeinlat.recoupling import admissible, qint

from oracles import QFrac, content, delta_loop, poly_gcd

Matching = frozenset

_ONE = IntLaurent(1)
_DELTA = delta_loop()


def _matching(pairs: Iterable[tuple[int, int]]) -> Matching:
    return frozenset(frozenset(pr) for pr in pairs)


def _count_paths(edges: list[tuple[int, int]], boundary: list[int]):
    """Pair up boundary points along the paths of a degree <= 2 graph.

    Returns the boundary pairing and the number of closed internal loops.
    Every non-boundary point is required to have degree exactly 2.
    """
    adj: dict[int, list[int]] = {}
    for x, y in edges:
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    seen: set[int] = set()
    pairs = []
    for start in boundary:
        if start in seen:
            continue
        seen.add(start)
        prev, cur = None, start
        while True:
            nxts = [x for x in adj[cur] if x != prev]
            if not nxts:
                nxts = [prev]  # doubled edge walked back
            prev, cur = cur, nxts[0]
            seen.add(cur)
            if len(adj[cur]) == 1:
                break
        pairs.append((start, cur))
    loops = 0
    for p in adj:
        if p in seen:
            continue
        seen.add(p)
        prev, cur = None, p
        while True:
            nxts = [x for x in adj[cur] if x != prev]
            if not nxts:
                nxts = [prev]
            prev, cur = cur, nxts[0]
            if cur == p:
                break
            seen.add(cur)
        loops += 1
    return pairs, loops


class TLElement:
    """Combination of planar matchings between two strand boundaries."""

    __slots__ = ("n_bot", "n_top", "pre", "terms")

    def __init__(self, n_bot: int, n_top: int, terms: dict, pre: QFrac | None = None):
        if (n_bot + n_top) % 2:
            raise ValueError("odd total boundary cannot be matched")
        self.n_bot = n_bot
        self.n_top = n_top
        self.pre = QFrac(1) if pre is None else pre
        self.terms = ({} if self.pre.is_zero()
                      else {m: c for m, c in terms.items() if not c.is_zero()})

    def is_zero(self) -> bool:
        return not self.terms

    def _same_shape(self, other: "TLElement"):
        if (self.n_bot, self.n_top) != (other.n_bot, other.n_top):
            raise ValueError("shape mismatch")

    def __add__(self, other: "TLElement") -> "TLElement":
        self._same_shape(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # common prefactor 1/(d1 d2); numerators fold into the terms
        s1 = self.pre.num * other.pre.den
        s2 = other.pre.num * self.pre.den
        out = {m: c * s1 for m, c in self.terms.items()}
        for m, c in other.terms.items():
            cc = c * s2
            out[m] = out[m] + cc if m in out else cc
        return TLElement(self.n_bot, self.n_top, out,
                         QFrac(_ONE, self.pre.den * other.pre.den))

    def __sub__(self, other: "TLElement") -> "TLElement":
        return self + other.scale(QFrac(-1))

    def scale(self, coeff: QFrac) -> "TLElement":
        return TLElement(self.n_bot, self.n_top, self.terms, self.pre * coeff)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TLElement):
            return NotImplemented
        if (self.n_bot, self.n_top) != (other.n_bot, other.n_top):
            return False
        if set(self.terms) != set(other.terms):
            return False
        s1 = self.pre.num * other.pre.den
        s2 = other.pre.num * self.pre.den
        return all(self.terms[m] * s1 == other.terms[m] * s2 for m in self.terms)

    def normalized(self) -> "TLElement":
        """Pull the common factor of all terms into the reduced prefactor."""
        if self.is_zero():
            return TLElement(self.n_bot, self.n_top, {})
        g: IntLaurent | None = None
        for c in self.terms.values():
            g = c if g is None else poly_gcd(g, c)
            if g == _ONE:
                break
        cont = 0
        for c in self.terms.values():
            cont = math.gcd(cont, content(c))
        common = g * cont
        shift = min(c.min_exp() for c in self.terms.values())
        common = common.shift(shift)
        pre = (self.pre * common).reduced()
        terms = {m: c.exact_div(common) for m, c in self.terms.items()}
        return TLElement(self.n_bot, self.n_top, terms, pre)

    def transpose(self) -> "TLElement":
        """Vertical flip: bottom becomes top with left-right order kept."""
        nb, nt = self.n_bot, self.n_top

        def flip(p: int) -> int:
            return nt + p if p < nb else p - nb

        out = {}
        for m, c in self.terms.items():
            out[_matching(tuple(map(flip, pr)) for pr in m)] = c
        return TLElement(nt, nb, out, self.pre)

    def tensor(self, other: "TLElement") -> "TLElement":
        sb, st = self.n_bot, self.n_top
        ob, ot = other.n_bot, other.n_top

        def left(p: int) -> int:
            return p if p < sb else p + ob

        def right(p: int) -> int:
            return p + sb if p < ob else p + sb + st

        out: dict = {}
        for m1, c1 in self.terms.items():
            m1r = [tuple(map(left, pr)) for pr in m1]
            for m2, c2 in other.terms.items():
                m = _matching(m1r + [tuple(map(right, pr)) for pr in m2])
                cc = c1 * c2
                out[m] = out[m] + cc if m in out else cc
        return TLElement(sb + ob, st + ot, out, self.pre * other.pre)

    def compose(self, other: "TLElement") -> "TLElement":
        """self after other: glue other's top boundary to self's bottom."""
        if other.n_top != self.n_bot:
            raise ValueError("boundary mismatch")
        nb, mid, nt = other.n_bot, other.n_top, self.n_top
        # point ids: other bottom 0..nb-1, glued middle nb..nb+mid-1, top
        # nb+mid..; other's labels are already in place, self's shift by nb
        boundary = list(range(nb)) + list(range(nb + mid, nb + mid + nt))
        out: dict = {}
        for m2, c2 in other.terms.items():
            e2 = [tuple(pr) for pr in m2]
            for m1, c1 in self.terms.items():
                edges = e2 + [tuple(p + nb for p in pr) for pr in m1]
                pairs, loops = _count_paths(edges, boundary)
                m = _matching((a if a < nb else a - mid,
                               b if b < nb else b - mid) for a, b in pairs)
                cc = c1 * c2
                if loops:
                    cc = cc * _DELTA ** loops
                out[m] = out[m] + cc if m in out else cc
        return TLElement(nb, nt, out, self.pre * other.pre)

    def trace(self) -> QFrac:
        """Markov closure: join top point n+i back around to bottom point i."""
        if self.n_bot != self.n_top:
            raise ValueError("trace needs equal boundaries")
        n = self.n_bot
        total = IntLaurent(0)
        for m, c in self.terms.items():
            edges = [tuple(pr) for pr in m] + [(i, n + i) for i in range(n)]
            _, loops = _count_paths(edges, [])
            total = total + c * _DELTA ** loops
        return (self.pre * total).reduced()


def identity(n: int) -> TLElement:
    return TLElement(n, n, {_matching((i, n + i) for i in range(n)): _ONE})


def cup_cap(n: int, i: int) -> TLElement:
    """Generator U_i of TL_n: cap joining bottom i,i+1 and cup joining top."""
    if not 0 <= i < n - 1:
        raise ValueError("generator index out of range")
    pairs = [(i, i + 1), (n + i, n + i + 1)]
    pairs += [(j, n + j) for j in range(n) if j != i and j != i + 1]
    return TLElement(n, n, {_matching(pairs): _ONE})


@lru_cache(maxsize=None)
def jones_wenzl(n: int) -> TLElement:
    """Projector f_n: kills every cup and is fixed by composition with itself."""
    if n < 0:
        raise ValueError("negative strand count")
    if n == 0:
        return TLElement(0, 0, {frozenset(): _ONE})
    if n == 1:
        return identity(1)
    fa = jones_wenzl(n - 1).tensor(identity(1))
    # with loop value -q - q^-1 the classic correction enters with plus sign
    coeff = QFrac(qint(n - 1), qint(n))
    fn = fa + fa.compose(cup_cap(n, n - 2)).compose(fa).scale(coeff)
    return fn.normalized()


def w_spread(a: int, b: int, c: int) -> TLElement:
    """Single planar diagram splitting a c-bundle into an a- and a b-bundle.

    (a+c-b)/2 strands continue into the left block, (b+c-a)/2 into the right,
    and (a+b-c)/2 nested turnbacks fill the middle.
    """
    if not admissible(a, b, c):
        raise ValueError(f"inadmissible triple {(a, b, c)}")
    y = (a + c - b) // 2
    z = (b + c - a) // 2
    x = (a + b - c) // 2
    pairs = [(i, c + i) for i in range(y)]
    pairs += [(c + a - 1 - i, c + a + i) for i in range(x)]
    pairs += [(y + j, c + a + x + j) for j in range(z)]
    return TLElement(c, a + b, {_matching(pairs): _ONE})


def vertex(a: int, b: int, c: int) -> TLElement:
    """Trivalent vertex as a map from the c-edge to the a- and b-edges."""
    fab = jones_wenzl(a).tensor(jones_wenzl(b))
    return fab.compose(w_spread(a, b, c)).compose(jones_wenzl(c)).normalized()


def merge(a: int, b: int, c: int) -> TLElement:
    """Trivalent vertex as a map from the a- and b-edges to the c-edge."""
    return vertex(a, b, c).transpose()


def theta_net(a: int, b: int, c: int) -> QFrac:
    """Oracle for theta_at: the theta network by loop counting, two vertices
    joined along a, b, c, at generic q, against the Laurent theta of
    oracles.py."""
    w = w_spread(a, b, c)
    cap = w.compose(jones_wenzl(c)).compose(w.transpose())
    fab = jones_wenzl(a).tensor(jones_wenzl(b))
    return fab.compose(cap).trace()


def tet_net(a: int, b: int, e: int, c: int, d: int, f: int) -> QFrac:
    """Oracle for tet_at: the tetrahedron network by loop counting, at
    generic q, against the Laurent tet of oracles.py.

    Vertices (a,b,e), (a,d,f), (b,c,f), (c,d,e); built bottom to top as maps
    e -> a|b -> d|f|b -> d|c -> e and closed along e.
    """
    for tri in ((a, b, e), (c, d, e), (a, d, f), (b, c, f)):
        if not admissible(*tri):
            raise ValueError(f"inadmissible vertex {tri}")
    x = vertex(a, b, e)
    x = vertex(d, f, a).tensor(identity(b)).compose(x).normalized()
    x = identity(d).tensor(merge(f, b, c)).compose(x).normalized()
    x = merge(d, c, e).compose(x)
    return x.trace()
