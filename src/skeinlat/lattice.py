"""Integer lattices of cyclotomic coordinate vectors.

A module vector here is a tuple of cyclotomic numbers.  Restricting scalars
to the rational integers turns a ring-span of such vectors into a Z-lattice
of rank at most width * phi; the lattice is stored as one denominator plus
the row Hermite normal form of the scaled integer coordinates, so equality
is structural, membership is back-substitution, and a containment index is
a determinant ratio.  Spans are closed under multiplication by the root of
unity before reduction, which is what makes the Z-span a module over the
whole ring of integers rather than a bare abelian group.

The saturation loop grows a seed lattice by a set of operators until the
normal form stops moving.  There is no a priori termination bound, so the
loop carries a cap and reports a failure to stabilize instead of asserting
it cannot happen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclotomic import CycContext, CycNum, mixed_rings
from .matrices import Matrix, determinant, mat_vec

IntRows = list[list[int]]


def hnf(rows: IntRows) -> IntRows:
    """Row Hermite normal form: echelon, positive pivots, entries above a
    pivot reduced into [0, pivot).  Zero rows are dropped, so the span is
    canonical: two row sets generate the same lattice iff their forms match.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    width = len(work[0])
    if any(len(r) != width for r in work):
        raise ValueError("ragged rows")
    basis: IntRows = []
    for col in range(width):
        live = [r for r in work if r[col]]
        work = [r for r in work if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            keep = [pivot]
            for r in live[1:]:
                q = r[col] // pivot[col]
                for k in range(width):
                    r[k] -= q * pivot[k]
                if r[col]:
                    keep.append(r)
                elif any(r):
                    work.append(r)
            live = keep
        if live:
            pivot = live[0]
            if pivot[col] < 0:
                for k in range(width):
                    pivot[k] = -pivot[k]
            for b in basis:
                q = b[col] // pivot[col]
                if q:
                    for k in range(width):
                        b[k] -= q * pivot[k]
            basis.append(pivot)
    return basis


def _reduce_row(row: list[int], basis: IntRows) -> tuple[list[int], list[int]]:
    """Back-substitute over an echelon basis; (coefficients, remainder)."""
    rem = list(row)
    coeffs = []
    for b in basis:
        col = next(k for k, x in enumerate(b) if x)
        q, r = divmod(rem[col], b[col])
        if r:
            # not an integer combination along this pivot
            coeffs.append(q)
            return coeffs, rem
        if q:
            for k in range(col, len(rem)):
                rem[k] -= q * b[k]
        coeffs.append(q)
    return coeffs, rem


@dataclass(frozen=True)
class OLattice:
    """Full ring-span of a set of coordinate vectors, in normal form.

    The lattice is (1/den) times the Z-span of the basis rows; each block
    of phi integer columns is one cyclotomic coordinate in the power basis.
    den and the basis content share no factor, so equal lattices compare
    equal fieldwise.
    """

    ctx: CycContext
    width: int
    den: int
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def from_vectors(cls, ctx: CycContext, vectors) -> "OLattice":
        vecs = [tuple(v) for v in vectors]
        if not vecs:
            raise ValueError("a lattice needs at least one generator")
        width = len(vecs[0])
        if width == 0 or any(len(v) != width for v in vecs):
            raise ValueError("generators must share a positive length")
        zeta = ctx.zeta_pow(1)
        closed = []
        for vec in vecs:
            cur = list(vec)
            for _ in range(ctx.phi):
                closed.append(tuple(cur))
                cur = [zeta * c for c in cur]
        den = 1
        for vec in closed:
            for c in vec:
                den = den * c.den // math.gcd(den, c.den)
        rows = []
        for vec in closed:
            row: list[int] = []
            for c in vec:
                scale = den // c.den
                row.extend(x * scale for x in c.vec)
            rows.append(row)
        form = hnf(rows)
        content = 0
        for r in form:
            for x in r:
                content = math.gcd(content, x)
        g = math.gcd(content, den)
        if g > 1:
            form = [[x // g for x in r] for r in form]
            den //= g
        return cls(ctx, width, den, tuple(tuple(r) for r in form))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def vectors(self) -> list[list[CycNum]]:
        """Basis rows back in coordinate form."""
        phi = self.ctx.phi
        out = []
        for row in self.basis:
            out.append(
                [
                    CycNum(self.ctx, tuple(row[j * phi : (j + 1) * phi]), self.den)
                    for j in range(self.width)
                ]
            )
        return out

    def contains_vector(self, vec) -> bool:
        vec = list(vec)
        if len(vec) != self.width:
            raise ValueError("vector length does not match the lattice")
        row: list[int] = []
        for c in vec:
            if c.ctx is not self.ctx and c.ctx.n != self.ctx.n:
                raise mixed_rings(self.ctx, c.ctx)
            scaled = c * self.den
            if scaled.den != 1:
                return False
            row.extend(scaled.vec)
        _, rem = _reduce_row(row, list(map(list, self.basis)))
        return not any(rem)

    def zeta_stable(self) -> bool:
        """Certificate of the module property, which ROADMAP item 1 runs in
        saturate: zeta times every basis vector stays inside."""
        zeta = self.ctx.zeta_pow(1)
        return all(
            self.contains_vector([zeta * c for c in vec])
            for vec in self.vectors()
        )


def lattice_equal(a: OLattice, b: OLattice) -> bool:
    if a.ctx.n != b.ctx.n or a.width != b.width:
        raise ValueError("lattices live in different ambient spaces")
    return a.den == b.den and a.basis == b.basis


def lattice_index(inner: OLattice, outer: OLattice) -> int:
    """Oracle for lattice_equal: equal lattices are those of index 1.

    Group index [outer : inner] for a full-rank containment.  Both lattices
    are rescaled to one common denominator; every inner basis row must then
    reduce to zero over the outer form, and the index is the determinant of
    the coefficient matrix.  Non-containment or a rank drop raises instead
    of returning a number.
    """
    if inner.ctx.n != outer.ctx.n or inner.width != outer.width:
        raise ValueError("lattices live in different ambient spaces")
    if inner.rank != outer.rank:
        raise ValueError("index needs equal ranks")
    common = inner.den * outer.den // math.gcd(inner.den, outer.den)
    si, so = common // inner.den, common // outer.den
    out_rows = [[x * so for x in r] for r in outer.basis]
    coeff_rows = []
    for row in inner.basis:
        coeffs, rem = _reduce_row([x * si for x in row], out_rows)
        if any(rem):
            raise ValueError("inner lattice is not contained in the outer one")
        coeff_rows.append(coeffs)
    det = determinant(coeff_rows, 0, lambda u, w: u // w)
    return abs(det)


@dataclass(frozen=True)
class SaturationReport:
    """Outcome of the operator-closure loop.

    iterations counts the rounds that strictly enlarged the lattice;
    stabilized is False exactly when the cap ran out while the lattice was
    still growing, and in that case the lattice field holds the last,
    unstable, stage."""

    lattice: OLattice
    iterations: int
    stabilized: bool

    def to_json(self) -> dict:
        return {
            "rank": self.lattice.rank,
            "den": self.lattice.den,
            "iterations": self.iterations,
            "stabilized": self.stabilized,
        }


def saturate(ctx: CycContext, seed, ops: list[Matrix], cap: int = 32) -> SaturationReport:
    """Grow the span of the seed vectors by the operators until the normal
    form repeats: L <- L + sum op(L).  Each operator is a width-by-width
    matrix acting on coordinate vectors."""
    if cap < 1:
        raise ValueError("cap must be positive")
    lat, grown = OLattice.from_vectors(ctx, seed), 0
    while True:
        gens = lat.vectors()
        step = [mat_vec(op, g, ctx.zero) for op in ops for g in gens]
        bigger = OLattice.from_vectors(ctx, gens + step)
        stable = lattice_equal(bigger, lat)
        if stable or grown == cap:
            return SaturationReport(lat, grown, stable)
        lat, grown = bigger, grown + 1
