"""Integer lattices of cyclotomic coordinate vectors.

A module vector here is a tuple of cyclotomic numbers.  Restricting scalars
to the rational integers turns a ring-span of such vectors into a Z-lattice
of rank at most width * phi; the lattice is stored as one denominator plus
the row Hermite normal form of the scaled integer coordinates, so equality
is structural.  Spans are closed under multiplication by the root of
unity before reduction, which is what makes the Z-span a module over the
whole ring of integers rather than a bare abelian group.

Past the seed, everything runs on those integer rows.  A row is width
blocks of phi power-basis coordinates, and zeta times a row is a shift on
each block: every slot moves up one and the top slot comes back as its
value times zeta^phi, one row of the ring's reduction table.  The closure
is that shift, applied phi - 1 times.  An operator is O-linear, so it is
one integer matrix on the Z-basis zeta^k e_j (column j of the operator and
its zeta-shifts, over a common denominator); a saturation round applies it
to the previous normal form as one Kronecker-packed product-sum per row,
with the packing of CycContext.dot.  No CycNum product is on that path.
Its oracle, the CycNum route of one ring product per entry and then
from_vectors, runs in the tests (mat_vec and vectors in tests/oracles.py),
as do membership by back-substitution and the containment index.

The saturation loop grows a seed lattice by a set of operators until the
normal form stops moving.  There is no a priori termination bound, so the
loop carries a cap and reports a failure to stabilize instead of asserting
it cannot happen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclotomic import CycContext, _pack, _unpack, same_ring
from .matrices import Matrix

IntRows = list[list[int]]


def hnf(rows: IntRows) -> IntRows:
    """Row Hermite normal form: echelon, positive pivots, entries above a
    pivot reduced into [0, pivot).  Zero rows are dropped, so the span is
    canonical: two row sets generate the same lattice iff their forms match.

    Rows wait in buckets by leading column, each stored from that column
    on, so a row is read only when its own column comes up.  There the
    rows are reduced by the one of least leading entry until one is left,
    and a row whose leading entry vanishes moves on to the bucket of its
    next nonzero column (Cohen, GTM 138, section 2.4).  A reduction runs
    over the nonzero entries of the pivot only and updates the row in
    place: at p = 13 a pivot has about one nonzero entry in eight.
    """
    work = [r for r in rows if any(r)]
    if not work:
        return []
    width = len(work[0])
    if any(len(r) != width for r in work):
        raise ValueError("ragged rows")
    buckets: list[IntRows] = [[] for _ in range(width)]
    for r in work:
        lead = _lead(r)
        buckets[lead].append(list(r[lead:]))
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row from it on)
    for col in range(width):
        # the bucket is read once; keeping it would keep the rows that vanish
        live, buckets[col] = buckets[col], []
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[0]))
            pivot = live[0]
            p = pivot[0]
            keep = [pivot]
            support = [(k, b) for k, b in enumerate(pivot) if b]
            for r in live[1:]:
                q = r[0] // p
                for k, b in support:
                    r[k] -= q * b
                if r[0]:
                    keep.append(r)
                elif any(r):
                    lead = _lead(r)
                    del r[:lead]
                    buckets[col + lead].append(r)
            live = keep
        if live:
            pivot = live[0]
            if pivot[0] < 0:
                pivot = [-x for x in pivot]
            p = pivot[0]
            support = [(k, x) for k, x in enumerate(pivot) if x]
            for start, b in basis:
                off = col - start
                q = b[off] // p
                if q:
                    for k, x in support:
                        b[off + k] -= q * x
            basis.append((col, pivot))
    return [[0] * start + b for start, b in basis]


def _lead(row) -> int:
    """The column of the first nonzero entry of a nonzero row."""
    for k, x in enumerate(row):
        if x:
            return k
    raise ValueError("a zero row has no leading column")


def _zeta_shift(ctx: CycContext, row) -> list[int]:
    """zeta times a row of phi-blocks: in each block every slot moves up
    one, and the top slot c comes back as c * zeta^phi, whose power-basis
    vector is row phi of the reduction table."""
    phi = ctx.phi
    top = ctx._red[phi]
    t0, rest = top[0], top[1:]
    out: list[int] = []
    for s in range(phi - 1, len(row), phi):
        c = row[s]
        low = row[s - phi + 1 : s]
        if c:
            out.append(c * t0)
            out += [a + c * t for a, t in zip(low, rest)]
        else:
            out.append(0)
            out += low
    return out


def _zeta_closure(ctx: CycContext, rows) -> IntRows:
    """Each row followed by its phi - 1 zeta-shifts."""
    out: IntRows = []
    for row in rows:
        cur = list(row)
        out.append(cur)
        for _ in range(ctx.phi - 1):
            cur = _zeta_shift(ctx, cur)
            out.append(cur)
    return out


def _scaled_rows(ctx: CycContext, vecs) -> tuple[int, IntRows]:
    """The least common denominator of the entries of the coordinate
    vectors, and each vector times it as an integer row of phi-blocks.  An
    entry from another ring is refused."""
    den = 1
    for vec in vecs:
        for c in vec:
            same_ring(ctx, c.ctx)
            den = den * c.den // math.gcd(den, c.den)
    rows = []
    for vec in vecs:
        row: list[int] = []
        for c in vec:
            scale = den // c.den
            row.extend(x * scale for x in c.vec)
        rows.append(row)
    return den, rows


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
        den, rows = _scaled_rows(ctx, vecs)
        return cls.from_rows(ctx, width, den, rows)

    @classmethod
    def from_rows(cls, ctx: CycContext, width: int, den: int, rows) -> "OLattice":
        """The ring-span of (1/den) times the integer rows, each width
        blocks of phi coordinates: every row and its zeta-shifts go to hnf,
        and den then loses its common factor with the content of the form,
        so any common denominator of the generators gives the same lattice."""
        if width < 1 or den < 1:
            raise ValueError("a lattice needs a positive width and denominator")
        size = width * ctx.phi
        for row in rows:
            if len(row) != size:
                raise ValueError(f"a row of width {width} holds {size} integers, got {len(row)}")
        closed = _zeta_closure(ctx, rows)
        if not closed:
            raise ValueError("a lattice needs at least one generator")
        form = hnf(closed)
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


def lattice_equal(a: OLattice, b: OLattice) -> bool:
    if a.ctx.n != b.ctx.n or a.width != b.width:
        raise ValueError("lattices live in different ambient spaces")
    return a.den == b.den and a.basis == b.basis


def _integer_operators(ctx: CycContext, width: int, ops: list[Matrix]) -> tuple[int, list[IntRows]]:
    """Each operator as an integer matrix on the Z-basis zeta^k e_j, over
    one denominator common to all of them.  An operator is O-linear, so
    row (j, k), the image of zeta^k e_j, is column j of the operator
    shifted k times by zeta."""
    for op in ops:
        if len(op) != width or any(len(r) != width for r in op):
            raise ValueError(f"an operator must be a {width}-by-{width} matrix")
    den, cols = _scaled_rows(ctx, [[r[j] for r in op] for op in ops for j in range(width)])
    return den, [_zeta_closure(ctx, cols[k : k + width]) for k in range(0, len(cols), width)]


def _apply(mat: IntRows, rows) -> IntRows:
    """Each row times the integer matrix: one Kronecker-packed product-sum
    per row over the packed matrix rows.  The slot width holds every entry
    of the sum with its sign; _unpack raises ArithmeticError if a slot
    overflowed anyway."""
    size = len(mat)
    row_bits = max((abs(x) for r in rows for x in r), default=0).bit_length()
    mat_bits = max((abs(x) for r in mat for x in r), default=0).bit_length()
    w = row_bits + mat_bits + size.bit_length() + 1
    w += -w % 32
    packed = [_pack(m, w) for m in mat]
    out = []
    for r in rows:
        total = 0
        for x, m in zip(r, packed):
            if x:
                total += x * m
        out.append(_unpack(total, w, size))
    return out


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
    matrix acting on coordinate vectors; a round runs on integer rows (see
    the module docstring)."""
    if cap < 1:
        raise ValueError("cap must be positive")
    lat, grown = OLattice.from_vectors(ctx, seed), 0
    den, mats = _integer_operators(ctx, lat.width, ops)
    while True:
        rows = [[x * den for x in r] for r in lat.basis]
        rows += [img for mat in mats for img in _apply(mat, lat.basis)]
        bigger = OLattice.from_rows(ctx, lat.width, lat.den * den, rows)
        stable = lattice_equal(bigger, lat)
        if stable or grown == cap:
            return SaturationReport(lat, grown, stable)
        lat, grown = bigger, grown + 1
