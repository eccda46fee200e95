"""Second routes that only the tests run, and the support code they need.

The library keeps the claim path: what `skeinlat.cli`, a demo or the
benchmark reaches.  Everything here is a second route to a value that path
computes, labeled `Oracle for <name>` with the library definition it is
compared against, or a certificate labeled `Certificate` that waits here
for its first claim-path caller (ROADMAP items 1B, 2 and 9).  A library
method that moved here takes its object as the first argument.  The
Laurent theta and tet here are checked in turn by the Temperley-Lieb
loop-counting oracle, tl_oracle.py.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

from skeinlat.annulus import e_product_in_e, z_plus2_pow_in_e, z_power_in_e
from skeinlat.bracket import _check_word, braid_components, braid_pd
from skeinlat.cyclotomic import CycContext, CycNum, cyclotomic_poly, same_ring
from skeinlat.laurent import IntLaurent, RefutationError
from skeinlat.lattice import OLattice, _lead, _zeta_shift
from skeinlat.matrices import Matrix, determinant, map_entries, mat_eq, mat_mul, transpose
from skeinlat.planar import (_class_cable, _folded_cable, _meridian_weights, arrangement_set_genus2,
                             expand_arrangement)
from skeinlat.recoupling import admissible, p_admissible, qint
from skeinlat.torus import (TQFTParams, Vector, _coords, coords_z, fold_raw, fold_transparent,
                            omega_pairing, reduce_e)


# ---------------------------------------------------------------------------
# Laurent polynomials


def content(f: IntLaurent) -> int:
    """Gcd of the coefficients; 0 for the zero polynomial."""
    g = 0
    for v in f.c.values():
        g = math.gcd(g, v)
    return g


def derivative(f: IntLaurent) -> IntLaurent:
    return IntLaurent({e - 1: v * e for e, v in f.c.items() if e})


def evaluate(f: IntLaurent, x: "int | Fraction") -> Fraction:
    x = Fraction(x)
    total = Fraction(0)
    for e, v in f.c.items():
        total += v * x ** e
    return total


def laurent_from_json(obj: dict) -> IntLaurent:
    """Oracle for to_json: a printed value read back, for tests to check."""
    return IntLaurent({int(e): int(v) for e, v in obj["coeffs"].items()})


def poly_gcd(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """Primitive gcd of two Laurent polynomials, as an honest polynomial.

    Monomial units A^k and integer contents are stripped, so the result has
    lowest exponent 0, coprime coefficients, and positive leading sign.
    Computed by a primitive pseudo-remainder sequence; all intermediate
    arithmetic stays in Z.
    """

    def shift0(c: dict[int, int]) -> dict[int, int]:
        m = min(c)
        return {e - m: v for e, v in c.items()}

    def primitive(c: dict[int, int]) -> dict[int, int]:
        g0 = 0
        for v in c.values():
            g0 = math.gcd(g0, v)
        if c[max(c)] < 0:
            g0 = -g0
        return {e: v // g0 for e, v in c.items()}

    def prem(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        db, lb = max(b), b[max(b)]
        a = dict(a)
        while a and max(a) >= db:
            da, ca = max(a), a[max(a)]
            nxt = {e: v * lb for e, v in a.items()}
            for e, v in b.items():
                t = e + da - db
                w = nxt.get(t, 0) - ca * v
                if w:
                    nxt[t] = w
                else:
                    nxt.pop(t, None)
            a = nxt
        return a

    a = primitive(shift0(f.c)) if f.c else {}
    b = primitive(shift0(g.c)) if g.c else {}
    if not a:
        a, b = b, a
    if not a:
        return IntLaurent()
    while b:
        r = prem(a, b)
        a, b = b, primitive(shift0(r)) if r else {}
    return IntLaurent(a)


# ---------------------------------------------------------------------------
# cyclotomic rings


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_resultant(f: list[int], g: list[int]) -> int:
    """Resultant of integer polynomials by the subresultant PRS."""
    f = _poly_trim(list(f))
    g = _poly_trim(list(g))
    if not f or not g:
        return 0
    s = 1
    if len(f) < len(g):
        if (len(f) - 1) % 2 and (len(g) - 1) % 2:
            s = -s
        f, g = g, f
    gg = 1
    h = 1
    while len(g) - 1 > 0:
        da, db = len(f) - 1, len(g) - 1
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        # pseudo-remainder of lc(g)^(delta+1) * f by g
        r = [c * g[-1] ** (delta + 1) for c in f]
        for k in range(len(r) - db - 1, -1, -1):
            q, rem = divmod(r[k + db], g[-1])
            if rem:
                raise RefutationError("resultant: pseudo-division left a remainder")
            if q:
                for j, b in enumerate(g):
                    r[k + j] -= q * b
        r = _poly_trim(r[:db])
        if not r:
            return 0
        f, g = g, [c // (gg * h ** delta) for c in r]
        gg = f[-1]
        if delta:
            h = gg ** delta // h ** (delta - 1)
    da = len(f) - 1
    return s * g[0] ** da // h ** (da - 1) if da else s * 1


def norm_resultant(x: CycNum) -> Fraction:
    """Oracle for norm: the same norm by the subresultant PRS."""
    if x.is_zero():
        return Fraction(0)
    res = poly_resultant(list(cyclotomic_poly(x.ctx.n)), list(x.vec))
    return Fraction(res, x.den ** x.ctx.phi)


# ---------------------------------------------------------------------------
# recoupling


@lru_cache(maxsize=None)
def qfact(m: int) -> IntLaurent:
    if m < 0:
        raise ValueError("quantum factorial of negative argument")
    if m == 0:
        return IntLaurent(1)
    return qfact(m - 1) * qint(m)


def quantum_dim(i: int) -> IntLaurent:
    """Oracle for quantum_dim_at: <e_i> = (-1)^i [i+1] as a Laurent
    polynomial, the loop value of the i-colored core."""
    f = qint(i + 1)
    return f if i % 2 == 0 else -f


def delta_loop() -> IntLaurent:
    """Value of a 1-colored unknot, -q - q^-1 (equals -A^2 - A^-2)."""
    return quantum_dim(1)


def _frac(x: "QFrac | IntLaurent | int") -> "QFrac":
    return x if isinstance(x, QFrac) else QFrac(x)


class QFrac:
    """Fraction of Laurent polynomials in q, never reduced, with field
    arithmetic.  Theta and tetrahedron values are rational (projector
    coefficients bring in quantum-integer denominators), so fractions are
    the honest type for the generic-q oracles.  at_root divides numerator
    by denominator in the cyclotomic field and raises ZeroDivisionError if
    the denominator vanishes there, even where the reduced fraction would
    be finite.

    Equal fractions hash alike: the hash is that of the reduced pair."""

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

    def __add__(self, other: "QFrac | IntLaurent | int") -> "QFrac":
        other = _frac(other)
        return QFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other: "QFrac | IntLaurent | int") -> "QFrac":
        other = _frac(other)
        return QFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __sub__(self, other: "QFrac | IntLaurent | int") -> "QFrac":
        return self + (-_frac(other))

    def __truediv__(self, other: "QFrac | IntLaurent | int") -> "QFrac":
        other = _frac(other)
        if other.num.is_zero():
            raise ZeroDivisionError
        return QFrac(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: "QFrac | IntLaurent | int") -> "QFrac":
        return _frac(other) / self

    def __neg__(self) -> "QFrac":
        return QFrac(-self.num, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (int, IntLaurent, QFrac)):
            return NotImplemented
        other = _frac(other)
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:
        r = self.reduced()
        return hash((r.num, r.den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def reduced(self) -> "QFrac":
        """Cancel common factors; denominator gets lowest exponent 0, lead > 0."""
        if self.num.is_zero():
            return QFrac(IntLaurent(), IntLaurent(1))
        num, den = self.num, self.den
        g = poly_gcd(num, den)
        if g != IntLaurent(1):
            num, den = num.exact_div(g), den.exact_div(g)
        c = math.gcd(content(num), content(den))
        if c > 1:
            cc = IntLaurent(c)
            num, den = num.exact_div(cc), den.exact_div(cc)
        k = den.min_exp()
        if k:
            num, den = num.shift(-k), den.shift(-k)
        if den.coeff(den.max_exp()) < 0:
            num, den = -num, -den
        return QFrac(num, den)


def theta(a: int, b: int, c: int) -> QFrac:
    """Oracle for theta_at: the theta-graph value with edge colors a, b, c
    as a Laurent fraction at generic q."""
    if not admissible(a, b, c):
        raise ValueError(f"inadmissible triple {(a, b, c)}")
    m = (a + b - c) // 2
    n = (b + c - a) // 2
    r = (c + a - b) // 2
    num = qfact(m + n + r + 1) * qfact(m) * qfact(n) * qfact(r)
    den = qfact(m + n) * qfact(n + r) * qfact(r + m)
    return QFrac(num if (m + n + r) % 2 == 0 else -num, den)


def tet(a: int, b: int, e: int, c: int, d: int, f: int) -> QFrac:
    """Oracle for tet_at: the tetrahedron coefficient with vertex triples
    (a,b,e), (c,d,e), (a,d,f), (b,c,f) as a Laurent fraction at generic q,
    its sum over every z up to the smallest square."""
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
    for x in (a, b, e, c, d, f):
        pre_den = pre_den * qfact(x)
    return QFrac(num * pre_num, den * pre_den)


_RANK_NUM_G3 = (0, 3, 32, 120, 200, 192, 128)
_RANK_NUM_G5 = (
    0, 45, 864, 6892, 30184, 83760, 172512,
    304896, 458112, 542720, 487424, 294912, 98304,
)


def rank_polynomial_genus3(k: int) -> int:
    """Oracle for count_spine_colorings: the genus-3 count at p = 4k+1,
    in closed form.  The numerator polynomial is divisible by 45 at every
    integer; the division below is checked exact.  Odd for odd k."""
    return _rank_polynomial(_RANK_NUM_G3, 45, k)


def rank_polynomial_genus5(k: int) -> int:
    """Oracle for count_spine_colorings: the genus-5 count at p = 4k+1,
    in closed form."""
    return _rank_polynomial(_RANK_NUM_G5, 14175, k)


def _rank_polynomial(coeffs: tuple[int, ...], den: int, k: int) -> int:
    if k < 1:
        raise ValueError("the closed forms need k >= 1")
    num = sum(c * k ** e for e, c in enumerate(coeffs))
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"rank numerator {num} not divisible by {den}")
    return q


# ---------------------------------------------------------------------------
# the annulus


def z_poly_to_e(coeffs: dict[int, object], zero: object) -> list[object]:
    """Expand a z-polynomial with arbitrary ring coefficients in the e-basis."""
    if not coeffs:
        return []
    top = max(coeffs)
    out = [zero] * (top + 1)
    for deg, c in coeffs.items():
        row = z_power_in_e(deg)
        for j, m in enumerate(row):
            if m:
                out[j] = out[j] + m * c
    return out


def e_in_z_plus2(n: int) -> list[int]:
    """Oracle for z_plus2_pow_in_e, the inverse change of basis:
    e_{n-1} = sum_{i=1}^n (-1)^(n-i) C(n+i-1, n-i) (z+2)^(i-1)."""
    return [(-1) ** (n - i) * math.comb(n + i - 1, n - i) for i in range(1, n + 1)]


def twist_sq_eigenvalue(i: int) -> IntLaurent:
    """Oracle for twist_sq_matrix_vtilde, which it must diagonalize to:
    the eigenvalue of the squared twist on e_i, in the variable q."""
    return IntLaurent.monomial(1, (i * i + 2 * i))


def v_in_e_matrix(size: int) -> Matrix:
    """Oracle for twist_matrix_v, the change of basis that diagonalizes it.

    Column j holds the integral e-coordinates of (z+2)^j, so v^j is column j
    over (1+A)^j.  Upper triangular with unit diagonal.
    """
    cols = [z_plus2_pow_in_e(j + 1) for j in range(size)]
    return [
        [IntLaurent(cols[j][k]) if k <= j else IntLaurent() for j in range(size)]
        for k in range(size)
    ]


# ---------------------------------------------------------------------------
# matrices and lattices


def mat_vec(a: Matrix, v, zero) -> list:
    """Oracle for saturate: a matrix times a coordinate vector, one ring
    product per entry, the route the tests run against its integer rows."""
    out = []
    for row in a:
        acc = zero
        for x, y in zip(row, v):
            acc = acc + x * y
        out.append(acc)
    return out


def vectors(lat: OLattice) -> list[list[CycNum]]:
    """Oracle for saturate's integer rounds: the basis rows as vectors."""
    phi = lat.ctx.phi
    return [
        [CycNum(lat.ctx, tuple(row[j * phi : (j + 1) * phi]), lat.den) for j in range(lat.width)]
        for row in lat.basis
    ]


def _reduce_row(row, basis, pivots) -> tuple[list[int], list[int]]:
    """Back-substitute over an echelon basis with the given pivot columns;
    (coefficients, remainder).  The basis is only read."""
    rem = list(row)
    coeffs = []
    for b, col in zip(basis, pivots):
        q, r = divmod(rem[col], b[col])
        if r:
            # not an integer combination along this pivot
            coeffs.append(q)
            return coeffs, rem
        if q:
            rem[col:] = [a - q * x for a, x in zip(rem[col:], b[col:])]
        coeffs.append(q)
    return coeffs, rem


def _pivots(lat: OLattice) -> list[int]:
    """The pivot column of each basis row."""
    return [_lead(r) for r in lat.basis]


def _contains_row(lat: OLattice, pivots: list[int], row) -> bool:
    """Whether (1/den) times the integer row lies in the lattice."""
    _, rem = _reduce_row(row, lat.basis, pivots)
    return not any(rem)


def contains_vector(lat: OLattice, vec) -> bool:
    """Certificate of membership, run by ROADMAP item 2's containment and
    volume check on every v generator in place of building the v lattice."""
    vec = list(vec)
    if len(vec) != lat.width:
        raise ValueError("vector length does not match the lattice")
    row: list[int] = []
    for c in vec:
        same_ring(lat.ctx, c.ctx)
        # c * den is integral iff c's reduced denominator divides den
        if lat.den % c.den:
            return False
        scale = lat.den // c.den
        row.extend(x * scale for x in c.vec)
    return _contains_row(lat, _pivots(lat), row)


def zeta_stable(lat: OLattice) -> bool:
    """Certificate of the module property, which ROADMAP item 1 runs in
    saturate: zeta times every basis row stays inside."""
    pivots = _pivots(lat)
    return all(_contains_row(lat, pivots, _zeta_shift(lat.ctx, r)) for r in lat.basis)


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
    pivots = _pivots(outer)
    coeff_rows = []
    for row in inner.basis:
        coeffs, rem = _reduce_row([x * si for x in row], out_rows, pivots)
        if any(rem):
            raise ValueError("inner lattice is not contained in the outer one")
        coeff_rows.append(coeffs)
    det = determinant(coeff_rows, 0, lambda u, w: u // w)
    return abs(det)


# ---------------------------------------------------------------------------
# genus 1


def reduce_skein(params: TQFTParams, z_coeffs: dict[int, object]) -> Vector:
    """Oracle for z_action: the image of an annulus element in powers of z.

    Coefficients may be ints, A-Laurent polynomials, or CycNum.
    """
    ctx = params.ctx
    conv: dict[int, CycNum] = {}
    for k, c in z_coeffs.items():
        if isinstance(c, int):
            c = ctx.from_int(c)
        elif isinstance(c, IntLaurent):
            c = ctx.from_A_laurent(c)
        conv[k] = c
    return reduce_e(params, z_poly_to_e(conv, ctx.zero))


def elimination_det(params: TQFTParams, mat: Matrix) -> CycNum:
    """Oracle for factored_determinant: the determinant of mat by Bareiss
    elimination over the field, with no factor to check."""
    ctx = params.ctx
    return determinant(mat, ctx.zero, lambda u, w: u * ctx.inv(w))


def pairing_bracket(params: TQFTParams, x: Vector, y: Vector) -> CycNum:
    """Oracle for hermitian_pairing: the form as an honest bracket state sum.

    x and conj(y), expanded in z-powers, ride parallel zero-framed cores of
    the solid torus; one omega-cabled meridian encircles them all.  The cost
    is exponential in the z-degrees, so this is the small-p oracle against
    which hermitian_pairing is checked.
    """

    def terms(v: Vector):
        return [(((0,),) * k, c) for k, c in coords_z(_coords(params, v)).items()]

    return omega_pairing(params, 1, terms(x), terms(y))


def hopf_bracket(params: TQFTParams, x: Vector, y: Vector) -> CycNum:
    """Oracle for hopf_pairing_closed: the bilinear bracket of the Hopf link
    cabled by the z-expansions of x and y, no conjugation anywhere."""
    total = params.ctx.zero
    for a, ca in coords_z(_coords(params, x)).items():
        for b, cb in coords_z(_coords(params, y)).items():
            total = total + ca * cb * params.necklace([a], [[0]] * b)
    return total


def form_preserved(gram_mat: Matrix, op: Matrix, zero) -> bool:
    """Certificate that op^T G conj(op) == G, an isometry of the Hermitian
    form; ROADMAP item 9 promotes it to verify-all."""
    right = mat_mul(gram_mat, map_entries(lambda x: x.conj(), op), zero)
    return mat_eq(mat_mul(transpose(op), right, zero), gram_mat)


# ---------------------------------------------------------------------------
# genus 2 and 3


def graph_colorings_genus3(params: TQFTParams):
    """Oracle for arrangement_set_genus3: its lead colorings, the wheel
    colorings ((a1,a2,a3), (c1,c2,c3)).  Loops a_i below d; arm c_i even with
    (a_i, a_i, c_i) admissible; the three arms meet a central vertex, so
    (c1, c2, c3) must be admissible too.  Ordered loops first."""
    p, d = params.p, params.d
    arms: dict[int, list[int]] = {}
    for a in range(d):
        arms[a] = [c for c in range(0, p - 2, 2) if p_admissible(p, a, a, c)]
    out = []
    for a in itertools.product(range(d), repeat=3):
        for c in itertools.product(arms[a[0]], arms[a[1]], arms[a[2]]):
            if p_admissible(p, *c):
                out.append((a, c))
    out.sort()
    return out


def monomial_lead(monomial) -> tuple[int, int, int]:
    """The lead coloring (alpha+gamma, beta+gamma, 2 gamma) of the genus-2
    monomial (alpha, beta, gamma): every pair fused into its top channel."""
    alpha, beta, gamma = monomial
    return (alpha + gamma, beta + gamma, 2 * gamma)


def monomial_curves(monomial) -> tuple[tuple[int, ...], ...]:
    """The genus-2 monomial (alpha, beta, gamma) as the sorted hole tuples
    that gram_bracket pairs: alpha curves around hole 0, gamma around both
    holes and beta around hole 1."""
    alpha, beta, gamma = monomial
    return ((0,),) * alpha + ((0, 1),) * gamma + ((1,),) * beta


def triangular_certificate_genus2(params: TQFTParams, color: str = "z") -> dict:
    """Oracle for gram_genus2: its LDL factor and pivots.

    Support bound and lead coefficient of the expansion.  Claim: every
    coloring in the support of an arrangement is componentwise at most its
    lead coloring, and the lead coefficient is 1, for z- and for
    (z+2)-colored curves alike.  Componentwise dominance implies lex
    dominance, so the matrix over the shared order is triangular with unit
    diagonal.  A v-colored arrangement is its (z+2)-colored one times the
    scaling (1+A)^-n (n = curve count), of (1-q)-valuation -n and so not a
    unit, and its lead coefficient is that scaling.
    """
    one = params.ctx.one
    support_ok = True
    diagonal_ok = True
    for monomial in arrangement_set_genus2(params):
        li, lj, lk = monomial_lead(monomial)
        coords = expand_arrangement(params, monomial, color)
        for (i, j, k) in coords:
            if i > li or j > lj or k > lk:
                support_ok = False
        if coords.get((li, lj, lk)) != one:
            diagonal_ok = False
    ok = support_ok and diagonal_ok
    return {
        "claim": "arrangement expansion is unit-triangular over the graph basis",
        "p": params.p,
        "color": color,
        "support_ok": support_ok,
        "diagonal_ok": diagonal_ok,
        "ok": ok,
    }


def pairing_closed_genus2(params: TQFTParams, x, y, color: str = "z") -> CycNum:
    """Oracle for gram_closed_genus2: its entry (X, Y) for any two genus-2
    monomials, given as exponent triples, computed afresh: one dot of the
    meridian weights with the cables of the summed exponents, outside the
    ring memo's "entry" table."""
    if any(len(m) != 3 or not all(isinstance(n, int) for n in m) for m in (x, y)):
        raise ValueError("this closed form pairs genus-2 exponent triples")
    cables = [_folded_cable(params, color, a + b) for a, b in zip(x, y)]
    return params.ctx.dot(zip(_meridian_weights(params), *cables))


def annulus_product(params: TQFTParams, color: str, count_x: int, count_y: int) -> list[CycNum]:
    """Oracle for _folded_cable: the count_x cable times the conjugated
    count_y cable, multiplied term by term with the Clebsch-Gordan rule,
    reduced and folded into colors 0..d-1.  The closed form reads the
    (count_x + count_y)-cable instead."""
    fx = _class_cable(params, color, count_x)
    fy = [c.conj() for c in _class_cable(params, color, count_y)]
    raw = [params.ctx.zero] * (len(fx) + len(fy) - 1)
    for i, a in enumerate(fx):
        for j, b in enumerate(fy):
            if a and b:
                for k in e_product_in_e(i, j):
                    raw[k] = raw[k] + a * b
    return fold_transparent(params, fold_raw(params, raw))


# ---------------------------------------------------------------------------
# link diagrams


def cable_braid(word, strands: int, widths) -> tuple[list[int], int]:
    """Oracle for necklace_pd: cabled links built from braid closures instead.

    Replace each strand by parallel copies; widths are per starting strand.
    All strands of a closure component must share a width.  A width may be 0,
    which deletes the strand (used nowhere for colors, but harmless).
    """
    _check_word(word, strands)
    if len(widths) != strands or any(w < 0 for w in widths):
        raise ValueError("need one nonnegative width per strand")
    for cyc in braid_components(word, strands):
        if len({widths[s] for s in cyc}) != 1:
            raise ValueError("cable widths must be constant on components")
    cur = [widths[s] for s in range(strands)]
    out: list[int] = []
    for g in word:
        i = abs(g)
        u, v = cur[i - 1], cur[i]
        base = 1 + sum(cur[: i - 1])
        block = [base + u - 1 - k + l for k in range(u) for l in range(v)]
        if g > 0:
            out.extend(block)
        else:
            out.extend(-b for b in reversed(block))
        cur[i - 1], cur[i] = v, u
    return out, sum(widths)


def seeded_braid_corpus(seed: int, links: int, strands_from=(6, 7), fewest: int = 20) -> dict:
    """Closures of random braids on strands_from strands with fewest to 32
    crossings and 2-4 components, in the corpus format `bracket --corpus`
    reads."""
    rng = random.Random(seed)
    entries = []
    while len(entries) < links:
        strands = rng.choice(strands_from)
        crossings = rng.randrange(fewest, 33)
        word = [rng.choice((-1, 1)) * rng.randrange(1, strands) for _ in range(crossings)]
        if not 2 <= len(braid_components(word, strands)) <= 4:
            continue
        diagram = braid_pd(word, strands)
        entries.append({
            "name": f"braid{len(entries):02d}", "braid": word, "strands": strands,
            "pd": [list(cr) for cr in diagram.pd], "loops": diagram.loops,
            "mu": diagram.mu, "crossings": diagram.crossings,
        })
    return {"links": entries}


def derivative_congruences(f: IntLaurent, mu: int, p: int) -> bool:
    """Oracle for divisibility_certificate, mod p: True iff f^(k)(-1) = 0
    mod p for all 0 <= k < mu; requires mu < p."""
    if not 0 <= mu < p:
        raise ValueError("need 0 <= mu < p")
    g = f
    for _ in range(mu):
        val = evaluate(g, -1)
        if val.denominator != 1:
            raise RefutationError(f"a Laurent polynomial took the value {val} at A = -1")
        if val.numerator % p:
            return False
        g = derivative(g)
    return True


def root_divisibility(f: IntLaurent, mu: int, ctx: CycContext) -> bool:
    """Oracle for divisibility_certificate at a root of unity: True iff
    (1+A)^mu divides f(A) at the root of unity of ctx."""
    value = ctx.from_A_laurent(f)
    if value == ctx.zero:
        return True
    val, _ = value.valuation_one_minus_q()
    return val >= mu
