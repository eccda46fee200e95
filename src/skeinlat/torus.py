"""The solid-torus skein module at a root of unity, rank d = (p-1)/2.

Specializing A and passing to the quotient of R[z] by e_{p-1} = 0 and the
folding e_{d+i} = e_{d-1-i} leaves the free module on e_0 .. e_{d-1}.  On it
live the twist t (diagonal with eigenvalues mu_i), the surgery element
omega = eta sum <e_i> e_i, the bilinear Hopf pairing H_ij =
(-1)^(i+j) [(i+1)(j+1)], and a Hermitian form with (e_i, e_j) = D delta_ij.
A vector is the tuple of its d coordinates over e_0 .. e_{d-1}, the form
the lattices take; the functions that read vectors take the parameters
alongside and refuse a tuple of another length.

The form has a diagrammatic definition: put x and the conjugate of y on
parallel cores of a standardly embedded solid torus and one omega-colored
zero-framed meridian around them, then take the bracket of the whole link.
An omega-colored meridian kills every e_c with 0 < c <= 2d-2 threading it
and scales e_0 by D, so the definition collapses to D times the
e_0-coefficient of the product x conj(y); the closed forms here all come
from that projection rule, and pairing_bracket runs the honest state sum so
the two routes can be compared.

Certificates report a determinant together with its (1-q)-valuation and the
unit cofactor test, never a bare boolean.
"""

from __future__ import annotations

import functools
import itertools
import math

from .annulus import twist_eigenvalue, twist_matrix_v, z_plus2_pow_in_e, z_poly_to_e, e_to_z_poly
from .bracket import kauffman_bracket, necklace_pd
from .cyclotomic import CycContext, CycNum, NotIntegralError
from .laurent import IntLaurent, RefutationError
from .matrices import (
    Matrix,
    determinant,
    diagonal,
    hermitian_fill,
    identity,
    ldl_decomposition,
    map_entries,
    mat_eq,
    mat_inverse,
    mat_mul,
    transpose,
)
from .recoupling import qint, quantum_dim_at

# A genus-1 vector: its coordinates over e_0 .. e_{d-1}.
Vector = tuple[CycNum, ...]


class DegeneracyError(ArithmeticError):
    """A matrix that must be nonsingular turned out singular."""


class TQFTParams:
    """Constants of the theory at one odd prime p.

    D is the square root of -p/(q - q^-1)^2 built from the quadratic Gauss
    sum g = sum (k|p) q^k; for p = 1 mod 4, where g^2 = +p, a fourth root of
    unity is thrown in.  The sign of D is a convention and nothing downstream
    can see it: omega carries the compensating eta = D^-1.

    for_prime(p) is the canonical instance: its ctx is the library's ring at
    p.  The parameters keep no table of their own: the necklace brackets and
    the genus-2 annulus products and fused loops go into ctx.memo, next to
    the inverses and recoupling values, so each is built once per ring.
    inv1a is 1/(1+A), the denominator of v = (z+2)/(1+A).
    """

    @classmethod
    @functools.cache
    def for_prime(cls, p: int) -> "TQFTParams":
        """The constants and the ring at p, built once per process."""
        return cls(p)

    def __init__(self, p: int):
        ctx = CycContext(p)
        self.ctx = ctx
        self.p = p
        self.d = ctx.d
        self.inv1a = ctx.inv(ctx.one + ctx.A)
        gauss = ctx.zero
        for k in range(1, p):
            leg = 1 if pow(k, self.d, p) == 1 else -1
            gauss = gauss + leg * ctx.q_pow(k)
        if p % 4 == 1:
            gauss = gauss * ctx.i_power(1)
        qdiff = ctx.q_pow(1) - ctx.q_pow(-1)
        self.D = gauss * ctx.inv(qdiff)
        self.eta = ctx.inv(self.D)
        half = (p + 1) // 2
        kappa = ctx.A_pow(-3) * ctx.i_power(half)
        self.kappa = -kappa if half % 2 else kappa
        self.dims = [quantum_dim_at(ctx, i) for i in range(self.d)]
        total = ctx.zero
        for dim in self.dims:
            total = total + dim * dim
        for holds, identity in (
            (self.D * self.eta == ctx.one, "D eta = 1"),
            (self.D.conj() == self.D, "D is real"),
            (self.D * self.D * qdiff * qdiff == ctx.from_int(-p), "D^2 (q - q^-1)^2 = -p"),
            (self.kappa * self.kappa == ctx.A_pow(-6 - p * (p + 1) // 2), "kappa^2"),
            (total == self.D * self.D, "sum of squared dimensions = D^2"),
        ):
            if not holds:
                raise RefutationError(f"TQFT constants at p = {p}: {identity} fails")

    def necklace(self, widths, cores) -> CycNum:
        """Bracket of the necklace diagram, specialized at the root: meridian
        circles cabled widths[c] times, threaded by parallel cores, each core
        given by the circles it threads.  Parallel cores commute, so the memo
        key sorts them."""
        key = (tuple(widths), tuple(sorted(tuple(c) for c in cores)))
        return self.ctx.cached(
            ("necklace", key), lambda: self.ctx.from_A_laurent(kauffman_bracket(necklace_pd(*key)))
        )

    def mu(self, i: int) -> CycNum:
        """Twist eigenvalue (-1)^i A^(i^2+2i) on e_i."""
        return self.ctx.from_A_laurent(twist_eigenvalue(i))

    def __repr__(self) -> str:
        return f"TQFTParams(p={self.p})"


def _coords(params: TQFTParams, x) -> Vector:
    """x as a tuple of its d coordinates over e_0 .. e_{d-1}.  d = (p-1)/2
    differs at every prime, so the count also keeps two primes apart."""
    x = tuple(x)
    if len(x) != params.d:
        raise ValueError(f"need {params.d} coordinates at p = {params.p}, got {len(x)}")
    return x


def z_action(params: TQFTParams, x) -> Vector:
    """Multiply by z: e_i -> e_{i-1} + e_{i+1}, then reduce."""
    x = _coords(params, x)
    zero = params.ctx.zero
    up = (zero,) + x
    down = x[1:] + (zero, zero)
    return reduce_e(params, [a + b for a, b in zip(up, down)])


def coords_z(x) -> dict[int, CycNum]:
    """The element with e-coordinates x written in powers of z (degrees
    below d)."""
    poly = e_to_z_poly(list(x))
    return {k: v for k, v in poly.items() if v}


def fold_raw(params: TQFTParams, raw) -> list[CycNum]:
    """Reduce an annulus element to colors 0..p-2.

    e_{p-1} is dropped and e_{p-1+j} folds to -e_{p-1-j}; degrees past 2p-4
    never arise from products of reduced elements."""
    ctx, top = params.ctx, params.p - 1
    out = [ctx.zero] * top
    for k, coeff in enumerate(raw):
        if isinstance(coeff, int):
            if not coeff:
                continue
            coeff = ctx.from_int(coeff)
        elif not coeff:
            continue
        if k < top:
            out[k] = out[k] + coeff
        elif k > top:
            if k > 2 * top - 2:
                raise ValueError(f"degree {k} beyond the reducible range")
            out[2 * top - k] = out[2 * top - k] - coeff
    return out


def fold_transparent(params: TQFTParams, cable: list[CycNum]) -> list[CycNum]:
    """Fold an annulus element over e_r = e_{p-2-r} into colors 0..d-1."""
    return [cable[m] + cable[params.p - 2 - m] for m in range(params.d)]


def reduce_e(params: TQFTParams, raw) -> Vector:
    """Fold a raw e-expansion into the quotient.

    Keeps k < d, reflects d <= k <= 2d-1 onto e_{2d-1-k}, drops k = p-1.
    Raw degrees beyond p-1 never arise from products of reduced elements and
    are rejected.
    """
    if len(raw) > params.p:
        raise ValueError(f"raw degree {params.p} is beyond e_{{p-1}}")
    return tuple(fold_transparent(params, fold_raw(params, raw)))


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


def basis_e(params: TQFTParams) -> list[Vector]:
    ctx, d = params.ctx, params.d
    return [tuple(ctx.one if j == i else ctx.zero for j in range(d)) for i in range(d)]


def omega(params: TQFTParams) -> Vector:
    """omega = eta sum <e_i> e_i, the element that implements surgery."""
    return tuple(params.eta * dim for dim in params.dims)


def omega_product(params: TQFTParams) -> Vector:
    """omega as D times the projector onto the top z-eigenvector.

    z acts on the quotient with simple spectrum lam_i = -q^(i+1) - q^(-i-1),
    so D prod_{i>=1} (z - lam_i)/(lam_0 - lam_i) applied to e_0 lands on the
    lam_0 eigenline with the same normalization as the defining sum.
    """
    ctx, d = params.ctx, params.d
    lam = [-(ctx.q_pow(i + 1) + ctx.q_pow(-i - 1)) for i in range(d)]
    out = basis_e(params)[0]
    for i in range(1, d):
        c = ctx.inv(lam[0] - lam[i])
        out = tuple((a - b * lam[i]) * c for a, b in zip(z_action(params, out), out))
    return tuple(a * params.D for a in out)


def basis_omega(params: TQFTParams) -> list[Vector]:
    """The twist orbit omega, t(omega), .., t^{d-1}(omega): t is diagonal,
    so coordinate i of t^j(omega) picks up mu_i^j."""
    om, d = omega(params), params.d
    mus = [params.mu(i) for i in range(d)]
    return [tuple(c * mu**j for c, mu in zip(om, mus)) for j in range(d)]


def z_plus2_rows(params: TQFTParams) -> list[Vector]:
    """The e-coordinates of (z+2)^j for j < d, integral and unit-lower-triangular."""
    d, from_int = params.d, params.ctx.from_int
    return [tuple(map(from_int, z_plus2_pow_in_e(j + 1) + [0] * (d - 1 - j))) for j in range(d)]


def basis_v(params: TQFTParams) -> list[Vector]:
    """Powers of v = (z+2)/(1+A): v^j is the integral row (z+2)^j times
    (1+A)^-j, triangular with diagonal (1+A)^-j."""
    scales = (params.inv1a**j for j in range(params.d))
    return [tuple(x * u if x else x for x in row) for row, u in zip(z_plus2_rows(params), scales)]


def w_matrix(params: TQFTParams) -> Matrix:
    """Row j holds the e-coordinates of t^j(omega)."""
    return [list(v) for v in basis_omega(params)]


def v_matrix(params: TQFTParams) -> Matrix:
    """Column j holds the e-coordinates of v^j."""
    return transpose([list(v) for v in basis_v(params)])


# ---------------------------------------------------------------------------
# pairings


def hermitian_pairing(params: TQFTParams, x: Vector, y: Vector) -> CycNum:
    """(x, y) = D sum_i x_i conj(y_i), conjugate-linear in y.

    The omega-meridian projection rule: the meridian keeps only the
    e_0-component of x conj(y), scaled by D, and the e_0-coefficient of
    e_i e_j is delta_ij.
    """
    acc = params.ctx.zero
    for a, b in zip(_coords(params, x), _coords(params, y)):
        if a and b:
            acc = acc + a * b.conj()
    return params.D * acc


def omega_pairing(params: TQFTParams, genus: int, terms_x, terms_y) -> CycNum:
    """The Hermitian form of a genus-g handlebody as an honest state sum.

    terms_x and terms_y resolve X and Y into parallel plain cores: each is a
    list of (cores, weight), a core being the tuple of holes it encircles.
    X and conj(Y) ride together through one omega-cabled meridian per hole.
    Conjugating Y mirrors its cores, which leaves the planar diagram alone
    and conjugates only the weights.
    """
    ctx = params.ctx
    om_z = sorted(coords_z(omega(params)).items())
    total = ctx.zero
    for widths in itertools.product(om_z, repeat=genus):
        wc = ctx.one
        for _, c in widths:
            wc = wc * c
        wkey = [w for w, _ in widths]
        for cores_x, cx in terms_x:
            for cores_y, cy in terms_y:
                got = params.necklace(wkey, cores_x + cores_y)
                total = total + wc * cx * cy.conj() * got
    return total


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


def hopf_pairing_closed(params: TQFTParams, i: int, j: int) -> CycNum:
    """H_ij = (-1)^(i+j) [(i+1)(j+1)]: the zero-framed Hopf link with its
    components colored e_i and e_j."""
    v = params.ctx.from_q_laurent(qint((i + 1) * (j + 1)))
    return -v if (i + j) % 2 else v


def hopf_matrix(params: TQFTParams) -> Matrix:
    d = params.d
    return [[hopf_pairing_closed(params, i, j) for j in range(d)] for i in range(d)]


def hopf_bracket(params: TQFTParams, x: Vector, y: Vector) -> CycNum:
    """Oracle for hopf_pairing_closed: the bilinear bracket of the Hopf link
    cabled by the z-expansions of x and y, no conjugation anywhere."""
    total = params.ctx.zero
    for a, ca in coords_z(_coords(params, x)).items():
        for b, cb in coords_z(_coords(params, y)).items():
            total = total + ca * cb * params.necklace([a], [[0]] * b)
    return total


# ---------------------------------------------------------------------------
# Gram matrices and certificates


def gram(params: TQFTParams, basis: list[Vector]) -> Matrix:
    """G_ij = (b_i, b_j), one pairing per unordered pair: the form is Hermitian."""
    return hermitian_fill(len(basis), lambda i, j: hermitian_pairing(params, basis[i], basis[j]))


def e_gram_closed(params: TQFTParams) -> Matrix:
    return diagonal([params.D] * params.d, params.ctx.zero)


def v_gram_closed(params: TQFTParams) -> Matrix:
    """Closed form of the v-basis Gram matrix.

    (v^i, v^j) = D c_{i+j} A^j (1+A)^(-i-j) where c_m is the e_0-coefficient
    of (z+2)^m, the integer binom(2m+2, m)/(m+1); the stray A^j is
    conj(1+A)^-j = A^j (1+A)^-j.  Every entry is an algebraic integer, even
    for i+j >= d where that forces p to divide c_{i+j}.
    """
    ctx, d = params.ctx, params.d
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            m = i + j
            c = z_plus2_pow_in_e(m + 1)[0]
            if c != math.comb(2 * m + 2, m) // (m + 1):
                raise RefutationError(f"(z+2)^{m}: e_0-coefficient is not the Catalan number")
            row.append(params.D * c * ctx.A_pow(j) * params.inv1a**m)
        out.append(row)
    return out


def associate_certificate(
    params: TQFTParams, value: CycNum, claim: str, basis: str | None, expect: int
) -> dict:
    """The claim that value is a unit times (1-q)^expect, refuted unless the
    cofactor of value.valuation_one_minus_q() is a unit and its exponent is
    expect.  unit means value itself is a unit.  A denominator prime to p
    stays on the cofactor and fails the unit test honestly."""
    if value.is_zero():
        raise DegeneracyError(f"{claim}: value is zero")
    exponent, cofactor = value.valuation_one_minus_q()
    ok = cofactor.is_unit()
    if not ok or exponent != expect:
        raise RefutationError(
            f"{claim} fails at p = {params.p} ({basis} basis): "
            f"the value is not associate to (1-q)^({expect}), exponent "
            f"{exponent}, unit cofactor {ok}"
        )
    return {
        "claim": claim,
        "p": params.p,
        "basis": basis,
        "det": value,
        "associate_exponent": exponent,
        "unit": exponent == 0,
        "ok": ok,
    }


def _det(params: TQFTParams, mat: Matrix) -> CycNum:
    ctx = params.ctx
    return determinant(mat, ctx.zero, lambda u, w: u * ctx.inv(w))


def factored_determinant(params: TQFTParams, label: str, gram_mat: Matrix, pivots: list[CycNum],
                         lower: Matrix | None = None, scales=None) -> CycNum:
    """The determinant of gram_mat by one LDL factorization, refuted unless
    its pivots are pivots and its factor is lower, if given: the factor is
    unique, so gram_mat = lower diag(pivots) lower*.  The row scalings
    scales rescale it to scales[i] gram_mat[i][j] conj(scales[j]); they need
    not be units ((1+A)^-n has (1-q)-valuation -n).  The factor is summed with
    ctx.dot, so a denominator in it refutes the triangularity of the rows."""
    ctx = params.ctx
    try:
        factor, diag = ldl_decomposition(gram_mat, ctx.one, ctx.zero, ctx.inv, CycNum.conj, ctx.dot)
    except NotIntegralError as exc:
        raise RefutationError(f"{label}: rows are not unit-triangular ({exc})") from exc
    if diag != pivots:
        raise RefutationError(f"{label}: LDL pivots are not the closed form")
    if lower is not None and not mat_eq(factor, lower):
        raise RefutationError(f"{label}: LDL factor is not the expansion matrix")
    return math.prod([*pivots, *(u * u.conj() for u in scales or ())], start=ctx.one)


def genus1_determinant(params: TQFTParams, basis: str) -> CycNum:
    """The Gram determinant of the e, omega or v basis, without elimination.
    Rows R over e have Gram R diag(D) R*: the e rows are the identity, and
    the integral (z+2)^j rows, v^j times (1+A)^j, are factored over the
    integers.  The omega orbit is W = V^T diag(omega), V the Vandermonde
    matrix [mu_i^j], so its determinant is D^d |det W|^2."""
    if basis not in ("e", "omega", "v"):
        raise ValueError(f"unknown basis {basis!r}")
    d = params.d
    if basis == "omega":
        det_w = det_w_product(params)
        return params.D**d * det_w * det_w.conj()
    rows = basis_e(params) if basis == "e" else z_plus2_rows(params)
    scales = [params.inv1a**j for j in range(d)] if basis == "v" else None
    return factored_determinant(params, f"genus-1 {basis} gram", gram(params, rows),
                                [params.D] * d, rows, scales)


def vandermonde_product(params: TQFTParams) -> CycNum:
    """prod_{i<j} (mu_j - mu_i), the determinant of [mu_i^j]."""
    mus = [params.mu(i) for i in range(params.d)]
    return math.prod((b - a for a, b in itertools.combinations(mus, 2)), start=params.ctx.one)


def det_w_product(params: TQFTParams) -> CycNum:
    """det W = prod omega_i * prod_{i<j} (mu_j - mu_i), as W = V^T diag(omega)."""
    return math.prod(omega(params), start=params.ctx.one) * vandermonde_product(params)


def det_w_certificate(params: TQFTParams) -> dict:
    """det W by elimination, equal to det_w_product and associate to (1-q)^(-d(d-1)/2)."""
    d = params.d
    expect = -(d * (d - 1) // 2)
    det = _det(params, w_matrix(params))
    if det != det_w_product(params):
        raise RefutationError("det W disagrees with the omega-Vandermonde product")
    claim = f"det W associate to (1-q)^({expect})"
    return associate_certificate(params, det, claim, "omega", expect)


def vandermonde_certificate(params: TQFTParams) -> dict:
    """The Vandermonde factor [mu_i^j] of W: its determinant equals
    prod_{i<j} (mu_j - mu_i) and is associate to (1-q)^(d(d-1)/2)."""
    d = params.d
    det = _det(params, [[mu**j for j in range(d)] for mu in map(params.mu, range(d))])
    if det != vandermonde_product(params):
        raise RefutationError("vandermonde determinant disagrees with the product")
    expect = d * (d - 1) // 2
    claim = f"vandermonde determinant associate to (1-q)^{expect}"
    return associate_certificate(params, det, claim, "omega", expect)


def v_in_omega_span(params: TQFTParams) -> Matrix:
    """Coordinates of the v-powers over the omega orbit.

    Row j solves v^j = sum_k C[j][k] t^k(omega).  C and C^-1 must both be
    integral: that is the equality of the two lattices.
    """
    ctx = params.ctx
    winv = mat_inverse(w_matrix(params), ctx.one, ctx.zero, ctx.inv)
    rows_v = [list(v) for v in basis_v(params)]
    c = mat_mul(rows_v, winv, ctx.zero)
    cinv = mat_inverse(c, ctx.one, ctx.zero, ctx.inv)
    for mat in (c, cinv):
        if any(not x.is_integral() for row in mat for x in row):
            raise RefutationError(
                "v and omega spans differ: non-integral change of basis"
            )
    return c


# ---------------------------------------------------------------------------
# mapping class action


def s_matrix(params: TQFTParams, basis: str = "e") -> Matrix:
    """Matrix of the regluing involution S in the chosen basis.

    In the e-basis S = eta H: S(e_j) = eta sum_i H_ij e_i, and S^2 = 1
    exactly.  The v-basis matrix is the conjugated operator V^-1 S V, and
    every entry must be an algebraic integer; that is the statement that S
    preserves the v-lattice, and it is invisible entrywise (eta H(v^i, v^j)
    alone is not integral).
    """
    se = map_entries(lambda h: params.eta * h, hopf_matrix(params))
    if basis == "e":
        return se
    if basis != "v":
        raise ValueError(f"unknown basis {basis!r}")
    sv = _in_v_basis(params, se)
    if any(not x.is_integral() for row in sv for x in row):
        raise RefutationError("S-matrix entries in the v-basis are not integral")
    return sv


def _in_v_basis(params: TQFTParams, op: Matrix) -> Matrix:
    """V^-1 op V: the e-basis operator op written in the v-basis."""
    ctx = params.ctx
    vm = v_matrix(params)
    vinv = mat_inverse(vm, ctx.one, ctx.zero, ctx.inv)
    return mat_mul(vinv, mat_mul(op, vm, ctx.zero), ctx.zero)


def twist_matrix_v_at(params: TQFTParams) -> Matrix:
    """The twist in the v-basis, specialized at the root.

    The symbolic matrix has Z[A, A^-1] entries; here they become integral
    CycNum, and conjugating the eigenvalue matrix by the basis change must
    reproduce them, or the matrix is refuted.
    """
    tv = map_entries(params.ctx.from_A_laurent, twist_matrix_v(params.d))
    if not mat_eq(tv, _in_v_basis(params, twist_matrix(params))):
        raise RefutationError("twist matrix in the v-basis is not V^-1 t V at the root")
    return tv


def twist_matrix(params: TQFTParams) -> Matrix:
    """The twist t in the e-basis: diagonal with eigenvalues mu_i."""
    return diagonal([params.mu(i) for i in range(params.d)], params.ctx.zero)


def form_preserved(gram_mat: Matrix, op: Matrix, zero) -> bool:
    """Certificate that op^T G conj(op) == G, an isometry of the Hermitian
    form; ROADMAP item 9 promotes it to verify-all."""
    right = mat_mul(gram_mat, map_entries(lambda x: x.conj(), op), zero)
    return mat_eq(mat_mul(transpose(op), right, zero), gram_mat)


def modular_relation_scalar(params: TQFTParams) -> dict:
    """(ST)^3 against S^2 = 1: the quotient is a unit scalar, recorded here
    rather than normalized away."""
    ctx, d = params.ctx, params.d
    st = mat_mul(s_matrix(params), twist_matrix(params), ctx.zero)
    cube = mat_mul(st, mat_mul(st, st, ctx.zero), ctx.zero)
    lam = cube[0][0]
    scalar_matrix = map_entries(lambda x: x * lam, identity(d, ctx.one, ctx.zero))
    ok = mat_eq(cube, scalar_matrix) and lam.is_unit()
    return {
        "claim": "(S T)^3 is a unit scalar times S^2",
        "p": params.p,
        "scalar": lam,
        "ok": ok,
    }
