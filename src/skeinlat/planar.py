"""Handlebody skein pairings in genus 2 and 3 at an odd prime.

A genus-g handlebody is a disk with g holes times an interval; its skein
module is spanned by colored curve systems in the holed disk.  Two spanning
families matter here:

* curve arrangements: disjoint unions of simple closed curves, each curve
  recorded by the subset of holes it encloses.  In genus 2 an arrangement is
  the monomial x^alpha y^beta ztilde^gamma (curves around hole 0, hole 1,
  and both), kept as its exponent triple (alpha, beta, gamma); in genus 3
  it is the sorted tuple of its curves, each the sorted tuple of its holes.
  Every curve may carry the plain strand z, the element z+2, or
  v = (z+2)/(1+A); genus-3 curves may also carry the surgery element omega.

* graph colorings: admissible colorings of a spine with one loop per hole
  and arms joining the loops (a dumbbell in genus 2, a three-armed wheel in
  genus 3).  Loop colors stay below d = (p-1)/2; arm colors are even.

The Hermitian pairing of two handlebody elements is the bracket of X and
conj(Y) with one omega-cabled meridian circle around each hole.  An
omega-meridian keeps exactly the channels where it is blind: the trivial
color and the transparent color p-2 (quantum dimension one), each scaled by
D.  On graph elements this collapses the pairing to a product of theta
coefficients: distinct colorings are orthogonal and the norms have the
closed forms below.  Arrangements expand over graph colorings through
two-strand fusion, so their Gram matrix is R N R*, with R the
unit-lower-triangular expansion and N the diagonal graph Gram.  The same
matrix also comes straight from the projection rule once every cable is
folded over e_r = e_{p-2-r}.  An LDL factorization is unique, so the two
routes are compared by factoring the closed form once: its factor must be R
and its pivots N.  Both genus-2 routes build integral cables only, z and
z+2, so every lead coefficient is 1 and every cable is real.  A pairing is
then the single monomial X conj(Y), and the closed form reads each entry
off the cables of the summed exponents: one folded cable per color and
count, and one entry per color and summed triple, both kept in the ring
context's memo, so the Gram is a symmetric table of memo reads (285
distinct entries fill the 56 x 56 Gram at p = 11).  The expansion's fused
loops are kept there too.  A v-colored arrangement is its (z+2)-colored one
times the row scaling (1+A)^-n, n its curve count, so the v-colored Gram is
factored on the (z+2) rows and takes the scalings back in its determinant.
A scaling is not a unit: (1+A)^-n has (1-q)-valuation -n, which
base_change_valuation counts on each side.  At p = 5 the honest state sum over necklace diagrams
arbitrates both.  Genus 3 factors integral rows too: its colored
arrangements are row scalings, again of valuation -1 per curve, times
unit-triangular integral rows over the plain ones.  Determinants are
reported as associate certificates against powers of 1-q, never as bare
booleans.
"""

from __future__ import annotations

import itertools

from .annulus import e_product_in_e, z_plus2_pow_in_e, z_power_in_e
from .cyclotomic import CycNum
from .matrices import Matrix, diagonal, hermitian_fill, map_entries, mat_mul, transpose
from .recoupling import p_admissible, quantum_dim_at, tet_at, theta_at
from .torus import (RefutationError, TQFTParams, associate_certificate, coords_z,
                    factored_determinant, fold_raw, fold_transparent, omega, omega_pairing)

Monomial = tuple[int, int, int]
Family = tuple[tuple[int, ...], ...]
Coloring2 = tuple[int, int, int]
Coloring3 = tuple[tuple[int, int, int], tuple[int, int, int]]


# ---------------------------------------------------------------------------
# curve arrangements


def arrangement_set_genus2(params: TQFTParams) -> list[Monomial]:
    """All monomials (alpha, beta, gamma) with gamma <= d-1 and alpha, beta
    <= d-1-gamma.

    The bounds keep every hole cover at most d-1, so each meridian sees at
    most d-1 strands.  Listed by (gamma, alpha, beta), which matches the
    arm-first order on graph colorings under the lead coloring
    (alpha+gamma, beta+gamma, 2 gamma) that fuses every pair into its top
    channel.
    """
    d = params.d
    return [
        (alpha, beta, gamma)
        for gamma in range(d)
        for alpha in range(d - gamma)
        for beta in range(d - gamma)
    ]


def arrangement_set_genus3() -> list[Family]:
    """All arrangements in the three-holed disk with hole covers at most one.

    A cover bound of one (the case d = 2) forces the curves to be pairwise
    disjoint as sets, so the families are the partitions of subsets of the
    holes: 15 of them carrying 22 curves in total.  Each family is the
    sorted tuple of its curves, so itertools.combinations of a family yields
    its sub-families in the same canonical form.  Listed by lead coloring,
    loop part first.
    """
    curves = sorted(c for r in (1, 2, 3) for c in itertools.combinations(range(3), r))
    families = [f for r in range(4) for f in itertools.combinations(curves, r)
                if sum(map(len, f)) == len(set().union(*f))]
    return sorted(families, key=lead_coloring_genus3)


def lead_coloring_genus3(family: Family) -> Coloring3:
    """Wheel coloring reached by fusing every pair into its top channel: the
    loop colors are the hole covers and each arm carries twice the number
    of multi-hole curves running along it."""
    return (tuple(sum(h in s for s in family) for h in range(3)),
            tuple(2 * sum(h in s for s in family if len(s) > 1) for h in range(3)))


# ---------------------------------------------------------------------------
# graph colorings and their norms


def graph_colorings_genus2(params: TQFTParams) -> list[Coloring2]:
    """Dumbbell colorings (i, j, k): loops i, j below d, even arm k <= 2 min.

    Ordered arm first; the block with arm k is a (d - k/2)^2 square."""
    d = params.d
    return [
        (i, j, k)
        for k in range(0, params.p - 2, 2)
        for i in range(k // 2, d)
        for j in range(k // 2, d)
    ]


def graph_norm_genus2(params: TQFTParams, i: int, j: int, k: int) -> CycNum:
    """(G(i,j,k), G(i,j,k)) = D^2 theta(i,i,k) theta(j,j,k) / (<i><j><k>).

    Each omega-meridian contributes a factor D and collapses its loop into a
    bubble theta(i,i,k)/<k>; the normalization <i> per loop and one leftover
    <k> balance the count.  Genus 1 degenerates to (e_i, e_i) = D.
    """
    ctx = params.ctx
    out = params.D * params.D * theta_at(ctx, i, i, k) * theta_at(ctx, j, j, k)
    for x in (i, j, k):
        out = out * ctx.inv(quantum_dim_at(ctx, x))
    return out


def graph_norm_genus3(params: TQFTParams, a, c) -> CycNum:
    """Wheel norm: D^3 theta(c1,c2,c3) prod_i theta(a_i,a_i,c_i)/(<a_i><c_i>)."""
    ctx = params.ctx
    out = params.D * params.D * params.D * theta_at(ctx, c[0], c[1], c[2])
    for ai, ci in zip(a, c):
        out = out * theta_at(ctx, ai, ai, ci)
        out = out * ctx.inv(quantum_dim_at(ctx, ai)) * ctx.inv(quantum_dim_at(ctx, ci))
    return out


# ---------------------------------------------------------------------------
# class cables and fusion data

COLORS = ("z", "z+2", "v", "omega")


def _class_cable(params: TQFTParams, color: str, count: int) -> list[CycNum]:
    """e-coordinates over colors 0..p-2 of `count` parallel z- or
    (z+2)-colored copies of one curve.  (z+2)^count = (1+A)^count v^count is
    the integral form of a v cable."""
    if color == "z":
        return fold_raw(params, z_power_in_e(count))
    if color == "z+2":
        return fold_raw(params, z_plus2_pow_in_e(count + 1))
    raise ValueError(f"genus-2 cables are z or z+2, got {color!r}")


def _folded_cable(params: TQFTParams, color: str, count: int) -> list[CycNum]:
    """The class cable folded over e_r = e_{p-2-r} into colors 0..d-1;
    memoized per color and count."""
    return params.ctx.cached(
        ("cable", color, count),
        lambda: fold_transparent(params, _class_cable(params, color, count)),
    )


def _arm_split(params: TQFTParams, m: int, c: int) -> CycNum:
    """Two parallel m-strands along an arm: channel c carries <c>/theta(m,m,c).

    The top channel c = 2m has weight exactly one."""
    ctx = params.ctx
    return quantum_dim_at(ctx, c) * ctx.inv(theta_at(ctx, m, m, c))


def _loop_fusion(params: TQFTParams, a: int, m: int, c: int, s: int) -> CycNum:
    """e_a alongside a loop colored m that carries an arm c: channel s weight.

    <s>/theta(a,m,s) opens the pair into channel s; the tetrahedral symbol
    slides the arm across and theta(s,s,c) renormalizes its attachment.  With
    no arm (c = 0) the tetrahedron degenerates to theta(a,m,s) and the weight
    is 1, matching plain annulus fusion."""
    ctx = params.ctx
    num = quantum_dim_at(ctx, s) * tet_at(ctx, a, s, m, c, m, s)
    den = theta_at(ctx, a, m, s) * theta_at(ctx, s, s, c)
    return num * ctx.inv(den)


def _fused_loop(params: TQFTParams, color: str, count: int, m: int, c: int) -> dict[int, CycNum]:
    """Fuse `count` parallel color cables onto a loop colored m with arm c,
    channels s < d; memoized per (color, count, m, c).

    The channels of e_a on the loop are those of e_a e_m admissible at the
    root.  Nothing is folded back: the arrangement bounds keep every hole
    cover below d, so a z or z+2 cable never reaches a channel s >= d, and
    an expansion that lost a term would be refuted by the LDL factor of the
    projection closed form."""

    def build() -> dict[int, CycNum]:
        p = params.p
        out: dict[int, CycNum] = {}
        for a, xa in enumerate(_class_cable(params, color, count)):
            if not xa:
                continue
            for s in e_product_in_e(a, m):
                if not (s < params.d and p_admissible(p, a, m, s) and p_admissible(p, s, s, c)):
                    continue
                coeff = xa * _loop_fusion(params, a, m, c, s)
                acc = out.get(s)
                out[s] = coeff if acc is None else acc + coeff
        return {k: v for k, v in out.items() if v}

    return params.ctx.cached(("loop", color, count, m, c), build)


# ---------------------------------------------------------------------------
# expanding arrangements over the graph basis


def expand_arrangement(
    params: TQFTParams, monomial: Monomial, color: str
) -> dict[Coloring2, CycNum]:
    """Graph-basis coordinates of the color-colored monomial
    (alpha, beta, gamma).

    The both-holes cable is split along the arm, then each single-hole cable
    fuses onto its loop.  The arrangement bounds keep every channel below d
    and the result is supported under the lead coloring with the lead
    coefficient 1.
    """
    alpha, beta, gamma = monomial
    p = params.p
    zc = _class_cable(params, color, gamma)
    out: dict[Coloring2, CycNum] = {}
    for m, zm in enumerate(zc):
        if not zm:
            continue
        for c in range(0, p - 2, 2):
            if not p_admissible(p, m, m, c):
                continue
            w = zm * _arm_split(params, m, c)
            left = _fused_loop(params, color, alpha, m, c)
            right = _fused_loop(params, color, beta, m, c)
            for s, cs in left.items():
                ws = w * cs
                for t, ct in right.items():
                    key = (s, t, c)
                    term = ws * ct
                    acc = out.get(key)
                    out[key] = term if acc is None else acc + term
    return {k: v for k, v in out.items() if v}


def expansion_matrix_genus2(params: TQFTParams, color: str) -> Matrix:
    """The expansion matrix R, which gram_genus2 requires as the LDL factor
    of gram_closed_genus2.  Rows: arrangements; columns: graph colorings,
    both in their lex order."""
    cols = {col: n for n, col in enumerate(graph_colorings_genus2(params))}
    mat = []
    for monomial in arrangement_set_genus2(params):
        row = [params.ctx.zero] * len(cols)
        for key, val in expand_arrangement(params, monomial, color).items():
            row[cols[key]] = val
        mat.append(row)
    return mat


# ---------------------------------------------------------------------------
# the pairing: projection closed form and state-sum oracle


def gram_closed_genus2(params: TQFTParams, color: str) -> Matrix:
    """Gram of the genus-2 monomials by the projection closed form.

    (X, Y) = D^2 sum_{m<d} P_m Q_m R_m / <m>, conjugate-linear in Y.  The
    cables are integral, so real, and X conj(Y) is one monomial: P, Q, R are
    the cables of the summed exponents around hole 0, hole 1, and both
    holes, folded into the small range by e_r = e_{p-2-r}: the color p-2 has
    dimension one and a parallel copy of it is invisible, and
    e_{p-2} e_r = e_{p-2-r} on the nose (the fold keeps <m> because
    <p-2-r> = <r>).  A meridian around two small-colored cables keeps only
    their matching channel, which forces the folded colors equal and leaves
    D^2/<m> once both meridians have fired.  A summed exponent is at most
    2d-2 = p-3, so no cable reaches e_{p-1}; each comes from _folded_cable.
    An entry depends only on the summed triple, so it is one ctx.dot over
    the channels, built once per color and summed triple in the ring
    context's memo; the entries are real, so the Gram is a symmetric table
    of them."""
    monomials = arrangement_set_genus2(params)
    weights = _meridian_weights(params)
    ctx = params.ctx

    def entry(summed: Monomial) -> CycNum:
        return ctx.cached(("entry", color, summed), lambda: ctx.dot(
            zip(weights, *(_folded_cable(params, color, n) for n in summed))))

    return [[entry((a + x, b + y, c + z)) for x, y, z in monomials] for a, b, c in monomials]


def _meridian_weights(params: TQFTParams) -> list[CycNum]:
    """D^2/<m> for m < d: what both meridians leave on a channel m."""
    dd = params.D * params.D
    return [dd * params.ctx.inv(dim) for dim in params.dims]


def _curve_z_terms(params: TQFTParams, color: str) -> dict[int, CycNum]:
    """One colored curve as a polynomial in its own core: degree -> weight."""
    ctx = params.ctx
    if color == "z":
        return {1: ctx.one}
    if color == "z+2":
        return {0: ctx.from_int(2), 1: ctx.one}
    if color == "v":
        return {0: params.inv1a + params.inv1a, 1: params.inv1a}
    if color == "omega":
        return coords_z(omega(params))
    raise ValueError(f"unknown color {color!r}; pick one of {COLORS}")


def _arrangement_z_terms(
    params: TQFTParams, curves: Family, color: str
) -> list[tuple[Family, CycNum]]:
    """All ways to resolve the colored curves into parallel plain cores.

    A degree-k term puts k parallel copies of the curve's holes among the
    cores; the weights multiply across curves."""
    base = _curve_z_terms(params, color)
    items: list[tuple[Family, CycNum]] = [((), params.ctx.one)]
    for holes in curves:
        items = [
            (cores + (holes,) * k, coeff * ck)
            for cores, coeff in items
            for k, ck in base.items()
        ]
    return [(tuple(sorted(cores)), coeff) for cores, coeff in items]


def gram_bracket(params: TQFTParams, genus: int, families: list[Family], color: str) -> Matrix:
    """Honest Gram matrix of curve families in the genus-holed disk, each the
    tuple of its curves' hole tuples: one omega-cabled meridian circle per
    hole, the resolved cores of X and conj(Y) threading their holes."""
    terms = [_arrangement_z_terms(params, curves, color) for curves in families]
    return hermitian_fill(
        len(families),
        lambda i, j: omega_pairing(params, genus, terms[i], terms[j]),
    )


# ---------------------------------------------------------------------------
# determinant reports


def _certified_report(
    params: TQFTParams,
    genus: int,
    basis: str,
    color: str | None,
    counts: list[int],
    gram: Matrix,
    pivots: list[CycNum],
    plus_subring: bool | None = None,
    scales: list[CycNum] | None = None,
    lower: Matrix | None = None,
) -> dict:
    """The certificate for gram, its determinant from factored_determinant.

    The exponents come from counts, the curve count of each row: rank_term
    is (d-1) genus per row, and base_change_valuation is -2 curve_total for
    v- or omega-colored curves and 0 otherwise.  The report is the entry
    the genus2 and genus3p5 verbs print, its keys in their table order;
    unimodular says whether the determinant is a unit outright.  Every gram
    comes from integral rows, unit-triangular over the graph basis, so a
    denominator in its LDL factor refutes the report."""
    curve_total = sum(counts)
    rank_term = (params.d - 1) * genus * len(counts)
    base_change_valuation = -2 * curve_total if color in ("v", "omega") else 0
    det = factored_determinant(params, f"genus-{genus} {basis} gram", gram, pivots, lower, scales)
    expected = rank_term + base_change_valuation
    cert = associate_certificate(params, det, f"genus-{genus} gram determinant", basis, expected)
    return {
        "p": params.p,
        "genus": genus,
        "basis": basis,
        "color": color,
        "rank": len(gram),
        "curve_total": curve_total,
        "rank_term": rank_term,
        "base_change_valuation": base_change_valuation,
        "expected_exponent": expected,
        "associate_exponent": cert["associate_exponent"],
        "unit_cofactor": cert["ok"],
        "unimodular": bool(cert["unit"]),
        "plus_subring": plus_subring,
        "det": det,
    }


def gram_genus2(p: int, basis: str = "A") -> dict:
    """Gram determinant certificate in genus 2.

    Bases: "G" the graph basis (diagonal, exponent 2(d-1)r); "A" plain curve
    arrangements (unit-triangular over G, same exponent); "Av" v-colored
    arrangements (diagonal picks up (1+A)^-n per arrangement and the
    determinant is a unit).  For A and Av the projection closed form is
    factored once, and its LDL factor must be the graph expansion matrix
    and its pivots the graph norms.  Av is factored on integral rows: the
    (z+2)-colored arrangements, each a v-row times (1+A)^n, n its curve
    count, are unit-triangular over G, and both routes build their Gram
    from the same integral cables (a closed-form entry reads the cables of
    its two monomials' summed exponents).  Its determinant then takes the
    row scalings (1+A)^-n back, prod N * |1+A|^(-2 curve_total).
    """
    params = TQFTParams.for_prime(p)
    counts = [sum(monomial) for monomial in arrangement_set_genus2(params)]
    pivots = [graph_norm_genus2(params, *col) for col in graph_colorings_genus2(params)]
    if basis == "G":
        gram = diagonal(pivots, params.ctx.zero)
        return _certified_report(params, 2, basis, None, counts, gram, pivots)
    if basis not in ("A", "Av"):
        raise ValueError(f"unknown basis {basis!r}; pick G, A, or Av")
    cable = "z" if basis == "A" else "z+2"
    gram = gram_closed_genus2(params, cable)
    lower = expansion_matrix_genus2(params, cable)
    if basis == "A":
        return _certified_report(params, 2, basis, "z", counts, gram, pivots, lower=lower)
    scales = [params.inv1a ** n for n in counts]
    return _certified_report(params, 2, basis, "v", counts, gram, pivots,
                             scales=scales, lower=lower)


def _subset_transform(
    params: TQFTParams, families: list[Family], color: str
) -> tuple[Matrix, CycNum]:
    """Integral rows R of colored arrangements over plain ones and the curve
    scaling kept, for multiplicity-free families closed under removing curves.

    A curve keeps or drops its core with the z-degree 1 and 0 weights of
    _curve_z_terms: a v-curve is ((curve) + 2) / (1+A); an omega-curve needs
    d = 2 and is the plus-normalized surgery cable (-i) eta (e_0 + <1> e_1).
    The -i matters: eta = 1/D carries one factor of i (only i D lies in the
    q-subring), so a bare omega cable pushes every odd-curve-count pairing
    off that subring, while -i eta is an honest q-subring fraction.  A colored
    arrangement of n curves is kept^n times its row, whose entry on a
    sub-arrangement that drops k curves is (dropped/kept)^k: 2 for v and
    1/<1> for omega, so R is unit lower triangular."""
    ctx = params.ctx
    if any(len(set(curves)) < len(curves) for curves in families):
        raise ValueError("subset transform needs multiplicity-free arrangements")
    if color not in ("v", "omega"):
        raise ValueError(f"no subset transform for color {color!r}")
    if color == "omega" and params.d != 2:
        raise ValueError("omega-colored curves stay single strands only at d = 2")
    terms = _curve_z_terms(params, color)
    unit = ctx.i_power(3) if color == "omega" else ctx.one
    kept = terms[1] * unit
    ratio = terms[0] * ctx.inv(terms[1])
    index = {curves: n for n, curves in enumerate(families)}
    out = [[ctx.zero] * len(families) for _ in families]
    for i, curves in enumerate(families):
        n = len(curves)
        for r in range(n + 1):
            for sub in itertools.combinations(curves, r):
                out[i][index[sub]] = ratio ** (n - r)
    return out, kept


def genus3_p5_report(color: str = "v") -> dict:
    """Genus-3 Gram certificate at p = 5 over the index-two real subring.

    The 15 arrangements pair through the state sum; the triangular recolor
    to v or omega curves and the twist by i (one factor per odd genus) land
    every entry in the real subring Z[zeta_5].  The determinant must be a
    nonunit of valuation exactly one: 45 from the graph norms minus 44 from
    the 22 recolored curves on each side.  The recolor is kept^n times the
    integral rows R of _subset_transform and the plain Gram is L diag(N) L*
    over the wheel norms N, so i R G R* must have the LDL pivots i N_k; the
    row scalings kept^n come back in the determinant.  They are not units:
    kept has (1-q)-valuation -1, so each curve on each side gives the -1 that
    base_change_valuation counts.
    """
    if color not in ("v", "omega"):
        raise ValueError(f"recoloring needs v or omega, got {color!r}")
    params = TQFTParams.for_prime(5)
    ctx = params.ctx
    families = arrangement_set_genus3()
    rows, kept = _subset_transform(params, families, color)
    tw = ctx.i_power(1)  # one factor of i per odd genus
    gram = mat_mul(
        mat_mul(rows, gram_bracket(params, 3, families, "z"), ctx.zero),
        transpose(map_entries(lambda v: v.conj(), rows)),
        ctx.zero,
    )
    gram = map_entries(lambda v: v * tw, gram)
    counts = [len(curves) for curves in families]
    scales = [kept ** n for n in counts]
    plus_ok = all((u * x * w.conj()).in_plus_subring()
                  for u, row in zip(scales, gram) for w, x in zip(scales, row))
    pivots = [tw * graph_norm_genus3(params, *lead_coloring_genus3(f)) for f in families]
    return _certified_report(params, 3, "A" + color, color, counts, gram, pivots, plus_ok, scales)


def non_unimodular_witness(report: dict) -> dict | None:
    """Parity obstruction to a unimodular basis, or None when there is none.

    Any two bases differ by a change with determinant contributing an even
    valuation (the factor and its conjugate), so every basis Gram
    determinant has valuation congruent to rank_term mod 2.  Odd rank_term
    therefore rules out unit determinants outright, and the report's odd
    exponent is the concrete witness.  A claimed odd instance whose report
    shows an even exponent is a refutation, not a witness.
    """
    if report["rank_term"] % 2 == 0:
        return None
    if report["associate_exponent"] % 2 == 0:
        raise RefutationError(
            "odd-parity instance produced an even determinant valuation"
        )
    return {
        "claim": "no basis of this module has a unit Gram determinant",
        "p": report["p"],
        "genus": report["genus"],
        "basis": report["basis"],
        "gram_valuation": report["associate_exponent"],
        "parity_anchor": report["rank_term"],
        "ok": True,
    }
