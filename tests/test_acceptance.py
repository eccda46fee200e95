"""Acceptance gate: one test per published claim family.

Each test states its claim, runs it at the stated sizes, and enforces the
stated wall-clock budget where one exists.  Everything is exact arithmetic.
"""

import time

from skeinlat.annulus import (
    ONE_MINUS_Q,
    s_poly,
    twist_eigenvalue,
    twist_matrix_v,
    twist_sq_matrix_vtilde,
)
from skeinlat.bracket import (
    COLORINGS,
    LinkDiagram,
    divisibility_certificate,
    load_corpus,
)
from skeinlat.cyclotomic import CycContext
from skeinlat.laurent import ONE_PLUS_A, IntLaurent
from skeinlat.lattice import OLattice, lattice_equal, saturate
from skeinlat.matrices import (
    diagonal,
    ldl_decomposition,
    mat_eq,
    mat_mul,
)
from skeinlat.planar import (
    arrangement_set_genus2,
    expansion_matrix_genus2,
    genus3_p5_report,
    gram_bracket,
    gram_closed_genus2,
    gram_genus2,
    graph_colorings_genus2,
    graph_norm_genus2,
    non_unimodular_witness,
)
from skeinlat.recoupling import (
    count_spine_colorings,
    verlinde_rank,
)
from skeinlat.torus import (
    TQFTParams,
    associate_certificate,
    basis_e,
    basis_omega,
    basis_v,
    det_w_certificate,
    genus1_determinant,
    gram,
    hopf_matrix,
    omega,
    omega_product,
    s_matrix,
    s_matrix_v,
    v_in_omega_span,
)

from oracles import (
    derivative_congruences,
    elimination_det,
    evaluate,
    hopf_bracket,
    laurent_from_json,
    monomial_curves,
    monomial_lead,
    rank_polynomial_genus3,
    rank_polynomial_genus5,
    root_divisibility,
    triangular_certificate_genus2,
    twist_sq_eigenvalue,
    v_in_e_matrix,
)

PRIMES = (5, 7, 11, 13)


def twist_op(params: TQFTParams):
    return diagonal([params.mu(i) for i in range(params.d)], params.ctx.zero)


def test_criterion_01_polynomial_suite() -> None:
    # curl values at -1, the odd-power recursion, and (1+A)-divisibility
    start = time.monotonic()
    for n in range(1, 26):
        for i in range(1, n + 1):
            assert evaluate(s_poly(1, i, n), -1) == ((-1) ** n if i == n else 0)
    for m in (3, 5):
        for n in range(1, 21):
            for i in range(1, n + 1):
                lhs = s_poly(m, i, n)
                rhs = i * i * s_poly(m - 2, i, n)
                if i < n:
                    rhs = rhs + 2 * i * (2 * i + 1) * s_poly(m - 2, i + 1, n)
                assert lhs == rhs
    for n in range(1, 31):
        for i in range(1, n + 1):
            s_poly(1, i, n).exact_div(ONE_PLUS_A ** (n - i))  # raises unless divisible
    assert time.monotonic() - start < 30


def test_criterion_02_twist_integrality() -> None:
    # construction succeeds with integral entries, and V' T~ = diag(mu) V'
    # holds symbolically over Z[A, A^-1], where V' holds the e-coordinates of
    # the (z+2)^j and T~[r][c] = t[r][c] (1+A)^(c-r); the squared twist with
    # (1-q) in place of (1+A)
    zero = IntLaurent()
    cases = [(twist_matrix_v(n), ONE_PLUS_A, twist_eigenvalue) for n in range(1, 13)]
    cases += [(twist_sq_matrix_vtilde(n), ONE_MINUS_Q, twist_sq_eigenvalue) for n in range(1, 9)]
    for t, unit, eigenvalue in cases:
        size = len(t)
        t_cleared = [
            [x * unit ** max(c - r, 0) for c, x in enumerate(row)] for r, row in enumerate(t)
        ]
        v = v_in_e_matrix(size)
        mus = diagonal([eigenvalue(i) for i in range(size)], zero)
        assert mat_eq(mat_mul(v, t_cleared, zero), mat_mul(mus, v, zero))


def test_criterion_03_genus1_determinants() -> None:
    start = time.monotonic()
    for p in PRIMES:
        params = TQFTParams.for_prime(p)
        d = params.d
        for name, builder in (("e", basis_e), ("omega", basis_omega), ("v", basis_v)):
            det = genus1_determinant(params, name)
            assert det == elimination_det(params, gram(params, builder(params))), (p, name)
            expect = d * (d - 1) if name == "e" else 0
            cert = associate_certificate(params, det, "gram determinant", name, expect)
            assert cert["ok"] and cert["associate_exponent"] == expect
            assert cert["unit"] == (expect == 0), (p, name)
        det_w_certificate(params)  # raises unless exponent is -d(d-1)/2
    assert time.monotonic() - start < 60


def test_criterion_04_basis_equivalences() -> None:
    for p in PRIMES:
        params = TQFTParams.for_prime(p)
        ctx = params.ctx
        w_lat = OLattice.from_vectors(ctx, basis_omega(params))
        v_lat = OLattice.from_vectors(ctx, basis_v(params))
        assert lattice_equal(w_lat, v_lat), p
        assert omega_product(params) == omega(params), p
        v_in_omega_span(params)  # raises unless integral both ways
        s_matrix_v(params)  # raises unless entrywise integral


def test_criterion_05_stabilization() -> None:
    for p in (5, 7):
        params = TQFTParams.for_prime(p)
        ctx = params.ctx
        seed = basis_e(params)
        report = saturate(ctx, seed, [twist_op(params), s_matrix(params)])
        v_lat = OLattice.from_vectors(ctx, basis_v(params))
        assert report.stabilized and report.iterations <= 5, p
        assert lattice_equal(report.lattice, v_lat), p


def test_criterion_06_genus2_reports() -> None:
    start = time.monotonic()
    for p in (5, 7, 11):
        d = (p - 1) // 2
        reports = {b: gram_genus2(p, b) for b in ("G", "A", "Av")}
        rank = reports["G"]["rank"]
        assert rank == d * (d + 1) * (2 * d + 1) // 6, p
        n_curves = (d - 1) * rank
        for rep in reports.values():
            assert rep["rank"] == rank
            assert rep["curve_total"] == n_curves
            assert rep["unit_cofactor"]
            assert rep["associate_exponent"] == rep["expected_exponent"]
        assert reports["G"]["associate_exponent"] == 2 * n_curves
        assert reports["Av"]["unimodular"]
        for color in ("z", "z+2"):
            cert = triangular_certificate_genus2(TQFTParams.for_prime(p), color)
            assert cert["ok"], (p, color)
    # each report checks its Gram against the closed form entry by entry, and
    # criterion 10 arbitrates the closed form by the state sum at p = 5
    assert time.monotonic() - start < 600


def test_criterion_07_genus3_p5() -> None:
    reports = {color: genus3_p5_report(color) for color in ("v", "omega")}
    for color, rep in reports.items():
        assert rep["rank"] == 15 and rep["curve_total"] == 22, color
        assert rep["associate_exponent"] == 1 and rep["unit_cofactor"], color
        assert rep["plus_subring"] is True, color
        witness = non_unimodular_witness(rep)
        assert witness is not None and witness["parity_anchor"] == 45
        assert witness["parity_anchor"] % 2 == 1
    same = ("rank", "curve_total", "rank_term", "base_change_valuation",
            "associate_exponent", "unimodular", "plus_subring")
    for key in same:
        assert reports["v"][key] == reports["omega"][key], key


def test_criterion_08_rank_checks() -> None:
    assert count_spine_colorings(3, 5) == 15
    assert count_spine_colorings(5, 5) == 175
    for k in (1, 2, 3):
        n = 4 * k + 1
        assert rank_polynomial_genus3(k) == count_spine_colorings(3, n)
        assert rank_polynomial_genus5(k) == count_spine_colorings(5, n)
    assert rank_polynomial_genus3(3) == 3549  # enumerated independently above
    # the Verlinde formula as an exact trace, for every odd p < 32 and genus <= 12
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        ctx = CycContext(p)
        for genus in range(1, 13):
            assert verlinde_rank(ctx, genus) == count_spine_colorings(genus, p), (genus, p)


def test_criterion_09_divisibility_corpus() -> None:
    start = time.monotonic()
    links = load_corpus()
    contexts = {p: CycContext(p) for p in (5, 7)}
    one = IntLaurent.monomial(1, 0)
    for entry in links:
        assert entry["crossings"] <= 12 and entry["mu"] <= 3
        diagram = LinkDiagram.from_json(entry)
        certs = dict(zip(COLORINGS, divisibility_certificate(diagram)))
        for coloring, cert in certs.items():
            assert cert["ok"], (entry["name"], coloring)
        f = laurent_from_json(certs["z+2"]["value"])
        for p, ctx in contexts.items():
            # the derivative criterion must agree with root-of-unity
            # divisibility, on the bracket and on a spoiled copy of it
            assert derivative_congruences(f, diagram.mu, p)
            assert root_divisibility(f, diagram.mu, ctx)
            spoiled = f + one
            assert not derivative_congruences(spoiled, diagram.mu, p)
            assert not root_divisibility(spoiled, diagram.mu, ctx)
    assert time.monotonic() - start < 60


def test_criterion_10_oracle_coherence() -> None:
    # every closed form equals the bracket state sum bit for bit
    for p in (5, 7):
        params = TQFTParams.for_prime(p)
        closed = hopf_matrix(params)
        e_vecs = basis_e(params)
        state_sum = [
            [hopf_bracket(params, x, y) for y in e_vecs] for x in e_vecs
        ]
        assert mat_eq(closed, state_sum), p
    params = TQFTParams.for_prime(5)
    ctx = params.ctx
    arrs = arrangement_set_genus2(params)
    curves = [monomial_curves(m) for m in arrs]
    honest = gram_bracket(params, 2, curves, "z")
    # graph norms (theta products) through the triangular expansion
    # the one-by-one field sum is the oracle route of the integral ctx.dot
    field_dot = lambda pairs: sum((x * y for x, y in pairs), ctx.zero)
    _, diag = ldl_decomposition(honest, ctx.one, ctx.zero, ctx.inv, lambda v: v.conj(), field_dot)
    assert diag == [graph_norm_genus2(params, *monomial_lead(m)) for m in arrs]
    colorings = graph_colorings_genus2(params)
    assert [monomial_lead(m) for m in arrs] == colorings
    for color in ("z", "z+2"):
        assert mat_eq(gram_closed_genus2(params, color),
                      gram_bracket(params, 2, curves, color)), color
    # genus 3 runs its own wheel-norm-versus-state-sum refutation check
    genus3_p5_report("v")
