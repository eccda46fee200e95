import itertools
import math
import random
from functools import lru_cache

import pytest

from skeinlat import lattice, matrices, planar, torus
from skeinlat.bracket import RootCoeffs, kauffman_bracket, necklace_pd
from skeinlat.cyclotomic import CycContext, CycNum
from skeinlat.matrices import diagonal, identity, ldl_decomposition, mat_eq
from skeinlat.planar import (
    CurveArrangement,
    RefutationError,
    arrangement_set_genus2,
    arrangement_set_genus3,
    expand_arrangement,
    expansion_matrix_genus2,
    gram_bracket,
    gram_closed_genus2,
    gram_genus2,
    genus3_p5_report,
    graph_colorings_genus2,
    graph_norm_genus2,
    graph_norm_genus3,
    monomial_arrangement,
    non_unimodular_witness,
)
from skeinlat.recoupling import (
    count_spine_colorings,
    quantum_dim_at,
    verlinde_rank,
)
from skeinlat.torus import TQFTParams

from oracles import (
    annulus_product,
    elimination_det,
    graph_colorings_genus3,
    pairing_closed_genus2,
    rank_polynomial_genus3,
    rank_polynomial_genus5,
    triangular_certificate_genus2,
)

PRIMES = (5, 7, 11)


@lru_cache(maxsize=None)
def genus2_report(p: int, basis: str) -> dict:
    return gram_genus2(p, basis=basis)


@lru_cache(maxsize=None)
def genus3_report(color: str) -> dict:
    return genus3_p5_report(color=color)


def field_dot(zero):
    """Oracle for CycContext.dot in ldl_decomposition: the field products
    summed one by one, so L may carry denominators."""
    return lambda pairs: sum((x * y for x, y in pairs), zero)


# a v-colored curve family is built from its integral cables:
# (z+2)^n = (1+A)^n v^n, n the curve count
CABLE = {"z": "z", "v": "z+2"}


def arrangement_gram(params, color):
    """The Gram of the color-colored genus-2 arrangements; for v, the (z+2)
    closed form with the row scalings (1+A)^-n taken back on both sides."""
    gram = gram_closed_genus2(params, CABLE.get(color, color))
    if color != "v":
        return gram
    scales = [params.inv1a ** arr.curve_count for arr in arrangement_set_genus2(params)]
    return [[ui * g * uj.conj() for g, uj in zip(row, scales)] for ui, row in zip(scales, gram)]


def genus2_gram(p: int, basis: str):
    """The Gram a genus-2 report certifies, rebuilt by the function that
    makes it: the graph norms for G, the closed form for A and Av."""
    params = TQFTParams.for_prime(p)
    if basis == "G":
        norms = [graph_norm_genus2(params, *c) for c in graph_colorings_genus2(params)]
        return diagonal(norms, params.ctx.zero)
    return arrangement_gram(params, "z" if basis == "A" else "v")


def memo_keys(ctx, kind):
    """The keys of one kind in the ring context's memo."""
    return [key for key in ctx.memo if key[0] == kind]


def fusion_gram(params, color):
    # independent assembly: expansion rows against the diagonal graph Gram
    rows = expansion_matrix_genus2(params, color)
    cols = graph_colorings_genus2(params)
    norms = [graph_norm_genus2(params, *c) for c in cols]
    ctx = params.ctx
    out = []
    for ri in rows:
        line = []
        for rj in rows:
            acc = ctx.zero
            for k in range(len(cols)):
                term = ri[k] * rj[k].conj()
                if term:
                    acc = acc + term * norms[k]
            line.append(acc)
        out.append(line)
    return out


# ---------------------------------------------------------------------------
# curve arrangements


def test_arrangement_rejects_crossing_curves():
    with pytest.raises(ValueError):
        CurveArrangement(3, (frozenset({0, 1}), frozenset({1, 2})))


def test_arrangement_rejects_empty_curve():
    with pytest.raises(ValueError):
        CurveArrangement(2, (frozenset(),))


def test_arrangement_rejects_foreign_holes():
    with pytest.raises(ValueError):
        CurveArrangement(2, (frozenset({2}),))


def test_arrangement_rejects_unsupported_genus():
    with pytest.raises(ValueError):
        CurveArrangement(4, (frozenset({0}),))


def test_arrangement_canonical_order_and_hash():
    a = CurveArrangement(3, (frozenset({2}), frozenset({0, 1}), frozenset({0, 1})))
    b = CurveArrangement(3, (frozenset({0, 1}), frozenset({2}), frozenset({0, 1})))
    assert a == b and hash(a) == hash(b)
    assert a.multiplicity({0, 1}) == 2
    assert a.hole_cover(1) == 2 and a.hole_cover(2) == 1


def test_monomial_arrangement_exponents():
    arr = monomial_arrangement(2, 3, 1)
    assert (arr.alpha, arr.beta, arr.gamma) == (2, 3, 1)
    assert arr.curve_count == 6
    assert arr.lead_coloring() == (3, 4, 2)
    with pytest.raises(ValueError):
        monomial_arrangement(-1, 0, 0)


def test_nested_curves_are_laminar():
    arr = CurveArrangement(2, (frozenset({0}), frozenset({0, 1})))
    assert arr.genus == 2 and arr.curve_count == 2


# ---------------------------------------------------------------------------
# index sets and counts


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_genus2_counts(p):
    d = (p - 1) // 2
    arrs = arrangement_set_genus2(TQFTParams.for_prime(p))
    r = d * (d + 1) * (2 * d + 1) // 6
    assert len(arrs) == r == count_spine_colorings(2, p)
    assert sum(a.curve_count for a in arrs) == (d - 1) * r


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_genus2_curve_count_per_gamma_block(p):
    # within fixed gamma the curves sum to (d-1)(d-gamma)^2
    d = (p - 1) // 2
    arrs = arrangement_set_genus2(TQFTParams.for_prime(p))
    for gamma in range(d):
        block = [a for a in arrs if a.gamma == gamma]
        assert len(block) == (d - gamma) ** 2
        assert sum(a.curve_count for a in block) == (d - 1) * (d - gamma) ** 2


def test_genus2_p5_index_set_explicit():
    arrs = arrangement_set_genus2(TQFTParams.for_prime(5))
    got = [(a.alpha, a.beta, a.gamma) for a in arrs]
    assert got == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize("p", PRIMES)
def test_genus2_lead_coloring_bijection_in_order(p):
    # arrangement order and coloring order agree under the lead map
    arrs = arrangement_set_genus2(TQFTParams.for_prime(p))
    cols = graph_colorings_genus2(TQFTParams.for_prime(p))
    assert sorted(a.lead_coloring() for a in arrs) == sorted(cols)
    d = (p - 1) // 2
    for k in range(0, p - 2, 2):
        assert sum(1 for c in cols if c[2] == k) == (d - k // 2) ** 2


def test_genus3_arrangements():
    arrs = arrangement_set_genus3()
    assert len(arrs) == 15 == count_spine_colorings(3, 5)
    assert sum(a.curve_count for a in arrs) == 22
    assert len(set(arrs)) == 15
    leads = [a.lead_coloring() for a in arrs]
    assert leads == sorted(graph_colorings_genus3(TQFTParams.for_prime(5)))
    # every hole is covered at most once, so loop colors stay below d = 2
    assert all(a.hole_cover(h) <= 1 for a in arrs for h in range(3))


def test_genus3_colorings_p7_are_admissible_and_sorted():
    cols = graph_colorings_genus3(TQFTParams.for_prime(7))
    assert cols == sorted(cols) and len(cols) == len(set(cols))
    assert len(cols) == count_spine_colorings(3, 7)
    for a, c in cols:
        assert all(x < 3 for x in a) and all(x % 2 == 0 for x in c)


# ---------------------------------------------------------------------------
# expansion over the graph basis


def test_expand_empty_arrangement():
    params = TQFTParams.for_prime(5)
    coords = expand_arrangement(params, monomial_arrangement(0, 0, 0))
    assert set(coords) == {(0, 0, 0)}
    assert coords[(0, 0, 0)] == params.ctx.one


def test_expand_single_curve_is_exact():
    params = TQFTParams.for_prime(5)
    coords = expand_arrangement(params, monomial_arrangement(1, 0, 0))
    assert set(coords) == {(1, 0, 0)}
    assert coords[(1, 0, 0)] == params.ctx.one


def test_expand_c110_support():
    # two curves around different holes never meet: single graph term
    params = TQFTParams.for_prime(5)
    coords = expand_arrangement(params, monomial_arrangement(1, 1, 0))
    assert set(coords) == {(1, 1, 0)}
    assert coords[(1, 1, 0)] == params.ctx.one


def test_expand_two_parallel_curves_split():
    # z^2 = e_2 + e_0 around one hole
    params = TQFTParams.for_prime(7)
    coords = expand_arrangement(params, monomial_arrangement(2, 0, 0))
    assert set(coords) == {(0, 0, 0), (2, 0, 0)}
    assert coords[(0, 0, 0)] == params.ctx.one
    assert coords[(2, 0, 0)] == params.ctx.one


def test_expand_needs_genus2():
    params = TQFTParams.for_prime(5)
    with pytest.raises(ValueError):
        expand_arrangement(params, arrangement_set_genus3()[0])


def test_expand_unknown_color():
    # genus-2 cables are z or z+2; v and omega are refused by both routes
    params = TQFTParams.for_prime(5)
    for color in ("w", "v", "omega"):
        with pytest.raises(ValueError):
            expand_arrangement(params, monomial_arrangement(1, 0, 0), color)
    for color in ("v", "omega"):
        with pytest.raises(ValueError, match="genus-2 cables are z or z\\+2"):
            gram_closed_genus2(params, color)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("color", ("z", "v"))
def test_triangular_certificate(p, color):
    cert = triangular_certificate_genus2(TQFTParams.for_prime(p), CABLE[color])
    assert cert["ok"] and cert["support_ok"] and cert["diagonal_ok"]


def test_triangular_certificate_rejects_omega():
    with pytest.raises(ValueError):
        triangular_certificate_genus2(TQFTParams.for_prime(5), "omega")


# ---------------------------------------------------------------------------
# pairings: two routes and the state-sum oracle


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("color", ("z", "v"))
def test_fusion_route_equals_projection_route(p, color):
    params = TQFTParams.for_prime(p)
    cable = CABLE[color]
    assert mat_eq(fusion_gram(params, cable), gram_closed_genus2(params, cable))


@pytest.mark.parametrize("color", ("z", "z+2", "v"))
def test_gram_bracket_oracle_p5(color):
    # the state sum of the v-colored arrangements against the (z+2) closed
    # form with the row scalings applied here
    params = TQFTParams.for_prime(5)
    arrs = arrangement_set_genus2(params)
    assert mat_eq(gram_bracket(params, arrs, color), arrangement_gram(params, color))


@pytest.mark.parametrize("p", (5, 7, 11, 13))
@pytest.mark.parametrize("color", ("z", "z+2"))
def test_folded_cable_is_the_annulus_product(p, color):
    # both cables are integral, so real, and the product of the a- and
    # conj(b)-cables is the (a+b)-cable for every count pair below d
    params = TQFTParams.for_prime(p)
    for a, b in itertools.product(range(params.d), repeat=2):
        assert planar._folded_cable(params, color, a + b) == annulus_product(params, color, a, b)


def test_pairing_is_hermitian():
    params = TQFTParams.for_prime(7)
    x = monomial_arrangement(1, 0, 1)
    y = monomial_arrangement(0, 1, 1)
    fwd = pairing_closed_genus2(params, x, y, "z+2")
    assert fwd.conj() == pairing_closed_genus2(params, y, x, "z+2")


@pytest.mark.parametrize("p", PRIMES)
def test_empty_pairing_is_d_squared(p):
    params = TQFTParams.for_prime(p)
    empty = monomial_arrangement(0, 0, 0)
    assert pairing_closed_genus2(params, empty, empty) == params.D * params.D


def test_pairing_closed_needs_genus2():
    params = TQFTParams.for_prime(5)
    empty3 = arrangement_set_genus3()[0]
    with pytest.raises(ValueError):
        pairing_closed_genus2(params, empty3, empty3)


@pytest.mark.parametrize("p", (5, 7))
def test_ldl_recovers_expansion_and_norms(p):
    # Gram_A = L diag L* with L the expansion matrix and diag the graph norms
    params = TQFTParams.for_prime(p)
    ctx = params.ctx
    gram = gram_closed_genus2(params, "z")
    lower, diag = ldl_decomposition(gram, ctx.one, ctx.zero, ctx.inv, CycNum.conj,
                                    field_dot(ctx.zero))
    cols = graph_colorings_genus2(params)
    norms = [graph_norm_genus2(params, *c) for c in cols]
    assert diag == norms
    assert mat_eq(lower, expansion_matrix_genus2(params, "z"))


def test_ldl_of_a_diagonal_matrix_multiplies_nothing(monkeypatch):
    # products with a zero entry of L are skipped, so a diagonal matrix
    # factors without a single ring product (or inverse)
    ctx = CycContext(7)
    entries = [ctx.from_int(k) + ctx.A for k in range(1, 7)]
    products = []
    inner = CycNum.__mul__

    def counted(x, y):
        products.append((x, y))
        return inner(x, y)

    monkeypatch.setattr(CycNum, "__mul__", counted)
    lower, diag = ldl_decomposition(
        diagonal(entries, ctx.zero), ctx.one, ctx.zero, ctx.inv, CycNum.conj, field_dot(ctx.zero)
    )
    assert products == []
    assert diag == entries
    assert mat_eq(lower, identity(len(entries), ctx.one, ctx.zero))


def test_ldl_diag_v_color_p5():
    # v-diagonal picks up |1+A|^(-2n) against the z norms
    params = TQFTParams.for_prime(5)
    ctx = params.ctx
    gram = arrangement_gram(params, "v")
    _, diag = ldl_decomposition(gram, ctx.one, ctx.zero, ctx.inv, CycNum.conj, field_dot(ctx.zero))
    inv1a = ctx.inv(ctx.one + ctx.A)
    arrs = arrangement_set_genus2(params)
    norms = [graph_norm_genus2(params, *c) for c in graph_colorings_genus2(params)]
    for k, arr in enumerate(arrs):
        scale = inv1a ** arr.curve_count * inv1a.conj() ** arr.curve_count
        assert diag[k] == scale * norms[k]


# ---------------------------------------------------------------------------
# genus-2 determinant reports


@pytest.mark.parametrize("p", (5, 7))
def test_gram_genus2_graph_basis(p):
    rep = genus2_report(p, "G")
    d = (p - 1) // 2
    assert rep["rank"] == d * (d + 1) * (2 * d + 1) // 6
    assert rep["rank_term"] == 2 * (d - 1) * rep["rank"]
    assert rep["associate_exponent"] == rep["rank_term"] == rep["expected_exponent"]
    assert rep["unit_cofactor"] and not rep["unimodular"]


@pytest.mark.parametrize("p", (5, 7))
def test_gram_genus2_plain_arrangements(p):
    rep = genus2_report(p, "A")
    assert rep["associate_exponent"] == rep["rank_term"]
    assert rep["base_change_valuation"] == 0
    assert not rep["unimodular"]


@pytest.mark.parametrize("p", (5, 7))
def test_gram_genus2_v_basis_unimodular(p):
    rep = genus2_report(p, "Av")
    assert rep["base_change_valuation"] == -2 * rep["curve_total"]
    assert rep["associate_exponent"] == 0
    assert rep["unimodular"] and rep["unit_cofactor"]


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("basis", ("G", "A", "Av"))
def test_genus2_pivot_product_matches_bareiss(p, basis):
    rep = genus2_report(p, basis)
    assert rep["det"] == elimination_det(TQFTParams.for_prime(p), genus2_gram(p, basis))


def test_pivot_list_off_by_one_entry_is_refuted():
    params = TQFTParams.for_prime(5)
    rep = genus2_report(5, "A")
    gram = genus2_gram(5, "A")
    pivots = [graph_norm_genus2(params, *c) for c in graph_colorings_genus2(params)]
    args = (arrangement_set_genus2(params), gram, pivots)
    assert planar._certified_report(params, 2, "A", "z", *args) == rep
    pivots[2] = pivots[2] + params.ctx.one
    with pytest.raises(RefutationError, match="LDL pivots"):
        planar._certified_report(params, 2, "A", "z", *args)


def test_a_denominator_in_l_refutes_the_genus2_report():
    # the genus-2 LDL runs on integral dots: a Gram whose L needs 1/N_0 is
    # not unit-triangular over the graph basis, and that is a refutation
    params = TQFTParams.for_prime(5)
    ctx = params.ctx
    pivots = [graph_norm_genus2(params, *c) for c in graph_colorings_genus2(params)]
    assert ctx.inv(pivots[0]).den != 1
    gram = diagonal(pivots, ctx.zero)
    gram[0][1] = gram[1][0] = ctx.one
    with pytest.raises(RefutationError, match="not unit-triangular"):
        planar._certified_report(params, 2, "G", None, arrangement_set_genus2(params), gram, pivots)


def test_a_malformed_genus2_gram_is_an_error_not_a_refutation():
    # only a denominator in L refutes triangularity; a gram that is not
    # square, or mixes rings, is a bad input and keeps its ValueError
    params = TQFTParams.for_prime(5)
    ctx = params.ctx
    pivots = [graph_norm_genus2(params, *c) for c in graph_colorings_genus2(params)]
    arrs = arrangement_set_genus2(params)
    ragged = diagonal(pivots, ctx.zero)
    ragged[1].pop()
    with pytest.raises(ValueError, match="square"):
        planar._certified_report(params, 2, "G", None, arrs, ragged, pivots)
    mixed = diagonal(pivots, ctx.zero)
    mixed[0][1], mixed[1][0] = ctx.one, CycContext(7).one
    with pytest.raises(ValueError, match="cannot mix"):
        planar._certified_report(params, 2, "G", None, arrs, mixed, pivots)


def count_eliminations(monkeypatch) -> dict:
    # every module binding of the two eliminations, wrapped by a counter
    calls = {"ldl_decomposition": 0, "determinant": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for mod in (matrices, torus, planar, lattice):
        for name in calls:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    return calls


@pytest.mark.parametrize("build", (lambda: gram_genus2(5, "Av"), lambda: genus3_p5_report("v")),
                         ids=("genus2", "genus3"))
def test_each_report_runs_one_ldl_and_no_bareiss(monkeypatch, build):
    calls = count_eliminations(monkeypatch)
    build()
    assert calls == {"ldl_decomposition": 1, "determinant": 0}


@pytest.mark.parametrize("color", ("z", "v"))
def test_closed_form_memoizes_each_summed_count(monkeypatch, color):
    # the first Gram builds one class cable per summed count it meets, at
    # most the 2d-1 counts 0..2d-2, and a second Gram on the same parameters
    # builds none
    params = TQFTParams(7)
    calls = []
    inner = planar._class_cable

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(planar, "_class_cable", counted)
    first = gram_closed_genus2(params, CABLE[color])
    keys = memo_keys(params.ctx, "cable")
    assert sorted(calls) == sorted((params, *key[1:]) for key in keys)
    assert 0 < len(keys) <= 2 * params.d - 1
    calls.clear()
    assert mat_eq(gram_closed_genus2(params, CABLE[color]), first)
    assert calls == []


@pytest.mark.parametrize("color", ("z", "z+2"), ids=("z", "(1+A)^n v"))
def test_expansion_fuses_each_loop_once(monkeypatch, color):
    # expanding every arrangement computes one fused loop per (color, count,
    # m, c); a computation builds one class cable, and each arrangement
    # builds one more for its arm
    params = TQFTParams(11)
    arrs = arrangement_set_genus2(params)
    calls = []
    inner = planar._class_cable

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(planar, "_class_cable", counted)
    first = [expand_arrangement(params, arr, color) for arr in arrs]
    loops = memo_keys(params.ctx, "loop")
    assert len(calls) - len(arrs) == len(loops) > 0
    assert {key[1] for key in loops} == {color}
    calls.clear()
    assert [expand_arrangement(params, arr, color) for arr in arrs] == first
    assert len(calls) == len(arrs)


def test_av_report_factors_an_integral_gram(monkeypatch):
    # the Av report hands LDL the Gram of the v rows times (1+A)^n, the
    # (z+2)-colored arrangements: integral, with the graph norms as its
    # pivots; the row scalings come back in the det
    factored = []
    inner = torus.ldl_decomposition

    def captured(gram, *args):
        out = inner(gram, *args)
        factored.append((gram, out[1]))
        return out

    monkeypatch.setattr(torus, "ldl_decomposition", captured)
    rep = gram_genus2(7, "Av")
    params = TQFTParams.for_prime(7)
    [(gram, diag)] = factored
    assert all(v.den == 1 for row in gram for v in row)
    assert diag == [graph_norm_genus2(params, *c) for c in graph_colorings_genus2(params)]
    assert rep["unimodular"]


def test_gram_genus2_rejects_unknown_basis():
    with pytest.raises(ValueError):
        gram_genus2(5, basis="B")


@pytest.mark.parametrize("p", (5, 7))
def test_genus2_witness_is_vacuous(p):
    assert non_unimodular_witness(genus2_report(p, "A")) is None


def test_report_json_round_trip_fields():
    rep = genus2_report(5, "Av")
    assert list(rep) == [
        "p", "genus", "basis", "color", "rank", "curve_total", "rank_term",
        "base_change_valuation", "expected_exponent", "associate_exponent",
        "unit_cofactor", "unimodular", "plus_subring", "det",
    ]
    assert rep["p"] == 5 and rep["basis"] == "Av" and rep["unimodular"] is True
    assert rep["expected_exponent"] == rep["rank_term"] + rep["base_change_valuation"]


# ---------------------------------------------------------------------------
# genus 3 at p = 5


def test_genus3_block_diagonal_by_loop_colors():
    # arrangements with different hole covers pair to zero
    params = TQFTParams.for_prime(5)
    arrs = arrangement_set_genus3()
    gram = gram_bracket(params, arrs, "z")
    for i, x in enumerate(arrs):
        for j, y in enumerate(arrs):
            if x.lead_coloring()[0] != y.lead_coloring()[0]:
                assert gram[i][j].is_zero()


def test_genus3_singleton_norms_match_closed_form():
    # all-singleton families expand to a single graph term: norms on the nose
    params = TQFTParams.for_prime(5)
    arrs = arrangement_set_genus3()
    gram = gram_bracket(params, arrs, "z")
    for i, arr in enumerate(arrs):
        if all(len(s) == 1 for s in arr.curves):
            a, c = arr.lead_coloring()
            assert c == (0, 0, 0)
            assert gram[i][i] == graph_norm_genus3(params, a, c)


@pytest.mark.parametrize("color", ("v", "omega"))
def test_genus3_report(color):
    rep = genus3_report(color)
    assert rep["rank"] == 15 and rep["curve_total"] == 22
    assert rep["rank_term"] == 45 and rep["base_change_valuation"] == -44
    assert rep["associate_exponent"] == 1
    assert rep["unit_cofactor"] and not rep["unimodular"]
    assert rep["plus_subring"] is True


@pytest.mark.parametrize("color", ("v", "omega"))
def test_genus3_pivot_product_matches_bareiss(color):
    rep = genus3_report(color)
    # an independent route: the state sum of the colored arrangements
    params = TQFTParams.for_prime(5)
    tw = params.ctx.i_power(1)
    gram = gram_bracket(params, arrangement_set_genus3(), color)
    twisted = [[v * tw for v in row] for row in gram]
    assert rep["det"] == elimination_det(params, twisted)


@pytest.mark.parametrize("color", ("v", "omega"))
def test_genus3_witness(color):
    rep = genus3_report(color)
    w = non_unimodular_witness(rep)
    assert w["ok"] and w["gram_valuation"] == 1 and w["parity_anchor"] == 45


def test_genus3_report_rejects_other_colors():
    with pytest.raises(ValueError):
        genus3_p5_report(color="z")


def test_gram_bracket_rejects_mixed_genus():
    arrs = [arrangement_set_genus2(TQFTParams.for_prime(5))[0], arrangement_set_genus3()[0]]
    with pytest.raises(ValueError, match="genus"):
        gram_bracket(TQFTParams.for_prime(5), arrs)


def test_genus3_reports_share_the_necklace_table(monkeypatch):
    # both recolorings pair the same plain arrangements, so the second report
    # finds every state sum of the first among the ring memo's necklaces
    calls = []
    real = torus.kauffman_bracket

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(torus, "kauffman_bracket", counting)
    ctx = TQFTParams.for_prime(5).ctx
    for key in memo_keys(ctx, "necklace"):
        del ctx.memo[key]
    genus3_p5_report("v")
    assert len(calls) == 792 == len(memo_keys(ctx, "necklace"))
    genus3_p5_report("omega")
    assert len(calls) == 792
    # each necklace, specialized from the Laurent bracket, equals the state
    # sum run over Z[zeta_n] directly
    coeffs = RootCoeffs(ctx)
    for key in memo_keys(ctx, "necklace"):
        assert ctx.memo[key] == kauffman_bracket(necklace_pd(*key[1]), coeffs), key


@pytest.mark.parametrize("p", (7, 13))
def test_necklaces_match_the_root_of_unity_state_sum_seeded(p):
    params = TQFTParams.for_prime(p)
    coeffs = RootCoeffs(params.ctx)
    rng = random.Random(8000 + p)
    for _ in range(6):
        genus = rng.randrange(1, 4)
        widths = [rng.randrange(0, 3) for _ in range(genus)]
        cores = [sorted(rng.sample(range(genus), rng.randrange(1, genus + 1)))
                 for _ in range(rng.randrange(0, 3))]
        expected = kauffman_bracket(necklace_pd(widths, cores), coeffs)
        assert params.necklace(widths, cores) == expected, (widths, cores)


@pytest.mark.parametrize("color", ("v", "omega"))
def test_genus3_rows_are_integral_and_unit_lower_triangular(color):
    params = TQFTParams.for_prime(5)
    ctx = params.ctx
    rows, _ = planar._subset_transform(params, arrangement_set_genus3(), color)
    for i, row in enumerate(rows):
        assert all(x.den == 1 for x in row)
        assert row[i] == ctx.one
        assert all(x.is_zero() for x in row[i + 1:])


# the genus-3 determinant at p = 5, for v and for omega alike: its
# coefficients over zeta_20^0 .. zeta_20^7
GENUS3_DET = (9227465, 0, -18454930, 0, 14930352, 0, -3524578, 0)


@pytest.mark.parametrize("color", ("v", "omega"))
def test_genus3_report_factors_integral_rows_on_ctx_dot(monkeypatch, color):
    # like every other Gram certificate, genus 3 hands LDL an integral Gram
    # and the integral ctx.dot; the row scalings come back in the determinant
    factored = []
    inner = torus.ldl_decomposition

    def captured(gram, *args):
        factored.append((gram, args[-1]))
        return inner(gram, *args)

    monkeypatch.setattr(torus, "ldl_decomposition", captured)
    rep = genus3_p5_report(color)
    ctx = TQFTParams.for_prime(5).ctx
    [(gram, dot)] = factored
    assert dot == ctx.dot
    assert all(v.den == 1 for row in gram for v in row)
    assert rep["det"] == CycNum(ctx, GENUS3_DET)


def test_witness_refutes_even_valuation_on_odd_instance():
    rep = genus3_report("v")
    fake = {**rep, "rank_term": 45, "associate_exponent": 2}
    with pytest.raises(RefutationError):
        non_unimodular_witness(fake)


# ---------------------------------------------------------------------------
# rank checks


def test_rank_polynomials_match_enumeration():
    for k in (1, 2, 3):
        assert rank_polynomial_genus3(k) == count_spine_colorings(3, 4 * k + 1)
    assert rank_polynomial_genus3(1) == 15
    assert rank_polynomial_genus3(3) == 3549
    assert rank_polynomial_genus5(1) == 175 == count_spine_colorings(5, 5)


def test_rank_polynomial_rejects_bad_k():
    with pytest.raises(ValueError):
        rank_polynomial_genus3(0)


def test_rank_parity_oddness():
    # p = 5 mod 8 gives odd genus-3 rank: the parity behind the witness
    assert rank_polynomial_genus3(1) % 2 == 1
    assert count_spine_colorings(3, 13) % 2 == 1


def verlinde_sine(genus: int, p: int) -> float:
    """The trigonometric Verlinde formula, a float oracle outside the library."""
    total = sum(math.sin(2 * math.pi * j / p) ** (2 - 2 * genus)
                for j in range(1, (p + 1) // 2))
    return (p / 4) ** (genus - 1) * total


@pytest.mark.parametrize("genus,p", ((2, 5), (2, 13), (3, 5), (3, 13), (5, 5)))
def test_verlinde_float_cross_check(genus, p):
    # the exact trace and the count agree with the sine formula in floats
    count = count_spine_colorings(genus, p)
    assert verlinde_rank(CycContext(p), genus) == count
    assert abs(verlinde_sine(genus, p) - count) < 1e-6


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_verlinde_trace_cross_check(p):
    # the trace against the count, and at p = 4k+1 against the closed forms
    traces = [verlinde_rank(CycContext(p), g) for g in range(1, 13)]
    assert traces == [count_spine_colorings(g, p) for g in range(1, 13)]
    if p % 4 == 1:
        assert traces[2] == rank_polynomial_genus3(p // 4)
        assert traces[4] == rank_polynomial_genus5(p // 4)


# ---------------------------------------------------------------------------
# transparency of the top color


@pytest.mark.parametrize("p", PRIMES)
def test_top_color_has_reflected_dimensions(p):
    # <p-2-r> = <r>: the fold behind the projection closed form
    ctx = TQFTParams.for_prime(p).ctx
    for r in range(p - 1):
        assert quantum_dim_at(ctx, p - 2 - r) == quantum_dim_at(ctx, r)
