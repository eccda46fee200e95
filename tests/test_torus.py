import random

import pytest

from skeinlat import torus
from skeinlat.matrices import (
    diagonal,
    identity,
    map_entries,
    mat_eq,
    mat_inverse,
    mat_mul,
    transpose,
)
from skeinlat.recoupling import qint
from skeinlat.torus import (
    DegeneracyError,
    RefutationError,
    TQFTParams,
    associate_certificate,
    basis_e,
    basis_omega,
    basis_v,
    det_w_certificate,
    e_gram_closed,
    genus1_determinant,
    gram,
    hermitian_pairing,
    hopf_matrix,
    hopf_pairing_closed,
    modular_relation_scalar,
    omega,
    omega_product,
    reduce_e,
    s_matrix,
    s_matrix_v,
    twist_matrix,
    twist_matrix_v_at,
    v_gram_closed,
    v_in_omega_span,
    vandermonde_certificate,
    z_action,
)

from oracles import (
    elimination_det,
    form_preserved,
    hopf_bracket,
    mat_vec,
    pairing_bracket,
    reduce_skein,
)

PRIMES = (3, 5, 7, 11, 13)


def rand_vector(params, rng) -> tuple:
    return tuple(params.ctx.from_int(rng.randrange(-4, 5)) for _ in range(params.d))


def add(x, y) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def scale(x, c) -> tuple:
    return tuple(a * c for a in x)


def v_columns(params) -> list:
    """V: column j holds the e-coordinates of v^j."""
    return transpose([list(v) for v in basis_v(params)])


# ---------------------------------------------------------------------------
# parameters


@pytest.mark.parametrize("p", PRIMES)
def test_params_d_and_ring(p):
    params = TQFTParams.for_prime(p)
    assert params.d == (p - 1) // 2
    assert params.ctx.p == p


@pytest.mark.parametrize("p", PRIMES)
def test_d_valuation(p):
    # D is associate to (1-q)^(d-1)
    params = TQFTParams.for_prime(p)
    cert = associate_certificate(params, params.D, "D", None, params.d - 1)
    assert cert["ok"] and cert["associate_exponent"] == params.d - 1


@pytest.mark.parametrize("p", PRIMES)
def test_eta_inverts_d(p):
    params = TQFTParams.for_prime(p)
    assert params.D * params.eta == 1
    cert = associate_certificate(params, params.eta, "eta", None, -(params.d - 1))
    assert cert["ok"] and cert["associate_exponent"] == -(params.d - 1)


def test_dims_squared_sum_to_d_squared():
    for p in PRIMES:
        params = TQFTParams.for_prime(p)
        total = params.ctx.zero
        for dim in params.dims:
            total = total + dim * dim
        assert total == params.D * params.D


def test_kappa_square():
    for p in PRIMES:
        params = TQFTParams.for_prime(p)
        assert params.kappa * params.kappa == params.ctx.A_pow(-6 - p * (p + 1) // 2)


def test_p3_d_is_one():
    assert TQFTParams.for_prime(3).D == 1


def test_for_prime_is_canonical():
    params = TQFTParams.for_prime(7)
    assert TQFTParams.for_prime(7) is params
    assert TQFTParams.for_prime(5).ctx is not params.ctx
    assert TQFTParams(7) is not params


def test_params_refute_wrong_constants(monkeypatch):
    # the identities are checked by raising, not by assert, so they hold
    # under python -O as well
    monkeypatch.setattr(torus, "quantum_dim_at", lambda ctx, i: ctx.one)
    with pytest.raises(RefutationError, match="squared dimensions"):
        TQFTParams(7)


def test_vectors_of_two_primes_do_not_mix():
    # d = (p-1)/2 differs at every prime, so the coordinate count refuses a
    # vector of the other prime whichever parameters are passed
    p5, p7 = TQFTParams.for_prime(5), TQFTParams.for_prime(7)
    x, y = basis_e(p5)[0], basis_e(p7)[0]
    ops = (hermitian_pairing, pairing_bracket, hopf_bracket,
           lambda params, x, y: gram(params, [x, y]),
           lambda params, x, y: z_action(params, y if params is p5 else x))
    for params in (p5, p7):
        for op in ops:
            with pytest.raises(ValueError, match=f"need {params.d} coordinates at p = {params.p}"):
                op(params, x, y)


# ---------------------------------------------------------------------------
# vectors and reduction


def test_reduce_folds_e_d():
    params = TQFTParams.for_prime(7)
    d = params.d
    assert reduce_e(params, [0] * d + [1]) == basis_e(params)[d - 1]
    # e_{d+i} = e_{d-1-i}
    assert reduce_e(params, [0] * (d + 1) + [1]) == basis_e(params)[d - 2]
    # e_{p-1} = 0
    raw = [0] * (2 * d) + [1]
    assert reduce_e(params, raw) == (params.ctx.zero,) * d
    with pytest.raises(ValueError):
        reduce_e(params, [0] * (2 * d + 1) + [1])


def test_z_action_matches_recursion():
    params = TQFTParams.for_prime(11)
    es = basis_e(params)
    d = params.d
    for i in range(d - 1):
        expect = es[i + 1] if i == 0 else add(es[i - 1], es[i + 1])
        assert z_action(params, es[i]) == expect
    assert z_action(params, es[d - 1]) == add(es[d - 2], es[d - 1])


def test_z_action_at_p3_is_identity():
    # d = 1: z e_0 = e_1 folds straight back to e_0
    params = TQFTParams.for_prime(3)
    e0 = basis_e(params)[0]
    assert z_action(params, e0) == e0


def test_reduce_skein_matches_iterated_z():
    params = TQFTParams.for_prime(7)
    e0 = basis_e(params)[0]
    cur = e0
    for k in range(1, 6):
        cur = z_action(params, cur)
        assert reduce_skein(params, {k: 1}) == cur


def test_twist_eigenvector():
    # basis_omega applies t^j as mu_i^j on coordinate i: it must agree with
    # the twist matrix acting on each e_i and on omega
    params = TQFTParams.for_prime(7)
    ctx = params.ctx
    t = twist_matrix(params)
    for i, e in enumerate(basis_e(params)):
        assert tuple(mat_vec(t, list(e), ctx.zero)) == scale(e, params.mu(i))
    orbit = basis_omega(params)
    assert orbit[0] == omega(params)
    for j in range(1, params.d):
        assert tuple(mat_vec(t, list(orbit[j - 1]), ctx.zero)) == orbit[j]


def test_vector_linearity():
    params = TQFTParams.for_prime(5)
    rng = random.Random(11)
    x, y = rand_vector(params, rng), rand_vector(params, rng)
    assert z_action(params, add(x, y)) == add(z_action(params, x), z_action(params, y))



# ---------------------------------------------------------------------------
# omega


def test_omega_p5_closed_form():
    # omega = D^-1 (e_0 - [2] e_1)
    params = TQFTParams.for_prime(5)
    om = omega(params)
    two = params.ctx.from_q_laurent(qint(2))
    assert om[0] == params.eta
    assert om[1] == -params.eta * two


@pytest.mark.parametrize("p", PRIMES)
def test_omega_product_route_agrees(p):
    params = TQFTParams.for_prime(p)
    assert omega_product(params) == omega(params)


@pytest.mark.parametrize("p", PRIMES)
def test_omega_hopf_projection(p):
    # the omega-colored meridian keeps only e_0, scaled by D
    params = TQFTParams.for_prime(p)
    om = omega(params)
    h = hopf_matrix(params)
    for j in range(params.d):
        acc = params.ctx.zero
        for i in range(params.d):
            acc = acc + om[i] * h[i][j]
        assert acc == (params.D if j == 0 else params.ctx.zero)


# ---------------------------------------------------------------------------
# Hermitian pairing: closed form against the bracket engine


@pytest.mark.parametrize("p", (5, 7))
def test_pairing_engine_on_e_basis(p):
    params = TQFTParams.for_prime(p)
    es = basis_e(params)
    for i in range(params.d):
        for j in range(params.d):
            expect = params.D if i == j else params.ctx.zero
            assert hermitian_pairing(params, es[i], es[j]) == expect
            assert pairing_bracket(params, es[i], es[j]) == expect


@pytest.mark.parametrize("p", (5, 7))
def test_pairing_engine_on_v_basis(p):
    params = TQFTParams.for_prime(p)
    vs = basis_v(params)
    closed = v_gram_closed(params)
    for i in range(params.d):
        for j in range(params.d):
            assert pairing_bracket(params, vs[i], vs[j]) == closed[i][j]


def test_pairing_engine_random_vectors():
    params = TQFTParams.for_prime(5)
    rng = random.Random(23)
    for _ in range(4):
        x, y = rand_vector(params, rng), rand_vector(params, rng)
        assert pairing_bracket(params, x, y) == hermitian_pairing(params, x, y)


def test_pairing_sesquilinear():
    params = TQFTParams.for_prime(7)
    rng = random.Random(5)
    x, y = rand_vector(params, rng), rand_vector(params, rng)
    c = params.ctx.A_pow(3) + 2
    xy = hermitian_pairing(params, x, y)
    assert hermitian_pairing(params, scale(x, c), y) == c * xy
    assert hermitian_pairing(params, x, scale(y, c)) == c.conj() * xy


def test_pairing_hermitian_symmetry():
    for p in (5, 7, 11):
        params = TQFTParams.for_prime(p)
        rng = random.Random(p)
        x, y = rand_vector(params, rng), rand_vector(params, rng)
        assert hermitian_pairing(params, x, y) == hermitian_pairing(params, y, x).conj()


# ---------------------------------------------------------------------------
# Hopf pairing


@pytest.mark.parametrize("p", (5, 7))
def test_hopf_oracle_matches_closed_form(p):
    params = TQFTParams.for_prime(p)
    es = basis_e(params)
    for i in range(params.d):
        for j in range(params.d):
            closed = hopf_pairing_closed(params, i, j)
            assert hopf_bracket(params, es[i], es[j]) == closed


def test_hopf_row_zero_is_quantum_dimension():
    for p in (5, 7, 11):
        params = TQFTParams.for_prime(p)
        h = hopf_matrix(params)
        assert h[0] == params.dims


def test_hopf_is_symmetric_and_real():
    params = TQFTParams.for_prime(11)
    h = hopf_matrix(params)
    assert mat_eq(h, transpose(h))
    assert all(x.conj() == x for row in h for x in row)


# ---------------------------------------------------------------------------
# Gram matrices and certificates


def genus1_cert(params, basis, gram_mat, expect):
    # the claim-path determinant, which must equal the elimination oracle's
    det = genus1_determinant(params, basis)
    assert det == elimination_det(params, gram_mat)
    return associate_certificate(params, det, "gram determinant", basis, expect)


@pytest.mark.parametrize("p", PRIMES)
def test_e_gram(p):
    params = TQFTParams.for_prime(p)
    ge = gram(params, basis_e(params))
    assert mat_eq(ge, e_gram_closed(params))
    d = params.d
    cert = genus1_cert(params, "e", ge, d * (d - 1))
    assert cert["ok"]
    assert cert["associate_exponent"] == d * (d - 1)
    assert cert["unit"] == (d == 1)


@pytest.mark.parametrize("p", PRIMES)
def test_omega_gram_unimodular(p):
    params = TQFTParams.for_prime(p)
    cert = genus1_cert(params, "omega", gram(params, basis_omega(params)), 0)
    assert cert["ok"] and cert["unit"]
    assert cert["associate_exponent"] == 0


@pytest.mark.parametrize("p", PRIMES)
def test_v_gram_unimodular_and_integral(p):
    params = TQFTParams.for_prime(p)
    gv = gram(params, basis_v(params))
    assert mat_eq(gv, v_gram_closed(params))
    # integral entries even where i+j >= d, where p | c_{i+j}
    assert all(x.is_integral() for row in gv for x in row)
    cert = genus1_cert(params, "v", gv, 0)
    assert cert["ok"] and cert["unit"]


def test_genus1_determinants_run_no_elimination(monkeypatch):
    def refused(*args):
        raise AssertionError("elimination on the genus-1 claim path")

    params = TQFTParams.for_prime(13)
    monkeypatch.setattr(torus, "determinant", refused)
    for basis in ("e", "omega", "v"):
        genus1_determinant(params, basis)
    with pytest.raises(ValueError, match="unknown basis"):
        genus1_determinant(params, "w")


def test_v_gram_p5_determinant():
    # det = D^2 A / (1+A)^2, unit; the (0,0) entry is D itself
    params = TQFTParams.for_prime(5)
    ctx = params.ctx
    gv = v_gram_closed(params)
    assert gv[0][0] == params.D
    det = gv[0][0] * gv[1][1] - gv[0][1] * gv[1][0]
    unit1a = ctx.one + ctx.A
    assert det * unit1a * unit1a == params.D * params.D * ctx.A
    assert det.is_unit()


@pytest.mark.parametrize("p", PRIMES)
def test_det_w_certificate(p):
    params = TQFTParams.for_prime(p)
    d = params.d
    cert = det_w_certificate(params)
    assert cert["associate_exponent"] == -(d * (d - 1) // 2)


@pytest.mark.parametrize("p", PRIMES)
def test_vandermonde_certificate(p):
    params = TQFTParams.for_prime(p)
    d = params.d
    cert = vandermonde_certificate(params)
    assert cert["associate_exponent"] == d * (d - 1) // 2


@pytest.mark.parametrize("p", PRIMES)
def test_v_in_e_determinant_valuation(p):
    # the v-basis coordinate matrix over e has det (1+A)^(-d(d-1)/2), a pure
    # unit times the same power of (1-q)
    params = TQFTParams.for_prime(p)
    ctx = params.ctx
    det = ctx.one
    vm = v_columns(params)
    for j in range(params.d):
        det = det * vm[j][j]
    expect = -(params.d * (params.d - 1) // 2)
    cert = associate_certificate(params, det, "v over e", None, expect)
    assert cert["ok"]
    assert cert["associate_exponent"] == expect


def test_gram_of_dependent_vectors_degenerates():
    params = TQFTParams.for_prime(5)
    e0 = basis_e(params)[0]
    with pytest.raises(DegeneracyError):
        associate_certificate(params, elimination_det(params, gram(params, [e0, scale(e0, 2)])),
                              "bogus", None, 0)


def test_associate_certificate_rejects_stray_prime():
    params = TQFTParams.for_prime(5)
    with pytest.raises(RefutationError, match=r"exponent 0, unit cofactor False"):
        associate_certificate(params, params.ctx.from_int(2), "two", None, 0)


@pytest.mark.parametrize(
    "value,expect,error,match",
    [
        # D is associate to (1-q)^2 at p = 7
        (lambda ctx, D: D, 3, RefutationError, r"\(1-q\)\^\(3\), exponent 2, unit cofactor True"),
        (lambda ctx, D: 2 * ctx.one_minus_q**3, 3, RefutationError, "exponent 3, unit cofactor False"),
        (lambda ctx, D: ctx.one / 2, 0, RefutationError, "exponent 0, unit cofactor False"),
        (lambda ctx, D: ctx.zero, 0, DegeneracyError, "value is zero"),
    ],
    ids=["wrong-expect", "stray-prime", "stray-denominator", "zero"],
)
def test_associate_certificate_refutes(value, expect, error, match):
    params = TQFTParams.for_prime(7)
    with pytest.raises(error, match=match):
        associate_certificate(params, value(params.ctx, params.D), "claim", None, expect)


# ---------------------------------------------------------------------------
# lattice comparisons


@pytest.mark.parametrize("p", PRIMES)
def test_v_in_omega_span_integral_both_ways(p):
    params = TQFTParams.for_prime(p)
    c = v_in_omega_span(params)
    ctx = params.ctx
    # reconstruct v^j from the coordinates
    w = [list(v) for v in basis_omega(params)]
    back = mat_mul(c, w, ctx.zero)
    assert mat_eq(back, [list(v) for v in basis_v(params)])


def test_omega_in_v_coordinates_integral():
    for p in (5, 7, 11, 13):
        params = TQFTParams.for_prime(p)
        ctx = params.ctx
        vinv = mat_inverse(v_columns(params), ctx.one, ctx.zero, ctx.inv)
        coords = mat_vec(vinv, list(omega(params)), ctx.zero)
        assert all(x.is_integral() for x in coords)


# ---------------------------------------------------------------------------
# mapping class action


@pytest.mark.parametrize("p", PRIMES)
def test_s_matrix_is_involution(p):
    params = TQFTParams.for_prime(p)
    ctx = params.ctx
    s = s_matrix(params)
    assert mat_eq(mat_mul(s, s, ctx.zero), identity(params.d, ctx.one, ctx.zero))
    assert mat_eq(s, transpose(s))


def test_s_matrix_anchor_entries():
    params = TQFTParams.for_prime(5)
    s = s_matrix(params)
    assert s[0][0] == params.eta
    # column 0 of eta H is eta <e_j>
    for j, dim in enumerate(params.dims):
        assert s[j][0] == params.eta * dim


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_s_matrix_v_basis_integral(p):
    params = TQFTParams.for_prime(p)
    sv = s_matrix_v(params)
    assert all(x.is_integral() for row in sv for x in row)
    # conjugation, not the form push-forward: eta H(v^0, v^0) alone is eta,
    # which is not integral for d > 1
    assert not (params.eta * hopf_pairing_closed(params, 0, 0)).is_integral()


@pytest.mark.parametrize("p", (5, 7, 11))
def test_twist_preserves_form(p):
    params = TQFTParams.for_prime(p)
    ctx = params.ctx
    t_e = diagonal([params.mu(i) for i in range(params.d)], ctx.zero)
    assert form_preserved(gram(params, basis_e(params)), t_e, ctx.zero)
    t_v = twist_matrix_v_at(params)
    assert form_preserved(gram(params, basis_v(params)), t_v, ctx.zero)


@pytest.mark.parametrize("p", (5, 7, 11))
def test_s_preserves_form(p):
    params = TQFTParams.for_prime(p)
    ctx = params.ctx
    assert form_preserved(gram(params, basis_e(params)), s_matrix(params), ctx.zero)
    assert form_preserved(gram(params, basis_v(params)), s_matrix_v(params), ctx.zero)


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_twist_matrix_v_is_conjugated_eigenvalue_matrix(p):
    params = TQFTParams.for_prime(p)
    ctx = params.ctx
    vm = v_columns(params)
    vinv = mat_inverse(vm, ctx.one, ctx.zero, ctx.inv)
    diag = diagonal([params.mu(i) for i in range(params.d)], ctx.zero)
    conj = mat_mul(vinv, mat_mul(diag, vm, ctx.zero), ctx.zero)
    assert mat_eq(conj, twist_matrix_v_at(params))


@pytest.mark.parametrize("p", PRIMES)
def test_modular_relation_scalar(p):
    params = TQFTParams.for_prime(p)
    cert = modular_relation_scalar(params)
    assert cert["ok"]
    assert cert["scalar"] == params.kappa
    assert cert["scalar"].is_unit()


@pytest.mark.parametrize("p", (5, 7))
def test_modular_relation_scalar_is_kappa(p):
    # (ST)^3 stays a scalar times S^2 whatever kappa reads, so only the
    # comparison with kappa fails a kappa of the wrong sign; -kappa still
    # squares to the value TQFTParams checks
    params = TQFTParams(p)
    params.kappa = -params.kappa
    cert = modular_relation_scalar(params)
    assert cert["ok"] is False
    assert cert["scalar"] == -params.kappa


@pytest.mark.parametrize(
    "certificate, disagrees",
    [(det_w_certificate, "det W disagrees with the omega-Vandermonde product"),
     (vandermonde_certificate, "vandermonde determinant disagrees with the product")],
    ids=["det-W", "vandermonde"],
)
def test_elimination_certificates_refute_a_wrong_product(monkeypatch, certificate, disagrees):
    # both eliminations compare with a product built on vandermonde_product,
    # so moving it by the unit -1 refutes each with its own message
    real = torus.vandermonde_product
    monkeypatch.setattr(torus, "vandermonde_product", lambda params: -real(params))
    with pytest.raises(RefutationError, match=f"^{disagrees}$"):
        certificate(TQFTParams.for_prime(7))
