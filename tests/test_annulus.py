import math

import pytest

from skeinlat.annulus import (
    ONE_MINUS_Q,
    e_poly,
    e_product_in_e,
    e_to_z_poly,
    s_poly,
    s_tilde_poly,
    twist_eigenvalue,
    twist_matrix_v,
    twist_sq_matrix_vtilde,
    z_plus2_pow_in_e,
    z_power_in_e,
)
from skeinlat.laurent import ONE_PLUS_A, IntLaurent
from skeinlat.matrices import diagonal, mat_eq, mat_mul

from oracles import (
    derivative,
    e_in_z_plus2,
    evaluate,
    twist_sq_eigenvalue,
    v_in_e_matrix,
    z_poly_to_e,
)


def test_e_polys():
    assert e_poly(0) == 1
    assert e_poly(2) == IntLaurent({2: 1, 0: -1})
    assert e_poly(3) == IntLaurent({3: 1, 1: -2})
    assert e_poly(4) == IntLaurent({4: 1, 2: -3, 0: 1})


def test_z_power_in_e():
    assert z_power_in_e(0) == (1,)
    assert z_power_in_e(3) == (0, 2, 0, 1)
    # round trip through both conversions
    for k in range(9):
        vec = list(z_power_in_e(k))
        back = e_to_z_poly(vec)
        assert {d: c for d, c in back.items() if c} == {k: 1}


def test_e_product_matches_the_polynomial_product():
    # the Clebsch-Gordan rule against e_i e_j multiplied out in powers of z
    for i in range(25):
        for j in range(25):
            vec = z_poly_to_e(dict((e_poly(i) * e_poly(j)).c), 0)
            assert e_product_in_e(i, j) == {k: v for k, v in enumerate(vec) if v}


def test_change_of_basis_example():
    assert z_plus2_pow_in_e(3) == [5, 4, 1]


@pytest.mark.parametrize("n", range(1, 13))
def test_change_of_basis_dual_route(n):
    # direct binomial expansion of (z+2)^(n-1) against the closed formula
    binom = {k: math.comb(n - 1, k) * 2 ** (n - 1 - k) for k in range(n)}
    assert z_poly_to_e(binom, 0) == z_plus2_pow_in_e(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_change_of_basis_inverse(n):
    # e_{n-1} -> powers of (z+2) -> back to the e-basis
    coeffs = e_in_z_plus2(n)
    acc = [0] * n
    for i, c in enumerate(coeffs, start=1):
        col = z_plus2_pow_in_e(i)
        for k, m in enumerate(col):
            acc[k] += c * m
    assert acc == [0] * (n - 1) + [1]


def test_s_poly_frozen():
    assert s_poly(1, 1, 2) == IntLaurent({1: 2, 4: 2})
    assert s_poly(1, 2, 2) == IntLaurent({4: 1})
    with pytest.raises(ValueError):
        s_poly(0, 1, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_s_poly_at_minus_one(n):
    for i in range(1, n + 1):
        val = evaluate(s_poly(1, i, n), -1)
        assert val == ((-1) ** n if i == n else 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_s_poly_divisibility(n):
    for i in range(1, n + 1):
        k, _ = s_poly(1, i, n).val_one_plus_var()
        assert k >= n - i


@pytest.mark.parametrize("m", [3, 5])
def test_s_poly_recursion(m):
    for n in range(1, 8):
        for i in range(1, n):
            lhs = s_poly(m, i, n)
            rhs = i * i * s_poly(m - 2, i, n) + 2 * i * (2 * i + 1) * s_poly(m - 2, i + 1, n)
            assert lhs == rhs


def test_s_poly_derivative_identity():
    for n in range(1, 7):
        for i in range(1, n + 1):
            for m in (1, 3):
                lhs = derivative(s_poly(m, i, n)).shift(1)
                assert lhs == s_poly(m + 2, i, n)


def test_s_tilde_matches_substitution():
    for n in range(1, 7):
        for i in range(1, n + 1):
            s = s_poly(1, i, n)
            negated = IntLaurent({e: -v if e % 2 else v for e, v in s.c.items()})
            assert s_tilde_poly(1, i, n) == negated


def test_twist_matrix_frozen_small():
    t = twist_matrix_v(2)
    assert t[0][0] == 1
    assert t[0][1] == IntLaurent({0: 2, 1: -2, 2: 2})
    assert t[1][0] == 0
    assert t[1][1] == IntLaurent({3: -1})


def diagonalized(t, unit, eigenvalues) -> bool:
    """V' T~ = diag(eigenvalues) V' over Z[A, A^-1], where V' holds the
    e-coordinates of the (z+2)^j and T~[r][c] = t[r][c] unit^(c-r): the
    change of basis V = V' diag(unit^-j) diagonalizes t, cleared of the
    denominators."""
    size = len(t)
    t_cleared = [[x * unit ** max(c - r, 0) for c, x in enumerate(row)] for r, row in enumerate(t)]
    v = v_in_e_matrix(size)
    zero = IntLaurent()
    return mat_eq(mat_mul(v, t_cleared, zero), mat_mul(diagonal(eigenvalues, zero), v, zero))


@pytest.mark.parametrize("size", [6])
def test_twist_diagonalization(size):
    mus = [twist_eigenvalue(i) for i in range(size)]
    assert diagonalized(twist_matrix_v(size), ONE_PLUS_A, mus)


@pytest.mark.parametrize("size", [5, 6])
def test_twist_sq_diagonalization(size):
    # the variant in the variable q, with (1-q) in place of (1+A); the
    # builder's exact divisions keep every entry in Z[q, q^-1], and the
    # diagonalization checks the quotients themselves
    nus = [twist_sq_eigenvalue(i) for i in range(size)]
    assert diagonalized(twist_sq_matrix_vtilde(size), ONE_MINUS_Q, nus)
