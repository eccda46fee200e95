"""Skein module of the solid torus as the polynomial ring R[z].

The twist eigenbasis e_0 = 1, e_1 = z, e_i = z e_{i-1} - e_{i-2} carries
eigenvalues mu_i = (-1)^i A^(i^2+2i).  The module tracks three bases of the
same space: powers of z, the e_i, and powers of v = (z+2)/(1+A).  The twist
map preserves the integral span of the v-powers; the certifying polynomials

    S_{m,i,n}(A) = (1/n) sum_{k=i}^n k^m C(2n, n-k) C(k+i-1, k-i) A^(k^2)

are divisible by (1+A)^(n-i), which is what makes the twist matrix in the
v-basis integral: each entry is an exact division in Z[A, A^-1], and a
remainder refutes it.  The twist-square variant replaces A by q, inserts a
sign (-1)^k in the sum, and divides by powers of (1-q) instead; under the
formal substitution q -> -A it coincides with the plain story, which gives a
free cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .laurent import ONE_PLUS_A, IntLaurent, RefutationError
from .matrices import Matrix

ONE_MINUS_Q = IntLaurent({0: 1, 1: -1})


@lru_cache(maxsize=None)
def e_poly(i: int) -> IntLaurent:
    """e_i written in powers of z (IntLaurent reused as a z-polynomial)."""
    if i == 0:
        return IntLaurent(1)
    if i == 1:
        return IntLaurent({1: 1})
    return e_poly(i - 1).shift(1) - e_poly(i - 2)


@lru_cache(maxsize=None)
def z_power_in_e(k: int) -> tuple[int, ...]:
    """Coefficients of e_0..e_k in z^k."""
    if k == 0:
        return (1,)
    prev = z_power_in_e(k - 1)
    c = lambda j: prev[j] if 0 <= j < k else 0
    return tuple(c(j - 1) + c(j + 1) for j in range(k + 1))


def e_to_z_poly(coeffs: list[object]) -> dict[int, object]:
    out: dict[int, object] = {}
    for j, c in enumerate(coeffs):
        for deg, m in e_poly(j).c.items():
            if deg in out:
                out[deg] = out[deg] + m * c
            else:
                out[deg] = m * c
    return out


def e_product_in_e(i: int, j: int) -> dict[int, int]:
    """e_i e_j expanded in the e-basis: the Clebsch-Gordan rule, e_k once
    for each k = |i-j|, |i-j|+2, .., i+j."""
    return {k: 1 for k in range(abs(i - j), i + j + 1, 2)}


def _integral(c: Fraction) -> int:
    """c as an int; the closed forms below promise it is one."""
    if c.denominator != 1:
        raise RefutationError(f"closed-form coefficient {c} is not an integer")
    return int(c)


def z_plus2_pow_in_e(n: int) -> list[int]:
    """(z+2)^(n-1) = sum_{k=1}^n C(2n, n-k) (k/n) e_{k-1}; the list is the
    e_0..e_{n-1} coefficient vector and every entry is an integer."""
    out = []
    for k in range(1, n + 1):
        out.append(_integral(Fraction(math.comb(2 * n, n - k) * k, n)))
    return out


def _s_sum(m: int, i: int, n: int, sign: int) -> IntLaurent:
    """S_{m,i,n} with (-1)^(k sign) in the sum, assembled term by term with
    exact integer coefficients."""
    if not (1 <= i <= n and m >= 1):
        raise ValueError("need 1 <= i <= n and m >= 1")
    out = IntLaurent()
    for k in range(i, n + 1):
        c = Fraction(
            (-1) ** (k * sign) * k ** m * math.comb(2 * n, n - k) * math.comb(k + i - 1, k - i),
            n,
        )
        out = out + IntLaurent.monomial(_integral(c), k * k)
    return out


def s_poly(m: int, i: int, n: int) -> IntLaurent:
    """S_{m,i,n}(A)."""
    return _s_sum(m, i, n, 0)


def s_tilde_poly(m: int, i: int, n: int) -> IntLaurent:
    """Twist-square variant: variable q, extra sign (-1)^k in the sum."""
    return _s_sum(m, i, n, 1)


def twist_eigenvalue(i: int) -> IntLaurent:
    """mu_i = (-1)^i A^(i^2 + 2i)."""
    return IntLaurent.monomial((-1) ** i, i * i + 2 * i)


def _twist_in_powers(size: int, poly, divisor: IntLaurent, what: str, parity: int) -> Matrix:
    """Entry (r, c), r <= c, is poly(1, r+1, c+1) / divisor^(c-r) in
    Z[A, A^-1], shifted down one and negated when r + parity is odd; a
    remainder refutes the entry, named by what.format(r+1, c+1, c-r)."""
    out = [[IntLaurent() for _ in range(size)] for _ in range(size)]
    for c in range(size):
        for r in range(c + 1):
            f = poly(1, r + 1, c + 1)
            try:
                entry = f.exact_div(divisor ** (c - r)).shift(-1)
            except ValueError:
                raise RefutationError(
                    f"dividing {what.format(r + 1, c + 1, c - r)} leaves a remainder") from None
            out[r][c] = -entry if (r + parity) % 2 else entry
    return out


def twist_matrix_v(size: int) -> Matrix:
    """Matrix of the twist in the basis 1, v, .., v^(size-1); the divisibility
    of S_{1,i,n} by (1+A)^(n-i) makes every entry land in Z[A, A^-1]."""
    return _twist_in_powers(size, s_poly, ONE_PLUS_A, "S_(1,{},{}) by (1+A)^{}", 0)


def twist_sq_matrix_vtilde(size: int) -> Matrix:
    """Matrix of the squared twist in the basis of powers of (z+2)/(1-q),
    written in the variable q.  Built from the variant polynomials, each
    divided by (1-q)^(n-i) in q."""
    return _twist_in_powers(size, s_tilde_poly, ONE_MINUS_Q, "S~_(1,{},{}) by (1-q)^{}", 1)
