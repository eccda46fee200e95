import random
from fractions import Fraction

import pytest

from skeinlat.laurent import A, ONE, ONE_PLUS_A, ZERO, IntLaurent

from oracles import derivative, evaluate, laurent_from_json


def test_construct_and_eq():
    assert IntLaurent({2: 0, 3: 5}) == IntLaurent({3: 5})
    assert IntLaurent(0).is_zero()
    assert IntLaurent(7) == 7
    assert ZERO + ONE == 1


def test_mul_frozen_identity():
    # (1 + A)(1 - A + A^2) = 1 + A^3
    assert ONE_PLUS_A * IntLaurent({0: 1, 1: -1, 2: 2 - 1}) == IntLaurent({0: 1, 3: 1})


def test_pow_and_units():
    assert (A ** -3) * (A ** 3) == ONE
    assert ONE_PLUS_A ** 3 == IntLaurent({0: 1, 1: 3, 2: 3, 3: 1})
    assert (-A) ** -3 == IntLaurent.monomial(-1, -3)
    with pytest.raises(ValueError):
        ONE_PLUS_A ** -1


def test_sum_builtin():
    assert sum([A, A, ONE]) == IntLaurent({0: 1, 1: 2})


def test_shift_substitute_conj():
    f = IntLaurent({0: 1, 3: 2})
    assert f.shift(-1) == IntLaurent({-1: 1, 2: 2})
    assert f.substitute_power(2) == IntLaurent({0: 1, 6: 2})
    # A -> A^-1, the mirror/conjugation on Z[A, A^-1], is an involution
    assert f.substitute_power(-1) == IntLaurent({0: 1, -3: 2})
    assert f.substitute_power(-1).substitute_power(-1) == f


def test_derivative():
    f = IntLaurent({-2: 1, 0: 4, 1: 3})
    assert derivative(f) == IntLaurent({-3: -2, 0: 3})


def test_evaluate():
    f = IntLaurent({-2: 3, 1: 1})
    assert evaluate(f, -1) == Fraction(2)
    assert evaluate(f, 2) == Fraction(3, 4) + 2


def test_exact_div():
    f = ONE_PLUS_A ** 4 * IntLaurent({-3: 2, 1: -5})
    assert f.exact_div(ONE_PLUS_A ** 4) == IntLaurent({-3: 2, 1: -5})
    with pytest.raises(ValueError):
        (ONE_PLUS_A + 1).exact_div(ONE_PLUS_A)


def test_div_one_plus_var():
    f = IntLaurent({1: 2, 4: 2})  # 2A + 2A^4 = 2A (1+A)(1 - A + A^2)
    assert f.exact_div(ONE_PLUS_A) == IntLaurent({1: 2, 2: -2, 3: 2})
    with pytest.raises(ValueError):
        IntLaurent(5).exact_div(ONE_PLUS_A)
    k, cof = (ONE_PLUS_A ** 3 * IntLaurent({0: 2, 1: -1})).val_one_plus_var()
    assert (k, cof) == (3, IntLaurent({0: 2, 1: -1}))
    assert ZERO.val_one_plus_var() == (0, ZERO)


def test_json_roundtrip():
    f = IntLaurent({-5: 123456789123456789, 0: -2, 7: 1})
    obj = f.to_json()
    assert obj["var"] == "A"
    assert laurent_from_json(obj) == f


def random_laurent(rng: random.Random, terms: int) -> IntLaurent:
    return IntLaurent({rng.randrange(-6, 7): rng.randrange(-9, 10) for _ in range(terms)})


def test_exact_div_inverts_the_product_seeded():
    # divisors (1+A)^k, (1-A)^k and a random nonzero g; the quotient of a
    # product by one factor is the other factor
    rng = random.Random(20)
    one_minus_a = IntLaurent({0: 1, 1: -1})
    for _ in range(60):
        f = random_laurent(rng, rng.randrange(6))
        k = rng.randrange(6)
        g = random_laurent(rng, rng.randrange(1, 5)) or A
        for divisor in (ONE_PLUS_A ** k, one_minus_a ** k, g):
            assert (f * divisor).exact_div(divisor) == f


def test_exact_div_refuses_a_remainder_seeded():
    # f (1+A)^k + 1 takes the value 1 at A = -1, so (1+A) never divides it
    rng = random.Random(21)
    for _ in range(60):
        f = random_laurent(rng, rng.randrange(6))
        k = rng.randrange(1, 6)
        with pytest.raises(ValueError):
            (f * ONE_PLUS_A ** k + 1).exact_div(ONE_PLUS_A ** k)
        with pytest.raises(ValueError):
            (f * ONE_PLUS_A ** k + 1).exact_div(ONE_PLUS_A)


def test_val_one_plus_var_seeded():
    rng = random.Random(22)
    for _ in range(60):
        f = random_laurent(rng, rng.randrange(1, 6)) or ONE
        k = rng.randrange(6)
        val, cof = (f * ONE_PLUS_A ** k).val_one_plus_var()
        assert val >= k and cof * ONE_PLUS_A ** val == f * ONE_PLUS_A ** k
        if evaluate(f, -1) != 0:
            assert val == k
