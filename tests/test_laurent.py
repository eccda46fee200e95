import random
from fractions import Fraction

import pytest

from skeinlat.laurent import A, ONE, ONE_PLUS_A, ZERO, IntLaurent, LocLaurent


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
    assert f.conj() == IntLaurent({0: 1, -3: 2})
    assert f.conj().conj() == f


def test_derivative():
    f = IntLaurent({-2: 1, 0: 4, 1: 3})
    assert f.derivative() == IntLaurent({-3: -2, 0: 3})


def test_evaluate():
    f = IntLaurent({-2: 3, 1: 1})
    assert f.evaluate(-1) == Fraction(2)
    assert f.evaluate(2) == Fraction(3, 4) + 2


def test_exact_div():
    f = ONE_PLUS_A ** 4 * IntLaurent({-3: 2, 1: -5})
    assert f.exact_div(ONE_PLUS_A ** 4) == IntLaurent({-3: 2, 1: -5})
    with pytest.raises(ValueError):
        (ONE_PLUS_A + 1).exact_div(ONE_PLUS_A)


def test_div_one_plus_var():
    f = IntLaurent({1: 2, 4: 2})  # 2A + 2A^4 = 2A (1+A)(1 - A + A^2)
    assert f.try_div_one_plus_var() == IntLaurent({1: 2, 2: -2, 3: 2})
    assert IntLaurent(5).try_div_one_plus_var() is None
    k, cof = (ONE_PLUS_A ** 3 * IntLaurent({0: 2, 1: -1})).val_one_plus_var()
    assert (k, cof) == (3, IntLaurent({0: 2, 1: -1}))
    assert ZERO.val_one_plus_var() == (0, ZERO)


def test_json_roundtrip():
    f = IntLaurent({-5: 123456789123456789, 0: -2, 7: 1})
    obj = f.to_json()
    assert obj["var"] == "A"
    assert IntLaurent.from_json(obj) == f


def test_loc_normalization():
    x = LocLaurent(ONE_PLUS_A ** 2 * 5, 3)
    assert x.k == 1 and x.num == 5
    assert LocLaurent(ZERO, 4) == LocLaurent(0)
    assert LocLaurent(ONE, -2) == LocLaurent(ONE_PLUS_A ** 2)


def test_loc_arithmetic():
    half = LocLaurent(ONE, 1)  # 1/(1+A)
    assert half + 1 == LocLaurent(IntLaurent({0: 2, 1: 1}), 1)
    assert half * ONE_PLUS_A == LocLaurent(1)
    assert half - half == LocLaurent(0)
    assert (half * half).k == 2
    y = LocLaurent(IntLaurent({0: 1, 1: 1}), 1)  # normalizes to 1
    assert y.is_integral() and y.as_int_laurent() == ONE
    with pytest.raises(ValueError):
        half.as_int_laurent()


def test_dot_is_the_sum_of_products_seeded():
    rng = random.Random(15)
    for _ in range(30):
        pairs = [
            tuple(
                IntLaurent({rng.randrange(-8, 9): rng.randrange(-5, 6) for _ in range(rng.randrange(5))})
                for _ in range(2)
            )
            for _ in range(rng.randrange(1, 6))
        ]
        assert IntLaurent.dot(pairs) == sum((x * y for x, y in pairs), ZERO)
    # terms that cancel leave no zero coefficient behind
    assert IntLaurent.dot([(A, ONE), (-A, ONE)]).c == {}


def test_dot_of_nothing_is_zero():
    assert IntLaurent.dot([]) == ZERO
