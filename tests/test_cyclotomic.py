import math
import random
from fractions import Fraction

import pytest

from skeinlat.cyclotomic import CycContext, CycNum, NotIntegralError, _unpack, cyclotomic_poly
from skeinlat.laurent import IntLaurent

from oracles import norm_resultant, poly_resultant


def test_cyclotomic_polys():
    assert cyclotomic_poly(20) == (1, 0, -1, 0, 1, 0, -1, 0, 1)
    assert cyclotomic_poly(14) == (1, -1, 1, -1, 1, -1, 1)
    assert cyclotomic_poly(7) == (1,) * 7
    assert cyclotomic_poly(4) == (1, 0, 1)


def test_cyclotomic_polys_multiply_back_to_x_n_minus_1():
    # every n up to 92 = 4 * 23: prod_{d | n} Phi_d = X^n - 1, and
    # deg Phi_n = phi(n)
    for n in range(1, 93):
        prod = IntLaurent(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * IntLaurent(dict(enumerate(cyclotomic_poly(d))))
        assert prod == IntLaurent({0: -1, n: 1})
        totient = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert len(cyclotomic_poly(n)) - 1 == totient


def test_resultant_small():
    # Res(X^2+1, X^2-2) = (i^2-2)((-i)^2-2) = 9
    assert poly_resultant([1, 0, 1], [-2, 0, 1]) == 9
    assert poly_resultant([-1, 1], [-2, 1]) == -1
    assert poly_resultant(list(cyclotomic_poly(5)), [-1, 1]) == 5


def test_context_shapes():
    c5 = CycContext(5)
    assert (c5.n, c5.phi, c5.a_exp, c5.d) == (20, 8, 2, 2)
    c7 = CycContext(7)
    assert (c7.n, c7.phi, c7.a_exp, c7.d) == (14, 6, 1, 3)
    with pytest.raises(ValueError):
        CycContext(9)


@pytest.mark.parametrize("p", [5, 7])
def test_root_relations(p):
    ctx = CycContext(p)
    assert ctx.A ** (2 * p) == 1
    assert ctx.A ** p == -1
    assert ctx.q ** p == 1
    assert ctx.q == ctx.A * ctx.A
    if p % 4 == 1:
        i = ctx.i_power(1)
        assert i * i == -1
    else:
        assert ctx.i_power(2) == -1
        with pytest.raises(ValueError):
            ctx.i_power(1)


@pytest.mark.parametrize("p,nrm", [(5, 25), (7, 7)])
def test_one_minus_q_norm(p, nrm):
    ctx = CycContext(p)
    assert ctx.one_minus_q.norm() == nrm


@pytest.mark.parametrize("p", [5, 7])
def test_valuation_of_p(p):
    ctx = CycContext(p)
    k, cof = ctx.from_int(p).valuation_one_minus_q()
    assert k == p - 1
    assert cof.is_unit()


@pytest.mark.parametrize("p", [5, 7])
def test_one_plus_A_associate_one_minus_q(p):
    ctx = CycContext(p)
    k, cof = (ctx.one + ctx.A).valuation_one_minus_q()
    assert k == 1 and cof.is_unit()
    assert ctx.from_int(p).valuation_one_minus_q()[0] != 1


def valuation_by_division(x):
    """Oracle for valuation_one_minus_q: one division by 1-q per unit of the
    exponent, a factor p of the denominator counting -(p-1); the cofactor is
    x / (1-q)^k exactly."""
    ctx = x.ctx
    den, k = x.den, 0
    while den % ctx.p == 0:
        den //= ctx.p
        k -= ctx.p - 1
    w_inv = ctx.inv(ctx.one_minus_q)
    cur = x * x.den
    while (cur * w_inv).den == 1:
        cur, k = cur * w_inv, k + 1
    return k, x * (w_inv**k if k >= 0 else ctx.one_minus_q**-k)


def random_unit(ctx, rng):
    # A^j times cyclotomic units 1 + q + ... + q^(a-1) = (1-q^a)/(1-q), p not dividing a
    u = ctx.A_pow(rng.randrange(2 * ctx.p))
    for _ in range(rng.randrange(3)):
        u = u * sum((ctx.q_pow(i) for i in range(rng.randrange(2, ctx.p))), ctx.zero)
    return u


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_valuation_matches_one_step_division_seeded(p):
    # (1-q)^k x / p^a for x a random integral element or a unit
    ctx = CycContext(p)
    rng = random.Random(2700 + p)
    for case in range(16):
        if case % 2:
            x = random_unit(ctx, rng)
        else:
            x = CycNum(ctx, tuple(rng.randrange(-9, 10) for _ in range(ctx.phi))) or ctx.one
        k, a = rng.randrange(3 * (p - 1) + 1), rng.randrange(3)
        value = ctx.one_minus_q**k * x / p**a
        got_k, got_cof = value.valuation_one_minus_q()
        want_k, want_cof = valuation_by_division(value)
        assert got_k == want_k
        assert got_cof.is_unit() == want_cof.is_unit()
        if case % 2:
            assert got_k == k - a * (p - 1) and got_cof.is_unit()


@pytest.mark.parametrize("p", [5, 7, 13])
def test_valuation_reads_p_content_and_keeps_other_denominators(p):
    ctx = CycContext(p)
    w, unit = ctx.one_minus_q, ctx.one + ctx.q
    cases = [
        (p**3 * w**2 * unit, 3 * (p - 1) + 2, True),
        (w**2 * unit / 2, 2, False),
        (w**3 / (2 * p), 3 - (p - 1), False),
    ]
    for value, k, is_unit in cases:
        got_k, got_cof = value.valuation_one_minus_q()
        assert (got_k, got_cof.is_unit()) == (k, is_unit)
        want_k, want_cof = valuation_by_division(value)
        assert (want_k, want_cof.is_unit()) == (k, is_unit)
    with pytest.raises(ValueError, match="zero"):
        ctx.zero.valuation_one_minus_q()


@pytest.mark.parametrize("p", [5, 7])
def test_units(p):
    ctx = CycContext(p)
    assert ctx.A.is_unit()
    assert (ctx.q_pow(1) + ctx.q_pow(-1)).is_unit()
    assert not ctx.one_minus_q.is_unit()
    assert not (ctx.one / 2).is_unit()


def random_element(ctx, rng):
    vec = tuple(rng.randrange(-9, 10) for _ in range(ctx.phi))
    return CycNum(ctx, vec, rng.randrange(1, 5))


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_ring_laws_seeded(p):
    ctx = CycContext(p)
    rng = random.Random(2024 + p)
    for _ in range(20):
        x, y, z = (random_element(ctx, rng) for _ in range(3))
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ctx.zero == x and x * ctx.one == x and x - x == ctx.zero
        if not x.is_zero():
            assert x * x.inverse() == ctx.one


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_galois_action_seeded(p):
    ctx = CycContext(p)
    rng = random.Random(4048 + p)
    units = [k for k in range(1, ctx.n) if math.gcd(k, ctx.n) == 1]
    for _ in range(20):
        x, y = random_element(ctx, rng), random_element(ctx, rng)
        k = rng.choice(units)
        assert (x + y).galois(k) == x.galois(k) + y.galois(k)
        assert (x * y).galois(k) == x.galois(k) * y.galois(k)
        assert ctx.one.galois(k) == ctx.one
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_norm_dual_route(p):
    ctx = CycContext(p)
    rng = random.Random(12345 + p)
    for _ in range(8):
        vec = tuple(rng.randrange(-9, 10) for _ in range(ctx.phi))
        den = rng.randrange(1, 5)
        x = CycNum(ctx, vec, den)
        assert x.norm() == norm_resultant(x)


def mobius(m):
    out, k = 1, 2
    while k * k <= m:
        if m % k == 0:
            m //= k
            if m % k == 0:
                return 0
            out = -out
        k += 1
    return -out if m > 1 else out


def totient(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
def test_trace_matches_ramanujan_sums_seeded(p):
    # Tr(zeta_n^k) = mu(m) phi(n) / phi(m) with m = n / gcd(k, n), a Ramanujan
    # sum, so the trace is a linear form on the power basis
    ctx = CycContext(p)
    ms = [ctx.n // math.gcd(k, ctx.n) for k in range(ctx.phi)]
    form = [Fraction(mobius(m) * ctx.phi, totient(m)) for m in ms]
    assert form[0] == ctx.one.trace() == ctx.phi
    rng = random.Random(3100 + p)
    xs = [random_element(ctx, rng) for _ in range(8)]
    assert any(x.den > 1 for x in xs)
    for x in xs:
        assert x.trace() == sum(c * t for c, t in zip(x.vec, form)) / x.den


def test_trace_refuses_a_sum_outside_q(monkeypatch):
    monkeypatch.setattr(CycNum, "galois", lambda self, k: self)
    with pytest.raises(ArithmeticError, match="trace did not land in Q"):
        CycContext(5).A.trace()


@pytest.mark.parametrize("p", [5, 7])
def test_inverse(p):
    ctx = CycContext(p)
    x = ctx.from_int(3) + ctx.A
    assert x * x.inverse() == 1
    assert ctx.q ** -1 == ctx.q_pow(-1)
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()


def test_galois_and_conj():
    ctx = CycContext(5)
    assert ctx.A.conj() == ctx.A_pow(-1)
    x = ctx.from_int(2) + 3 * ctx.q
    assert x.conj().conj() == x
    # conjugation is a ring map
    y = ctx.one + ctx.A
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()


def test_plus_subring():
    c5 = CycContext(5)
    assert c5.plus_m == 11
    assert c5.q.in_plus_subring()
    assert c5.one_minus_q.in_plus_subring()
    assert not c5.i_power(1).in_plus_subring()
    assert not (c5.q / 2).in_plus_subring()
    c7 = CycContext(7)
    assert c7.plus_m == 1
    assert c7.A.in_plus_subring()


@pytest.mark.parametrize("p", [5, 7])
def test_laurent_embedding(p):
    ctx = CycContext(p)
    f = IntLaurent({0: 1, 1: 1})
    assert ctx.from_A_laurent(f) == ctx.one + ctx.A
    # the embedding is a ring map
    g = IntLaurent({-2: 3, 1: -1})
    assert ctx.from_A_laurent(f * g) == ctx.from_A_laurent(f) * ctx.from_A_laurent(g)


def test_mixing_rings_raises():
    c5, c7 = CycContext(5), CycContext(7)
    for op in (
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x * y,
        lambda x, y: x / y,
        lambda x, y: x == y,
    ):
        with pytest.raises(ValueError, match="cannot mix"):
            op(c5.one, c7.q)
        with pytest.raises(ValueError, match="cannot mix"):
            op(c7.A, c5.q)
    with pytest.raises(ValueError, match="cannot mix"):
        c5.inv(c7.q)
    assert not [key for key in c5.memo if key[0] == "inv"]


def test_separate_contexts_of_one_ring_mix():
    a, b = CycContext(5), CycContext(5)
    assert a.one + b.q == a.one + a.q
    assert a.A * b.A == a.q
    assert a.q / b.q == 1


def integral_element(ctx, rng):
    return CycNum(ctx, tuple(rng.randrange(-9, 10) for _ in range(ctx.phi)))


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_dot_is_the_sum_of_products_seeded(p):
    ctx = CycContext(p)
    rng = random.Random(1500 + p)
    for _ in range(20):
        pairs = [(integral_element(ctx, rng), integral_element(ctx, rng))
                 for _ in range(rng.randrange(1, 6))]
        expected = ctx.zero
        for x, y in pairs:
            expected = expected + x * y
        assert ctx.dot(pairs) == expected
    assert ctx.dot([(ctx.A, ctx.A), (-ctx.q, ctx.one)]) == ctx.zero


def test_dot_of_nothing_is_zero():
    ctx = CycContext(7)
    assert ctx.dot([]) == ctx.zero


def test_dot_refuses_a_denominator():
    ctx = CycContext(5)
    half = CycNum(ctx, ctx.one.vec, 2)
    for pair in ((half, ctx.one), (ctx.one, half)):
        with pytest.raises(NotIntegralError, match="integral"):
            ctx.dot([(ctx.A, ctx.A), pair])


def test_dot_refuses_another_ring():
    c5, c7 = CycContext(5), CycContext(7)
    for pair in ((c7.A, c5.one), (c5.one, c7.A)):
        with pytest.raises(ValueError, match="cannot mix") as err:
            c5.dot([pair])
        assert not isinstance(err.value, NotIntegralError)
    assert CycContext(5).dot([(c5.A, c5.A)]) == c5.q


def schoolbook_sum(ctx, terms):
    # the oracle: each term's product by CycNum.__mul__, summed one by one
    out = ctx.zero
    for term in terms:
        prod = ctx.one
        for z in term:
            prod = prod * z
        out = out + prod
    return out


def extreme_element(ctx, rng, bits, same_sign):
    # every coefficient at the largest magnitude of its bit length
    top = (1 << bits) - 1
    sign = rng.choice((1, -1))
    return CycNum(ctx, tuple((sign if same_sign else rng.choice((1, -1))) * top
                             for _ in range(ctx.phi)))


def split(total, parts, rng):
    # total as a sum of `parts` positive ints
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


@pytest.mark.parametrize("factors", (1, 2, 4))
@pytest.mark.parametrize("p", (5, 7, 11, 13, 17))
def test_packed_dot_at_the_slot_boundary_matches_schoolbook_seeded(p, factors):
    # coefficient sizes chosen so that the unrounded slot width is exactly a
    # multiple of 32: no rounding slack hides a slot that overflows
    ctx = CycContext(p)
    assert ctx.phi == {5: 8, 7: 6, 11: 10, 13: 24, 17: 32}[p]
    rng = random.Random(1700 + 10 * p + factors)
    for _ in range(6):
        count = rng.randrange(1, 7)
        spare = (ctx.phi ** (factors - 1) * count).bit_length() + 1
        width = 32 * rng.randrange(1, 4)
        while width - spare < factors:
            width += 32
        terms = []
        for _ in range(count):
            same = rng.random() < 0.5
            terms.append(tuple(extreme_element(ctx, rng, b, same)
                               for b in split(width - spare, factors, rng)))
        assert ctx.dot(terms) == schoolbook_sum(ctx, terms)
        assert {z._packed[0] for term in terms for z in term} == {width}


@pytest.mark.parametrize("p", (5, 7, 11, 13, 17))
def test_packed_dot_of_mixed_term_lengths_matches_schoolbook_seeded(p):
    ctx = CycContext(p)
    rng = random.Random(1800 + p)
    for _ in range(6):
        terms = [tuple(CycNum(ctx, tuple(rng.randrange(-(1 << 40), 1 << 40) if rng.random() < 0.5
                                         else 0 for _ in range(ctx.phi)))
                       for _ in range(rng.choice((1, 2, 4))))
                 for _ in range(rng.randrange(1, 9))]
        assert ctx.dot(terms) == schoolbook_sum(ctx, terms)


def test_dot_repacks_an_operand_read_at_another_width():
    ctx = CycContext(7)
    rng = random.Random(1907)
    x = integral_element(ctx, rng)
    small = ctx.dot([(x, x)])
    narrow = x._packed[0]
    big = CycNum(ctx, tuple(c << 90 for c in integral_element(ctx, rng).vec))
    assert ctx.dot([(x, big), (x, x)]) == x * big + x * x
    assert x._packed[0] > narrow
    assert ctx.dot([(x, x)]) == small == x * x
    assert x._packed[0] == narrow


@pytest.mark.parametrize("w", (32, 64, 96))
def test_unpack_reads_signed_slots_at_the_boundary(w):
    # w = 32 and 64 read the slots through a struct, w = 96 slot by slot
    half = 1 << (w - 1)
    coeffs = [half - 1, -half, 0, -1, 1, half - 1, -half]
    total = sum(c << (w * i) for i, c in enumerate(coeffs))
    assert _unpack(total, w, len(coeffs)) == coeffs
    # the top slot left over is a high part, not a silent wrap
    with pytest.raises(ArithmeticError, match="high part"):
        _unpack(total, w, len(coeffs) - 1)
    with pytest.raises(ArithmeticError, match="high part"):
        _unpack(total + (1 << (w * len(coeffs))), w, len(coeffs))
