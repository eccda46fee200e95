import itertools
import random
from fractions import Fraction

import pytest

from skeinlat.cyclotomic import CycContext, CycNum
from skeinlat.laurent import IntLaurent, RefutationError
from skeinlat.planar import gram_genus2
from skeinlat.recoupling import (
    admissible,
    arm_weight,
    count_spine_colorings,
    p_admissible,
    qint,
    quantum_dim_at,
    tet_at,
    theta_at,
    verlinde_rank,
)
from skeinlat.torus import TQFTParams

from oracles import QFrac, delta_loop, qfact, quantum_dim, tet, theta


def test_qint():
    assert qint(0).is_zero()
    assert qint(1) == 1
    assert qint(2) == IntLaurent({1: 1, -1: 1})
    assert qint(3) == IntLaurent({2: 1, 0: 1, -2: 1})
    # [m][2] = [m+1] + [m-1]
    for m in range(1, 9):
        assert qint(m) * qint(2) == qint(m + 1) + qint(m - 1)


def test_qfact():
    assert qfact(0) == 1
    assert qfact(3) == qint(1) * qint(2) * qint(3)
    with pytest.raises(ValueError):
        qfact(-1)


def test_quantum_dim_and_delta():
    assert delta_loop() == IntLaurent({1: -1, -1: -1})
    assert quantum_dim(0) == 1
    assert quantum_dim(1) == delta_loop()
    assert quantum_dim(2) == IntLaurent({2: 1, 0: 1, -2: 1})


def test_admissibility():
    assert admissible(2, 2, 2)
    assert not admissible(1, 1, 1)  # parity
    assert not admissible(0, 0, 2)  # triangle
    assert p_admissible(5, 2, 2, 2)
    assert not p_admissible(5, 3, 3, 2)  # sum 8 > 2(p-2) = 6
    assert not p_admissible(5, 4, 4, 0)  # color > p-2


def test_theta_loop_degeneration():
    for i in range(7):
        assert theta(i, i, 0) == quantum_dim(i)
    # the other degeneration: a fused pair of strands, theta(a,b,a+b) = <e_{a+b}>
    for a in range(4):
        for b in range(4):
            assert theta(a, b, a + b) == quantum_dim(a + b)


def test_theta_frozen():
    assert theta(1, 1, 2) == qint(3)
    assert theta(1, 1, 2) == quantum_dim(2)
    # hand expansion of the three-projector diagram in powers of the loop
    # value delta: theta(2,2,2) = delta^3 - 3 delta + 2/delta
    delta = delta_loop()
    lhs = theta(2, 2, 2) * QFrac(delta)
    want = QFrac(delta ** 4 - 3 * delta ** 2 + 2)
    assert lhs == want


def test_theta_at_root():
    ctx = CycContext(5)
    x = theta_at(ctx, 2, 2, 2)
    assert x.is_integral()
    # nonzero for admissible triples below the level
    assert not x.is_zero()


def test_colors_that_are_not_p_admissible_are_refused_at_the_root():
    # over the level or out of range these read 0 from the Laurent fraction,
    # and a triangle-inadmissible triple would index the factorial table
    # with a negative offset; each is refused before the table is built
    ctx5, ctx7 = CycContext(5), CycContext(7)
    for colors in [(3, 3, 2), (4, 4, 0)]:
        with pytest.raises(ValueError, match="not admissible at p = 5"):
            theta_at(ctx5, *colors)
    with pytest.raises(ValueError, match="not admissible at p = 5"):
        tet_at(ctx5, 3, 3, 2, 3, 3, 2)
    with pytest.raises(ValueError, match=r"\(1, 1, 4\) are not admissible at p = 7"):
        theta_at(ctx7, 1, 1, 4)
    assert ("qfact",) not in ctx5.memo and ("qfact",) not in ctx7.memo


def p_admissible_thetas(p: int) -> list[tuple[int, int, int]]:
    return [t for t in itertools.product(range(p - 1), repeat=3) if p_admissible(p, *t)]


def p_admissible_tets(p: int) -> list[tuple[int, ...]]:
    """Every coloring (a, b, e, c, d, f) whose vertex triples (a,b,e),
    (c,d,e), (a,d,f), (b,c,f) are p-admissible."""
    thetas = p_admissible_thetas(p)
    pairs: dict[int, list[tuple[int, int]]] = {}
    for c, d, e in thetas:
        pairs.setdefault(e, []).append((c, d))
    return [(a, b, e, c, d, f) for a, b, e in thetas for c, d in pairs[e]
            for f in range(p - 1) if p_admissible(p, a, d, f) and p_admissible(p, b, c, f)]


def numerator_reaches_p(p: int, a, b, e, c, d, f) -> bool:
    """The Laurent sum of tet runs to the smallest square, so its last
    numerator [z+1]! contains [p], which vanishes at the root."""
    return min(a + c + e + f, b + d + e + f, a + b + c + d) // 2 + 1 >= p


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_theta_at_matches_the_laurent_oracle_at_the_root(p):
    ctx = CycContext(p)
    for colors in p_admissible_thetas(p):
        assert theta_at(ctx, *colors) == theta(*colors).at_root(ctx), colors


@pytest.mark.parametrize("p", [5, 7])
def test_every_tet_at_matches_the_laurent_oracle_at_the_root(p):
    ctx = CycContext(p)
    tets = p_admissible_tets(p)
    assert (len(tets), sum(numerator_reaches_p(p, *t) for t in tets)) == {5: (120, 1), 7: (784, 28)}[p]
    for colors in tets:
        assert tet_at(ctx, *colors) == tet(*colors).at_root(ctx), colors


@pytest.mark.parametrize("p", [11, 13])
def test_sampled_tet_at_matches_the_laurent_oracle_at_the_root(p):
    # half the sample has a numerator [z+1]! that reaches p: the table sum
    # stops at z = p-2, the oracle sums those terms and finds them 0
    tets = p_admissible_tets(p)
    reach = [t for t in tets if numerator_reaches_p(p, *t)]
    assert (len(tets), len(reach)) == {11: (10648, 924), 13: (28392, 3003)}[p]
    rng = random.Random(p)
    ctx = CycContext(p)
    for colors in rng.sample(reach, 12) + rng.sample(tets, 12):
        assert tet_at(ctx, *colors) == tet(*colors).at_root(ctx), colors


def test_quantum_dim_at_matches_the_laurent_oracle():
    ctx = CycContext(7)
    for i in range(6):
        assert quantum_dim_at(ctx, i) == ctx.from_q_laurent(quantum_dim(i))


def test_the_recoupling_values_of_a_genus2_gram_cost_one_inverse(monkeypatch):
    # the table's one field inverse, of [p-1]!, is every inverse that the
    # theta and tet values read by gram_genus2(13, "Av") cost in a new ring
    params = TQFTParams(13)
    monkeypatch.setattr(TQFTParams, "for_prime", lambda p: params)
    gram_genus2(13, "Av")
    keys = [key for key in params.ctx.memo if key[0] in ("theta", "tet")]
    inverses = []
    inverse = CycNum.inverse

    def counted(x: CycNum) -> CycNum:
        inverses.append(x)
        return inverse(x)

    monkeypatch.setattr(CycNum, "inverse", counted)
    ctx = CycContext(13)
    for kind, *colors in keys:
        got = (theta_at if kind == "theta" else tet_at)(ctx, *colors)
        assert got.vec == params.ctx.memo[(kind, *colors)].vec
    assert (len(keys), len(inverses)) == (136, 1)


def test_tet_degeneration_matches_theta():
    cases = [
        (1, 1, 2), (2, 2, 2), (1, 2, 3), (2, 2, 0), (3, 3, 2), (2, 3, 3),
        (1, 3, 2), (4, 2, 2),
    ]
    for a, b, e in cases:
        assert tet(a, b, e, b, a, 0) == theta(a, b, e)


def test_tet_symmetry():
    # one edge colored 4, the rest 2: the 4 may sit on any edge
    base = tet(2, 2, 2, 2, 4, 2)
    for img in [
        (4, 2, 2, 2, 2, 2),
        (2, 4, 2, 2, 2, 2),
        (2, 2, 4, 2, 2, 2),
        (2, 2, 2, 4, 2, 2),
        (2, 2, 2, 2, 2, 4),
    ]:
        assert tet(*img) == base
    # two opposite edges colored 2 among 1s: three opposite pairs
    base2 = tet(1, 1, 2, 1, 1, 2)
    assert tet(2, 1, 1, 2, 1, 1) == base2
    assert tet(1, 2, 1, 1, 2, 1) == base2
    assert not (base == tet(2, 2, 2, 2, 2, 2))
    # seeded vertex relabelings of admissible colorings <= 4; tet sums its
    # formula over the colors as given, so the equalities come from the
    # formula itself
    edges = ((1, 3), (1, 4), (1, 2), (2, 4), (2, 3), (3, 4))  # a, b, e, c, d, f
    colorings = [
        (a, b, e, c, d, f)
        for a, b, e, c, d, f in itertools.product(range(5), repeat=6)
        if all(admissible(*tri) for tri in ((a, b, e), (c, d, e), (a, d, f), (b, c, f)))
    ]
    rng = random.Random(4)
    for _ in range(40):
        cols = rng.choice(colorings)
        color_of = dict(zip(edges, cols))
        sig = dict(zip((1, 2, 3, 4), rng.sample((1, 2, 3, 4), 4)))
        img = [color_of[tuple(sorted((sig[i], sig[j])))] for i, j in edges]
        assert tet(*img) == tet(*cols), (cols, sig)


def test_tet_inadmissible():
    with pytest.raises(ValueError):
        tet(1, 1, 1, 1, 1, 1)


def test_qfrac():
    a = QFrac(qint(3), qint(2))
    b = QFrac(qint(2), 1)
    assert a * b == qint(3)
    assert a == QFrac(qint(3) * qint(4), qint(2) * qint(4))
    ctx = CycContext(7)
    v = QFrac(qint(2) * qint(2), qint(2)).at_root(ctx)
    assert v == ctx.from_q_laurent(qint(2))


def test_equal_fractions_hash_alike():
    # QFrac compares by cross-multiplication, so its hash reads the reduced
    # pair: 1/2 and 2/4 are one set element, and so is a fraction whose
    # numerator and denominator share a seeded factor, unit or content
    assert QFrac(1, 2) == QFrac(2, 4)
    assert len({QFrac(1, 2), QFrac(2, 4)}) == 1
    rng = random.Random(31)

    def poly(terms):
        return IntLaurent({rng.randrange(-3, 4): rng.randrange(-4, 5) for _ in range(terms)})

    for _ in range(40):
        num, den, common = poly(3), poly(3) or qint(2), poly(rng.randrange(1, 3)) or IntLaurent(-3)
        a, b = QFrac(num, den), QFrac(num * common, den * common)
        assert a == b and hash(a) == hash(b)


def test_arm_weight():
    assert [arm_weight(5, k) for k in (0, 2)] == [2, 1]
    assert [arm_weight(7, k) for k in (0, 2, 4)] == [3, 2, 1]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_genus_two_count_formula(p):
    d = (p - 1) // 2
    assert count_spine_colorings(2, p) == d * (d + 1) * (2 * d + 1) // 6


def spine_count_by_triples(genus: int, p: int) -> int:
    """Oracle for count_spine_colorings: each half-spine step tests every
    triple of even colors (m1, s, m2) with p_admissible."""
    if genus == 1:
        return (p - 1) // 2
    evens = range(0, p - 1, 2)
    w = {k: arm_weight(p, k) for k in evens}
    half = [w]
    for _ in range((genus - 1) // 2):
        f = half[-1]
        half.append({m2: sum(f[m1] * w[s] for m1 in evens for s in evens
                             if p_admissible(p, s, m1, m2)) for m2 in evens})
    left, right = half[(genus - 2) // 2], half[(genus - 1) // 2]
    return sum(left[m] * right[m] for m in evens)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41])
def test_spine_count_prefix_sums_match_the_triples(p):
    for genus in range(1, 9):
        assert count_spine_colorings(genus, p) == spine_count_by_triples(genus, p), genus


def test_spine_counts_frozen():
    assert count_spine_colorings(3, 5) == 15
    assert count_spine_colorings(5, 5) == 175
    assert count_spine_colorings(3, 13) == 3549
    assert count_spine_colorings(1, 7) == 3


@pytest.mark.parametrize("genus", range(1, 13))
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_counts_match_trig_formula(genus, p):
    # the trigonometric Verlinde formula, evaluated exactly as a field trace
    assert verlinde_rank(CycContext(p), genus) == count_spine_colorings(genus, p)


def test_verlinde_trace_at_the_rank_budget():
    # the count-versus-trace grid at the corner of the rank verb's budget
    rank = 138585259782657722229379654359704325031179817185539542336969
    assert count_spine_colorings(12, 211) == verlinde_rank(CycContext(211), 12) == rank


def test_a_fractional_verlinde_trace_is_refuted(monkeypatch):
    # a trace of 1 at p = 5 (phi(20) = 8) would make the rank 1 * 4 / 16
    monkeypatch.setattr(CycNum, "trace", lambda self: Fraction(1))
    with pytest.raises(RefutationError, match="genus-2 Verlinde trace at p = 5 is 1/4"):
        verlinde_rank(CycContext(5), 2)
