import math
import random
from functools import lru_cache

import pytest

from skeinlat.cyclotomic import CycContext, CycNum
from skeinlat.lattice import (
    OLattice,
    SaturationReport,
    _zeta_shift,
    hnf,
    lattice_equal,
    saturate,
)
from skeinlat.matrices import diagonal
from skeinlat.torus import (
    TQFTParams,
    basis_e,
    basis_omega,
    basis_v,
    omega,
    s_matrix,
)

from oracles import contains_vector, lattice_index, mat_vec, vectors, zeta_stable

PRIMES = (5, 7, 11, 13)


@lru_cache(maxsize=None)
def lattice_for(p: int, name: str) -> OLattice:
    params = TQFTParams.for_prime(p)
    builder = {"e": basis_e, "omega": basis_omega, "v": basis_v}[name]
    return OLattice.from_vectors(params.ctx, builder(params))


def twist_op(params: TQFTParams):
    return diagonal([params.mu(i) for i in range(params.d)], params.ctx.zero)


# --- Hermite normal form -----------------------------------------------


def test_hnf_identity_fixed() -> None:
    assert hnf([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]


def test_hnf_merges_to_unimodular() -> None:
    # (1,1) bridges the two axes: gcd tricks shrink the pivots to 1
    assert hnf([[2, 0], [0, 3], [1, 1]]) == [[1, 0], [0, 1]]


def test_hnf_drops_zero_rows() -> None:
    assert hnf([[0, 0, 0]]) == []
    assert hnf([]) == []


def test_hnf_ragged_rejected() -> None:
    with pytest.raises(ValueError):
        hnf([[1, 0], [1]])


def assert_hnf(form: list[list[int]], width: int) -> None:
    """Echelon with strictly increasing pivot columns, positive pivots, and
    every entry above a pivot reduced into [0, pivot)."""
    pivots = []
    for r in form:
        assert len(r) == width and any(r)
        col = next(k for k, x in enumerate(r) if x)
        assert r[col] > 0
        pivots.append(col)
    assert pivots == sorted(set(pivots))
    for i, col in enumerate(pivots):
        assert all(0 <= above[col] < form[i][col] for above in form[:i])


def test_hnf_shape_invariants() -> None:
    rng = random.Random(7)
    for _ in range(25):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
        assert_hnf(hnf(rows), 5)


def test_hnf_canonical_under_row_operations() -> None:
    # random shapes, rank-deficient ones included; the rows are moved by
    # unimodular operations (swaps, negations, adding a multiple of one row
    # to another), then zero rows and integer combinations of rows join them
    rng = random.Random(11)
    for _ in range(60):
        width, count = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(count)]
        if count > 1 and rng.random() < 0.3:
            rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
        form = hnf(rows)
        assert_hnf(form, width)
        moved = [list(r) for r in rows]
        for _ in range(12):
            i, j = rng.randrange(count), rng.randrange(count)
            move = rng.randrange(3)
            if move == 0:
                moved[i], moved[j] = moved[j], moved[i]
            elif move == 1:
                moved[i] = [-a for a in moved[i]]
            elif i != j:
                c = rng.randint(-3, 3)
                moved[i] = [a + c * b for a, b in zip(moved[i], moved[j])]
        for _ in range(rng.randint(0, 3)):
            cs = [rng.randint(-2, 2) for _ in range(count)]
            moved.append([sum(c * r[k] for c, r in zip(cs, rows)) for k in range(width)])
        moved += [[0] * width] * rng.randint(0, 2)
        rng.shuffle(moved)
        assert hnf(moved) == form


def column_sweep_hnf(rows: list[list[int]]) -> list[list[int]]:
    """The column sweep hnf ran before its rows were bucketed: every pass
    rescans all rows for the column and updates each over the full width."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    width = len(work[0])
    basis: list[list[int]] = []
    for col in range(width):
        live = [r for r in work if r[col]]
        work = [r for r in work if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            keep = [pivot]
            for r in live[1:]:
                q = r[col] // pivot[col]
                for k in range(width):
                    r[k] -= q * pivot[k]
                if r[col]:
                    keep.append(r)
                elif any(r):
                    work.append(r)
            live = keep
        if live:
            pivot = live[0]
            if pivot[col] < 0:
                for k in range(width):
                    pivot[k] = -pivot[k]
            for b in basis:
                q = b[col] // pivot[col]
                if q:
                    for k in range(width):
                        b[k] -= q * pivot[k]
            basis.append(pivot)
    return basis


def test_hnf_tall_matches_the_column_sweep() -> None:
    # many more rows than columns; some columns are multiples of a prime so
    # their gcd takes several passes, and leading entries come with both signs
    rng = random.Random(2026)
    passes_needed = 0
    for trial in range(40):
        width = rng.randint(2, 9)
        count = rng.randint(4 * width, 12 * width)
        prime = rng.choice((3, 7, 11))
        scaled = {k for k in range(width) if rng.random() < 0.4}
        rows = []
        for _ in range(count):
            lead = rng.randrange(width)
            row = [0] * lead + [rng.randint(-40, 40) for _ in range(width - lead)]
            row = [x * prime if k in scaled else x for k, x in enumerate(row)]
            if row[lead] > 0 and rng.random() < 0.5:
                row = [-x for x in row]
            rows.append(row)
        if trial % 5 == 0:
            rows += [[0] * width] * 3
        column = [r[0] for r in rows if r[0]]
        if len(column) > 1 and min(map(abs, column)) != math.gcd(*column):
            passes_needed += 1
        kept = [list(r) for r in rows]
        form = hnf(rows)
        assert rows == kept  # the input is left as it was
        assert_hnf(form, width)
        assert form == column_sweep_hnf(rows)
    assert passes_needed > 10


# --- the integer zeta-shift ----------------------------------------------


@pytest.mark.parametrize("p, n", [(7, 14), (5, 20), (13, 52)])
def test_zeta_shift_is_multiplication_by_zeta(p: int, n: int) -> None:
    ctx = CycContext(p)
    assert ctx.n == n
    zeta = ctx.zeta_pow(1)
    rng = random.Random(5200 + n)
    for _ in range(25):
        elems = [
            CycNum(ctx, tuple(rng.randint(-50, 50) for _ in range(ctx.phi)))
            for _ in range(rng.randint(1, 3))
        ]
        row = [x for c in elems for x in c.vec]
        assert _zeta_shift(ctx, row) == [x for c in elems for x in (zeta * c).vec]
    # phi shifts of the top power basis vector walk through the reduction table
    row = [0] * (ctx.phi - 1) + [1]
    for e in range(ctx.phi, ctx.n):
        row = _zeta_shift(ctx, row)
        assert tuple(row) == ctx.zeta_pow(e).vec


# --- construction and membership ---------------------------------------


def test_from_vectors_rejects_empty_and_ragged() -> None:
    ctx = TQFTParams.for_prime(5).ctx
    with pytest.raises(ValueError):
        OLattice.from_vectors(ctx, [])
    e0, e1 = basis_e(TQFTParams.for_prime(5))
    with pytest.raises(ValueError):
        OLattice.from_vectors(ctx, [e0, e1[:1]])


def test_from_rows_rejects_a_row_of_the_wrong_length() -> None:
    ctx = TQFTParams.for_prime(5).ctx
    with pytest.raises(ValueError, match="holds 16 integers"):
        OLattice.from_rows(ctx, 2, 1, [[1] * 15])
    with pytest.raises(ValueError):
        OLattice.from_rows(ctx, 2, 1, [])
    with pytest.raises(ValueError):
        OLattice.from_rows(ctx, 2, 0, [[1] * 16])


@pytest.mark.parametrize("p", (5, 7))
def test_from_rows_any_common_denominator(p: int) -> None:
    # scaling the rows and the denominator together spans the same lattice
    lat = lattice_for(p, "v")
    for extra in (1, 2, 6, 35):
        rows = [[x * extra for x in r] for r in lat.basis]
        assert lattice_equal(OLattice.from_rows(lat.ctx, lat.width, lat.den * extra, rows), lat)


def test_from_vectors_rejects_a_vector_from_another_ring() -> None:
    with pytest.raises(ValueError, match="cannot mix"):
        OLattice.from_vectors(TQFTParams.for_prime(7).ctx, [[TQFTParams.for_prime(5).ctx.one] * 3])


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("name", ("e", "omega", "v"))
def test_full_rank_and_zeta_stable(p: int, name: str) -> None:
    lat = lattice_for(p, name)
    assert lat.rank == TQFTParams.for_prime(p).d * TQFTParams.for_prime(p).ctx.phi
    assert zeta_stable(lat)


def test_zeta_stable_refutes_a_bare_z_span() -> None:
    # the Z-span of the e-vectors alone, without the closure, is no module
    lat = lattice_for(7, "e")
    rows = [[x for c in vec for x in c.vec] for vec in basis_e(TQFTParams.for_prime(7))]
    bare = OLattice(lat.ctx, lat.width, 1, tuple(map(tuple, hnf(rows))))
    assert bare.rank == lat.width < lat.rank
    assert zeta_stable(lat) and not zeta_stable(bare)


@pytest.mark.parametrize("p", (5, 7))
def test_vectors_roundtrip(p: int) -> None:
    lat = lattice_for(p, "v")
    again = OLattice.from_vectors(lat.ctx, vectors(lat))
    assert lattice_equal(lat, again)


def test_contains_generators_and_scalings() -> None:
    params = TQFTParams.for_prime(7)
    lat = lattice_for(7, "v")
    zeta = params.ctx.zeta_pow(1)
    for vec in basis_v(params):
        assert contains_vector(lat, vec)
        assert contains_vector(lat, [zeta * c for c in vec])
        assert contains_vector(lat, [-c for c in vec])


def test_contains_rejects_wrong_width() -> None:
    lat = lattice_for(5, "e")
    with pytest.raises(ValueError):
        contains_vector(lat, basis_e(TQFTParams.for_prime(5))[0][:1])


def test_contains_rejects_a_vector_from_another_ring() -> None:
    # three p = 5 entries pass the width check of the width-3 p = 7 lattice;
    # shorter coordinate rows must not reach the reduction
    lat = lattice_for(7, "v")
    with pytest.raises(ValueError, match="cannot mix"):
        contains_vector(lat, [TQFTParams.for_prime(5).ctx.one] * 3)


def test_ambient_mismatch_rejected() -> None:
    with pytest.raises(ValueError):
        lattice_equal(lattice_for(5, "e"), lattice_for(7, "e"))
    with pytest.raises(ValueError):
        lattice_index(lattice_for(5, "e"), lattice_for(7, "e"))


# --- the lattice identities behind the basis theorems -------------------


@pytest.mark.parametrize("p", PRIMES)
def test_twist_orbit_lattice_equals_v_lattice(p: int) -> None:
    assert lattice_equal(lattice_for(p, "omega"), lattice_for(p, "v"))


def test_e_lattice_sits_under_v_with_index_25() -> None:
    e_lat, v_lat = lattice_for(5, "e"), lattice_for(5, "v")
    assert not lattice_equal(e_lat, v_lat)
    # [v-lattice : e-lattice] = |Norm(1 + A)| at p = 5
    assert lattice_index(e_lat, v_lat) == 25


def test_index_of_lattice_in_itself_is_one() -> None:
    for name in ("e", "v"):
        lat = lattice_for(5, name)
        assert lattice_index(lat, lat) == 1


def test_index_requires_containment() -> None:
    with pytest.raises(ValueError):
        lattice_index(lattice_for(5, "v"), lattice_for(5, "e"))


@pytest.mark.parametrize("p", (5, 7))
def test_stable_lattice_is_mapping_class_invariant(p: int) -> None:
    params = TQFTParams.for_prime(p)
    lat = lattice_for(p, "v")
    for op in (twist_op(params), s_matrix(params)):
        for vec in vectors(lat):
            assert contains_vector(lat, mat_vec(op, vec, params.ctx.zero))


# --- saturation ----------------------------------------------------------


@pytest.mark.parametrize("p", (5, 7))
def test_e_seed_saturates_to_v_lattice(p: int) -> None:
    params = TQFTParams.for_prime(p)
    seed = basis_e(params)
    report = saturate(params.ctx, seed, [twist_op(params), s_matrix(params)])
    assert report.stabilized
    assert report.iterations <= 5
    assert lattice_equal(report.lattice, lattice_for(p, "v"))


def test_v_seed_already_twist_stable() -> None:
    params = TQFTParams.for_prime(5)
    seed = basis_v(params)
    report = saturate(params.ctx, seed, [twist_op(params)])
    assert report.stabilized and report.iterations == 0


def test_omega_seed_twist_orbit() -> None:
    params = TQFTParams.for_prime(5)
    report = saturate(params.ctx, [omega(params)], [twist_op(params)])
    assert report.stabilized
    assert lattice_equal(report.lattice, lattice_for(5, "omega"))


def test_saturation_is_monotone() -> None:
    params = TQFTParams.for_prime(7)
    seed = basis_e(params)
    report = saturate(params.ctx, seed, [twist_op(params), s_matrix(params)])
    for vec in seed:
        assert contains_vector(report.lattice, vec)


def test_cap_reports_instead_of_asserting() -> None:
    params = TQFTParams.for_prime(5)
    ctx = params.ctx
    # dividing by a non-unit grows the denominator forever
    shrink = diagonal([ctx.inv(ctx.one + ctx.A)] * params.d, ctx.zero)
    report = saturate(ctx, basis_e(params), [shrink], cap=3)
    assert isinstance(report, SaturationReport)
    assert not report.stabilized
    assert report.iterations == 3
    assert report.to_json()["stabilized"] is False


def test_cap_keeps_the_lattice_after_exactly_cap_enlargements() -> None:
    # at p = 7 the e seed needs two enlargements, so cap=1 stops after the first
    params = TQFTParams.for_prime(7)
    ctx = params.ctx
    ops = [twist_op(params), s_matrix(params)]
    seed = basis_e(params)
    gens = vectors(OLattice.from_vectors(ctx, seed))
    step = [mat_vec(op, g, ctx.zero) for op in ops for g in gens]
    once = OLattice.from_vectors(ctx, gens + step)
    report = saturate(ctx, seed, ops, cap=1)
    assert report.iterations == 1 and not report.stabilized
    assert lattice_equal(report.lattice, once)
    assert not lattice_equal(report.lattice, lattice_for(7, "v"))


def test_cap_must_be_positive() -> None:
    params = TQFTParams.for_prime(5)
    with pytest.raises(ValueError):
        saturate(params.ctx, basis_e(params)[:1], [], cap=0)


# --- integer-row rounds against the CycNum route --------------------------


def cycnum_rounds(ctx, seed, ops, rounds: int) -> list[OLattice]:
    """The oracle route: each round maps the basis vectors by mat_vec and
    builds the next lattice from them and their images by from_vectors."""
    lat = OLattice.from_vectors(ctx, seed)
    out = []
    for _ in range(rounds):
        gens = vectors(lat)
        lat = OLattice.from_vectors(ctx, gens + [mat_vec(op, g, ctx.zero) for op in ops for g in gens])
        out.append(lat)
    return out


def random_operator(ctx, width: int, rng, dens=(1,)):
    return [
        [CycNum(ctx, tuple(rng.randint(-3, 3) for _ in range(ctx.phi)), rng.choice(dens))
         for _ in range(width)]
        for _ in range(width)
    ]


@pytest.mark.parametrize("p, n", [(5, 20), (7, 14)])
@pytest.mark.parametrize("kind", ("integral", "denominator", "t and S"))
def test_integer_rounds_match_the_cycnum_route(p: int, n: int, kind: str) -> None:
    params = TQFTParams.for_prime(p)
    ctx, d = params.ctx, params.d
    assert ctx.n == n
    rng = random.Random(2500 + 10 * p + len(kind))
    if kind == "t and S":
        seeds = [basis_e(params)]
        op_sets = [[twist_op(params), s_matrix(params)]]
    else:
        op_dens = (1,) if kind == "integral" else (1, 1, 2, 3)
        seeds = [[tuple(random_operator(ctx, d, rng)[0])] for _ in range(3)]
        op_sets = [[random_operator(ctx, d, rng, op_dens) for _ in range(rng.randint(1, 2))]
                   for _ in range(3)]
    rounds, dens = 3, []
    for seed, ops in zip(seeds, op_sets):
        oracle = cycnum_rounds(ctx, seed, ops, rounds)
        for k in range(1, rounds + 1):
            report = saturate(ctx, seed, ops, cap=k)
            assert lattice_equal(report.lattice, oracle[k - 1])
            assert report.iterations == k or (
                report.stabilized and lattice_equal(report.lattice, oracle[-1])
            )
        dens.append(max(lat.den for lat in oracle))
    assert (max(dens) > 1) == (kind != "integral")


def test_operator_from_another_ring_is_refused() -> None:
    params = TQFTParams.for_prime(7)
    other = TQFTParams.for_prime(5).ctx
    op = diagonal([other.one] * params.d, other.zero)
    with pytest.raises(ValueError, match="cannot mix"):
        saturate(params.ctx, basis_e(params), [twist_op(params), op])


def test_operator_of_the_wrong_shape_is_refused() -> None:
    params = TQFTParams.for_prime(7)
    ctx = params.ctx
    with pytest.raises(ValueError, match="3-by-3"):
        saturate(ctx, basis_e(params), [diagonal([ctx.one] * 2, ctx.zero)])
