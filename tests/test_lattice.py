import random
from functools import lru_cache

import pytest

from skeinlat.lattice import (
    OLattice,
    SaturationReport,
    hnf,
    lattice_equal,
    lattice_index,
    saturate,
)
from skeinlat.matrices import diagonal, mat_vec
from skeinlat.torus import (
    TQFTParams,
    basis_e,
    basis_omega,
    basis_v,
    omega,
    s_matrix,
)

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


# --- construction and membership ---------------------------------------


def test_from_vectors_rejects_empty_and_ragged() -> None:
    ctx = TQFTParams.for_prime(5).ctx
    with pytest.raises(ValueError):
        OLattice.from_vectors(ctx, [])
    e0, e1 = basis_e(TQFTParams.for_prime(5))
    with pytest.raises(ValueError):
        OLattice.from_vectors(ctx, [e0, e1[:1]])


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("name", ("e", "omega", "v"))
def test_full_rank_and_zeta_stable(p: int, name: str) -> None:
    lat = lattice_for(p, name)
    assert lat.rank == TQFTParams.for_prime(p).d * TQFTParams.for_prime(p).ctx.phi
    assert lat.zeta_stable()


@pytest.mark.parametrize("p", (5, 7))
def test_vectors_roundtrip(p: int) -> None:
    lat = lattice_for(p, "v")
    again = OLattice.from_vectors(lat.ctx, lat.vectors())
    assert lattice_equal(lat, again)


def test_contains_generators_and_scalings() -> None:
    params = TQFTParams.for_prime(7)
    lat = lattice_for(7, "v")
    zeta = params.ctx.zeta_pow(1)
    for vec in basis_v(params):
        assert lat.contains_vector(vec)
        assert lat.contains_vector([zeta * c for c in vec])
        assert lat.contains_vector([-c for c in vec])


def test_contains_rejects_wrong_width() -> None:
    lat = lattice_for(5, "e")
    with pytest.raises(ValueError):
        lat.contains_vector(basis_e(TQFTParams.for_prime(5))[0][:1])


def test_contains_rejects_a_vector_from_another_ring() -> None:
    # three p = 5 entries pass the width check of the width-3 p = 7 lattice;
    # shorter coordinate rows must not reach the reduction
    lat = lattice_for(7, "v")
    with pytest.raises(ValueError, match="cannot mix"):
        lat.contains_vector([TQFTParams.for_prime(5).ctx.one] * 3)


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
    for op in (twist_op(params), s_matrix(params, basis="e")):
        for vec in lat.vectors():
            assert lat.contains_vector(mat_vec(op, vec, params.ctx.zero))


# --- saturation ----------------------------------------------------------


@pytest.mark.parametrize("p", (5, 7))
def test_e_seed_saturates_to_v_lattice(p: int) -> None:
    params = TQFTParams.for_prime(p)
    seed = basis_e(params)
    report = saturate(params.ctx, seed, [twist_op(params), s_matrix(params, basis="e")])
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
    report = saturate(params.ctx, seed, [twist_op(params), s_matrix(params, basis="e")])
    for vec in seed:
        assert report.lattice.contains_vector(vec)


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
    ops = [twist_op(params), s_matrix(params, basis="e")]
    seed = basis_e(params)
    gens = OLattice.from_vectors(ctx, seed).vectors()
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
