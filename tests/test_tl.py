"""Diagrammatic oracle: loop-counted networks against the closed forms."""

import itertools

import pytest

from skeinlat.laurent import IntLaurent
from skeinlat.recoupling import (
    admissible,
    qint,
    quantum_dim,
    tet,
    theta,
)

from oracles import QFrac, delta_loop
from tl_oracle import (
    TLElement,
    cup_cap,
    identity,
    jones_wenzl,
    merge,
    tet_net,
    theta_net,
    vertex,
    w_spread,
)


def test_tl_relations():
    n = 4
    d = QFrac(delta_loop())
    for i in range(n - 1):
        u = cup_cap(n, i)
        assert u.compose(u) == u.scale(d)
        for j in range(n - 1):
            if abs(i - j) == 1:
                assert u.compose(cup_cap(n, j)).compose(u) == u
            elif i != j:
                v = cup_cap(n, j)
                assert u.compose(v) == v.compose(u)


def test_identity_neutral():
    u = cup_cap(3, 1)
    assert identity(3).compose(u) == u
    assert u.compose(identity(3)) == u


def test_wenzl_idempotent_and_kills_cups():
    for n in range(6):
        f = jones_wenzl(n)
        assert f.compose(f) == f
        for i in range(n - 1):
            assert f.compose(cup_cap(n, i)).is_zero()
            assert cup_cap(n, i).compose(f).is_zero()


def test_wenzl_trace_is_loop_value():
    for n in range(7):
        assert jones_wenzl(n).trace() == QFrac(quantum_dim(n))


def test_wenzl_symmetric_under_flip():
    for n in range(6):
        f = jones_wenzl(n)
        assert f.transpose() == f


def test_wenzl_two_strand_coefficients():
    f = jones_wenzl(2)
    ident = frozenset({frozenset({0, 2}), frozenset({1, 3})})
    cup = frozenset({frozenset({0, 1}), frozenset({2, 3})})
    assert f.pre * QFrac(f.terms[ident]) == QFrac(1)
    assert f.pre * QFrac(f.terms[cup]) == QFrac(IntLaurent(1), qint(2))


def test_theta_against_closed_form():
    count = 0
    for a, b, c in itertools.product(range(5), repeat=3):
        if admissible(a, b, c):
            assert theta_net(a, b, c) == theta(a, b, c), (a, b, c)
            count += 1
    assert count == 42


def test_theta_color_zero_is_loop_value():
    for i in range(6):
        assert theta_net(i, i, 0) == QFrac(quantum_dim(i))


def test_theta_frozen_values():
    assert theta_net(1, 1, 2) == QFrac(qint(3))
    d = delta_loop()
    want = QFrac(d ** 4 - IntLaurent(3) * d * d + IntLaurent(2), d)
    assert theta_net(2, 2, 2) == want


def test_tet_against_closed_form():
    count = 0
    for key in itertools.product(range(4), repeat=6):
        a, b, e, c, d, f = key
        if all(admissible(*t) for t in ((a, b, e), (c, d, e), (a, d, f), (b, c, f))):
            assert tet_net(*key) == tet(*key), key
            count += 1
    assert count == 181


def test_tet_degenerates_to_theta():
    for a, b in itertools.product(range(4), repeat=2):
        for e in range(a + b + 1):
            if admissible(a, b, e):
                assert tet_net(a, b, e, b, a, 0) == theta(a, b, e)


def test_inadmissible_rejected():
    with pytest.raises(ValueError):
        w_spread(1, 1, 1)
    with pytest.raises(ValueError):
        tet_net(1, 1, 1, 1, 1, 1)


def test_vertex_absorbs_projectors():
    for a, b, c in ((1, 1, 2), (2, 1, 1), (2, 2, 2), (3, 2, 1)):
        v = vertex(a, b, c)
        fab = jones_wenzl(a).tensor(jones_wenzl(b))
        assert fab.compose(v) == v
        assert v.compose(jones_wenzl(c)) == v


def test_bubble_collapse():
    # merging two vertices along both legs is diagonal in the third color,
    # with the theta-over-loop-value scalar
    for a, b in ((1, 1), (2, 1), (2, 2)):
        colors = [c for c in range(a + b + 1) if admissible(a, b, c)]
        for c1 in colors:
            for c2 in colors:
                bubble = merge(a, b, c2).compose(vertex(a, b, c1))
                if c1 != c2:
                    assert bubble.is_zero(), (a, b, c1, c2)
                else:
                    scalar = theta(a, b, c1) / QFrac(quantum_dim(c1))
                    assert bubble == jones_wenzl(c1).scale(scalar)


def test_fusion_resolves_parallel_strands():
    # f_a (x) f_b = sum over c of (loop value / theta) vertex . merge
    for a, b in ((1, 1), (2, 1), (2, 2)):
        total = None
        for c in range(a + b + 1):
            if not admissible(a, b, c):
                continue
            coeff = QFrac(quantum_dim(c)) / theta(a, b, c)
            term = vertex(a, b, c).compose(merge(a, b, c)).scale(coeff)
            total = term if total is None else total + term
        assert total == jones_wenzl(a).tensor(jones_wenzl(b))
