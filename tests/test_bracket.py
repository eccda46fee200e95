"""Bracket evaluator: frozen anchors, moves, builders, divisibility."""

import random

import pytest

from skeinlat import bracket as bracket_module
from skeinlat.bracket import (
    COLORINGS,
    LaurentCoeffs,
    LinkDiagram,
    RootCoeffs,
    braid_components,
    braid_pd,
    cable_braid,
    delete_components,
    derivative_congruences,
    divisibility_certificate,
    kauffman_bracket,
    load_corpus,
    necklace_pd,
    root_divisibility,
    sublink_sums,
)
from skeinlat.cyclotomic import CycContext
from skeinlat.laurent import A, ONE, ZERO, IntLaurent, RefutationError
from skeinlat.recoupling import qint

DELTA = IntLaurent({2: -1, -2: -1})


def corpus_links():
    return load_corpus()


def bracket(word, strands):
    return kauffman_bracket(braid_pd(word, strands))


def colored(diagram):
    """<L(z+c)> for each coloring, read back from its divisibility certificate."""
    certs = divisibility_certificate(diagram)
    return {name: IntLaurent.from_json(cert["value"]) for name, cert in zip(COLORINGS, certs)}


# ---------------------------------------------------------------- anchors

def test_empty_diagram():
    assert kauffman_bracket(LinkDiagram(())) == ONE


def test_unknot_is_delta():
    assert kauffman_bracket(LinkDiagram((), 1)) == DELTA


def test_positive_kink():
    # closure of a single positive crossing: one curl, value -A^3 * delta
    assert bracket([1], 2) == -(A**3) * DELTA


def test_negative_kink():
    assert bracket([-1], 2) == -(A**-3) * DELTA


def test_hopf_link_frozen():
    # four-state resolution: A^2 d^2 + 2d + A^-2 d^2 = A^6+A^2+A^-2+A^-6
    assert bracket([1, 1], 2) == IntLaurent({6: 1, 2: 1, -2: 1, -6: 1})


def test_hopf_equals_quantum_four():
    # same value as [4] under q = A^2
    assert bracket([1, 1], 2) == qint(4).substitute_power(2)


def test_trefoil_frozen():
    assert bracket([1, 1, 1], 2) == IntLaurent({7: 1, 3: 1, -1: 1, -9: -1})


def test_figure_eight_amphichiral():
    f8 = bracket([1, -2, 1, -2], 3)
    assert f8 == f8.substitute_power(-1)
    assert f8 == IntLaurent({10: -1, -10: -1})


# ---------------------------------------------------------------- moves

def test_reidemeister_two():
    # inserting sigma_i sigma_i^{-1} never changes the bracket
    base = [1, 1, 1]
    for i in (1, -1, 2, -2):
        padded = base[:1] + [i, -i] + base[1:]
        assert bracket(padded, 3) == bracket(base, 3)


def test_reidemeister_three():
    assert bracket([1, 2, 1], 3) == bracket([2, 1, 2], 3)
    word = [1, 1, 2, 1, 2]
    swapped = [1, 1, 1, 2, 1]  # braid relation applied to the tail
    assert bracket(word, 3) == bracket(swapped, 3)


def test_markov_stabilization_curls():
    # appending sigma_n^{+-1} on n+1 strands multiplies by -A^{+-3}
    for word, strands in ([1, 1], 2), ([1, -2, 1, -2], 3):
        base = bracket(word, strands)
        up = bracket(list(word) + [strands], strands + 1)
        down = bracket(list(word) + [-strands], strands + 1)
        assert up == -(A**3) * base
        assert down == -(A**-3) * base


# Seeded moves of regular isotopy (Kauffman, Topology 26, 1987): each maker
# draws a random braid word on 3 or 4 strands and returns it before and after
# one move, with at most 10 crossings either way.

def _word(rng, strands, longest):
    return [rng.choice((1, -1)) * rng.randrange(1, strands)
            for _ in range(rng.randrange(longest + 1))]


def _splice(rng, word, before, after):
    k = rng.randrange(len(word) + 1)
    return word[:k] + before + word[k:], word[:k] + after + word[k:]


def _inverse_pair(rng):
    strands = rng.choice((3, 4))
    word = _word(rng, strands, 8)
    g = rng.choice((1, -1)) * rng.randrange(1, strands)
    return (*_splice(rng, word, [], [g, -g]), strands)


def _braid_relation(rng):
    strands = rng.choice((3, 4))
    i, s = rng.randrange(1, strands - 1), rng.choice((1, -1))
    word = _word(rng, strands, 7)
    return (*_splice(rng, word, [s * i, s * (i + 1), s * i],
                     [s * (i + 1), s * i, s * (i + 1)]), strands)


def _far_commute(rng):
    a, b = rng.choice((1, -1)), rng.choice((3, -3))
    word = _word(rng, 4, 8)
    return (*_splice(rng, word, [a, b], [b, a]), 4)


def _rotate(rng):
    strands = rng.choice((3, 4))
    word = _word(rng, strands, 10)
    k = rng.randrange(len(word) + 1)
    return word, word[k:] + word[:k], strands


BRAID_MOVES = {
    "inverse-pair": _inverse_pair,
    "braid-relation": _braid_relation,
    "far-commute": _far_commute,
    "rotate": _rotate,
}


@pytest.mark.parametrize("move", BRAID_MOVES)
def test_seeded_braid_moves_keep_the_bracket(move):
    rng = random.Random(20261018 + sorted(BRAID_MOVES).index(move))
    for _ in range(25):
        before, after, strands = BRAID_MOVES[move](rng)
        assert len(before) <= 10 and len(after) <= 10
        assert bracket(after, strands) == bracket(before, strands), (before, after)
        for word in (before, after):
            assert braid_pd(word, strands).mu == len(braid_components(word, strands))


# ---------------------------------------------------------------- state-sum oracle

def brute_force_bracket(diagram, ring):
    """Oracle for kauffman_bracket: the sum over all 2^n resolutions, with
    the loops of each counted by union-find on the crossing slots, over
    Z[A, A^-1] or at the root of unity of CycContext(ring)."""
    if ring == "laurent":
        a_pow = A.__pow__
    else:
        a_pow = CycContext(ring).A_pow
    delta = -(a_pow(2) + a_pow(-2))
    pd = diagram.pd
    slots_of_arc = {}
    for i, cr in enumerate(pd):
        for k, a in enumerate(cr):
            slots_of_arc.setdefault(a, []).append((i, k))

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    total = None
    for state in range(1 << len(pd)):
        parent = {(i, k): (i, k) for i in range(len(pd)) for k in range(4)}
        joins = [tuple(slots) for slots in slots_of_arc.values()]
        a_sides = 0
        for i in range(len(pd)):
            if state >> i & 1:
                joins += [((i, 0), (i, 3)), ((i, 1), (i, 2))]
            else:
                joins += [((i, 0), (i, 1)), ((i, 2), (i, 3))]
                a_sides += 1
        for x, y in joins:
            parent[find(parent, x)] = find(parent, y)
        loops = len({find(parent, x) for x in parent}) + diagram.loops
        term = a_pow(2 * a_sides - len(pd))
        for _ in range(loops):
            term = term * delta
        total = term if total is None else total + term
    return total


def random_closure(rng, longest):
    strands = rng.randrange(1, 5)
    if strands == 1:
        return braid_pd([], 1)
    return braid_pd(_word(rng, strands, longest), strands)


# Brute force runs in the first three rings; the primes after them bring
# the other sizes of Z[x]/(x^(n/2) + 1) that RootCoeffs folds into, n = 2p
# (p = 3, 11) and n = 4p (p = 13), at no brute-force cost
BRUTE_RINGS = ("laurent", 5, 7)
RINGS = BRUTE_RINGS + (3, 11, 13)
ROOT_PRIMES = (3, 5, 7, 11, 13)


def ring_coeffs(ring):
    return LaurentCoeffs if ring == "laurent" else RootCoeffs(CycContext(ring))


def reference_bracket(diagram, ring):
    """brute_force_bracket in BRUTE_RINGS; at the other primes the Laurent
    state sum specialized at the root of unity."""
    if ring in BRUTE_RINGS:
        return brute_force_bracket(diagram, ring)
    return CycContext(ring).from_A_laurent(kauffman_bracket(diagram))


@pytest.mark.parametrize("ring", RINGS)
def test_state_sum_matches_brute_force_seeded(ring):
    coeffs = ring_coeffs(ring)
    rng = random.Random(1510 + (0 if ring == "laurent" else ring))
    for _ in range(25):
        diagram = random_closure(rng, 10)
        assert diagram.crossings <= 10
        assert kauffman_bracket(diagram, coeffs) == reference_bracket(diagram, ring), diagram


def split_kinks(signs):
    """Disjoint one-crossing unknots, kinked by the signs, as one diagram."""
    pd = []
    for k, sign in enumerate(signs):
        pd += [tuple(a + 10 * k for a in cr) for cr in braid_pd([sign], 2).pd]
    return LinkDiagram(tuple(pd))


@pytest.mark.parametrize("ring", RINGS)
def test_split_kinks_match_brute_force(ring):
    # n split kinks close up to 2n loops in one state, the most any n
    # crossings have, so the packed values carry the widest coefficients
    coeffs = ring_coeffs(ring)
    rng = random.Random(2110)
    for n in range(1, 10):
        diagram = split_kinks([rng.choice((1, -1)) for _ in range(n)])
        assert kauffman_bracket(diagram, coeffs) == reference_bracket(diagram, ring)


def test_many_split_kinks_match_their_product():
    # each kink is -A^(+-3) delta, and at 48 kinks the coefficients of
    # delta^48 reach binomial(48, 24) > 2^44, past any fixed narrow slot
    signs = [1, -1, -1] * 16
    expected = ONE
    for sign in signs:
        expected = expected * (-(A ** (3 * sign))) * DELTA
    assert max(abs(c) for c in expected.c.values()) > 2 ** 44
    assert kauffman_bracket(split_kinks(signs)) == expected


@pytest.mark.parametrize("p", ROOT_PRIMES)
def test_many_split_kinks_at_every_root(p):
    # the same 48 kinks at each root: the folded slots of the packed
    # negacyclic values are bounded by the l1 norm, 2^48 here, not by the
    # largest Laurent coefficient
    ctx = CycContext(p)
    diagram = split_kinks([1, -1, -1] * 16)
    expected = ctx.from_A_laurent(kauffman_bracket(diagram))
    assert kauffman_bracket(diagram, RootCoeffs(ctx)) == expected


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("pairs", [30, 31, 70])
def test_reidemeister_two_padding_past_the_byte_matchings(ring, pairs):
    # n crossings have 4n arc ends; 30 / 31 / 70 sigma_1 sigma_1^-1 pairs
    # bring 3 crossings to 252 / 260 / 572 ends, either side of the largest
    # matching whose entries fit in a byte, and far past it
    coeffs = ring_coeffs(ring)
    word = [1, -2, 1]
    padded = braid_pd([1, -1] * pairs + word, 3)
    assert padded.crossings == 2 * pairs + 3
    got = kauffman_bracket(padded, coeffs)
    assert got == kauffman_bracket(braid_pd(word, 3), coeffs)
    if ring != "laurent":
        assert got == CycContext(ring).from_A_laurent(kauffman_bracket(padded))


def test_matchings_either_side_of_the_byte_width(monkeypatch):
    # 4n arc ends for n crossings: 63 crossings (252 ends) stay on byte
    # matchings, 64 (256 ends) are the first to take the wide ones, and a
    # sigma_1 sigma_1^-1 pair cancels on either path
    wide_matchings = []
    real_array = bracket_module.array

    def spy(*args):
        wide_matchings.append(args)
        return real_array(*args)

    monkeypatch.setattr(bracket_module, "array", spy)
    narrow = braid_pd([1, -1] * 31 + [1], 2)
    assert narrow.crossings == 63
    assert kauffman_bracket(narrow) == kauffman_bracket(braid_pd([1], 2))
    assert kauffman_bracket(narrow) == IntLaurent({1: 1, 5: 1})
    assert wide_matchings == []
    wide = braid_pd([1, -1] * 32, 2)
    assert wide.crossings == 64
    assert kauffman_bracket(wide) == kauffman_bracket(LinkDiagram((), 2))
    assert kauffman_bracket(wide) == IntLaurent({4: 1, 0: 2, -4: 1})
    assert len(wide_matchings) == 2
    # a seeded word with nothing to cancel, on the wide path over Z[A, A^-1]
    # and at every root
    rng = random.Random(6470)
    diagram = braid_pd([rng.choice((1, -1)) * rng.randrange(1, 3) for _ in range(70)], 3)
    assert diagram.crossings == 70
    laurent = kauffman_bracket(diagram)
    for p in ROOT_PRIMES:
        ctx = CycContext(p)
        assert kauffman_bracket(diagram, RootCoeffs(ctx)) == ctx.from_A_laurent(laurent), p
    assert len(wide_matchings) == 3 + len(ROOT_PRIMES)


class UncheckedDiagram(LinkDiagram):
    def __post_init__(self):
        pass


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("pd", [((1, 2, 3, 4),), ((1, 1, 2, 3),)], ids=["two-states", "one-state"])
def test_state_sum_that_does_not_close_up_is_refuted(ring, pd):
    # arcs that meet the crossing once leave dangling ends: the two
    # resolutions of the first leave two matchings, those of the second
    # one matching that is not empty
    with pytest.raises(RefutationError, match="did not close up"):
        kauffman_bracket(UncheckedDiagram(pd), ring_coeffs(ring))


def greedy_order_reference(pd):
    """Oracle for _crossing_order: the quadratic greedy that rescans every
    remaining crossing's score on each pick."""
    remaining = set(range(len(pd)))
    seen = set()
    order = []
    while remaining:
        best = max(sorted(remaining), key=lambda i: sum(1 for a in pd[i] if a in seen))
        order.append(best)
        remaining.discard(best)
        seen.update(pd[best])
    return order


def test_crossing_order_matches_the_quadratic_greedy():
    rng = random.Random(1520)
    diagrams = [random_closure(rng, 32) for _ in range(200)]
    diagrams += [LinkDiagram.from_json(entry) for entry in corpus_links()]
    for diagram in diagrams:
        got = bracket_module._crossing_order(diagram.pd)
        assert got == greedy_order_reference(diagram.pd), diagram.pd


# ---------------------------------------------------------------- corpus

def test_corpus_structure():
    names = [e["name"] for e in corpus_links()]
    assert names == [
        "unknot0", "unknot_plus", "unknot_minus", "hopf",
        "trefoil", "figure8", "whitehead", "borromean",
        "torus_2_12", "torus_3_6",
    ]
    for entry in corpus_links():
        diag = LinkDiagram.from_json(entry)
        assert diag.mu == entry["mu"]
        assert diag.crossings == entry["crossings"]
        assert diag.crossings <= 12 and diag.mu <= 3
        assert braid_components(entry["braid"], entry["strands"]) is not None


def test_corpus_stored_pd_matches_braid():
    for entry in corpus_links():
        rebuilt = braid_pd(entry["braid"], entry["strands"])
        stored = LinkDiagram.from_json(entry)
        assert kauffman_bracket(rebuilt) == kauffman_bracket(stored)


# ---------------------------------------------------------------- deletion

def test_hopf_deletions():
    hopf = braid_pd([1, 1], 2)
    for k in (0, 1):
        assert kauffman_bracket(delete_components(hopf, {k})) == DELTA
    assert kauffman_bracket(delete_components(hopf, {0, 1})) == ONE


def test_borromean_brunnian():
    # removing any single ring leaves a split-looking two-component bracket d^2
    borr = braid_pd([1, -2, 1, -2, 1, -2], 3)
    for k in range(3):
        sub = delete_components(borr, {k})
        assert kauffman_bracket(sub) == DELTA * DELTA


def test_delete_nothing_is_identity():
    tref = braid_pd([1, 1, 1], 2)
    assert kauffman_bracket(delete_components(tref, set())) == kauffman_bracket(tref)


# ---------------------------------------------------------------- sublink sums

def test_unknot_z_plus_2():
    assert colored(LinkDiagram((), 1))["z+2"] == DELTA + IntLaurent({0: 2})


def test_hopf_z_plus_2():
    hopf = braid_pd([1, 1], 2)
    expected = bracket([1, 1], 2) + IntLaurent({0: 4}) * DELTA + IntLaurent({0: 4})
    assert colored(hopf)["z+2"] == expected


def test_unknot_z_plus_q2_vanishes():
    # delta + [2] = 0: the (z + A^2 + A^-2)-colored unknot dies identically
    assert colored(LinkDiagram((), 1))["z+[2]"] == ZERO


def test_sublink_sums_start_at_the_bracket():
    # s_0 = <L>; s_k gathers the sublinks with k components deleted
    tref = braid_pd([1, 1, 1], 2)
    assert sublink_sums(tref) == [kauffman_bracket(tref), ONE]
    assert sublink_sums(braid_pd([1, 1], 2)) == [bracket([1, 1], 2), DELTA * 2, ONE]


def braid_word_sublink_sums(word, strands):
    """Oracle for sublink_sums on a braid closure: each sublink's bracket
    from the braid word with the deleted components' strands taken out,
    never from the diagram's arcs."""
    comps = braid_components(word, strands)
    sums = [ZERO] * (len(comps) + 1)
    for mask in range(1 << len(comps)):
        dead = {s for k, cycle in enumerate(comps) if mask >> k & 1 for s in cycle}
        pos = list(range(strands))  # pos[p] = starting strand now at position p
        sub = []
        for g in word:
            i = abs(g) - 1
            if pos[i] not in dead and pos[i + 1] not in dead:
                rank = 1 + sum(1 for p in range(i) if pos[p] not in dead)
                sub.append(rank if g > 0 else -rank)
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        left = strands - len(dead)
        sums[bin(mask).count("1")] += bracket(sub, left) if left else ONE
    return sums


def test_sublink_sums_match_braid_word_deletions_seeded():
    # strands that meet no crossing give crossing-free loops, and deleting
    # a component can strip a kept one of every crossing
    rng = random.Random(2111)
    for _ in range(30):
        strands = rng.randrange(2, 6)
        word = _word(rng, strands, 14)
        expected = braid_word_sublink_sums(word, strands)
        assert sublink_sums(braid_pd(word, strands)) == expected, word


def count_component_walks(monkeypatch):
    """The pd of every walk along a diagram's components, as it happens."""
    walked = []
    inner = bracket_module._slot_walks

    def counted(pd):
        walked.append(pd)
        return inner(pd)

    monkeypatch.setattr(bracket_module, "_slot_walks", counted)
    return walked


def test_sublink_sums_find_the_components_once(monkeypatch):
    # the 2^mu deletions share one component walk of the parent diagram
    borr = braid_pd([1, -2, 1, -2, 1, -2], 3)
    walked = count_component_walks(monkeypatch)
    sums = sublink_sums(borr)
    assert walked == [borr.pd]
    monkeypatch.undo()
    assert sums == [kauffman_bracket(borr), 3 * DELTA * DELTA, 3 * DELTA, ONE]


# ---------------------------------------------------------------- divisibility

def test_divisibility_certificates_corpus():
    for entry in corpus_links():
        diag = LinkDiagram.from_json(entry)
        certs = divisibility_certificate(diag)
        assert [c["claim"] for c in certs] == [f"(1+A)^mu divides <L({n})>" for n in COLORINGS]
        for cert in certs:
            assert cert["ok"], (entry["name"], cert)
            assert cert["mu"] == entry["mu"]


def test_divisibility_quotient_exact():
    hopf = braid_pd([1, 1], 2)
    cert = divisibility_certificate(hopf)[0]
    quotient = IntLaurent.from_json(cert["quotient"])
    value = IntLaurent.from_json(cert["value"])
    one_plus = IntLaurent({0: 1, 1: 1})
    assert quotient * one_plus * one_plus == value


def test_unknot_loops_attain_double_valuation():
    # 2 + delta = -A^-2 (A-1)^2 (A+1)^2, so each loop contributes (1+A)^2
    # and the mu-fold claim holds with room to spare
    diag = LinkDiagram((), 2)
    cert = divisibility_certificate(diag)[0]
    assert cert["ok"] and cert["mu"] == 2
    f = IntLaurent.from_json(cert["value"])
    assert f.val_one_plus_var()[0] == 4
    # beyond the true valuation both detection routes say no
    assert not derivative_congruences(f, 5, 7)
    assert not root_divisibility(f, 5, CycContext(7))


def test_divisibility_certificate_refutation_shape():
    # claim an exponent past the true valuation to see the refutation
    # payload; honest diagrams never reach this branch, since the
    # certificate reads mu off its own sublink pass
    z2, zq2 = (
        bracket_module._power_certificate(c["claim"], IntLaurent.from_json(c["value"]), 5)
        for c in divisibility_certificate(LinkDiagram((), 2))
    )
    assert not z2["ok"]
    assert z2["refutation"]["attained_valuation"] == 4
    # the z+[2] value is zero, which every power of (1+A) divides
    assert zq2["ok"] and zq2["mu"] == 5


def test_divisibility_certificate_finds_the_components_once(monkeypatch):
    # the sublink pass walks the components, and mu is its length less one
    hopf = braid_pd([1, 1], 2)
    walked = count_component_walks(monkeypatch)
    assert [c["mu"] for c in divisibility_certificate(hopf)] == [2, 2]
    assert walked == [hopf.pd]


def test_derivative_congruence_rejects_constant():
    assert not derivative_congruences(ONE, 1, 5)
    assert not root_divisibility(ONE, 1, CycContext(5))


def test_derivative_congruence_accepts_shifted_powers():
    one_plus = IntLaurent({0: 1, 1: 1})
    g = IntLaurent({-3: 2, 0: 1, 2: -5})
    f = one_plus * one_plus * g
    for p in (5, 7):
        assert derivative_congruences(f, 2, p)
        assert root_divisibility(f, 2, CycContext(p))
    # g(-1) = 2 + 1 - 5 = -2, not divisible by 5 or 7, so mu=3 fails
    for p in (5, 7):
        assert not derivative_congruences(f, 3, p)
        assert not root_divisibility(f, 3, CycContext(p))


def test_p_multiple_counts_toward_congruence_but_not_valuation():
    # f = 5: every derivative vanishes mod 5, yet f(zeta) is a unit times 5,
    # whose (1-q)-valuation is p-1 = 4, so both routes still agree for mu <= 4
    f = IntLaurent({0: 5})
    ctx = CycContext(5)
    for mu in range(1, 5):
        assert derivative_congruences(f, mu, 5)
        assert root_divisibility(f, mu, ctx)


def test_dual_route_random_agreement():
    rng = random.Random(20260816)
    contexts = {5: CycContext(5), 7: CycContext(7)}
    for _ in range(30):
        f = IntLaurent({e: rng.randrange(-9, 10) for e in range(-6, 7)})
        for mu in range(4):
            for p, ctx in contexts.items():
                assert derivative_congruences(f, mu, p) == root_divisibility(f, mu, ctx)


def test_corpus_dual_route_agreement():
    for entry in corpus_links():
        f = colored(LinkDiagram.from_json(entry))["z+2"]
        for p in (5, 7):
            assert derivative_congruences(f, entry["mu"], p)
            assert root_divisibility(f, entry["mu"], CycContext(p))


# ---------------------------------------------------------------- cabling

def test_two_cable_of_kink():
    word, strands = cable_braid([1], 2, [2, 2])
    assert strands == 4
    got = kauffman_bracket(braid_pd(word, strands))
    assert got == IntLaurent({0: 1, 4: 1, 8: 1, 12: 1})


def test_hopf_one_two_cable_matches_pairing_formula():
    # z on one component, z^2 = e_2 + e_0 on the other:
    # value is -[6] - [2] under q = A^2
    word, strands = cable_braid([1, 1], 2, [1, 2])
    got = kauffman_bracket(braid_pd(word, strands))
    expected = -(qint(6) + qint(2)).substitute_power(2)
    assert got == expected


def test_cable_width_one_is_identity():
    word, strands = cable_braid([1, -2, 1, -2], 3, [1, 1, 1])
    assert word == [1, -2, 1, -2] and strands == 3


def test_cable_rejects_mismatched_widths():
    # both strands of the kink braid close to one component
    with pytest.raises(ValueError):
        cable_braid([1], 2, [1, 2])


def test_cable_zero_width_erases_component():
    word, strands = cable_braid([1, 1], 2, [0, 1])
    value = kauffman_bracket(braid_pd(word, strands))
    assert value == DELTA


# ---------------------------------------------------------------- necklaces

def test_necklace_single_circle_no_cores():
    assert kauffman_bracket(necklace_pd([1], [])) == DELTA


def test_necklace_hopf():
    got = kauffman_bracket(necklace_pd([1], [[0]]))
    assert got == IntLaurent({6: 1, 2: 1, -2: 1, -6: 1})


def test_necklace_crossing_counts():
    assert necklace_pd([2], [[0]]).crossings == 4
    assert necklace_pd([1, 1], [[0, 1]]).crossings == 4
    assert necklace_pd([2, 1], [[0], [0, 1]]).crossings == 4 + 6


def test_necklace_width_zero_circle_vanishes():
    # zero-cabling erases a circle, matching cable_braid semantics
    plain = kauffman_bracket(necklace_pd([1], [[0]]))
    padded = kauffman_bracket(necklace_pd([1, 0], [[0]]))
    assert padded == plain
    # threading only a vanished circle leaves the core as a bare unknot
    assert kauffman_bracket(necklace_pd([0], [[0]])) == DELTA


def test_necklace_two_cores_through_one_circle():
    # both cores clasp the same circle once: bracket of a (2,1)-pattern chain
    diag = necklace_pd([1], [[0], [0]])
    assert diag.mu == 3
    got = kauffman_bracket(diag)
    conj = got.substitute_power(-1)
    assert got == conj  # chain is amphichiral as an unoriented link


def test_necklace_matches_cable_on_doubled_circle():
    # width-2 circle with one core = (1,2)-cable of the Hopf link
    got = kauffman_bracket(necklace_pd([2], [[0]]))
    word, strands = cable_braid([1, 1], 2, [1, 2])
    assert got == kauffman_bracket(braid_pd(word, strands))


# ---------------------------------------------------------------- evaluation at a root

def test_root_coefficient_evaluation():
    ctx = CycContext(5)
    coeffs = RootCoeffs(ctx)
    hopf = braid_pd([1, 1], 2)
    exact = kauffman_bracket(hopf)
    at_root = kauffman_bracket(hopf, coeffs=coeffs)
    assert at_root == ctx.from_A_laurent(exact)


# ---------------------------------------------------------------- errors

def test_bad_pd_rejected():
    with pytest.raises(ValueError):
        LinkDiagram(((0, 1, 2, 3), (0, 1, 2, 4)))


def test_roundtrip_json():
    tref = braid_pd([1, 1, 1], 2)
    again = LinkDiagram.from_json({"pd": [list(cr) for cr in tref.pd], "loops": tref.loops})
    assert again == tref


def test_corpus_loader_rejects_garbage(tmp_path):
    bad = tmp_path / "corpus.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load_corpus(str(bad))
    bad.write_text('{"links": []}')
    with pytest.raises(ValueError):
        load_corpus(str(bad))
    bad.write_text('{"links": [{"name": "x"}]}')
    with pytest.raises(ValueError):
        load_corpus(str(bad))
