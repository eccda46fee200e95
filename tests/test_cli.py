import ast
import hashlib
import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from functools import lru_cache

import pytest

import skeinlat
from skeinlat import annulus, bracket, cli, planar, torus
from skeinlat.bracket import load_corpus
from skeinlat.cli import MAX_P_HEAVY, checked_primes, main
from skeinlat.cyclotomic import CycContext
from skeinlat.laurent import RefutationError
from skeinlat.recoupling import count_spine_colorings
from skeinlat.torus import TQFTParams


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# --- input checks ---------------------------------------------------------


def test_config_rejects_nine() -> None:
    with pytest.raises(ValueError, match="odd prime"):
        checked_primes((9,), MAX_P_HEAVY, "genus2")


def test_config_rejects_even_and_small() -> None:
    for p in (2, 4, 15, 1):
        with pytest.raises(ValueError, match="odd prime"):
            checked_primes((p,), MAX_P_HEAVY, "genus2")


def test_config_genus2_needs_p5() -> None:
    assert checked_primes((3,), MAX_P_HEAVY, "stabilize") == (3,)
    with pytest.raises(ValueError, match="genus >= 2 claims need p >= 5"):
        checked_primes((3,), MAX_P_HEAVY, "genus2", min_p=5)


def test_config_budget_keeps_the_measured_primes() -> None:
    assert checked_primes((5, 7, 11, 13), MAX_P_HEAVY, "verify-all") == (5, 7, 11, 13)
    with pytest.raises(ValueError, match="p <= 13"):
        checked_primes((5, 17), MAX_P_HEAVY, "verify-all")


INPUT_CHECKS = [
    (verb + ["--p", "9"], 2, "odd prime")
    for verb in (["genus1"], ["genus2"], ["rank", "--genus", "2"], ["stabilize"], ["verify-all"])
] + [
    (["verify-all", "--p", "5,5"], 2, "each p may be given once"),
    (["genus2", "--p", "3"], 2, "genus >= 2 claims need p >= 5"),
    (["verify-all", "--p", "3"], 2, "genus >= 2 claims need p >= 5"),
    (["bracket", "--cap-crossings", "0"], 2, "caps must be positive"),
    (["verify-all", "--p", "5", "--cap-crossings", "-1"], 2, "caps must be positive"),
    (["rank", "--p", "5", "--genus", "0"], 2, "1 <= genus <= 12"),
    (["genus1", "--p", "3"], 0, '"ok": true'),
    (["stabilize", "--p", "3"], 0, '"matches_v_lattice": true'),
    (["rank", "--p", "3", "--genus", "2"], 0, '"rank": 1,'),
    (["rank", "--p", "3", "--genus", "12"], 0, '"rank": 1,'),
]


@pytest.mark.parametrize(
    "argv, code, said",
    [pytest.param(*row, id=" ".join(row[0])) for row in INPUT_CHECKS],
)
def test_each_verb_checks_its_input(capsys, argv, code, said) -> None:
    # every verb checks the inputs it reads: a refusal is exit 2 with an
    # error on stderr and nothing on stdout; p = 3 is refused only by the
    # verbs that make genus >= 2 claims, and the rank there is 1 in every
    # genus (exit 0 is the verb's ok)
    got, out, err = run(capsys, *argv)
    assert got == code
    if code:
        assert out == "" and err.startswith("error:") and said in err
    else:
        assert err == "" and said in out


@pytest.mark.parametrize("verb", ["stabilize", "verify-all"])
def test_cap_iter_is_not_an_option(capsys, verb) -> None:
    with pytest.raises(SystemExit) as exc:
        main([verb, "--p", "5", "--cap-iter", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap-iter 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["genus2", "--p", "101"],
        ["stabilize", "--p", "17"],
        ["verify-all", "--p", "5,17"],
    ],
    ids=["genus2", "stabilize", "verify-all"],
)
def test_heavy_verbs_refuse_primes_over_budget(capsys, argv) -> None:
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "p <= 13" in err


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["genus1", "--p", "61"], "p <= 59"),
        (["genus1", "--p", "61", "--emit", "gram"], "p <= 59"),
        (["rank", "--p", "223", "--genus", "2"], "p <= 211"),
        (["rank", "--p", "13", "--genus", "13"], "genus <= 12"),
        (["rank", "--p", "13", "--genus", "200"], "genus <= 12"),
        (["rank", "--p", "13", "--genus", "1000"], "genus <= 12"),
    ],
    ids=["genus1", "genus1-gram", "rank-p", "rank-genus", "rank-genus-200", "rank-genus-1000"],
)
def test_light_verbs_refuse_inputs_over_budget(capsys, argv, limit) -> None:
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and limit in err


# --- single verbs -----------------------------------------------------------


def test_genus1_certificate_schema(capsys) -> None:
    code, out, _ = run(capsys, "genus1", "--p", "5", "--basis", "v")
    cert = json.loads(out)
    assert code == 0
    assert cert["p"] == 5 and cert["basis"] == "v"
    assert cert["unit"] is True and cert["associate_exponent"] == 0
    assert "det" in cert


def test_genus1_e_basis_nonunit(capsys) -> None:
    code, out, _ = run(capsys, "genus1", "--p", "7", "--basis", "e")
    cert = json.loads(out)
    assert code == 0  # cofactor is a unit even though det is not
    assert cert["unit"] is False
    assert cert["associate_exponent"] == 6  # d(d-1) at d = 3


def test_genus1_gram_emission(capsys) -> None:
    code, out, _ = run(capsys, "genus1", "--p", "5", "--emit", "gram")
    payload = json.loads(out)
    assert code == 0
    assert len(payload["gram"]) == 2 and len(payload["gram"][0]) == 2


def test_bad_p_is_a_usage_error(capsys) -> None:
    code, out, err = run(capsys, "genus1", "--p", "9")
    assert code == 2 and out == "" and "odd prime" in err


def test_rank_verb(capsys) -> None:
    code, out, _ = run(capsys, "rank", "--p", "5", "--genus", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["rank"] == payload["verlinde"] == 15


@pytest.mark.parametrize("p, genus", [(101, 3), (13, 10)])
def test_rank_verb_is_exact_at_large_ranks(capsys, p, genus) -> None:
    # ranks 737889335 and 6102008399982820, compared as integers
    code, out, _ = run(capsys, "rank", "--p", str(p), "--genus", str(genus))
    payload = json.loads(out)
    assert code == 0 and payload["rank"] == payload["verlinde"]


def test_rank_entry_fails_when_the_trace_is_off_by_one(capsys, monkeypatch) -> None:
    monkeypatch.setattr(cli, "verlinde_rank", lambda ctx, g: count_spine_colorings(g, ctx.p) + 1)
    code, out, _ = run(capsys, "rank", "--p", "13", "--genus", "3")
    assert code == 1 and json.loads(out)["ok"] is False


def test_a_refuted_trace_fails_its_verify_all_entries(capsys, monkeypatch) -> None:
    def refuted(ctx, genus):
        raise RefutationError(f"genus-{genus} Verlinde trace at p = {ctx.p} is 1/2")

    monkeypatch.setattr(cli, "verlinde_rank", refuted)
    code, out, _ = run(capsys, "verify-all", "--p", "5")
    failing = [c for c in json.loads(out) if not c["ok"]]
    assert code == 1
    assert [(c["claim"], c["error"]) for c in failing] == [
        (f"genus-{g} rank", f"genus-{g} Verlinde trace at p = 5 is 1/2") for g in (1, 2, 3)
    ]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_rank_entries_hold_up_to_genus_12(p) -> None:
    ctx = CycContext(p)
    for g in range(1, cli.MAX_GENUS_RANK + 1):
        cert = cli.rank_cert(ctx, g)
        assert cert["verlinde"] == cert["rank"] and cert["ok"], g


def test_genus3p5_reports_witness(capsys) -> None:
    code, out, _ = run(capsys, "genus3p5", "--color", "v")
    payload = json.loads(out)
    assert code == 0
    assert payload["associate_exponent"] == 1
    assert payload["witness"]["parity_anchor"] == 45


def test_genus2_av_unimodular(capsys) -> None:
    code, out, _ = run(capsys, "genus2", "--p", "5", "--basis", "Av")
    payload = json.loads(out)
    assert code == 0
    assert payload["unimodular"] is True and "witness" not in payload


def flip(field):
    return lambda rep: {**rep, field: not rep[field]}


@pytest.mark.parametrize(
    "verb, target, tamper",
    [
        (["genus2", "--p", "5", "--basis", "Av"], "gram_genus2", flip("unimodular")),
        (["genus2", "--p", "5", "--basis", "G"], "gram_genus2", flip("unimodular")),
        (["genus3p5", "--color", "v"], "genus3_p5_report", flip("plus_subring")),
        (["genus1", "--p", "5", "--basis", "e"], "genus1_exponent", lambda e: e + 1),
    ],
    ids=["genus2-Av", "genus2-G", "genus3p5-v", "genus1-e"],
)
def test_verb_exit_code_uses_the_verify_all_predicate(
    capsys, monkeypatch, verb, target, tamper
) -> None:
    # the cofactor is still a unit, so only the full predicate can fail it
    real = getattr(cli, target)
    monkeypatch.setattr(cli, target, lambda *args: tamper(real(*args)))
    code, out, err = run(capsys, *verb)
    assert code == 1
    assert json.loads(out)["unit_cofactor"] is True if out else "unit cofactor True" in err


def test_verb_refutes_on_any_arithmetic_error(capsys, monkeypatch) -> None:
    # a zero LDL pivot is a ZeroDivisionError: a refutation, not a traceback
    def zero_pivot(*args):
        raise ZeroDivisionError("zero pivot")

    monkeypatch.setattr(cli, "gram_genus2", zero_pivot)
    code, out, err = run(capsys, "genus2", "--p", "5")
    assert code == 1 and out == ""
    assert err.startswith("refuted:")


def test_genus2_rows_that_are_not_unit_triangular_exit_1(capsys, monkeypatch) -> None:
    # a denominator in the integral LDL is a refutation (exit 1), not bad
    # input (exit 2): the G Gram gets a unit next to a non-unit pivot
    real = planar.diagonal

    def coupled(entries, zero):
        out = real(entries, zero)
        out[0][1] = out[1][0] = zero + 1
        return out

    monkeypatch.setattr(planar, "diagonal", coupled)
    code, out, err = run(capsys, "genus2", "--p", "5", "--basis", "G")
    assert code == 1 and out == ""
    assert err.startswith("refuted:") and "not unit-triangular" in err
    # verify-all records it as one failing entry and runs the rest
    code, out, _ = run(capsys, "verify-all", "--p", "5")
    failing = [c for c in json.loads(out) if not c["ok"]]
    assert code == 1
    assert [c["claim"] for c in failing] == ["genus-2 G-basis gram determinant exponent"]
    assert "not unit-triangular" in failing[0]["error"]


def test_genus3_rows_that_are_not_unit_triangular_exit_1(capsys, monkeypatch) -> None:
    # the genus-3 LDL runs on integral dots too: a v row that carries a
    # denominator is a refutation (exit 1), and verify-all fails that entry only
    real = planar._subset_transform

    def spoiled(params, arrs, color):
        rows, kept = real(params, arrs, color)
        if color == "v":
            rows[-1][0] = rows[-1][0] * params.ctx.inv(params.ctx.from_int(3))
        return rows, kept

    monkeypatch.setattr(planar, "_subset_transform", spoiled)
    code, out, err = run(capsys, "genus3p5", "--color", "v")
    assert code == 1 and out == ""
    assert err.startswith("refuted:") and "not unit-triangular" in err
    code, out, _ = run(capsys, "verify-all", "--p", "5")
    failing = [c for c in json.loads(out) if not c["ok"]]
    assert code == 1
    assert [c["claim"] for c in failing] == ["genus-3 v-recolored gram determinant valuation"]
    assert "not unit-triangular" in failing[0]["error"]


def test_genus2_expansion_that_is_not_the_ldl_factor_exits_1(capsys, monkeypatch) -> None:
    # the A report factors the closed form once and matches L to the graph
    # expansion: one z-expansion entry below the diagonal, moved by one, is
    # a refutation that names the factor, and only the A entry fails
    real = planar.expansion_matrix_genus2

    def perturbed(params, color="z"):
        out = real(params, color)
        if color == "z":
            out[2][0] = out[2][0] + params.ctx.one
        return out

    monkeypatch.setattr(planar, "expansion_matrix_genus2", perturbed)
    with pytest.raises(planar.RefutationError, match="LDL factor is not the expansion matrix"):
        planar.gram_genus2(5, "A")
    code, out, err = run(capsys, "genus2", "--p", "5", "--basis", "A")
    assert code == 1 and out == ""
    assert err.startswith("refuted:") and "LDL factor" in err
    code, out, _ = run(capsys, "verify-all", "--p", "5")
    failing = [c for c in json.loads(out) if not c["ok"]]
    assert code == 1
    assert [c["claim"] for c in failing] == ["genus-2 A-basis gram determinant exponent"]
    assert "LDL factor" in failing[0]["error"]


@pytest.mark.parametrize(
    "shift, message",
    [(1, "LDL pivots are not the closed form"), (-4, "LDL factor is not the expansion matrix")],
    ids=["pivots", "factor"],
)
def test_genus1_z_plus2_gram_off_its_factor_exits_1(capsys, monkeypatch, shift, message) -> None:
    # the v determinant factors the Gram of the (z+2)^j rows, (1, 0) and
    # (2, 1) at p = 5, so the Gram is D [[1, 2], [2, 5]]: moving its
    # off-diagonal pair by D breaks the second pivot, moving it by -4 D
    # keeps the pivots and flips the factor entry; only the v entry fails
    real = torus.gram

    def perturbed(params, rows):
        out = real(params, rows)
        if rows == torus.z_plus2_rows(params):
            out[1][0] = out[1][0] + shift * params.D
            out[0][1] = out[1][0].conj()
        return out

    monkeypatch.setattr(torus, "gram", perturbed)
    params = TQFTParams.for_prime(5)
    with pytest.raises(torus.RefutationError, match=f"genus-1 v gram: {message}"):
        torus.genus1_determinant(params, "v")
    code, out, err = run(capsys, "genus1", "--p", "5", "--basis", "v")
    assert code == 1 and out == ""
    assert err.startswith("refuted:") and message in err
    code, out, _ = run(capsys, "verify-all", "--p", "5")
    failing = [c for c in json.loads(out) if not c["ok"]]
    assert code == 1
    assert [c["claim"] for c in failing] == ["genus-1 v-basis gram determinant exponent"]
    assert message in failing[0]["error"]


def test_omega_orbit_off_the_det_w_product_is_refuted(capsys, monkeypatch) -> None:
    # the omega determinant reads det W from det_w_product, not from the
    # orbit; an orbit row slipped by the unit A keeps every exponent, so
    # only det W's elimination, checked against that product, refutes it
    real = torus.basis_omega

    def slipped(params):
        rows = real(params)
        return [tuple(x * params.ctx.A for x in rows[0]), *rows[1:]]

    monkeypatch.setattr(torus, "basis_omega", slipped)
    params = TQFTParams.for_prime(5)
    with pytest.raises(torus.RefutationError, match="det W disagrees"):
        torus.det_w_certificate(params)
    code, out, _ = run(capsys, "verify-all", "--p", "5")
    failing = [c for c in json.loads(out) if not c["ok"]]
    assert code == 1
    assert [c["claim"] for c in failing] == ["det W exponent"]
    assert "det W disagrees" in failing[0]["error"]


TWIST_CLAIM = "twist matrix in the v-basis specializes integrally at the root"


def test_refuted_twist_divisibility_fails_its_entries_and_exits_1(capsys, monkeypatch) -> None:
    # S_{1,1,2} and its variant gain 1, so (1+A) and (1-q) no longer divide
    # them: the division refutes the twist matrices, and verify-all records
    # the two polynomial entries and the genus-1 twist entry instead of
    # stopping with a bad-input error
    for name in ("s_poly", "s_tilde_poly"):
        real = getattr(annulus, name)
        monkeypatch.setattr(
            annulus, name,
            lambda m, i, n, real=real: real(m, i, n) + (1 if (m, i, n) == (1, 1, 2) else 0),
        )
    with pytest.raises(annulus.RefutationError, match=r"S_\(1,1,2\) by \(1\+A\)\^1"):
        annulus.twist_matrix_v(2)
    with pytest.raises(annulus.RefutationError, match=r"by \(1-q\)\^1"):
        annulus.twist_sq_matrix_vtilde(2)
    code, out, _ = run(capsys, "verify-all", "--p", "5")
    failing = [c["claim"] for c in json.loads(out) if not c["ok"]]
    assert code == 1
    assert failing == [
        "twist matrix on v-powers has integral entries up to size 12",
        "squared-twist matrix on rescaled v-powers has integral entries up to size 8",
        TWIST_CLAIM,
    ]


def test_twist_matrix_v_off_by_one_fails_the_genus1_twist_entry(capsys, monkeypatch) -> None:
    # an integral but wrong entry still specializes integrally; the entry
    # checks that it is the e-basis twist conjugated into the v-basis
    real = torus.twist_matrix_v

    def perturbed(size):
        out = real(size)
        out[0][1] = out[0][1] + 1
        return out

    monkeypatch.setattr(torus, "twist_matrix_v", perturbed)
    code, out, _ = run(capsys, "verify-all", "--p", "5")
    failing = [c for c in json.loads(out) if not c["ok"]]
    assert code == 1
    assert [c["claim"] for c in failing] == [TWIST_CLAIM]
    assert "V^-1 t V" in failing[0]["error"]


def test_polynomial_certs_build_each_matrix_once(monkeypatch) -> None:
    # the largest matrix holds every smaller one as its leading block
    sizes = []
    for name in ("twist_matrix_v", "twist_sq_matrix_vtilde"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda size, real=real, name=name: sizes.append((name, size)) or real(size))
    assert all(c["ok"] for c in cli.polynomial_certs())
    assert sizes == [("twist_matrix_v", 12), ("twist_sq_matrix_vtilde", 8)]


def test_polynomial_cert_with_a_remainder_at_size_3_fails_with_its_error(monkeypatch) -> None:
    real = annulus.s_poly
    monkeypatch.setattr(
        annulus, "s_poly",
        lambda m, i, n: real(m, i, n) + (1 if (m, i, n) == (1, 1, 3) else 0),
    )
    twist, twist_sq = cli.polynomial_certs()
    assert twist == {
        "claim": "twist matrix on v-powers has integral entries up to size 12",
        "p": None, "ok": False,
        "error": "dividing S_(1,1,3) by (1+A)^2 leaves a remainder",
    }
    assert twist_sq["ok"] is True and "error" not in twist_sq


# --- bracket corpus ---------------------------------------------------------


def test_bracket_runs_both_variants(capsys) -> None:
    code, out, _ = run(capsys, "bracket")
    certs = json.loads(out)
    assert code == 0
    assert len(certs) == 20  # ten links, two colorings each
    assert all(c["ok"] for c in certs)
    assert not any(c.get("skipped") for c in certs)


def test_bracket_crossing_cap_skips(capsys) -> None:
    code, out, _ = run(capsys, "bracket", "--cap-crossings", "6")
    certs = json.loads(out)
    assert code == 0
    skipped = [c["name"] for c in certs if c.get("skipped")]
    assert set(skipped) == {"torus_2_12", "torus_3_6"}


def test_corpus_certs_cost_one_state_sum_per_sublink(monkeypatch) -> None:
    # both colorings come from one pass over the 2^mu sublinks of a link,
    # and a link over the crossing cap costs none
    sizes = []
    inner = bracket.kauffman_bracket

    def counted(diagram, *args):
        sizes.append(diagram.crossings)
        return inner(diagram, *args)

    monkeypatch.setattr(bracket, "kauffman_bracket", counted)
    links, cap = load_corpus(), 6
    certified = [e for e in links if e["crossings"] <= cap]
    assert 0 < len(certified) < len(links)
    certs = cli.corpus_certs(links, cap)
    assert len(certs) == 2 * len(links)
    assert len(sizes) == sum(2 ** e["mu"] for e in certified)
    assert max(sizes) <= cap


def seeded_braid_corpus(seed: int, links: int, strands_from=(6, 7), fewest: int = 20) -> dict:
    """Closures of random braids on strands_from strands with fewest to 32
    crossings and 2-4 components, in the corpus format `bracket --corpus`
    reads."""
    rng = random.Random(seed)
    entries = []
    while len(entries) < links:
        strands = rng.choice(strands_from)
        crossings = rng.randrange(fewest, 33)
        word = [rng.choice((-1, 1)) * rng.randrange(1, strands) for _ in range(crossings)]
        if not 2 <= len(bracket.braid_components(word, strands)) <= 4:
            continue
        diagram = bracket.braid_pd(word, strands)
        entries.append({
            "name": f"braid{len(entries):02d}", "braid": word, "strands": strands,
            "pd": [list(cr) for cr in diagram.pd], "loops": diagram.loops,
            "mu": diagram.mu, "crossings": diagram.crossings,
        })
    return {"links": entries}


def test_bracket_on_a_seeded_braid_corpus_pinned(capsys, tmp_path) -> None:
    # the bundled corpus stops at 12 crossings; these closures run the state
    # sum on frontiers of up to 32 crossings, and any rewrite of it must
    # leave every byte of the certificates unchanged
    path = tmp_path / "braids.json"
    path.write_text(json.dumps(seeded_braid_corpus(2101, 40)))
    code, out, _ = run(capsys, "bracket", "--corpus", str(path), "--cap-crossings", "32")
    assert code == 0
    assert len(json.loads(out)) == 80
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a47e39d9a9f3b2aa6952ab0dff555b6fd1b56810ce2dacd454b7119c9701e2f9"
    )


def test_root_state_sum_at_benchmark_size_makes_no_dot(monkeypatch) -> None:
    # closures the size of the benchmark's (7 strands, 24-32 crossings): the
    # root-of-unity state sum agrees with the specialized Laurent bracket at
    # p = 5 (n = 4p) and p = 7 (n = 2p) without a single CycContext.dot
    def refused(*args):
        raise AssertionError("the root state sum called CycContext.dot")

    monkeypatch.setattr(CycContext, "dot", refused)
    rings = [(ctx, bracket.RootCoeffs(ctx)) for ctx in map(CycContext, (5, 7))]
    for entry in seeded_braid_corpus(3030, 20, strands_from=(7,), fewest=24)["links"]:
        diagram = bracket.LinkDiagram.from_json(entry)
        assert 24 <= diagram.crossings <= 32 and 2 <= diagram.mu <= 4
        laurent = bracket.kauffman_bracket(diagram)
        for ctx, coeffs in rings:
            assert bracket.kauffman_bracket(diagram, coeffs) == ctx.from_A_laurent(laurent)


@pytest.mark.parametrize("cap", ["-3", "0"])
def test_bracket_refuses_a_nonpositive_cap(capsys, cap) -> None:
    code, out, err = run(capsys, "bracket", "--cap-crossings", cap)
    assert code == 2 and out == ""
    assert err == "error: caps must be positive\n"


def test_corrupt_corpus_fails_fast(capsys, tmp_path) -> None:
    bad = tmp_path / "corpus.json"
    bad.write_text("{\"links\": []}")
    code, out, err = run(capsys, "bracket", "--corpus", str(bad))
    assert code == 2 and out == "" and "corpus" in err


@pytest.mark.parametrize("verb", ["bracket", "verify-all"])
@pytest.mark.parametrize("key, value", [
    ("pd", 5), ("loops", None),
    # a number that is not an int is refused, not rounded: int() read the arc
    # label 6.9 as 6 and false as 0 loops, and 2.0 == 2, so all four passed
    ("pd", [[5, 3, 4, 6.9], [3, 5, 6, 4]]), ("loops", False), ("mu", 2.0), ("crossings", 2.0),
], ids=["pd", "loops", "arc_label", "loops_false", "mu", "crossings"])
def test_malformed_corpus_entry_is_a_usage_error(capsys, tmp_path, verb, key, value) -> None:
    corpus = {"links": load_corpus()}
    corpus["links"][3][key] = value
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(corpus))
    code, out, err = run(capsys, verb, "--corpus", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: corpus entry 'hopf' is malformed")


# --- stabilize ----------------------------------------------------------------


def test_stabilize_e_seed(capsys) -> None:
    code, out, _ = run(capsys, "stabilize", "--p", "5", "--seed", "e", "--ops", "t,s")
    payload = json.loads(out)
    assert code == 0
    assert payload["stabilized"] and payload["iterations"] <= 5
    assert payload["matches_v_lattice"] is True
    assert payload["hnf"], "stable basis rows must be emitted"


def test_stabilize_v_seed_fixed_point(capsys) -> None:
    code, out, _ = run(capsys, "stabilize", "--p", "5", "--seed", "v", "--ops", "t")
    payload = json.loads(out)
    assert code == 0 and payload["iterations"] == 0


def test_stabilize_rejects_unknown_ops(capsys) -> None:
    code, out, err = run(capsys, "stabilize", "--p", "5", "--ops", "t,u")
    assert code == 2 and "ops" in err


# --- verify-all ----------------------------------------------------------------


def test_verify_all_p5(capsys) -> None:
    code, out, _ = run(capsys, "verify-all", "--p", "5")
    certs = json.loads(out)
    assert code == 0
    assert len(certs) >= 20
    assert all(c["ok"] for c in certs)


def test_verify_all_deterministic(capsys) -> None:
    _, first, _ = run(capsys, "verify-all", "--p", "5")
    _, second, _ = run(capsys, "verify-all", "--p", "5")
    assert first == second


def test_verify_all_rejects_bad_prime_list(capsys) -> None:
    # a repeated prime would run and print every per-prime family twice
    for p_list, why in (("5,9", "odd prime"), ("5,7,5", "once")):
        code, out, err = run(capsys, "verify-all", "--p", p_list)
        assert code == 2 and out == "" and err.startswith("error:") and why in err


@lru_cache(maxsize=None)
def verify_all_p57() -> list[dict]:
    return json.loads(json.dumps(cli._jsonable(cli.bundle((5, 7)))))


@pytest.mark.parametrize(
    "argv, p, claim, hidden",
    [
        ("genus1 --p 7 --basis v", 7,
         "genus-1 v-basis gram determinant is associate to (1-q)^0", ()),
        ("genus2 --p 7 --basis A", 7,
         "genus-2 A-basis gram determinant is associate to (1-q)^56", ("claim", "ok")),
        ("genus2 --p 7 --basis Av", 7,
         "genus-2 Av-basis gram determinant is associate to (1-q)^0", ("claim", "ok")),
        ("genus3p5 --color v", 5,
         "genus-3 v-recolored gram determinant has valuation one over the real subring",
         ("claim", "ok")),
    ],
    ids=["genus1-v", "genus2-A", "genus2-Av", "genus3p5-v"],
)
def test_verb_prints_its_verify_all_entry(capsys, argv, p, claim, hidden) -> None:
    # one builder makes both: the verb's JSON is the verify-all entry of its
    # claim and prime, less the hidden keys
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    [entry] = [c for c in verify_all_p57() if c["claim"] == claim and c["p"] == p]
    assert json.loads(out) == {k: v for k, v in entry.items() if k not in hidden}


def test_verify_all_writes_bundle_under_env(capsys, tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("SKEINLAT_OUT", str(tmp_path))
    code, out, _ = run(capsys, "verify-all", "--p", "5")
    assert code == 0
    written = (tmp_path / "verify_all.json").read_text()
    assert json.loads(written) == json.loads(out)


def test_verify_all_refuses_an_out_path_before_running(capsys, tmp_path, monkeypatch) -> None:
    # SKEINLAT_OUT naming a file is refused before any certificate is built
    def no_bundle(*args):
        pytest.fail("verify-all ran the bundle before checking SKEINLAT_OUT")

    monkeypatch.setattr(cli, "bundle", no_bundle)
    blocker = tmp_path / "not_a_directory"
    blocker.write_text("")
    monkeypatch.setenv("SKEINLAT_OUT", str(blocker))
    code, out, err = run(capsys, "verify-all", "--p", "5")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_verify_all_table_format(capsys) -> None:
    code, out, _ = run(capsys, "verify-all", "--p", "5", "--emit", "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].endswith("0 failing")
    assert all(line.lstrip().startswith("ok") for line in lines[:-1])


def test_verify_all_output_pinned(capsys) -> None:
    # sha256 of the stdout of `verify-all --p 5,7`; any refactor must leave
    # every byte of it unchanged
    code, out, _ = run(capsys, "verify-all", "--p", "5,7")
    assert code == 0
    assert len(out.encode()) == 26127
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1913907f6b70fb53262c5c8db01a8cacf606aff86bf7a82cb3df01dd80a7ace2"
    )


def test_verify_all_output_pinned_through_p11(capsys) -> None:
    # the same pin with p = 11, whose genus-2 Grams take the integral Av route
    code, out, _ = run(capsys, "verify-all", "--p", "5,7,11")
    assert code == 0
    assert len(out.encode()) == 34021
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c5536fb60b526238db0f460821429acbe950f052211feb78777f7ee67684ba9f"
    )


# sha256 of the stdout of single verbs, which exit 0
VERB_PINS = {
    "genus1 --p 7 --basis v":
        "30a0ee3fe057bfac7867c0f37200de19431ed1a3d8e8b88c395d5415a17b9459",
    "genus2 --p 5 --basis Av":
        "402396899a0d607049f7574b4615d73c78e7364c92674f373f4572d3c2218fcb",
    "genus2 --p 5 --basis Av --emit table":
        "3580d552ba55a612722a360cd6cc326486111b17c12a4880d35e3d0ba0a40578",
    "genus2 --p 13 --basis A":
        "dbcc0c7d62a96dc3b2cf539fbd91923d3669d2a4f5902d23ab36dc69117c3222",
    "genus2 --p 13 --basis Av":
        "40e04813e601bf9c6768e2ceb97a48595dbb79e5faedf93b7db96eb51f681278",
    "genus3p5 --color omega --emit table":
        "412219e7eec3760418f1daa3912f28fb64720db1e76ff60a8b2d523a0710f525",
    "rank --p 13 --genus 3":
        "8c26e1046f963270746b15d94094e79b9e863e887281bc9f6c71586d9b728e2d",
    "rank --p 13 --genus 3 --emit table":
        "4e6436f06b0287c6c32aebf8000767a047a828396c23a4af5c560982b3cec352",
    "stabilize --p 5":
        "ac873933c9b81c68fa28d742aa8f9725cb5964b3e44967b8e9f8cd229128aea9",
    "stabilize --p 11":
        "eeaa74e025014cec070c69958cfab868a0b744a749ce2da501c8676a92e94e6f",
    "stabilize --p 7 --seed omega --ops t":
        "10bc06aa510a232958477f5ddb53bd29a3665de230aebc827ee8166fef6a8ab1",
    "genus1 --p 7 --basis omega":
        "c961d7e713ed7cfebb0d4b6932cfd6735e80368d23e1c21ae65a1a67f4f1bba6",
    "genus1 --p 7 --basis v --emit gram":
        "e87c01759113fc3d315694a7f6eaca424463de34d1d560dfb6d34c92abe76128",
    # at p = 31 (d = 15) the genus-1 factor check has real work to do
    "genus1 --p 31 --basis e":
        "d1417ae83df6a5039d85c588bbf0313ef6d1c7cd157f1f1c9640bbf1b1b909d4",
    "genus1 --p 31 --basis omega":
        "a45446d40a74ef26914fa9e2cb49fd77160d34f1a2abaec07591ffd240563641",
    "genus1 --p 31 --basis v":
        "41048394ee7821904741bdd6e61dff60829e8a06f54fc81e7e8347f688bd7e54",
    # exponents 910 and 812: the (1-q)-adic valuation reads them off the p-content
    "genus2 --p 13 --basis G":
        "23ebdc903f0d1dd6adbc102784372035d2548fbc29fd756c569af92fa48df8e5",
    "genus1 --p 59 --basis e":
        "a762a5ff9321b01d5910055aebff135560ca4decff7cbe92ace1915ecec50b57",
}


def argv_id(argv: str) -> str:
    return argv.replace(" --", "-").replace(" ", "=")


@pytest.mark.parametrize("argv", VERB_PINS, ids=argv_id)
def test_verb_output_pinned(capsys, argv) -> None:
    # the table form prints a report's keys in insertion order, so a verb
    # whose entry is rebuilt must keep that order as well as every value
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERB_PINS[argv]


def test_verify_all_builds_one_params_per_prime(capsys, monkeypatch) -> None:
    # one ring per prime: verify-all builds each TQFTParams and its ring once,
    # and the rank verb needs the ring alone
    built = {TQFTParams: [], CycContext: []}

    def counting(cls):
        init = cls.__init__

        def counting_init(self, p):
            built[cls].append(p)
            init(self, p)
        return counting_init

    for cls in built:
        monkeypatch.setattr(cls, "__init__", counting(cls))
    TQFTParams.for_prime.cache_clear()
    code, _, _ = run(capsys, "verify-all", "--p", "5,7")
    assert code == 0
    assert sorted(built[TQFTParams]) == sorted(built[CycContext]) == [5, 7]
    for got in built.values():
        got.clear()
    code, _, _ = run(capsys, "rank", "--p", "13", "--genus", "3")
    assert code == 0
    assert built == {TQFTParams: [], CycContext: [13]}


@pytest.mark.parametrize(
    "argv",
    [
        "verify-all --p 5",
        "genus1 --p 7 --basis v",
        "genus2 --p 7 --basis A",
        "genus2 --p 7 --basis Av",
        "genus3p5 --color omega",
        "rank --p 13 --genus 3",
        "bracket --cap-crossings 8",
        "stabilize --p 5",
    ],
    ids=argv_id,
)
def test_verb_unchanged_under_optimize_flag(argv) -> None:
    # no correctness check may live in an assert that python -O strips: the
    # genus-2 pivots and closed form, the state sum's "did not close up" and
    # every other check must raise, so -O changes neither stdout nor exit code
    src = os.path.dirname(os.path.dirname(os.path.abspath(skeinlat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    runs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "skeinlat.cli", *argv.split()],
            capture_output=True, env=env, timeout=300, check=False,
        )
        runs.append((proc.returncode, proc.stdout))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1]


PKG = os.path.dirname(os.path.abspath(skeinlat.__file__))
ROOT = os.path.dirname(os.path.dirname(PKG))
DEMOS = os.path.join(ROOT, "demos")


def sources(folder: str) -> list[tuple[str, str]]:
    """(file name, text) of every Python file in folder, sorted by name."""
    out = []
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                out.append((name, fh.read()))
    return out


def test_no_assert_in_the_library() -> None:
    # python -O strips asserts, so every check in the library must raise
    found = []
    for name, text in sources(PKG):
        tree = ast.parse(text, name)
        found += [f"{name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


MATH_FLOATS = {"sin", "cos", "pi", "sqrt", "exp", "log"}


def test_no_float_in_the_library() -> None:
    # every claim is computed in Z[zeta_n]: no float literal, float() call or
    # floating-point math function anywhere in the library
    found = []
    for name, text in sources(PKG):
        for n in ast.walk(ast.parse(text, name)):
            if (isinstance(n, ast.Constant) and isinstance(n.value, float)
                    or isinstance(n, ast.Call) and getattr(n.func, "id", None) == "float"
                    or isinstance(n, ast.Attribute) and n.attr in MATH_FLOATS
                    and getattr(n.value, "id", None) == "math"):
                found.append(f"{name}:{n.lineno}")
    assert found == []


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, *COMPREHENSIONS)


def own_names(scope) -> set:
    """The names a function, lambda or comprehension binds in its own scope.
    The walk stops at nested scopes, which bind their names when entered."""
    if isinstance(scope, COMPREHENSIONS):
        targets = [n for g in scope.generators for n in ast.walk(g.target)]
        return {n.id for n in targets if isinstance(n, ast.Name)}
    args = scope.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    out = {a.arg for a in params if a}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        n = todo.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(n.name)
            continue
        if isinstance(n, SCOPES):
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            out.add(n.name)
        todo.extend(ast.iter_child_nodes(n))
    return out


def bare_uses(trees) -> dict[str, set]:
    """Every use of a name in the (where, tree) pairs, as name -> {(*where,
    line)}: a bare name, an attribute or an imported name.  A bare name that
    a parameter, local variable or nested def of an enclosing scope shadows
    is not a use.  An attribute read off a class of the trees, or off self or
    cls inside one, is a use of "Class.attr"; one read off any other receiver
    is pooled under its bare name."""
    trees = list(trees)
    classes = {n.name for _, tree in trees
               for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    uses: dict[str, set] = {}

    def visit(node, shadowed, where, owner=None):
        if isinstance(node, SCOPES):
            shadowed = shadowed | own_names(node)
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Name):
            words = [] if node.id in shadowed else [node.id]
        elif isinstance(node, ast.Attribute):
            receiver = getattr(node.value, "id", None)
            if receiver in ("self", "cls"):
                receiver = owner
            words = [f"{receiver}.{node.attr}" if receiver in classes else node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            words = [a.name.split(".")[-1] for a in node.names]
        else:
            words = []
        for word in words:
            uses.setdefault(word, set()).add((*where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed, where, owner)

    for where, tree in trees:
        visit(tree, frozenset(), where)
    return uses


def test_name_guard_shadowing_stays_in_its_scope() -> None:
    # a comprehension variable or a nested def's parameter named like a
    # function shadows it only inside that comprehension or def: a call of
    # the function elsewhere in the enclosing function is still a use, and
    # a parameter of the function's own name shadows it in its whole body
    tree = ast.parse(
        "def f(xs):\n"
        "    ys = [helper for helper in xs]\n"
        "    def g(other):\n"
        "        return other\n"
        "    return helper(ys), other(g)\n"
        "def h(helper):\n"
        "    return helper()\n"
    )
    uses = bare_uses([(("m",), tree)])
    assert uses["helper"] == {("m", 5)}
    assert uses["other"] == {("m", 5)}


def test_name_guard_resolves_methods_to_their_class() -> None:
    # Cls.m and, inside class Cls, self.m and cls.m are uses of Cls.m alone;
    # m read off any other receiver is pooled under the bare name
    tree = ast.parse(
        "class C:\n"
        "    def m(self):\n"
        "        return self.k(), C.j, other.m\n"
        "def f(x, cls):\n"
        "    return x.m(), C.m, cls.k\n"
    )
    uses = bare_uses([(("m",), tree)])
    assert uses["C.k"] == uses["C.j"] == {("m", 3)}
    assert uses["C.m"] == {("m", 5)}
    assert uses["m"] == {("m", 3), ("m", 5)}
    assert uses["k"] == {("m", 5)}


@lru_cache(maxsize=None)
def library_uses() -> dict[str, set]:
    """bare_uses over the library and the demos."""
    return bare_uses(
        ((folder, name), ast.parse(text, name))
        for folder in (PKG, DEMOS) for name, text in sources(folder)
    )


def test_every_library_name_is_used_or_labeled() -> None:
    # a name that no code of the library or the demos uses outside its own
    # def is reached only from tests, so its docstring must say why it stays:
    # an oracle for a claim-path name, or a certificate a ROADMAP item
    # promotes; words in docstrings, comments and strings are not uses.
    # Conversely a name so labeled must have no such use: once the claim
    # path reaches it, the label is stale.
    # A method's uses through Cls, self or cls count for its class alone;
    # uses through any other receiver are pooled by bare name, so a method
    # counts as used when any method of that name is reached that way, and
    # same-named methods are checked by hand (the reviewed set below).
    # Shadowed bare names are not uses (bare_uses)
    uses = library_uses()
    unlabeled, stale = [], []
    for name, text in sources(PKG):
        tree = ast.parse(text, name)
        defs = [(n, n.name) for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        defs += [
            (m, f"{c.name}.{m.name}") for c in tree.body if isinstance(c, ast.ClassDef)
            for m in c.body
            if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
        ]
        for node, key in defs:
            own = {(PKG, name, no) for no in range(node.lineno, node.end_lineno + 1)}
            used = bool((uses.get(key, set()) | uses.get(node.name, set())) - own)
            first = (ast.get_docstring(node) or "").split("\n")[0]
            labeled = first.startswith(("Oracle", "Certificate"))
            if used == labeled:
                (stale if used else unlabeled).append(f"{name}:{node.lineno} {node.name}")
    assert unlabeled == [] and stale == []


def test_shared_method_names_are_the_reviewed_set() -> None:
    # the name guard above pools the uses it cannot resolve to a class by
    # bare name, so one method reached that way counts as a use of every
    # method of its name; a name new to this set must be checked by hand,
    # method by method, before it is added here
    owners: dict[str, set] = {}
    for name, text in sources(PKG):
        for c in ast.parse(text, name).body:
            if isinstance(c, ast.ClassDef):
                for m in c.body:
                    if isinstance(m, ast.FunctionDef) and not (
                        m.name.startswith("__") and m.name.endswith("__")
                    ):
                        owners.setdefault(m.name, set()).add(c.name)
    pooled = library_uses()
    shared = {m for m, classes in owners.items() if len(classes) > 1 and m in pooled}
    # trace, checked by hand: verlinde_rank reads CycNum.trace, and the
    # theta_net and tet_net oracles read TLElement.trace
    assert shared == {"is_zero", "mu", "state_sum", "to_json", "trace"}


def test_every_library_import_is_used() -> None:
    unused = []
    for name, text in sources(PKG):
        tree = ast.parse(text, name)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [f"{name}:{node.lineno} {b}" for b in bound if b not in used]
    assert unused == []


def test_every_benchmark_wrap_target_resolves(monkeypatch) -> None:
    # the traced benchmark wraps each perfbench/spans.py TARGETS entry; a
    # deleted or renamed name would otherwise surface only in a traced run.
    # Resolve each one as Recorder.install does: dotted path, then vars()
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "perfbench", "spans.py")
    )
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(spans)
    missing = []
    for _, mod_name, path in spans.TARGETS:
        owner = importlib.import_module(mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{mod_name}.{path}")
    assert spans.TARGETS
    assert missing == []


def _decorator_name(node: ast.expr) -> str:
    # lru_cache(maxsize=None) -> lru_cache, functools.cache -> cache
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _is_empty_dict(node: ast.expr | None) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    return isinstance(node, ast.Call) and getattr(node.func, "id", "") == "dict" and not node.args


def test_per_prime_tables_live_in_the_ring_memo() -> None:
    # one memo per ring: no function of a ring context or of the parameters
    # keeps a cache of its own, and neither constructor builds a table
    # besides CycContext.memo
    found, inits = [], []
    for name, text in sources(PKG):
        for node in ast.walk(ast.parse(text, name)):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                args = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                cached = {_decorator_name(d) for d in node.decorator_list} & {"lru_cache", "cache"}
                if cached and args & {"ctx", "params"}:
                    found.append(f"{name}:{node.lineno} {node.name}")
            if isinstance(node, ast.ClassDef) and node.name in ("CycContext", "TQFTParams"):
                init = next(m for m in node.body if getattr(m, "name", "") == "__init__")
                inits.append(node.name)
                for n in ast.walk(init):
                    targets = n.targets if isinstance(n, ast.Assign) else [getattr(n, "target", None)]
                    if isinstance(n, (ast.Assign, ast.AnnAssign)) and _is_empty_dict(n.value):
                        found += [f"{name}:{n.lineno} {node.name}.{t.attr}" for t in targets
                                  if not (isinstance(t, ast.Attribute) and t.attr == "memo")]
    assert sorted(inits) == ["CycContext", "TQFTParams"]
    assert found == []
