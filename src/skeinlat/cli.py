"""Command-line front end over the certificate machinery.

Each verb computes one family of exact certificates and prints them as JSON
or as a terse pass/fail table.  verify-all chains every family
at the given primes and exits nonzero if any claim is refuted; its
output is deterministic byte for byte, so two runs with one config can be
compared with cmp.  The SKEINLAT_OUT environment variable, when set, names
a directory where verify-all also writes its bundle; nothing else is ever
written to disk.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .annulus import twist_matrix_v, twist_sq_matrix_vtilde
from .bracket import COLORINGS, LinkDiagram, divisibility_certificate, load_corpus
from .cyclotomic import CycContext, _is_odd_prime
from .lattice import OLattice, lattice_equal, saturate
from .matrices import mat_eq
from .planar import genus3_p5_report, gram_genus2, non_unimodular_witness
from .recoupling import count_spine_colorings, verlinde_rank
from .torus import (
    TQFTParams,
    associate_certificate,
    basis_e,
    basis_omega,
    basis_v,
    det_w_certificate,
    e_gram_closed,
    genus1_determinant,
    gram,
    modular_relation_scalar,
    omega,
    omega_product,
    s_matrix,
    s_matrix_v,
    twist_matrix,
    twist_matrix_v_at,
    v_gram_closed,
    v_in_omega_span,
    vandermonde_certificate,
)

OUT_ENV = "SKEINLAT_OUT"

BASES_G1 = {"e": basis_e, "omega": basis_omega, "v": basis_v}
BASES_G2 = ("G", "A", "Av")

# The largest inputs each verb accepts: the largest at which its cost is
# measured (in one process on a 2-core Xeon, three runs each, the verbs
# alternating).  Beyond them a verb would run without a stated bound, so
# larger inputs are refused as bad input.  genus2 --p 13 takes 0.05-0.09 /
# 0.30-0.36 / 0.58-0.78 s for G / A / Av and stabilize --p 13 4.5-5.0 s.
# Both verbs share the limit, so it stays at 13 until the p = 17 lattices
# are cheap.
MAX_P_HEAVY = 13
# genus1 --p 59 takes at most 3.1 s for any basis and --emit; at --p 61 and
# 67 --basis v takes 7.1-8.5 and 7.4-10.2 s, over stabilize --p 13 in the
# same runs, most of it in is_unit.
MAX_P_GENUS1 = 59
# rank --p 211 --genus 12 takes 0.21-0.27 s in a fresh interpreter, 0.02 s
# of it the count and 0.07 s the Verlinde trace.  At p = 211 the count takes
# 0.02 / 0.04 / 0.05 s and the trace 0.07 / 0.07 / 0.09 s at genus 12 / 16 /
# 24; the limits stay at the corner where the verb was measured.
MAX_P_RANK = 211
MAX_GENUS_RANK = 12


def checked_primes(p_list, max_p: int, what: str, min_p: int = 3) -> tuple[int, ...]:
    """The primes a verb was given, refused unless they are distinct odd
    primes from min_p (5 for the verbs that make genus >= 2 claims) to
    max_p, the verb's budget."""
    p_list = tuple(p_list)
    if len(set(p_list)) != len(p_list):
        raise ValueError(f"each p may be given once, got {list(p_list)}")
    for p in p_list:
        if not _is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
    low = [p for p in p_list if p < min_p]
    if low:
        raise ValueError(f"genus >= 2 claims need p >= {min_p}, got {low}")
    over = [p for p in p_list if p > max_p]
    if over:
        raise ValueError(f"the {what} budget is p <= {max_p}, got {over}")
    return p_list


def _jsonable(x):
    if hasattr(x, "to_json"):
        return _jsonable(x.to_json())
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _as_table(obj) -> str:
    rows = obj if isinstance(obj, list) else [obj]
    lines = []
    for r in rows:
        if not isinstance(r, dict):
            lines.append(str(r))
            continue
        if "claim" in r or "ok" in r:
            ok = r.get("ok")
            mark = "  ok" if ok else ("FAIL" if ok is not None else "  --")
            bits = [mark]
            if "p" in r:
                bits.append(f"p={r['p']}")
            if "name" in r:
                bits.append(str(r["name"]))
            label = r.get("claim") or "  ".join(
                f"{k}={r[k]}" for k in r
                if k not in ("ok", "p", "name", "claim") and not isinstance(r[k], (dict, list))
            )
            bits.append(str(label))
            if r.get("skipped"):
                bits.append("(skipped)")
            lines.append("  ".join(bits))
        else:
            lines.extend(f"{k} = {v}" for k, v in r.items())
    return "\n".join(lines)


def _v_lattice(params: TQFTParams) -> OLattice:
    return OLattice.from_vectors(params.ctx, basis_v(params))


def _guarded(claim: str, p: int, fn):
    """Run one certificate builder; a refutation becomes a failing entry
    instead of aborting the rest of the bundle."""
    try:
        return fn()
    except ArithmeticError as exc:
        return {"claim": claim, "p": p, "ok": False, "error": str(exc)}


def _entry(claim: str, p: int, build) -> dict:
    """The entry for claim at p with the keys build() returns, ok among them."""
    return _guarded(claim, p, lambda: {"claim": claim, "p": p, **build()})


def _holds(claim: str, p: int, check) -> dict:
    """A yes/no claim: ok is the truth of check(), and a refutation fails it."""
    return _entry(claim, p, lambda: {"ok": bool(check())})


# --- per-family certificate builders -------------------------------------


def polynomial_certs() -> list[dict]:
    # entry (r, c) does not depend on the size, so the largest matrix holds
    # every smaller one as its leading block
    return [
        _holds("twist matrix on v-powers has integral entries up to size 12", None,
               lambda: twist_matrix_v(12)),
        _holds("squared-twist matrix on rescaled v-powers has integral entries up to size 8",
               None, lambda: twist_sq_matrix_vtilde(8)),
    ]


def genus1_exponent(d: int, basis: str) -> int:
    """The genus-1 claim: the e-basis Gram determinant is D^d, associate to
    (1-q)^(d(d-1)), and the omega and v bases are unimodular."""
    return d * (d - 1) if basis == "e" else 0


def genus1_cert(params: TQFTParams, basis: str) -> dict:
    """The genus-1 determinant claim for one basis, refuted unless the
    exponent is genus1_exponent."""
    expect = genus1_exponent(params.d, basis)
    det = genus1_determinant(params, basis)
    return {
        **associate_certificate(params, det, "gram determinant", basis, expect),
        "claim": f"genus-1 {basis}-basis gram determinant is associate to (1-q)^{expect}",
    }


def genus1_certs(params: TQFTParams) -> list[dict]:
    p = params.p
    certs = [_guarded(f"genus-1 {name}-basis gram determinant exponent", p,
                      lambda name=name: genus1_cert(params, name))
             for name in BASES_G1]
    certs += [
        _holds("closed-form e-basis gram equals the paired gram", p,
               lambda: mat_eq(gram(params, basis_e(params)), e_gram_closed(params))),
        _holds("closed-form v-basis gram equals the paired gram", p,
               lambda: mat_eq(gram(params, basis_v(params)), v_gram_closed(params))),
        _guarded("det W exponent", p, lambda: det_w_certificate(params)),
        _guarded("vandermonde exponent", p, lambda: vandermonde_certificate(params)),
        _holds("surgery element product form equals its definition", p,
               lambda: omega_product(params) == omega(params)),
        _holds("v-powers and twist orbit related by integral change of basis", p,
               lambda: v_in_omega_span(params)),
        _holds("regluing involution has integral matrix in the v-basis", p,
               lambda: s_matrix_v(params)),
        _holds("twist matrix in the v-basis specializes integrally at the root", p,
               lambda: twist_matrix_v_at(params)),
        _guarded("(S T)^3 is a unit scalar times S^2", p, lambda: modular_relation_scalar(params)),
    ]
    return certs


def lattice_certs(params: TQFTParams) -> list[dict]:
    ctx, p = params.ctx, params.p
    v_lat = functools.cache(lambda: _v_lattice(params))  # both claims compare with it

    def orbit() -> dict:
        w_lat = OLattice.from_vectors(ctx, basis_omega(params))
        return {"rank": w_lat.rank, "ok": lattice_equal(w_lat, v_lat())}

    def saturation() -> dict:
        rep = saturate(ctx, basis_e(params), [twist_matrix(params), s_matrix(params)])
        return {"iterations": rep.iterations,
                "ok": rep.stabilized and rep.iterations <= 5
                      and lattice_equal(rep.lattice, v_lat())}

    return [
        _entry("twist-orbit lattice equals the v-power lattice", p, orbit),
        _entry("e-basis seed saturates to the v-power lattice within five rounds", p, saturation),
    ]


def rank_cert(ctx: CycContext, genus: int) -> dict:
    n = count_spine_colorings(genus, ctx.p)
    v = verlinde_rank(ctx, genus)
    return {"claim": f"genus-{genus} rank equals the Verlinde trace",
            "p": ctx.p, "genus": genus, "rank": n, "verlinde": v, "ok": n == v}


def genus2_cert(p: int, basis: str) -> dict:
    """The genus-2 claim: the determinant is associate to the expected power
    of 1-q (gram_genus2 refutes it otherwise) and a unit exactly for Av."""
    rep = gram_genus2(p, basis)
    return {
        **rep,
        "claim": f"genus-2 {basis}-basis gram determinant is associate to "
                 f"(1-q)^{rep['expected_exponent']}",
        "ok": rep["unimodular"] == (basis == "Av"),
    }


def genus2_certs(p: int) -> list[dict]:
    return [_guarded(f"genus-2 {basis}-basis gram determinant exponent", p,
                     lambda basis=basis: genus2_cert(p, basis)) for basis in BASES_G2]


def genus3_cert(color: str) -> dict:
    """The genus-3 claim: valuation one (genus3_p5_report refutes any other) over
    the real subring, with the parity witness that no basis is unimodular."""
    rep = genus3_p5_report(color)
    witness = non_unimodular_witness(rep)
    return {
        **rep,
        "witness": witness,
        "claim": f"genus-3 {color}-recolored gram determinant has valuation "
                 "one over the real subring",
        "ok": rep["plus_subring"] is True and witness is not None,
    }


def genus3_certs() -> list[dict]:
    return [_guarded(f"genus-3 {color}-recolored gram determinant valuation", 5,
                     lambda color=color: genus3_cert(color)) for color in ("v", "omega")]


def corpus_certs(links: list[dict], cap_crossings: int) -> list[dict]:
    certs = []
    for entry in links:
        diagram = LinkDiagram.from_json(entry)
        if diagram.crossings > cap_crossings:
            found = [
                {
                    "claim": f"(1+A)^mu divides <L({name})>",
                    "skipped": True,
                    "reason": f"more than {cap_crossings} crossings",
                    "ok": True,
                }
                for name in COLORINGS
            ]
        else:
            found = divisibility_certificate(diagram)
        certs.extend({"name": entry["name"], **cert} for cert in found)
    return certs


def bundle(p_list, corpus: str | None = None, cap_crossings: int = 16) -> list[dict]:
    links = load_corpus(corpus)  # a bad corpus fails before any family runs
    certs = polynomial_certs()
    for p in p_list:
        params = TQFTParams.for_prime(p)
        certs.extend(genus1_certs(params))
        certs.extend(lattice_certs(params))
        certs.extend(_guarded(f"genus-{g} rank", p, lambda g=g: rank_cert(params.ctx, g))
                     for g in (1, 2, 3))
        certs.extend(genus2_certs(p))
    if 5 in p_list:
        certs.extend(genus3_certs())
    certs.extend(corpus_certs(links, cap_crossings))
    return certs


# --- verbs ----------------------------------------------------------------


def cmd_genus1(args) -> tuple[int, object]:
    checked_primes((args.p,), MAX_P_GENUS1, "genus1")
    params = TQFTParams.for_prime(args.p)
    if args.emit == "gram":
        g = gram(params, BASES_G1[args.basis](params))
        return 0, {"p": args.p, "basis": args.basis,
                   "gram": [[x.to_json() for x in row] for row in g]}
    return _verb(genus1_cert(params, args.basis))


def _verb(cert: dict, *hidden: str) -> tuple[int, dict]:
    """A verb prints its verify-all entry less the hidden keys, and exits
    nonzero when the entry's claim fails."""
    return (0 if cert["ok"] else 1), {k: v for k, v in cert.items() if k not in hidden}


def cmd_genus2(args) -> tuple[int, object]:
    checked_primes((args.p,), MAX_P_HEAVY, "genus2", min_p=5)
    return _verb(genus2_cert(args.p, args.basis), "claim", "ok")


def cmd_genus3p5(args) -> tuple[int, object]:
    return _verb(genus3_cert(args.color), "claim", "ok")


def cmd_rank(args) -> tuple[int, object]:
    checked_primes((args.p,), MAX_P_RANK, "rank")
    if not 1 <= args.genus <= MAX_GENUS_RANK:
        raise ValueError(f"the rank budget is 1 <= genus <= {MAX_GENUS_RANK}, got {args.genus}")
    return _verb(rank_cert(CycContext(args.p), args.genus), "claim")


def cmd_bracket(args) -> tuple[int, object]:
    if args.cap_crossings < 1:
        raise ValueError("caps must be positive")
    certs = corpus_certs(load_corpus(args.corpus), args.cap_crossings)
    code = 0 if all(c["ok"] for c in certs) else 1
    return code, certs


def cmd_stabilize(args) -> tuple[int, object]:
    checked_primes((args.p,), MAX_P_HEAVY, "stabilize")
    params = TQFTParams.for_prime(args.p)
    ctx = params.ctx
    seed = [omega(params)] if args.seed == "omega" else BASES_G1[args.seed](params)
    op_table = {"t": lambda: twist_matrix(params), "s": lambda: s_matrix(params)}
    names = [s.strip() for s in args.ops.split(",") if s.strip()]
    if not names or any(n not in op_table for n in names):
        raise ValueError(f"ops must be a comma list drawn from t, s; got {args.ops!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"each op may be given once, got {names}")
    rep = saturate(ctx, seed, [op_table[n]() for n in names])
    out = {
        "p": args.p,
        "seed": args.seed,
        "ops": names,
        **rep.to_json(),
        "hnf": [list(r) for r in rep.lattice.basis],
        "matches_v_lattice": lattice_equal(rep.lattice, _v_lattice(params)),
    }
    return (0 if rep.stabilized else 1), out


def cmd_verify_all(args) -> tuple[int, object]:
    p_list = checked_primes((int(x) for x in args.p.split(",")), MAX_P_HEAVY, "verify-all",
                            min_p=5)
    if args.cap_crossings < 1:
        raise ValueError("caps must be positive")
    out_dir = os.environ.get(OUT_ENV)
    if out_dir:  # an unusable directory fails before the bundle runs
        os.makedirs(out_dir, exist_ok=True)
    certs = _jsonable(bundle(p_list, args.corpus, args.cap_crossings))
    ok = all(c["ok"] for c in certs)
    if out_dir:
        path = os.path.join(out_dir, "verify_all.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(certs, sort_keys=True, indent=2))
            fh.write("\n")
    return (0 if ok else 1), certs


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skeinlat",
        description="exact certificates for skein-module lattices at odd primes",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def emit_flag(parser):
        parser.add_argument("--emit", choices=("json", "table"), default="json")

    g1 = sub.add_parser("genus1", help="genus-1 gram certificate for one basis")
    g1.add_argument("--p", type=int, required=True)
    g1.add_argument("--basis", choices=BASES_G1, default="e")
    g1.add_argument("--emit", choices=("gram", "certificate"), default="certificate")
    g1.set_defaults(func=cmd_genus1)

    g2 = sub.add_parser("genus2", help="genus-2 gram determinant report")
    g2.add_argument("--p", type=int, required=True)
    g2.add_argument("--basis", choices=BASES_G2, default="A")
    emit_flag(g2)
    g2.set_defaults(func=cmd_genus2)

    g3 = sub.add_parser("genus3p5", help="genus-3 report at p = 5")
    g3.add_argument("--color", choices=("v", "omega"), default="v")
    emit_flag(g3)
    g3.set_defaults(func=cmd_genus3p5)

    rk = sub.add_parser("rank", help="exact rank checked against the Verlinde trace")
    rk.add_argument("--p", type=int, required=True)
    rk.add_argument("--genus", type=int, required=True)
    emit_flag(rk)
    rk.set_defaults(func=cmd_rank)

    br = sub.add_parser("bracket", help="divisibility certificates over the corpus")
    br.add_argument("--corpus", metavar="FILE", default=None)
    br.add_argument("--cap-crossings", type=int, default=16)
    emit_flag(br)
    br.set_defaults(func=cmd_bracket)

    st = sub.add_parser("stabilize", help="saturate a seed lattice under operators")
    st.add_argument("--p", type=int, required=True)
    st.add_argument("--seed", choices=BASES_G1, default="e")
    st.add_argument("--ops", default="t,s", help="comma list from {t,s}, each at most once")
    emit_flag(st)
    st.set_defaults(func=cmd_stabilize)

    va = sub.add_parser("verify-all", help="run every certificate family")
    va.add_argument("--p", default="5,7", help="comma list of odd primes")
    va.add_argument("--corpus", metavar="FILE", default=None)
    va.add_argument("--cap-crossings", type=int, default=16)
    emit_flag(va)
    va.set_defaults(func=cmd_verify_all)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload = args.func(args)
    except ArithmeticError as exc:
        print(f"refuted: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = _jsonable(payload)
    if getattr(args, "emit", "json") == "table":
        print(_as_table(payload))
        if isinstance(payload, list):
            bad = sum(1 for c in payload if not c.get("ok", True))
            print(f"{len(payload)} certificates, {bad} failing")
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
