"""Span recorder for the traced run: wraps public skeinlat functions.

Each wrapped call records one span (name, start ns, end ns, parent span) in
flat in-memory arrays; nothing is written until the run ends.  A span's
self time is its duration minus the durations of the wrapped calls made
directly inside it.  The wrappers live here, in the benchmark, so the
program itself carries no tracing code.

A function is patched wherever it is looked up: every skeinlat module
global bound to it (names imported with `from .x import f`) and every
class attribute bound to it (so `__rmul__ = __mul__` is covered too).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (span name, module, attribute path) for every wrapped callable.
TARGETS = [
    ("cyclotomic.mul", "skeinlat.cyclotomic", "CycNum.__mul__"),
    ("cyclotomic.inv", "skeinlat.cyclotomic", "CycContext.inv"),
    ("cyclotomic.inverse", "skeinlat.cyclotomic", "CycNum.inverse"),
    ("cyclotomic.context", "skeinlat.cyclotomic", "CycContext.__init__"),
    ("matrices.det", "skeinlat.matrices", "determinant"),
    ("matrices.ldl", "skeinlat.matrices", "ldl_decomposition"),
    ("planar.closed_form", "skeinlat.planar", "gram_closed_genus2"),
    ("planar.expand", "skeinlat.planar", "expand_arrangement"),
    ("planar.report", "skeinlat.planar", "gram_genus2"),
    ("planar.report", "skeinlat.planar", "genus3_p5_report"),
    ("planar.gram_bracket", "skeinlat.planar", "gram_bracket"),
    ("lattice.hnf", "skeinlat.lattice", "hnf"),
    ("lattice.from_vectors", "skeinlat.lattice", "OLattice.from_vectors"),
    ("lattice.saturate", "skeinlat.lattice", "saturate"),
    ("bracket.state_sum", "skeinlat.bracket", "kauffman_bracket"),
    ("bracket.divisibility", "skeinlat.bracket", "divisibility_certificate"),
    ("laurent.mul", "skeinlat.laurent", "IntLaurent.__mul__"),
    ("recoupling.at_root", "skeinlat.recoupling", "theta_at"),
    ("recoupling.at_root", "skeinlat.recoupling", "tet_at"),
    ("recoupling.at_root", "skeinlat.recoupling", "quantum_dim_at"),
    ("torus.params", "skeinlat.torus", "TQFTParams.__init__"),
    ("torus.s_matrix", "skeinlat.torus", "s_matrix"),
    ("annulus.e_product", "skeinlat.annulus", "e_product_in_e"),
    ("cli.main", "skeinlat.cli", "main"),
]
CLI_VERB_SPAN = "cli.cmd"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_det(counters, args, kwargs, result):
    dim = len(_arg(args, kwargs, 0, "a"))
    counters["det_max_dim"] = max(counters.get("det_max_dim", 0), dim)


def _count_hnf(counters, args, kwargs, result):
    counters["hnf_rows_in"] = counters.get("hnf_rows_in", 0) + len(_arg(args, kwargs, 0, "rows"))
    counters["hnf_pivots_out"] = counters.get("hnf_pivots_out", 0) + len(result)


def _count_saturate(counters, args, kwargs, result):
    counters["saturate_rounds"] = counters.get("saturate_rounds", 0) + result.iterations


def _count_state_sum(counters, args, kwargs, result):
    crossings = _arg(args, kwargs, 0, "diagram").crossings
    counters["crossings_in"] = counters.get("crossings_in", 0) + crossings


HOOKS = {
    "matrices.det": _count_det,
    "lattice.hnf": _count_hnf,
    "lattice.saturate": _count_saturate,
    "bracket.state_sum": _count_state_sum,
}


class Recorder:
    """Spans kept as flat int64 quadruples: name id, start, end, parent."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        hook, counters = HOOKS.get(name), self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((nid, clock(), 0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[4 * idx + 2] = clock()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target, and every cli.cmd_* verb, in all loaded modules."""
        targets = list(TARGETS)
        cli = importlib.import_module("skeinlat.cli")
        targets += [(CLI_VERB_SPAN, "skeinlat.cli", n) for n in sorted(vars(cli)) if n.startswith("cmd_")]
        modules = _skeinlat_modules()
        for name, mod_name, path in targets:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            if isinstance(owner, type):
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self.wrap(name, fn)
                for key, val in list(vars(owner).items()):
                    if val is raw:
                        setattr(owner, key, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            else:
                wrapped = self.wrap(name, raw)
                for module in modules:
                    for key, val in list(vars(module).items()):
                        if val is raw:
                            setattr(module, key, wrapped)

    def summary(self) -> dict:
        """Per span name: calls and self time; plus hook counters."""
        spans = self.spans
        ids = {name: k for k, name in enumerate(self.names)}
        inv, inverse = ids.get("cyclotomic.inv"), ids.get("cyclotomic.inverse")
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        child_ns = [0] * (len(spans) >> 2)
        inv_misses = 0
        # Children follow their parent, so walking backwards sees every
        # child of a span before the span itself.
        for i in reversed(range(len(child_ns))):
            nid, start, end, parent = spans[4 * i:4 * i + 4]
            calls[self.names[nid]] += 1
            self_ns[self.names[nid]] += end - start - child_ns[i]
            if parent >= 0:
                child_ns[parent] += end - start
                inv_misses += nid == inverse and spans[4 * parent] == inv
        counters = dict(self.counters, inv_misses=inv_misses)
        return {"calls": calls, "self_ns": self_ns, "counters": counters, "missing": self.missing}

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then raw native-endian int64s."""
        header = {"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"],
                  "count": len(self.spans) >> 2, "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(fh)


def _skeinlat_modules() -> list:
    """The package and every submodule, imported."""
    import pkgutil

    import skeinlat

    subs = [importlib.import_module(f"skeinlat.{m.name}")
            for m in pkgutil.iter_modules(skeinlat.__path__)]
    return [skeinlat] + subs


def layer_metrics(total: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from summaries summed over a round's verb runs."""
    calls, self_ns, counters = total["calls"], total["self_ns"], total["counters"]

    def c(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e9

    def k(name):
        return counters.get(name, 0)

    inv_calls = c("cyclotomic.inv")
    rows_in = k("hnf_rows_in")
    return {
        "cyclotomic.mul_calls": (c("cyclotomic.mul"), "count"),
        "cyclotomic.mul_self_s": (s("cyclotomic.mul"), "s"),
        "cyclotomic.inv_calls": (inv_calls, "count"),
        "cyclotomic.inv_misses": (k("inv_misses"), "count"),
        "cyclotomic.inv_hit_ratio": ((inv_calls - k("inv_misses")) / inv_calls if inv_calls else 0.0, "ratio"),
        "cyclotomic.contexts_built": (c("cyclotomic.context"), "count"),
        "matrices.det_calls": (c("matrices.det"), "count"),
        "matrices.det_max_dim": (k("det_max_dim"), "rows"),
        "matrices.det_self_s": (s("matrices.det"), "s"),
        "matrices.ldl_self_s": (s("matrices.ldl"), "s"),
        "planar.closed_form_self_s": (s("planar.closed_form"), "s"),
        "planar.expand_self_s": (s("planar.expand"), "s"),
        "planar.report_self_s": (s("planar.report"), "s"),
        "planar.gram_bracket_self_s": (s("planar.gram_bracket"), "s"),
        "lattice.hnf_calls": (c("lattice.hnf"), "count"),
        "lattice.hnf_rows_in": (rows_in, "count"),
        "lattice.hnf_row_yield": (k("hnf_pivots_out") / rows_in if rows_in else 0.0, "ratio"),
        "lattice.hnf_self_s": (s("lattice.hnf"), "s"),
        "lattice.from_vectors_self_s": (s("lattice.from_vectors"), "s"),
        "lattice.saturate_rounds": (k("saturate_rounds"), "count"),
        "bracket.state_sum_calls": (c("bracket.state_sum"), "count"),
        "bracket.crossings_in": (k("crossings_in"), "count"),
        "bracket.state_sum_self_s": (s("bracket.state_sum"), "s"),
        "bracket.divisibility_self_s": (s("bracket.divisibility"), "s"),
        "laurent.mul_calls": (c("laurent.mul"), "count"),
        "laurent.mul_self_s": (s("laurent.mul"), "s"),
        "recoupling.self_s": (s("recoupling.at_root"), "s"),
        "torus.params_built": (c("torus.params"), "count"),
        "torus.s_matrix_self_s": (s("torus.s_matrix"), "s"),
        "annulus.e_product_self_s": (s("annulus.e_product"), "s"),
        "cli.emit_s": (s("cli.main"), "s"),
    }


def add_summary(total: dict, part: dict) -> dict:
    """Sum two summaries; det_max_dim takes the maximum."""
    out = {}
    for key in ("calls", "self_ns", "counters"):
        merged = dict(total.get(key, {}))
        for name, val in part[key].items():
            if name == "det_max_dim":
                merged[name] = max(merged.get(name, 0), val)
            else:
                merged[name] = merged.get(name, 0) + val
        out[key] = merged
    out["missing"] = sorted(set(total.get("missing", [])) | set(part["missing"]))
    return out
