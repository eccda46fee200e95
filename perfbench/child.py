"""One fresh interpreter per CLI verb, as a user of `skeinlat` would run it.

    python3 perfbench/child.py setup PRIME[,PRIME...]
    python3 perfbench/child.py verb META [--spans FILE] -- VERB ARGS...

`setup` imports skeinlat.cli, builds TQFTParams for each prime and prints
its host-speed probe report as one JSON line.  `verb` calls
skeinlat.cli.main on the verb arguments and copies the verb's stdout to this
process's stdout, byte for byte.  It writes to META a JSON report: the exit
code, the verb time, one latency per certificate, the probe report and,
with --spans, the per-layer summary of the traced call (the spans
themselves go to FILE).  For the bracket verb, each certificate is one
link: its two divisibility certificates plus its plain bracket evaluated
over Z[A, A^-1] and over Z[zeta] at ROOT_CHECK_PRIME, which must agree.

Host-speed probe: the shared host's speed drifts from minute to minute, so
each child times a fixed pure-Python loop (reference_loop) five times
before its work, five times after it and, unless the call is traced, every
PROBE_EVERY_S during it, from a SIGALRM handler that runs between the work's
own bytecodes.  The loop times' trimmed mean (`ref_s`) is what run.py
rescales every time by.  The time spent in probes (`probe_wall_s`, `probe_cpu_s`) is
left out of every time the report gives.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
ROOT_CHECK_PRIME = 7
REF_LOOP_N = 15000
REF_DICT_N = 3000
PROBE_EVERY_S = 0.1


def reference_loop() -> float:
    """Seconds for one pass of the fixed loop the host's speed is read from:
    small-integer arithmetic, then building small dicts keyed by tuples."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_N):
        acc += i * i % 7
    table = {}
    for i in range(REF_DICT_N):
        table[(i, i & 7)] = {i: acc}
    return time.perf_counter() - t0


def trimmed_mean(samples: list[float], cut: float = 0.2) -> float:
    """Mean of the samples left after dropping the lowest and highest cut."""
    ranked = sorted(samples)
    k = int(len(ranked) * cut)
    return statistics.fmean(ranked[k:len(ranked) - k])


class Probe:
    """Reference-loop timings around (and, if periodic, during) a block."""

    def __init__(self, periodic: bool):
        self.periodic = periodic
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _sample(self, *_signal) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(reference_loop())
        self.wall_s += time.perf_counter() - w0
        self.cpu_s += time.process_time() - c0

    def __enter__(self):
        for _ in range(5):
            self._sample()
        if self.periodic:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(5):
            self._sample()

    def report(self) -> dict:
        return {"ref_s": trimmed_mean(self.samples), "probe_wall_s": self.wall_s,
                "probe_cpu_s": self.cpu_s}


def _import_cli():
    sys.path.insert(0, SRC)
    from skeinlat import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"skeinlat imported from {cli.__file__}, not from {SRC}")
    return cli


def _root_check(corpus_path: str, probe: Probe) -> tuple[list[float], list[bool]]:
    from skeinlat import bracket, cyclotomic

    ctx = cyclotomic.CycContext(ROOT_CHECK_PRIME)
    coeffs = bracket.RootCoeffs(ctx)
    seconds, agree = [], []
    for entry in bracket.load_corpus(corpus_path):
        diagram = bracket.LinkDiagram.from_json(entry)
        t0, p0 = time.perf_counter(), probe.wall_s
        laurent = bracket.kauffman_bracket(diagram)
        at_root = bracket.kauffman_bracket(diagram, coeffs)
        agree.append(ctx.from_A_laurent(laurent) == at_root)
        seconds.append(time.perf_counter() - t0 - (probe.wall_s - p0))
    return seconds, agree


def run_verb(meta_path: str, spans_path: str | None, argv: list[str]) -> int:
    cli = _import_cli()
    recorder = None
    if spans_path:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()

    # Per-link latency of the bracket verb: time each divisibility call,
    # outside any span wrapper, keyed by the diagram it certifies.
    # Probe time is left out of every interval below.
    probe = Probe(periodic=recorder is None)
    cert_s: dict[tuple, float] = {}
    inner = cli.divisibility_certificate

    def timed_certificate(diagram, *args, **kwargs):
        t0, p0 = time.perf_counter(), probe.wall_s
        try:
            return inner(diagram, *args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0 - (probe.wall_s - p0)
            cert_s[diagram.pd] = cert_s.get(diagram.pd, 0.0) + elapsed

    cli.divisibility_certificate = timed_certificate

    buf = io.StringIO()
    with probe:
        t0, p0 = time.perf_counter(), probe.wall_s
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        main_s = time.perf_counter() - t0 - (probe.wall_s - p0)
        meta: dict = {"rc": code, "work_s": main_s, "certs_s": [main_s]}
        if argv[0] == "bracket":
            from skeinlat import bracket

            corpus_path = argv[argv.index("--corpus") + 1]
            pds = [bracket.LinkDiagram.from_json(e).pd for e in bracket.load_corpus(corpus_path)]
            root_s, agree = _root_check(corpus_path, probe)
            meta["certs_s"] = [cert_s.get(pd, 0.0) + r for pd, r in zip(pds, root_s)]
            meta["work_s"] += sum(root_s)
            meta["root_agree"] = agree
    sys.stdout.write(buf.getvalue())
    sys.stdout.flush()
    meta.update(probe.report())
    if recorder is not None:
        meta["trace"] = recorder.summary()
        recorder.dump(spans_path)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    st = sub.add_parser("setup")
    st.add_argument("primes")
    vb = sub.add_parser("verb")
    vb.add_argument("meta")
    vb.add_argument("--spans")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:cut])
    if args.mode == "setup":
        _import_cli()
        from skeinlat.torus import TQFTParams

        with Probe(periodic=True) as probe:
            for p in args.primes.split(","):
                TQFTParams(int(p))
        print(json.dumps(probe.report()))
        return 0
    verb_argv = argv[cut + 1:]
    if not verb_argv:
        ap.error("no verb after --")
    return run_verb(args.meta, args.spans, verb_argv)


if __name__ == "__main__":
    sys.exit(main())
