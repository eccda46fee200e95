"""Certificate benchmark for skeinlat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a single-client closed loop: one verb after another, each
through skeinlat.cli.main in a fresh interpreter (perfbench/child.py), as a
command-line user would run them.  A round is one pass over the workload's
verbs; rounds repeat while the next one fits in S seconds (at least one).
Every output is checked, and the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are given at a nominal host speed.  On a shared host the speed can
drift by a quarter from one minute to the next, for wall and CPU time
alike.  So each child process also times a fixed reference loop before,
during and after its work (child.Probe), and every time it takes is
multiplied by REF_S / (its mean reference-loop time): seconds on a host
that runs the loop in REF_S.  A change to the program moves these times as
it moves raw ones; the raw times are in the info line.

--trace 0 reports the end-to-end metrics, medians over rounds.  --trace 1
runs one plain round and one round with every public layer function wrapped
in a span (perfbench/spans.py) and reports the per-layer metrics of the
traced round.  A traced run also checks the layer separation claims and that
every wrap target still exists; a false claim or a missing target fails the
run like a failed certificate.  The line before the result carries the
environment, sample counts and, for traced runs, the claims.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import corpus
import spans
from child import ROOT_CHECK_PRIME

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
OUT = os.path.join(BENCH, "_out")
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 5
# Nominal time of one child.reference_loop(); about its mean on a 2.1 GHz
# Xeon under Python 3.11.
REF_S = 0.0025

CORPUS_ARG = "{corpus}"
WORKLOADS = {
    # Cyclotomic products and inverses, Bareiss determinants and the planar
    # routes do all the work; lattice and bracket none.
    "genus2-p11": {
        "primes": (11,),
        "verbs": [["genus2", "--p", "11", "--basis", b] for b in ("G", "A", "Av")],
    },
    # HNF over ~52k zeta-closed rows is ~85% of the time.
    "stabilize-p13": {
        "primes": (13,),
        "verbs": [["stabilize", "--p", "13", "--seed", "e", "--ops", "t,s"]],
    },
    # State sums over IntLaurent (the verb) and over CycNum (the root check
    # and the genus-3 Gram); lattice does none of the work.
    "bracket-braids": {
        "primes": (5, ROOT_CHECK_PRIME),
        "verbs": [
            ["bracket", "--corpus", CORPUS_ARG, "--cap-crossings", str(corpus.MAX_CROSSINGS)],
            ["genus3p5", "--color", "v"],
            ["genus3p5", "--color", "omega"],
        ],
    },
}

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "cert_p50_ms": "ms",
    "cert_p90_ms": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "limits": "page cache not dropped; processes not pinned to a CPU",
    }


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        proc = None
    if proc is None or proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


class Run:
    def __init__(self, workload: str, seed: int, work_dir: str, deadline: float):
        self.spec = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.corpus_path = os.path.join(work_dir, "corpus.json")
        self.verbs = [[self.corpus_path if a == CORPUS_ARG else a for a in v] for v in self.spec["verbs"]]
        random.Random(seed).shuffle(self.verbs)
        with open(os.path.join(BENCH, "expected_stdout.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.corpus_text: str | None = None
        self.corpus_entries: list[dict] = []

    def _spawn(self, args: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
        """Run child.py; returns the process, its wall time and its CPU time."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, CHILD] + args, capture_output=True,
                                  timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{args} did not finish in time") from exc
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return proc, wall, cpu

    def setup_once(self) -> tuple[float, float]:
        """One set-up; returns its time at nominal host speed, and raw.

        Drawing the corpus is the benchmark's work, not the program's, so it
        is done once, before the first set-up and outside its time; each
        set-up writes the corpus file.
        """
        if self.corpus_text is None and any(CORPUS_ARG in v for v in self.spec["verbs"]):
            self.corpus_text = corpus.corpus_json(self.seed)
            self.corpus_entries = json.loads(self.corpus_text)["links"]
        t0 = time.perf_counter()
        if self.corpus_text is not None:
            with open(self.corpus_path, "w", encoding="utf-8") as fh:
                fh.write(self.corpus_text)
        proc, _, _ = self._spawn(["setup", ",".join(map(str, self.spec["primes"]))])
        raw = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.decode(errors='replace')[-2000:]}")
        probe = json.loads(proc.stdout.decode().splitlines()[-1])
        raw -= probe["probe_wall_s"]
        return raw * REF_S / probe["ref_s"], raw

    def run_round(self, trace_dir: str | None) -> dict:
        """Run every verb once; returns wall, cpu, latencies (at nominal host
        speed), raw wall and cpu, digests and the trace summary."""
        wall = cpu = raw_wall = raw_cpu = work_s = 0.0
        latencies, digests = [], {}
        summary = {"calls": {}, "self_ns": {}, "counters": {}, "missing": []}
        for k, argv in enumerate(self.verbs):
            meta_path = os.path.join(self.work_dir, f"meta{k}.json")
            args = ["verb", meta_path]
            if trace_dir is not None:
                args += ["--spans", os.path.join(trace_dir, f"{k}-{argv[0]}.spans")]
            if os.path.exists(meta_path):
                os.remove(meta_path)
            proc, verb_wall, verb_cpu = self._spawn(args + ["--"] + argv)
            meta = {}
            if proc.returncode == 0 and os.path.exists(meta_path):
                with open(meta_path, encoding="utf-8") as fh:
                    meta = json.load(fh)
            label = " ".join(argv)
            digests[label] = hashlib.sha256(proc.stdout).hexdigest()
            oks = self.check(argv, proc, meta)
            self.attempted += len(oks)
            verb_wall -= meta.get("probe_wall_s", 0.0)
            verb_cpu -= meta.get("probe_cpu_s", 0.0)
            scale = REF_S / meta.get("ref_s", REF_S)
            raw_wall += verb_wall
            raw_cpu += verb_cpu
            wall += verb_wall * scale
            cpu += verb_cpu * scale
            latencies += [x * scale for x in meta.get("certs_s", [])]
            work_s += meta.get("work_s", 0.0) * scale
            if "trace" in meta:
                summary = spans.add_summary(summary, meta["trace"])
        return {"wall_s": wall, "cpu_s": cpu, "raw_wall_s": raw_wall, "raw_cpu_s": raw_cpu,
                "latencies": latencies, "digests": digests, "work_s": work_s, "trace": summary}

    def fail(self, label: str, why: str, certificates: int = 1) -> bool:
        self.failed += certificates
        self.failures.append(f"{label}: {why}")
        return False

    def check(self, argv: list[str], proc, meta: dict) -> list[bool]:
        """One pass/fail per certificate the verb produced."""
        label = " ".join(argv)
        n_certs = len(self.corpus_entries) if argv[0] == "bracket" else 1
        if proc.returncode != 0 or meta.get("rc") != 0:
            why = f"exit {meta.get('rc', proc.returncode)}: {proc.stderr.decode(errors='replace')[-500:]}"
            self.fail(label, why, n_certs)
            return [False] * n_certs
        try:
            payload = json.loads(proc.stdout)
        except json.JSONDecodeError:
            self.fail(label, "stdout is not JSON", n_certs)
            return [False] * n_certs
        if argv[0] == "bracket":
            return self.check_bracket(label, payload, meta)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if self.expected.get(label) != digest:
            return [self.fail(label, "stdout differs from the recorded digest")]
        if argv[0] == "genus2":
            basis = argv[argv.index("--basis") + 1]
            ok = (payload.get("unit_cofactor") is True
                  and payload.get("associate_exponent") == payload.get("expected_exponent")
                  and payload.get("unimodular") == (basis == "Av"))
        elif argv[0] == "stabilize":
            ok = payload.get("stabilized") is True and payload.get("matches_v_lattice") is True
        else:
            ok = (payload.get("associate_exponent") == 1 and payload.get("unit_cofactor") is True
                  and payload.get("plus_subring") is True and payload.get("witness") is not None)
        return [ok or self.fail(label, "certificate predicate false")]

    def check_bracket(self, label: str, payload: list, meta: dict) -> list[bool]:
        by_name: dict[str, list[dict]] = {}
        for cert in payload:
            by_name.setdefault(cert.get("name"), []).append(cert)
        agree = meta.get("root_agree", [])
        oks = []
        for i, entry in enumerate(self.corpus_entries):
            name = entry["name"]
            certs = by_name.get(name, [])
            if len(certs) != 2:
                oks.append(self.fail(name, f"{len(certs)} certificates, want 2"))
            elif not all(c.get("ok") is True and not c.get("skipped") and c.get("mu") == entry["mu"]
                         for c in certs):
                oks.append(self.fail(name, "divisibility certificate not ok, skipped or wrong mu"))
            elif i >= len(agree) or not agree[i]:
                oks.append(self.fail(name, "Laurent and root-of-unity brackets disagree"))
            else:
                oks.append(True)
        if len(meta.get("certs_s", [])) != len(self.corpus_entries):
            raise BenchError(f"{label}: per-link latencies missing")
        return oks


def percentiles(samples: list[float]) -> tuple[float, float]:
    """Median and nearest-rank 90th percentile (the largest sample below 10)."""
    ranked = sorted(samples)
    return statistics.median(ranked), ranked[math.ceil(0.9 * len(ranked)) - 1]


def cert_latencies(rounds: list[dict]) -> list[float]:
    """Each certificate's latency, the median over the rounds that ran it.

    Every round certifies the same inputs in the same order, so a burst of
    load on the shared host moves one round's sample of a certificate, not
    its median.  Empty when a verb failed and left a round short.
    """
    per_round = [r["latencies"] for r in rounds]
    if not per_round[0] or any(len(x) != len(per_round[0]) for x in per_round):
        return []
    return [statistics.median(xs) for xs in zip(*per_round)]


def measure(run: Run, seconds: int, trace: bool, trace_dir: str) -> tuple[dict, dict]:
    setups = [run.setup_once() for _ in range(SETUP_REPEATS)]
    rounds, elapsed = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run.run_round(None))
        elapsed.append(time.perf_counter() - t0)
        typical = statistics.median(elapsed)
        out_of_budget = time.monotonic() + typical > run.deadline - 5
        if trace or out_of_budget or time.perf_counter() - start + typical > seconds:
            break
    latencies = cert_latencies(rounds)
    info = {
        "workload": run.workload, "seed": run.seed, "seconds": seconds, "trace": int(trace),
        "verbs": [" ".join(v) for v in run.verbs], "rounds": len(rounds),
        "ref_s": REF_S,
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_raw_wall_s": [r["raw_wall_s"] for r in rounds],
        "round_raw_cpu_s": [r["raw_cpu_s"] for r in rounds],
        "setup_s_samples": [s for s, _ in setups],
        "setup_raw_s_samples": [raw for _, raw in setups],
        "cert_samples": len(latencies),
        "environment": environment(),
    }
    if not trace:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "ok_ratio": (run.attempted - run.failed) / run.attempted,
        }
        # No latencies means a verb failed; the run is already incorrect.
        if latencies:
            p50, p90 = percentiles(latencies)
            metrics["cert_p50_ms"], metrics["cert_p90_ms"] = 1000 * p50, 1000 * p90
            info["cert_samples_beyond_p90"] = sum(1 for x in latencies if x > p90)
        return {k: (metrics[k], u) for k, u in END_TO_END_UNITS.items() if k in metrics}, info

    plain = rounds[0]
    traced = run.run_round(trace_dir)
    for label, digest in plain["digests"].items():
        if traced["digests"].get(label) != digest:
            run.fail(label, "stdout differs with tracing on")
    metrics = spans.layer_metrics(traced["trace"])
    if plain["work_s"] > 0:
        metrics["trace.overhead_ratio"] = (traced["work_s"] / plain["work_s"], "ratio")
    info["untraced_raw_wall_s"] = plain["raw_wall_s"]
    info["traced_raw_wall_s"] = traced["raw_wall_s"]
    info["missing_trace_targets"] = traced["trace"]["missing"]
    info["claims"] = check_claims(run, metrics, traced["raw_wall_s"], traced["trace"]["missing"])
    return metrics, info


def separation_claims(workload: str, metrics: dict, traced_wall_s: float) -> dict:
    """Which layers do (and do not) carry each workload.

    HNF's self time is compared with the raw wall time of the traced round it
    was measured in.  That wall holds the untraced work plus the tracing overhead,
    so the claim is at least as strict as one against an untraced round, and
    it does not move with the host's drift from one round to the next.
    """
    claims = {}
    if workload == "stabilize-p13":
        claims["hnf_self_s >= 3/4 wall_s"] = metrics["lattice.hnf_self_s"][0] >= 0.75 * traced_wall_s
    if workload in ("genus2-p11", "bracket-braids"):
        claims["hnf_calls == 0"] = metrics["lattice.hnf_calls"][0] == 0
    if workload in ("genus2-p11", "stabilize-p13"):
        claims["state_sum_calls == 0"] = metrics["bracket.state_sum_calls"][0] == 0
    return claims


def check_claims(run: Run, metrics: dict, traced_wall_s: float, missing: list[str]) -> dict:
    """Each separation claim, and the presence of every wrap target, is one check.

    A renamed target would read 0 and make a `== 0` claim hold vacuously, so a
    missing target fails the run as a false claim does.
    """
    claims = separation_claims(run.workload, metrics, traced_wall_s)
    claims["every trace target wrapped"] = not missing
    for claim, holds in claims.items():
        run.attempted += 1
        if not holds:
            run.fail("traced run", f"claim false: {claim}")
    return claims


def main() -> int:
    ap = argparse.ArgumentParser(description="skeinlat certificate benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "skeinlat", "cli.py")):
        print(f"error: no skeinlat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{args.workload}-s{args.seed}"
    work_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    trace_dir = os.path.join(OUT, "trace", tag)
    os.makedirs(work_dir)
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    try:
        run = Run(args.workload, args.seed, work_dir, deadline)
        metrics, info = measure(run, args.seconds, bool(args.trace), trace_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    info["failures"] = run.failures[:20]
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
