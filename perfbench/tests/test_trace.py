"""The traced run: deterministic counts, no effect on verb output, failures that count."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import child
import corpus
import run
import spans

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
COUNTS = ("cyclotomic.mul_calls", "cyclotomic.inv_misses", "laurent.mul_calls",
          "lattice.hnf_rows_in", "bracket.state_sum_calls")


def _verb(tmp_path, argv, traced):
    meta = tmp_path / "meta.json"
    args = [sys.executable, os.path.join(BENCH, "child.py"), "verb", str(meta)]
    if traced:
        args += ["--spans", str(tmp_path / "verb.spans")]
    proc = subprocess.run(args + ["--"] + argv, capture_output=True, cwd=ROOT, timeout=300, check=True)
    return proc.stdout, json.loads(meta.read_text())


def _small_verbs(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(corpus.corpus_json(11, links=4))
    return [
        ["genus2", "--p", "7", "--basis", "Av"],
        ["stabilize", "--p", "7", "--seed", "e", "--ops", "t,s"],
        ["bracket", "--corpus", str(path), "--cap-crossings", "32"],
        ["genus3p5", "--color", "v"],
    ]


def test_counts_repeat_and_stdout_is_unchanged_by_tracing(tmp_path):
    totals = []
    for _ in range(2):
        total = {}
        for argv in _small_verbs(tmp_path):
            plain, _ = _verb(tmp_path, argv, traced=False)
            traced, meta = _verb(tmp_path, argv, traced=True)
            assert plain == traced, argv
            assert meta["trace"]["missing"] == []
            total = spans.add_summary(total, meta["trace"])
        totals.append(spans.layer_metrics(total))
    for name in COUNTS:
        assert totals[0][name] == totals[1][name], name
        assert totals[0][name][0] > 0, name


def test_probe_samples_during_the_block_and_counts_its_own_time():
    with child.Probe(periodic=True) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
    # Five samples before, five after, and about one per PROBE_EVERY_S during.
    assert len(probe.samples) >= 10 + 3
    report = probe.report()
    assert report["ref_s"] > 0
    assert sum(probe.samples) <= report["probe_wall_s"] < 0.5


def test_a_verb_reports_its_probe(tmp_path):
    _, meta = _verb(tmp_path, ["genus2", "--p", "7", "--basis", "Av"], traced=False)
    assert meta["ref_s"] > 0 and meta["probe_wall_s"] > 0 and meta["probe_cpu_s"] > 0
    assert meta["certs_s"] == [meta["work_s"]]


def test_span_file_header_matches_its_payload(tmp_path):
    _verb(tmp_path, ["genus2", "--p", "5", "--basis", "G"], traced=True)
    with open(tmp_path / "verb.spans", "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    assert len(payload) == 4 * 8 * header["count"]
    assert "cli.main" in header["names"]


def test_traced_run_prints_layer_metrics_and_claims():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                           "bracket-braids", "--seed", "3", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, cwd=ROOT, timeout=180)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    result, info = json.loads(result_line), json.loads(info_line)["info"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(spans.layer_metrics({"calls": {}, "self_ns": {}, "counters": {}})) | {"trace.overhead_ratio"}
    assert info["claims"] == {"hnf_calls == 0": True, "every trace target wrapped": True}


def test_certificate_latency_is_its_median_over_rounds():
    rounds = [{"latencies": [1.0, 5.0]}, {"latencies": [3.0, 4.0]}, {"latencies": [2.0, 9.0]}]
    assert run.cert_latencies(rounds) == [2.0, 5.0]
    assert run.cert_latencies(rounds + [{"latencies": [1.0]}]) == []


def _bench_run(tmp_path, workload):
    return run.Run(workload, 1, str(tmp_path), deadline=0.0)


def test_a_false_claim_fails_the_run(tmp_path):
    metrics = spans.layer_metrics({"calls": {"lattice.hnf": 2}, "self_ns": {}, "counters": {}})
    bench = _bench_run(tmp_path, "genus2-p11")
    claims = run.check_claims(bench, metrics, 1.0, missing=[])
    assert claims["hnf_calls == 0"] is False
    assert (bench.attempted, bench.failed) == (len(claims), 1)

    metrics = spans.layer_metrics({"calls": {}, "self_ns": {"lattice.hnf": 7 * 10**9}, "counters": {}})
    bench = _bench_run(tmp_path, "stabilize-p13")
    assert run.check_claims(bench, metrics, 10.0, missing=[])["hnf_self_s >= 3/4 wall_s"] is False
    assert bench.failed == 1


def test_a_missing_trace_target_fails_the_run(tmp_path):
    metrics = spans.layer_metrics({"calls": {}, "self_ns": {}, "counters": {}})
    bench = _bench_run(tmp_path, "bracket-braids")
    claims = run.check_claims(bench, metrics, 1.0, missing=["skeinlat.lattice.hnf"])
    assert claims == {"hnf_calls == 0": True, "every trace target wrapped": False}
    assert bench.failed == 1


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_failing_verb_gives_an_incorrect_result_not_a_crash(tmp_path, trace):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    with open(tmp_path / "src" / "skeinlat" / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef cmd_genus2(args):\n    raise RuntimeError('genus2 broken on purpose')\n")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "genus2-p11", "--seed", "1",
                           "--seconds", "1", "--trace", trace], capture_output=True, text=True,
                          cwd=tmp_path, timeout=180)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 3 and result["attempted"] >= result["failed"]


def test_benchmark_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "genus2-p11", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
