"""Tests of the benchmark itself: exact counters, no timing assertions."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads
from indlab import cli, hv, machine, randomness, sequences
from tracer import LAYER_METRICS, Tracer, span_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_smoke(name: str, traced: bool):
    p = workloads.Pass(seed=0, smoke=True)
    steps, checks = workloads.WORKLOADS[name]
    tracer = None
    if traced:
        with Tracer(name) as tracer:
            steps(p)
    else:
        steps(p)
    checks(p)
    return p, tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_checks_and_tracing_changes_no_result(name, tmp_path, monkeypatch):
    digests = []
    for traced in (False, True):
        (tmp_path / str(traced)).mkdir()
        monkeypatch.chdir(tmp_path / str(traced))
        p, _ = run_smoke(name, traced)
        assert [s for s in p.steps if not s["ok"]] == []
        assert [c for c in p.checks if not c["ok"]] == []
        digests.append((workloads.output_digest(p), p.counters))
    assert digests[0] == digests[1]


def test_omega_entries_at_small_max_len(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with Tracer("t") as tracer:
        code = cli.dispatch(["omega", "--max-len", "10", "--steps", "1000", "--json", "o.json"])
    assert code == cli.EXIT_OK
    assert tracer.counters["machine.entries"] == 22
    assert tracer.counters["machine.unresolved_timeouts"] == 0
    names = [s.name for s in tracer.spans]
    assert names == ["cli.dispatch", "cli.omega", "randomness.omega_lower_bound",
                     "machine.enumerate_domain", "randomness.prefix_free_violations"]


def test_exact_k_search_runs_twice_per_komplexity_query(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with Tracer("enumerate") as tracer:
        workloads.enumerate_steps(p := workloads.Pass(seed=0, smoke=True))
    queries = len(p.inputs["targets"])
    assert tracer.counters["randomness.exact_k_small_calls"] == 2 * queries
    by_id = {s.id: s for s in tracer.spans}
    searches = [s for s in tracer.spans if s.name == "randomness.exact_k_small"]
    assert sorted(by_id[s.parent].name for s in searches) == (
        ["cli.komplexity"] * queries + ["randomness.k_upper_bound"] * queries)


def test_tracer_restores_every_binding():
    originals = (randomness.k_upper_bound, hv.k_upper_bound, machine.run_machine,
                 cli.dispatch, vars(sequences.SequenceSource)["prefix"])
    with Tracer("t"):
        assert hv.k_upper_bound is randomness.k_upper_bound is not originals[0]
        assert machine.run_machine is not originals[2]
    assert (randomness.k_upper_bound, hv.k_upper_bound, machine.run_machine,
            cli.dispatch, vars(sequences.SequenceSource)["prefix"]) == originals


def test_self_time_excludes_children():
    spans = [
        {"id": 0, "name": "a", "parent": None, "busy": 5.0},
        {"id": 1, "name": "b", "parent": 0, "busy": 2.0},
        {"id": 2, "name": "b", "parent": 0, "busy": 1.0},
        {"id": 3, "name": "c", "parent": 1, "busy": 0.5},
    ]
    t = span_times(spans)
    assert (t["a_s"], t["a_self_s"]) == (5.0, 2.0)
    assert (t["b_s"], t["b_self_s"]) == (3.0, 2.5)


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in LAYER_METRICS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_traced_smoke_run_prints_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "sequence",
         "--seed", "3", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m[0] for m in LAYER_METRICS]
    assert result["metrics"]["sequences.symbols"]["value"] == 90_000


def test_setup_only_worker_reports_setup_in_seconds_and_probes():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "worker.py"), "--setup-only",
         "--t0", repr(time.monotonic())],
        cwd=ROOT, env=run.worker_env(), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"setup_s", "setup_probes"}
    assert result["setup_s"] > 0 and result["setup_probes"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "enumerate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
