"""Seeded benchmark for indlab: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload enumerate|sequence|experiment|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

Each pass of a workload runs in a fresh single-threaded interpreter
(bench/worker.py); passes run one at a time for up to S seconds: a pass
that would likely end after S is not started, but at least MIN_PASSES of
each kind run.  With --trace 0 the last stdout line is a JSON object with
the end-to-end metrics: setup_s (below), peak_rss_mb as the median over the
passes, and wall_probes, the workload's wall time in units
of a fixed speed probe timed next to each step (speedprobe.py), summed over
the steps' medians.  wall_s, the same sum in seconds, is printed above it.
With --trace 1 the passes alternate untraced and traced, and the JSON
carries every per-layer metric of tracer.LAYER_METRICS; the spans of the
traced passes are written to .bench_out/.  --smoke runs one pass of each
kind at tiny sizes.

setup_s is the set-up time normalised the same way: each sample's wall time
from process start to the end of ``import indlab.cli`` over the probe taken
around that import, as a median over the samples, times the probe's
reference time (speedprobe.REFERENCE_PROBE_S), so it reads in seconds at a
fixed reference speed.  setup_raw_s, the median in plain seconds, is printed
above it.  Besides the set-up of every pass, an untraced run starts
SETUP_SAMPLES_PER_PASS set-up-only process before each pass.

Every step's output is checked (workloads.py), and every pass must give the
same output digest and counters as the first, traced or not; a failed step
or check counts in "failed" and makes "correct" false.  The exit code is 0
when every pass ran, 1 when a worker failed, and 2 when the checkout has no
indlab sources to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speedprobe import REFERENCE_PROBE_S  # noqa: E402
from tracer import COUNTER_NAMES, LAYER_METRICS, span_times  # noqa: E402

WORKLOADS = ("enumerate", "sequence", "experiment")
END_TO_END = (("setup_s", "s"), ("wall_probes", "probes"), ("peak_rss_mb", "MB"))
MIN_PASSES = 2
SETUP_SAMPLES_PER_PASS = 1
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerFailed(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list[str]) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload: str, seed: int, traced: bool, smoke: bool) -> dict:
    return run_worker(["--workload", workload, "--seed", str(seed),
                       "--trace", str(int(traced))] + (["--smoke"] if smoke else []))


def environment(seed: int, versions: dict) -> dict:
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src_dir)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                src.update(os.path.relpath(path, src_dir).encode() + b"\0" + f.read())
    return {"git_sha": git_sha, "src_sha256": src.hexdigest(), **versions,
            "nproc": os.cpu_count(), "threads_per_process": 1, "seed": seed}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Untraced passes, alternating with traced ones when tracing.

    Returns the passes by kind, the set-up-only samples (an untraced run
    takes SETUP_SAMPLES_PER_PASS before each pass) and the elapsed time.
    """
    kinds = (False, True) if trace else (False,)
    passes: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    setups: list[dict] = []
    needed = 1 if smoke else MIN_PASSES
    start = time.monotonic()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        if not trace:
            setups += [run_worker(["--setup-only"]) for _ in range(SETUP_SAMPLES_PER_PASS)]
        passes[kind].append(run_pass(workload, seed, kind, smoke))
        i += 1
        elapsed = time.monotonic() - start
        # Start no pass that would likely end after `seconds`, so that a run
        # keeps to its time on a slow machine too.
        if all(len(p) >= needed for p in passes.values()) and (
                smoke or elapsed + elapsed / i > seconds):
            return passes, setups, elapsed


def tally(passes: dict[bool, list[dict]]) -> tuple[int, list[str]]:
    """Attempted steps and checks, and the names of those that failed."""
    attempted, failed = 0, []
    every = [p for kind in passes for p in passes[kind]]
    for i, p in enumerate(every):
        for item in p["steps"] + p["checks"]:
            attempted += 1
            if not item["ok"]:
                failed.append(f"pass {i}: {item['name']}: {item.get('detail', '')}".strip())
    first = every[0]
    for i, p in enumerate(every[1:], start=1):
        for key in ("digest", "counters"):
            attempted += 1
            if p[key] != first[key]:
                failed.append(f"pass {i}: {key} differs from pass 0")
    traced = passes.get(True, [])
    for i, p in enumerate(traced[1:], start=1):
        attempted += 1
        if p["layer_counters"] != traced[0]["layer_counters"]:
            failed.append(f"traced pass {i}: layer counters differ from traced pass 0")
    return attempted, failed


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            return f"p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f}"
    return "no tail percentile below n=40"


def exact_ratio(counters: dict) -> float:
    queries = counters.get("komplexity.queries", 0)
    return counters.get("komplexity.exact", 0) / queries if queries else 0.0


def step_time(p: dict, j: int, in_probes: bool) -> float:
    """Step j of pass p in seconds, or divided by the probes taken around it."""
    dt = p["steps"][j]["wall_s"]
    return dt / ((p["probes"][j] + p["probes"][j + 1]) / 2) if in_probes else dt


def step_wall(passes: list[dict], in_probes: bool = False) -> float:
    """Sum over the workload's steps of each step's median over passes.

    On a shared virtual machine the CPU speed drifts by tens of percent
    within a pass, so a median per step, summed, is steadier than the median
    of per-pass totals.
    """
    return sum(statistics.median(step_time(p, j, in_probes) for p in passes)
               for j in range(len(passes[0]["steps"])))


def layer_metrics(passes: dict[bool, list[dict]]) -> dict:
    traced = passes[True]
    times = [span_times(p["spans"]) for p in traced]
    counters = traced[0]["layer_counters"]
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name == "cli.import_s":
            value = statistics.median(p["import_s"] for p in traced)
        elif name == "trace.overhead_s":
            # In probe units, so that speed drift between the passes cancels.
            probe = statistics.median(x for kind in passes for p in passes[kind]
                                      for x in p["probes"])
            value = probe * (step_wall(traced, in_probes=True)
                             - step_wall(passes[False], in_probes=True))
        elif name == "randomness.exact_ratio":
            value = exact_ratio(traced[0]["counters"])
        elif name in COUNTER_NAMES:
            value = counters[name]
        else:
            value = statistics.median(t.get(name, 0.0) for t in times)
        out[name] = {"value": value, "unit": unit}
    return out


def write_spans(workload: str, seed: int, traced: list[dict]) -> str:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as f:
        for i, p in enumerate(traced):
            for span in p["spans"]:
                f.write(json.dumps({"pass": i, **span}) + "\n")
    return os.path.relpath(path, ROOT)


def report(workload: str, seed: int, trace: bool, passes, setups, elapsed: float) -> dict:
    every = [p for kind in passes for p in passes[kind]]
    untraced = passes[False]
    attempted, failed = tally(passes)
    print(f"== {workload} seed={seed} trace={int(trace)}: {len(untraced)} untraced and "
          f"{len(passes.get(True, []))} traced passes and {len(setups)} set-up-only "
          f"samples in {elapsed:.1f} s")
    print("env " + json.dumps(environment(seed, every[0]["versions"]), sort_keys=True))
    n_steps = range(len(untraced[0]["steps"]))
    setup_samples = every + setups
    rows = {  # name: (unit, value, samples)
        "setup_s": ("s", REFERENCE_PROBE_S * statistics.median(
                        p["setup_probes"] for p in setup_samples),
                    [REFERENCE_PROBE_S * p["setup_probes"] for p in setup_samples]),
        "setup_raw_s": ("s", statistics.median(p["setup_s"] for p in setup_samples),
                        [p["setup_s"] for p in setup_samples]),
        "wall_s": ("s", step_wall(untraced), [p["wall_s"] for p in untraced]),
        "wall_probes": ("probes", step_wall(untraced, in_probes=True),
                        [sum(step_time(p, j, True) for j in n_steps) for p in untraced]),
        "peak_rss_mb": ("MB", statistics.median(p["peak_rss_mb"] for p in untraced),
                        [p["peak_rss_mb"] for p in untraced]),
    }
    for name, (unit, value, values) in rows.items():
        print(f"  {name:<13} {value:.4f} {unit}  n={len(values)}  {tail(values)}  samples "
              + " ".join(f"{v:.4f}" for v in values))
    print(f"  {'probe':<13} {statistics.median(x for p in untraced for x in p['probes']) * 1e3:.4f} "
          f"ms median speed-probe time")
    metrics = {name: {"value": rows[name][1], "unit": unit} for name, unit in END_TO_END}
    print(f"  {'failed_ratio':<13} {len(failed) / attempted:.4f}  ({len(failed)} of {attempted} "
          f"steps and checks)")
    if workload == "enumerate":
        c = untraced[0]["counters"]
        print(f"  {'exact_ratio':<13} {exact_ratio(c):.4f}  ({c.get('komplexity.exact')} of "
              f"{c.get('komplexity.queries')} exact-K queries answered exact)")
    for j, step in enumerate(untraced[0]["steps"]):
        values = [p["steps"][j]["wall_s"] for p in untraced]
        print(f"  step {step['name']:<26} median {statistics.median(values):.4f} s  samples "
              + " ".join(f"{v:.4f}" for v in values))
    for line in failed:
        print(f"  FAILED {line}")
    if trace:
        metrics = layer_metrics(passes)
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
        print(f"  spans written to {write_spans(workload, seed, passes[True])}")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=44)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one pass per kind at tiny sizes")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "indlab", "cli.py")):
        print(f"no indlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # Untimed warm-up: byte-compiles the sources and warms the file cache so
    # that every timed setup_s sample sees the same state.
    src = os.path.join(ROOT, "src")
    warm = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); import indlab.cli"],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"cannot import indlab.cli: {warm.stderr[-2000:]}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            passes, setups, elapsed = run_workload(workload, args.seed, args.seconds,
                                                   bool(args.trace), args.smoke)
            print(json.dumps(report(workload, args.seed, bool(args.trace), passes, setups,
                                    elapsed)), flush=True)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
