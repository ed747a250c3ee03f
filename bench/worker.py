"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 [--smoke] --t0 T
    python3 bench/worker.py --setup-only --t0 T

T is the parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start-up plus ``import indlab.cli``.  The speed
probe (speedprobe.py) is taken just before and just after that import, and
its time is left out of setup_s; setup_probes is setup_s over the mean of
the two probes.  indlab is imported from the checkout's src/ first, before
anything else heavy, and the pass runs in a fresh directory under
.bench_tmp/ that is removed afterwards.  --setup-only stops after the
import and prints only the set-up figures.  Exit code 3 means indlab could
not be imported from src/."""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()
    if not args.setup_only and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required unless --setup-only")

    from speedprobe import probe_s

    t_probe = time.monotonic()
    probe_before = probe_s()
    probe_time = time.monotonic() - t_probe
    sys.path.insert(0, SRC)
    t_import = time.perf_counter()
    try:
        import indlab.cli
    except ImportError as exc:
        print(f"cannot import indlab from {SRC}: {exc}", file=sys.stderr)
        return 3
    import_s = time.perf_counter() - t_import
    setup_s = time.monotonic() - args.t0 - probe_time
    setup_probes = setup_s / ((probe_before + probe_s()) / 2)
    if not os.path.abspath(indlab.cli.__file__).startswith(SRC + os.sep):
        print(f"indlab was imported from {indlab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3

    import json

    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probes": setup_probes}))
        return 0
    import resource
    import shutil
    import tempfile
    import traceback

    import workloads
    from tracer import Tracer

    steps, checks = workloads.WORKLOADS[args.workload]
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    cwd = os.getcwd()
    p = workloads.Pass(args.seed, args.smoke)
    tracer = None
    try:
        os.chdir(work)
        if args.trace:
            with Tracer(args.workload) as tracer:
                steps(p)
        else:
            steps(p)
        p.probe()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            checks(p)
        except Exception:
            p.checks.append({"name": "checks completed", "ok": False,
                             "detail": traceback.format_exc(limit=3)})
        digest = workloads.output_digest(p)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    from importlib.metadata import PackageNotFoundError, version

    def installed(package: str):
        try:
            return version(package)
        except PackageNotFoundError:
            return None

    result = {
        "setup_s": setup_s,
        "setup_probes": setup_probes,
        "import_s": import_s,
        "wall_s": p.wall_s,
        "peak_rss_mb": peak_rss_mb,
        "steps": p.steps,
        "probes": p.probes,
        "checks": p.checks,
        "counters": p.counters,
        "digest": digest,
        "versions": {"python": sys.version.split()[0], "numpy": installed("numpy"),
                     "scipy": installed("scipy")},
    }
    if tracer is not None:
        result["layer_counters"] = tracer.counters
        result["spans"] = tracer.span_records()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
