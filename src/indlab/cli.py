"""Command-line entry point: every subsystem behind one reproducible tool.

Exit codes: 0 success, 1 usage or I/O error, 2 a statistical or logical
check failed (the run itself succeeded, the claim did not).  A JSON report
is still written on exit 2 when --json was given.  Every run emits a
manifest (parameters, seeds, input/output digests, wall time) next to its
primary output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, bell, hv, ks, randomness as rl, sequences as sq

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2


class CheckFailed(Exception):
    """A completed run whose statistical/logical claim did not hold."""


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    def __init__(self, subcommand: str, params: dict):
        self.data = {
            "schema": "manifest/v1",
            "tool_version": __version__,
            "subcommand": subcommand,
            "parameters": {k: v for k, v in params.items()
                           if v is not None and k != "func"},
            "inputs": {},
            "outputs": {},
        }
        self._t0 = time.time()

    def add_input(self, name: str) -> None:
        """Key an input by the name it was given, bundled data files included."""
        self.data["inputs"][name] = _sha256(_resolve_data_path(name))

    def add_output(self, path: str) -> None:
        if path and os.path.exists(path):
            self.data["outputs"][path] = _sha256(path)

    def write(self, explicit: str | None, primary_output: str | None) -> None:
        self.data["wall_time_s"] = round(time.time() - self._t0, 4)
        path = explicit or (primary_output + ".manifest.json" if primary_output else None)
        if path:
            with open(path, "w") as f:
                json.dump(self.data, f, indent=2, sort_keys=True)
                f.write("\n")


def _write_json(path: str | None, obj: dict) -> None:
    if path:
        with open(path, "w") as f:
            json.dump(obj, f, indent=2, sort_keys=True, default=_json_default)
            f.write("\n")


def _json_default(o):
    if isinstance(o, Fraction):
        return {"numerator": o.numerator, "denominator": o.denominator,
                "value": float(o)}
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    raise TypeError(f"cannot serialize {type(o)}")


def _parse_checkpoints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _resolve_data_path(name: str) -> str:
    if os.path.exists(name):
        return name
    candidate = os.path.join(ks.data_dir(), name)
    if os.path.exists(candidate):
        return candidate
    raise FileNotFoundError(f"no such file {name!r} (also looked in {ks.data_dir()})")


# -- subcommands -------------------------------------------------------------


def cmd_generate(args, manifest: Manifest) -> int:
    if args.fair_coin:
        source = sq.SequenceSource("born_sampler", seed=args.seed, probs=[0.5, 0.5])
    elif args.kind == "born":
        probs = [float(p) for p in args.probs.split(",")]
        source = sq.SequenceSource(
            "born_sampler", alphabet_size=max(2, len(probs)), seed=args.seed, probs=probs
        )
    elif args.kind == "champernowne":
        source = sq.SequenceSource(
            "champernowne", alphabet_size=args.base, start_at_one=args.start_at_one
        )
    elif args.kind == "constant":
        source = sq.SequenceSource("constant", alphabet_size=args.base, symbol=args.symbol)
    elif args.kind == "periodic":
        pattern = [int(t) for t in args.pattern.split(",")]
        source = sq.SequenceSource("periodic", alphabet_size=args.base, pattern=pattern)
    elif args.kind == "os":
        source = sq.SequenceSource("os_entropy", alphabet_size=args.base)
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    sigma = source.prefix(args.n)
    sq.write_sequence_file(args.out, sigma)
    print(f"wrote {len(sigma)} base-{sigma.alphabet_size} symbols to {args.out}")
    return EXIT_OK


ANALYZE_TESTS = ("borel", "blocks", "monkey")


def cmd_analyze(args, manifest: Manifest) -> int:
    tests = args.tests.split(",")
    unknown = [t for t in tests if t not in ANALYZE_TESTS]
    if unknown:
        raise ValueError(f"unknown --tests {unknown}; choose from {list(ANALYZE_TESTS)}")
    if args.max_block < 1:
        raise ValueError(f"--max-block must be >= 1, got {args.max_block}")
    sigma = sq.read_sequence_file(args.infile)
    manifest.add_input(args.infile)
    report: dict = {"schema": "randlab/v1", "input": args.infile,
                    "n": len(sigma), "alphabet": sigma.alphabet_size, "tests": {}}
    failed = False
    if "borel" in tests:
        reports = rl.borel_normality_test(sigma, args.max_block)
        report["tests"]["borel"] = [r.to_dict() for r in reports]
        failed |= any(not r.passed for r in reports)
    if "blocks" in tests:
        report["tests"]["blocks"] = {
            str(ell): sq.block_frequencies(sigma, ell)
            for ell in range(1, args.max_block + 1)
        }
    if "monkey" in tests:
        target = sq.SymbolString.from_text(args.target, sigma.alphabet_size)
        src = sq.SequenceSource.of_file(args.infile, sigma)
        positions = rl.monkey_search(target, src, len(sigma))
        report["tests"]["monkey"] = {
            "target": args.target,
            "occurrences": len(positions),
            "positions_head": positions[:100],
        }
    _write_json(args.json, report)
    for name, result in report["tests"].items():
        if name == "borel":
            n_pass = sum(1 for r in result if r["pass"])
            print(f"borel: {n_pass}/{len(result)} block tests pass")
        elif name == "monkey":
            print(f"monkey: {result['occurrences']} occurrences of {result['target']}")
        else:
            print(f"{name}: written")
    if failed:
        raise CheckFailed("borel normality battery failed")
    return EXIT_OK


def cmd_komplexity(args, manifest: Manifest) -> int:
    sigma = sq.read_sequence_file(args.infile)
    manifest.add_input(args.infile)
    budget = None
    if args.exact_max_len is not None:
        budget = (args.exact_max_len, args.steps)
    est = rl.k_upper_bound(sigma, budget=budget)
    out = {
        "schema": "randlab/v1",
        "n": len(sigma),
        "k_upper": est.value,
        "kind": est.kind,
        "method": est.method,
        "margin": est.value - len(sigma),
        "witness_bits": len(est.witness),
    }
    if args.exact_max_len is not None:
        exact = rl.exact_k_small(sigma, args.exact_max_len, args.steps)
        if isinstance(exact, rl.ComplexityEstimate):
            search = {"value": exact.value, "kind": exact.kind}
        else:
            search = {
                "no_program_within": exact.max_len,
                "steps": exact.max_steps,
                "unresolved_timeouts": exact.unresolved_timeouts,
            }
        search["unresolved_bits_consumed"] = list(exact.unresolved_bits_consumed)
        out["exact_search"] = search
    _write_json(args.json, out)
    print(f"K_upper = {out['k_upper']} bits ({out['method']}), "
          f"margin {out['margin']} over n={out['n']}")
    return EXIT_OK


def cmd_omega(args, manifest: Manifest) -> int:
    est = rl.omega_lower_bound(args.max_len, args.steps)
    violations = rl.prefix_free_violations(est.programs)
    out = {
        "schema": "randlab/v1",
        "omega_lower_bound": est.lower_bound,
        "programs_found": est.programs_found,
        "budget": {"max_len": est.search_budget[0], "max_steps": est.search_budget[1]},
        "prefix_free_violations": len(violations),
    }
    _write_json(args.json, out)
    print(f"omega >= {est.lower_bound} = {float(est.lower_bound):.8f} "
          f"({est.programs_found} halting programs)")
    if violations:
        raise CheckFailed("halting-program log contains a proper-prefix pair")
    return EXIT_OK


def _load_sampler(args) -> hv.Sampler:
    name = args.sampler
    if name == "counter":
        return hv.Sampler.counter()
    if name == "alternating":
        return hv.Sampler.alternating()
    if name.startswith("constant"):
        value = int(name.split(":")[1]) if ":" in name else 0
        return hv.Sampler.constant(value)
    if name == "prng":
        probs = None
        if args.bias:
            probs = [float(p) for p in args.bias.split(",")]
        return hv.Sampler.prng(args.seed, probs)
    if name == "os":
        return hv.Sampler.os_entropy()
    if name.startswith("file:"):
        return hv.Sampler.recorded(name.split(":", 1)[1])
    raise ValueError(f"unknown sampler {name!r}")


def cmd_hv(args, manifest: Manifest) -> int:
    model = hv.load_model(_resolve_data_path(args.model))
    manifest.add_input(args.model)
    sampler = _load_sampler(args)
    if args.hv_command == "run":
        x = hv.run_model(model, sampler, args.n)
        sq.write_sequence_file(args.out, x)
        print(f"wrote {len(x)} outcomes of {model.name} to {args.out}")
        return EXIT_OK
    if args.hv_command == "audit1":
        rep = hv.scenario_one_audit(model, sampler, _parse_checkpoints(args.checkpoints))
        _write_json(args.json, rep.to_dict())
        for p in rep.checkpoints:
            print(f"N={p['n']}: K_upper={p['k_upper']} margin={p['margin']}")
        print(f"incompatible with 1-randomness: {rep.flagged}; "
              f"pushforward matches target: {rep.pushforward_ok}")
        if not rep.pushforward_ok:
            raise CheckFailed("model violates its compatibility contract")
        return EXIT_OK
    rep = hv.scenario_two_audit(model, sampler, args.n)
    _write_json(args.json, rep.to_dict())
    print(f"sampling fairness at 6 sigma: {'pass' if rep.fair else 'FAIL'} "
          f"(randomness origin: {rep.randomness_origin})")
    if not rep.fair:
        raise CheckFailed("sampler failed the Born-measure fairness check")
    return EXIT_OK


def _load_functional(name: str) -> bell.MismatchFunctional:
    if name == "default":
        return bell.default_functional()
    if name == "chsh":
        return bell.chsh_functional()
    terms = []
    for part in name.split(";"):
        try:
            c, a, b = part.split(",")
            terms.append((Fraction(c), float(a), float(b)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"--functional term {part!r} is not coeff,a_deg,b_deg: {exc}") \
                from None
    return bell.MismatchFunctional(tuple(terms))


def cmd_bell(args, manifest: Manifest) -> int:
    if args.bell_command == "run":
        settings = bell.SettingSet(tuple(float(a) for a in args.settings.split(",")))
        trials = bell.run_bipartite(args.model, settings, args.n, args.seed)
        bell.save_trials_csv(args.out, trials)
        manifest.add_output(args.out + ".meta.json")
        print(f"wrote {len(trials)} {args.model} trials to {args.out}")
        return EXIT_OK
    trials = bell.load_trials_csv(args.infile)
    manifest.add_input(args.infile)
    functional = _load_functional(args.functional)
    report: dict = {"schema": "bell/v1", "input": args.infile,
                    "n_trials": len(trials), "model": trials.metadata.get("model")}
    failures: list[str] = []
    if functional.degenerate:
        report["functional"] = {"name": functional.name, "skipped": "degenerate"}
        print("functional: skipped (all coefficients zero)")
    else:
        est = bell.empirical_functional(trials, functional)
        bound, _ = bell.local_bound_bruteforce(functional.settings(), functional)
        qv = bell.quantum_value(functional)
        report["functional"] = {
            "name": functional.name,
            "empirical": est.value,
            "six_sigma": est.six_sigma,
            "quantum": qv,
            "local_bound": bound,
            "per_term": est.per_term,
        }
        model_kind = trials.metadata.get("model")
        if model_kind == "hv" and est.value > float(bound) + est.six_sigma:
            failures.append(
                f"local-model run reports functional {est.value:.4f} beyond the "
                f"exact local bound {bound} - impossible claim"
            )
        if model_kind == "quantum" and abs(est.value - qv) > est.six_sigma:
            failures.append(
                f"quantum run functional {est.value:.4f} not within 6 sigma of "
                f"the quantum value {qv:.4f}"
            )
        print(f"functional {functional.name}: empirical {est.value:.4f} "
              f"(quantum {qv:.4f}, local bound {float(bound):.4f})")
    mismatches = bell.perfect_correlation_violations(trials)
    report["equal_setting_mismatches"] = mismatches
    if trials.metadata.get("model") == "quantum" and mismatches:
        failures.append(f"{mismatches} equal-setting mismatches in a quantum run")
    try:
        ra, rb = bell.no_signaling_check(trials)
        report["no_signaling"] = {"alice": ra.to_dict(), "bob": rb.to_dict()}
        print(f"no-signaling: alice {'pass' if ra.passed else 'FAIL'}, "
              f"bob {'pass' if rb.passed else 'FAIL'}")
        if not (ra.passed and rb.passed):
            failures.append("no-signaling marginal independence failed")
    except ValueError as exc:
        report["no_signaling"] = {"skipped": str(exc)}
    if trials.lam is not None:
        fc = bell.free_choice_check(trials)
        report["free_choice"] = fc.to_dict()
        status = "skip" if fc.skipped else ("pass" if fc.passed else "FAIL")
        print(f"free-choice independence: {status}")
        if not fc.passed and not fc.skipped:
            failures.append("free-choice independence failed")
    _write_json(args.json, report)
    if failures:
        raise CheckFailed("; ".join(failures))
    return EXIT_OK


def cmd_ks(args, manifest: Manifest) -> int:
    problem = ks.load_rays_file(_resolve_data_path(args.rays))
    manifest.add_input(args.rays)
    validation = ks.validate_problem(problem)
    if args.ks_command == "search":
        if not validation.ok:
            for issue in validation.issues:
                print(f"invalid problem: {issue.kind}: {issue.detail}", file=sys.stderr)
            return EXIT_USAGE
        result = ks.search_coloring(problem)
        cert = {
            "schema": "ks/v1",
            "rays": validation.ray_count,
            "bases": validation.basis_count,
            "status": result.status,
            "nodes": result.stats.nodes,
            "max_depth": result.stats.max_depth,
        }
        if result.status == "colored":
            cert["coloring"] = list(result.assignment)
            cert["verified"] = ks.verify_coloring(problem, result.assignment)
        _write_json(args.json, cert)
        print(f"{result.status.upper()} ({validation.ray_count} rays, "
              f"{validation.basis_count} bases, {result.stats.nodes} nodes)")
        if result.status == "colored" and not cert["verified"]:
            raise CheckFailed("searcher returned a coloring the verifier rejects")
        return EXIT_OK
    with open(args.coloring) as f:
        manifest.add_input(args.coloring)
        obj = json.load(f)
    assignment = obj["coloring"] if isinstance(obj, dict) else obj
    ok = ks.verify_coloring(problem, assignment)
    _write_json(args.json, {"schema": "ks/v1", "valid": bool(ok)})
    print("VALID" if ok else "INVALID")
    if not ok:
        raise CheckFailed("coloring claim is false")
    return EXIT_OK


def cmd_report(args, manifest: Manifest) -> int:
    known = {"randlab/v1", "bell/v1", "ks/v1", "hv-audit1/v1", "hv-audit2/v1"}
    sections = []
    plot_rows: list[tuple] = []
    for path in sorted(args.inputs):
        manifest.add_input(path)
        with open(path) as f:
            obj = json.load(f)
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: expected a JSON object, got a {type(obj).__name__}")
        schema = obj.get("schema")
        if schema == "manifest/v1":
            continue
        if schema not in known:
            raise ValueError(f"{path}: unknown or missing schema {schema!r}; "
                             f"expected one of {sorted(known)}")
        sections.append((path, schema, obj))
    lines = []
    for path, schema, obj in sections:
        lines.append(f"== {path} ({schema}) ==")
        if schema == "hv-audit1/v1":
            lines.append("  exercises: determinism clause (theory states h and hence x)")
            for p in obj["checkpoints"]:
                lines.append(f"  N={p['n']}: margin {p['margin']}")
                plot_rows.append((path, "margin", p["n"], p["margin"]))
            lines.append(f"  incompatible with 1-randomness: "
                         f"{obj['incompatible_with_1_randomness']}")
        elif schema == "hv-audit2/v1":
            lines.append("  exercises: Born-rule clause (h must sample the measure)")
            lines.append(f"  fair: {obj['fair']}; origin: {obj['randomness_origin']}")
        elif schema == "bell/v1":
            lines.append("  exercises: locality + free-choice clauses (Bell functional)")
            fn = obj.get("functional", {})
            if "empirical" in fn:
                bound = fn["local_bound"]
                if isinstance(bound, dict):
                    bound = bound["value"]
                lines.append(f"  functional {fn['name']}: empirical {fn['empirical']:.4f}"
                             f" vs local bound {bound}")
                for t in fn.get("per_term", []):
                    plot_rows.append((path, "mismatch", f"{t['a']}-{t['b']}", t["mismatch"]))
        elif schema == "randlab/v1":
            if "tests" in obj and "borel" in obj.get("tests", {}):
                n_pass = sum(1 for r in obj["tests"]["borel"] if r["pass"])
                lines.append(f"  borel battery: {n_pass}/{len(obj['tests']['borel'])} pass")
            if "k_upper" in obj:
                lines.append(f"  K_upper {obj['k_upper']} (margin {obj['margin']})")
            if "omega_lower_bound" in obj:
                lb = obj["omega_lower_bound"]
                lines.append(f"  omega lower bound {lb['numerator']}/{lb['denominator']}")
        elif schema == "ks/v1":
            lines.append(f"  coloring search: {obj.get('status', obj.get('valid'))}")
    text = "\n".join(lines)
    print(text)
    _write_json(args.json, {"schema": "report/v1", "sections": [
        {"path": p, "schema": s} for p, s, _ in sections], "text": text})
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("source,series,x,y\n")
            for row in plot_rows:
                f.write(",".join(str(v) for v in row) + "\n")
        manifest.add_output(args.csv)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="indlab",
        description="Born sampling, randomness analysis, hidden-variable audits, "
                    "Bell experiments, and Kochen-Specker search.",
    )
    p.add_argument("--version", action="version", version=f"indlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True, json_out=True):
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if json_out:
            sp.add_argument("--json", help="write a JSON report here")
        sp.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")

    g = sub.add_parser("generate", help="write a seq/v1 sequence file")
    g.add_argument("--kind", default="born",
                   choices=["born", "champernowne", "constant", "periodic", "os"])
    g.add_argument("--fair-coin", action="store_true",
                   help="shorthand for --kind born --probs 0.5,0.5")
    g.add_argument("--probs", default="0.5,0.5")
    g.add_argument("--base", type=int, default=2)
    g.add_argument("--symbol", type=int, default=0)
    g.add_argument("--pattern", default="0,1")
    g.add_argument("--start-at-one", action="store_true")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)
    common(g, json_out=False)

    a = sub.add_parser("analyze", help="statistical batteries on a sequence file")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--tests", default="borel,blocks")
    a.add_argument("--max-block", type=int, default=3)
    a.add_argument("--target", default="01", help="monkey-search target block")
    a.set_defaults(func=cmd_analyze)
    common(a, seed=False)

    k = sub.add_parser("komplexity", help="description-length estimates")
    k.add_argument("--in", dest="infile", required=True)
    k.add_argument("--exact-max-len", type=int, default=None)
    k.add_argument("--steps", type=int, default=10_000)
    k.set_defaults(func=cmd_komplexity)
    common(k, seed=False)

    o = sub.add_parser("omega", help="halting-probability lower bound")
    o.add_argument("--max-len", type=int, default=16)
    o.add_argument("--steps", type=int, default=10_000)
    o.set_defaults(func=cmd_omega)
    common(o, seed=False)

    h = sub.add_parser("hv", help="hidden-variable model runs and audits")
    h.set_defaults(func=cmd_hv)
    hsub = h.add_subparsers(dest="hv_command", required=True)
    hr = hsub.add_parser("run")
    hr.add_argument("--model", required=True)
    hr.add_argument("--sampler", default="counter")
    hr.add_argument("--bias", help="prng sampling distribution override, e.g. 0.6,0.4")
    hr.add_argument("--n", type=int, required=True)
    hr.add_argument("--out", required=True)
    common(hr, json_out=False)
    h1 = hsub.add_parser("audit1")
    h1.add_argument("--model", required=True)
    h1.add_argument("--sampler", default="counter")
    h1.add_argument("--bias")
    h1.add_argument("--checkpoints", default="100,1000,10000")
    common(h1)
    h2 = hsub.add_parser("audit2")
    h2.add_argument("--model", required=True)
    h2.add_argument("--sampler", default="prng")
    h2.add_argument("--bias")
    h2.add_argument("--n", type=int, default=100_000)
    common(h2)

    b = sub.add_parser("bell", help="bipartite experiments")
    b.set_defaults(func=cmd_bell)
    bsub = b.add_subparsers(dest="bell_command", required=True)
    br = bsub.add_parser("run")
    br.add_argument("--model", default="quantum", choices=["quantum", "signaling"])
    br.add_argument("--settings", default="0,30,60")
    br.add_argument("--n", type=int, required=True)
    br.add_argument("--out", required=True)
    common(br, json_out=False)
    ba = bsub.add_parser("analyze")
    ba.add_argument("--in", dest="infile", required=True)
    ba.add_argument("--functional", default="default")
    common(ba, seed=False)

    kk = sub.add_parser("ks", help="Kochen-Specker coloring search")
    kk.set_defaults(func=cmd_ks)
    ksub = kk.add_subparsers(dest="ks_command", required=True)
    ksearch = ksub.add_parser("search")
    ksearch.add_argument("--rays", required=True)
    common(ksearch, seed=False)
    kverify = ksub.add_parser("verify")
    kverify.add_argument("--rays", required=True)
    kverify.add_argument("--coloring", required=True)
    common(kverify, seed=False)

    r = sub.add_parser("report", help="consolidate JSON reports")
    r.add_argument("--in", dest="inputs", nargs="+", required=True)
    r.add_argument("--csv", help="write plot-ready series here")
    r.set_defaults(func=cmd_report)
    common(r, seed=False)
    return p


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    manifest = Manifest(args.command, vars(args))
    primary_output = getattr(args, "out", None) or getattr(args, "json", None)
    try:
        code = args.func(args, manifest)
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        code = EXIT_CHECK_FAILED
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for attr in ("out", "json", "csv"):
        path = getattr(args, attr, None)
        if path:
            manifest.add_output(path)
    manifest.write(getattr(args, "manifest", None), primary_output)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
