"""Command-line entry point: every subsystem behind one reproducible tool.

A subcommand that judges something returns its report with a "claims"
list: one {claim, status, why} per verdict, status pass, fail or skipped,
why the numbers it rests on.  dispatch alone prints the claims, one line
each as report lists them, and turns them into the exit code: 0 success,
1 usage or I/O error, 2 iff some claim failed (the run itself succeeded,
the claim did not), naming each failed claim's why on stderr.  The JSON
report is written either way when --json was given.
Every run emits a manifest (parameters, seeds, input/output digests, wall
time) next to its primary output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__, bell, hv, ks, randomness as rl, sequences as sq

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
DATA_DIR_ENV = "INDLAB_DATA_DIR"


def _claim(claim: str, ok, why: str) -> dict:
    """One entry of a report's claims: pass or fail by ok, skipped when ok is None."""
    return {"claim": claim, "status": "skipped" if ok is None else "pass" if ok else "fail",
            "why": why}


def _claim_line(c: dict) -> str:
    """A claim as one line of text: its status, its name and its why."""
    return f"{c['status']:7} {c['claim']}: {c['why']}"


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
        _write_json(explicit or (primary_output + ".manifest.json" if primary_output else None),
                    self.data)


def _write_json(path: str | None, obj: dict) -> None:
    if path:
        with open(path, "w") as f:
            json.dump(obj, f, indent=2, sort_keys=True, default=_json_default)
            f.write("\n")


def _json_default(o):
    if isinstance(o, Fraction):
        return {"numerator": o.numerator, "denominator": o.denominator,
                "value": float(o)}
    raise TypeError(f"cannot serialize {type(o)}")


def _read_json(path: str):
    """The JSON value in path; a parse error names the file."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _parse_list(option: str, text: str, convert) -> list:
    """The comma-separated values of a list option; an empty or bad token
    raises a ValueError naming the option and the token."""
    values = []
    for token in text.split(","):
        try:
            values.append(convert(token))
        except ValueError:
            raise ValueError(f"{option}: bad entry {token!r} in {text!r}") from None
    return values


def _in_range(option: str, value: int | None, low: int, high: int | None = None) -> None:
    """Refuse an int option's value below low or above high, naming the option."""
    if value is None or low <= value and (high is None or value <= high):
        return
    rule = f">= {low}" if high is None else f"in {low}..{high}"
    raise ValueError(f"{option} must be {rule}, got {value}")


def data_dir() -> str:
    """The bundled data directory, or $INDLAB_DATA_DIR when set."""
    return os.environ.get(DATA_DIR_ENV) or os.path.join(os.path.dirname(__file__), "data")


def _resolve_data_path(name: str) -> str:
    if os.path.isfile(name):
        return name
    candidate = os.path.join(data_dir(), name)
    if os.path.isfile(candidate):
        return candidate
    raise FileNotFoundError(f"no such file {name!r} (also looked in {data_dir()})")


# -- subcommands -------------------------------------------------------------


# generate --kind names the SequenceSource kind it builds, which reads the options that
# spell its SOURCE_KEYWORDS and --base, its alphabet (born's comes from --probs)
GENERATE_KINDS = tuple(kind for kind in sq.SOURCE_KEYWORDS if kind != "file")


def cmd_generate(args, manifest: Manifest) -> None:
    fair = "0.5,0.5"
    if args.fair_coin and (args.kind, args.probs or fair) != ("born", fair):
        raise ValueError(f"--fair-coin stands for --kind born --probs {fair}, "
                         f"got --kind {args.kind} --probs {args.probs or fair}")
    _in_range("--n", args.n, 0)
    _in_range("--base", args.base, 2, sq.MAX_ALPHABET.get(args.kind))
    for key in ("base", "probs", "pattern", "seed", "start_at_one"):
        reads = key in sq.SOURCE_KEYWORDS[args.kind] or (key == "base" and args.kind != "born")
        if getattr(args, key) is not None and not reads:
            raise ValueError(f"--kind {args.kind} does not read --{key.replace('_', '-')}")
    keywords = {key: getattr(args, key) for key in sq.SOURCE_KEYWORDS[args.kind]
                if getattr(args, key) is not None}
    if "probs" in keywords:
        keywords["probs"] = sq.distribution(_parse_list("--probs", args.probs, float), "--probs")
    if "pattern" in keywords:
        keywords["pattern"] = _parse_list("--pattern", args.pattern, int)
    alphabet = max(2, len(keywords.get("probs", ()))) if args.base is None else args.base
    for symbol in keywords.get("pattern", ()):
        _in_range("--pattern", symbol, 0, alphabet - 1)
    sigma = sq.SequenceSource(args.kind, alphabet, **keywords).prefix(args.n)
    sq.write_sequence_file(args.out, sigma)
    print(f"wrote {len(sigma)} base-{sigma.alphabet_size} symbols to {args.out}")


ANALYZE_TESTS = ("borel", "blocks", "monkey")


def cmd_analyze(args, manifest: Manifest) -> dict:
    tests = args.tests.split(",")
    unknown = [t for t in tests if t not in ANALYZE_TESTS]
    if unknown:
        raise ValueError(f"unknown --tests {unknown}; choose from {list(ANALYZE_TESTS)}")
    if args.max_block is not None and not {"borel", "blocks"} & set(tests):
        raise ValueError(f"--max-block applies only to --tests borel or blocks, "
                         f"not {args.tests!r}")
    if args.target is not None and "monkey" not in tests:
        raise ValueError(f"--target applies only to --tests monkey, not {args.tests!r}")
    if args.target == "":
        raise ValueError("--target must be non-empty")
    _in_range("--max-block", args.max_block, 1)
    max_block = 3 if args.max_block is None else args.max_block
    target = "01" if args.target is None else args.target
    sigma = sq.read_sequence_file(args.infile)
    manifest.add_input(args.infile)
    report: dict = {"schema": "randlab/v1", "input": args.infile,
                    "n": len(sigma), "alphabet": sigma.alphabet_size, "tests": {}, "claims": []}
    if "borel" in tests:
        borel = report["tests"]["borel"] = rl.borel_normality_test(sigma, max_block)
        n_pass = sum(1 for r in borel if r["pass"])
        report["claims"].append(_claim("borel_normality", n_pass == len(borel),
                                       f"borel battery: {n_pass}/{len(borel)} block tests pass"))
    if "blocks" in tests:
        report["tests"]["blocks"] = {
            str(ell): sq.block_frequencies(sigma, ell)
            for ell in range(1, max_block + 1)
        }
        print("blocks: written")
    if "monkey" in tests:
        symbols = sq.SymbolString.from_text(target, sigma.alphabet_size)
        if len(symbols) > len(sigma):
            raise ValueError(f"--target {target} has {len(symbols)} symbols, "
                             f"more than the {len(sigma)} of {args.infile}")
        src = sq.SequenceSource.of_file(args.infile, sigma)
        positions = rl.monkey_search(symbols, src, len(sigma))
        report["tests"]["monkey"] = {
            "target": target,
            "occurrences": len(positions),
            "positions_head": positions[:100],
        }
        print(f"monkey: {len(positions)} occurrences of {target}")
    return report


def cmd_komplexity(args, manifest: Manifest) -> dict:
    if args.steps is not None and args.exact_max_len is None:
        raise ValueError("--steps applies only with --exact-max-len")
    _in_range("--exact-max-len", args.exact_max_len, 0, rl.EXACT_SEARCH_MAX_LEN)
    _in_range("--steps", args.steps, 0)
    sigma = sq.read_sequence_file(args.infile)
    manifest.add_input(args.infile)
    budget = None if args.exact_max_len is None else (
        args.exact_max_len, 10_000 if args.steps is None else args.steps)
    est = rl.k_upper_bound(sigma, budget=budget)
    margin = est.value - len(sigma)
    out = {
        "schema": "randlab/v1", "n": len(sigma), "k_upper": est.value, "kind": est.kind,
        "method": est.method, "margin": margin, "witness_bits": len(est.witness),
        # k_upper_bound re-runs the witness, so the bound it returns holds
        "claims": [_claim("k_upper", True, f"K_upper {est.value} bits by {est.method}, "
                          f"margin {margin} over n={len(sigma)}: the witness reproduces "
                          "the input")],
    }
    if budget is not None:
        # k_upper_bound searched with these arguments: a memo hit, no second walk
        exact = rl.exact_k_small(sigma, *budget)
        if isinstance(exact, rl.ComplexityEstimate):
            search = {"value": exact.value, "kind": exact.kind}
        else:
            search = {
                "no_program_within": exact.max_len,
                "steps": exact.max_steps,
                "unresolved_timeouts": len(exact.unresolved_bits_consumed),
            }
        search["unresolved_bits_consumed"] = list(exact.unresolved_bits_consumed)
        out["exact_search"] = search
    return out


def cmd_omega(args, manifest: Manifest) -> dict:
    _in_range("--max-len", args.max_len, 0, rl.EXACT_SEARCH_MAX_LEN)
    _in_range("--steps", args.steps, 0)
    est = rl.omega_lower_bound(args.max_len, args.steps)
    violations = rl.prefix_free_violations(est.programs)
    return {
        "schema": "randlab/v1",
        "omega_lower_bound": est.lower_bound,
        "programs_found": len(est.programs),
        "budget": {"max_len": est.search_budget[0], "max_steps": est.search_budget[1]},
        "prefix_free_violations": len(violations),
        "claims": [_claim("prefix_free", not violations,
                          f"omega >= {est.lower_bound} from {len(est.programs)} halting "
                          f"programs, {len(violations)} proper-prefix pairs among them")],
    }


def _load_sampler(args) -> hv.Sampler:
    seed = getattr(args, "seed", None)  # audit1 refuses prng, so it has no --seed
    for option, value in (("--bias", args.bias), ("--seed", seed)):
        if value is not None and args.sampler != "prng":
            raise ValueError(f"{option} applies only to --sampler prng, not {args.sampler!r}")
    prng = {}
    if args.sampler == "prng":
        prng = {"seed": 0 if seed is None else seed, "probs": None if args.bias is None
                else sq.distribution(_parse_list("--bias", args.bias, float), "--bias")}
    try:
        return hv.Sampler(args.sampler, **prng)
    except ValueError as exc:
        raise ValueError(f"--sampler: {exc}") from None


def cmd_hv(args, manifest: Manifest) -> dict | None:
    model = hv.load_model(_resolve_data_path(args.model))
    manifest.add_input(args.model)
    sampler = _load_sampler(args)
    bias = sampler.params.get("probs")
    if bias is not None and len(bias) != model.size:
        raise ValueError(f"--bias covers {len(bias)} states, space has {model.size}")
    if sampler.kind == "external_entropy" and model.size > sq.MAX_ALPHABET["os"]:
        raise ValueError(f"--sampler os draws up to 256 states, the model has {model.size}")
    if sampler.kind == "recorded_file":
        manifest.add_input(sampler.params["path"])
    if args.hv_command == "run":
        _in_range("--n", args.n, 0)
        x = hv.run_model(model, sampler, args.n)
        sq.write_sequence_file(args.out, x)
        print(f"wrote {len(x)} outcomes of {model.name} to {args.out}")
        return None
    push, target = model.pushforward(), model.target or model.pushforward()
    compatible = _claim("compatibility", model.compatible(),
                        f"pushforward {[round(p, 6) for p in push]} against target "
                        f"{[round(p, 6) for p in target]}: the model's compatibility "
                        f"contract needs them within {hv.PUSHFORWARD_TOL}")
    if args.hv_command == "audit1":
        checkpoints = _parse_list("--checkpoints", args.checkpoints, int)
        _in_range("--checkpoints", min(checkpoints), 0)
        rep = hv.scenario_one_audit(model, sampler, checkpoints)
        margins = ", ".join(f"{p['margin']} at N={p['n']}" for p in rep["checkpoints"])
        # the scenario-1 flag refutes 1-randomness when it fires and proves nothing when not
        rep["claims"] = [compatible, _claim(
            "incompressibility_flag", True if rep["incompatible_with_1_randomness"] else None,
            f"K_upper - N is {margins} bits; the flag fires below "
            f"{rep['flag_threshold_bits']} bits")]
        return rep
    _in_range("--n", args.n, hv.SCENARIO2_MIN_N)
    rep = hv.scenario_two_audit(model, sampler, args.n)
    checks = rep["cell_checks"] + rep["outcome_checks"]
    rep["claims"] = [compatible, _claim(
        "fair_sampling", rep["fair"], f"{sum(c['pass'] for c in checks)}/{len(checks)} cell "
        f"and outcome frequencies within 6 sigma (randomness origin: "
        f"{rep['randomness_origin']})")]
    return rep


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


def cmd_bell(args, manifest: Manifest) -> dict | None:
    if args.bell_command == "run":
        _in_range("--n", args.n, 1)
        settings = bell.SettingSet(tuple(_parse_list("--settings", args.settings, float)))
        trials = bell.run_bipartite(args.model, settings, args.n, args.seed)
        bell.save_trials_csv(args.out, trials)
        manifest.add_output(args.out + ".meta.json")
        print(f"wrote {len(trials)} {args.model} trials to {args.out}")
        return None
    trials = bell.load_trials_csv(args.infile)
    manifest.add_input(args.infile)
    functional = _load_functional(args.functional)
    model_kind = trials.metadata.get("model")
    claims: list[dict] = []
    report: dict = {"schema": "bell/v1", "input": args.infile,
                    "n_trials": len(trials), "model": model_kind, "claims": claims}
    est = report["functional"] = bell.empirical_functional(trials, functional)
    est["name"] = functional.name
    if "skipped" in est:
        claims.append(_claim("functional", None, f"{functional.name}: {est['skipped']}"))
    else:
        bound = bell.local_bound(functional)
        qv = bell.quantum_value(functional)
        est.update(quantum=qv, local_bound=bound)
        e, six_sigma = est["empirical"], est["six_sigma"]
        ok, rule = {
            "hv": (not e > float(bound) + six_sigma,
                   "a local-model run cannot exceed the exact local bound by 6 sigma"),
            "quantum": (not abs(e - qv) > six_sigma,
                        "a quantum run must come within 6 sigma of the quantum value"),
        }.get(model_kind, (None, f"model {model_kind!r} predicts no value"))
        claims.append(_claim("functional", ok, f"functional {functional.name}: empirical "
                             f"{e:.4f}, quantum {qv:.4f}, local bound {float(bound):.4f}, "
                             f"6 sigma {six_sigma:.4f}; {rule}"))
    mismatches = bell.perfect_correlation_violations(trials)
    report["equal_setting_mismatches"] = mismatches
    if model_kind == "quantum":
        equal = (trials.a_idx == trials.b_idx).any()
        claims.append(_claim("perfect_correlation", not mismatches if equal else None,
                             f"{mismatches} equal-setting mismatches in a quantum run"
                             if equal else "no equal-setting trials in a quantum run"))
    ns = report["no_signaling"] = bell.no_signaling_check(trials)
    if "skipped" in ns:
        claims.append(_claim("no_signaling", None, f"no-signaling check skipped: {ns['skipped']}"))
    else:
        # skipped when both wings are; else each wing that ran must pass
        ok = None if all(r["skipped"] for r in ns.values()) else all(
            r["pass"] or r["skipped"] for r in ns.values())
        verdict = "skipped" if ok is None else "holds" if ok else "failed"
        worst = ", ".join(f"{wing} " + ("skipped" if r["skipped"] else f"{r['z_score']:.2f}")
                          for wing, r in ns.items())
        claims.append(_claim("no_signaling", ok, f"no-signaling marginal independence {verdict}: "
                             f"worst z {worst}, threshold {ns['alice']['threshold']}"))
    if trials.lam is not None:
        fc = report["free_choice"] = bell.free_choice_check(trials)
        if "pass" not in fc:  # too few trials to run
            claims.append(_claim("free_choice", None,
                                 f"free-choice check skipped: {fc['skipped']}"))
        else:
            verdict = "skipped" if fc["skipped"] else "holds" if fc["pass"] else "failed"
            claims.append(_claim("free_choice", None if fc["skipped"] else fc["pass"],
                                 f"free-choice independence {verdict}: worst pair z "
                                 f"{fc['z_score']:.2f}, threshold {fc['threshold']}"))
    return report


def cmd_ks(args, manifest: Manifest) -> dict:
    problem = ks.load_rays_file(_resolve_data_path(args.rays))
    manifest.add_input(args.rays)
    size = f"{len(problem.rays)} rays, {len(problem.bases)} bases"
    if args.ks_command == "search":
        result = ks.search_coloring(problem)
        report = {
            "schema": "ks/v1", "rays": len(problem.rays), "bases": len(problem.bases),
            "status": result.status, "nodes": result.stats.nodes,
            "max_depth": result.stats.max_depth,
            "claims": [_claim("uncolorable", None, f"UNSAT on {size} after "
                              f"{result.stats.nodes} nodes, checked by the searcher alone")],
        }
        if result.status == "colored":
            report["coloring"] = list(result.assignment)
            ok = report["verified"] = ks.verify_coloring(problem, result.assignment)
            report["claims"] = [_claim("coloring_verified", ok, f"the verifier "
                                       f"{'accepts' if ok else 'rejects'} the searcher's "
                                       f"coloring of {size}")]
        return report
    obj = _read_json(args.coloring)
    manifest.add_input(args.coloring)
    if isinstance(obj, dict) and "coloring" not in obj:
        raise ValueError(f"{args.coloring}: JSON object has no \"coloring\" key")
    assignment = obj["coloring"] if isinstance(obj, dict) else obj
    if not isinstance(assignment, list):
        raise ValueError(f"{args.coloring}: coloring must be a list of 0/1 marks, "
                         f"got {type(assignment).__name__}")
    try:
        ok = ks.verify_coloring(problem, assignment)
    except ValueError as exc:
        raise ValueError(f"{args.coloring}: {exc}") from None
    return {"schema": "ks/v1", "valid": bool(ok), "claims": [_claim(
        "coloring_valid", ok, f"{args.coloring} {'marks' if ok else 'fails to mark'} exactly "
        f"one ray in every basis of {size}")]}


# the schemas report reads, each with the paper's clause it exercises, if one
REPORT_SCHEMAS = {
    "randlab/v1": None, "ks/v1": None,
    "hv-audit1/v1": "determinism clause (theory states h and hence x)",
    "hv-audit2/v1": "Born-rule clause (h must sample the measure)",
    "bell/v1": "locality + free-choice clauses (Bell functional)",
}
CLAIM_STATUSES = ("pass", "fail", "skipped")


def cmd_report(args, manifest: Manifest) -> dict:
    sections = []
    for path in sorted(args.inputs):
        manifest.add_input(path)
        obj = _read_json(path)
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: expected a JSON object, got a {type(obj).__name__}")
        schema = obj.get("schema")
        if schema == "manifest/v1":
            continue
        if schema not in REPORT_SCHEMAS:
            raise ValueError(f"{path}: unknown or missing schema {schema!r}; "
                             f"expected one of {sorted(REPORT_SCHEMAS)}")
        sections.append((path, schema, obj))
    last = [None]  # the last field read: the one named if it is missing or malformed

    def field(o, key, *default):
        last[0] = key
        return o.get(key, *default) if default else o[key]

    lines, plot_rows = [], []
    for path, schema, obj in sections:
        lines.append(f"== {path} ({schema}) ==")
        if REPORT_SCHEMAS[schema]:
            lines.append(f"  exercises: {REPORT_SCHEMAS[schema]}")
        try:
            if schema == "hv-audit1/v1":
                plot_rows += [(path, "margin", field(p, "n"), field(p, "margin"))
                              for p in field(obj, "checkpoints")]
            elif schema == "bell/v1":
                plot_rows += [(path, "mismatch", f"{field(t, 'a')}-{field(t, 'b')}",
                               field(t, "mismatch"))
                              for t in field(field(obj, "functional", {}), "per_term", [])]
            claims = field(obj, "claims")
            if not isinstance(claims, list):
                raise TypeError(f"expected a list, got a {type(claims).__name__}")
            for c in claims:
                # status is read last, so it is the field named when its check fails
                c = {key: field(c, key) for key in ("claim", "why", "status")}
                if c["status"] not in CLAIM_STATUSES:
                    raise ValueError(f"unknown status {c['status']!r}, "
                                     f"expected one of {list(CLAIM_STATUSES)}")
                lines.append("  " + _claim_line(c))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            why = "missing" if isinstance(exc, KeyError) else f"malformed: {exc}"
            raise ValueError(f"{path}: {schema} report field {last[0]!r} is {why}") from None
    text = "\n".join(lines)
    print(text)
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("source,series,x,y\n")
            for row in plot_rows:
                f.write(",".join(str(v) for v in row) + "\n")
    return {"schema": "report/v1", "sections": [{"path": p, "schema": s} for p, s, _ in sections],
            "text": text, "claims": []}


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="indlab",
        description="Born sampling, randomness analysis, hidden-variable audits, "
                    "Bell experiments, and Kochen-Specker search.",
    )
    p.add_argument("--version", action="version", version=f"indlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, json_out=True):
        if json_out:
            sp.add_argument("--json", help="write a JSON report here")
        sp.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")

    g = sub.add_parser("generate", help="write a seq/v1 sequence file")
    g.add_argument("--kind", default="born", choices=GENERATE_KINDS)
    g.add_argument("--fair-coin", action="store_true",
                   help="shorthand for --kind born --probs 0.5,0.5")
    g.add_argument("--probs")
    g.add_argument("--base", type=int)
    g.add_argument("--pattern")
    g.add_argument("--seed", type=int)
    g.add_argument("--start-at-one", action="store_true", default=None)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)
    common(g, json_out=False)

    a = sub.add_parser("analyze", help="statistical batteries on a sequence file")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--tests", default="borel,blocks")
    a.add_argument("--max-block", type=int, help="borel and blocks: longest block (default 3)")
    a.add_argument("--target", help="monkey-search target block (default 01)")
    a.set_defaults(func=cmd_analyze)
    common(a)

    k = sub.add_parser("komplexity", help="description-length estimates")
    k.add_argument("--in", dest="infile", required=True)
    k.add_argument("--exact-max-len", type=int, default=None)
    k.add_argument("--steps", type=int, help="--exact-max-len's step budget (default 10000)")
    k.set_defaults(func=cmd_komplexity)
    common(k)

    o = sub.add_parser("omega", help="halting-probability lower bound")
    o.add_argument("--max-len", type=int, default=16)
    o.add_argument("--steps", type=int, default=10_000)
    o.set_defaults(func=cmd_omega)
    common(o)

    h = sub.add_parser("hv", help="hidden-variable model runs and audits")
    h.set_defaults(func=cmd_hv)
    hsub = h.add_subparsers(dest="hv_command", required=True)

    def hv_parser(name, sampler):
        # argparse shares a parent's argument objects among its children, so
        # a parents= parser cannot give audit2 its own --sampler default
        sp = hsub.add_parser(name)
        sp.add_argument("--model", required=True)
        sp.add_argument("--sampler", default=sampler,
                        help="counter | alternating | constant[:v] | prng | os | file:PATH")
        sp.add_argument("--bias", help="prng sampling distribution override, e.g. 0.6,0.4")
        if name != "audit1":
            sp.add_argument("--seed", type=int, help="prng seed (default 0)")
        return sp

    hr = hv_parser("run", "counter")
    hr.add_argument("--n", type=int, required=True)
    hr.add_argument("--out", required=True)
    common(hr, json_out=False)
    h1 = hv_parser("audit1", "counter")
    h1.add_argument("--checkpoints", default="100,1000,10000")
    common(h1)
    h2 = hv_parser("audit2", "prng")
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
    br.add_argument("--seed", type=int, default=0)
    common(br, json_out=False)
    ba = bsub.add_parser("analyze")
    ba.add_argument("--in", dest="infile", required=True)
    ba.add_argument("--functional", default="default")
    common(ba)

    kk = sub.add_parser("ks", help="Kochen-Specker coloring search")
    kk.set_defaults(func=cmd_ks)
    ksub = kk.add_subparsers(dest="ks_command", required=True)
    ksearch = ksub.add_parser("search")
    ksearch.add_argument("--rays", required=True)
    common(ksearch)
    kverify = ksub.add_parser("verify")
    kverify.add_argument("--rays", required=True)
    kverify.add_argument("--coloring", required=True)
    common(kverify)

    r = sub.add_parser("report", help="consolidate JSON reports")
    r.add_argument("--in", dest="inputs", nargs="+", required=True)
    r.add_argument("--csv", help="write plot-ready series here")
    r.set_defaults(func=cmd_report)
    common(r)
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
        report = args.func(args, manifest) or {}
        _write_json(getattr(args, "json", None), report)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    claims = report.get("claims", [])
    for c in claims:
        print(_claim_line(c))
    failed = [c["why"] for c in claims if c["status"] == "fail"]
    if failed:
        print("CHECK FAILED: " + "; ".join(failed), file=sys.stderr)
    for attr in ("out", "json", "csv"):
        manifest.add_output(getattr(args, attr, None))
    manifest.write(getattr(args, "manifest", None), primary_output)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
