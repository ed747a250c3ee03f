"""The three benchmark workloads: timed steps, then output checks.

Each workload is a pair of functions.  ``steps`` runs the user's path,
through ``cli.dispatch`` wherever a subcommand exists, and is the only part
that is timed or traced.  ``checks`` runs afterwards, untimed and untraced,
and tests invariants that hold for every seed.  Every input is drawn from
the pass's seeded generator, so the same seed gives the same inputs.

Why these workloads (see GLOSSARY.md for the metrics each one moves):

* ``enumerate``: nearly all time is in ``machine.enumerate_domain``, tens of
  thousands of short machine runs, many ending on the step budget.  Files
  stay tiny, so the sequence, Bell and Born layers sit idle.
* ``sequence``: 1e6-symbol files are generated, written, read back,
  analysed and compressed.  The machine layer appears only as one long
  literal-witness decode, which is a very different use from enumeration.
* ``experiment``: the paper's experiments -- Bell runs and their CSV
  round trip, Born equivalence on tensor powers, the hidden-variable
  audits, the Kochen-Specker certificate and the consolidated report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import numpy as np

from indlab import bell, born, cli, machine as tm, sequences as sq
from speedprobe import probe_s


@dataclass
class Pass:
    """State of one workload pass, run in the current directory."""

    seed: int
    smoke: bool
    rng: np.random.Generator = field(init=False)
    wall_s: float = 0.0
    steps: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    codes: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    output: io.StringIO = field(default_factory=io.StringIO)
    probes: list = field(default_factory=list)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    def new_seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def probe(self) -> None:
        """Record the speed probe's median over three runs."""
        self.probes.append(probe_s())

    def _timed(self, name: str, fn, *args, **kwargs):
        self.probe()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(self.output), contextlib.redirect_stderr(self.output):
                result = fn(*args, **kwargs)
        except Exception:
            dt = perf_counter() - t0
            self.wall_s += dt
            self.steps.append({"name": name, "wall_s": dt, "ok": False,
                               "detail": traceback.format_exc(limit=3)})
            return None
        dt = perf_counter() - t0
        self.wall_s += dt
        self.steps.append({"name": name, "wall_s": dt, "ok": True})
        return result

    def cli(self, name: str, argv: list[str]) -> None:
        """One CLI step; its exit code is kept for the checks."""
        self.codes[name] = self._timed(name, cli.dispatch, argv)

    def call(self, name: str, fn, *args, **kwargs) -> None:
        """One direct library step, for layers the CLI has no entry for."""
        self.results[name] = self._timed(name, fn, *args, **kwargs)

    def check(self, name: str, predicate) -> None:
        try:
            ok = bool(predicate())
            detail = ""
        except Exception:
            ok = False
            detail = traceback.format_exc(limit=3)
        self.checks.append({"name": name, "ok": ok, "detail": detail})


def load(path: str):
    with open(path) as f:
        return json.load(f)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def output_digest(p: Pass) -> str:
    """sha256 of every file the pass wrote and of the CLI's printed output.

    Manifests are hashed without their wall_time_s, the one field that
    differs between identical runs.
    """
    digest = hashlib.sha256()
    for name in sorted(os.listdir(".")):
        data = read_bytes(name)
        if name.endswith(".manifest.json"):
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digest.update(name.encode() + b"\0" + data + b"\0")
    digest.update(p.output.getvalue().encode())
    return digest.hexdigest()


def seq_file_bytes(k: int, symbols) -> bytes:
    """The seq/v1 encoding, written independently of indlab's writer."""
    symbols = np.asarray(symbols)
    if k <= 10:
        body = (symbols.astype(np.uint8) + ord("0")).tobytes()
    else:
        body = ",".join(str(int(s)) for s in symbols).encode()
    return f"seq/v1 k={k} n={len(symbols)}\n".encode() + body + b"\n"


def overlapping_count(arr: np.ndarray, target) -> int:
    windows = len(arr) - len(target) + 1
    hit = np.ones(windows, dtype=bool)
    for j, t in enumerate(target):
        hit &= arr[j : j + windows] == t
    return int(hit.sum())


def literal_margin(n: int) -> int:
    """K_upper - n of the literal program [LITN gamma0(n) bits HALT]."""
    return 4 + (2 * (n + 1).bit_length() - 1) + 4


def cli_exit_matches(p: Pass, step: str, failed: bool) -> bool:
    return p.codes[step] == (cli.EXIT_CHECK_FAILED if failed else cli.EXIT_OK)


# -- enumerate ------------------------------------------------------------------

# omega_lower_bound at (max_len, steps): (halting programs, Kraft sum).
OMEGA_EXPECTED = {
    (16, 10_000): (985, Fraction(11737, 65536)),
    (12, 1_000): (114, Fraction(77, 512)),
}


def enumerate_sizes(smoke: bool) -> dict:
    if smoke:
        return {"omega": (12, 1_000), "k_len": 12, "k_steps": 1_000, "target_lens": [(1, 2), (3,)]}
    return {"omega": (16, 10_000), "k_len": 16, "k_steps": 10_000,
            "target_lens": [(1, 2), (3,), (5,)]}


def enumerate_steps(p: Pass) -> None:
    size = enumerate_sizes(p.smoke)
    max_len, steps = size["omega"]
    p.cli("omega", ["omega", "--max-len", str(max_len), "--steps", str(steps),
                    "--json", "omega.json"])
    targets = []
    for lengths in size["target_lens"]:
        n = int(p.rng.choice(lengths))
        targets.append("".join(str(b) for b in p.rng.integers(0, 2, n)))
    p.inputs["targets"] = targets
    for i, target in enumerate(targets):
        name = f"k{i}"
        with open(f"{name}.seq", "w") as f:
            f.write(f"seq/v1 k=2 n={len(target)}\n{target}\n")
        p.cli(name, ["komplexity", "--in", f"{name}.seq", "--exact-max-len", str(size["k_len"]),
                     "--steps", str(size["k_steps"]), "--json", f"{name}.json"])


def _witness_reruns(target: str, length: int, steps: int) -> bool:
    """The shortest program of the found length re-runs to the target."""
    want = tuple(int(c) for c in target)
    found = [e.program for e in tm.enumerate_domain(length, steps, output_prefix=want)
             if e.output == want and len(e.program) == length]
    if not found:
        return False
    res = tm.run_machine(found[0], steps)
    return res.halted and res.output == want and res.bits_consumed == length


def enumerate_checks(p: Pass) -> None:
    size = enumerate_sizes(p.smoke)
    programs, kraft = OMEGA_EXPECTED[size["omega"]]
    p.check("omega exit 0", lambda: p.codes["omega"] == cli.EXIT_OK)
    omega = load("omega.json")
    bound = omega["omega_lower_bound"]
    p.check("omega programs", lambda: omega["programs_found"] == programs)
    p.check("omega Kraft sum", lambda: Fraction(bound["numerator"], bound["denominator"]) == kraft)
    p.check("omega prefix-free", lambda: omega["prefix_free_violations"] == 0)
    p.counters["omega.programs"] = omega["programs_found"]
    exact = 0
    for i, target in enumerate(p.inputs["targets"]):
        name = f"k{i}"
        n = len(target)
        p.check(f"{name} exit 0", lambda: p.codes[name] == cli.EXIT_OK)
        out = load(f"{name}.json")
        search = out["exact_search"]
        p.check(f"{name} n", lambda: out["n"] == n)
        p.check(f"{name} below literal", lambda: out["k_upper"] <= n + literal_margin(n))
        if "value" in search:
            exact += search["kind"] == "exact"
            p.check(f"{name} k_upper <= search", lambda: out["k_upper"] <= search["value"])
            p.check(f"{name} witness re-runs",
                    lambda: _witness_reruns(target, search["value"], size["k_steps"]))
        else:
            p.check(f"{name} nothing within max_len",
                    lambda: search["no_program_within"] == size["k_len"]
                    and out["k_upper"] > size["k_len"])
    p.counters["komplexity.queries"] = len(p.inputs["targets"])
    p.counters["komplexity.exact"] = exact


# -- sequence -------------------------------------------------------------------

# k_upper of the Champernowne prefix of length n (generator encoding).
CHAMPERNOWNE_K = {1_000_000: 72, 10_000: 60}
# The base-16 Born distribution: the seed permutes these weights (and so the
# state), while the monkey target is always the two most likely outcomes, so
# every seed does the same expected amount of matching work.
BORN16_WEIGHTS = np.arange(1, 17)


def sequence_sizes(smoke: bool) -> dict:
    if smoke:
        return {"fair": 10_000, "champernowne": 10_000, "born16": 30_000}
    return {"fair": 1_000_000, "champernowne": 1_000_000, "born16": 100_000}


def champernowne_bits(n: int) -> str:
    chunks, total, t = [], 0, 0
    while total < n:
        chunks.append(format(t, "b"))
        total += len(chunks[-1])
        t += 1
    return "".join(chunks)[:n]


def sequence_steps(p: Pass) -> None:
    size = sequence_sizes(p.smoke)
    fair_seed = p.new_seed()
    fair_target = "".join(str(b) for b in p.rng.integers(0, 2, 4))
    probs = BORN16_WEIGHTS[p.rng.permutation(16)] / BORN16_WEIGHTS.sum()
    born_seed = p.new_seed()
    top2 = np.argsort(-probs, kind="stable")[:2]
    born_target = f"{top2[0]},{top2[1]}"
    p.inputs.update(fair_seed=fair_seed, fair_target=fair_target, probs=probs,
                    born_seed=born_seed, born_target=born_target)

    p.cli("generate fair", ["generate", "--fair-coin", "--n", str(size["fair"]),
                            "--seed", str(fair_seed), "--out", "fair.seq"])
    p.cli("analyze fair", ["analyze", "--in", "fair.seq", "--tests", "borel,blocks,monkey",
                           "--max-block", "3", "--target", fair_target, "--json", "fair.json"])
    p.cli("komplexity fair", ["komplexity", "--in", "fair.seq", "--json", "fair_k.json"])
    p.cli("generate champernowne", ["generate", "--kind", "champernowne",
                                    "--n", str(size["champernowne"]), "--out", "champ.seq"])
    p.cli("komplexity champernowne", ["komplexity", "--in", "champ.seq", "--json", "champ_k.json"])
    p.cli("generate born16", ["generate", "--kind", "born",
                              "--probs", ",".join(repr(float(x)) for x in probs),
                              "--n", str(size["born16"]), "--seed", str(born_seed),
                              "--out", "born16.seq"])
    p.cli("analyze born16", ["analyze", "--in", "born16.seq", "--tests", "blocks,monkey",
                             "--max-block", "2", "--target", born_target, "--json", "born16.json"])


def sequence_checks(p: Pass) -> None:
    size = sequence_sizes(p.smoke)
    for step in p.codes:
        if not step.startswith("analyze fair"):
            p.check(f"{step} exit 0", lambda: p.codes[step] == cli.EXIT_OK)

    n = size["fair"]
    fair = sq.sample_indices([0.5, 0.5], n, p.inputs["fair_seed"])
    p.check("fair.seq reads back", lambda: read_bytes("fair.seq") == seq_file_bytes(2, fair))
    report = load("fair.json")
    borel = report["tests"]["borel"]
    p.check("analyze fair exit code", lambda: cli_exit_matches(
        p, "analyze fair", any(not r["pass"] for r in borel)))
    p.check("borel battery size", lambda: len(borel) == 2 + 4 + 8)
    target = [int(c) for c in p.inputs["fair_target"]]
    occurrences = report["tests"]["monkey"]["occurrences"]
    p.check("fair monkey count", lambda: occurrences == overlapping_count(fair, target))
    p.check("fair block frequency",
            lambda: math.isclose(report["tests"]["blocks"]["1"]["1"], fair.mean(), rel_tol=1e-12))
    fair_k = load("fair_k.json")
    p.check("fair komplexity literal", lambda: fair_k["method"] == "literal_encoding")
    p.check("fair komplexity margin", lambda: fair_k["margin"] == literal_margin(n))

    m = size["champernowne"]
    p.check("champ.seq reads back", lambda: read_bytes("champ.seq")
            == f"seq/v1 k=2 n={m}\n{champernowne_bits(m)}\n".encode())
    champ_k = load("champ_k.json")
    p.check("champernowne generator", lambda: champ_k["method"] == "generator_encoding")
    p.check("champernowne k_upper", lambda: champ_k["k_upper"] == CHAMPERNOWNE_K[m])

    born16 = sq.sample_indices(p.inputs["probs"], size["born16"], p.inputs["born_seed"])
    p.check("born16.seq reads back", lambda: read_bytes("born16.seq") == seq_file_bytes(16, born16))
    b16 = load("born16.json")
    b16_target = [int(t) for t in p.inputs["born_target"].split(",")]
    b16_occurrences = b16["tests"]["monkey"]["occurrences"]
    p.check("born16 monkey count", lambda: b16_occurrences == overlapping_count(born16, b16_target))
    p.check("born16 block tables", lambda: len(b16["tests"]["blocks"]["1"]) == 16
            and len(b16["tests"]["blocks"]["2"]) == 256)
    p.counters.update({
        "monkey.fair": occurrences,
        "monkey.born16": b16_occurrences,
        "komplexity.fair": fair_k["k_upper"],
        "komplexity.champernowne": champ_k["k_upper"],
    })


# -- experiment -----------------------------------------------------------------

REPORT_INPUTS = ["quantum.json", "hv_bell.json", "audit1.json", "audit2.json",
                 "peres.json", "demo.json", "demo_verify.json"]


def experiment_sizes(smoke: bool) -> dict:
    if smoke:
        return {"quantum": 20_000, "hv_bell": 20_000, "born_vector": 3, "born_density": 2,
                "hv_run": 1_000, "checkpoints": "100,1000", "audit2": 10_000}
    return {"quantum": 500_000, "hv_bell": 200_000, "born_vector": 6, "born_density": 5,
            "hv_run": 100_000, "checkpoints": "1000,10000,100000", "audit2": 100_000}


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def experiment_steps(p: Pass) -> None:
    size = experiment_sizes(p.smoke)
    p.cli("bell run quantum", ["bell", "run", "--n", str(size["quantum"]),
                               "--seed", str(p.new_seed()), "--out", "quantum.csv"])
    p.cli("bell analyze quantum", ["bell", "analyze", "--in", "quantum.csv",
                                   "--json", "quantum.json"])

    # A local hidden-variable ensemble honouring perfect correlation: the
    # functional's local bound applies and the free-choice check runs.
    weights = p.rng.integers(1, 5, 6).astype(float)
    ensemble = []
    for w in weights / weights.sum():
        responses = tuple(int(b) for b in p.rng.integers(0, 2, 3))
        ensemble.append((float(w), bell.LocalDeterministicStrategy(responses, responses)))
    p.call("bell run hv", bell.run_bipartite, "hv", bell.DEFAULT_SETTINGS, size["hv_bell"],
           p.new_seed(), hv_ensemble=ensemble)
    if p.results["bell run hv"] is not None:
        p.call("bell save hv", bell.save_trials_csv, "hv_bell.csv", p.results["bell run hv"])
    p.cli("bell analyze hv", ["bell", "analyze", "--in", "hv_bell.csv", "--json", "hv_bell.json"])

    observable = born.spin1_squared(_unit_vector(p.rng, 3).real)
    vector = born.State(_unit_vector(p.rng, 3))
    mix = p.rng.dirichlet(np.ones(3))
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(mix, (_unit_vector(p.rng, 3) for _ in mix)))
    rho = (rho + rho.conj().T) / 2
    density = born.State(rho / np.trace(rho).real)
    p.call("born vector", born.equivalence_check, vector, observable, size["born_vector"])
    p.call("born density", born.equivalence_check, density, observable, size["born_density"])

    p.cli("hv run", ["hv", "run", "--model", "fair_coin_counter.json", "--sampler", "counter",
                     "--n", str(size["hv_run"]), "--out", "hv.seq"])
    p.cli("hv audit1", ["hv", "audit1", "--model", "fair_coin_counter.json",
                        "--checkpoints", size["checkpoints"], "--json", "audit1.json"])
    p.cli("hv audit2", ["hv", "audit2", "--model", "parity4.json", "--sampler", "prng",
                        "--seed", str(p.new_seed()), "--n", str(size["audit2"]),
                        "--json", "audit2.json"])

    p.cli("ks search peres33", ["ks", "search", "--rays", "peres33.rays", "--json", "peres.json"])
    p.cli("ks search demo", ["ks", "search", "--rays", "demo_colorable.rays", "--json", "demo.json"])
    p.cli("ks verify demo", ["ks", "verify", "--rays", "demo_colorable.rays",
                             "--coloring", "demo.json", "--json", "demo_verify.json"])
    # Reports are named one by one: a *.json glob would also pick up the
    # manifests, which `report` rejects (a known CLI defect).
    p.cli("report", ["report", "--in", *REPORT_INPUTS, "--json", "report.json",
                     "--csv", "report.csv"])


def _bell_failed(report: dict) -> bool:
    """Mirror of the claims `bell analyze` exits 2 on."""
    fn = report["functional"]
    failed = False
    if report["model"] == "hv":
        failed |= fn["empirical"] > fn["local_bound"]["value"] + fn["six_sigma"]
        fc = report["free_choice"]
        failed |= not fc["pass"] and not fc["skipped"]
    if report["model"] == "quantum":
        failed |= abs(fn["empirical"] - fn["quantum"]) > fn["six_sigma"]
        failed |= report["equal_setting_mismatches"] > 0
    ns = report["no_signaling"]
    failed |= not (ns["alice"]["pass"] and ns["bob"]["pass"])
    return failed


def experiment_checks(p: Pass) -> None:
    size = experiment_sizes(p.smoke)
    for step in ("bell run quantum", "hv run", "hv audit1", "ks search peres33",
                 "ks search demo", "ks verify demo", "report"):
        p.check(f"{step} exit 0", lambda: p.codes[step] == cli.EXIT_OK)

    quantum = load("quantum.json")
    p.check("quantum trials", lambda: quantum["n_trials"] == size["quantum"])
    p.check("quantum equal-setting mismatches", lambda: quantum["equal_setting_mismatches"] == 0)
    p.check("bell analyze quantum exit code",
            lambda: cli_exit_matches(p, "bell analyze quantum", _bell_failed(quantum)))
    hv_bell = load("hv_bell.json")
    p.check("hv trials", lambda: hv_bell["n_trials"] == size["hv_bell"] and hv_bell["model"] == "hv")
    p.check("hv local bound", lambda: hv_bell["functional"]["local_bound"]["value"] == 0.0)
    p.check("hv free-choice ran", lambda: not hv_bell["free_choice"]["skipped"])
    p.check("bell analyze hv exit code",
            lambda: cli_exit_matches(p, "bell analyze hv", _bell_failed(hv_bell)))

    outcomes = 0
    for step, n in (("born vector", size["born_vector"]), ("born density", size["born_density"])):
        rep = p.results.get(step)
        p.check(f"{step} passed", lambda: rep.passed)
        p.check(f"{step} outcomes", lambda: rep.outcome_count == 2**n)
        outcomes += rep.outcome_count if rep is not None else 0

    half = size["hv_run"] // 2
    p.check("hv.seq reads back", lambda: read_bytes("hv.seq") == seq_file_bytes(2, [0, 1] * half))
    p.check("audit1 flagged", lambda: load("audit1.json")["incompatible_with_1_randomness"])
    audit2 = load("audit2.json")
    p.check("hv audit2 exit code", lambda: cli_exit_matches(p, "hv audit2", not audit2["fair"]))

    peres = load("peres.json")
    demo = load("demo.json")
    p.check("peres33 unsat", lambda: peres["status"] == "unsat" and peres["nodes"] == 17
            and (peres["rays"], peres["bases"]) == (57, 40))
    p.check("demo colored", lambda: demo["status"] == "colored" and demo["verified"])
    p.check("demo coloring valid", lambda: load("demo_verify.json")["valid"])
    report = load("report.json")
    p.check("report sections", lambda: [s["path"] for s in report["sections"]] == sorted(REPORT_INPUTS))
    p.counters.update({
        "bell.quantum_trials": quantum["n_trials"],
        "bell.hv_trials": hv_bell["n_trials"],
        "born.outcomes": outcomes,
        "ks.nodes": peres["nodes"] + demo["nodes"],
    })


WORKLOADS = {
    "enumerate": (enumerate_steps, enumerate_checks),
    "sequence": (sequence_steps, sequence_checks),
    "experiment": (experiment_steps, experiment_checks),
}
