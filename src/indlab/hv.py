"""Hidden-variable models as an explicit factorization x = g(h(n)).

A model owns the outcome map g and a compatibility measure on its hidden
state space; the per-run state supplier h is a pluggable sampler whose
provenance (deterministic rule, seeded PRNG, OS entropy, recorded trace)
is tracked explicitly, because where the randomness comes from is the whole
point of the two audit scenarios.  The scenario-1 audit takes its
Levin-Chaitin margins from randomness.levin_chaitin_margin and its flag
from randomness.incompressibility_flag.  Bundled models are JSON files in
the data directory, read by load_model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import machine as tm
from .errors import ContractViolationError
# k_upper_bound stays bound here: bench/tracer.py wraps it on every module
# that names it, and bench/test_bench.py reads hv.k_upper_bound.
from .randomness import incompressibility_flag, k_upper_bound, levin_chaitin_margin
from .sequences import SymbolString, os_entropy_symbols, read_sequence_file, sample_indices

HV_SCHEMA = "hv/v1"
PUSHFORWARD_TOL = 1e-10
INCOMPRESSIBILITY_C = 64  # the c of K(x|n) >= n - c that the scenario-1 audit tests
SCENARIO2_MIN_N = 10_000
DETERMINISTIC_RULES = ("counter", "alternating", "constant")


@dataclass(frozen=True)
class HVSpace:
    """Hidden state space: discrete labels or a discretized interval."""

    kind: str  # "discrete" | "interval_discretized"
    size: int
    labels: tuple = ()
    interval: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.kind not in ("discrete", "interval_discretized"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("space needs at least one state")
        if not self.labels:
            if self.kind == "interval_discretized":
                lo, hi = self.interval if self.interval else (0.0, 1.0)
                width = (hi - lo) / self.size
                object.__setattr__(
                    self,
                    "labels",
                    tuple(lo + (i + 0.5) * width for i in range(self.size)),
                )
            else:
                object.__setattr__(self, "labels", tuple(range(self.size)))


@dataclass(frozen=True)
class HVModel:
    """State space, total outcome map g, and compatibility measure mu.

    description_bits is the serialized self-description length; the
    scenario-1 audit uses it to bound what the model "states" about an
    outcome sequence.
    """

    space: HVSpace
    outcome_map: tuple[int, ...]
    mu: tuple[float, ...]
    name: str = "model"
    target: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if len(self.outcome_map) != self.space.size:
            raise ValueError("outcome map must be total on the hidden space")
        if len(self.mu) != self.space.size:
            raise ValueError("mu must cover the hidden space")
        if not all(math.isfinite(p) for p in self.mu):
            raise ValueError(f"mu has non-finite weights: {self.mu}")
        total = math.fsum(self.mu)
        if abs(total - 1.0) > PUSHFORWARD_TOL:
            raise ValueError(f"mu sums to {total!r}, need 1")
        if any(p < 0 for p in self.mu):
            raise ValueError("mu has negative weights")

    @property
    def n_outcomes(self) -> int:
        return max(self.outcome_map) + 1

    def g(self, lam: int) -> int:
        return self.outcome_map[lam]

    def pushforward(self) -> tuple[float, ...]:
        """The distribution of g(lambda) under mu (exact summation)."""
        out = [0.0] * self.n_outcomes
        for lam, p in enumerate(self.mu):
            out[self.outcome_map[lam]] += p
        return tuple(out)

    def compatible(self, tol: float = PUSHFORWARD_TOL) -> bool:
        """Does the pushforward match the declared target measure?"""
        target = self.target if self.target is not None else self.pushforward()
        push = self.pushforward()
        if len(push) != len(target):
            return False
        return all(abs(a - b) <= tol for a, b in zip(push, target))

    @property
    def description_bits(self) -> int:
        return 8 * len(model_to_json(self).encode())


def bohm_measure(
    amplitudes: Sequence[complex], bin_width: float | Sequence[float] = 1.0
) -> tuple[float, ...]:
    """Bin probabilities |psi(q_i)|^2 * dq_i of a discretized wavefunction."""
    psi = np.asarray(amplitudes, dtype=complex)
    widths = np.broadcast_to(np.asarray(bin_width, dtype=float), psi.shape)
    probs = (np.abs(psi) ** 2) * widths
    norm = float(probs.sum())
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"wavefunction is not normalized: sum |psi|^2 dq = {norm!r}")
    return tuple(float(p) for p in probs)


def thooft_measure(coefficients: Sequence[complex]) -> tuple[float, ...]:
    """Basis-label probabilities |c_m|^2 of an expansion state."""
    c = np.asarray(coefficients, dtype=complex)
    probs = np.abs(c) ** 2
    norm = float(probs.sum())
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"coefficients are not normalized: sum |c|^2 = {norm!r}")
    return tuple(float(p) for p in probs)


class Sampler:
    """A supplier of hidden states h(0), h(1), ... with tracked provenance.

    Deterministic kinds reproduce exactly; seeded PRNGs reproduce per seed
    but their randomness is external to any model; OS entropy is external
    and non-reproducible.  A sampler is a single-owner cursor.
    """

    def __init__(self, kind: str, **params):
        if kind not in ("deterministic_computable", "seeded_prng",
                        "external_entropy", "recorded_file"):
            raise ValueError(f"unknown sampler kind {kind!r}")
        self.kind = kind
        self.params = params
        if kind == "deterministic_computable":
            rule = params.get("rule")
            program = params.get("program")
            if rule is None and program is None:
                raise ValueError("deterministic sampler needs rule= or program=")
            if rule is not None and rule not in DETERMINISTIC_RULES:
                raise ValueError(f"unknown deterministic rule {rule!r}")

    @staticmethod
    def counter() -> "Sampler":
        return Sampler("deterministic_computable", rule="counter")

    @staticmethod
    def alternating() -> "Sampler":
        return Sampler("deterministic_computable", rule="alternating")

    @staticmethod
    def constant(value: int = 0) -> "Sampler":
        return Sampler("deterministic_computable", rule="constant", value=value)

    @staticmethod
    def machine_program(program: tm.Bits) -> "Sampler":
        return Sampler("deterministic_computable", program=tuple(program))

    @staticmethod
    def prng(seed: int, probs: Optional[Sequence[float]] = None) -> "Sampler":
        return Sampler("seeded_prng", seed=seed,
                       probs=None if probs is None else tuple(probs))

    @staticmethod
    def os_entropy() -> "Sampler":
        return Sampler("external_entropy")

    @staticmethod
    def recorded(path: str) -> "Sampler":
        return Sampler("recorded_file", path=path)

    @property
    def randomness_origin(self) -> str:
        """Provenance note: whatever randomness x shows originates here."""
        return {
            "deterministic_computable": "none (stated by the sampler itself)",
            "seeded_prng": "external to the model (seeded pseudorandomness)",
            "external_entropy": "external to the model (operating-system entropy)",
            "recorded_file": "none (replayed trace)",
        }[self.kind]

    def states(self, model: HVModel, n: int) -> np.ndarray:
        """h(0..n-1) as indices into the model's hidden space."""
        m = model.space.size
        if self.kind == "deterministic_computable":
            rule = self.params.get("rule")
            if rule == "counter":
                return np.arange(n, dtype=np.int64) % m
            if rule == "alternating":
                return np.arange(n, dtype=np.int64) % min(2, m)
            if rule == "constant":
                value = self.params.get("value", 0)
                return np.full(n, value, dtype=np.int64)
            program = self.params["program"]
            if m != 2:
                raise ContractViolationError(
                    "machine-program samplers drive 2-state spaces only"
                )
            res = tm.run_machine(program, max_steps=64 * n + 1024,
                                 output_limit=max(n, 1))
            if len(res.output) < n:
                raise ContractViolationError(
                    f"sampler program produced {len(res.output)} states, {n} needed"
                )
            return np.asarray(res.output[:n], dtype=np.int64)
        if self.kind == "seeded_prng":
            probs = self.params.get("probs") or model.mu
            if len(probs) != m:
                raise ContractViolationError(
                    f"sampler distribution covers {len(probs)} states, space has {m}"
                )
            return sample_indices(probs, n, self.params["seed"])
        if self.kind == "external_entropy":
            return os_entropy_symbols(m, n)
        sigma = read_sequence_file(self.params["path"])
        if len(sigma) < n:
            raise ContractViolationError(
                f"recorded trace holds {len(sigma)} states, {n} requested"
            )
        return sigma.array[:n]

    def describe(self) -> dict:
        d = {"kind": self.kind}
        d.update({k: v for k, v in self.params.items() if k != "program"})
        if "program" in self.params:
            d["program_bits"] = len(self.params["program"])
        return d


def run_model(model: HVModel, h: Sampler, n: int) -> SymbolString:
    """The outcome string x with x_i = g(h(i))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    lam = h.states(model, n)
    if len(lam) and (lam.min() < 0 or lam.max() >= model.space.size):
        bad = lam[(lam < 0) | (lam >= model.space.size)][0]
        raise ContractViolationError(
            f"sampler emitted state {bad} outside the space of size {model.space.size}"
        )
    gmap = np.asarray(model.outcome_map, dtype=np.int64)
    x = gmap[lam]
    return SymbolString(max(2, model.n_outcomes), x)


@dataclass
class ScenarioOneReport:
    """Compressibility audit of a model that states its own h."""

    model_name: str
    sampler: dict
    description_bits: int
    checkpoints: list[dict]
    flagged: bool
    flag_threshold: int
    pushforward_ok: bool
    note: str = (
        "an upper bound this far below N refutes 1-randomness of the "
        "stated sequence relative to the bundled machine"
    )

    def to_dict(self) -> dict:
        return {
            "schema": "hv-audit1/v1",
            "model": self.model_name,
            "sampler": self.sampler,
            "description_bits": self.description_bits,
            "checkpoints": self.checkpoints,
            "incompatible_with_1_randomness": self.flagged,
            "flag_threshold_bits": self.flag_threshold,
            "pushforward_matches_target": self.pushforward_ok,
            "note": self.note,
        }


def scenario_one_audit(
    model: HVModel, h: Sampler, checkpoints: Sequence[int]
) -> ScenarioOneReport:
    """Audit scenario 1: the theory supplies h, hence states x outright.

    Runs the model to the largest checkpoint and reports, per checkpoint,
    the Levin-Chaitin margin K_upper(x_|N) - N of
    randomness.levin_chaitin_margin next to stated_bound, the length of the
    model's own description plus N and the machine overhead.  The
    incompatibility flag is randomness.incompressibility_flag with
    c = INCOMPRESSIBILITY_C: raised when some checkpoint has
    K_upper < N - c.
    """
    if h.kind != "deterministic_computable":
        raise ValueError(
            f"scenario-1 audit requires a deterministic_computable sampler, "
            f"got {h.kind!r}"
        )
    if model.n_outcomes > 2:
        raise ValueError("audits cover binary-outcome models")
    cps = sorted(checkpoints)
    if not cps:
        raise ValueError("need at least one checkpoint")
    margins = levin_chaitin_margin(run_model(model, h, cps[-1]), cps)
    checkpoint_rows = [
        {
            "n": pt.n,
            "k_upper": pt.k_upper,
            "margin": pt.margin,
            "method": pt.method,
            "stated_bound": model.description_bits + 2 * math.ceil(math.log2(pt.n + 1))
            + tm.MACHINE_OVERHEAD_BITS,
        }
        for pt in margins
    ]
    return ScenarioOneReport(
        model.name,
        h.describe(),
        model.description_bits,
        checkpoint_rows,
        incompressibility_flag(margins, INCOMPRESSIBILITY_C) is not None,
        -INCOMPRESSIBILITY_C,
        model.compatible(),
    )


@dataclass
class ScenarioTwoReport:
    """Sampling-fairness audit of a model that outsources h."""

    model_name: str
    sampler: dict
    randomness_origin: str
    n: int
    cell_checks: list[dict]
    outcome_checks: list[dict]
    fair: bool
    pushforward_ok: bool

    def to_dict(self) -> dict:
        return {
            "schema": "hv-audit2/v1",
            "model": self.model_name,
            "sampler": self.sampler,
            "randomness_origin": self.randomness_origin,
            "n": self.n,
            "cell_checks": self.cell_checks,
            "outcome_checks": self.outcome_checks,
            "fair": self.fair,
            "pushforward_matches_target": self.pushforward_ok,
        }


def scenario_two_audit(model: HVModel, h: Sampler, n: int) -> ScenarioTwoReport:
    """Audit scenario 2: h is an outside source that must sample mu.

    Checks each hidden-state cell frequency against mu and each outcome
    frequency against the pushforward, both at six binomial sigma, and
    records that the randomness originates outside the model.
    """
    if h.kind not in ("seeded_prng", "external_entropy"):
        raise ValueError(
            f"scenario-2 audit expects a sampling h (seeded_prng or "
            f"external_entropy), got {h.kind!r}"
        )
    if n < SCENARIO2_MIN_N:
        raise ValueError(f"need n >= {SCENARIO2_MIN_N} for the 6-sigma checks")
    lam = h.states(model, n)
    cell_checks = []
    for cell, p in enumerate(model.mu):
        freq = float(np.mean(lam == cell))
        sigma = math.sqrt(p * (1 - p) / n)
        ok = abs(freq - p) <= 6 * sigma if sigma > 0 else freq == p
        cell_checks.append(
            {"cell": cell, "expected": p, "observed": freq,
             "six_sigma": 6 * sigma, "pass": ok}
        )
    gmap = np.asarray(model.outcome_map, dtype=np.int64)
    x = gmap[lam]
    outcome_checks = []
    for outcome, p in enumerate(model.pushforward()):
        freq = float(np.mean(x == outcome))
        sigma = math.sqrt(p * (1 - p) / n)
        ok = abs(freq - p) <= 6 * sigma if sigma > 0 else freq == p
        outcome_checks.append(
            {"outcome": outcome, "expected": p, "observed": freq,
             "six_sigma": 6 * sigma, "pass": ok}
        )
    fair = all(c["pass"] for c in cell_checks) and all(c["pass"] for c in outcome_checks)
    return ScenarioTwoReport(
        model.name, h.describe(), h.randomness_origin, n,
        cell_checks, outcome_checks, fair, model.compatible(),
    )


# -- JSON format --------------------------------------------------------------


def model_to_json(model: HVModel) -> str:
    obj = {
        "schema": HV_SCHEMA,
        "name": model.name,
        "space": {
            "kind": model.space.kind,
            "size": model.space.size,
            **(
                {"interval": list(model.space.interval)}
                if model.space.interval
                else {}
            ),
        },
        "g": list(model.outcome_map),
        "mu": list(model.mu),
    }
    if model.target is not None:
        obj["target"] = list(model.target)
    return json.dumps(obj, sort_keys=True)


def model_from_json(text: str) -> HVModel:
    obj = json.loads(text)
    if obj.get("schema") != HV_SCHEMA:
        raise ValueError(f"expected schema {HV_SCHEMA}, got {obj.get('schema')!r}")
    space = HVSpace(
        obj["space"]["kind"],
        obj["space"]["size"],
        interval=tuple(obj["space"]["interval"]) if "interval" in obj["space"] else None,
    )
    g = obj["g"]
    if isinstance(g, dict):
        rule = g.get("rule")
        if rule == "identity":
            g = list(range(space.size))
        elif rule == "parity":
            g = [i % 2 for i in range(space.size)]
        else:
            raise ValueError(f"unknown g rule {rule!r}")
    return HVModel(
        space=space,
        outcome_map=tuple(int(v) for v in g),
        mu=tuple(float(p) for p in obj["mu"]),
        name=obj.get("name", "model"),
        target=tuple(float(p) for p in obj["target"]) if "target" in obj else None,
    )


def load_model(path: str) -> HVModel:
    with open(path) as f:
        return model_from_json(f.read())


def save_model(path: str, model: HVModel) -> None:
    with open(path, "w") as f:
        f.write(model_to_json(model))
        f.write("\n")
