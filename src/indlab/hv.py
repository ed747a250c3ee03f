"""Hidden-variable models as an explicit factorization x = g(h(n)).

A model owns the outcome map g and a compatibility measure mu on its
hidden states, which are the indices 0 .. len(mu) - 1 of mu: a Bohmian
|psi(q)|^2 dq over position bins and a 't Hooft |c_m|^2 over basis labels
are both written in its hv/v1 file as mu over those indices, and the file's
space block states their number.  An optional target, the outcome measure
the model claims, is checked like mu, by sequences.distribution.  The
per-run state supplier h is a Sampler, named by the same spec that
`--sampler` takes (counter, alternating, constant[:v], prng, os,
file:PATH); its provenance (deterministic rule, seeded PRNG, OS entropy,
recorded trace) is tracked
explicitly, because where the randomness comes from is the whole point of
the two audit scenarios.  Each audit returns the JSON report it is written
as (hv-audit1/v1, hv-audit2/v1).  The scenario-1 audit bounds K(x_|N) at
each checkpoint N with randomness.k_upper_bound and flags x as not
1-random when some bound falls more than INCOMPRESSIBILITY_C bits below N.
Bundled models are JSON files in the data directory, read by load_model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import machine as tm
from .randomness import k_upper_bound
from .sequences import (SymbolString, distribution, os_entropy_symbols, read_sequence_file,
                        sample_indices)

HV_SCHEMA = "hv/v1"
PUSHFORWARD_TOL = 1e-10
INCOMPRESSIBILITY_C = 64  # the c of K(x|n) >= n - c that the scenario-1 audit tests
SCENARIO2_MIN_N = 10_000
# The sampler kinds the scenario-2 audit accepts, each with the provenance
# note its report carries: whatever randomness x shows originates here.
RANDOMNESS_ORIGIN = {
    "seeded_prng": "external to the model (seeded pseudorandomness)",
    "external_entropy": "external to the model (operating-system entropy)",
}


@dataclass(frozen=True)
class HVModel:
    """Total outcome map g and compatibility measure mu on the hidden
    states 0 .. len(mu) - 1, the indices of mu; position bins and basis
    labels alike are such indices.

    target, when given, is the outcome measure the model claims; it must
    pass sequences.distribution, as mu must.  description_bits is the
    serialized self-description length; the scenario-1 audit uses it to
    bound what the model "states" about an outcome sequence.
    """

    outcome_map: tuple[int, ...]
    mu: tuple[float, ...]
    name: str = "model"
    target: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if len(self.outcome_map) != len(self.mu):
            raise ValueError("outcome map must be total on the hidden space")
        for v in self.outcome_map:
            if type(v) is not int or v < 0:
                raise ValueError(f"g entries must be non-negative integers, got {v!r}")
        distribution(self.mu, "mu")
        if self.target is not None:
            distribution(self.target, "target")

    @property
    def size(self) -> int:
        """The number of hidden states."""
        return len(self.mu)

    @property
    def n_outcomes(self) -> int:
        return max(self.outcome_map) + 1

    def pushforward(self) -> tuple[float, ...]:
        """The distribution of g(lambda) under mu (exact summation)."""
        out = [0.0] * self.n_outcomes
        for lam, p in enumerate(self.mu):
            out[self.outcome_map[lam]] += p
        return tuple(out)

    def compatible(self) -> bool:
        """Does the pushforward match the declared target measure, within PUSHFORWARD_TOL?"""
        push = self.pushforward()
        target = self.target or push
        return len(push) == len(target) and all(
            abs(a - b) <= PUSHFORWARD_TOL for a, b in zip(push, target))

    @property
    def description_bits(self) -> int:
        return 8 * len(model_to_json(self).encode())


class Sampler:
    """A supplier of hidden states h(0), h(1), ... with tracked provenance,
    named by the spec that `--sampler` takes.

    counter, alternating and constant[:v] (v defaults to 0) are
    deterministic_computable rules and reproduce exactly; prng draws from
    probs (default mu) with seed, so it reproduces per seed but its
    randomness is external to any model; os reads operating-system entropy,
    external and non-reproducible; file:PATH replays a recorded seq/v1
    trace.  Only prng reads seed (required) and probs.  An unknown spec, or
    a seed or probs the spec does not read, raises a ValueError naming it.
    """

    def __init__(self, spec: str, seed: Optional[int] = None,
                 probs: Optional[Sequence[float]] = None):
        name, colon, arg = spec.partition(":")
        if spec in ("counter", "alternating"):
            self.kind, self.params = "deterministic_computable", {"rule": spec}
        elif name == "constant":
            try:
                value = int(arg) if colon else 0
            except ValueError:
                raise ValueError(f"bad state {arg!r} in {spec!r}") from None
            self.kind = "deterministic_computable"
            self.params = {"rule": "constant", "value": value}
        elif spec == "prng":
            if seed is None:
                raise ValueError("sampler 'prng' needs a seed")
            self.kind = "seeded_prng"
            self.params = {"seed": seed,
                           "probs": None if probs is None else distribution(probs, "probs")}
        elif spec == "os":
            self.kind, self.params = "external_entropy", {}
        elif name == "file" and arg:
            self.kind, self.params = "recorded_file", {"path": arg}
        else:
            raise ValueError(f"unknown sampler {spec!r}")
        unread = [k for k, v in (("seed", seed), ("probs", probs)) if v is not None]
        if unread and self.kind != "seeded_prng":
            raise ValueError(f"sampler {spec!r} does not read {', '.join(map(repr, unread))}")

    def states(self, model: HVModel, n: int) -> np.ndarray:
        """h(0..n-1) as indices into the model's hidden space."""
        m = model.size
        if self.kind == "deterministic_computable":
            rule = self.params["rule"]
            if rule == "counter":
                return np.arange(n, dtype=np.int64) % m
            if rule == "alternating":
                return np.arange(n, dtype=np.int64) % min(2, m)
            return np.full(n, self.params["value"], dtype=np.int64)
        if self.kind == "seeded_prng":
            probs = self.params.get("probs") or model.mu
            if len(probs) != m:
                raise ValueError(f"sampler distribution covers {len(probs)} states, space has {m}")
            return sample_indices(probs, n, self.params["seed"])
        if self.kind == "external_entropy":
            return os_entropy_symbols(m, n)
        sigma = read_sequence_file(self.params["path"])
        if len(sigma) < n:
            raise ValueError(f"recorded trace holds {len(sigma)} states, {n} requested")
        return sigma.array[:n]

    def describe(self) -> dict:
        return {"kind": self.kind, **self.params}


def run_model(model: HVModel, h: Sampler, n: int) -> SymbolString:
    """The outcome string x with x_i = g(h(i))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    lam = h.states(model, n)
    m = model.size
    if len(lam) and (lam.min() < 0 or lam.max() >= m):
        bad = lam[(lam < 0) | (lam >= m)][0]
        raise ValueError(f"sampler emitted state {bad} outside the space of size {m}")
    gmap = np.asarray(model.outcome_map, dtype=np.int64)
    x = gmap[lam]
    return SymbolString(max(2, model.n_outcomes), x)


def scenario_one_audit(model: HVModel, h: Sampler, checkpoints: Sequence[int]) -> dict:
    """Audit scenario 1: the theory supplies h, hence states x outright.

    Runs the model to the last checkpoint and returns the hv-audit1/v1
    report, with one row per checkpoint N: k_upper and method from
    randomness.k_upper_bound(x_|N), margin = k_upper - N, and stated_bound,
    the length of the model's own description plus 2 ceil(log2(N + 1)) bits
    to give N plus machine.MACHINE_OVERHEAD_BITS.  The flag
    incompatible_with_1_randomness is raised when some margin is below
    -INCOMPRESSIBILITY_C; a higher margin confirms nothing.  Checkpoints
    that are empty, not strictly ascending or negative raise a ValueError
    before the model runs.
    """
    if h.kind != "deterministic_computable":
        raise ValueError(
            f"scenario-1 audit requires a deterministic_computable sampler, "
            f"got {h.kind!r}"
        )
    if model.n_outcomes > 2:
        raise ValueError("audits cover binary-outcome models")
    cps = list(checkpoints)
    if not cps:
        raise ValueError("need at least one checkpoint")
    if any(a >= b for a, b in zip(cps, cps[1:])):  # a repeat would give the same row twice
        raise ValueError("checkpoints must be ascending")
    if cps[0] < 0:
        raise ValueError(f"checkpoints must be >= 0, got {cps}")
    x = run_model(model, h, cps[-1])
    description_bits = model.description_bits  # serialises the model on each read
    rows = []
    for n in cps:
        est = k_upper_bound(SymbolString(x.alphabet_size, x.array[:n]))
        rows.append({"n": n, "k_upper": est.value, "margin": est.value - n, "method": est.method,
                     "stated_bound": description_bits + 2 * math.ceil(math.log2(n + 1))
                     + tm.MACHINE_OVERHEAD_BITS})
    return {
        "schema": "hv-audit1/v1",
        "model": model.name,
        "sampler": h.describe(),
        "description_bits": description_bits,
        "checkpoints": rows,
        "incompatible_with_1_randomness":
            any(row["margin"] < -INCOMPRESSIBILITY_C for row in rows),
        "flag_threshold_bits": -INCOMPRESSIBILITY_C,
        "pushforward_matches_target": model.compatible(),
        "note": "an upper bound this far below N refutes 1-randomness of the "
                "stated sequence relative to the bundled machine",
    }


def scenario_two_audit(model: HVModel, h: Sampler, n: int) -> dict:
    """Audit scenario 2: h is an outside source that must sample mu.

    Checks each hidden-state cell frequency against mu and each outcome
    frequency against the pushforward, both at six binomial sigma, and
    returns the hv-audit2/v1 report, which records that the randomness
    originates outside the model.
    """
    if h.kind not in RANDOMNESS_ORIGIN:
        raise ValueError(
            f"scenario-2 audit expects a sampling h (seeded_prng or "
            f"external_entropy), got {h.kind!r}"
        )
    if n < SCENARIO2_MIN_N:
        raise ValueError(f"need n >= {SCENARIO2_MIN_N} for the 6-sigma checks")
    lam = h.states(model, n)
    cell_checks = _six_sigma_checks("cell", lam, model.mu)
    x = np.asarray(model.outcome_map, dtype=np.int64)[lam]
    outcome_checks = _six_sigma_checks("outcome", x, model.pushforward())
    return {
        "schema": "hv-audit2/v1",
        "model": model.name,
        "sampler": h.describe(),
        "randomness_origin": RANDOMNESS_ORIGIN[h.kind],
        "n": n,
        "cell_checks": cell_checks,
        "outcome_checks": outcome_checks,
        "fair": all(c["pass"] for c in cell_checks + outcome_checks),
        "pushforward_matches_target": model.compatible(),
    }


def _six_sigma_checks(key: str, values: np.ndarray, probs: Sequence[float]) -> list[dict]:
    """Each index i's frequency among values against probs[i], within six binomial sigma."""
    n = len(values)
    checks = []
    for i, p in enumerate(probs):
        freq = float(np.mean(values == i))
        sigma = math.sqrt(p * (1 - p) / n)
        ok = abs(freq - p) <= 6 * sigma if sigma > 0 else freq == p
        checks.append({key: i, "expected": p, "observed": freq,
                       "six_sigma": 6 * sigma, "pass": ok})
    return checks


# -- JSON format --------------------------------------------------------------


# The fields of an hv/v1 file and of its space block; any other is refused.
MODEL_FIELDS = ("schema", "name", "space", "g", "mu", "target")
SPACE_FIELDS = ("kind", "size")


def model_to_json(model: HVModel) -> str:
    obj = {
        "schema": HV_SCHEMA,
        "name": model.name,
        "space": {"kind": "discrete", "size": model.size},
        "g": list(model.outcome_map),
        "mu": list(model.mu),
    }
    if model.target is not None:
        obj["target"] = list(model.target)
    return json.dumps(obj, sort_keys=True)


def model_from_json(text: str) -> HVModel:
    obj = json.loads(text)
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema != HV_SCHEMA:
        raise ValueError(f"expected schema {HV_SCHEMA}, got {schema!r}")
    _only_fields(obj, MODEL_FIELDS, "hv model", optional=("name", "target"))
    space = _only_fields(obj["space"], SPACE_FIELDS, "space")
    if space["kind"] != "discrete":
        raise ValueError(f"space kind must be 'discrete', got {space['kind']!r}")
    size = space["size"]
    if type(size) is not int:
        raise ValueError(f"space size must be an integer, got {size!r}")
    mu = _numbers(obj, "mu")
    if len(mu) != size:  # before g is read, whatever size claims
        raise ValueError("mu must cover the hidden space")
    g = obj["g"]
    if not isinstance(g, list):
        raise ValueError(f"g must be a list of outcomes, got {g!r}")
    name = obj.get("name", "model")
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    return HVModel(tuple(g), mu, name, _numbers(obj, "target") if "target" in obj else None)


def _only_fields(obj, fields: tuple[str, ...], what: str, optional: tuple[str, ...] = ()) -> dict:
    """obj, a JSON object with no key outside fields and every field not in
    optional; anything else raises a ValueError naming what and the first
    key refused or missing."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    for key in obj:
        if key not in fields:
            raise ValueError(f"{what} field {key!r} is not one of {', '.join(fields)}")
    for key in fields:
        if key not in obj and key not in optional:
            raise ValueError(f"{what} has no field {key!r}")
    return obj


def _numbers(obj: dict, field: str) -> tuple[float, ...]:
    """obj[field], a list of JSON numbers, as floats; anything else raises a
    ValueError naming field."""
    values = obj[field]
    if not isinstance(values, list):
        raise ValueError(f"{field} must be a list of numbers, got {values!r}")
    for v in values:
        if type(v) not in (int, float):
            raise ValueError(f"{field} entries must be numbers, got {v!r}")
    return tuple(float(v) for v in values)


def load_model(path: str) -> HVModel:
    """The model in path; a malformed file raises a ValueError naming it."""
    try:
        with open(path) as f:
            return model_from_json(f.read())
    except (TypeError, ValueError) as exc:  # TypeError: a field of the wrong JSON type
        raise ValueError(f"{path}: {exc}") from None
