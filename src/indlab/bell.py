"""Bipartite Alice/Bob experiments: quantum sin^2 correlations, the exact
local-deterministic bound by enumeration, Monte Carlo trial generation, and
the no-signaling / free-choice statistical checks.

Angles are degrees in every interface; radians only ever appear inside
quantum_mismatch.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError
from .randomness import TestReport

MAX_SETTINGS = 16
Z_THRESHOLD = 4.0
MIN_TRIALS_PER_PAIR = 1000


@dataclass(frozen=True)
class SettingSet:
    """The finite menu of analyzer angles, in degrees: at least two, finite
    and none repeated, so each angle has one index."""

    angles: tuple[float, ...]

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        if not all(math.isfinite(a) for a in angles):
            raise ValueError(f"settings must be finite angles: {list(angles)}")
        if len(set(angles)) < len(angles):
            raise ValueError(f"settings repeat an angle: {list(angles)}")
        if len(angles) < 2:
            raise ValueError("need at least 2 distinct angles")
        object.__setattr__(self, "angles", angles)

    def __len__(self) -> int:
        return len(self.angles)

    def index(self, angle: float) -> int:
        if float(angle) not in self.angles:
            raise ValueError(f"angle {angle} is not among the settings {list(self.angles)}")
        return self.angles.index(float(angle))


DEFAULT_SETTINGS = SettingSet((0.0, 30.0, 60.0))


class TrialSet:
    """Trials as columns: setting indices a_idx, b_idx, outcomes alpha, beta
    and the optional hidden-variable ids lam, one entry per trial.
    """

    def __init__(self, settings: SettingSet, a_idx, b_idx, alpha, beta,
                 lam=None, metadata: Optional[dict] = None):
        self.settings = settings
        self.a_idx = np.asarray(a_idx, dtype=np.int64)
        self.b_idx = np.asarray(b_idx, dtype=np.int64)
        self.alpha = np.asarray(alpha, dtype=np.int64)
        self.beta = np.asarray(beta, dtype=np.int64)
        self.lam = None if lam is None else np.asarray(lam, dtype=np.int64)
        self.metadata = metadata or {}

    def __len__(self) -> int:
        return len(self.alpha)


def quantum_mismatch(a_deg: float, b_deg: float) -> float:
    """P(outcomes differ | settings a, b) = sin^2(a - b), angles in degrees."""
    return math.sin(math.radians(a_deg - b_deg)) ** 2


@dataclass(frozen=True)
class MismatchFunctional:
    """A linear combination sum_i coeff_i * P(L != R | a_i, b_i).

    With perfect_correlation set, only strategies reproducing the exact
    equal-setting correlation (response_L == response_R) are admissible in
    the local bound: any model whose average reproduces the sin^2 law has
    zero equal-setting mismatch, which forces agreement at every hidden
    state in the support.
    """

    terms: tuple[tuple[Fraction, float, float], ...]
    name: str = "custom"
    perfect_correlation: bool = False

    @property
    def degenerate(self) -> bool:
        return all(c == 0 for c, _, _ in self.terms)

    def settings(self) -> SettingSet:
        angles: list[float] = []
        for _, a, b in self.terms:
            for x in (a, b):
                if x not in angles:
                    angles.append(x)
        return SettingSet(tuple(angles))


def default_functional() -> MismatchFunctional:
    """P(0,60) - P(0,30) - P(30,60): at most 0 for every local model that
    honors perfect correlation, +1/4 for the sin^2 correlations."""
    return MismatchFunctional(
        (
            (Fraction(1), 0.0, 60.0),
            (Fraction(-1), 0.0, 30.0),
            (Fraction(-1), 30.0, 60.0),
        ),
        name="default",
        perfect_correlation=True,
    )


def chsh_functional() -> MismatchFunctional:
    """CHSH in mismatch form: local bound 0 over all strategies (no
    perfect-correlation input needed), quantum value sin^2(67.5) -
    3 sin^2(22.5) ~ 0.414."""
    return MismatchFunctional(
        (
            (Fraction(1), 45.0, -22.5),
            (Fraction(-1), 0.0, 22.5),
            (Fraction(-1), 0.0, -22.5),
            (Fraction(-1), 45.0, 22.5),
        ),
        name="chsh",
    )


@dataclass(frozen=True)
class LocalDeterministicStrategy:
    """Fixed responses per setting for each wing: the deterministic vertices
    over which every locally-causal mixture decomposes."""

    response_l: tuple[int, ...]
    response_r: tuple[int, ...]

    def value(self, functional: MismatchFunctional, settings: SettingSet) -> Fraction:
        total = Fraction(0)
        for coeff, a, b in functional.terms:
            mismatch = self.response_l[settings.index(a)] != self.response_r[settings.index(b)]
            if mismatch:
                total += coeff
        return total


def local_bound_bruteforce(
    settings: SettingSet, functional: MismatchFunctional
) -> tuple[Fraction, LocalDeterministicStrategy]:
    """Exact maximum of the functional over all deterministic strategies.

    Enumerates Alice's 2^|S| responses; for each, Bob's optimum separates
    across his settings, so the maximum over all 2^|S| x 2^|S| strategies
    is computed exactly (rational arithmetic) without listing the products.
    Under a perfect_correlation functional Bob's responses are pinned to
    Alice's instead.
    """
    s = len(settings)
    if s > MAX_SETTINGS:
        raise CapacityError(f"{s} settings exceeds the {MAX_SETTINGS}-setting cap")
    terms_by_b: dict[int, list[tuple[Fraction, int]]] = {}
    for coeff, a, b in functional.terms:
        terms_by_b.setdefault(settings.index(b), []).append((coeff, settings.index(a)))
    best: Optional[Fraction] = None
    best_strategy: Optional[LocalDeterministicStrategy] = None
    for l_mask in range(1 << s):
        response_l = tuple((l_mask >> i) & 1 for i in range(s))
        total = Fraction(0)
        response_r = [0] * s
        for bi in range(s):
            options = []
            for rv in (0, 1):
                v = Fraction(0)
                for coeff, ai in terms_by_b.get(bi, []):
                    if response_l[ai] != rv:
                        v += coeff
                options.append(v)
            if functional.perfect_correlation:
                response_r[bi] = response_l[bi]
                total += options[response_l[bi]]
            elif options[1] > options[0]:
                response_r[bi] = 1
                total += options[1]
            else:
                total += options[0]
        if best is None or total > best:
            best = total
            best_strategy = LocalDeterministicStrategy(response_l, tuple(response_r))
    return best, best_strategy


def quantum_value(functional: MismatchFunctional) -> float:
    """The functional evaluated on the sin^2 mismatch probabilities."""
    return float(
        sum(float(c) * quantum_mismatch(a, b) for c, a, b in functional.terms)
    )


def run_bipartite(
    model: str,
    settings: SettingSet,
    n_trials: int,
    seed: int,
    fixed_pair: Optional[tuple[float, float]] = None,
    hv_ensemble: Optional[Sequence[tuple[float, LocalDeterministicStrategy]]] = None,
    superdeterministic: bool = False,
) -> TrialSet:
    """Generate i.i.d. trial records.

    model "quantum": settings uniform (or fixed_pair); outcome mismatch with
    probability sin^2(a-b), equal/unequal outcomes split evenly, which is
    the unique symmetric completion with uniform marginals.  At a == b the
    mismatch probability is exactly 0, so correlation is perfect, not
    statistical.

    model "hv": draw lambda from the ensemble weights, answer from the
    strategy at lambda.  With superdeterministic=True the settings are
    functions of lambda instead of free draws.

    model "signaling": a deliberately pathological toy whose Alice outcome
    copies Bob's setting parity; exists to fail the no-signaling check.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    gen = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 0]))
    s = len(settings)
    meta = {
        "model": model,
        "settings": list(settings.angles),
        "n_trials": n_trials,
        "seed": seed,
        "superdeterministic": superdeterministic,
    }
    if fixed_pair is not None:
        a_idx = np.full(n_trials, settings.index(fixed_pair[0]), dtype=np.int64)
        b_idx = np.full(n_trials, settings.index(fixed_pair[1]), dtype=np.int64)
        meta["fixed_pair"] = list(fixed_pair)
    else:
        a_idx = gen.integers(0, s, n_trials)
        b_idx = gen.integers(0, s, n_trials)

    if model == "quantum":
        angles = np.asarray(settings.angles)
        p_mismatch = np.sin(np.radians(angles[a_idx] - angles[b_idx])) ** 2
        differ = gen.random(n_trials) < p_mismatch
        alpha = gen.integers(0, 2, n_trials)
        beta = np.where(differ, 1 - alpha, alpha)
        return TrialSet(settings, a_idx, b_idx, alpha, beta, None, meta)

    if model == "hv":
        if not hv_ensemble:
            raise ValueError("hv model needs a strategy ensemble")
        weights = np.asarray([w for w, _ in hv_ensemble], dtype=float)
        if abs(weights.sum() - 1.0) > 1e-9 or np.any(weights < 0):
            raise ValueError("ensemble weights must form a distribution")
        lam = gen.choice(len(hv_ensemble), size=n_trials, p=weights / weights.sum())
        if superdeterministic:
            a_idx = lam % s
            b_idx = (lam // s) % s
            meta["fixed_pair"] = None
        l_tables = np.asarray([st.response_l for _, st in hv_ensemble], dtype=np.int64)
        r_tables = np.asarray([st.response_r for _, st in hv_ensemble], dtype=np.int64)
        alpha = l_tables[lam, a_idx]
        beta = r_tables[lam, b_idx]
        return TrialSet(settings, a_idx, b_idx, alpha, beta, lam, meta)

    if model == "signaling":
        alpha = b_idx % 2
        beta = gen.integers(0, 2, n_trials)
        return TrialSet(settings, a_idx, b_idx, alpha, beta, None, meta)

    raise ValueError(f"unknown model {model!r}")


def _contingency(shape: tuple[int, ...], *codes: np.ndarray) -> np.ndarray:
    """Counts of each joint value of the code columns; column i indexes axis i."""
    flat = np.ravel_multi_index(codes, shape)
    return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with integer dof: with h = x/2, the sum over
    i < dof//2 of e^-h h^(i+f) / Gamma(i+f+1), f = (dof % 2)/2, taken in log
    space, plus erfc(sqrt h) when dof is odd."""
    if x <= 0:
        return 1.0
    h = x / 2
    shift = dof % 2 / 2
    head = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    log_h = math.log(h)
    return head + math.fsum(
        math.exp((i + shift) * log_h - h - math.lgamma(i + shift + 1))
        for i in range(dof // 2)
    )


def _chi2_z(table: np.ndarray) -> tuple[float, bool]:
    """z-equivalent of a contingency-table independence test: Pearson's
    chi-square (Yates-corrected on 2x2) p-value as an upper-tail normal
    quantile, floored at 0, with p floored at 1e-300.

    Returns (z, degenerate). Rows/columns with no mass are dropped; a table
    with fewer than two surviving rows or columns is degenerate and cannot
    witness dependence.
    """
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return 0.0, True
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / table.sum()
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    if dof == 1:
        diff = expected - table
        table = table + np.sign(diff) * np.minimum(0.5, np.abs(diff))
    p = _chi2_sf(float(np.sum((table - expected) ** 2 / expected)), dof)
    if p >= 0.5:
        return 0.0, False
    return -NormalDist().inv_cdf(max(p, 1e-300)), False


def no_signaling_check(trials: TrialSet, threshold: float = Z_THRESHOLD) -> tuple[TestReport, TestReport]:
    """Marginal independence both ways: Alice's outcome distribution must
    not depend on Bob's setting, and vice versa."""
    s = len(trials.settings)
    counts = _contingency((s, s), trials.a_idx, trials.b_idx)
    counts = counts[counts > 0]
    deficit = counts[counts < MIN_TRIALS_PER_PAIR]
    if deficit.size or not counts.size:
        raise ValueError(
            f"need >= {MIN_TRIALS_PER_PAIR} trials per settings pair; "
            f"smallest observed count {deficit.min() if deficit.size else 0}"
        )
    reports = []
    for wing, own_idx, other_idx, outcome in (
        ("alice", trials.a_idx, trials.b_idx, trials.alpha),
        ("bob", trials.b_idx, trials.a_idx, trials.beta),
    ):
        # tables[setting] counts (other setting, outcome) at own setting
        tables = _contingency((s, s, 2), own_idx, other_idx, outcome)
        worst = 0.0
        details = {}
        for setting in range(s):
            z, degenerate = _chi2_z(tables[setting])
            details[f"setting_{setting}_z"] = z if not degenerate else None
            worst = max(worst, z)  # a degenerate table has z = 0
        reports.append(TestReport(
            test_name=f"no_signaling[{wing}]", statistic=worst, expected=0.0, z_score=worst,
            passed=worst <= threshold, threshold=threshold, parameters=details))
    return reports[0], reports[1]


def free_choice_check(trials: TrialSet, threshold: float = Z_THRESHOLD) -> TestReport:
    """Independence of (a, b), (a, lambda), and (b, lambda).

    Degenerate marginals (a single observed setting or hidden value) make
    the test inconclusive: reported as skipped, never as passed.
    """
    if trials.lam is None:
        raise ValueError("free-choice check needs lambda_id on the records")
    if len(trials) < MIN_TRIALS_PER_PAIR:
        raise ValueError(f"need >= {MIN_TRIALS_PER_PAIR} trials")
    s = len(trials.settings)
    # lambda is indexed by its distinct values, so no table grows with the ids
    lam = np.unique(trials.lam, return_inverse=True)[1]
    n_lam = int(lam.max()) + 1
    pairs = {
        "a_vs_b": (trials.a_idx, trials.b_idx, (s, s)),
        "a_vs_lambda": (trials.a_idx, lam, (s, n_lam)),
        "b_vs_lambda": (trials.b_idx, lam, (s, n_lam)),
    }
    worst = 0.0
    details = {}
    for name, (u, v, shape) in pairs.items():
        z, degenerate = _chi2_z(_contingency(shape, u, v))
        details[name + "_z"] = None if degenerate else z
        worst = max(worst, z)  # a degenerate table has z = 0
    skipped = all(z is None for z in details.values())
    return TestReport(
        test_name="free_choice", statistic=worst, expected=0.0, z_score=worst,
        passed=not skipped and worst <= threshold, threshold=threshold,
        parameters=details, skipped=skipped)


def perfect_correlation_violations(trials: TrialSet) -> int:
    """Number of equal-setting trials with unequal outcomes (exact count)."""
    mask = trials.a_idx == trials.b_idx
    return int(np.sum(trials.alpha[mask] != trials.beta[mask]))


@dataclass
class FunctionalEstimate:
    value: float
    per_term: list[dict]

    @property
    def six_sigma(self) -> float:
        return float(sum(abs(t["coeff"]) * 6 * t["sigma"] for t in self.per_term))


def empirical_functional(trials: TrialSet, functional: MismatchFunctional) -> FunctionalEstimate:
    """The functional evaluated on empirical mismatch frequencies."""
    settings = trials.settings
    value = 0.0
    per_term = []
    for coeff, a, b in functional.terms:
        mask = (trials.a_idx == settings.index(a)) & (trials.b_idx == settings.index(b))
        n = int(mask.sum())
        if n == 0:
            raise ValueError(f"no trials at settings pair ({a}, {b})")
        freq = float(np.mean(trials.alpha[mask] != trials.beta[mask]))
        expected = quantum_mismatch(a, b)
        sigma = math.sqrt(max(freq * (1 - freq), 1.0 / n) / n)
        value += float(coeff) * freq
        per_term.append(
            {"a": a, "b": b, "coeff": float(coeff), "n": n,
             "mismatch": freq, "quantum": expected, "sigma": sigma}
        )
    return FunctionalEstimate(value, per_term)


# -- persistence -------------------------------------------------------------


CSV_HEADER = ("a_deg", "b_deg", "alpha", "beta", "lambda_id")


def _decimal(values: np.ndarray) -> np.ndarray:
    """Integers as the byte strings str(int) gives, in the narrowest width."""
    width = max(len(str(values.min(initial=0))), len(str(values.max(initial=0))))
    return values.astype(f"S{width}")


def save_trials_csv(path: str, trials: TrialSet) -> None:
    """CSV of a_deg,b_deg,alpha,beta,lambda_id plus a JSON metadata sidecar.

    Written as csv.writer writes it: angles as str(float), a blank
    lambda_id when there is none, and CRLF line ends.
    """
    n = len(trials)
    angles = np.array([str(a).encode() for a in trials.settings.angles])
    lam = np.zeros(n, "S1") if trials.lam is None else _decimal(trials.lam)
    columns = [angles[trials.a_idx], angles[trials.b_idx],
               _decimal(trials.alpha), _decimal(trials.beta), lam]
    # Each column becomes an (n, width) byte matrix padded with NULs; the
    # rows are joined side by side and the padding dropped in one pass.
    parts = []
    for col in columns:
        parts += [col.view(np.uint8).reshape(n, col.itemsize), np.full((n, 1), ord(","), np.uint8)]
    parts[-1] = np.tile(np.frombuffer(b"\r\n", np.uint8), (n, 1))
    body = np.concatenate(parts, axis=1).tobytes().replace(b"\0", b"")
    with open(path, "wb") as f:
        f.write(",".join(CSV_HEADER).encode() + b"\r\n" + body)
    with open(path + ".meta.json", "w") as f:
        json.dump(trials.metadata, f, indent=2, sort_keys=True)
        f.write("\n")


def _indices(values: np.ndarray, allowed: Sequence, column: str) -> np.ndarray:
    """Index of each value in allowed, whose entries are distinct; a value
    not in allowed raises a ValueError naming it and its row."""
    allowed = np.asarray(allowed)
    order = np.argsort(allowed)
    found = order[np.minimum(np.searchsorted(allowed, values, sorter=order), len(allowed) - 1)]
    missing = np.flatnonzero(allowed[found] != values)
    if missing.size:
        i = missing[0]
        raise ValueError(f"{column} {values[i]} on data row {i + 1} is not among "
                         f"{allowed.tolist()}")
    return found


def load_trials_csv(path: str) -> TrialSet:
    """Read a save_trials_csv file; settings come from its metadata sidecar,
    or else are the sorted angles seen.  Every column is checked whole:
    a row with other than five fields, an outcome other than 0 or 1, an
    angle outside the settings, or a lambda_id that is negative or blank on
    only some rows raises a ValueError naming the row or the value."""
    meta = {}
    if os.path.exists(path + ".meta.json"):
        with open(path + ".meta.json") as f:
            meta = json.load(f)
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        body = f.read()
    if header[:4] != list(CSV_HEADER[:4]):
        raise ValueError(f"unexpected CSV header {header!r}")
    if not body.strip():
        raise ValueError(f"{path}: no trial rows")
    # once every row has five fields, a row ending in a comma has a blank lambda_id
    blank = body.count(",\n") + body.endswith(",")
    dtype = [("a_deg", "f8"), ("b_deg", "f8"), ("alpha", "i8"), ("beta", "i8"),
             ("lambda_id", "S1" if blank else "i8")]
    try:
        rows = np.loadtxt(io.StringIO(body), dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if 0 < blank < len(rows):
        raise ValueError(f"lambda_id is blank on {blank} of {len(rows)} rows; "
                         "it must be given on every row or on none")
    lam = None if blank else rows["lambda_id"]
    if lam is not None and lam.min() < 0:
        raise ValueError(f"lambda_id must be >= 0, found {lam.min()}")
    angles = meta.get("settings")
    if angles is None:
        angles = np.unique(np.concatenate([rows["a_deg"], rows["b_deg"]])).tolist()
    settings = SettingSet(tuple(angles))
    a_idx, b_idx = (_indices(rows[c], settings.angles, c) for c in ("a_deg", "b_deg"))
    alpha, beta = (_indices(rows[c], (0, 1), c) for c in ("alpha", "beta"))
    return TrialSet(settings, a_idx, b_idx, alpha, beta, lam, meta)
