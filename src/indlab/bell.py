"""Bipartite Alice/Bob experiments: quantum sin^2 correlations, the exact
local-deterministic bound by enumeration, Monte Carlo trial generation, and
the no-signaling / free-choice statistical checks.

Angles are degrees in every interface; radians only ever appear inside
quantum_mismatch.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .randomness import _z_check
from .sequences import distribution, seeded_stream

MAX_SETTINGS = 16
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

    def __post_init__(self):
        for r in (*self.response_l, *self.response_r):
            if isinstance(r, bool) or not isinstance(r, numbers.Integral) or r not in (0, 1):
                raise ValueError(f"strategy response {r!r} is not 0 or 1 in {self}")


def local_bound(functional: MismatchFunctional) -> Fraction:
    """Exact maximum of the functional over all deterministic strategies on
    the angles its terms name; an angle no term names adds nothing.

    Enumerates Alice's 2^s responses; for each, Bob's optimum separates
    across his settings, so the maximum over all 2^s x 2^s strategies is
    computed exactly (rational arithmetic) without listing the products.
    Under a perfect_correlation functional Bob's responses are pinned to
    Alice's instead.  One named angle is enough; a non-finite angle, or
    more than MAX_SETTINGS angles, raise a ValueError.
    """
    index = {x: i for i, x in enumerate(dict.fromkeys(
        x for _, a, b in functional.terms for x in (a, b)))}
    if not all(map(math.isfinite, index)):
        raise ValueError(f"settings must be finite angles: {list(index)}")
    s = len(index)
    if s > MAX_SETTINGS:
        raise ValueError(f"{s} settings exceeds the {MAX_SETTINGS}-setting cap")
    terms_by_b: dict[int, list[tuple[Fraction, int]]] = {}
    for coeff, a, b in functional.terms:
        terms_by_b.setdefault(index[b], []).append((coeff, index[a]))

    def value(l_mask: int) -> Fraction:
        """The functional at Alice's responses, bit i of l_mask at setting i, and
        Bob's best ones, or his equal ones under perfect_correlation."""
        total = Fraction(0)
        for bi, terms in terms_by_b.items():
            # the terms at Bob's setting bi that his response rv makes mismatch
            options = [sum((c for c, ai in terms if (l_mask >> ai) & 1 != rv), Fraction(0))
                       for rv in (0, 1)]
            total += options[(l_mask >> bi) & 1] if functional.perfect_correlation \
                else max(options)
        return total

    return max(map(value, range(1 << s)))


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
    hv_ensemble: Optional[Sequence[tuple[float, LocalDeterministicStrategy]]] = None,
) -> TrialSet:
    """Generate i.i.d. trial records from sequences.seeded_stream(seed); the
    settings are uniform and independent draws for every model.

    model "quantum": outcome mismatch with probability sin^2(a-b),
    equal/unequal outcomes split evenly, which is the unique symmetric
    completion with uniform marginals.  At a == b the mismatch probability
    is exactly 0, so correlation is perfect, not statistical.

    model "hv": draw lambda from the ensemble weights, answer from the
    strategy at lambda.

    model "signaling": a deliberately pathological toy whose Alice outcome
    copies Bob's setting parity; exists to fail the no-signaling check.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    gen = seeded_stream(seed)
    s = len(settings)
    meta = {"model": model, "settings": list(settings.angles), "n_trials": n_trials,
            "seed": seed}
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
        weights = np.asarray(distribution([w for w, _ in hv_ensemble], "ensemble weights"))
        for _, st in hv_ensemble:
            if not len(st.response_l) == len(st.response_r) == s:
                raise ValueError(f"{st} does not give one response per setting of {s}")
        lam = gen.choice(len(hv_ensemble), size=n_trials, p=weights / weights.sum())
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


def _independence_check(name: str, tables: dict) -> dict:
    """The randomness._z_check of independence in each named table, at the
    worst _chi2_z; parameters holds each name + "_z", None where the table
    is degenerate.  When every table is, none can witness dependence, and
    the check is skipped, never passed."""
    zs = {key + "_z": _chi2_z(table) for key, table in tables.items()}
    worst = max(z for z, _ in zs.values())  # a degenerate table has z = 0
    return _z_check(name, worst, 0.0, worst, {k: None if d else z for k, (z, d) in zs.items()},
                    skipped=all(d for _, d in zs.values()))


def no_signaling_check(trials: TrialSet) -> dict:
    """Marginal independence both ways: Alice's outcome distribution must
    not depend on Bob's setting, and vice versa, at z <= DEFAULT_Z_THRESHOLD.
    Returns the report entry {"alice": ..., "bob": ...}, each wing's
    _independence_check over one table per own setting (a wing with one
    settings pair alone, say, is skipped), or {"skipped": reason} when an
    observed settings pair has fewer than MIN_TRIALS_PER_PAIR trials."""
    s = len(trials.settings)
    counts = _contingency((s, s), trials.a_idx, trials.b_idx)
    smallest = counts[counts > 0].min() if counts.any() else 0
    if smallest < MIN_TRIALS_PER_PAIR:
        return {"skipped": f"need >= {MIN_TRIALS_PER_PAIR} trials per settings pair; "
                           f"smallest observed count {smallest}"}
    # per wing, at each own setting, a table of (other setting, outcome) counts
    wings = {"alice": _contingency((s, s, 2), trials.a_idx, trials.b_idx, trials.alpha),
             "bob": _contingency((s, s, 2), trials.b_idx, trials.a_idx, trials.beta)}
    return {wing: _independence_check(f"no_signaling[{wing}]", {
        f"setting_{i}": table for i, table in enumerate(tables)}) for wing, tables in wings.items()}


def free_choice_check(trials: TrialSet) -> dict:
    """Independence of (a, b), (a, lambda), and (b, lambda), at z <= DEFAULT_Z_THRESHOLD,
    as the _independence_check of those three tables: skipped, never passed,
    when the marginals are degenerate (a single observed setting or hidden value).
    Fewer than MIN_TRIALS_PER_PAIR trials give only {"skipped": reason}; trials
    without lambda_id raise a ValueError."""
    if trials.lam is None:
        raise ValueError("free-choice check needs lambda_id on the records")
    if len(trials) < MIN_TRIALS_PER_PAIR:
        return {"skipped": f"need >= {MIN_TRIALS_PER_PAIR} trials, got {len(trials)}"}
    s = len(trials.settings)
    # lambda is indexed by its distinct values, so no table grows with the ids
    lam = np.unique(trials.lam, return_inverse=True)[1]
    n_lam = int(lam.max()) + 1
    return _independence_check("free_choice", {
        "a_vs_b": _contingency((s, s), trials.a_idx, trials.b_idx),
        "a_vs_lambda": _contingency((s, n_lam), trials.a_idx, lam),
        "b_vs_lambda": _contingency((s, n_lam), trials.b_idx, lam)})


def perfect_correlation_violations(trials: TrialSet) -> int:
    """Number of equal-setting trials with unequal outcomes (exact count)."""
    mask = trials.a_idx == trials.b_idx
    return int(np.sum(trials.alpha[mask] != trials.beta[mask]))


def empirical_functional(trials: TrialSet, functional: MismatchFunctional) -> dict:
    """The functional evaluated on empirical mismatch frequencies, as the
    keys empirical (the value), six_sigma (six standard errors summed over
    the terms by |coeff|) and per_term (a, b, coeff, n, mismatch, quantum
    and sigma of each term); only the key skipped, with the reason, when all
    coefficients are zero or a term's settings pair has no trials."""
    if functional.degenerate:
        return {"skipped": "all coefficients zero"}
    settings = trials.settings
    value = 0.0
    per_term = []
    for coeff, a, b in functional.terms:
        mask = (trials.a_idx == settings.index(a)) & (trials.b_idx == settings.index(b))
        n = int(mask.sum())
        if n == 0:
            return {"skipped": f"no trials at settings pair ({a}, {b})"}
        freq = float(np.mean(trials.alpha[mask] != trials.beta[mask]))
        expected = quantum_mismatch(a, b)
        sigma = math.sqrt(max(freq * (1 - freq), 1.0 / n) / n)
        value += float(coeff) * freq
        per_term.append(
            {"a": a, "b": b, "coeff": float(coeff), "n": n,
             "mismatch": freq, "quantum": expected, "sigma": sigma}
        )
    return {"empirical": value, "per_term": per_term,
            "six_sigma": float(sum(abs(t["coeff"]) * 6 * t["sigma"] for t in per_term))}


# -- persistence -------------------------------------------------------------


CSV_HEADER = ("a_deg", "b_deg", "alpha", "beta", "lambda_id")


def save_trials_csv(path: str, trials: TrialSet) -> None:
    """CSV of a_deg,b_deg,alpha,beta,lambda_id plus a JSON metadata sidecar,
    written as csv.writer writes it: angles as str(float), a blank lambda_id
    when there is none, CRLF line ends.  As load_trials_csv parses each
    distinct line once, each distinct row is rendered once and gathered.  A
    setting index outside the settings or an outcome other than 0 or 1
    raises a ValueError naming its column before anything is written."""
    n, s = len(trials), len(trials.settings)
    columns = {"a_idx": trials.a_idx, "b_idx": trials.b_idx, "alpha": trials.alpha,
               "beta": trials.beta}
    for (name, column), size in zip(columns.items(), (s, s, 2, 2)):
        bad = np.flatnonzero((column < 0) | (column >= size))
        if bad.size:
            raise ValueError(f"{name} {column[bad[0]]} on trial {bad[0]} is outside 0..{size - 1}")
    # one code per trial over its row's fields, lambda_id by its rank
    lam = np.zeros(n, np.int64) if trials.lam is None else np.unique(
        trials.lam, return_inverse=True)[1]
    code = ((lam * s + trials.a_idx) * s + trials.b_idx) * 4 + trials.alpha * 2 + trials.beta
    distinct, row_of = np.unique(code, return_inverse=True)
    pick = np.empty(len(distinct), np.int64)
    pick[row_of] = np.arange(n)  # a trial of each distinct row
    angles = [str(a) for a in trials.settings.angles]
    lam_ids = [""] * len(pick) if trials.lam is None else trials.lam[pick].tolist()
    rows = np.array([f"{angles[a]},{angles[b]},{x},{y},{l}\r\n".encode() for a, b, x, y, l in
                     zip(*(c[pick].tolist() for c in columns.values()), lam_ids)], dtype=bytes)
    # the rows are NUL-padded to one width; the gather keeps it, the strip drops it
    body = rows[row_of].tobytes().replace(b"\0", b"")
    with open(path, "wb") as f:
        f.write(",".join(CSV_HEADER).encode() + b"\r\n" + body)
    with open(path + ".meta.json", "w") as f:
        json.dump(trials.metadata, f, indent=2, sort_keys=True)
        f.write("\n")


def _indices(values: np.ndarray, allowed: Sequence, label: str, codes: np.ndarray) -> np.ndarray:
    """Index in allowed, whose entries are distinct, of each row's value values[codes];
    a value not in allowed raises a ValueError naming label, the value and the
    first row with it."""
    allowed = np.asarray(allowed)
    order = np.argsort(allowed)
    found = order[np.minimum(np.searchsorted(allowed, values, sorter=order), len(allowed) - 1)]
    missing = np.flatnonzero(allowed[found] != values)
    if missing.size:
        i = missing[0]
        raise ValueError(f"{label} {values[i]} on data row {np.argmax(codes == i) + 1} "
                         f"is not among {allowed.tolist()}")
    return found[codes]


def load_trials_csv(path: str) -> TrialSet:
    """Read a save_trials_csv file; settings come from its metadata sidecar,
    or else are the sorted angles seen.  LF, CRLF and CR line ends read
    alike and empty lines are skipped.  Every column is checked whole: a
    header other than CSV_HEADER, a row with other than five fields, an
    outcome other than 0 or 1, an angle outside the settings, or a
    lambda_id that is negative or blank on only some rows raises a
    ValueError naming the file and the header, the row or the value, and so
    does a sidecar that is not a JSON object or whose settings are not two
    or more distinct finite numbers, naming the sidecar.  Only the distinct lines are kept and
    parsed, so beyond one pass over the file the cost follows them; the
    worst case is all rows distinct."""
    meta = {}
    sidecar = path + ".meta.json"
    if os.path.exists(sidecar):
        with open(sidecar) as f:
            try:
                meta = json.load(f)
            except ValueError as exc:
                raise ValueError(f"{sidecar}: {exc}") from None
        if not isinstance(meta, dict):
            raise ValueError(f"{sidecar}: expected a JSON object, got a {type(meta).__name__}")
    with open(path) as f:
        header = f.readline().rstrip("\n")
        if header != ",".join(CSV_HEADER):
            raise ValueError(f"{path}: unexpected CSV header {header!r}, "
                             f"expected {','.join(CSV_HEADER)!r}")
        # a line's code is its place among the distinct lines in first-seen order
        code = collections.defaultdict()
        code.default_factory = code.__len__
        codes = np.fromiter(map(code.__getitem__, f), np.int64)
    if "\n" in code:  # an empty line is no row
        empty = code.pop("\n")
        codes = codes[codes != empty]
        codes -= codes > empty
    if all(map(str.isspace, code)):
        raise ValueError(f"{path}: no trial rows")
    # once every row has five fields, a row ending in a comma has a blank lambda_id
    any_blank = any(map(str.endswith, code, itertools.repeat((",\n", ","))))
    how = dict(dtype=[("a_deg", "f8"), ("b_deg", "f8"), ("alpha", "i8"), ("beta", "i8"),
                      ("lambda_id", "S1" if any_blank else "i8")],
               delimiter=",", comments=None, ndmin=1)
    try:
        rows = np.loadtxt(code.keys(), **how)
    except ValueError:
        try:  # numpy's message for the whole file names the file's row
            np.loadtxt(path, skiprows=1, **how)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        raise
    blank = np.count_nonzero((rows["lambda_id"] == b"")[codes]) if any_blank else 0
    if 0 < blank < len(codes):
        raise ValueError(f"{path}: lambda_id is blank on {blank} of {len(codes)} rows; "
                         "it must be given on every row or on none")
    lam = None if blank else rows["lambda_id"][codes]
    if lam is not None and lam.min() < 0:
        raise ValueError(f"{path}: lambda_id must be >= 0, found {lam.min()}")
    angles, source = meta.get("settings"), sidecar
    if angles is None:
        angles, source = np.unique(np.concatenate([rows["a_deg"], rows["b_deg"]])).tolist(), path
    elif not (isinstance(angles, list) and all(type(a) in (int, float) for a in angles)):
        raise ValueError(f"{sidecar}: settings must be a list of numbers, got {angles!r}")
    try:
        settings = SettingSet(tuple(angles))
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    a_idx, b_idx, alpha, beta = (_indices(rows[c], allowed, f"{path}: {c}", codes) for c, allowed
                                 in zip(CSV_HEADER, [settings.angles] * 2 + [(0, 1)] * 2))
    return TrialSet(settings, a_idx, b_idx, alpha, beta, lam, meta)
