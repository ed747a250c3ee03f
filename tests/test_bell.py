import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indlab import bell

from builders import strategy_value

RNG = np.random.Generator(np.random.Philox(key=[77, 0]))


def named_settings(functional):
    """The angles the functional's terms name, in first-named order."""
    return bell.SettingSet(tuple(dict.fromkeys(x for _, a, b in functional.terms
                                               for x in (a, b))))


def local_bound_enumerate_all(settings, functional):
    """Plain double enumeration over every (L, R) pair; the oracle for the
    factored search.  Returns (maximum over admissible strategies,
    strategies examined)."""
    s = len(settings)
    if s > 8:
        raise ValueError("oracle enumeration limited to 8 settings")
    best = None
    count = 0
    for l_bits in iter_product((0, 1), repeat=s):
        for r_bits in iter_product((0, 1), repeat=s):
            count += 1
            if functional.perfect_correlation and l_bits != r_bits:
                continue
            strategy = bell.LocalDeterministicStrategy(l_bits, r_bits)
            v = strategy_value(strategy, functional, settings)
            if best is None or v > best:
                best = v
    return best, count


class TestQuantumMismatch:
    def test_equal_settings(self):
        assert bell.quantum_mismatch(0, 0) == 0.0
        assert bell.quantum_mismatch(42.5, 42.5) == 0.0

    def test_thirty_degrees(self):
        assert bell.quantum_mismatch(0, 30) == pytest.approx(0.25)

    def test_ninety_degrees(self):
        assert bell.quantum_mismatch(0, 90) == pytest.approx(1.0)


class TestSettings:
    def test_needs_two_distinct(self):
        with pytest.raises(ValueError):
            bell.SettingSet((10.0, 10.0))

    def test_default(self):
        assert bell.DEFAULT_SETTINGS.angles == (0.0, 30.0, 60.0)

    @pytest.mark.parametrize("angles", [(0, 0, 30), (0.0, 30.0, 30)])
    def test_repeated_angle_rejected(self, angles):
        with pytest.raises(ValueError, match="repeat"):
            bell.SettingSet(angles)

    def test_index_names_a_missing_angle(self):
        with pytest.raises(ValueError, match="angle 45 is not among the settings"):
            bell.DEFAULT_SETTINGS.index(45)


class TestLocalBound:
    def test_default_functional_bound_zero(self):
        assert bell.local_bound(bell.default_functional()) == Fraction(0)

    def test_oracle_agreement_default(self):
        f = bell.default_functional()
        oracle, examined = local_bound_enumerate_all(named_settings(f), f)
        assert oracle == Fraction(0)
        assert examined == 64

    def test_unconstrained_pairs_reach_one(self):
        # without the perfect-correlation constraint the same three terms
        # are beaten by mismatched wings; kept as a regression anchor
        f = bell.MismatchFunctional(bell.default_functional().terms, "raw")
        assert bell.local_bound(f) == Fraction(1)
        assert local_bound_enumerate_all(named_settings(f), f)[0] == 1

    def test_single_term_maximum_one(self):
        f = bell.MismatchFunctional(((Fraction(1), 0.0, 30.0),))
        assert bell.local_bound(f) == Fraction(1)

    @pytest.mark.parametrize("pc,bound", [(False, 1), (True, 0)], ids=["free", "perfect"])
    def test_one_angle(self, pc, bound):
        # P(L != R | 0, 0): the oracle needs a second angle, which no term names
        f = bell.MismatchFunctional(((Fraction(1), 0.0, 0.0),), perfect_correlation=pc)
        assert bell.local_bound(f) == bound
        assert local_bound_enumerate_all(bell.SettingSet((0.0, 1.5)), f)[0] == bound

    def test_non_finite_angle_rejected(self):
        f = bell.MismatchFunctional(((Fraction(1), math.nan, 0.0),))
        with pytest.raises(ValueError, match="settings must be finite angles"):
            bell.local_bound(f)

    def test_all_zero_coefficients(self):
        f = bell.MismatchFunctional(((Fraction(0), 0.0, 30.0),))
        assert bell.local_bound(f) == Fraction(0)
        assert f.degenerate

    def test_factored_matches_oracle_random_functionals(self):
        # terms over 2 to 6 angles; the oracle also gets the angles with one
        # more that no term names, which must leave the maximum unchanged
        for trial in range(100):
            pool = [float(a) for a in RNG.choice(180, int(RNG.integers(2, 7)), replace=False)]
            terms = ((Fraction(int(RNG.integers(1, 4)), int(RNG.integers(1, 4))),
                      pool[0], pool[1]),) + tuple(
                (
                    Fraction(int(RNG.integers(-3, 4)), int(RNG.integers(1, 4))),
                    pool[RNG.integers(0, len(pool))],
                    pool[RNG.integers(0, len(pool))],
                )
                for _ in range(int(RNG.integers(0, 6)))
            )
            for pc in (False, True):
                f = bell.MismatchFunctional(terms, perfect_correlation=pc)
                named = named_settings(f).angles
                superset = bell.SettingSet(named + (max(named) + 1.5,))
                bound = bell.local_bound(f)
                assert bound == local_bound_enumerate_all(named_settings(f), f)[0]
                assert bound == local_bound_enumerate_all(superset, f)[0]

    def test_capacity(self):
        # 16 terms over 17 angles
        f = bell.MismatchFunctional(tuple((Fraction(1), float(i), float(i + 1))
                                          for i in range(16)))
        with pytest.raises(ValueError, match="17 settings exceeds the 16-setting cap"):
            bell.local_bound(f)

    def test_mixture_closure(self):
        # random mixtures of admissible strategies never beat the bound
        f = bell.default_functional()
        settings = named_settings(f)
        bound = bell.local_bound(f)
        strategies = [
            bell.LocalDeterministicStrategy(resp, resp)
            for resp in ((0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))
        ]
        for _ in range(50):
            w = RNG.random(len(strategies))
            w /= w.sum()
            value = sum(
                wi * float(strategy_value(s, f, settings)) for wi, s in zip(w, strategies)
            )
            assert value <= float(bound) + 1e-12


class TestQuantumValue:
    def test_default_is_quarter(self):
        assert bell.quantum_value(bell.default_functional()) == pytest.approx(0.25, abs=1e-15)

    def test_equal_settings_everywhere(self):
        f = bell.MismatchFunctional(((Fraction(1), 10.0, 10.0), (Fraction(2), 0.0, 0.0)))
        assert bell.quantum_value(f) == 0.0

    def test_single_ninety(self):
        f = bell.MismatchFunctional(((Fraction(1), 0.0, 90.0),))
        assert bell.quantum_value(f) == pytest.approx(1.0)

    def test_chsh(self):
        f = bell.chsh_functional()
        assert bell.quantum_value(f) == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
        assert bell.local_bound(f) == Fraction(0)


class TestRunBipartite:
    def test_equal_settings_perfectly_correlated(self):
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 90_000, seed=3)
        for i in range(3):
            assert np.count_nonzero((tr.a_idx == i) & (tr.b_idx == i)) > 9000
        assert bell.perfect_correlation_violations(tr) == 0

    def test_mismatch_frequency_six_sigma(self):
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 9 * 10**5, seed=11)
        at = (tr.a_idx == 0) & (tr.b_idx == 1)  # the pair (0, 30)
        n = np.count_nonzero(at)
        freq = float(np.mean(tr.alpha[at] != tr.beta[at]))
        assert abs(freq - 0.25) <= 6 * math.sqrt(0.25 * 0.75 / n)

    def test_marginals_uniform(self):
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 10**5, seed=5)
        for outcomes in (tr.alpha, tr.beta):
            assert abs(float(np.mean(outcomes)) - 0.5) <= 0.01

    def test_hv_single_strategy_table_values(self):
        strat = bell.LocalDeterministicStrategy((0, 1, 0), (1, 1, 0))
        tr = bell.run_bipartite(
            "hv", bell.DEFAULT_SETTINGS, 5, seed=1, hv_ensemble=[(1.0, strat)]
        )
        assert len(tr) == 5
        assert (tr.alpha == np.asarray(strat.response_l)[tr.a_idx]).all()
        assert (tr.beta == np.asarray(strat.response_r)[tr.b_idx]).all()
        assert (tr.lam == 0).all()

    def test_reproducible_per_seed(self):
        a = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 1000, seed=8)
        b = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 1000, seed=8)
        assert (a.alpha == b.alpha).all() and (a.b_idx == b.b_idx).all()

    def test_needs_trials(self):
        with pytest.raises(ValueError):
            bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 0, seed=1)

    def test_ensemble_weights_checked(self):
        strat = bell.LocalDeterministicStrategy((0, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError, match="ensemble weights must be finite, non-negative"):
            bell.run_bipartite(
                "hv", bell.DEFAULT_SETTINGS, 10, seed=1, hv_ensemble=[(0.7, strat)]
            )


    @pytest.mark.parametrize("response", [2, -1, 1.0, True, "1"])
    def test_a_response_other_than_0_or_1_is_rejected(self, response):
        # a response of 2 would run as alpha = 2, into a CSV bell's own loader rejects
        with pytest.raises(ValueError, match=f"strategy response {response!r} is not 0 or 1"):
            bell.LocalDeterministicStrategy((0, response, 1), (0, 1, 1))
        with pytest.raises(ValueError, match=f"response {response!r} is not 0 or 1"):
            bell.LocalDeterministicStrategy((0, 1, 1), (response, 1, 1))

    @pytest.mark.parametrize("responses", [
        [((0, 1), (0, 1))],  # fewer responses than settings
        [((0, 1, 0, 1), (0, 1, 0, 1))],  # more: the extra ones would go unread
        [((0, 1, 0), (0, 1, 0)), ((0, 1), (0, 1))],  # a ragged ensemble
        [((0, 1, 0), (0, 1))],  # the wings disagree
    ], ids=["fewer", "more", "ragged", "uneven-wings"])
    def test_a_strategy_must_answer_each_setting_once(self, responses):
        ensemble = [(1 / len(responses), bell.LocalDeterministicStrategy(left, right))
                    for left, right in responses]
        left, right = responses[-1]
        with pytest.raises(ValueError, match=re.escape(
                f"LocalDeterministicStrategy(response_l={left}, response_r={right}) "
                "does not give one response per setting of 3")):
            bell.run_bipartite("hv", bell.DEFAULT_SETTINGS, 10, seed=1, hv_ensemble=ensemble)


class TestNoSignaling:
    def test_quantum_passes(self):
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 60_000, seed=2)
        ns = bell.no_signaling_check(tr)
        assert ns["alice"]["pass"] and ns["bob"]["pass"]

    def test_signaling_model_fails(self):
        tr = bell.run_bipartite("signaling", bell.DEFAULT_SETTINGS, 60_000, seed=2)
        alice = bell.no_signaling_check(tr)["alice"]
        assert not alice["pass"]
        assert alice["z_score"] > 10

    def test_hv_strategies_pass(self):
        strats = [
            (0.25, bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0))),
            (0.25, bell.LocalDeterministicStrategy((1, 1, 0), (1, 1, 0))),
            (0.5, bell.LocalDeterministicStrategy((0, 0, 1), (0, 0, 1))),
        ]
        tr = bell.run_bipartite(
            "hv", bell.DEFAULT_SETTINGS, 60_000, seed=9, hv_ensemble=strats
        )
        ns = bell.no_signaling_check(tr)
        assert ns["alice"]["pass"] and ns["bob"]["pass"]

    def test_insufficient_trials_names_deficit(self):
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 500, seed=1)
        smallest = np.bincount(tr.a_idx * 3 + tr.b_idx).min()
        assert bell.no_signaling_check(tr) == {"skipped": "need >= 1000 trials per settings "
                                               f"pair; smallest observed count {smallest}"}

    def test_single_settings_pair_skipped_not_passed(self):
        # every trial at (0, 60): no table has two of the other wing's settings
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 12_000, seed=4)
        at = (tr.a_idx == 0) & (tr.b_idx == 2)
        pair = bell.TrialSet(tr.settings, tr.a_idx[at], tr.b_idx[at], tr.alpha[at], tr.beta[at])
        for rep in bell.no_signaling_check(pair).values():
            assert rep["skipped"] and not rep["pass"]
            assert set(rep["parameters"].values()) == {None}


class TestFreeChoice:
    def _ensemble(self):
        return [
            (0.5, bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0))),
            (0.5, bell.LocalDeterministicStrategy((1, 0, 1), (1, 0, 1))),
        ]

    def _superdeterministic(self, n, seed):
        """An hv run whose settings are functions of lambda, not free draws:
        a = lambda mod 3, b = (lambda div 3) mod 3."""
        ensemble = self._ensemble()
        tr = bell.run_bipartite("hv", bell.DEFAULT_SETTINGS, n, seed=seed, hv_ensemble=ensemble)
        a_idx, b_idx = tr.lam % 3, (tr.lam // 3) % 3
        alpha = np.asarray([st.response_l for _, st in ensemble])[tr.lam, a_idx]
        beta = np.asarray([st.response_r for _, st in ensemble])[tr.lam, b_idx]
        return bell.TrialSet(tr.settings, a_idx, b_idx, alpha, beta, tr.lam, tr.metadata)

    def test_independent_samplers_pass(self):
        tr = bell.run_bipartite(
            "hv", bell.DEFAULT_SETTINGS, 30_000, seed=4, hv_ensemble=self._ensemble()
        )
        rep = bell.free_choice_check(tr)
        assert rep["pass"] and not rep["skipped"]

    def test_superdeterministic_wiring_fails(self):
        rep = bell.free_choice_check(self._superdeterministic(30_000, seed=4))
        assert not rep["pass"] and not rep["skipped"]

    def test_single_setting_skipped_not_passed(self):
        # one setting pair and one hidden state: every table is degenerate
        zeros = np.zeros(2000, dtype=np.int64)
        tr = bell.TrialSet(bell.DEFAULT_SETTINGS, zeros, zeros, zeros, zeros, zeros)
        rep = bell.free_choice_check(tr)
        assert rep["skipped"]
        assert not rep["pass"]

    def test_short_run_skipped_not_judged(self):
        tr = bell.run_bipartite("hv", bell.DEFAULT_SETTINGS, 999, seed=4,
                                hv_ensemble=self._ensemble())
        assert bell.free_choice_check(tr) == {"skipped": "need >= 1000 trials, got 999"}

    def test_needs_lambda(self):
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 2000, seed=1)
        with pytest.raises(ValueError, match="lambda"):
            bell.free_choice_check(tr)

    def test_large_lambda_ids_give_the_same_report(self):
        tr = self._superdeterministic(30_000, seed=4)
        far = bell.TrialSet(tr.settings, tr.a_idx, tr.b_idx, tr.alpha, tr.beta,
                            tr.lam * 10**6, tr.metadata)
        assert set(far.lam.tolist()) == {0, 10**6}
        assert bell.free_choice_check(far) == bell.free_choice_check(tr)


def scipy_chi2_z(table: np.ndarray) -> tuple[float, bool]:
    """The chi-square z as computed with scipy.stats, the reference for bell._chi2_z."""
    stats = pytest.importorskip("scipy.stats")
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return 0.0, True
    _, p, _, _ = stats.chi2_contingency(table)
    return float(max(0.0, stats.norm.isf(max(p, 1e-300)))), False


def chi2_grid() -> list[np.ndarray]:
    """Seeded contingency tables: 2x2 (Yates), r x c up to 16 x 40 at counts
    up to 1e5, dependent tables with p below 1e-300, tables with empty rows
    or columns, and degenerate ones."""
    rng = np.random.Generator(np.random.Philox(key=[2003, 3554]))
    tables = []
    for i in range(600):
        r, c = (2, 2) if i % 3 == 0 else (int(rng.integers(2, 17)), int(rng.integers(2, 41)))
        mean = 10 ** rng.uniform(0, 5) * rng.dirichlet(np.ones(r * c)) * r * c
        tables.append(rng.poisson(mean).reshape(r, c).astype(float))
    for n in (10**3, 10**4, 10**5):
        tables.append(np.array([[n, 1], [1, n]], dtype=float))
        tables.append(n * np.eye(5, 7) + 1)
    for t in tables[:60]:
        padded = np.zeros((t.shape[0] + 1, t.shape[1] + 2))
        padded[1:, 1:-1] = t
        tables.append(padded)
    tables += [np.zeros((3, 3)), np.array([[5.0, 0.0], [7.0, 0.0]]),
               np.array([[4.0, 9.0, 1.0]]), np.array([[0.0, 0.0], [3.0, 8.0]])]
    return tables


def test_chi2_z_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    tables = chi2_grid()
    # tables without zero cells have no empty row or column to drop
    assert sum(stats.chi2_contingency(t)[1] < 1e-300 for t in tables if t.all()) >= 3
    for table in tables:
        z, degenerate = bell._chi2_z(table)
        ref_z, ref_degenerate = scipy_chi2_z(table)
        assert degenerate == ref_degenerate
        assert z == pytest.approx(ref_z, rel=1e-9, abs=0)


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(bell.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, indlab.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


class TestEmpiricalFunctional:
    def test_converges_to_quantum_value(self):
        f = bell.default_functional()
        tr = bell.run_bipartite("quantum", named_settings(f), 3 * 10**5, seed=31)
        est = bell.empirical_functional(tr, f)
        assert abs(est["empirical"] - 0.25) <= est["six_sigma"]

    def test_per_term_fields(self):
        f = bell.default_functional()
        tr = bell.run_bipartite("quantum", named_settings(f), 50_000, seed=13)
        est = bell.empirical_functional(tr, f)
        assert len(est["per_term"]) == 3
        for t in est["per_term"]:
            assert abs(t["mismatch"] - t["quantum"]) <= 6 * t["sigma"]

    def test_all_zero_coefficients_skipped(self):
        # skipped before its angles are looked up: 45 is not among the settings
        f = bell.MismatchFunctional(((Fraction(0), 0.0, 30.0), (Fraction(0), 45.0, 60.0)))
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 2000, seed=13)
        assert bell.empirical_functional(tr, f) == {"skipped": "all coefficients zero"}


class TestPersistence:
    def test_csv_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.csv")
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 500, seed=6)
        bell.save_trials_csv(path, tr)
        back = bell.load_trials_csv(path)
        assert len(back) == 500
        assert back.metadata["model"] == "quantum"
        assert (back.alpha == tr.alpha).all()
        assert (back.a_idx == tr.a_idx).all()

    def test_lambda_column_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.csv")
        strat = bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0))
        tr = bell.run_bipartite(
            "hv", bell.DEFAULT_SETTINGS, 200, seed=6, hv_ensemble=[(1.0, strat)]
        )
        bell.save_trials_csv(path, tr)
        back = bell.load_trials_csv(path)
        assert back.lam is not None and (back.lam == tr.lam).all()

    def test_hv_run_roundtrip_with_lambda(self, tmp_path):
        ensemble = [
            (0.2, bell.LocalDeterministicStrategy((0, 1, 0, 1), (0, 1, 0, 1))),
            (0.5, bell.LocalDeterministicStrategy((1, 1, 0, 0), (1, 0, 0, 1))),
            (0.3, bell.LocalDeterministicStrategy((0, 0, 1, 1), (0, 0, 1, 1))),
        ]
        settings = named_settings(bell.chsh_functional())
        tr = bell.run_bipartite("hv", settings, 5000, seed=12, hv_ensemble=ensemble)
        path = str(tmp_path / "hv.csv")
        bell.save_trials_csv(path, tr)
        back = bell.load_trials_csv(path)
        assert back.settings == settings and back.metadata == tr.metadata
        for column in ("a_idx", "b_idx", "alpha", "beta", "lam"):
            assert (getattr(back, column) == getattr(tr, column)).all(), column
        again = str(tmp_path / "again.csv")
        bell.save_trials_csv(again, back)
        with open(path, "rb") as f, open(again, "rb") as g:
            assert f.read() == g.read()

    @pytest.mark.parametrize("column,value,message", [
        ("alpha", 2, "alpha 2 on trial 1 is outside 0..1"),
        ("beta", -1, "beta -1 on trial 1 is outside 0..1"),
        ("a_idx", 3, "a_idx 3 on trial 1 is outside 0..2"),
        ("b_idx", -1, "b_idx -1 on trial 1 is outside 0..2"),
    ], ids=["alpha", "beta", "a_idx", "b_idx"])
    def test_a_value_the_reader_would_refuse_is_not_written(self, column, value, message,
                                                            tmp_path):
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 50, seed=6)
        getattr(tr, column)[1] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            bell.save_trials_csv(str(tmp_path / "run.csv"), tr)
        assert os.listdir(tmp_path) == []


def reference_save_trials_csv(path, trials):
    """save_trials_csv before it rendered each distinct value once: every
    integer column is cast whole with astype to the widest value's width.
    The oracle for the writer's bytes."""
    def decimal(values):
        width = max(len(str(values.min(initial=0))), len(str(values.max(initial=0))))
        return values.astype(f"S{width}")

    n = len(trials)
    angles = np.array([str(a).encode() for a in trials.settings.angles])
    lam = np.zeros(n, "S1") if trials.lam is None else decimal(trials.lam)
    columns = [angles[trials.a_idx], angles[trials.b_idx],
               decimal(trials.alpha), decimal(trials.beta), lam]
    parts = []
    for col in columns:
        parts += [col.view(np.uint8).reshape(n, col.itemsize), np.full((n, 1), ord(","), np.uint8)]
    parts[-1] = np.tile(np.frombuffer(b"\r\n", np.uint8), (n, 1))
    body = np.concatenate(parts, axis=1).tobytes().replace(b"\0", b"")
    with open(path, "wb") as f:
        f.write(",".join(bell.CSV_HEADER).encode() + b"\r\n" + body)
    with open(path + ".meta.json", "w") as f:
        json.dump(trials.metadata, f, indent=2, sort_keys=True)
        f.write("\n")


def reference_load_trials_csv(path):
    """load_trials_csv before it parsed only the distinct lines: one
    np.loadtxt over the whole body.  The oracle for the reader's columns."""
    def indices(values, allowed):
        allowed = np.asarray(allowed)
        order = np.argsort(allowed)
        found = order[np.minimum(np.searchsorted(allowed, values, sorter=order), len(allowed) - 1)]
        assert (allowed[found] == values).all()
        return found

    meta = {}
    if os.path.exists(path + ".meta.json"):
        with open(path + ".meta.json") as f:
            meta = json.load(f)
    with open(path) as f:
        f.readline()
        body = f.read()
    blank = body.count(",\n") + body.endswith(",")
    dtype = [("a_deg", "f8"), ("b_deg", "f8"), ("alpha", "i8"), ("beta", "i8"),
             ("lambda_id", "S1" if blank else "i8")]
    rows = np.loadtxt(io.StringIO(body), dtype=dtype, delimiter=",", comments=None, ndmin=1)
    assert blank in (0, len(rows))
    angles = meta.get("settings")
    if angles is None:
        angles = np.unique(np.concatenate([rows["a_deg"], rows["b_deg"]])).tolist()
    settings = bell.SettingSet(tuple(angles))
    return bell.TrialSet(settings, indices(rows["a_deg"], settings.angles),
                         indices(rows["b_deg"], settings.angles), indices(rows["alpha"], (0, 1)),
                         indices(rows["beta"], (0, 1)), None if blank else rows["lambda_id"], meta)


def assert_same_trials(got, want):
    assert got.settings == want.settings
    for column in ("a_idx", "b_idx", "alpha", "beta"):
        assert np.array_equal(getattr(got, column), getattr(want, column)), column
    assert (got.lam is None) == (want.lam is None)
    if want.lam is not None:
        assert np.array_equal(got.lam, want.lam)


def assert_io_matches_reference(directory, trials):
    """Writer bytes, sidecar and read-back columns equal the reference
    implementations', with the sidecar and without it."""
    new, ref = os.path.join(directory, "new.csv"), os.path.join(directory, "ref.csv")
    bell.save_trials_csv(new, trials)
    reference_save_trials_csv(ref, trials)
    for suffix in ("", ".meta.json"):
        with open(new + suffix, "rb") as f, open(ref + suffix, "rb") as g:
            assert f.read() == g.read(), suffix
    back = bell.load_trials_csv(new)
    assert_same_trials(back, reference_load_trials_csv(new))
    assert back.metadata == reference_load_trials_csv(new).metadata
    os.remove(new + ".meta.json")
    try:  # settings are now the angles seen, which may be fewer than two
        without = reference_load_trials_csv(new)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            bell.load_trials_csv(new)
    else:
        assert_same_trials(bell.load_trials_csv(new), without)
    return back


def _oracle_trials(case):
    gen = np.random.Generator(np.random.Philox(key=[91, 0]))
    n = 5000
    if case == "quantum":
        return bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 20_000, seed=7)
    if case == "hv":
        ensemble = []
        for w in gen.dirichlet(np.ones(6)):
            responses = tuple(int(x) for x in gen.integers(0, 2, 3))
            ensemble.append((float(w), bell.LocalDeterministicStrategy(responses, responses)))
        return bell.run_bipartite("hv", bell.DEFAULT_SETTINGS, 20_000, seed=7,
                                  hv_ensemble=ensemble)
    if case == "signaling":
        return bell.run_bipartite("signaling", bell.DEFAULT_SETTINGS, n, seed=3)
    if case == "fixed_pair":  # every trial at settings (0, 60)
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, n, seed=4)
        at = (tr.a_idx == 0) & (tr.b_idx == 2)
        return bell.TrialSet(tr.settings, tr.a_idx[at], tr.b_idx[at], tr.alpha[at], tr.beta[at],
                             None, tr.metadata)
    if case == "odd_settings":
        return bell.run_bipartite("quantum", bell.SettingSet((-30.0, 1e-05, 45.5)), n, seed=5)
    columns = [gen.integers(0, 3, n), gen.integers(0, 3, n),
               gen.integers(0, 2, n), gen.integers(0, 2, n)]
    if case == "huge_lambda":
        lam = gen.choice([0, 7, 10**6, 10**12 - 1, 10**12], n)
    else:  # all_distinct: every row has its own lambda_id
        lam = gen.permutation(n) * 1_000_003
    return bell.TrialSet(bell.DEFAULT_SETTINGS, *columns, lam, {"model": case})


@st.composite
def trial_sets(draw):
    """Random TrialSets: 2-5 finite angles, 1-300 trials, and no lambda_id
    or ids in [0, 10^12] drawn from a small pool, so rows repeat."""
    angles = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=2, max_size=5, unique=True))
    n = draw(st.integers(1, 300))
    s = len(angles)
    idx = st.lists(st.integers(0, s - 1), min_size=n, max_size=n)
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    lam = None
    if draw(st.booleans()):
        pool = draw(st.lists(st.integers(0, 10**12), min_size=1, max_size=8))
        lam = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return bell.TrialSet(bell.SettingSet(tuple(angles)), draw(idx), draw(idx), draw(bits),
                         draw(bits), lam, {"settings": angles})


class TestCsvMatchesReference:
    """The distinct-value writer and distinct-line reader against the
    whole-column implementations they replaced."""

    @pytest.mark.parametrize("case", ["quantum", "hv", "signaling", "fixed_pair", "odd_settings",
                                      "huge_lambda", "all_distinct"])
    def test_bytes_and_columns(self, case, tmp_path):
        trials = _oracle_trials(case)
        back = assert_io_matches_reference(str(tmp_path), trials)
        assert_same_trials(back, trials)

    @settings(max_examples=150, deadline=None)
    @given(trial_sets())
    def test_random_trial_sets(self, trials):
        with tempfile.TemporaryDirectory() as d:
            back = assert_io_matches_reference(d, trials)
        assert_same_trials(back, trials)


@pytest.fixture
def hv_rows(tmp_path, monkeypatch):
    """A saved 1,200-trial hv run's header and data lines; writing lines
    back goes to run.csv, which keeps the run's sidecar."""
    monkeypatch.chdir(tmp_path)
    strat = bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0))
    trials = bell.run_bipartite("hv", bell.DEFAULT_SETTINGS, 1200, seed=6,
                                hv_ensemble=[(1.0, strat)])
    bell.save_trials_csv("run.csv", trials)
    with open("run.csv") as f:
        lines = f.read().splitlines()
    return trials, lines


def _write(lines, end="\n"):
    with open("run.csv", "w", newline="") as f:
        f.write(end.join(lines) + end)


class TestCsvLines:
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends_read_alike(self, hv_rows, end):
        trials, lines = hv_rows
        _write(lines, end)
        assert_same_trials(bell.load_trials_csv("run.csv"), trials)

    def test_empty_lines_in_the_body_are_skipped(self, hv_rows):
        trials, lines = hv_rows
        _write(lines[:1] + [""] + lines[1:600] + ["", ""] + lines[600:])
        assert_same_trials(bell.load_trials_csv("run.csv"), trials)

    @pytest.mark.parametrize("body", [[], ["", ""], [" ", "", "\t"]],
                             ids=["header-only", "empty-lines", "whitespace-lines"])
    def test_no_trial_rows(self, hv_rows, body):
        _, lines = hv_rows
        _write(lines[:1] + body)
        with pytest.raises(ValueError, match="run.csv: no trial rows"):
            bell.load_trials_csv("run.csv")

    @pytest.mark.parametrize("line", [" ", "\t"], ids=["space", "tab"])
    def test_whitespace_only_line_names_its_row(self, hv_rows, line):
        _, lines = hv_rows
        _write(lines[:600] + [line] + lines[600:])
        with pytest.raises(ValueError, match="run.csv: .* 1 were found at row 600;"):
            bell.load_trials_csv("run.csv")

    def test_blank_lambda_is_counted_over_rows(self, hv_rows):
        _, lines = hv_rows
        for row in (10, 20, 30):
            lines[row] = "0.0,0.0,0,0,"
        _write(lines)
        with pytest.raises(ValueError, match="lambda_id is blank on 3 of 1200 rows"):
            bell.load_trials_csv("run.csv")

    def test_bad_value_names_the_first_row_that_has_it(self, hv_rows):
        _, lines = hv_rows
        lines[700] = "0.0,30.0,0,1,5"
        lines[800] = lines[900] = "0.0,30.0,1,2,0"
        _write(lines)
        with pytest.raises(ValueError, match="beta 2 on data row 800 is not among"):
            bell.load_trials_csv("run.csv")
