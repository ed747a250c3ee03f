import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from indlab import bell
from indlab.errors import CapacityError

RNG = np.random.Generator(np.random.Philox(key=[77, 0]))


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


class TestLocalBound:
    def test_default_functional_bound_zero(self):
        f = bell.default_functional()
        bound, witness = bell.local_bound_bruteforce(f.settings(), f)
        assert bound == Fraction(0)
        assert witness.value(f, f.settings()) == bound

    def test_oracle_agreement_default(self):
        f = bell.default_functional()
        oracle, examined = bell.local_bound_enumerate_all(f.settings(), f)
        assert oracle == Fraction(0)
        assert examined == 64

    def test_unconstrained_pairs_reach_one(self):
        # without the perfect-correlation constraint the same three terms
        # are beaten by mismatched wings; kept as a regression anchor
        f = bell.MismatchFunctional(bell.default_functional().terms, "raw")
        bound, witness = bell.local_bound_bruteforce(f.settings(), f)
        assert bound == Fraction(1)
        assert witness.value(f, f.settings()) == 1

    def test_single_term_maximum_one(self):
        f = bell.MismatchFunctional(((Fraction(1), 0.0, 30.0),))
        bound, _ = bell.local_bound_bruteforce(bell.SettingSet((0.0, 30.0)), f)
        assert bound == Fraction(1)

    def test_all_zero_coefficients(self):
        f = bell.MismatchFunctional(((Fraction(0), 0.0, 30.0),))
        bound, _ = bell.local_bound_bruteforce(bell.SettingSet((0.0, 30.0)), f)
        assert bound == Fraction(0)
        assert f.degenerate

    def test_factored_matches_oracle_random_functionals(self):
        settings = bell.SettingSet((0.0, 20.0, 45.0, 80.0))
        for trial in range(25):
            terms = tuple(
                (
                    Fraction(int(RNG.integers(-3, 4)), int(RNG.integers(1, 4))),
                    float(settings.angles[RNG.integers(0, 4)]),
                    float(settings.angles[RNG.integers(0, 4)]),
                )
                for _ in range(int(RNG.integers(1, 6)))
            )
            for pc in (False, True):
                f = bell.MismatchFunctional(terms, perfect_correlation=pc)
                fast, _ = bell.local_bound_bruteforce(settings, f)
                slow, _ = bell.local_bound_enumerate_all(settings, f)
                assert fast == slow

    def test_capacity(self):
        settings = bell.SettingSet(tuple(float(i) for i in range(17)))
        f = bell.MismatchFunctional(((Fraction(1), 0.0, 1.0),))
        with pytest.raises(CapacityError):
            bell.local_bound_bruteforce(settings, f)

    def test_mixture_closure(self):
        # random mixtures of admissible strategies never beat the bound
        f = bell.default_functional()
        settings = f.settings()
        bound, _ = bell.local_bound_bruteforce(settings, f)
        strategies = [
            bell.LocalDeterministicStrategy(resp, resp)
            for resp in ((0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))
        ]
        for _ in range(50):
            w = RNG.random(len(strategies))
            w /= w.sum()
            value = sum(
                wi * float(s.value(f, settings)) for wi, s in zip(w, strategies)
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
        bound, _ = bell.local_bound_bruteforce(f.settings(), f)
        assert bound == Fraction(0)


class TestRunBipartite:
    def test_equal_settings_perfectly_correlated(self):
        for angle in (0.0, 30.0, 60.0):
            tr = bell.run_bipartite(
                "quantum", bell.DEFAULT_SETTINGS, 30_000, seed=3,
                fixed_pair=(angle, angle),
            )
            assert bell.perfect_correlation_violations(tr) == 0

    def test_mismatch_frequency_six_sigma(self):
        tr = bell.run_bipartite(
            "quantum", bell.DEFAULT_SETTINGS, 10**5, seed=11, fixed_pair=(0.0, 30.0)
        )
        freq = float(np.mean(tr.alpha != tr.beta))
        assert abs(freq - 0.25) <= 6 * math.sqrt(0.25 * 0.75 / 10**5)

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
        with pytest.raises(ValueError, match="distribution"):
            bell.run_bipartite(
                "hv", bell.DEFAULT_SETTINGS, 10, seed=1, hv_ensemble=[(0.7, strat)]
            )


class TestNoSignaling:
    def test_quantum_passes(self):
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 60_000, seed=2)
        ra, rb = bell.no_signaling_check(tr)
        assert ra.passed and rb.passed

    def test_signaling_model_fails(self):
        tr = bell.run_bipartite("signaling", bell.DEFAULT_SETTINGS, 60_000, seed=2)
        ra, rb = bell.no_signaling_check(tr)
        assert not ra.passed
        assert ra.z_score > 10

    def test_hv_strategies_pass(self):
        strats = [
            (0.25, bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0))),
            (0.25, bell.LocalDeterministicStrategy((1, 1, 0), (1, 1, 0))),
            (0.5, bell.LocalDeterministicStrategy((0, 0, 1), (0, 0, 1))),
        ]
        tr = bell.run_bipartite(
            "hv", bell.DEFAULT_SETTINGS, 60_000, seed=9, hv_ensemble=strats
        )
        ra, rb = bell.no_signaling_check(tr)
        assert ra.passed and rb.passed

    def test_insufficient_trials_names_deficit(self):
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 500, seed=1)
        with pytest.raises(ValueError, match="1000"):
            bell.no_signaling_check(tr)


class TestFreeChoice:
    def _ensemble(self):
        return [
            (0.5, bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0))),
            (0.5, bell.LocalDeterministicStrategy((1, 0, 1), (1, 0, 1))),
        ]

    def test_independent_samplers_pass(self):
        tr = bell.run_bipartite(
            "hv", bell.DEFAULT_SETTINGS, 30_000, seed=4, hv_ensemble=self._ensemble()
        )
        rep = bell.free_choice_check(tr)
        assert rep.passed and not rep.skipped

    def test_superdeterministic_wiring_fails(self):
        tr = bell.run_bipartite(
            "hv", bell.DEFAULT_SETTINGS, 30_000, seed=4,
            hv_ensemble=self._ensemble(), superdeterministic=True,
        )
        rep = bell.free_choice_check(tr)
        assert not rep.passed and not rep.skipped

    def test_single_setting_skipped_not_passed(self):
        tr = bell.run_bipartite(
            "hv", bell.DEFAULT_SETTINGS, 2000, seed=4,
            hv_ensemble=[(1.0, bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0)))],
            fixed_pair=(0.0, 0.0),
        )
        rep = bell.free_choice_check(tr)
        assert rep.skipped
        assert not rep.passed

    def test_needs_lambda(self):
        tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 2000, seed=1)
        with pytest.raises(ValueError, match="lambda"):
            bell.free_choice_check(tr)

    def test_large_lambda_ids_give_the_same_report(self):
        tr = bell.run_bipartite(
            "hv", bell.DEFAULT_SETTINGS, 30_000, seed=4,
            hv_ensemble=self._ensemble(), superdeterministic=True,
        )
        far = bell.TrialSet(tr.settings, tr.a_idx, tr.b_idx, tr.alpha, tr.beta,
                            tr.lam * 10**6, tr.metadata)
        assert set(far.lam.tolist()) == {0, 10**6}
        assert bell.free_choice_check(far).to_dict() == bell.free_choice_check(tr).to_dict()


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
        tr = bell.run_bipartite("quantum", f.settings(), 3 * 10**5, seed=31)
        est = bell.empirical_functional(tr, f)
        assert abs(est.value - 0.25) <= est.six_sigma

    def test_per_term_fields(self):
        f = bell.default_functional()
        tr = bell.run_bipartite("quantum", f.settings(), 50_000, seed=13)
        est = bell.empirical_functional(tr, f)
        assert len(est.per_term) == 3
        for t in est.per_term:
            assert abs(t["mismatch"] - t["quantum"]) <= 6 * t["sigma"]


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
        settings = bell.chsh_functional().settings()
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
