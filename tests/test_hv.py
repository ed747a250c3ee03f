import math

import numpy as np
import pytest

from indlab import hv, ks
from indlab import machine as tm
from indlab import randomness as rl
from indlab import sequences as sq
from indlab.errors import ContractViolationError

FAIR_COIN = hv.load_model(ks.bundled_path("fair_coin_counter.json"))
PARITY4 = hv.load_model(ks.bundled_path("parity4.json"))


class TestSpacesAndModels:
    def test_discrete_labels_default(self):
        space = hv.HVSpace("discrete", 3)
        assert space.labels == (0, 1, 2)

    def test_interval_midpoints(self):
        space = hv.HVSpace("interval_discretized", 4, interval=(0.0, 1.0))
        assert space.labels == (0.125, 0.375, 0.625, 0.875)

    def test_needs_a_state(self):
        with pytest.raises(ValueError):
            hv.HVSpace("discrete", 0)

    def test_outcome_map_must_be_total(self):
        with pytest.raises(ValueError, match="total"):
            hv.HVModel(hv.HVSpace("discrete", 3), (0, 1), (0.5, 0.25, 0.25))

    def test_mu_must_normalize(self):
        with pytest.raises(ValueError, match="sums to"):
            hv.HVModel(hv.HVSpace("discrete", 2), (0, 1), (0.5, 0.6))

    @pytest.mark.parametrize("mu", [(math.nan, 1.0), (math.inf, 1.0)])
    def test_mu_must_be_finite(self, mu):
        with pytest.raises(ValueError, match="non-finite"):
            hv.HVModel(hv.HVSpace("discrete", 2), (0, 1), mu)

    @pytest.mark.parametrize("filename,model", [
        ("fair_coin_counter.json", hv.HVModel(
            hv.HVSpace("discrete", 2), (0, 1), (0.5, 0.5), "fair-coin-counter", (0.5, 0.5))),
        ("parity4.json", hv.HVModel(
            hv.HVSpace("discrete", 4), (0, 1, 0, 1), (0.25,) * 4, "parity-4", (0.5, 0.5))),
    ])
    def test_bundled_model_files(self, filename, model):
        with open(ks.bundled_path(filename)) as f:
            assert f.read() == hv.model_to_json(model) + "\n"
        assert hv.load_model(ks.bundled_path(filename)) == model

    def test_pushforward_and_compatibility(self):
        model = PARITY4
        assert model.pushforward() == (0.5, 0.5)
        assert model.compatible()
        bad = hv.HVModel(
            hv.HVSpace("discrete", 2), (0, 1), (0.6, 0.4), target=(0.5, 0.5)
        )
        assert not bad.compatible()

    def test_description_bits_positive_and_stable(self):
        model = FAIR_COIN
        assert model.description_bits == 8 * len(hv.model_to_json(model).encode())


class TestMeasures:
    def test_bohm_uniform(self):
        assert hv.bohm_measure([0.5, 0.5, 0.5, 0.5], 1.0) == (0.25, 0.25, 0.25, 0.25)

    def test_bohm_point_mass(self):
        probs = hv.bohm_measure([0.0, 0.0, 1.0], 1.0)
        assert probs == (0.0, 0.0, 1.0)

    def test_bohm_two_bins(self):
        amp = 1 / math.sqrt(5)
        assert hv.bohm_measure([amp, 2 * amp], 1.0) == pytest.approx((0.2, 0.8))

    def test_bohm_unnormalized_reports_norm(self):
        with pytest.raises(ValueError, match="0.5"):
            hv.bohm_measure([0.5, 0.5], 1.0)

    def test_thooft_fair(self):
        r = hv.thooft_measure([1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert r == pytest.approx((0.5, 0.5))

    def test_thooft_point(self):
        assert hv.thooft_measure([1.0, 0.0]) == (1.0, 0.0)

    def test_thooft_complex(self):
        assert hv.thooft_measure([0.6, 0.8j]) == pytest.approx((0.36, 0.64))

    def test_thooft_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            hv.thooft_measure([1.0, 1.0])


class TestRunModel:
    def test_identity_alternating(self):
        model = FAIR_COIN
        x = hv.run_model(model, hv.Sampler.alternating(), 8)
        assert x.to_text() == "01010101"

    def test_parity_counter(self):
        x = hv.run_model(PARITY4, hv.Sampler.counter(), 8)
        assert x.to_text() == "01010101"

    def test_constant_sampler(self):
        model = FAIR_COIN
        assert hv.run_model(model, hv.Sampler.constant(1), 5).to_text() == "11111"

    def test_recorded_replay(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        sq.write_sequence_file(path, sq.bits("0110"))
        x = hv.run_model(FAIR_COIN, hv.Sampler.recorded(path), 4)
        assert x.to_text() == "0110"

    def test_out_of_space_state_rejected(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        sq.write_sequence_file(path, sq.SymbolString(4, (0, 3)))
        with pytest.raises(ContractViolationError, match="outside the space"):
            hv.run_model(FAIR_COIN, hv.Sampler.recorded(path), 2)

    def test_machine_program_sampler(self):
        program = tm.prog_periodic((1, 0), 64)
        x = hv.run_model(
            FAIR_COIN, hv.Sampler.machine_program(program), 6
        )
        assert x.to_text() == "101010"

    def test_uncapped_machine_program_fills_states(self):
        # OUT1 OUT0 JMP -3 never halts: the sampler reads its output
        program = tm.concat(tm.asm_out(1), tm.asm_out(0), tm.asm_jmp(-3))
        x = hv.run_model(
            FAIR_COIN, hv.Sampler.machine_program(program), 64
        )
        assert x.to_text() == "10" * 32

    def test_machine_program_needs_two_states(self):
        model = PARITY4
        with pytest.raises(ContractViolationError, match="2-state"):
            hv.run_model(model, hv.Sampler.machine_program(tm.prog_halt()), 2)

    def test_factorization_replay(self):
        # x equals the pointwise composition g(h(i))
        model = PARITY4
        sampler = hv.Sampler.counter()
        x = hv.run_model(model, sampler, 100)
        lam = sampler.states(model, 100)
        assert all(x[i] == model.g(int(lam[i])) for i in range(100))


class TestScenarioOne:
    def test_counter_model_flagged_at_10k(self):
        rep = hv.scenario_one_audit(
            FAIR_COIN, hv.Sampler.counter(), [100, 1000, 10_000]
        )
        final = rep.checkpoints[-1]
        assert final["margin"] <= -9000
        assert rep.flagged
        assert rep.pushforward_ok

    def test_witness_bound_inside_stated_bound(self):
        rep = hv.scenario_one_audit(
            PARITY4, hv.Sampler.counter(), [64, 512, 4096]
        )
        for point in rep.checkpoints:
            assert point["k_upper"] <= point["stated_bound"]

    @pytest.mark.parametrize("margins,flagged", [
        ([-64], False),
        ([-65], True),
        ([-65, 10], True),
    ], ids=["at-minus-c", "below-minus-c", "early-checkpoint-below"])
    def test_flag_is_the_incompressibility_rule(self, margins, flagged, monkeypatch):
        def fixed_margins(x, checkpoints):
            return [rl.MarginPoint(n, n + m, m, "literal_encoding")
                    for n, m in zip(checkpoints, margins)]

        monkeypatch.setattr(hv, "levin_chaitin_margin", fixed_margins)
        checkpoints = [100 * (i + 1) for i in range(len(margins))]
        rep = hv.scenario_one_audit(FAIR_COIN, hv.Sampler.counter(), checkpoints)
        assert [p["margin"] for p in rep.checkpoints] == margins
        assert rep.flagged == flagged
        assert rep.to_dict()["flag_threshold_bits"] == -64

    def test_flag_withheld_at_small_n(self):
        rep = hv.scenario_one_audit(FAIR_COIN, hv.Sampler.counter(), [8])
        assert rep.checkpoints[-1]["margin"] > rep.flag_threshold
        assert not rep.flagged

    def test_refuses_nondeterministic_sampler(self):
        with pytest.raises(ValueError, match="deterministic_computable"):
            hv.scenario_one_audit(
                FAIR_COIN, hv.Sampler.prng(1), [100]
            )

    def test_binary_outcomes_only(self):
        model = hv.HVModel(
            hv.HVSpace("discrete", 3), (0, 1, 2), (1 / 3, 1 / 3, 1 / 3)
        )
        with pytest.raises(ValueError, match="binary"):
            hv.scenario_one_audit(model, hv.Sampler.counter(), [100])


class TestScenarioTwo:
    def test_fair_prng_passes(self):
        rep = hv.scenario_two_audit(
            FAIR_COIN, hv.Sampler.prng(7), 100_000
        )
        assert rep.fair
        assert "external" in rep.randomness_origin

    def test_biased_prng_fails(self):
        rep = hv.scenario_two_audit(
            FAIR_COIN, hv.Sampler.prng(7, probs=[0.6, 0.4]), 100_000
        )
        assert not rep.fair

    def test_point_mass_passes_trivially(self):
        model = hv.HVModel(
            hv.HVSpace("discrete", 2), (0, 1), (1.0, 0.0), target=(1.0, 0.0)
        )
        rep = hv.scenario_two_audit(model, hv.Sampler.prng(3), 10_000)
        assert rep.fair

    def test_minimum_n(self):
        with pytest.raises(ValueError, match="10000"):
            hv.scenario_two_audit(FAIR_COIN, hv.Sampler.prng(1), 100)

    def test_deterministic_sampler_rejected(self):
        with pytest.raises(ValueError, match="sampling h"):
            hv.scenario_two_audit(
                FAIR_COIN, hv.Sampler.counter(), 10_000
            )

    def test_os_entropy_accepted(self):
        rep = hv.scenario_two_audit(
            FAIR_COIN, hv.Sampler.os_entropy(), 10_000
        )
        assert "operating-system entropy" in rep.randomness_origin


class TestModelFiles:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "m.json")
        model = PARITY4
        hv.save_model(path, model)
        back = hv.load_model(path)
        assert back == model

    def test_named_rules(self):
        text = (
            '{"schema": "hv/v1", "space": {"kind": "discrete", "size": 4}, '
            '"g": {"rule": "parity"}, "mu": [0.25, 0.25, 0.25, 0.25]}'
        )
        model = hv.model_from_json(text)
        assert model.outcome_map == (0, 1, 0, 1)
        identity = hv.model_from_json(text.replace("parity", "identity"))
        assert identity.outcome_map == (0, 1, 2, 3)

    def test_schema_checked(self):
        with pytest.raises(ValueError, match="hv/v1"):
            hv.model_from_json('{"schema": "bogus"}')


class TestSamplerContracts:
    def test_prng_reproducible(self):
        model = FAIR_COIN
        a = hv.Sampler.prng(5).states(model, 100)
        b = hv.Sampler.prng(5).states(model, 100)
        assert (a == b).all()

    def test_entropy_not_reproducible(self):
        model = FAIR_COIN
        a = hv.Sampler.os_entropy().states(model, 64)
        b = hv.Sampler.os_entropy().states(model, 64)
        assert (a != b).any()

    @pytest.mark.parametrize("size", [3, 256])
    def test_entropy_states_cover_the_space(self, size):
        g = tuple(i % 2 for i in range(size))
        model = hv.HVModel(hv.HVSpace("discrete", size), g, (1 / size,) * size)
        lam = hv.Sampler.os_entropy().states(model, 4096)
        assert lam.dtype == np.int64 and len(lam) == 4096
        assert 0 <= lam.min() and lam.max() < size and len(set(lam.tolist())) > size // 2

    def test_entropy_rejects_spaces_above_256_states(self):
        g = tuple(i % 2 for i in range(300))
        model = hv.HVModel(hv.HVSpace("discrete", 300), g, (1 / 300,) * 300)
        with pytest.raises(ValueError, match="up to 256 symbols"):
            hv.Sampler.os_entropy().states(model, 10)

    def test_describe_hides_program_bits(self):
        s = hv.Sampler.machine_program(tm.prog_halt())
        assert s.describe() == {"kind": "deterministic_computable", "program_bits": 4}

    def test_unknown_kind_and_rule(self):
        with pytest.raises(ValueError):
            hv.Sampler("telepathy")
        with pytest.raises(ValueError):
            hv.Sampler("deterministic_computable", rule="oracle")
