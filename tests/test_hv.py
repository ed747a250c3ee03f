import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from indlab import hv
from indlab import sequences as sq

from builders import bits, save_model
from bundled import bundled_path

FAIR_COIN = hv.load_model(bundled_path("fair_coin_counter.json"))
PARITY4 = hv.load_model(bundled_path("parity4.json"))


def _model_text(**fields) -> str:
    """The hv/v1 text of a four-state parity model with the given fields replaced."""
    return json.dumps({"schema": "hv/v1", "space": {"kind": "discrete", "size": 4},
                       "g": [0, 1, 0, 1], "mu": [0.25] * 4, **fields})


class TestSpacesAndModels:
    def test_an_interval_space_is_refused(self):
        """Position bins are the indices of mu: a space states their number, nothing else."""
        space = {"kind": "interval_discretized", "size": 4, "interval": [-1.0, 1.0]}
        with pytest.raises(ValueError, match=r"^space field 'interval' is not one of kind, size$"):
            hv.model_from_json(_model_text(space=space))
        del space["interval"]
        with pytest.raises(ValueError, match=r"^space kind must be 'discrete', "
                                             r"got 'interval_discretized'$"):
            hv.model_from_json(_model_text(space=space))

    def test_needs_a_state(self):
        with pytest.raises(ValueError, match=r"mu must be finite, .* got \[\]"):
            hv.HVModel((), ())

    def test_outcome_map_must_be_total(self):
        with pytest.raises(ValueError, match="total"):
            hv.HVModel((0, 1), (0.5, 0.25, 0.25))

    @pytest.mark.parametrize("g", [(0, 1.0), (0, True), (0, -1)])
    def test_outcomes_are_non_negative_integers(self, g):
        with pytest.raises(ValueError, match="g entries must be non-negative integers"):
            hv.HVModel(g, (0.5, 0.5))

    def test_mu_must_normalize(self):
        with pytest.raises(ValueError, match="mu must be finite, non-negative and sum to 1"):
            hv.HVModel((0, 1), (0.5, 0.6))

    @pytest.mark.parametrize("mu", [(math.nan, 1.0), (math.inf, 1.0)])
    def test_mu_must_be_finite(self, mu):
        with pytest.raises(ValueError, match="mu must be finite, non-negative and sum to 1"):
            hv.HVModel((0, 1), mu)

    @pytest.mark.parametrize("filename,model", [
        ("fair_coin_counter.json", hv.HVModel(
            (0, 1), (0.5, 0.5), "fair-coin-counter", (0.5, 0.5))),
        ("parity4.json", hv.HVModel((0, 1, 0, 1), (0.25,) * 4, "parity-4", (0.5, 0.5))),
    ])
    def test_bundled_model_files(self, filename, model):
        with open(bundled_path(filename)) as f:
            assert f.read() == hv.model_to_json(model) + "\n"
        assert hv.load_model(bundled_path(filename)) == model

    def test_pushforward_and_compatibility(self):
        model = PARITY4
        assert model.pushforward() == (0.5, 0.5)
        assert model.compatible()
        bad = hv.HVModel((0, 1), (0.6, 0.4), target=(0.5, 0.5))
        assert not bad.compatible()

    def test_description_bits_positive_and_stable(self):
        model = FAIR_COIN
        assert model.description_bits == 8 * len(hv.model_to_json(model).encode())


class TestRunModel:
    def test_identity_alternating(self):
        model = FAIR_COIN
        x = hv.run_model(model, hv.Sampler("alternating"), 8)
        assert x.to_text() == "01010101"

    def test_parity_counter(self):
        x = hv.run_model(PARITY4, hv.Sampler("counter"), 8)
        assert x.to_text() == "01010101"

    def test_constant_sampler(self):
        model = FAIR_COIN
        assert hv.run_model(model, hv.Sampler("constant:1"), 5).to_text() == "11111"

    def test_recorded_replay(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        sq.write_sequence_file(path, bits("0110"))
        x = hv.run_model(FAIR_COIN, hv.Sampler(f"file:{path}"), 4)
        assert x.to_text() == "0110"

    def test_out_of_space_state_rejected(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        sq.write_sequence_file(path, sq.SymbolString(4, (0, 3)))
        with pytest.raises(ValueError, match="outside the space"):
            hv.run_model(FAIR_COIN, hv.Sampler(f"file:{path}"), 2)

    def test_factorization_replay(self):
        # x equals the pointwise composition g(h(i))
        model = PARITY4
        sampler = hv.Sampler("counter")
        x = hv.run_model(model, sampler, 100)
        lam = sampler.states(model, 100)
        assert all(x[i] == model.outcome_map[lam[i]] for i in range(100))


class TestScenarioOne:
    def test_counter_model_flagged_at_10k(self):
        rep = hv.scenario_one_audit(
            FAIR_COIN, hv.Sampler("counter"), [100, 1000, 10_000]
        )
        final = rep["checkpoints"][-1]
        assert final["margin"] <= -9000
        assert rep["incompatible_with_1_randomness"]
        assert rep["pushforward_matches_target"]

    def test_witness_bound_inside_stated_bound(self):
        rep = hv.scenario_one_audit(
            PARITY4, hv.Sampler("counter"), [64, 512, 4096]
        )
        for point in rep["checkpoints"]:
            assert point["k_upper"] <= point["stated_bound"]

    @pytest.mark.parametrize("margins,flagged", [
        ([-64], False),
        ([-65], True),
        ([-65, 10], True),
    ], ids=["at-minus-c", "below-minus-c", "early-checkpoint-below"])
    def test_flag_is_the_incompressibility_rule(self, margins, flagged, monkeypatch):
        checkpoints = [100 * (i + 1) for i in range(len(margins))]
        margin_at = dict(zip(checkpoints, margins))

        def fixed_bound(prefix):
            n = len(prefix)
            return SimpleNamespace(value=n + margin_at[n], method="literal_encoding")

        monkeypatch.setattr(hv, "k_upper_bound", fixed_bound)
        rep = hv.scenario_one_audit(FAIR_COIN, hv.Sampler("counter"), checkpoints)
        assert [p["margin"] for p in rep["checkpoints"]] == margins
        assert rep["incompatible_with_1_randomness"] == flagged
        assert rep["flag_threshold_bits"] == -64

    @pytest.mark.parametrize("checkpoints,message", [
        ([], "need at least one checkpoint"),
        ([10, 5], "checkpoints must be ascending"),
        # a repeat would bound x_|5 twice and report the same row twice
        ([5, 5], "checkpoints must be ascending"),
        # a negative n would slice x from its end
        ([-1, 5], "checkpoints must be >= 0, got [-1, 5]"),
    ], ids=["empty", "descending", "repeated", "negative"])
    def test_checkpoints_refused_before_the_run(self, checkpoints, message, monkeypatch):
        monkeypatch.setattr(hv, "run_model", None)  # refused before the model runs
        with pytest.raises(ValueError, match=re.escape(message)):
            hv.scenario_one_audit(FAIR_COIN, hv.Sampler("counter"), checkpoints)

    def test_flag_withheld_at_small_n(self):
        rep = hv.scenario_one_audit(FAIR_COIN, hv.Sampler("counter"), [8])
        assert rep["checkpoints"][-1]["margin"] > rep["flag_threshold_bits"]
        assert not rep["incompatible_with_1_randomness"]

    def test_refuses_nondeterministic_sampler(self):
        with pytest.raises(ValueError, match="deterministic_computable"):
            hv.scenario_one_audit(
                FAIR_COIN, hv.Sampler("prng", seed=1), [100]
            )

    def test_binary_outcomes_only(self):
        model = hv.HVModel((0, 1, 2), (1 / 3, 1 / 3, 1 / 3))
        with pytest.raises(ValueError, match="binary"):
            hv.scenario_one_audit(model, hv.Sampler("counter"), [100])


class TestScenarioTwo:
    def test_fair_prng_passes(self):
        rep = hv.scenario_two_audit(
            FAIR_COIN, hv.Sampler("prng", seed=7), 100_000
        )
        assert rep["fair"]
        assert "external" in rep["randomness_origin"]

    def test_biased_prng_fails(self):
        rep = hv.scenario_two_audit(
            FAIR_COIN, hv.Sampler("prng", seed=7, probs=[0.6, 0.4]), 100_000
        )
        assert not rep["fair"]

    def test_point_mass_passes_trivially(self):
        model = hv.HVModel((0, 1), (1.0, 0.0), target=(1.0, 0.0))
        rep = hv.scenario_two_audit(model, hv.Sampler("prng", seed=3), 10_000)
        assert rep["fair"]

    def test_minimum_n(self):
        with pytest.raises(ValueError, match="10000"):
            hv.scenario_two_audit(FAIR_COIN, hv.Sampler("prng", seed=1), 100)

    def test_deterministic_sampler_rejected(self):
        with pytest.raises(ValueError, match="sampling h"):
            hv.scenario_two_audit(
                FAIR_COIN, hv.Sampler("counter"), 10_000
            )

    def test_os_entropy_accepted(self):
        rep = hv.scenario_two_audit(
            FAIR_COIN, hv.Sampler("os"), 10_000
        )
        assert "operating-system entropy" in rep["randomness_origin"]


class TestModelFiles:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "m.json")
        model = PARITY4
        save_model(path, model)
        back = hv.load_model(path)
        assert back == model

    def test_a_g_rule_object_is_refused(self):
        """g lists every outcome, as mu lists every state; no rule stands for it."""
        for rule in ("parity", "identity"):
            with pytest.raises(ValueError, match=r"^g must be a list of outcomes, got \{'rule': "):
                hv.model_from_json(_model_text(g={"rule": rule}))

    def test_the_writer_emits_only_what_the_reader_accepts(self):
        """model_to_json of a model with a name and a target writes every field
        model_from_json reads and no other, and a space of kind and size alone."""
        model = hv.HVModel((0, 1, 1), (0.25, 0.25, 0.5), "three", (0.25, 0.75))
        obj = json.loads(hv.model_to_json(model))
        assert set(obj) == set(hv.MODEL_FIELDS)
        assert obj["space"] == {"kind": "discrete", "size": 3}
        assert set(obj["space"]) == set(hv.SPACE_FIELDS)
        assert hv.model_from_json(hv.model_to_json(model)) == model
        obj["targt"] = obj["target"]
        with pytest.raises(ValueError, match="hv model field 'targt' is not one of schema, "
                                             "name, space, g, mu, target"):
            hv.model_from_json(json.dumps(obj))

    def test_schema_checked(self):
        with pytest.raises(ValueError, match="hv/v1"):
            hv.model_from_json('{"schema": "bogus"}')

    @pytest.mark.parametrize("size", [10 ** 6, 10 ** 12])
    def test_mu_is_checked_before_a_g_rule_is_expanded(self, size):
        """A size that mu does not cover is refused before g is read, so
        nothing of that size is ever allocated."""
        text = ('{"schema": "hv/v1", "space": {"kind": "discrete", "size": %d}, '
                '"g": {"rule": "identity"}, "mu": [1.0]}' % size)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="mu must cover the hidden space"):
                hv.model_from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSamplerContracts:
    def test_prng_reproducible(self):
        model = FAIR_COIN
        a = hv.Sampler("prng", seed=5).states(model, 100)
        b = hv.Sampler("prng", seed=5).states(model, 100)
        assert (a == b).all()

    def test_entropy_not_reproducible(self):
        model = FAIR_COIN
        a = hv.Sampler("os").states(model, 64)
        b = hv.Sampler("os").states(model, 64)
        assert (a != b).any()

    @pytest.mark.parametrize("size", [3, 256])
    def test_entropy_states_cover_the_space(self, size):
        g = tuple(i % 2 for i in range(size))
        model = hv.HVModel(g, (1 / size,) * size)
        lam = hv.Sampler("os").states(model, 4096)
        assert lam.dtype == np.int64 and len(lam) == 4096
        assert 0 <= lam.min() and lam.max() < size and len(set(lam.tolist())) > size // 2

    def test_entropy_rejects_spaces_above_256_states(self):
        g = tuple(i % 2 for i in range(300))
        model = hv.HVModel(g, (1 / 300,) * 300)
        with pytest.raises(ValueError, match="os supports alphabets up to 256 symbols, got 300"):
            hv.Sampler("os").states(model, 10)

    def test_describe_is_kind_and_params(self):
        assert hv.Sampler("constant:1").describe() == {
            "kind": "deterministic_computable", "rule": "constant", "value": 1}
        assert hv.Sampler("constant").describe()["value"] == 0
        assert hv.Sampler("prng", seed=3).describe() == {
            "kind": "seeded_prng", "seed": 3, "probs": None}
        assert hv.Sampler("os").describe() == {"kind": "external_entropy"}
        assert hv.Sampler("file:a:b.seq").describe() == {"kind": "recorded_file",
                                                         "path": "a:b.seq"}

    @pytest.mark.parametrize("rule", ["counter", "alternating"])
    def test_only_the_constant_rule_reads_value(self, rule):
        with pytest.raises(ValueError, match=f"unknown sampler '{rule}:5'"):
            hv.Sampler(f"{rule}:5")
        assert hv.Sampler("constant:5").describe() == {
            "kind": "deterministic_computable", "rule": "constant", "value": 5}

    def test_unknown_kind_and_rule(self):
        for spec in ("telepathy", "constant5", "file:", "prng:1", "os:1", ""):
            with pytest.raises(ValueError, match=f"unknown sampler '{spec}'"):
                hv.Sampler(spec)
        with pytest.raises(ValueError, match="bad state '1:2' in 'constant:1:2'"):
            hv.Sampler("constant:1:2")

    def test_prng_needs_a_seed(self):
        with pytest.raises(ValueError, match="sampler 'prng' needs a seed"):
            hv.Sampler("prng", probs=[0.5, 0.5])

    @pytest.mark.parametrize("kind,params,keyword", [
        ("seeded_prng", {"spec": "prng", "seed": 1, "probz": [0.9, 0.1]}, "probz"),
        ("external_entropy", {"spec": "os", "seed": 1}, "seed"),
        ("deterministic_computable", {"spec": "counter", "probs": [0.5, 0.5]}, "probs"),
        ("deterministic_computable", {"spec": "constant:1", "program": (0, 0, 0, 0)}, "program"),
        ("recorded_file", {"spec": "file:x.seq", "value": 0}, "value"),
    ])
    def test_a_keyword_the_kind_does_not_read_is_rejected(self, kind, params, keyword):
        # seed and probs are rejected by Sampler, any other keyword by Python
        with pytest.raises((TypeError, ValueError), match=f"'{keyword}'"):
            hv.Sampler(**params)
        read = {k: v for k, v in params.items() if k != keyword}
        assert hv.Sampler(**read).kind == kind
