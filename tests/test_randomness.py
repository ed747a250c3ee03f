import itertools
import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indlab import hv
from indlab import machine as tm
from indlab import randomness as rl
from indlab import sequences as sq

from builders import (bits, champernowne_text, count_walks, gamma0_length,
                      unbounded_exact_k_small)
from bundled import bundled_path

# frozen: one canonical enumeration at the acceptance budget
GOLDEN_OMEGA_16_10K = Fraction(11737, 65536)
GOLDEN_OMEGA_16_10K_PROGRAMS = 985
# frozen: exhaustive searches on the bundled machine
GOLDEN_K_EMPTY = 4
GOLDEN_K_ZERO = 8
# bits of prog_champernowne(n) beyond the gamma code of n
CHAMPERNOWNE_PROGRAM_OVERHEAD = len(tm.prog_champernowne(1)) - gamma0_length(1)


def fair_coin(n, seed=11):
    return sq.SequenceSource("born", seed=seed, probs=[0.5, 0.5]).prefix(n)


def text_monkey_search(target, source, horizon):
    """Reference monkey_search: str.find on to_text, commas delimiting beyond base 10."""
    hay = source.prefix(horizon).to_text()
    needle = target.to_text()
    if target.alphabet_size > 10:
        hay = "," + hay + ","
        needle = "," + needle + ","
    positions = []
    at = hay.find(needle)
    while at != -1:
        positions.append(at if target.alphabet_size <= 10 else hay[:at].count(","))
        at = hay.find(needle, at + 1)
    return positions


def kmp_smallest_period(symbols):
    """Reference: smallest p with s[i] == s[i-p] for all i >= p (KMP failure
    function); the Python loop that _smallest_period's single find replaced."""
    n = len(symbols)
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and symbols[i] != symbols[k]:
            k = fail[k - 1]
        if symbols[i] == symbols[k]:
            k += 1
        fail[i] = k
    return n - fail[-1] if n else 1


def half_period(symbols):
    """The reference period where _smallest_period reports one: p <= n // 2."""
    p = kmp_smallest_period(symbols)
    return p if p <= len(symbols) // 2 else None


def reference_k_upper_bound(sigma):
    """Reference (witness, method): every candidate built, the first shortest kept."""
    n = len(sigma)
    syms = tuple(sigma)
    if n == 0:
        return tm.assemble((tm.OP_HALT,)), "generator_encoding"
    candidates = [(tm.prog_literal(syms), "literal_encoding")]
    if all(s == syms[0] for s in syms):
        # 0: HALTAT n | 1: OUT bit | 2: JMP -> 1
        constant = tm.assemble((tm.OP_HALTAT, n), (tm.OP_OUT0 + syms[0],), (tm.OP_JMP, 0, 2))
        candidates.append((constant, "generator_encoding"))
    elif (p := half_period(syms)) is not None:
        candidates.append((tm.prog_periodic(syms[:p], n), "generator_encoding"))
    for start_at_one in (False, True):
        if champernowne_text(2, n, start_at_one) == sigma.to_text():
            candidates.append((tm.prog_champernowne(n, start_at_one), "generator_encoding"))
    return min(candidates, key=lambda c: len(c[0]))


class TestSmallestPeriod:
    def test_every_bit_string_up_to_16(self):
        for n in range(17):
            for bits in itertools.product((0, 1), repeat=n):
                assert rl._smallest_period(bytes(bits)) == half_period(bits), bits

    def test_near_periodic_strings(self):
        # a periodic string with one bit flipped: the period breaks or survives
        rng = random.Random(8)
        for _ in range(2000):
            n = rng.randint(2, 300)
            period = [rng.randint(0, 1) for _ in range(rng.randint(1, n))]
            bits = (period * n)[:n]
            bits[rng.randrange(n)] ^= 1
            assert rl._smallest_period(bytes(bits)) == half_period(bits), bits

    @pytest.mark.parametrize("bits", [
        (0,) * (10**6 - 1) + (1,),
        (0, 1) * (10**6 // 2 - 1) + (0, 0),
    ], ids=["zeros-then-one", "alternating-then-00"])
    def test_million_bit_worst_cases(self, bits):
        assert len(bits) == 10**6
        assert rl._smallest_period(bytes(bits)) == half_period(bits) is None

    def test_periodic_million_bits(self):
        bits = (0, 1, 1, 0, 1) * 200_000
        assert rl._smallest_period(bytes(bits)) == half_period(bits) == 5


class TestKUpperBound:
    def test_every_short_string_matches_the_reference(self):
        # ties included: at n = 8 the constant emitter is as long as the literal
        for n in range(11):
            for bits in itertools.product((0, 1), repeat=n):
                sigma = sq.SymbolString(2, bits)
                est = rl.k_upper_bound(sigma)
                assert (est.witness, est.method) == reference_k_upper_bound(sigma), bits
                assert est.value == len(est.witness)

    @pytest.mark.parametrize("sigma", [
        *(bits(c * n) for c in "01" for n in (7, 8, 9, 64, 1000)),
        *(bits((pattern * 400)[:n]) for pattern in ("01", "011", "0110100")
          for n in (9, 14, 15, 16, 17, 100, 2799)),
        *(sq.champernowne(2, n, start) for start in (False, True)
          for n in (1, 2, 5, 30, 31, 64, 65, 66, 1000)),
    ])
    def test_structured_strings_match_the_reference(self, sigma):
        est = rl.k_upper_bound(sigma)
        assert (est.witness, est.method) == reference_k_upper_bound(sigma)

    def test_constant_run_far_below_length(self):
        est = rl.k_upper_bound(bits("1" * 30))
        assert est.kind == "upper_bound"
        assert est.method == "generator_encoding"
        assert est.value < 30
        assert est.verify(bits("1" * 30))

    def test_champernowne_logarithmic(self):
        n = 10**4
        sigma = sq.champernowne(2, n)
        est = rl.k_upper_bound(sigma)
        assert est.value <= CHAMPERNOWNE_PROGRAM_OVERHEAD + 2 * math.ceil(math.log2(n)) + 1
        assert est.value == 60  # frozen: measured once on the bundled machine
        assert est.verify(sigma)

    def test_literal_bound_always_applies(self):
        sigma = fair_coin(20)
        est = rl.k_upper_bound(sigma)
        assert est.value <= 20 + 2 * math.ceil(math.log2(21)) + tm.LITERAL_OVERHEAD_BITS

    def test_periodic_structure_recognized(self):
        sigma = bits("011" * 50)
        est = rl.k_upper_bound(sigma)
        assert est.method == "generator_encoding"
        assert est.value < rl.literal_bound(150)

    def test_empty_string(self):
        est = rl.k_upper_bound(sq.SymbolString(2, ()))
        assert est.value == GOLDEN_K_EMPTY
        assert est.witness == tm.assemble((tm.OP_HALT,))

    def test_budget_never_hurts(self):
        sigma = bits("0")
        plain = rl.k_upper_bound(sigma)
        with_budget = rl.k_upper_bound(sigma, budget=(10, 500))
        assert with_budget.value <= plain.value
        assert with_budget.value == GOLDEN_K_ZERO

    def test_base2_required(self):
        with pytest.raises(ValueError):
            rl.k_upper_bound(sq.SymbolString(3, (0, 1, 2)))

    @pytest.mark.parametrize("make,method", [
        (fair_coin, "literal_encoding"),
        (lambda n: sq.champernowne(2, n), "generator_encoding"),
    ], ids=["fair-coin", "champernowne"])
    def test_witness_longer_than_the_default_output_limit(self, make, method):
        # the re-run must not stop at run_machine's default output limit
        sigma = make(tm.DEFAULT_OUTPUT_LIMIT + 2)
        est = rl.k_upper_bound(sigma)
        assert est.method == method and est.verify(sigma)

    @pytest.mark.parametrize("make,peak_mib", [
        (fair_coin, 24),
        (lambda n: sq.champernowne(2, n), 14),
    ], ids=["fair-coin", "champernowne"])
    def test_memory_peak_at_a_million_bits(self, make, peak_mib):
        # the machine keeps bits as bytes, so the witness re-run copies no
        # tuple of 10^6 ints but the result's output: with tuples inside it,
        # the peaks were 40.1 and 24.8 MiB
        sigma = make(10**6)
        tracemalloc.start()
        try:
            est = rl.k_upper_bound(sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.value < 10**6 + 64
        assert peak <= peak_mib * 2**20, peak / 2**20

    def test_periodic_bound_is_the_program_length(self):
        rng = random.Random(4)
        cases = [(p, n) for n in range(1, 100) for p in range(1, n + 1)]
        cases += [(rng.randint(100, 1000), rng.randint(1000, 10**6)) for _ in range(40)]
        for p, n in cases:
            pattern = [rng.randint(0, 1) for _ in range(p)]
            assert rl._periodic_bound(p, n) == len(tm.prog_periodic(pattern, n)), (p, n)

    def test_every_estimate_is_witnessed(self):
        for text in ("0", "0000000000", "0110110110", "01101110", "10011"):
            sigma = bits(text)
            est = rl.k_upper_bound(sigma)
            assert est.verify(sigma)


class TestExactK:
    def test_empty_string_exact(self):
        est = rl.exact_k_small(sq.SymbolString(2, ()), 8, 1000)
        assert est.kind == "exact" and est.value == GOLDEN_K_EMPTY

    def test_single_zero_exact(self):
        est = rl.exact_k_small(bits("0"), 10, 1000)
        assert est.kind == "exact" and est.value == GOLDEN_K_ZERO
        res = tm.run_machine(est.witness, 1000)
        assert res.output == (0,)

    def test_not_monotone_claim_avoided(self):
        # K("0") > K(empty) here, but that is a computed fact, not an axiom
        k0 = rl.exact_k_small(bits("0"), 10, 1000).value
        ke = rl.exact_k_small(sq.SymbolString(2, ()), 10, 1000).value
        assert k0 >= ke

    def test_no_program_certificate(self):
        sigma = fair_coin(24, seed=5)
        cert = rl.exact_k_small(sigma, 8, 200)
        assert isinstance(cert, rl.NoProgramCertificate)
        assert cert.max_len == 8

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            rl.exact_k_small(bits("0"), 25, 10)

    def test_unresolved_timeouts_degrade_to_upper_bound(self):
        # at 2 steps only the one-shot literal emitter (13 bits) finishes
        # on "00"; the 12-bit OUT0;OUT0;HALT branch stalls unresolved at 8
        # consumed bits, so the 13 cannot be claimed exact
        est = rl.exact_k_small(bits("00"), 13, 2)
        assert isinstance(est, rl.ComplexityEstimate)
        assert est.kind == "upper_bound"
        assert est.value == 13
        # a big enough budget resolves everything and finds the true 12
        assert rl.exact_k_small(bits("00"), 13, 100).kind == "exact"
        assert rl.exact_k_small(bits("00"), 13, 100).value == 12

    def test_memory_peak_at_a_million_bits(self):
        # the search compares outputs with sigma's bytes: with a list and a
        # tuple of 10^6 ints as the output prefix the peak was 15.3 MiB
        sigma = fair_coin(10**6, seed=5)
        tracemalloc.start()
        try:
            found = rl.exact_k_small(sigma, 16, 10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(found, rl.NoProgramCertificate)
        assert peak <= 4 * 2**20, peak / 2**20


def every_string(max_bits):
    for n in range(max_bits + 1):
        for bits in itertools.product((0, 1), repeat=n):
            yield sq.SymbolString(2, bits)


class TestBoundedSearch:
    def test_same_results_as_the_unbounded_walk_at_the_acceptance_budget(self):
        for sigma in every_string(3):
            assert rl.exact_k_small(sigma, 16, 10_000) == \
                unbounded_exact_k_small(sigma, 16, 10_000), tuple(sigma)

    @pytest.mark.parametrize("max_len,max_steps", [(12, 1), (13, 2), (14, 50)])
    def test_same_results_as_the_unbounded_walk_with_timeouts(self, max_len, max_steps):
        results = []
        for sigma in every_string(5):
            found = rl.exact_k_small(sigma, max_len, max_steps)
            assert found == unbounded_exact_k_small(sigma, max_len, max_steps), tuple(sigma)
            results.append(found)
        # the grid reaches both exact values and certificates
        kinds = {getattr(r, "kind", "certificate") for r in results}
        assert "exact" in kinds and "certificate" in kinds
        if max_steps == 2:  # and unresolved timeouts that block the exact claim
            assert "upper_bound" in kinds

    def test_a_walk_that_ignores_sends_gives_the_same_results(self, monkeypatch):
        # a wrapper that forwards only next(), as a tracing wrapper may
        # (yield from would forward send too)
        walk = tm.enumerate_domain

        def next_only(*args, **kwargs):
            for entry in walk(*args, **kwargs):
                yield entry

        expected = [rl.exact_k_small(sigma, 13, 2) for sigma in every_string(3)]
        monkeypatch.setattr(tm, "enumerate_domain", next_only)
        assert [rl.exact_k_small(sigma, 13, 2) for sigma in every_string(3)] == expected

    @pytest.mark.parametrize("text,runs,forks", [("0", 27, 26), ("01", 285, 284)],
                             ids=["0-27", "01-285"])
    def test_machine_runs_per_search(self, monkeypatch, text, runs, forks):
        # the unbounded walk runs about 10k machines for either string, and
        # forks 12,921; a child that a send made too long is never forked
        calls = Counter()
        run, fork = tm._Machine.run, tm._Machine._fork

        def counting_run(m, *args):
            calls["run"] += 1
            return run(m, *args)

        def counting_fork(m, encoding):
            calls["fork"] += 1
            return fork(m, encoding)

        monkeypatch.setattr(tm._Machine, "run", counting_run)
        monkeypatch.setattr(tm._Machine, "_fork", counting_fork)
        assert rl.exact_k_small(bits(text), 16, 10_000).kind == "exact"
        assert calls == {"run": runs, "fork": forks}


class TestLastAnswerKept:
    """exact_k_small keeps its last answer: a repeat walks nothing, and every
    answer, kept or walked, is the unbounded walk's."""

    @pytest.mark.parametrize("max_len,max_steps,max_bits",
                             [(12, 1, 5), (13, 2, 5), (14, 50, 5), (16, 10_000, 3)])
    def test_repeats_give_the_unbounded_walks_answer(self, monkeypatch, max_len, max_steps,
                                                      max_bits):
        strings = list(every_string(max_bits))
        expected = [unbounded_exact_k_small(s, max_len, max_steps) for s in strings]
        rl._exact_k_walk.cache_clear()
        walks = count_walks(monkeypatch)
        for a, b, want_a, want_b in zip(strings, strings[1:], expected, expected[1:]):
            walks.clear()
            # A twice in a row, then A, B, A: only the first A, B and the last A walk
            for sigma, want in ((a, want_a), (a, want_a), (b, want_b), (a, want_a)):
                assert rl.exact_k_small(sigma, max_len, max_steps) == want, tuple(sigma)
            assert len(walks) == 3, (tuple(a), tuple(b))

    def test_the_same_bytes_at_another_budget_walk_again(self, monkeypatch):
        budgets = [(13, 2), (13, 100), (12, 100), (13, 2)]
        strings = list(every_string(3))
        expected = [[unbounded_exact_k_small(s, *b) for b in budgets] for s in strings]
        # at 2 steps a timeout blocks "00"'s 13 bits; at 100 steps it is an exact 12
        assert any(answers[0] != answers[1] for answers in expected)
        walks = count_walks(monkeypatch)
        for sigma, answers in zip(strings, expected):
            walks.clear()
            assert [rl.exact_k_small(sigma, *b) for b in budgets] == answers, tuple(sigma)
            assert walks == budgets

    def test_a_refused_call_is_never_answered(self):
        sigma = bits("01")
        found = rl.exact_k_small(sigma, 16, 1000)
        assert isinstance(found, rl.ComplexityEstimate)
        with pytest.raises(ValueError, match=r"^max_len must be an integer >= 0, got 16\.0$"):
            rl.exact_k_small(sigma, 16.0, 1000)
        with pytest.raises(ValueError, match=r"^max_steps must be an integer >= 0, got -1$"):
            rl.exact_k_small(sigma, 16, -1)
        with pytest.raises(ValueError, match=r"^max_steps must be an integer >= 0, got 1000\.0$"):
            rl.exact_k_small(sigma, 16, 1000.0)
        with pytest.raises(ValueError, match="exceeds the tractability cap 24"):
            rl.exact_k_small(sigma, 25, 1000)
        # an integer of another type is the same key
        assert rl.exact_k_small(sigma, np.int64(16), 1000) is found

    def test_a_walk_that_raises_caches_nothing(self, monkeypatch):
        walk = tm.enumerate_domain

        def breaks(*args, **kwargs):
            it = walk(*args, **kwargs)
            yield next(it)
            raise RuntimeError("walk broken partway")

        monkeypatch.setattr(tm, "enumerate_domain", breaks)
        with pytest.raises(RuntimeError, match="partway"):
            rl.exact_k_small(bits("0"), 12, 1000)
        monkeypatch.setattr(tm, "enumerate_domain", walk)
        expected = unbounded_exact_k_small(bits("0"), 12, 1000)
        walks = count_walks(monkeypatch)
        assert rl.exact_k_small(bits("0"), 12, 1000) == expected
        assert walks == [(12, 1000)]


class TestLevinChaitinMargin:
    """The margin K_upper(x_|n) - n that the scenario-1 audit reports, on sources."""

    def test_constant_source_diverges_down(self):
        src = sq.SequenceSource("periodic", pattern=(1,))
        margins = [rl.k_upper_bound(src.prefix(n)).value - n for n in (100, 1000, 5000)]
        assert margins[0] > margins[1] > margins[2]
        assert margins[2] < -4800

    def test_champernowne_margin(self):
        src = sq.SequenceSource("champernowne")
        margin = rl.k_upper_bound(src.prefix(10**4)).value - 10**4
        assert margin <= -(10**4) + 2 * math.ceil(math.log2(10**4)) + 40

    def test_fair_coin_margin_stays_positive(self):
        # upper bounds cannot refute randomness of a typical sample
        src = sq.SequenceSource("born", seed=3)
        assert rl.k_upper_bound(src.prefix(1000)).value - 1000 > 0

    @pytest.mark.parametrize("margins,flagged", [
        ([-64], False),
        ([-65], True),
        ([-65, 10], True),
        ([0, -64], False),
    ], ids=["at-minus-c", "below-minus-c", "early-checkpoint-below", "last-at-minus-c"])
    def test_flag_boundary(self, margins, flagged, monkeypatch):
        # the audit flags x when some K_upper(x_|n) - n is below -c, c = 64
        checkpoints = [100 * (i + 1) for i in range(len(margins))]
        margin_at = dict(zip(checkpoints, margins))

        def fixed_bound(prefix):
            n = len(prefix)
            return SimpleNamespace(value=n + margin_at[n], method="literal_encoding")

        monkeypatch.setattr(hv, "k_upper_bound", fixed_bound)
        model = hv.load_model(bundled_path("fair_coin_counter.json"))
        rep = hv.scenario_one_audit(model, hv.Sampler("counter"), checkpoints)
        assert [p["k_upper"] for p in rep["checkpoints"]] == [
            n + m for n, m in zip(checkpoints, margins)]
        assert rep["incompatible_with_1_randomness"] is flagged


class TestOverlapVariance:
    def test_monte_carlo_oracle(self):
        # independent check of the variance formula: simulate counts of an
        # overlapping self-matching pattern ("11") and a plain one ("10")
        rng = np.random.Generator(np.random.Philox(key=[99, 0]))
        n, trials = 512, 4000
        xs = rng.integers(0, 2, size=(trials, n))
        for pattern in ((1, 1), (1, 0)):
            hits = (xs[:, :-1] == pattern[0]) & (xs[:, 1:] == pattern[1])
            counts = hits.sum(axis=1)
            predicted = rl._overlap_count_variance(pattern, 2, n - 1)
            ratio = counts.var() / predicted
            assert 0.9 < ratio < 1.1

    def test_binomial_case(self):
        assert rl._overlap_count_variance((1,), 2, 1000) == pytest.approx(250.0)


class TestBorelBattery:
    def test_fair_coin_passes(self):
        sigma = fair_coin(10**5, seed=21)
        reports = rl.borel_normality_test(sigma, 2)
        assert all(r["pass"] for r in reports)
        assert len(reports) == 2 + 4

    def test_constant_fails_at_one(self):
        sigma = bits("0" * 1000)
        reports = rl.borel_normality_test(sigma, 1)
        assert all(not r["pass"] for r in reports)

    def test_champernowne_z_far_out(self):
        sigma = sq.champernowne(2, 10**5)
        reports = rl.borel_normality_test(sigma, 1)
        assert not reports[0]["pass"]  # |z| >> 4 despite asymptotic normality

    def test_insufficient_length_names_minimum(self):
        with pytest.raises(ValueError, match="at least 800"):
            rl.borel_normality_test(bits("01" * 100), 3)

    def test_report_invariant(self):
        sigma = fair_coin(2000, seed=2)
        for r in rl.borel_normality_test(sigma, 1):
            assert r["pass"] == (abs(r["z_score"]) <= r["threshold"])


class TestMonkeySearch:
    def test_positions_overlapping(self):
        src = sq.SequenceSource("periodic", pattern=(0, 1))
        assert rl.monkey_search(bits("01"), src, 4) == [0, 2]

    def test_absent_target(self):
        src = sq.SequenceSource("periodic", pattern=(0,))
        assert rl.monkey_search(bits("1"), src, 100) == []

    def test_expected_count_in_fair_sample(self):
        target = bits("10111010")
        src = sq.SequenceSource("born", seed=17)
        count = len(rl.monkey_search(target, src, 10**6))
        expect = (10**6 - 7) / 256
        sigma = math.sqrt(10**6 * (1 / 256) * (255 / 256))
        assert abs(count - expect) <= 5 * sigma

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            rl.monkey_search(bits("0101"), sq.SequenceSource("periodic", pattern=(0,)), 2)

    def test_self_overlapping_target(self):
        src = sq.SequenceSource("periodic", pattern=(1,))
        assert rl.monkey_search(bits("11"), src, 5) == [0, 1, 2, 3]

    @settings(max_examples=300)
    @given(st.sampled_from([2, 3, 10, 11, 16, 200]), st.data())
    def test_matches_text_oracle(self, k, data):
        pool = sorted({0, 1, k - 1, min(11, k - 1)})
        hay = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
        horizon = data.draw(st.integers(1, 2 * len(hay)))
        target = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                    max_size=min(4, horizon)))
        src = sq.SequenceSource("periodic", alphabet_size=k, pattern=hay)
        t = sq.SymbolString(k, target)
        assert rl.monkey_search(t, src, horizon) == text_monkey_search(t, src, horizon)

    def test_large_base_symbol_is_not_a_substring_match(self):
        src = sq.SequenceSource("periodic", alphabet_size=16, pattern=(11, 1, 11, 1))
        target = sq.SymbolString.from_text("1", 16)
        assert rl.monkey_search(target, src, 4) == [1, 3]
        assert text_monkey_search(target, src, 4) == [1, 3]


class TestOmega:
    def test_zero_budget(self):
        est = rl.omega_lower_bound(0, 100)
        assert est.lower_bound == 0 and est.programs == ()

    def test_monotone_in_length(self):
        small = rl.omega_lower_bound(10, 200)
        large = rl.omega_lower_bound(11, 200)
        assert large.lower_bound >= small.lower_bound

    def test_monotone_in_steps(self):
        small = rl.omega_lower_bound(12, 20)
        large = rl.omega_lower_bound(12, 2000)
        assert large.lower_bound >= small.lower_bound

    def test_golden_value(self):
        est = rl.omega_lower_bound(16, 10_000)
        assert est.lower_bound == GOLDEN_OMEGA_16_10K
        assert len(est.programs) == GOLDEN_OMEGA_16_10K_PROGRAMS

    def test_strictly_dyadic_and_bounded(self):
        est = rl.omega_lower_bound(12, 500)
        assert 0 < est.lower_bound < 1
        d = est.lower_bound.denominator
        assert d & (d - 1) == 0

    def test_prefix_free_log(self):
        est = rl.omega_lower_bound(12, 500)
        assert rl.prefix_free_violations(est.programs) == []

    def test_prefix_violations_match_pairwise_scan(self):
        programs = list(rl.omega_lower_bound(10, 500).programs)
        first, second = programs[0], programs[-1]
        planted = programs + [first[:3], second + (0, 1), second + (1,), first, ()]

        def pairwise(progs):
            return {(p, q) for p in progs for q in progs
                    if len(p) < len(q) and q[: len(p)] == p}

        found = rl.prefix_free_violations(planted)
        assert set(found) == pairwise(planted)
        assert (first[:3], first) in found and ((), second) in found

    def test_kraft_sum_of_log(self):
        est = rl.omega_lower_bound(12, 500)
        total = sum(Fraction(1, 2 ** len(p)) for p in est.programs)
        assert total == est.lower_bound < 1

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            rl.omega_lower_bound(30, 10)

    @pytest.mark.parametrize("max_len,max_steps", [(0, 100), (4, 100), (9, 1), (12, 500),
                                                   (16, 10_000)])
    def test_same_estimate_as_a_fraction_sum(self, max_len, max_steps):
        # reference: one Fraction added per program
        programs = tuple(e.program for e in tm.enumerate_domain(max_len, max_steps))
        total = sum((Fraction(1, 2 ** len(p)) for p in programs), Fraction(0))
        assert rl.omega_lower_bound(max_len, max_steps) == \
            rl.OmegaEstimate(total, (max_len, max_steps), programs)


@pytest.mark.parametrize("search", [
    lambda max_len: rl.exact_k_small(bits("01"), max_len, 10),
    lambda max_len: rl.omega_lower_bound(max_len, 10),
], ids=["exact_k_small", "omega_lower_bound"])
@pytest.mark.parametrize("max_len,message", [
    ("16", "max_len must be an integer >= 0, got '16'"),
    ("8", "max_len must be an integer >= 0, got '8'"),
    (16.0, "max_len must be an integer >= 0, got 16.0"),
    (25.0, "max_len must be an integer >= 0, got 25.0"),
    (-1, "max_len must be an integer >= 0, got -1"),
    (25, "max_len 25 exceeds the tractability cap 24"),
])
def test_both_searches_check_max_len_alike(search, max_len, message):
    # the operand first, then the one cap
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        search(max_len)
