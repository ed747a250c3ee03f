import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indlab import machine as tm
from indlab import randomness as rl
from indlab import sequences as sq

# frozen: one canonical enumeration at the acceptance budget
GOLDEN_OMEGA_16_10K = Fraction(11737, 65536)
GOLDEN_OMEGA_16_10K_PROGRAMS = 985
# frozen: exhaustive searches on the bundled machine
GOLDEN_K_EMPTY = 4
GOLDEN_K_ZERO = 8


def fair_coin(n, seed=11):
    return sq.SequenceSource("born_sampler", seed=seed, probs=[0.5, 0.5]).prefix(n)


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
        return tm.prog_halt(), "generator_encoding"
    candidates = [(tm.prog_literal(syms), "literal_encoding")]
    if all(s == syms[0] for s in syms):
        candidates.append((tm.prog_constant(syms[0], n), "generator_encoding"))
    elif (p := half_period(syms)) is not None:
        candidates.append((tm.prog_periodic(syms[:p], n), "generator_encoding"))
    for start_at_one in (False, True):
        if sq.champernowne_text(2, n, start_at_one) == sigma.to_text():
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
        *(sq.bits(c * n) for c in "01" for n in (7, 8, 9, 64, 1000)),
        *(sq.bits((pattern * 400)[:n]) for pattern in ("01", "011", "0110100")
          for n in (9, 14, 15, 16, 17, 100, 2799)),
        *(sq.champernowne(2, n, start) for start in (False, True)
          for n in (1, 2, 5, 30, 31, 64, 65, 66, 1000)),
    ])
    def test_structured_strings_match_the_reference(self, sigma):
        est = rl.k_upper_bound(sigma)
        assert (est.witness, est.method) == reference_k_upper_bound(sigma)

    def test_constant_run_far_below_length(self):
        est = rl.k_upper_bound(sq.bits("1" * 30))
        assert est.kind == "upper_bound"
        assert est.method == "generator_encoding"
        assert est.value < 30
        assert est.verify(sq.bits("1" * 30))

    def test_champernowne_logarithmic(self):
        n = 10**4
        sigma = sq.champernowne(2, n)
        est = rl.k_upper_bound(sigma)
        assert est.value <= tm.CHAMPERNOWNE_PROGRAM_OVERHEAD + 2 * math.ceil(math.log2(n)) + 1
        assert est.value == 60  # frozen: measured once on the bundled machine
        assert est.verify(sigma)

    def test_literal_bound_always_applies(self):
        sigma = fair_coin(20)
        est = rl.k_upper_bound(sigma)
        assert est.value <= 20 + 2 * math.ceil(math.log2(21)) + tm.LITERAL_OVERHEAD_BITS

    def test_periodic_structure_recognized(self):
        sigma = sq.bits("011" * 50)
        est = rl.k_upper_bound(sigma)
        assert est.method == "generator_encoding"
        assert est.value < rl.literal_bound(150)

    def test_empty_string(self):
        est = rl.k_upper_bound(sq.SymbolString(2, ()))
        assert est.value == GOLDEN_K_EMPTY
        assert est.witness == tm.prog_halt()

    def test_budget_never_hurts(self):
        sigma = sq.bits("0")
        plain = rl.k_upper_bound(sigma)
        with_budget = rl.k_upper_bound(sigma, budget=(10, 500))
        assert with_budget.value <= plain.value
        assert with_budget.value == GOLDEN_K_ZERO

    def test_base2_required(self):
        with pytest.raises(ValueError):
            rl.k_upper_bound(sq.SymbolString(3, (0, 1, 2)))

    def test_every_estimate_is_witnessed(self):
        for text in ("0", "0000000000", "0110110110", "01101110", "10011"):
            sigma = sq.bits(text)
            est = rl.k_upper_bound(sigma)
            assert est.verify(sigma)


class TestExactK:
    def test_empty_string_exact(self):
        est = rl.exact_k_small(sq.SymbolString(2, ()), 8, 1000)
        assert est.kind == "exact" and est.value == GOLDEN_K_EMPTY

    def test_single_zero_exact(self):
        est = rl.exact_k_small(sq.bits("0"), 10, 1000)
        assert est.kind == "exact" and est.value == GOLDEN_K_ZERO
        res = tm.run_machine(est.witness, 1000)
        assert res.output == (0,)

    def test_not_monotone_claim_avoided(self):
        # K("0") > K(empty) here, but that is a computed fact, not an axiom
        k0 = rl.exact_k_small(sq.bits("0"), 10, 1000).value
        ke = rl.exact_k_small(sq.SymbolString(2, ()), 10, 1000).value
        assert k0 >= ke

    def test_no_program_certificate(self):
        sigma = fair_coin(24, seed=5)
        cert = rl.exact_k_small(sigma, 8, 200)
        assert isinstance(cert, rl.NoProgramCertificate)
        assert cert.max_len == 8

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            rl.exact_k_small(sq.bits("0"), 25, 10)

    def test_unresolved_timeouts_degrade_to_upper_bound(self):
        # at 2 steps only the one-shot literal emitter (13 bits) finishes
        # on "00"; the 12-bit OUT0;OUT0;HALT branch stalls unresolved at 8
        # consumed bits, so the 13 cannot be claimed exact
        est = rl.exact_k_small(sq.bits("00"), 13, 2)
        assert isinstance(est, rl.ComplexityEstimate)
        assert est.kind == "upper_bound"
        assert est.value == 13
        # a big enough budget resolves everything and finds the true 12
        assert rl.exact_k_small(sq.bits("00"), 13, 100).kind == "exact"
        assert rl.exact_k_small(sq.bits("00"), 13, 100).value == 12


class TestCountingBound:
    @pytest.mark.parametrize("n,c", [(8, 1), (8, 3), (6, 2)])
    def test_paper_bound_holds(self, n, c):
        r = rl.count_c_incompressible(n, c, max_steps=2000)
        assert r.paper_bound == 2**n - 2 ** (n - c + 1) + 1
        assert r.count >= r.paper_bound
        assert r.count == 2**n - r.compressible_found

    def test_tiny_full_enumeration(self):
        r = rl.count_c_incompressible(4, 4, max_steps=2000)
        assert r.paper_bound == 15
        assert r.count >= 15

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            rl.count_c_incompressible(15, 1)


class TestLevinChaitinMargin:
    def test_constant_source_diverges_down(self):
        src = sq.SequenceSource("constant", symbol=1)
        points = rl.levin_chaitin_margin(src.prefix(5000), [100, 1000, 5000])
        margins = [p.margin for p in points]
        assert margins[0] > margins[1] > margins[2]
        assert margins[2] < -4800

    def test_champernowne_margin(self):
        src = sq.SequenceSource("champernowne")
        (point,) = rl.levin_chaitin_margin(src.prefix(10**4), [10**4])
        assert point.margin <= -(10**4) + 2 * math.ceil(math.log2(10**4)) + 40

    def test_fair_coin_margin_stays_positive(self):
        # upper bounds cannot refute randomness of a typical sample
        src = sq.SequenceSource("born_sampler", seed=3)
        (point,) = rl.levin_chaitin_margin(src.prefix(1000), [1000])
        assert point.margin > 0

    def test_checkpoints_must_ascend(self):
        with pytest.raises(ValueError):
            rl.levin_chaitin_margin(sq.SequenceSource("constant").prefix(10), [10, 5])

    def test_flag_semantics(self):
        src = sq.SequenceSource("constant", symbol=0)
        points = rl.levin_chaitin_margin(src.prefix(1000), [1000])
        claim = rl.incompressibility_flag(points, c=64)
        assert claim is not None and "not 64-incompressible" in claim
        assert rl.incompressibility_flag(points, c=2000) is None

    @pytest.mark.parametrize("margins,flagged", [
        ([-64], False),
        ([-65], True),
        ([-65, 10], True),
        ([0, -64], False),
    ], ids=["at-minus-c", "below-minus-c", "early-checkpoint-below", "last-at-minus-c"])
    def test_flag_boundary(self, margins, flagged):
        points = [rl.MarginPoint(100 * (i + 1), 100 * (i + 1) + m, m, "literal_encoding")
                  for i, m in enumerate(margins)]
        assert (rl.incompressibility_flag(points, c=64) is not None) == flagged

    @pytest.mark.parametrize("checkpoints", [[0, 11], [-1, 5]])
    def test_checkpoints_must_lie_within_x(self, checkpoints):
        with pytest.raises(ValueError, match="lie in"):
            rl.levin_chaitin_margin(sq.SequenceSource("constant").prefix(10), checkpoints)


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
        assert all(r.passed for r in reports)
        assert len(reports) == 2 + 4

    def test_constant_fails_at_one(self):
        sigma = sq.bits("0" * 1000)
        reports = rl.borel_normality_test(sigma, 1)
        assert all(not r.passed for r in reports)

    def test_champernowne_z_far_out(self):
        sigma = sq.champernowne(2, 10**5)
        reports = rl.borel_normality_test(sigma, 1)
        assert not reports[0].passed  # |z| >> 4 despite asymptotic normality

    def test_insufficient_length_names_minimum(self):
        with pytest.raises(ValueError, match="at least 800"):
            rl.borel_normality_test(sq.bits("01" * 100), 3)

    def test_report_invariant(self):
        sigma = fair_coin(2000, seed=2)
        for r in rl.borel_normality_test(sigma, 1):
            assert r.passed == (abs(r.z_score) <= r.threshold)


class TestMonkeySearch:
    def test_positions_overlapping(self):
        src = sq.SequenceSource("periodic", pattern=(0, 1))
        assert rl.monkey_search(sq.bits("01"), src, 4) == [0, 2]

    def test_absent_target(self):
        src = sq.SequenceSource("constant", symbol=0)
        assert rl.monkey_search(sq.bits("1"), src, 100) == []

    def test_expected_count_in_fair_sample(self):
        target = sq.bits("10111010")
        src = sq.SequenceSource("born_sampler", seed=17)
        count = len(rl.monkey_search(target, src, 10**6))
        expect = (10**6 - 7) / 256
        sigma = math.sqrt(10**6 * (1 / 256) * (255 / 256))
        assert abs(count - expect) <= 5 * sigma

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            rl.monkey_search(sq.bits("0101"), sq.SequenceSource("constant"), 2)

    def test_self_overlapping_target(self):
        src = sq.SequenceSource("constant", symbol=1)
        assert rl.monkey_search(sq.bits("11"), src, 5) == [0, 1, 2, 3]

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
        assert est.lower_bound == 0 and est.programs_found == 0

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
        assert est.programs_found == GOLDEN_OMEGA_16_10K_PROGRAMS

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
