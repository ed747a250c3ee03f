from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indlab import machine as tm


class TestGammaCoding:
    @given(st.integers(0, 10**9))
    def test_gamma0_roundtrip(self, n):
        bits = tm.gamma0_encode(n)
        assert len(bits) == tm.gamma0_length(n)
        m = tm._Machine(bits + (1, 1, 1), exact_bits=True)
        assert m._read_gamma0() == n

    def test_small_codes(self):
        assert tm.gamma_encode(1) == (1,)
        assert tm.gamma_encode(2) == (0, 1, 0)
        assert tm.gamma_encode(3) == (0, 1, 1)
        assert tm.gamma_encode(4) == (0, 0, 1, 0, 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tm.gamma_encode(0)
        with pytest.raises(ValueError):
            tm.gamma0_encode(-1)


class TestRunMachine:
    def test_halt_program(self):
        res = tm.run_machine(tm.prog_halt(), 100)
        assert res.halted and res.output == () and res.bits_consumed == 4

    def test_zero_step_budget_times_out(self):
        assert tm.run_machine(tm.prog_halt(), 0).status == "timeout"

    def test_emit_zero_four_times(self):
        # the bundled constant emitter, frozen from one canonical run
        res = tm.run_machine(tm.prog_constant(0, 4), 1000)
        assert res.status == "halted"
        assert res.output == (0, 0, 0, 0)

    def test_invalid_opcode_is_malformed(self):
        res = tm.run_machine((1, 1, 1, 0), 100)
        assert res.status == "malformed"
        assert "invalid opcode" in res.reason

    def test_out_of_bits_is_malformed(self):
        res = tm.run_machine((0, 0, 0), 100)
        assert res.status == "malformed"
        assert "ran out" in res.reason

    def test_jump_before_start_is_malformed(self):
        res = tm.run_machine(tm.asm_jmp(-5), 100)
        assert res.status == "malformed"

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            tm.run_machine((0, 2, 0, 0), 10)

    def test_consumed_prefix_reproduces_output(self):
        # prefix-freeness witness: rerun exactly the consumed bits
        program = tm.prog_constant(1, 3) + (1, 0, 1)  # trailing junk
        res = tm.run_machine(program, 1000)
        assert res.halted and res.bits_consumed == len(program) - 3
        again = tm.run_machine(program[: res.bits_consumed], 1000)
        assert again.halted and again.output == res.output

    def test_determinism_steps_and_output(self):
        program = tm.prog_champernowne(40)
        a = tm.run_machine(program, 10_000)
        b = tm.run_machine(program, 10_000)
        assert (a.output, a.steps, a.bits_consumed) == (b.output, b.steps, b.bits_consumed)

    def test_loop_detected_early(self):
        # JMP to itself: state recurrence proves divergence within a few steps
        res = tm.run_machine(tm.asm_jmp(-1), 10_000)
        assert res.status == "timeout"
        assert res.reason == "loop detected"
        assert res.steps < 10

    def test_empty_literal_keeps_loop_tracking(self):
        # LITN 0 emits nothing, so it must not reset the loop detector
        program = tm.concat(tm.asm_litn(()), tm.asm_jmp(-2))
        res = tm.run_machine(program, 100_000)
        assert res.status == "timeout"
        assert res.reason == "loop detected"
        assert res.steps < 10

    def test_growing_loop_hits_step_budget(self):
        # INC r; JMP back: the register grows, so no state ever recurs
        program = tm.concat(tm.asm_inc(0), tm.asm_jmp(-2))
        res = tm.run_machine(program, 500)
        assert res.status == "timeout"
        assert res.steps == 500

    def test_output_limit_guard(self):
        program = tm.concat(tm.asm_out(1), tm.asm_jmp(-2))
        res = tm.run_machine(program, 10**6, output_limit=100)
        assert res.status == "timeout"
        assert "output limit" in res.reason

    def test_forward_jump_consumes_skipped_bits(self):
        # jump over an OUT1; the skipped instruction is decoded (bits consumed)
        program = tm.concat(tm.asm_jmp(1), tm.asm_out(1), tm.asm_out(0), tm.asm_halt())
        res = tm.run_machine(program, 100)
        assert res.halted
        assert res.output == (0,)
        assert res.bits_consumed == len(program)

    def test_jz_taken_and_not_taken(self):
        # R0 == 0: skip the OUT1; then R0 = 1: fall through to OUT1
        program = tm.concat(
            tm.asm_jz(0, 1),     # skip next
            tm.asm_out(1),
            tm.asm_seti(0, 1),
            tm.asm_jz(0, 1),     # not taken now
            tm.asm_out(0),
            tm.asm_halt(),
        )
        res = tm.run_machine(program, 100)
        assert res.halted and res.output == (0,)

    def test_register_arithmetic(self):
        # R0 = 5; R1 = 2; R0 -= R1; R0 += R1... exercised via OUTB numerals
        program = tm.concat(
            tm.asm_seti(0, 5),
            tm.asm_seti(1, 2),
            tm.asm_sub(0, 1),    # 3
            tm.asm_outb(0),      # "11"
            tm.asm_add(0, 1),    # 5
            tm.asm_outb(0),      # "101"
            tm.asm_cpy(2, 1),
            tm.asm_outb(2),      # "10"
            tm.asm_dec(2),
            tm.asm_dec(2),
            tm.asm_dec(2),       # floors at 0
            tm.asm_outb(2),      # "0"
            tm.asm_halt(),
        )
        res = tm.run_machine(program, 100)
        assert res.output == (1, 1, 1, 0, 1, 1, 0, 0)


class TestGeneratorPrograms:
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=40))
    def test_literal_emits_exactly(self, data):
        res = tm.run_machine(tm.prog_literal(data), 100)
        assert res.halted and res.output == tuple(data)

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=40))
    def test_literal_overhead_formula(self, data):
        n = len(data)
        assert len(tm.prog_literal(data)) == n + 2 * (n + 1).bit_length() - 2 \
            + tm.LITERAL_OVERHEAD_BITS

    @given(st.integers(0, 1), st.integers(0, 300))
    def test_constant_program(self, bit, n):
        res = tm.run_machine(tm.prog_constant(bit, n), 4 * n + 64)
        assert res.halted and res.output == (bit,) * n

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=8), st.integers(0, 200))
    def test_periodic_program(self, pattern, n):
        res = tm.run_machine(tm.prog_periodic(pattern, n), 8 * n + 64)
        expected = tuple(pattern[i % len(pattern)] for i in range(n))
        assert res.halted and res.output == expected

    @given(st.integers(0, 500))
    def test_champernowne_program(self, n):
        from indlab.sequences import champernowne

        res = tm.run_machine(tm.prog_champernowne(n), 8 * n + 64)
        assert res.halted
        assert res.output == tuple(champernowne(2, n)) if n else res.output == ()

    def test_champernowne_truncates_mid_numeral(self):
        # 7 bits cut inside the numeral "11": 0 1 10 11 -> 0,1,1,0,1,1,1
        res = tm.run_machine(tm.prog_champernowne(7), 1000)
        assert res.output == (0, 1, 1, 0, 1, 1, 1)

    def test_champernowne_start_at_one(self):
        res = tm.run_machine(tm.prog_champernowne(6, start_at_one=True), 1000)
        assert res.output == (1, 1, 0, 1, 1, 1)  # 1, 10, 11, ...


class TestEnumeration:
    def test_entries_consume_their_full_length(self):
        for entry in tm.enumerate_domain(10, 200):
            res = tm.run_machine(entry.program, 200)
            assert res.halted
            assert res.bits_consumed == len(entry.program)
            assert res.output == entry.output

    def test_no_proper_prefix_pairs(self):
        programs = [e.program for e in tm.enumerate_domain(12, 200)]
        as_strings = sorted("".join(map(str, p)) for p in programs)
        for a, b in zip(as_strings, as_strings[1:]):
            assert not b.startswith(a) or a == b

    def test_deterministic(self):
        a = list(tm.enumerate_domain(10, 100))
        b = list(tm.enumerate_domain(10, 100))
        assert a == b

    def test_respects_max_len(self):
        assert all(len(e.program) <= 9 for e in tm.enumerate_domain(9, 100))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            list(tm.enumerate_domain(8, -1))

    def test_empty_budget(self):
        assert list(tm.enumerate_domain(0, 100)) == []
        assert list(tm.enumerate_domain(3, 100)) == []  # opcode needs 4 bits

    def test_smallest_programs(self):
        entries = {e.program: e.output for e in tm.enumerate_domain(8, 100)}
        assert entries[tuple(map(int, "0000"))] == ()          # HALT
        assert entries[tuple(map(int, "00010000"))] == (0,)    # OUT0; HALT
        assert entries[tuple(map(int, "00100000"))] == (1,)    # OUT1; HALT
        assert entries[tuple(map(int, "11011"))] == ()         # HALTAT 0
        assert len(entries) == 4

    def test_output_prefix_pruning(self):
        # searching for "1": programs emitting a 0 first are abandoned
        hits = [
            e for e in tm.enumerate_domain(8, 100, output_prefix=(1,))
            if e.output == (1,)
        ]
        assert [e.program for e in hits] == [tuple(map(int, "00100000"))]

    def test_timeout_log_records_unresolved(self):
        log: list[int] = []
        list(tm.enumerate_domain(10, 1, timeout_log=log))
        assert log  # a 1-step budget cannot resolve any 2-instruction branch


def replay_leaves(max_len, max_steps, output_limit=tm.DEFAULT_OUTPUT_LIMIT,
                  output_prefix=None, exact_bits=False):
    """Reference enumerator: re-runs every demanded prefix from bit 0.

    Yields (prefix, result) for every prefix it runs.  exact_bits=False
    applies the enumerator's loop rules; exact_bits=True applies those of
    run_machine, reading "ran out of program bits" as a request for more.
    """
    stack: list[tm.Bits] = [()]
    while stack:
        prefix = stack.pop()
        m = tm._Machine(prefix, exact_bits=exact_bits, output_prefix=output_prefix)
        res = m.run(max_steps, output_limit)
        yield prefix, res
        if res.status == "needs_bits" or res.reason == "ran out of program bits":
            if len(prefix) < max_len:
                stack.append(prefix + (1,))
                stack.append(prefix + (0,))


def replay_enumerate(*args, **kwargs):
    entries, log = [], []
    for prefix, res in replay_leaves(*args, **kwargs):
        if res.halted and res.bits_consumed == len(prefix):
            entries.append(tm.DomainEntry(prefix, res.output, res.steps))
        elif res.reason == "step budget exhausted":
            log.append(res.bits_consumed)
    return entries, log


class TestForkedEnumeration:
    @pytest.mark.parametrize("output_limit", [tm.DEFAULT_OUTPUT_LIMIT, 3])
    @pytest.mark.parametrize("output_prefix", [None, (0, 1, 1)])
    @pytest.mark.parametrize("max_steps", [1, 20, 1000])
    @pytest.mark.parametrize("max_len", [4, 9, 12])
    def test_matches_replay(self, max_len, max_steps, output_prefix, output_limit):
        kwargs = dict(output_limit=output_limit, output_prefix=output_prefix)
        log: list[int] = []
        forked = list(tm.enumerate_domain(max_len, max_steps, timeout_log=log, **kwargs))
        # same loop rules, every prefix re-run: identical stream and log
        assert replay_enumerate(max_len, max_steps, **kwargs) == (forked, log)
        # run_machine's loop rule: same stream, every forked timeout also
        # times out there
        entries, replay_log = replay_enumerate(max_len, max_steps, exact_bits=True, **kwargs)
        assert entries == forked
        assert Counter(log) <= Counter(replay_log)

    def test_output_loop_rule_resolves_timeouts(self):
        log: list[int] = []
        entries = list(tm.enumerate_domain(14, 10_000, timeout_log=log))
        replay_entries, replay_log = replay_enumerate(14, 10_000, exact_bits=True)
        assert entries == replay_entries
        assert Counter(log) <= Counter(replay_log)
        assert len(log) < len(replay_log)

    def test_output_loops_never_halt(self):
        # every branch the output-loop rule ends, re-run at 100x the budget
        fork = dict(replay_leaves(12, 1000))
        plain = dict(replay_leaves(12, 1000, exact_bits=True))
        assert fork.keys() == plain.keys()
        flagged = [p for p, res in fork.items()
                   if res.reason == "loop detected" and plain[p].reason != "loop detected"]
        assert flagged
        for program in flagged:
            res = tm.run_machine(program, 100_000)
            assert res.status == "timeout", program
