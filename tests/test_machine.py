import itertools
from collections import Counter
from fractions import Fraction

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

    @pytest.mark.parametrize("program,bad", [
        ("0000", "'0'"),
        ((0, 0, 1.0, 0), "1.0"),
        ((0, 0, 0, 2), "2"),
        ((0, -1, 0, 0), "-1"),
        ((0, 0, 0, 256), "256"),
        ((0, 0, 0, None), "None"),
    ], ids=["str", "float", "two", "minus-one", "byte-overflow", "none"])
    def test_malformed_bits_are_named_not_coerced(self, program, bad):
        with pytest.raises(ValueError, match=f"program bits must be 0/1, got {bad}$"):
            tm.run_machine(program, 10)

    @pytest.mark.parametrize("data,bad", [
        ([2, 5], "2"),
        ("01", "'0'"),
        ((0, 0.0), "0.0"),
    ], ids=["out-of-range", "str", "float"])
    def test_malformed_literal_payload_is_named(self, data, bad):
        with pytest.raises(ValueError, match=f"LITN payload bits must be 0/1, got {bad}$"):
            tm.asm_litn(data)

    def test_malformed_pattern_is_named(self):
        with pytest.raises(ValueError, match="pattern bits must be 0/1, got 2$"):
            tm.prog_periodic((0, 2), 6)

    def test_integer_bits_of_any_type_are_plain_ints(self):
        program = tm.prog_literal((True, False, True))
        assert program == tm.prog_literal((1, 0, 1))
        assert all(type(b) is int for b in program)

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

    def test_growing_loop_is_flagged_by_the_enumerator_rule(self):
        # the same loop under the enumerator's rules: a repeated jump target
        # after INC only, with the same zero registers, proves divergence
        program = tm.concat(tm.asm_inc(0), tm.asm_jmp(-2))
        res = tm._Machine(program, exact_bits=False).run(10_000)
        assert res.status == "timeout"
        assert res.reason == "register growth"
        assert res.steps < 10

    def test_growth_rule_needs_an_inc_jz_jmp_path(self):
        # R0 and R1 both grow from one jump-target visit to the next, with
        # the same zero set, but the SUB on the path brings R1 to 0 and the
        # JZ then reaches the HALT
        program = tm.concat(
            tm.asm_seti(1, 1),
            tm.asm_sub(1, 0),    # loop head: R1 -= R0
            tm.asm_jz(1, 3),     # to HALT
            tm.asm_inc(0),
            tm.asm_inc(1),
            tm.asm_jmp(-5),      # to the SUB
            tm.asm_halt(),
        )
        assert len(program) == 55
        res = tm._Machine(program, exact_bits=False).run(1000)
        assert res.status == "halted"
        assert res.steps == 14
        assert res.bits_consumed == 55

    def test_growth_rule_needs_the_same_zero_registers(self):
        # the third pass meets the loop head with R1 no longer zero, so the
        # first JZ now falls through to the HALT
        program = tm.concat(
            tm.asm_jz(1, 1),     # loop head: skip the HALT while R1 == 0
            tm.asm_halt(),
            tm.asm_jz(0, 1),     # first pass: skip the INC R1
            tm.asm_inc(1),
            tm.asm_inc(0),
            tm.asm_jmp(-6),      # to the loop head
        )
        res = tm._Machine(program, exact_bits=False).run(1000)
        assert res.status == "halted"
        assert res.steps == 11

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

    Yields (prefix, result) for every prefix it runs, with result None
    where the run paused for bits.  exact_bits=False applies the
    enumerator's loop rules; exact_bits=True applies those of run_machine,
    reading "ran out of program bits" as a request for more.
    """
    stack: list[tm.Bits] = [()]
    while stack:
        prefix = stack.pop()
        m = tm._Machine(prefix, exact_bits=exact_bits, output_prefix=output_prefix)
        res = m.run(max_steps, output_limit)
        yield prefix, res
        if res is None or res.reason == "ran out of program bits":
            if len(prefix) < max_len:
                stack.append(prefix + (1,))
                stack.append(prefix + (0,))


def replay_enumerate(*args, **kwargs):
    entries, log = [], []
    for prefix, res in replay_leaves(*args, **kwargs):
        if res is None:
            continue
        if res.halted and res.bits_consumed == len(prefix):
            entries.append(tm.DomainEntry(prefix, res.output, res.steps))
        elif res.reason == "step budget exhausted":
            log.append(res.bits_consumed)
    return entries, log


def _replay_case(max_len, max_steps, output_prefix, output_limit):
    # ids as pytest names the cases of stacked parametrize decorators
    name = "None" if output_prefix is None else "output_prefix1"
    return pytest.param(max_len, max_steps, output_prefix, output_limit,
                        id=f"{max_len}-{max_steps}-{name}-{output_limit}")


REPLAY_GRID = [
    _replay_case(*case) for case in itertools.product(
        [4, 9, 12], [1, 20, 1000], [None, (0, 1, 1)], [tm.DEFAULT_OUTPUT_LIMIT, 3])
] + [
    # the shortest length at which register-growth loops fit
    _replay_case(14, 10_000, (0, 1, 1), tm.DEFAULT_OUTPUT_LIMIT),
]


class TestInstructionEncodings:
    @pytest.mark.parametrize("room", range(13))
    def test_table_is_every_fully_decoded_string(self, room):
        decoded = []
        for n in range(room + 1):
            for bits in itertools.product((0, 1), repeat=n):
                m = tm._Machine(bits)
                try:
                    err = m._decode_one()
                except tm._NeedBits:
                    continue
                if err is None and m.cursor == n:
                    decoded.append(bits)
        assert tm._instruction_encodings(room) == tuple(sorted(decoded))


class TestLeafMeasure:
    @pytest.mark.parametrize("max_len,max_steps,output_prefix", [
        (12, 1000, None),
        (14, 10_000, (0, 1, 1)),
    ])
    def test_replay_leaves_partition_program_space(self, max_len, max_steps, output_prefix):
        # a leaf owns 2^-depth of program space: depth is bits_consumed, or
        # max_len for a run still paused there
        total = Fraction(0)
        for prefix, res in replay_leaves(max_len, max_steps, output_prefix=output_prefix):
            if res is not None:
                total += Fraction(1, 2 ** res.bits_consumed)
            elif len(prefix) == max_len:
                total += Fraction(1, 2 ** max_len)
        assert total == 1


class TestForkedEnumeration:
    @pytest.mark.parametrize("max_len,max_steps,output_prefix,output_limit", REPLAY_GRID)
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
        flagged = [p for p, res in fork.items() if res is not None
                   and res.reason == "loop detected" and plain[p].reason != "loop detected"]
        assert flagged
        for program in flagged:
            res = tm.run_machine(program, 100_000)
            assert res.status == "timeout", program

    def test_growth_loops_never_halt(self):
        # every branch the register-growth rule ends, re-run at 100x the budget
        flagged = [p for p, res in replay_leaves(14, 1000)
                   if res is not None and res.reason == "register growth"]
        assert flagged
        for program in flagged:
            res = tm.run_machine(program, 100_000)
            assert res.status == "timeout", program


class PerBitMachine(tm._Machine):
    """The machine with the one-bit-at-a-time _emit that the bulk _emit replaced."""

    __slots__ = ()

    def _emit(self, symbols):
        out = self.out
        for b in symbols:
            if self.cap is not None and len(out) >= self.cap:
                return ("halted", "")
            out.append(b)
            if self.output_prefix is not None:
                i = len(out) - 1
                if i >= len(self.output_prefix) or self.output_prefix[i] != b:
                    return ("mismatch", "output left the requested prefix")
        if symbols:
            if self.exact_bits:
                self._seen.clear()
            else:
                self._grown.clear()
                if self.cap is not None:
                    self._seen.clear()
        if self.cap is not None and len(out) >= self.cap:
            return ("halted", "")
        return None


LITERAL_8 = (0, 1, 1, 0, 1, 1, 0, 1)
EMIT_PROGRAMS = {
    "litn": tm.concat(tm.asm_litn(LITERAL_8), tm.asm_halt()),
    "litn-capped-mid": tm.concat(tm.asm_haltat(5), tm.asm_litn(LITERAL_8), tm.asm_halt()),
    "litn-capped-at-end": tm.concat(tm.asm_haltat(8), tm.asm_litn(LITERAL_8), tm.asm_jmp(-2)),
    "litn-loop": tm.concat(tm.asm_litn((0, 1, 1)), tm.asm_jmp(-2)),
    "litn-empty-then-out": tm.concat(tm.asm_litn(()), tm.asm_out(0), tm.asm_halt()),
    "champernowne": tm.prog_champernowne(40),
    "champernowne-uncapped": tm.concat(tm.asm_outb(0), tm.asm_inc(0), tm.asm_jmp(-3)),
    "periodic": tm.prog_periodic((0, 1, 1), 13),
}
EMIT_PREFIXES = {
    "none": None,
    "empty": (),
    "short": (0, 1, 1),
    "mid-litn": (0, 1, 1, 0, 0, 1, 1, 0, 1),
    "whole-litn": LITERAL_8,
    "past-litn": LITERAL_8 + (1, 0, 1, 1, 1, 0),
    "first-bit": (1,),
}
EMIT_LIMITS = [tm.DEFAULT_OUTPUT_LIMIT, 4, 8, 9]


class TestBulkEmit:
    """The slice-at-once _emit against the per-bit one it replaced."""

    @pytest.mark.parametrize("program", EMIT_PROGRAMS.values(), ids=EMIT_PROGRAMS)
    def test_same_result_as_per_bit(self, program):
        for case in itertools.product(EMIT_PREFIXES, EMIT_LIMITS, (True, False)):
            name, limit, exact_bits = case
            prefix = EMIT_PREFIXES[name]
            runs = [cls(program, exact_bits=exact_bits, output_prefix=prefix).run(2000, limit)
                    for cls in (tm._Machine, PerBitMachine)]
            assert runs[0] == runs[1], case

    @settings(max_examples=300, deadline=None)
    @given(
        parts=st.lists(st.one_of(
            st.lists(st.integers(0, 1), max_size=12).map(tm.asm_litn),
            st.integers(0, 1).map(tm.asm_out),
            st.integers(0, 3).map(tm.asm_outb),
            st.tuples(st.integers(0, 3), st.integers(0, 40)).map(lambda a: tm.asm_seti(*a)),
            st.integers(0, 3).map(tm.asm_inc),
            st.integers(0, 3).map(tm.asm_dec),
            st.integers(0, 30).map(tm.asm_haltat),
            st.integers(-4, 2).map(tm.asm_jmp),
            st.tuples(st.integers(0, 3), st.integers(-4, 2)).map(lambda a: tm.asm_jz(*a)),
        ), max_size=8),
        prefix=st.none() | st.lists(st.integers(0, 1), max_size=30).map(tuple),
        limit=st.sampled_from([tm.DEFAULT_OUTPUT_LIMIT, 5, 17]),
        exact_bits=st.booleans(),
        cut=st.integers(0, 6),
    )
    def test_random_programs_same_result_as_per_bit(self, parts, prefix, limit, exact_bits,
                                                    cut):
        # cut drops trailing bits, so some runs pause or run out of bits
        program = tm.concat(*parts, tm.asm_halt())
        program = program[:len(program) - cut]
        runs = [cls(program, exact_bits=exact_bits, output_prefix=prefix).run(500, limit)
                for cls in (tm._Machine, PerBitMachine)]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("limit", EMIT_LIMITS)
    def test_run_machine_same_results(self, limit, monkeypatch):
        bulk = [tm.run_machine(p, 2000, limit) for p in EMIT_PROGRAMS.values()]
        monkeypatch.setattr(tm, "_Machine", PerBitMachine)
        assert [tm.run_machine(p, 2000, limit) for p in EMIT_PROGRAMS.values()] == bulk

    @pytest.mark.parametrize("max_len,max_steps,output_prefix,output_limit", [
        (12, 1000, None, tm.DEFAULT_OUTPUT_LIMIT),
        (12, 1000, None, 2),
        (13, 1000, (0, 1, 1), tm.DEFAULT_OUTPUT_LIMIT),
        (13, 1000, (1, 0), 3),
        (14, 200, (0, 1), tm.DEFAULT_OUTPUT_LIMIT),
    ])
    def test_enumerate_domain_same_entries(self, max_len, max_steps, output_prefix,
                                           output_limit, monkeypatch):
        def enumerate_once():
            log: list[int] = []
            entries = list(tm.enumerate_domain(max_len, max_steps, output_limit,
                                               output_prefix, timeout_log=log))
            return entries, log

        bulk = enumerate_once()
        # the root machine and every forked child are now PerBitMachines
        monkeypatch.setattr(tm, "_Machine", PerBitMachine)
        assert enumerate_once() == bulk
        assert bulk[0]
