import hashlib
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indlab import machine as tm
from indlab import randomness as rl
from indlab.machine import (OP_ADD, OP_CPY, OP_DEC, OP_HALT, OP_HALTAT, OP_INC, OP_JMP, OP_JZ,
                            OP_LITN, OP_OUT0, OP_OUT1, OP_OUTB, OP_SETI, OP_SUB, assemble)

from builders import bits, gamma0_length


class TestGammaCoding:
    @given(st.integers(0, 10**9))
    def test_gamma0_roundtrip(self, n):
        bits = tm.gamma0_encode(n)
        assert len(bits) == gamma0_length(n)
        m = tm._Machine(bits + (1, 1, 1), exact_bits=True)
        assert m._read_gamma0() == n

    def test_small_codes(self):
        assert tm.gamma0_encode(0) == (1,)
        assert tm.gamma0_encode(1) == (0, 1, 0)
        assert tm.gamma0_encode(2) == (0, 1, 1)
        assert tm.gamma0_encode(3) == (0, 0, 1, 0, 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="gamma0 value must be an integer >= 0, got -1$"):
            tm.gamma0_encode(-1)
        with pytest.raises(ValueError, match="got 1.0$"):
            tm.gamma0_encode(1.0)


# One strategy per field kind of _FIELDS, for operands its field can hold
FIELD_VALUES = {
    tm._REG: st.integers(0, tm.NUM_REGISTERS - 1),
    tm._DIR: st.integers(0, 1),
    tm._INT: st.integers(0, 10**9),
    tm._LIT: st.lists(st.integers(0, 1), max_size=40).map(tuple),
}
INSTRUCTIONS = st.one_of(*(
    st.tuples(st.just(op), *(FIELD_VALUES[field] for field in fields))
    for op, fields in enumerate(tm._FIELDS)
))


def as_tuples(instrs):
    """instrs with each LITN operand as a tuple of ints, as assemble takes it."""
    return [(op, tuple(operands[0])) if op == OP_LITN else (op, *operands)
            for op, *operands in instrs]


class TestAssemble:
    def test_every_encoding_of_up_to_16_bits(self):
        # each composed entry's bits are those assemble writes for its instruction
        encodings = tm._instruction_encodings(16)[16]
        assert len(encodings) == 751
        for bits, instruction in encodings:
            assert bytes(assemble(instruction)) == bits, instruction

    @given(st.lists(INSTRUCTIONS, max_size=8))
    def test_decoding_gives_back_the_instructions(self, instructions):
        m = tm._Machine(assemble(*instructions))
        while m.cursor < len(m.tape):
            assert m._decode_one() is None
        assert as_tuples(m.instrs) == instructions
        assert m.cursor == len(m.tape)

    def test_no_instructions_is_the_empty_program(self):
        assert assemble() == ()

    @pytest.mark.parametrize("instruction,message", [
        ((14,), "opcode must be an integer >= 0 below 14, got 14"),
        ((15,), "opcode must be an integer >= 0 below 14, got 15"),
        ((-1,), "opcode must be an integer >= 0 below 14, got -1"),
        ((OP_HALT, 0), "opcode 0 takes 0 operands, got 1"),
        ((OP_SETI, 0), "opcode 5 takes 2 operands, got 1"),
        ((OP_INC, 4), "register must be an integer >= 0 below 4, got 4"),
        ((OP_INC, 1.0), "register must be an integer >= 0 below 4, got 1.0"),
        ((OP_JMP, 2, 1), "jump direction must be 0/1, got 2"),
        ((OP_SETI, 0, -1), "gamma0 value must be an integer >= 0, got -1"),
    ], ids=["op14", "op15", "op-1", "extra-operand", "missing-operand", "register4",
            "float-register", "direction2", "negative-int"])
    def test_rejects_what_no_field_holds(self, instruction, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            assemble((OP_OUT1,), instruction)


GRID_N = [*range(70), 1000, 10**5, 2**20 + 3]
PATTERNS = [(0,), (1,), (0, 1), (1, 1, 0), (0, 0, 1, 0, 1, 1, 1)]
PAYLOAD = tuple(random.Random(2003).choices((0, 1), k=2**20 + 3))


def programs_digest(programs):
    h = hashlib.sha256()
    for p in programs:
        h.update(bytes(p) + b"\2")
    return h.hexdigest()


class TestFrozenPrograms:
    """The generator programs on a grid of n, against digests frozen from
    the per-opcode encoders that assemble replaced."""

    def test_constant(self):
        # the constant emitter is the periodic one on a one-bit pattern
        assert programs_digest(tm.prog_periodic((b,), n) for b in (0, 1) for n in GRID_N) \
            == "e203564e8c3ee59f7badcd0a6751fc6a4ed5567f3052be3b9416a98f721ebdd4"

    def test_periodic(self):
        assert programs_digest(tm.prog_periodic(p, n) for p in PATTERNS for n in GRID_N) \
            == "1230a84f5e5cbe957234a3a619e2f92d70c8108df816d53e3d005e15e811fc94"

    def test_champernowne(self):
        assert programs_digest(tm.prog_champernowne(n, s) for s in (False, True)
                               for n in GRID_N) \
            == "ab32ca42291a5ee7f0cea1484b7d1c951c7dfad1b007c858ac4488a01be114b4"

    def test_literal(self):
        assert programs_digest(tm.prog_literal(PAYLOAD[:n]) for n in GRID_N) \
            == "95ad427fbe729b7c79cd849d7e0aa65fb0a403a8a049390817d9f1e7d0821b6a"


class TestRunMachine:
    def test_halt_program(self):
        res = tm.run_machine(assemble((OP_HALT,)), 100)
        assert res.halted and res.output == () and res.bits_consumed == 4

    def test_zero_step_budget_times_out(self):
        assert tm.run_machine(assemble((OP_HALT,)), 0).status == "timeout"

    def test_emit_zero_four_times(self):
        # the bundled constant emitter, frozen from one canonical run
        res = tm.run_machine(tm.prog_periodic((0,), 4), 1000)
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
        res = tm.run_machine(assemble((OP_JMP, 0, 5)), 100)
        assert res.status == "malformed"

    def test_negative_output_limit_rejected(self):
        # SETI; HALT used to time out on "output limit exceeded" after 1 step
        with pytest.raises(ValueError, match="^output_limit must be an integer >= 0, got -1$"):
            tm.run_machine(assemble((OP_SETI, 0, 1), (OP_HALT,)), 10, -1)

    @pytest.mark.parametrize("value", [7.5, "5", -1], ids=["float", "str", "negative"])
    @pytest.mark.parametrize("name", ["max_steps", "output_limit"])
    def test_budget_not_an_integer_rejected(self, name, value):
        # a max_steps of 7.5 let prog_periodic((0,), 4) halt after 8 steps, where
        # 7 times out, and "5" raised a bare TypeError from a comparison
        budget = {"max_steps": 1000, name: value}
        with pytest.raises(ValueError) as error:
            tm.run_machine(tm.prog_periodic((0,), 4), **budget)
        assert str(error.value) == f"{name} must be an integer >= 0, got {value!r}"

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
        ((0, "1"), "'1'"),
    ], ids=["out-of-range", "str", "float", "str-entry"])
    def test_malformed_literal_payload_is_named(self, data, bad):
        with pytest.raises(ValueError, match=f"LITN payload bits must be 0/1, got {bad}$"):
            assemble((OP_LITN, data))

    def test_malformed_pattern_is_named(self):
        with pytest.raises(ValueError, match="pattern bits must be 0/1, got 2$"):
            tm.prog_periodic((0, 2), 6)

    def test_integer_bits_of_any_type_are_plain_ints(self):
        program = tm.prog_literal((True, False, True))
        assert program == tm.prog_literal((1, 0, 1))
        assert all(type(b) is int for b in program)

    def test_consumed_prefix_reproduces_output(self):
        # prefix-freeness witness: rerun exactly the consumed bits
        program = tm.prog_periodic((1,), 3) + (1, 0, 1)  # trailing junk
        res = tm.run_machine(program, 1000)
        assert res.halted and res.bits_consumed == len(program) - 3
        again = tm.run_machine(program[: res.bits_consumed], 1000)
        assert again.halted and again.output == res.output

    def test_determinism_steps_and_output(self):
        program = tm.prog_champernowne(40)
        a = tm.run_machine(program, 10_000)
        b = tm.run_machine(program, 10_000)
        assert (a.output, a.steps, a.bits_consumed) == (b.output, b.steps, b.bits_consumed)

    def test_uncapped_loop_output_runs_to_the_limit(self):
        # OUT1 OUT0 JMP -3 never halts and repeats no whole state
        res = tm.run_machine(assemble((OP_OUT1,), (OP_OUT0,), (OP_JMP, 0, 3)), 5000, 64)
        assert (res.status, res.reason) == ("timeout", "output limit exceeded")
        assert res.output == (1, 0) * 32 + (1,)

    def test_loop_detected_early(self):
        # JMP to itself: state recurrence proves divergence within a few steps
        res = tm.run_machine(assemble((OP_JMP, 0, 1)), 10_000)
        assert res.status == "timeout"
        assert res.reason == "loop detected"
        assert res.steps < 10

    def test_empty_literal_keeps_loop_tracking(self):
        # LITN 0 emits nothing, so it must not reset the loop detector
        program = assemble((OP_LITN, ()), (OP_JMP, 0, 2))
        res = tm.run_machine(program, 100_000)
        assert res.status == "timeout"
        assert res.reason == "loop detected"
        assert res.steps < 10

    def test_growing_loop_is_flagged_by_the_enumerator_rule(self):
        # the same loop under the enumerator's rules: a repeated jump target
        # after INC only, with the same zero registers, proves divergence
        program = assemble((OP_INC, 0), (OP_JMP, 0, 2))
        res = tm._Machine(program, exact_bits=False).run(10_000)
        assert res.status == "timeout"
        assert res.reason == "register growth"
        assert res.steps < 10

    def test_growth_rule_needs_an_inc_jz_jmp_path(self):
        # R0 and R1 both grow from one jump-target visit to the next, with
        # the same zero set, but the SUB on the path brings R1 to 0 and the
        # JZ then reaches the HALT
        program = assemble(
            (OP_SETI, 1, 1),
            (OP_SUB, 1, 0),     # loop head: R1 -= R0
            (OP_JZ, 1, 1, 3),   # to HALT
            (OP_INC, 0),
            (OP_INC, 1),
            (OP_JMP, 0, 5),     # to the SUB
            (OP_HALT,),
        )
        assert len(program) == 55
        res = tm._Machine(program, exact_bits=False).run(1000)
        assert res.status == "halted"
        assert res.steps == 14
        assert res.bits_consumed == 55

    def test_growth_rule_needs_the_same_zero_registers(self):
        # the third pass meets the loop head with R1 no longer zero, so the
        # first JZ now falls through to the HALT
        program = assemble(
            (OP_JZ, 1, 1, 1),   # loop head: skip the HALT while R1 == 0
            (OP_HALT,),
            (OP_JZ, 0, 1, 1),   # first pass: skip the INC R1
            (OP_INC, 1),
            (OP_INC, 0),
            (OP_JMP, 0, 6),     # to the loop head
        )
        res = tm._Machine(program, exact_bits=False).run(1000)
        assert res.status == "halted"
        assert res.steps == 11

    def test_growing_loop_hits_step_budget(self):
        # INC r; JMP back: the register grows, so no state ever recurs
        program = assemble((OP_INC, 0), (OP_JMP, 0, 2))
        res = tm.run_machine(program, 500)
        assert res.status == "timeout"
        assert res.steps == 500

    def test_output_limit_guard(self):
        program = assemble((OP_OUT1,), (OP_JMP, 0, 2))
        res = tm.run_machine(program, 10**6, output_limit=100)
        assert res.status == "timeout"
        assert "output limit" in res.reason

    def test_forward_jump_consumes_skipped_bits(self):
        # jump over an OUT1; the skipped instruction is decoded (bits consumed)
        program = assemble((OP_JMP, 1, 1), (OP_OUT1,), (OP_OUT0,), (OP_HALT,))
        res = tm.run_machine(program, 100)
        assert res.halted
        assert res.output == (0,)
        assert res.bits_consumed == len(program)

    def test_jz_taken_and_not_taken(self):
        # R0 == 0: skip the OUT1; then R0 = 1: fall through to OUT1
        program = assemble(
            (OP_JZ, 0, 1, 1),   # skip next
            (OP_OUT1,),
            (OP_SETI, 0, 1),
            (OP_JZ, 0, 1, 1),   # not taken now
            (OP_OUT0,),
            (OP_HALT,),
        )
        res = tm.run_machine(program, 100)
        assert res.halted and res.output == (0,)

    def test_register_arithmetic(self):
        # R0 = 5; R1 = 2; R0 -= R1; R0 += R1... exercised via OUTB numerals
        program = assemble(
            (OP_SETI, 0, 5),
            (OP_SETI, 1, 2),
            (OP_SUB, 0, 1),     # 3
            (OP_OUTB, 0),       # "11"
            (OP_ADD, 0, 1),     # 5
            (OP_OUTB, 0),       # "101"
            (OP_CPY, 2, 1),
            (OP_OUTB, 2),       # "10"
            (OP_DEC, 2),
            (OP_DEC, 2),
            (OP_DEC, 2),        # floors at 0
            (OP_OUTB, 2),       # "0"
            (OP_HALT,),
        )
        res = tm.run_machine(program, 100)
        assert res.output == (1, 1, 1, 0, 1, 1, 0, 0)


class TestPublicEdge:
    """Bits leave the machine as tuples of plain ints, whatever it keeps inside."""

    @pytest.mark.parametrize("bits", [
        pytest.param(lambda: tm.run_machine(tm.prog_champernowne(40), 1000).output,
                     id="run_machine-output"),
        pytest.param(lambda: tm.run_machine(tm.prog_literal((1, 0, 1)), 100).output,
                     id="run_machine-literal-output"),
        pytest.param(lambda: tm.run_machine(tm.prog_periodic((1,), 4), 3).output,
                     id="run_machine-timeout-output"),
        pytest.param(lambda: next(tm.enumerate_domain(8, 100)).program,
                     id="DomainEntry-program"),
        pytest.param(lambda: [e for e in tm.enumerate_domain(13, 100)
                              if e.output][-1].output, id="DomainEntry-output"),
        pytest.param(lambda: assemble((OP_LITN, b"\1\0"), (OP_HALT,)), id="assemble"),
        pytest.param(lambda: tm.gamma0_encode(5), id="gamma0_encode"),
        pytest.param(lambda: tm.prog_literal(b"\1\0"), id="prog_literal"),
        pytest.param(lambda: tm.prog_periodic(b"\1\0", 9), id="prog_periodic"),
        pytest.param(lambda: tm.prog_champernowne(9), id="prog_champernowne"),
        pytest.param(lambda: rl.k_upper_bound(bits("0110100110010110")).witness,
                     id="k_upper_bound-witness"),
        pytest.param(lambda: rl.exact_k_small(bits("01"), 14, 1000).witness,
                     id="exact_k_small-witness"),
    ])
    def test_bits_are_a_tuple_of_plain_ints(self, bits):
        value = bits()
        assert type(value) is tuple and value
        assert all(type(b) is int and b in (0, 1) for b in value)


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
        res = tm.run_machine(tm.prog_periodic((bit,), n), 4 * n + 64)
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
        with pytest.raises(ValueError, match="^max_steps must be an integer >= 0, got -1$"):
            list(tm.enumerate_domain(8, -1))
        with pytest.raises(ValueError, match="^output_limit must be an integer >= 0, got -1$"):
            list(tm.enumerate_domain(8, 100, -1))
        with pytest.raises(ValueError, match=r"^max_len must be an integer >= 0, got 7\.5$"):
            list(tm.enumerate_domain(7.5, 100))

    @pytest.mark.parametrize("value", [7.5, "5", -1], ids=["float", "str", "negative"])
    @pytest.mark.parametrize("name", ["max_steps", "output_limit"])
    def test_budget_not_an_integer_rejected(self, name, value):
        budget = {"max_steps": 100, name: value}
        with pytest.raises(ValueError) as error:
            list(tm.enumerate_domain(8, **budget))
        assert str(error.value) == f"{name} must be an integer >= 0, got {value!r}"

    @pytest.mark.parametrize("prefix,bad", [((0, 2), "2"), ((1, 0.0), "0.0"), ("01", "'0'")],
                             ids=["two", "float", "str"])
    def test_malformed_output_prefix_is_named(self, prefix, bad):
        with pytest.raises(ValueError, match=f"^output prefix bits must be 0/1, got {bad}$"):
            list(tm.enumerate_domain(8, 100, output_prefix=prefix))

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


def walk_with_sends(max_len, max_steps, sends, **kwargs):
    """(entries, timeout log) of enumerate_domain, sending sends[i] in
    reply to the i-th entry."""
    log: list[int] = []
    walk = tm.enumerate_domain(max_len, max_steps, timeout_log=log, **kwargs)
    entries = []
    try:
        entries.append(next(walk))
        while True:
            entries.append(walk.send(sends.get(len(entries) - 1)))
    except StopIteration:
        return entries, log


class TestSendBound:
    @pytest.mark.parametrize("max_len,max_steps,output_prefix", [
        (14, 1000, None), (14, 10_000, (0, 1, 1)), (12, 2, None)])
    @pytest.mark.parametrize("at", [0, 3, 40])
    @pytest.mark.parametrize("bound", [0, 9, 12])
    def test_no_longer_entry_after_a_send(self, max_len, max_steps, output_prefix, at, bound):
        full, full_log = walk_with_sends(max_len, max_steps, {}, output_prefix=output_prefix)
        at = min(at, len(full) - 1)
        entries, log = walk_with_sends(max_len, max_steps, {at: bound},
                                       output_prefix=output_prefix)
        # every program of at most bound bits, and its timeouts, as before
        assert entries == full[:at + 1] + [e for e in full[at + 1:] if len(e.program) <= bound]
        assert [c for c in log if c <= bound] == [c for c in full_log if c <= bound]
        assert Counter(log) <= Counter(full_log)

    def test_a_send_at_or_above_max_len_changes_nothing(self):
        full = walk_with_sends(13, 1000, {})
        for bound in (13, 14, 100):
            assert walk_with_sends(13, 1000, {0: bound, 5: bound}) == full

    def test_a_larger_send_does_not_loosen_the_bound(self):
        assert walk_with_sends(14, 1000, {2: 10, 4: 14}) == walk_with_sends(14, 1000, {2: 10})

    def test_negative_send_rejected(self):
        walk = tm.enumerate_domain(10, 100)
        next(walk)
        with pytest.raises(ValueError,
                           match="^a sent length bound must be an integer >= 0, got -1$"):
            walk.send(-1)

    @pytest.mark.parametrize("bound", [7.5, "5"], ids=["float", "str"])
    def test_non_integer_send_rejected(self, bound):
        # 7.5 was read as 7, and "5" raised a bare TypeError from a comparison
        walk = tm.enumerate_domain(10, 100)
        next(walk)
        with pytest.raises(ValueError) as error:
            walk.send(bound)
        assert str(error.value) == f"a sent length bound must be an integer >= 0, got {bound!r}"


class TestSameWalk:
    """Entry streams and timeout logs, frozen from the walk that decoded
    its instruction table room by room and dropped the children a send made
    too long only after forking them."""

    @pytest.mark.parametrize("max_len,max_steps,output_prefix,sends,entries,timeouts,digest", [
        (12, 1000, None, {}, 114, 0,
         "0007f59e4b90e72b615da4332cfedb054123201ebc9281ce9003b689756ae322"),
        (16, 10_000, None, {}, 985, 0,
         "c42c8e08be35d161d075bdf14bb6d259c83b64200d52fbf6753651abac9f2114"),
        (16, 10_000, (0, 1, 1), {}, 698, 0,
         "7b5e876c2d4e5109991a887537e875f390910ae2e74d1c29929f9c0464c52dd2"),
        (16, 10_000, None, {40: 12, 300: 14}, 151, 0,
         "87fcf47026003ba52783acf05038c3cf5f8027becce73527471086a0071d5f32"),
        (16, 10_000, (0, 1, 1), {5: 13}, 190, 0,
         "1a49f8a24c450934c919773b08f1385402147d8d73cb1cef4382d8c977ade808"),
        (14, 2, None, {}, 208, 2693,
         "ecc1ead743d0fa644c75726208961b1245d46b76c096b47d42c781ee10fb16c9"),
        (16, 3, (0, 1, 1), {10: 13}, 193, 97,
         "947e118b5dfffcb731805e61c9e47ef1cf0c8306f83c60f5becdeca8ac6720ef"),
    ], ids=["12-1e3", "16-1e4", "16-1e4-011", "16-1e4-send", "16-1e4-011-send",
            "14-2-timeouts", "16-3-011-send-timeouts"])
    def test_stream_and_log_as_pinned(self, max_len, max_steps, output_prefix, sends,
                                      entries, timeouts, digest):
        found, log = walk_with_sends(max_len, max_steps, sends, output_prefix=output_prefix)
        assert (len(found), len(log)) == (entries, timeouts)
        stream = [(e.program, e.output, e.steps) for e in found]
        assert hashlib.sha256(repr((stream, log)).encode()).hexdigest() == digest


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


def reference_decode(m):
    """The per-opcode decoder that the operand table _FIELDS replaced."""
    op = m._read_fixed(4)
    if op in (tm.OP_HALT, tm.OP_OUT0, tm.OP_OUT1):
        m.instrs.append((op,))
    elif op == tm.OP_OUTB:
        m.instrs.append((op, m._read_fixed(2)))
    elif op == tm.OP_LITN:
        m.instrs.append((op, m._take(m._read_gamma0())))
    elif op == tm.OP_SETI:
        r = m._read_fixed(2)
        m.instrs.append((op, r, m._read_gamma0()))
    elif op in (tm.OP_INC, tm.OP_DEC):
        m.instrs.append((op, m._read_fixed(2)))
    elif op in (tm.OP_ADD, tm.OP_SUB, tm.OP_CPY):
        r = m._read_fixed(2)
        m.instrs.append((op, r, m._read_fixed(2)))
    elif op == tm.OP_JZ:
        r = m._read_fixed(2)
        d = m._read_bit()
        m.instrs.append((op, r, d, m._read_gamma0()))
    elif op == tm.OP_JMP:
        d = m._read_bit()
        m.instrs.append((op, d, m._read_gamma0()))
    elif op == tm.OP_HALTAT:
        m.instrs.append((op, m._read_gamma0()))
    else:
        return f"invalid opcode {op}"
    return None


class TestTableDecoder:
    def test_same_as_the_per_opcode_decoder_on_every_short_string(self):
        # same instruction, cursor and error, and _NeedBits on the same strings
        for n in range(15):
            for bits in itertools.product((0, 1), repeat=n):
                outcomes = []
                for decode in (tm._Machine._decode_one, reference_decode):
                    m = tm._Machine(bits)
                    try:
                        outcomes.append((decode(m), m.instrs, m.cursor))
                    except tm._NeedBits:
                        outcomes.append("needs bits")
                assert outcomes[0] == outcomes[1], bits


def reference_encodings(room):
    """The decoding search that composing the table replaced: a string is
    extended only while the decoder asks for more bits, so each encoding is
    met once, 0 before 1."""
    found = []
    stack = [b""]
    while stack:
        bits = stack.pop()
        m = tm._Machine(bits)
        try:
            err = m._decode_one()
        except tm._NeedBits:
            if len(bits) < room:
                stack += [bits + b"\1", bits + b"\0"]
            continue
        if err is None:
            found.append((bits, m.instrs[0]))
    return tuple(found)


class TestInstructionEncodings:
    def test_composed_table_is_the_decoding_search(self):
        tables = tm._instruction_encodings(20)
        assert len(tables) == 21
        for room, table in enumerate(tables):
            assert table == reference_encodings(room), room
            # a room filtered from a larger table is the table composed there
            assert table == tm._instruction_encodings(room)[room], room
        assert len(tables[16]) == 751

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
                    decoded.append((bytes(bits), m.instrs[0]))
        assert tm._instruction_encodings(room)[room] == tuple(sorted(decoded))

    def test_forked_children_never_decode(self, monkeypatch):
        # from a cold table cache, no decode at all: the table is composed,
        # each child carries its instruction, and a pause, the tape's end,
        # decodes nothing (ReferenceMachine, which decodes at a pause, makes
        # 11,341 calls)
        tm._instruction_encodings.cache_clear()
        calls = []
        decode = tm._Machine._decode_one

        def counting_decode(m):
            calls.append(m.cursor)  # counted before a failing call raises
            return decode(m)

        monkeypatch.setattr(tm._Machine, "_decode_one", counting_decode)
        assert len(list(tm.enumerate_domain(16, 10_000))) == 985
        assert calls == []


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


class ReferenceMachine(tm._Machine):
    """The step machine that the run loop over local state replaced.

    run reads and writes the machine's fields on every step, emits through
    _emit, checks every loop rule in _loop_check and decodes at every pause,
    where the decode can only fail.  It keeps bits as the machine did before
    they became bytes: the tape and output prefix are tuples of ints, out is
    a list and a LITN operand is a tuple.
    """

    __slots__ = ()

    def __init__(self, program, exact_bits=True, output_prefix=None):
        self.tape = tuple(program)
        self.cursor = 0
        self.exact_bits = exact_bits
        self.instrs = []
        self.pc = 0
        self.regs = [0] * tm.NUM_REGISTERS
        self.out = []
        self.steps = 0
        self.cap = None
        self.output_prefix = tuple(output_prefix) if output_prefix is not None else None
        self.other_step = 0
        self._seen = set()
        self._grown = {}

    def _fork(self, encoding):
        # the table's bits and LITN operands are bytes: the child gets tuples
        bits, instruction = encoding
        return super()._fork((tuple(bits), *as_tuples([instruction])))

    def run(self, max_steps, output_limit=tm.DEFAULT_OUTPUT_LIMIT):
        emit = self._emit
        while True:
            if self.cap is not None and len(self.out) >= self.cap:
                return self._result("halted")
            if self.steps >= max_steps:
                return self._result("timeout", "step budget exhausted")
            while self.pc >= len(self.instrs):
                start = self.cursor
                try:
                    err = self._decode_one()
                except tm._NeedBits:
                    self.cursor = start
                    if self.exact_bits:
                        return self._result("malformed", "ran out of program bits")
                    return None
                if err is not None:
                    return self._result("malformed", err)
            instr = self.instrs[self.pc]
            op = instr[0]
            self.steps += 1

            if op == tm.OP_HALT:
                return self._result("halted")
            if op == tm.OP_OUT0 or op == tm.OP_OUT1:
                status = emit((op - tm.OP_OUT0,))
            elif op == tm.OP_OUTB:
                status = emit(tuple(format(self.regs[instr[1]], "b").encode()
                                    .translate(tm._NUMERAL_BITS)))
            elif op == tm.OP_LITN:
                status = emit(instr[1])
            elif op == tm.OP_SETI:
                self.regs[instr[1]] = instr[2]
                status = None
            elif op == tm.OP_INC:
                self.regs[instr[1]] += 1
                self.pc += 1
                continue
            elif op == tm.OP_DEC:
                r = instr[1]
                if self.regs[r]:
                    self.regs[r] -= 1
                status = None
            elif op == tm.OP_ADD:
                self.regs[instr[1]] += self.regs[instr[2]]
                status = None
            elif op == tm.OP_SUB:
                r, s = instr[1], instr[2]
                self.regs[r] = max(0, self.regs[r] - self.regs[s])
                status = None
            elif op == tm.OP_CPY:
                self.regs[instr[1]] = self.regs[instr[2]]
                status = None
            elif op == tm.OP_JZ or op == tm.OP_JMP:
                if op == tm.OP_JZ and self.regs[instr[1]]:
                    self.pc += 1
                    continue
                d, delta = instr[-2:]
                target = self.pc + 1 + delta if d else self.pc + 1 - delta
                if target < 0:
                    return self._result("malformed", "jump before program start")
                self.pc = target
                status = self._loop_check()
                if status:
                    return self._result("timeout", status)
                continue
            elif op == tm.OP_HALTAT:
                self.cap = instr[1]
                status = None
            else:  # pragma: no cover - decode rejects invalid opcodes
                return self._result("malformed", f"invalid opcode {op}")

            if status is not None:
                return self._result(*status)
            if len(self.out) > output_limit:
                return self._result("timeout", "output limit exceeded")
            self.other_step = self.steps
            self.pc += 1

    def _emit(self, symbols):
        out = self.out
        start = len(out)
        if self.cap is not None:
            symbols = symbols[:self.cap - start]
        prefix = self.output_prefix
        if prefix is not None and prefix[start:start + len(symbols)] != symbols:
            end = start
            while end < len(prefix) and prefix[end] == symbols[end - start]:
                end += 1
            out.extend(symbols[:end - start + 1])
            return ("mismatch", "output left the requested prefix")
        out.extend(symbols)
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

    def _loop_check(self):
        exact = self.exact_bits
        if self.cap is None and not exact:
            key = (self.pc, self.cursor, tuple(self.regs))
        else:
            key = (self.pc, self.cursor, len(self.out), self.cap, tuple(self.regs))
        if key in self._seen:
            return "loop detected"
        if len(self._seen) < tm.LOOP_TRACK_LIMIT:
            self._seen.add(key)
        if exact:
            return ""
        key = (self.pc, self.cursor, len(self.out), self.cap)
        zeros = self.regs.count(0)
        last = self._grown.get(key)
        if last is not None and last[0] >= self.other_step and last[1] == zeros:
            return "register growth"
        if last is not None or len(self._grown) < tm.LOOP_TRACK_LIMIT:
            self._grown[key] = (self.steps, zeros)
        return ""

    def _result(self, status, reason=""):
        return tm.MachineResult(status, tuple(self.out), self.cursor, self.steps, reason)


class PerBitMachine(ReferenceMachine):
    """The reference machine with the one-bit-at-a-time _emit that preceded it."""

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
    "litn": assemble((OP_LITN, LITERAL_8), (OP_HALT,)),
    "litn-capped-mid": assemble((OP_HALTAT, 5), (OP_LITN, LITERAL_8), (OP_HALT,)),
    "litn-capped-at-end": assemble((OP_HALTAT, 8), (OP_LITN, LITERAL_8), (OP_JMP, 0, 2)),
    "litn-loop": assemble((OP_LITN, (0, 1, 1)), (OP_JMP, 0, 2)),
    "litn-empty-then-out": assemble((OP_LITN, ()), (OP_OUT0,), (OP_HALT,)),
    "champernowne": tm.prog_champernowne(40),
    "champernowne-uncapped": assemble((OP_OUTB, 0), (OP_INC, 0), (OP_JMP, 0, 3)),
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
    """The slice-at-once emit against the per-bit one and the reference machine."""

    @pytest.mark.parametrize("program", EMIT_PROGRAMS.values(), ids=EMIT_PROGRAMS)
    def test_same_result_as_per_bit(self, program):
        for case in itertools.product(EMIT_PREFIXES, EMIT_LIMITS, (True, False)):
            name, limit, exact_bits = case
            prefix = EMIT_PREFIXES[name]
            runs = [cls(program, exact_bits=exact_bits, output_prefix=prefix).run(2000, limit)
                    for cls in (tm._Machine, ReferenceMachine, PerBitMachine)]
            assert runs[0] == runs[1] == runs[2], case

    @settings(max_examples=300, deadline=None)
    @given(
        parts=st.lists(st.one_of(
            st.tuples(st.just(OP_LITN), st.lists(st.integers(0, 1), max_size=12)),
            st.tuples(st.sampled_from([OP_OUT0, OP_OUT1])),
            st.tuples(st.sampled_from([OP_OUTB, OP_INC, OP_DEC]), st.integers(0, 3)),
            st.tuples(st.just(OP_SETI), st.integers(0, 3), st.integers(0, 40)),
            st.tuples(st.just(OP_HALTAT), st.integers(0, 30)),
            st.tuples(st.just(OP_JMP), st.integers(0, 1), st.integers(0, 4)),
            st.tuples(st.just(OP_JZ), st.integers(0, 3), st.integers(0, 1), st.integers(0, 4)),
        ), max_size=8),
        prefix=st.none() | st.lists(st.integers(0, 1), max_size=30).map(tuple),
        limit=st.sampled_from([tm.DEFAULT_OUTPUT_LIMIT, 5, 17]),
        exact_bits=st.booleans(),
        cut=st.integers(0, 6),
    )
    def test_random_programs_same_result_as_per_bit(self, parts, prefix, limit, exact_bits,
                                                    cut):
        # cut drops trailing bits, so some runs pause or run out of bits
        program = assemble(*parts, (OP_HALT,))
        program = program[:len(program) - cut]
        runs = [cls(program, exact_bits=exact_bits, output_prefix=prefix).run(500, limit)
                for cls in (tm._Machine, ReferenceMachine, PerBitMachine)]
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("limit", EMIT_LIMITS)
    def test_run_machine_same_results(self, limit, monkeypatch):
        results = [tm.run_machine(p, 2000, limit) for p in EMIT_PROGRAMS.values()]
        monkeypatch.setattr(tm, "_Machine", ReferenceMachine)
        assert [tm.run_machine(p, 2000, limit) for p in EMIT_PROGRAMS.values()] == results

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

        found = enumerate_once()
        # the root machine and every forked child are now ReferenceMachines
        monkeypatch.setattr(tm, "_Machine", ReferenceMachine)
        assert enumerate_once() == found
        assert found[0]


def run_both(program, exact_bits, output_prefix, max_steps, output_limit):
    """The run of the local-state loop and of ReferenceMachine on one tape.

    A paused run is given as the state that _fork copies into each child,
    with its output and LITN operands as tuples of ints.
    """
    outcomes = []
    for cls in (tm._Machine, ReferenceMachine):
        m = cls(program, exact_bits=exact_bits, output_prefix=output_prefix)
        res = m.run(max_steps, output_limit)
        outcomes.append(res if res is not None else (
            m.cursor, as_tuples(m.instrs), m.pc, m.regs, tuple(m.out), m.steps, m.cap,
            m.other_step))
    return outcomes


SHORT_PREFIXES = {"none": None, "empty": (), "01": (0, 1), "1": (1,)}
SEEDED_BITS = tuple(random.Random(3554).choices((0, 1), k=10_000))
LONG_PROGRAMS = {
    "champernowne": tm.prog_champernowne(10_000),
    "periodic": tm.prog_periodic((0, 1, 1), 10_000),
    "constant": tm.prog_periodic((1,), 10_000),
    "literal": tm.prog_literal(SEEDED_BITS),
}


class TestLocalStateLoop:
    """The run loop over local state against ReferenceMachine, the loop it replaced."""

    @pytest.mark.parametrize("exact_bits", [True, False])
    @pytest.mark.parametrize("output_prefix", SHORT_PREFIXES.values(), ids=SHORT_PREFIXES)
    def test_every_string_up_to_14_bits(self, output_prefix, exact_bits):
        for n in range(15):
            for bits in itertools.product((0, 1), repeat=n):
                for limit in (tm.DEFAULT_OUTPUT_LIMIT, 0, 9):
                    ours, reference = run_both(bits, exact_bits, output_prefix, 300, limit)
                    assert ours == reference, (bits, limit)

    @pytest.mark.parametrize("program", LONG_PROGRAMS.values(), ids=LONG_PROGRAMS)
    def test_generator_programs_under_run_machine(self, program, monkeypatch):
        # k_upper_bound re-runs a witness of n bits within 8n + 256 steps
        max_steps = 8 * 10_000 + 256
        result = tm.run_machine(program, max_steps)
        assert result.halted and len(result.output) == 10_000
        monkeypatch.setattr(tm, "_Machine", ReferenceMachine)
        assert tm.run_machine(program, max_steps) == result


def result_pin(result):
    """A run's result with its output as length and sha256."""
    return (result.status, result.steps, result.bits_consumed, result.reason,
            len(result.output), hashlib.sha256(bytes(result.output)).hexdigest())


PERIODIC_011 = tm.prog_periodic((0, 1, 1), 10**4)
OUT1_LOOP = assemble((OP_OUT1,), (OP_JMP, 0, 2))
LITN_LOOP = assemble((OP_LITN, (0, 1, 1)), (OP_JMP, 0, 2))
# name: (program, max_steps, output_limit)
REPEATING_RUNS = {
    # the audit's witnesses for x_|N, re-run under 8N + 256 steps and N output bits
    **{f"periodic-01-{n}": (tm.prog_periodic((0, 1), n), 8 * n + 256, n)
       for n in (10**3, 10**4, 10**5)},
    # HALTAT, then passes of 4 steps and 3 bits: pass 1000 ends at step 4001
    # with 3000 bits, and the cap of 10^4 falls inside a pass
    "periodic-011": (PERIODIC_011, 80_256, tm.DEFAULT_OUTPUT_LIMIT),
    **{f"periodic-011-steps-{s}": (PERIODIC_011, s, tm.DEFAULT_OUTPUT_LIMIT)
       for s in (4000, 4001, 4002)},
    **{f"periodic-011-limit-{n}": (PERIODIC_011, 80_256, n) for n in (2999, 3000, 3001)},
    "out1-loop": (OUT1_LOOP, 3 << 20, tm.DEFAULT_OUTPUT_LIMIT),
    "out1-loop-steps": (OUT1_LOOP, 100_001, tm.DEFAULT_OUTPUT_LIMIT),
    "litn-loop": (LITN_LOOP, 3 << 20, tm.DEFAULT_OUTPUT_LIMIT),
    "litn-loop-steps": (LITN_LOOP, 100_001, tm.DEFAULT_OUTPUT_LIMIT),
    "haltat-in-body": (assemble((OP_OUT1,), (OP_HALTAT, 5000), (OP_OUT0,), (OP_JMP, 0, 4)),
                       100_000, tm.DEFAULT_OUTPUT_LIMIT),
    # the cap is 10^5 at every jump, but 10^4 while each pass emits
    "two-caps-in-body": (assemble((OP_HALTAT, 10_000), (OP_OUT1,), (OP_HALTAT, 100_000),
                                  (OP_JMP, 0, 4)), 10**6, tm.DEFAULT_OUTPUT_LIMIT),
}
# name: (status, steps, bits_consumed, reason, output length, output sha256)
REPEATING_PINS = {
    "periodic-01-1000": ("halted", 1500, 41, "", 1000,
                         "a397a563ae79e726a32a764b5336d80c7b7f34c8e721acdd429c328a739a0779"),
    "periodic-01-10000": ("halted", 15000, 49, "", 10000,
                          "e59fdd28f0002f60f10655da4064d901e835f5534859ea76fb06f981a2e251c1"),
    "periodic-01-100000": ("halted", 150000, 55, "", 100000,
                           "b727cad0bd1f37c227110bdedb465d1fa50aaaaf0655037dd4df1340f4e991fc"),
    "periodic-011": ("halted", 13334, 53, "", 10000,
                     "802ee20e773eb04dd7d6943c5c07bcd43d060ffd21298f6fda7df97f144757a2"),
    "periodic-011-steps-4000": (
        "timeout", 4000, 53, "step budget exhausted", 3000,
        "a9276a3ff1adbeb50e14448862f3fcc3a82661620eab5310eb8b6f997e9a899b"),
    "periodic-011-steps-4001": (
        "timeout", 4001, 53, "step budget exhausted", 3000,
        "a9276a3ff1adbeb50e14448862f3fcc3a82661620eab5310eb8b6f997e9a899b"),
    "periodic-011-steps-4002": (
        "timeout", 4002, 53, "step budget exhausted", 3001,
        "891f1f91d04c063060166d7f6d72ec302e919874704c0540ff682f1d7b1bba93"),
    "periodic-011-limit-2999": (
        "timeout", 4000, 53, "output limit exceeded", 3000,
        "a9276a3ff1adbeb50e14448862f3fcc3a82661620eab5310eb8b6f997e9a899b"),
    "periodic-011-limit-3000": (
        "timeout", 4002, 53, "output limit exceeded", 3001,
        "891f1f91d04c063060166d7f6d72ec302e919874704c0540ff682f1d7b1bba93"),
    "periodic-011-limit-3001": (
        "timeout", 4003, 53, "output limit exceeded", 3002,
        "591eb38765b2afab6dd65038924e2b2a0bc02b195b1075a000f661e095ed52a0"),
    "out1-loop": ("timeout", 2097153, 12, "output limit exceeded", 1048577,
                  "9301803fdab97f7cc1553cac441bf2bf045c0c5da11270bfbf4c92606c6ea491"),
    "out1-loop-steps": ("timeout", 100001, 12, "step budget exhausted", 50001,
                        "d4c25f70992c99d096279b173a6d111d25f404a7c75613db4eef81d4bda54818"),
    "litn-loop": ("timeout", 699051, 20, "output limit exceeded", 1048578,
                  "944f7962be225722f1698d8090dce4592493210bc4785e1184efa003a62b975e"),
    "litn-loop-steps": ("timeout", 100001, 20, "step budget exhausted", 150003,
                        "d5f50abc6080b8cc6a64ed4700b73059b80c2e4c4b5832b107eb4f92422b8a01"),
    "haltat-in-body": ("halted", 9999, 47, "", 5000,
                       "5004b6bb19512c61272331810def8833b030565fe830b150754dbda64f4b24e2"),
    "two-caps-in-body": ("halted", 39998, 82, "", 10000,
                         "684ad25fdc2bbb80cbc910dd1bde6d5499ccf860ca6ee44704b77ec445271353"),
}


class TestRepeatingLoops:
    """run_machine on loops whose state recurs with more output each pass."""

    @pytest.mark.parametrize("name", REPEATING_RUNS)
    def test_result_pinned(self, name):
        assert result_pin(tm.run_machine(*REPEATING_RUNS[name])) == REPEATING_PINS[name]

    def test_fast_forward_skips_the_passes(self):
        # a step-by-step run of x_|N's witness interprets all 50,000 passes,
        # each at least one traced line of _Machine.run per step
        run_code = tm._Machine.run.__code__
        lines = 0

        def count_lines(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return count_lines

        def trace_run(frame, event, arg):
            return count_lines if frame.f_code is run_code else None

        previous = sys.gettrace()
        sys.settrace(trace_run)
        try:
            result = tm.run_machine(*REPEATING_RUNS["periodic-01-100000"])
        finally:
            sys.settrace(previous)
        assert result_pin(result) == REPEATING_PINS["periodic-01-100000"]
        assert 0 < lines < 5_000

    @settings(max_examples=200, deadline=None)
    @given(
        prologue=st.lists(st.one_of(
            st.tuples(st.just(OP_SETI), st.integers(0, 3), st.integers(0, 6)),
            st.tuples(st.just(OP_HALTAT), st.integers(0, 3000)),
        ), max_size=3),
        body=st.lists(st.one_of(
            st.tuples(st.sampled_from([OP_OUT0, OP_OUT1])),
            st.tuples(st.just(OP_LITN), st.lists(st.integers(0, 1), max_size=5)),
            st.tuples(st.sampled_from([OP_OUTB, OP_INC, OP_DEC]), st.integers(0, 3)),
            st.tuples(st.sampled_from([OP_ADD, OP_SUB, OP_CPY]), st.integers(0, 3),
                      st.integers(0, 3)),
            st.tuples(st.just(OP_SETI), st.integers(0, 3), st.integers(0, 6)),
            st.tuples(st.just(OP_HALTAT), st.integers(0, 3000)),
            # forward within the body, to the back jump, to the HALT or past the tape
            st.tuples(st.just(OP_JZ), st.integers(0, 3), st.just(1), st.integers(0, 3)),
        ), max_size=5),
        emit=st.one_of(
            st.tuples(st.sampled_from([OP_OUT0, OP_OUT1])),
            st.tuples(st.just(OP_LITN), st.lists(st.integers(0, 1), min_size=1, max_size=5)),
            st.tuples(st.just(OP_OUTB), st.integers(0, 3)),
            st.none(),
        ),
        at=st.integers(0, 5),
        passes=st.integers(1, 3000),
        offset=st.integers(-2, 2),
        budget=st.one_of(st.integers(100, 20_000), st.none()),
        limit_near_passes=st.booleans(),
    )
    def test_random_loops_match_the_reference(self, prologue, body, emit, at, passes, offset,
                                              budget, limit_near_passes):
        # the body, most often with an emit in it, then a jump back to its
        # start; a JZ can leave for the HALT
        if emit is not None:
            body.insert(at, emit)
        if not body:
            body = [(OP_OUT1,)]
        program = assemble(*prologue, *body, (OP_JMP, 0, len(body) + 1), (OP_HALT,))
        period = sum(1 if op in (OP_OUT0, OP_OUT1) else len(args[0]) if op == OP_LITN else 0
                     for op, *args in body)
        if budget is None:  # near the end of a pass that runs every instruction once
            budget = max(0, len(prologue) + passes * (len(body) + 1) + offset)
        limit = max(0, passes * period + offset) if limit_near_passes else tm.DEFAULT_OUTPUT_LIMIT
        ours = tm._Machine(program).run(budget, limit)
        reference = ReferenceMachine(program).run(budget, limit)
        for field in ("status", "reason", "steps", "bits_consumed", "output"):
            assert getattr(ours, field) == getattr(reference, field), field
