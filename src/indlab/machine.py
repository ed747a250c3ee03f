"""A tiny prefix-free register machine for concrete description lengths.

Programs are bit strings.  The machine decodes and executes instructions
while reading program bits strictly on demand; the program proper is defined
as exactly the bits consumed when it halts.  A string that halts after
consuming all of its bits therefore has no halting proper prefix and no
halting proper extension, which realizes a prefix-free domain structurally
instead of via a separate domain check.

Instruction set (4-bit opcodes, MSB first; r/s are 2-bit register fields,
integer operands are Elias-gamma codes of value+1):

    0000 HALT                halt
    0001 OUT0                emit 0
    0010 OUT1                emit 1
    0011 OUTB r              emit the binary numeral of R[r] ("0" for zero)
    0100 LITN n b1..bn       emit the n literal bits that follow
    0101 SETI r n            R[r] <- n
    0110 INC  r              R[r] += 1
    0111 DEC  r              R[r] -= 1, floored at 0
    1000 ADD  r s            R[r] += R[s]
    1001 SUB  r s            R[r] -= R[s], floored at 0
    1010 CPY  r s            R[r] <- R[s]
    1011 JZ   r d delta      if R[r] == 0 jump (d: 0 back, 1 forward)
    1100 JMP  d delta        unconditional jump
    1101 HALTAT n            halt as soon as n output bits exist (truncating)
    1110, 1111               invalid (malformed)

Jumps are in instruction units relative to the next instruction index.
Everything is machine-relative: no universality is claimed, and all
complexity values produced elsewhere are tied to this instruction set.

The operand layouts are one table, _FIELDS, that both the decoder and the
encoder, assemble, read: one reader and one writer per field kind.
enumerate_domain walks the halting domain up to a length.  A run pauses
at the tape's end without decoding; since the encodings are prefix-free,
the enumerator extends a paused program by one whole instruction at a
time, taken from a table of (bits, instruction) pairs that is composed
from _FIELDS with the writers, never decoded, once per walk.  It
ends the branches it can prove divergent (see _Machine._loop_check)
instead of running them to the step budget.  A caller that needs no longer
program can lower the length mid-walk with the generator's send(n); a
search for a shortest program uses that to stop growing programs that
cannot beat its best find.

An exact run (exact_bits, as in run_machine) proves no loop: it returns
what a step-by-step run returns.  Its one cycle test, Brent's, finds a pass
that repeats and skips the passes that would repeat it, counting their
steps and output, up to one pass before the first threshold that could end
the run (see _Machine.run).

Inside the machine bits are bytes of 0 and 1: the tape, the output prefix
and LITN's operand are bytes, the output a bytearray, and the table's
encodings bytes, so a long program or output is one byte per bit and a
slice copies no Python objects.  At the public edge (MachineResult,
DomainEntry, assemble, gamma0_encode and the prog_* generators) bits are
tuples of plain ints.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from typing import Iterator, Optional, Sequence

NUM_REGISTERS = 4
DEFAULT_OUTPUT_LIMIT = 1 << 20
LOOP_TRACK_LIMIT = 4096

OP_HALT = 0
OP_OUT0 = 1
OP_OUT1 = 2
OP_OUTB = 3
OP_LITN = 4
OP_SETI = 5
OP_INC = 6
OP_DEC = 7
OP_ADD = 8
OP_SUB = 9
OP_CPY = 10
OP_JZ = 11
OP_JMP = 12
OP_HALTAT = 13

# Overhead of the literal encoding [LITN gamma0(n) bits HALT] beyond
# n + 2*floor(log2(n+1)) payload bits.
LITERAL_OVERHEAD_BITS = 9
# Loop scaffolding allowance used when bounding compiled generator programs.
MACHINE_OVERHEAD_BITS = 64

# Bits at the public edge; inside _Machine they are bytes of 0 and 1
Bits = tuple[int, ...]

# OUTB's numeral: format(v, "b") as bytes, mapped to the bits 0 and 1
_NUMERAL_BITS = bytes.maketrans(b"01", b"\0\1")
# what OUT0 and OUT1 emit
_BIT = (b"\0", b"\1")


class _NeedBits(Exception):
    """Internal: the decoder ran past the available program bits."""


def _as_bits(values: Sequence[int], what: str) -> bytes:
    """values as bytes of 0 and 1, converted and checked in bulk.

    Integer entries (bools and numpy integers too) are taken.  Any other
    entry, or an integer other than 0 and 1, raises a ValueError that names
    it: a str "1" or a float 1.0 is not read as a bit.  A bytes object is
    checked as it is, any other sequence as a tuple of its entries.
    """
    if not isinstance(values, bytes):
        values = tuple(values)
    try:
        raw = bytes(values)
    except (TypeError, ValueError):  # an entry is no integer, or not in [0, 256)
        raw = None
    if raw is None or raw.translate(None, b"\0\1"):
        bad = next(v for v in values if not _fits(v, 2))
        raise ValueError(f"{what} must be 0/1, got {bad!r}")
    return raw


def _fits(value, stop: Optional[int]) -> bool:
    """value is an integer (a bool or numpy integer too) >= 0 and below stop."""
    try:
        v = operator.index(value)
    except TypeError:
        return False
    return v >= 0 and (stop is None or v < stop)


@dataclass(frozen=True)
class MachineResult:
    """Outcome of one run: halted/timeout/malformed are all in-band."""

    status: str
    output: Bits
    bits_consumed: int
    steps: int
    reason: str

    @property
    def halted(self) -> bool:
        return self.status == "halted"


class _Machine:
    """One execution over a fixed bit prefix.

    If exact_bits is False, running out of program bits pauses the run (run
    returns None) before the instruction it needs, with no decode when the
    tape ends right there, and the domain enumerator forks the paused
    machine onto longer tapes (see _fork); otherwise the run is malformed.
    exact_bits=False also selects the enumerator's loop rules (_loop_check).

    Bits are bytes of 0 and 1 here: the tape and output_prefix are bytes
    and out is a bytearray; only a MachineResult's output is a tuple.
    """

    __slots__ = ("tape", "cursor", "exact_bits", "instrs", "pc", "regs", "out", "steps",
                 "cap", "output_prefix", "other_step", "_seen", "_grown")

    def __init__(self, program: Sequence[int], exact_bits: bool = True,
                 output_prefix: Optional[Sequence[int]] = None):
        self.tape = bytes(program)
        self.cursor = 0
        self.exact_bits = exact_bits
        self.instrs: list[tuple] = []
        self.pc = 0
        self.regs = [0] * NUM_REGISTERS
        self.out = bytearray()
        self.steps = 0
        self.cap: Optional[int] = None
        self.output_prefix = bytes(output_prefix) if output_prefix is not None else None
        # step count at the last executed instruction other than INC, JZ, JMP
        self.other_step = 0
        self._seen: set[tuple] = set()
        self._grown: dict[tuple, tuple[int, int]] = {}

    # -- bit reading ------------------------------------------------------

    def _read_bit(self) -> int:
        if self.cursor >= len(self.tape):
            raise _NeedBits
        b = self.tape[self.cursor]
        self.cursor += 1
        return b

    def _take(self, n: int) -> bytes:
        """The next n tape bits, all or none."""
        start = self.cursor
        end = start + n
        if end > len(self.tape):
            raise _NeedBits
        self.cursor = end
        return self.tape[start:end]

    def _read_fixed(self, width: int) -> int:
        v = 0
        for b in self._take(width):
            v = (v << 1) | b
        return v

    def _read_gamma0(self) -> int:
        zeros = 0
        while not self._read_bit():
            zeros += 1
        return (1 << zeros) - 1 + self._read_fixed(zeros)

    def _read_literal(self) -> bytes:
        """LITN's operand: a gamma0 count n, then n bits taken whole."""
        return self._take(self._read_gamma0())

    # -- decoding ---------------------------------------------------------

    def _decode_one(self) -> Optional[str]:
        """Decode the next instruction from the tape; None on success.

        Appends the tuple (opcode, operand fields in _FIELDS order).  Raises
        _NeedBits when the tape ends inside the instruction; the caller
        then restores the cursor to the instruction's start.
        """
        op = self._read_fixed(4)
        if op >= len(_FIELDS):
            return f"invalid opcode {op}"
        self.instrs.append((op, *[read(self) for read in _FIELDS[op]]))
        return None

    # -- running ----------------------------------------------------------

    def run(self, max_steps: int,
            output_limit: int = DEFAULT_OUTPUT_LIMIT) -> Optional[MachineResult]:
        """Run until a leaf outcome, or None when paused for program bits.

        One loop over local state, written back when the run pauses or ends.
        A pause is the tape's end (pc past the decoded instructions, cursor
        at len(tape)) and decodes nothing; with exact_bits it is malformed.
        An emit appends one slice, as if bit by bit, cut at the HALTAT cap or
        just past the first bit that leaves output_prefix.  Only an emit or
        HALTAT can reach the cap, and only an emit the output limit, so only
        there are they checked.  At a taken jump the enumerator
        (exact_bits=False) applies its loop rules, _loop_check.

        With exact_bits a taken jump runs Brent's cycle test instead, which
        changes no result.  It compares (pc, cursor, cap, registers) with one
        saved state, re-saved with the output length and step count at jumps
        1, 2, 4, 8, ....  A match means the S steps since the save repeat:
        control reads only the registers, the decoded instructions and cap,
        an equal cursor means the same instructions were decoded, and the
        output steers nothing but the thresholds.  The run adds k*S steps and
        k copies of the L bits the pass emitted, k = (max_steps-1-steps)//S - 1
        or for L > 0 the lesser of that and (T-1-len(out))//L - 1, where
        T = min(cap, output_limit + 1): one whole pass is left before any
        threshold, and the last passes run step by step.  A silent pass
        (L = 0) can end only on the step budget: it fills no cap, passes no
        output limit, leaves no output_prefix, and a HALTAT in it that did
        not halt once never will.  A pass with output is skipped only with no
        output_prefix and no HALTAT since the save, which can move the cap.
        """
        instrs, regs, out, prefix, exact = (
            self.instrs, self.regs, self.out, self.output_prefix, self.exact_bits)
        pc, steps, cap, other_step = self.pc, self.steps, self.cap, self.other_step
        n_instrs = len(instrs)
        # Brent's saved state; saved_len, saved_steps and haltat (a HALTAT ran
        # since the save) are set with it
        saved, jumps, power = None, 0, 1
        status, reason = "halted", ""  # the exit of a bare break
        while True:
            if steps >= max_steps:
                status, reason = "timeout", "step budget exhausted"
                break
            if pc >= n_instrs:
                start = self.cursor
                if start < len(self.tape):
                    try:
                        err = self._decode_one()
                    except _NeedBits:  # the tape ends inside instruction pc
                        self.cursor = start
                    else:
                        if err is None:
                            n_instrs += 1
                            continue
                        status, reason = "malformed", err
                        break
                status, reason = ("malformed", "ran out of program bits") if exact else (None, "")
                break
            instr = instrs[pc]
            op = instr[0]
            steps += 1
            if op == OP_JMP or op == OP_JZ:
                if op == OP_JZ and regs[instr[1]]:
                    pc += 1
                    continue
                target = pc + 1 + instr[-1] if instr[-2] else pc + 1 - instr[-1]
                if target < 0:
                    status, reason = "malformed", "jump before program start"
                    break
                pc = target
                if not exact:
                    reason = self._loop_check(pc, steps, other_step, cap)
                    if reason:
                        status = "timeout"
                        break
                    continue
                jumps += 1
                state = (pc, self.cursor, cap, tuple(regs))
                if state == saved:  # the pass since the save repeats
                    grown, spent = len(out) - saved_len, steps - saved_steps
                    k = (max_steps - 1 - steps) // spent - 1
                    if grown:
                        last = output_limit if cap is None else min(cap - 1, output_limit)
                        k = 0 if haltat or prefix is not None else min(
                            k, (last - len(out)) // grown - 1)
                    if k > 0:
                        out += out[len(out) - grown:] * k
                        steps += k * spent
                    saved_len, saved_steps, haltat = len(out), steps, False
                elif jumps >= power:
                    saved, saved_len, saved_steps, haltat = state, len(out), steps, False
                    power *= 2
                continue
            if op == OP_INC:
                regs[instr[1]] += 1
                pc += 1
                continue
            if OP_OUT0 <= op <= OP_LITN:
                if op == OP_LITN:
                    symbols = instr[1]
                elif op == OP_OUTB:
                    symbols = format(regs[instr[1]], "b").encode().translate(_NUMERAL_BITS)
                else:
                    symbols = _BIT[op - OP_OUT0]
                start = len(out)
                if cap is not None:
                    symbols = symbols[:cap - start]  # start < cap, or the run had halted
                if prefix is not None and prefix[start:start + len(symbols)] != symbols:
                    i = next(i for i in range(len(symbols))
                             if prefix[start + i:start + i + 1] != symbols[i:i + 1])
                    out += symbols[:i + 1]  # through the first bit off the prefix
                    status, reason = "mismatch", "output left the requested prefix"
                    break
                if symbols:
                    out += symbols
                    if not exact:
                        self._grown.clear()
                        if cap is not None:
                            self._seen.clear()
                    if cap is not None and len(out) >= cap:
                        break
                    if len(out) > output_limit:
                        status, reason = "timeout", "output limit exceeded"
                        break
            elif op == OP_SETI:
                regs[instr[1]] = instr[2]
            elif op == OP_HALT:
                break
            elif op == OP_DEC:
                regs[instr[1]] = max(0, regs[instr[1]] - 1)
            elif op == OP_ADD:
                regs[instr[1]] += regs[instr[2]]
            elif op == OP_SUB:
                regs[instr[1]] = max(0, regs[instr[1]] - regs[instr[2]])
            elif op == OP_CPY:
                regs[instr[1]] = regs[instr[2]]
            else:  # OP_HALTAT, the last opcode of _FIELDS
                cap, haltat = instr[1], True
                if len(out) >= cap:
                    break
            # INC, JZ and JMP continued above; the growth rule sees the rest
            other_step = steps
            pc += 1

        self.pc, self.steps, self.cap, self.other_step = pc, steps, cap, other_step
        if status is None:
            return None
        return MachineResult(status, tuple(out), self.cursor, steps, reason)

    def _loop_check(self, pc: int, steps: int, other_step: int, cap: Optional[int]) -> str:
        """The enumerator's proof of divergence at a jump to pc: why, or "".

        Every key holds pc and cursor; an equal cursor means no program bit
        was read in between, so the decoded program is the same too.  Three
        rules, each sound under its condition:

        - Exact recurrence, while a HALTAT cap is set: (pc, cursor, len(out),
          cap, regs) repeats.  An equal output length means nothing was
          emitted in between, so the whole state repeats.  Since keys with
          an older output length can never recur, the set is cleared on
          each emit.
        - Output loop: (pc, cursor, regs) repeats.  Needs that no HALTAT cap
          is set (a cap is never unset, so none was set in between): then
          output cannot steer control, and emitted bits can only end the run
          by an output-limit timeout or a prefix mismatch, never by a halt.
          Under this rule the set is not cleared on emit.
        - Register growth: (pc, cursor, len(out), cap)
          repeats, only INC, JZ and JMP ran since the last visit to it, and
          the set of zero registers is unchanged.  Only INC wrote, so every
          register is >= its value at that visit and the zero set can only
          have shrunk; it is unchanged iff the count of zero registers is.
          Each register zero at that visit was never incremented since, and
          the others are still nonzero, so every JZ on the path from there
          decided as it will decide again: the same path runs again, with
          the same instructions, no output and the same zero set at its end,
          and so on forever.  The path condition matters: a SUB or DEC can
          bring a grown register back to zero and reach a HALT.  This rule
          keeps its own table of the last visit (step count, zero count) per
          key, cleared on each emit.

        The keys of the first two rules differ in length, so they never
        match each other.  Each table tracks at most LOOP_TRACK_LIMIT keys
        stored since the last fork (see _fork); past that a new key is
        checked but not stored.  A proven loop is reported as a (sound)
        non-halting timeout.
        """
        regs, cursor, length = self.regs, self.cursor, len(self.out)
        key = (pc, cursor, tuple(regs)) if cap is None else (pc, cursor, length, cap, tuple(regs))
        if key in self._seen:
            return "loop detected"
        if len(self._seen) < LOOP_TRACK_LIMIT:
            self._seen.add(key)
        key = (pc, cursor, length, cap)  # register growth
        zeros = regs.count(0)
        last = self._grown.get(key)
        if last is not None and last[0] >= other_step and last[1] == zeros:
            return "register growth"
        if last is not None or len(self._grown) < LOOP_TRACK_LIMIT:
            self._grown[key] = (steps, zeros)
        return ""

    def _fork(self, encoding: tuple[bytes, tuple]) -> "_Machine":
        """A copy of this paused machine whose tape gains one instruction.

        encoding is a (bits, instruction) entry of _instruction_encodings;
        the child appends both and moves its cursor past the bits, so it
        never decodes them.  It starts with empty loop tables: every stored
        key holds a cursor at most the pause's, which the child's cursor is
        already past and never moves back to, so no key could match again.
        """
        bits, instruction = encoding
        child = object.__new__(_Machine)
        child.cursor = self.cursor + len(bits)
        child.exact_bits = self.exact_bits
        child.pc = self.pc
        child.steps = self.steps
        child.cap = self.cap
        child.output_prefix = self.output_prefix
        child.other_step = self.other_step
        child.tape = self.tape + bits
        child.instrs = self.instrs + [instruction]
        child.regs = self.regs.copy()
        child.out = self.out.copy()
        child._seen = set()
        child._grown = {}
        return child


# The operand fields of each opcode, read in order after it: a 2-bit
# register, a direction bit, a gamma0 integer, or LITN's n literal bits.  An
# opcode past the end of the table (1110, 1111) is invalid.
_REG = partial(_Machine._read_fixed, width=2)
_DIR, _INT, _LIT = _Machine._read_bit, _Machine._read_gamma0, _Machine._read_literal
_FIELDS = (
    (), (), (), (_REG,), (_LIT,), (_REG, _INT),                  # HALT OUT0 OUT1 OUTB LITN SETI
    (_REG,), (_REG,), (_REG, _REG), (_REG, _REG), (_REG, _REG),  # INC DEC ADD SUB CPY
    (_REG, _DIR, _INT), (_DIR, _INT), (_INT,),                   # JZ JMP HALTAT
)


def _field_encodings(field, room: int) -> Iterator[tuple[bytes, object]]:
    """(bits, operand) for every operand of a field kind of _FIELDS whose
    bits, as its writer in _WRITERS gives them, fit in room."""
    if field is _REG or field is _DIR:
        operands = range(NUM_REGISTERS if field is _REG else 2)
    else:
        counts = range((1 << (room + 1) // 2) - 1)  # every n whose gamma0 code fits
        operands = counts if field is _INT else (
            bytes(payload) for n in counts if n + len(gamma0_encode(n)) <= room
            for payload in product((0, 1), repeat=n))
    for value in operands:
        bits = _WRITERS[field](value)
        if len(bits) <= room:
            yield bits, value


@cache
def _instruction_encodings(max_len: int) -> tuple[tuple[tuple[bytes, tuple], ...], ...]:
    """tables[room]: every valid instruction of at most room bits as (bits,
    instruction), sorted by bits, for rooms 0 to max_len.

    Composed, not decoded: each opcode's numeral, then every operand of each
    field that still fits, in the bits assemble writes.  An entry holds its
    instruction, so a forked child never decodes.  Sorted order is the
    order in which a walk over single bits, 0 before 1, meets a prefix-free
    set.  Built on first use per max_len and kept: 751 encodings at room
    16, 25,647 at room 24, most of them LITN payloads.
    """
    found = []

    def compose(bits: bytes, instruction: tuple, fields: tuple) -> None:
        if not fields:
            found.append((bits, instruction))
            return
        for field_bits, value in _field_encodings(fields[0], max_len - len(bits)):
            compose(bits + field_bits, (*instruction, value), fields[1:])

    if max_len >= 4:  # an opcode takes 4 bits
        for op, fields in enumerate(_FIELDS):
            compose(_numeral(op, 4), (op,), fields)
    found.sort(key=operator.itemgetter(0))
    return tuple(tuple(e for e in found if len(e[0]) <= room) for room in range(max_len + 1))


def run_machine(
    program_bits: Sequence[int],
    max_steps: int,
    output_limit: int = DEFAULT_OUTPUT_LIMIT,
) -> MachineResult:
    """Run the machine on a fixed bit string.

    "halted" implies bits_consumed <= len(program_bits), and re-running the
    consumed prefix alone reproduces the output.  A run that never halts
    ends on the step budget or the output limit, as a step-by-step run does.
    A loop whose state recurs is fast-forwarded (see _Machine.run): it costs
    a few interpreted passes, not one per pass, and steps still counts every
    step it stands for.
    """
    program = _as_bits(program_bits, "program bits")
    max_steps = _operand(max_steps, None, "max_steps")
    output_limit = _operand(output_limit, None, "output_limit")
    return _Machine(program, exact_bits=True).run(max_steps, output_limit)


@dataclass(frozen=True)
class DomainEntry:
    """A minimal halting program discovered by enumeration."""

    program: Bits
    output: Bits
    steps: int


def enumerate_domain(
    max_len: int,
    max_steps: int,
    output_limit: int = DEFAULT_OUTPUT_LIMIT,
    output_prefix: Optional[Sequence[int]] = None,
    timeout_log: Optional[list[int]] = None,
) -> Iterator[DomainEntry]:
    """Every program of length <= max_len that halts within the step budget.

    Walks the prefix tree of demanded instructions: a program is extended
    only while the machine actually asks for more bits, so each halting
    program is visited exactly once and no halting program is a proper
    prefix of another.  A run pauses at the tape's end, when it needs the
    next instruction, and decodes nothing there.  Its children are the
    paused machine forked once per valid instruction encoding that fits in
    the remaining length, in bit order, each gaining the encoding's bits
    and its instruction from _instruction_encodings (so no child decodes)
    and resuming from the paused state (so no prefix is re-run).
    The encodings are prefix-free, so this is the order in which a walk
    over single bits, 0 before 1, meets them, and the entry order is the
    same as re-running each bit prefix from bit 0.  An invalid opcode or an
    encoding that does not fit gets no child.

    The three divergence rules of _Machine._loop_check apply: a state that
    recurs with no output in between; while no HALTAT cap is set, a state
    (pc, cursor, registers) that recurs whatever was emitted; and a loop of
    INC, JZ and JMP that keeps the set of zero registers.  Each ends the
    branch as a non-halting timeout that resolves it.

    With output_prefix set, branches whose output leaves that prefix are
    abandoned (used by the exact-K search); a prefix entry other than 0 and
    1 raises ValueError.  timeout_log, when given,
    records bits_consumed for every branch that exhausts the step budget;
    those branches are unresolved and bound any exactness claim.

    send(n) lowers max_len to n for the rest of the walk (a larger n than
    the current bound changes nothing; anything but an integer >= 0 raises
    ValueError) and returns the next entry, as next() would.  After it no
    branch grows past n bits and no entry longer than n is yielded: a
    machine paused before the send is forked only onto encodings that fit
    in n bits.  A run depends only on its tape, so every program of at
    most n bits is still visited, in the same order and with the same
    timeouts, as without the send.  next() alone gives the unbounded stream.
    """
    max_len = _operand(max_len, None, "max_len")
    max_steps = _operand(max_steps, None, "max_steps")
    output_limit = _operand(output_limit, None, "output_limit")
    if output_prefix is not None:
        output_prefix = _as_bits(output_prefix, "output prefix bits")
    tables = _instruction_encodings(max_len)

    def children(m: _Machine) -> Iterator[_Machine]:
        """m forked once per encoding that fits in max_len as it stands at
        the fork, which a send may have lowered since the pause."""
        for encoding in tables[max_len - len(m.tape)]:
            if len(m.tape) + len(encoding[0]) <= max_len:
                yield m._fork(encoding)

    stack: list[Iterator[_Machine]] = [
        iter([_Machine((), exact_bits=False, output_prefix=output_prefix)])
    ]
    while stack:
        m = next(stack[-1], None)
        if m is None:
            stack.pop()
            continue
        res = m.run(max_steps, output_limit)
        if res is None:
            stack.append(children(m))
        elif res.status == "halted":
            bound = yield DomainEntry(tuple(m.tape), res.output, res.steps)
            if bound is not None:
                max_len = min(max_len, _operand(bound, None, "a sent length bound"))
        elif res.status == "timeout":
            if timeout_log is not None and res.reason == "step budget exhausted":
                timeout_log.append(res.bits_consumed)
        # malformed / mismatch: no extension can recover; prune.


# -- assembler ------------------------------------------------------------


def _operand(value, stop: Optional[int], what: str) -> int:
    """value as an int if _fits(value, stop), else a ValueError that names it."""
    if not _fits(value, stop):
        bound = "" if stop is None else f" below {stop}"
        raise ValueError(f"{what} must be an integer >= 0{bound}, got {value!r}")
    return operator.index(value)


def _numeral(value: int, width: int) -> bytes:
    """value in binary, MSB first and zero-padded to width, one 0/1 byte per bit."""
    return format(value, f"0{width}b").encode().translate(_NUMERAL_BITS)


def gamma0_encode(n: int) -> Bits:
    """Self-delimiting code of n >= 0: the Elias gamma code of m = n + 1,
    which is m in binary after one 0 per digit past its leading 1."""
    m = _operand(n, None, "gamma0 value") + 1
    return tuple(_numeral(m, 2 * m.bit_length() - 1))


def _write_literal(bits: Sequence[int]) -> bytes:
    raw = _as_bits(bits, "LITN payload bits")
    return bytes(gamma0_encode(len(raw))) + raw


# The writer of each field kind of _FIELDS: the inverse of its reader, and
# the check of its operand.
_WRITERS = {
    _REG: lambda r: _numeral(_operand(r, NUM_REGISTERS, "register"), 2),
    _DIR: lambda d: _as_bits((d,), "jump direction"),
    _INT: lambda n: bytes(gamma0_encode(n)),
    _LIT: _write_literal,
}


def assemble(*instructions: tuple) -> Bits:
    """The program bits of instructions, each a tuple as the decoder appends
    it: the opcode, then one operand per field of _FIELDS[opcode].

    So (OP_SETI, r, n) sets register r to n, (OP_LITN, bits) emits bits, and
    (OP_JZ, r, d, delta) and (OP_JMP, d, delta) jump delta instructions from
    the next one, back for d = 0 and forward for d = 1.  An opcode outside
    _FIELDS, a wrong operand count or an operand its field cannot hold
    raises a ValueError.
    """
    parts = []
    for op, *operands in instructions:
        code = _operand(op, len(_FIELDS), "opcode")
        fields = _FIELDS[code]
        if len(operands) != len(fields):
            raise ValueError(f"opcode {code} takes {len(fields)} operands, got {len(operands)}")
        parts.append(_numeral(code, 4))
        parts += [_WRITERS[field](v) for field, v in zip(fields, operands)]
    return tuple(b"".join(parts))


# -- canonical generator programs -----------------------------------------


def prog_literal(data: Sequence[int]) -> Bits:
    """Verbatim emitter: len = n + 2*floor(log2(n+1)) + LITERAL_OVERHEAD_BITS."""
    return assemble((OP_LITN, data), (OP_HALT,))


def prog_periodic(pattern: Sequence[int], n: int) -> Bits:
    """Pattern repeated (and truncated) to exactly n bits."""
    pattern = _as_bits(pattern, "pattern bits")
    if not pattern:
        raise ValueError("pattern must be non-empty")
    if n == 0:
        return assemble((OP_HALT,))
    # 0: HALTAT n | 1..p: OUT | p+1: JMP -> 1
    return assemble((OP_HALTAT, n), *((OP_OUT0 + b,) for b in pattern),
                    (OP_JMP, 0, len(pattern) + 1))


def prog_champernowne(n: int, start_at_one: bool = False) -> Bits:
    """First n bits of the base-2 numeral concatenation 0,1,10,11,100,..."""
    if n == 0:
        return assemble((OP_HALT,))
    # 0: HALTAT n | 1: SETI R0 | 2: OUTB R0 | 3: INC R0 | 4: JMP -> 2
    return assemble((OP_HALTAT, n), (OP_SETI, 0, 1 if start_at_one else 0),
                    (OP_OUTB, 0), (OP_INC, 0), (OP_JMP, 0, 3))
