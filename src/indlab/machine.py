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

enumerate_domain walks the halting domain up to a length.  Since the
encodings are prefix-free, it extends a paused program by one whole
instruction encoding at a time, and it ends the branches it can prove
divergent (see _Machine._loop_check) instead of running them to the step
budget.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
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

Bits = tuple[int, ...]

# OUTB's numeral: format(v, "b") as bytes, mapped to the bits 0 and 1
_NUMERAL_BITS = bytes.maketrans(b"01", b"\0\1")


class _NeedBits(Exception):
    """Internal: the decoder ran past the available program bits."""


def _as_bits(values: Sequence[int], what: str) -> Bits:
    """values as a tuple of the ints 0 and 1, converted and checked in bulk.

    Integer entries (bools and numpy integers too) become plain ints.  Any
    other entry, or an integer other than 0 and 1, raises a ValueError that
    names it: a str "1" or a float 1.0 is not read as a bit.
    """
    values = tuple(values)
    try:
        raw = bytes(values)
    except (TypeError, ValueError):  # an entry is no integer, or not in [0, 256)
        raw = None
    if raw is None or raw.translate(None, b"\0\1"):
        bad = next(v for v in values if not _is_bit(v))
        raise ValueError(f"{what} must be 0/1, got {bad!r}")
    return tuple(raw)


def _is_bit(value) -> bool:
    try:
        return operator.index(value) in (0, 1)
    except TypeError:
        return False


def gamma_encode(m: int) -> Bits:
    """Elias gamma code of m >= 1."""
    if m < 1:
        raise ValueError(f"gamma code needs m >= 1, got {m}")
    b = format(m, "b")
    return tuple(int(c) for c in "0" * (len(b) - 1) + b)


def gamma0_encode(n: int) -> Bits:
    """Self-delimiting code of n >= 0 (gamma of n+1)."""
    if n < 0:
        raise ValueError(f"gamma0 code needs n >= 0, got {n}")
    return gamma_encode(n + 1)


def gamma0_length(n: int) -> int:
    return 2 * (n + 1).bit_length() - 1


@dataclass(frozen=True)
class MachineResult:
    """Outcome of one run: halted/timeout/malformed are all in-band."""

    status: str
    output: Bits
    bits_consumed: int
    steps: int
    reason: str = ""

    @property
    def halted(self) -> bool:
        return self.status == "halted"


class _Machine:
    """One execution over a fixed bit prefix.

    If exact_bits is False, running out of program bits pauses the run (run
    returns None) before the instruction it could not decode, and the run
    can be resumed on a longer tape (the domain enumerator forks it, see
    _fork); otherwise it is malformed.  exact_bits=False also selects the
    enumerator's loop rules (_loop_check).
    """

    __slots__ = ("tape", "cursor", "exact_bits", "instrs", "pc", "regs", "out", "steps",
                 "cap", "output_prefix", "other_step", "_seen", "_grown")

    def __init__(self, program: Sequence[int], exact_bits: bool = True,
                 output_prefix: Optional[Sequence[int]] = None):
        self.tape = tuple(program)
        self.cursor = 0
        self.exact_bits = exact_bits
        self.instrs: list[tuple] = []
        self.pc = 0
        self.regs = [0] * NUM_REGISTERS
        self.out: list[int] = []
        self.steps = 0
        self.cap: Optional[int] = None
        self.output_prefix = tuple(output_prefix) if output_prefix is not None else None
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

    def _take(self, n: int) -> Bits:
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

    # -- decoding ---------------------------------------------------------

    def _decode_one(self) -> Optional[str]:
        """Decode the next instruction from the tape; None on success.

        Raises _NeedBits when the tape ends inside the instruction; the
        caller then restores the cursor to the instruction's start.
        """
        op = self._read_fixed(4)
        if op in (OP_HALT, OP_OUT0, OP_OUT1):
            self.instrs.append((op,))
        elif op == OP_OUTB:
            self.instrs.append((op, self._read_fixed(2)))
        elif op == OP_LITN:
            self.instrs.append((op, self._take(self._read_gamma0())))
        elif op == OP_SETI:
            r = self._read_fixed(2)
            self.instrs.append((op, r, self._read_gamma0()))
        elif op in (OP_INC, OP_DEC):
            self.instrs.append((op, self._read_fixed(2)))
        elif op in (OP_ADD, OP_SUB, OP_CPY):
            r = self._read_fixed(2)
            self.instrs.append((op, r, self._read_fixed(2)))
        elif op == OP_JZ:
            r = self._read_fixed(2)
            d = self._read_bit()
            self.instrs.append((op, r, d, self._read_gamma0()))
        elif op == OP_JMP:
            d = self._read_bit()
            self.instrs.append((op, d, self._read_gamma0()))
        elif op == OP_HALTAT:
            self.instrs.append((op, self._read_gamma0()))
        else:
            return f"invalid opcode {op}"
        return None

    # -- running ----------------------------------------------------------

    def run(self, max_steps: int,
            output_limit: int = DEFAULT_OUTPUT_LIMIT) -> Optional[MachineResult]:
        """Run until a leaf outcome, or None when paused for program bits."""
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
                except _NeedBits:
                    self.cursor = start
                    if self.exact_bits:
                        return self._result("malformed", "ran out of program bits")
                    return None
                if err is not None:
                    return self._result("malformed", err)
            instr = self.instrs[self.pc]
            op = instr[0]
            self.steps += 1

            if op == OP_HALT:
                return self._result("halted")
            if op == OP_OUT0 or op == OP_OUT1:
                status = emit((op - OP_OUT0,))
            elif op == OP_OUTB:
                status = emit(tuple(format(self.regs[instr[1]], "b").encode()
                                    .translate(_NUMERAL_BITS)))
            elif op == OP_LITN:
                status = emit(instr[1])
            elif op == OP_SETI:
                self.regs[instr[1]] = instr[2]
                status = None
            elif op == OP_INC:
                self.regs[instr[1]] += 1
                self.pc += 1
                continue
            elif op == OP_DEC:
                r = instr[1]
                if self.regs[r]:
                    self.regs[r] -= 1
                status = None
            elif op == OP_ADD:
                self.regs[instr[1]] += self.regs[instr[2]]
                status = None
            elif op == OP_SUB:
                r, s = instr[1], instr[2]
                self.regs[r] = max(0, self.regs[r] - self.regs[s])
                status = None
            elif op == OP_CPY:
                self.regs[instr[1]] = self.regs[instr[2]]
                status = None
            elif op == OP_JZ:
                r, d, delta = instr[1], instr[2], instr[3]
                if self.regs[r] == 0:
                    target = self.pc + 1 + delta if d else self.pc + 1 - delta
                    if target < 0:
                        return self._result("malformed", "jump before program start")
                    self.pc = target
                    status = self._loop_check()
                    if status:
                        return self._result("timeout", status)
                    continue
                self.pc += 1
                continue
            elif op == OP_JMP:
                d, delta = instr[1], instr[2]
                target = self.pc + 1 + delta if d else self.pc + 1 - delta
                if target < 0:
                    return self._result("malformed", "jump before program start")
                self.pc = target
                status = self._loop_check()
                if status:
                    return self._result("timeout", status)
                continue
            elif op == OP_HALTAT:
                self.cap = instr[1]
                status = None
            else:  # pragma: no cover - decode rejects invalid opcodes
                return self._result("malformed", f"invalid opcode {op}")

            # INC, JZ and JMP continued above (they emit nothing, so the
            # output limit needs no check); the growth rule sees the rest
            if status is not None:
                return self._result(*status)
            if len(self.out) > output_limit:
                return self._result("timeout", "output limit exceeded")
            self.other_step = self.steps
            self.pc += 1

    def _emit(self, symbols: Bits):
        """Append symbols to the output in one slice, as if bit by bit.

        The slice stops at the HALTAT cap, or at the first bit that leaves
        output_prefix, which is still appended.  Returns the (status,
        reason) that ends the run, or None.
        """
        out = self.out
        start = len(out)
        if self.cap is not None:
            # run() halts at the cap before any instruction, so start < cap
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

    def _loop_check(self) -> str:
        """Prove divergence from a repeated state at a jump target.

        Every key holds pc and cursor; an equal cursor means no program bit
        was read in between, so the decoded program is the same too.  Three
        rules, each sound under its condition:

        - Exact recurrence: (pc, cursor, len(out), cap, regs) repeats.  An
          equal output length means nothing was emitted in between, so the
          whole state repeats.  Holds everywhere; since keys with an older
          output length can never recur, the set is cleared on each emit.
        - Output loop: (pc, cursor, regs) repeats.  Needs that no HALTAT cap
          is set (a cap is never unset, so none was set in between): then
          output cannot steer control, and emitted bits can only end the run
          by an output-limit timeout or a prefix mismatch, never by a halt.
          Used only with exact_bits=False (the domain enumerator);
          run_machine callers such as hv.Sampler read the output of an
          uncapped loop up to output_limit, so they keep the first rule.
          Under this rule the set is not cleared on emit.
        - Register growth, also enumerator-only: (pc, cursor, len(out), cap)
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
        exact = self.exact_bits
        if self.cap is None and not exact:
            key = (self.pc, self.cursor, tuple(self.regs))
        else:
            key = (self.pc, self.cursor, len(self.out), self.cap, tuple(self.regs))
        if key in self._seen:
            return "loop detected"
        if len(self._seen) < LOOP_TRACK_LIMIT:
            self._seen.add(key)
        if exact:
            return ""
        # register growth
        key = (self.pc, self.cursor, len(self.out), self.cap)
        zeros = self.regs.count(0)
        last = self._grown.get(key)
        if last is not None and last[0] >= self.other_step and last[1] == zeros:
            return "register growth"
        if last is not None or len(self._grown) < LOOP_TRACK_LIMIT:
            self._grown[key] = (self.steps, zeros)
        return ""

    def _result(self, status: str, reason: str = "") -> MachineResult:
        return MachineResult(status, tuple(self.out), self.cursor, self.steps, reason)

    def _fork(self, instruction: Bits) -> "_Machine":
        """A copy of this paused machine whose tape gains one instruction.

        The child starts with empty loop tables: every stored key holds a
        cursor at most the pause's, and the child decodes the new
        instruction, moving its cursor past the pause, before its first
        loop check, so no stored key could match again.
        """
        child = object.__new__(_Machine)
        child.cursor = self.cursor
        child.exact_bits = self.exact_bits
        child.pc = self.pc
        child.steps = self.steps
        child.cap = self.cap
        child.output_prefix = self.output_prefix
        child.other_step = self.other_step
        child.tape = self.tape + instruction
        child.instrs = self.instrs.copy()
        child.regs = self.regs.copy()
        child.out = self.out.copy()
        child._seen = set()
        child._grown = {}
        return child


@cache
def _instruction_encodings(room: int) -> tuple[Bits, ...]:
    """Every valid instruction encoding of at most room bits, in bit order.

    Found by decoding: a string is extended only while the decoder asks for
    more bits, so each encoding is visited once, 0 before 1, which is
    sorted order for a prefix-free set.  Invalid opcodes are dropped.  A
    table is built on first use and kept for the process: 751 encodings at
    room 16, 25,647 at room 24, where LITN payloads are most of them.
    """
    found = []
    stack: list[Bits] = [()]
    while stack:
        bits = stack.pop()
        try:
            err = _Machine(bits)._decode_one()
        except _NeedBits:
            if len(bits) < room:
                stack += [bits + (1,), bits + (0,)]
            continue
        if err is None:
            found.append(bits)
    return tuple(found)


def run_machine(
    program_bits: Sequence[int],
    max_steps: int,
    output_limit: int = DEFAULT_OUTPUT_LIMIT,
) -> MachineResult:
    """Run the machine on a fixed bit string.

    "halted" implies bits_consumed <= len(program_bits), and re-running the
    consumed prefix alone reproduces the output.
    """
    program = _as_bits(program_bits, "program bits")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
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
    prefix of another.  A run that needs bits pauses before the instruction
    it could not decode.  Its children are the paused machine forked once
    per valid instruction encoding that fits in the remaining length, in
    bit order; they resume from the paused state, so no prefix is ever
    re-run.  The encodings are prefix-free, so this is the order in which
    a walk over single bits, 0 before 1, meets them, and the entry order is
    the same as re-running each bit prefix from bit 0.  An invalid opcode
    or an encoding that does not fit gets no child.

    The three divergence rules of _Machine._loop_check apply: a state that
    recurs with no output in between; while no HALTAT cap is set, a state
    (pc, cursor, registers) that recurs whatever was emitted; and a loop of
    INC, JZ and JMP that keeps the set of zero registers.  Each ends the
    branch as a non-halting timeout that resolves it.

    With output_prefix set, branches whose output leaves that prefix are
    abandoned (used by the exact-K search).  timeout_log, when given,
    records bits_consumed for every branch that exhausts the step budget;
    those branches are unresolved and bound any exactness claim.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
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
            stack.append(map(m._fork, _instruction_encodings(max_len - len(m.tape))))
        elif res.status == "halted":
            if res.bits_consumed == len(m.tape):
                yield DomainEntry(m.tape, res.output, res.steps)
            # else: a shorter run already owns this program; unreachable
            # because only bit-hungry prefixes are ever extended.
        elif res.status == "timeout":
            if timeout_log is not None and res.reason == "step budget exhausted":
                timeout_log.append(res.bits_consumed)
        # malformed / mismatch: no extension can recover; prune.


# -- assembler ------------------------------------------------------------


def _op(code: int) -> Bits:
    return tuple(int(c) for c in format(code, "04b"))


def _reg(r: int) -> Bits:
    if not 0 <= r < NUM_REGISTERS:
        raise ValueError(f"register {r} out of range")
    return tuple(int(c) for c in format(r, "02b"))


def asm_halt() -> Bits:
    return _op(OP_HALT)


def asm_out(bit: int) -> Bits:
    return _op(OP_OUT1 if bit else OP_OUT0)


def asm_outb(r: int) -> Bits:
    return _op(OP_OUTB) + _reg(r)


def asm_litn(data: Sequence[int]) -> Bits:
    data = _as_bits(data, "LITN payload bits")
    return _op(OP_LITN) + gamma0_encode(len(data)) + data


def asm_seti(r: int, n: int) -> Bits:
    return _op(OP_SETI) + _reg(r) + gamma0_encode(n)


def asm_inc(r: int) -> Bits:
    return _op(OP_INC) + _reg(r)


def asm_dec(r: int) -> Bits:
    return _op(OP_DEC) + _reg(r)


def asm_add(r: int, s: int) -> Bits:
    return _op(OP_ADD) + _reg(r) + _reg(s)


def asm_sub(r: int, s: int) -> Bits:
    return _op(OP_SUB) + _reg(r) + _reg(s)


def asm_cpy(r: int, s: int) -> Bits:
    return _op(OP_CPY) + _reg(r) + _reg(s)


def asm_jz(r: int, delta: int) -> Bits:
    """delta counts instructions from the next one; negative jumps back."""
    d, dist = (1, delta) if delta >= 0 else (0, -delta)
    return _op(OP_JZ) + _reg(r) + (d,) + gamma0_encode(dist)


def asm_jmp(delta: int) -> Bits:
    d, dist = (1, delta) if delta >= 0 else (0, -delta)
    return _op(OP_JMP) + (d,) + gamma0_encode(dist)


def asm_haltat(n: int) -> Bits:
    return _op(OP_HALTAT) + gamma0_encode(n)


def concat(*parts: Bits) -> Bits:
    out: Bits = ()
    for p in parts:
        out += p
    return out


# -- canonical generator programs -----------------------------------------


def prog_halt() -> Bits:
    """Shortest emitter of the empty string."""
    return asm_halt()


def prog_literal(data: Sequence[int]) -> Bits:
    """Verbatim emitter: len = n + 2*floor(log2(n+1)) + LITERAL_OVERHEAD_BITS."""
    return concat(asm_litn(data), asm_halt())


def prog_constant(bit: int, n: int) -> Bits:
    """n copies of one bit via an output-capped loop."""
    if n == 0:
        return prog_halt()
    # 0: HALTAT n | 1: OUT bit | 2: JMP -> 1
    return concat(asm_haltat(n), asm_out(bit), asm_jmp(-2))


def prog_periodic(pattern: Sequence[int], n: int) -> Bits:
    """Pattern repeated (and truncated) to exactly n bits."""
    pattern = _as_bits(pattern, "pattern bits")
    if not pattern:
        raise ValueError("pattern must be non-empty")
    if n == 0:
        return prog_halt()
    body = concat(*(asm_out(b) for b in pattern))
    # 0: HALTAT n | 1..p: OUT | p+1: JMP -> 1
    return concat(asm_haltat(n), body, asm_jmp(-(len(pattern) + 1)))


def prog_champernowne(n: int, start_at_one: bool = False) -> Bits:
    """First n bits of the base-2 numeral concatenation 0,1,10,11,100,..."""
    if n == 0:
        return prog_halt()
    # 0: HALTAT n | 1: SETI R0 | 2: OUTB R0 | 3: INC R0 | 4: JMP -> 2
    return concat(
        asm_haltat(n),
        asm_seti(0, 1 if start_at_one else 0),
        asm_outb(0),
        asm_inc(0),
        asm_jmp(-3),
    )


CHAMPERNOWNE_PROGRAM_OVERHEAD = len(prog_champernowne(1)) - gamma0_length(1)
"""Bits of prog_champernowne(n) beyond the gamma code of n."""
