"""Builders that only tests call: the assembler for the opcodes no bundled
program uses, the gamma0 code length, and the hv model writer."""

from indlab import hv
from indlab.machine import OP_ADD, OP_CPY, OP_DEC, OP_JZ, OP_SUB, Bits, _op, _reg, gamma0_encode


def gamma0_length(n: int) -> int:
    return 2 * (n + 1).bit_length() - 1


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


def save_model(path: str, model: hv.HVModel) -> None:
    with open(path, "w") as f:
        f.write(hv.model_to_json(model))
        f.write("\n")
