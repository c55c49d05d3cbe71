"""Forward transfer functions: output range from input ranges (§2.2).

Each function computes the value range of an instruction's result given
the ranges of its operands, conservatively accounting for two's-complement
wrap-around at the instruction's encoded width.
"""

from __future__ import annotations

from typing import Optional

from ..isa import Instruction, OpKind, Opcode, Width
from .value_range import FULL_RANGE, ValueRange, range_for_width

__all__ = ["forward_transfer", "transfer_range", "LOAD_RESULT_RANGES"]

#: Forward range of a load result, determined purely by the opcode
#: (§2.2.2): byte/halfword loads zero-extend, word loads sign-extend.
LOAD_RESULT_RANGES = {
    Opcode.LDB: ValueRange(0, 0xFF),
    Opcode.LDH: ValueRange(0, 0xFFFF),
    Opcode.LDW: range_for_width(Width.WORD),
    Opcode.LDQ: FULL_RANGE,
}

_MASK_RESULT = {
    Opcode.MSKB: ValueRange(0, 0xFF),
    Opcode.MSKW: ValueRange(0, 0xFFFF),
    Opcode.MSKL: ValueRange(0, 0xFFFFFFFF),
    Opcode.SEXTB: range_for_width(Width.BYTE),
    Opcode.SEXTW: range_for_width(Width.HALF),
    Opcode.SEXTL: range_for_width(Width.WORD),
}


def forward_transfer(
    inst: Instruction,
    src_ranges: list[ValueRange],
    dest_old: Optional[ValueRange] = None,
) -> Optional[ValueRange]:
    """Range of the value produced by ``inst``.

    ``src_ranges`` are the ranges of ``inst.srcs`` in order (immediates are
    constant ranges).  ``dest_old`` is the range of the previous value of
    the destination register, needed only by conditional moves.  Returns
    ``None`` for instructions that produce no register result.
    """
    return transfer_range(inst.kind, inst.op, inst.width, src_ranges, dest_old)


def transfer_range(
    kind: OpKind,
    op: Opcode,
    width: Width,
    src_ranges: list[ValueRange],
    dest_old: Optional[ValueRange] = None,
) -> Optional[ValueRange]:
    """:func:`forward_transfer` for an instruction already decoded into its
    kind, opcode and width (callers that apply it repeatedly decode once)."""
    if kind is OpKind.LOAD:
        return LOAD_RESULT_RANGES[op]
    if kind in (OpKind.STORE, OpKind.BRANCH, OpKind.RETURN, OpKind.HALT, OpKind.NOP, OpKind.OUTPUT):
        return None
    if kind is OpKind.CALL:
        # The call instruction itself writes the return address (wide).
        return FULL_RANGE
    if kind is OpKind.MASK or kind is OpKind.EXTEND:
        result = _MASK_RESULT[op]
        source = src_ranges[0]
        narrowed = source.intersect(result)
        if narrowed is not None and result.contains_range(source):
            return source
        return result
    if kind is OpKind.COMPARE:
        return ValueRange(0, 1)
    if kind is OpKind.CMOV:
        value = src_ranges[1].clamp(width)
        old = dest_old if dest_old is not None else FULL_RANGE
        return value.union(old)
    if kind is OpKind.MOVE:
        if op is Opcode.LI:
            return src_ranges[0]
        if op is Opcode.MOV:
            return src_ranges[0]
        # LDA: base + displacement.
        return _add(src_ranges[0], src_ranges[1], Width.QUAD)
    if kind is OpKind.ALU:
        if op is Opcode.ADD:
            return _add(src_ranges[0], src_ranges[1], width)
        return _sub(src_ranges[0], src_ranges[1], width)
    if kind is OpKind.MUL:
        return _mul(src_ranges[0], src_ranges[1], width)
    if kind is OpKind.LOGICAL:
        return _logical(op, src_ranges[0], src_ranges[1], width)
    if kind is OpKind.SHIFT:
        return _shift(op, src_ranges[0], src_ranges[1], width)
    return FULL_RANGE  # pragma: no cover - every kind is handled above


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def _add(a: ValueRange, b: ValueRange, width: Width) -> ValueRange:
    return ValueRange(a.lo + b.lo, a.hi + b.hi).clamp(width)


def _sub(a: ValueRange, b: ValueRange, width: Width) -> ValueRange:
    return ValueRange(a.lo - b.hi, a.hi - b.lo).clamp(width)


def _mul(a: ValueRange, b: ValueRange, width: Width) -> ValueRange:
    corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    return ValueRange(min(corners), max(corners)).clamp(width)


# ----------------------------------------------------------------------
# Logical operations
# ----------------------------------------------------------------------
def _logical(op: Opcode, a: ValueRange, b: ValueRange, width: Width) -> ValueRange:
    if op is Opcode.AND:
        # AND with a non-negative operand bounds the result by that operand.
        candidates = []
        if a.is_nonnegative:
            candidates.append(a.hi)
        if b.is_nonnegative:
            candidates.append(b.hi)
        if candidates:
            return ValueRange(0, min(candidates)).clamp(width)
        return range_for_width(width)
    if op is Opcode.OR or op is Opcode.XOR:
        if a.is_nonnegative and b.is_nonnegative:
            bits = max(a.hi.bit_length(), b.hi.bit_length(), 1)
            return ValueRange(0, (1 << bits) - 1).clamp(width)
        return range_for_width(width)
    # BIC: a & ~b — bounded by a when a is non-negative.
    if a.is_nonnegative:
        return ValueRange(0, a.hi).clamp(width)
    return range_for_width(width)


# ----------------------------------------------------------------------
# Shifts
# ----------------------------------------------------------------------
def _shift(op: Opcode, value: ValueRange, amount: ValueRange, width: Width) -> ValueRange:
    # The shift amount field is 6 bits (§2.2.5: its useful range is 0..63).
    # Amount ranges that are not fully inside [0, 63] wrap modulo 64, so the
    # only safe assumption is that any shift amount may occur.
    if amount.lo < 0 or amount.hi > 63:
        lo_shift, hi_shift = 0, 63
    else:
        lo_shift, hi_shift = amount.lo, amount.hi
    if op is Opcode.SLL:
        corners = [
            value.lo << lo_shift,
            value.lo << hi_shift,
            value.hi << lo_shift,
            value.hi << hi_shift,
        ]
        return ValueRange(min(corners), max(corners)).clamp(width)
    if op is Opcode.SRA:
        corners = [
            value.lo >> lo_shift,
            value.lo >> hi_shift,
            value.hi >> lo_shift,
            value.hi >> hi_shift,
        ]
        return ValueRange(min(corners), max(corners)).clamp(width)
    # SRL: a logical right shift of a negative value produces a huge
    # positive number; only non-negative inputs give a useful bound.
    if value.is_nonnegative:
        return ValueRange(value.lo >> hi_shift, value.hi >> lo_shift).clamp(width)
    return range_for_width(width)
