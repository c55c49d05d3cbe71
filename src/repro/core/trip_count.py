"""Loop trip-count / induction-variable analysis (§2.3).

VRP handles loops whose iterator has the affine form ``x = x + b`` with a
constant bound tested in the loop header (``for (i = c0; i < c1; i += b)``).
For such loops the range of the iterator inside the loop is known exactly,
which stops the interval fixed point from widening it to the full range of
the operation's width.

The analysis produces *pins*: value ranges for the iterator's increment
definition and for its use inside the increment, which the propagation
engine uses verbatim instead of the generic transfer function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..isa import Imm, Instruction, Opcode, Reg
from ..ir import DependenceGraph, Definition, Function, Loop, call_defined_registers
from .value_range import ValueRange

__all__ = ["LoopIterator", "LoopPins", "find_loop_iterators", "pin_loop_iterators"]


@dataclass
class LoopPins:
    """Ranges pinned by the trip-count analysis."""

    #: Pinned range for a definition (keyed by the defining instruction uid).
    def_ranges: dict[int, ValueRange] = field(default_factory=dict)
    #: Pinned range for a particular use (instruction uid, register).
    use_ranges: dict[tuple[int, Reg], ValueRange] = field(default_factory=dict)
    #: Number of loops whose iterator was successfully bounded.
    bounded_loops: int = 0
    #: Number of loops examined.
    examined_loops: int = 0


RangeOracle = Callable[[Definition], Optional[ValueRange]]


@dataclass(frozen=True)
class LoopIterator:
    """The range-independent shape of one analysable loop.

    ``increment`` is the unique in-loop ``iterator = iterator ± step``;
    ``compare`` is the header test against ``bound``, and the body runs
    while ``stay_op`` holds with the bound on the side ``bound_side_left``
    names (see :func:`_stay_predicate`).
    """

    compare: Instruction
    iterator: Reg
    bound: int
    stay_op: Opcode
    bound_side_left: bool
    increment: Instruction
    step: int


def find_loop_iterators(
    function: Function, loops: list[Loop], graph: DependenceGraph
) -> list[Optional[LoopIterator]]:
    """The iterator pattern of every loop of ``function`` (None if absent).

    The pattern depends only on the code, so it is matched once; the
    ranges enter in :func:`pin_loop_iterators`.
    """
    return [_match_loop(function, loop, graph) for loop in loops]


def pin_loop_iterators(
    iterators: list[Optional[LoopIterator]],
    graph: DependenceGraph,
    initial_range_of: RangeOracle,
) -> LoopPins:
    """Pins for every matched loop whose initial iterator range is known.

    ``initial_range_of`` maps a definition to its currently known range (or
    ``None``); it is supplied by the propagation engine so that the analysis
    can use up-to-date ranges for the iterator's initial value.
    """
    pins = LoopPins(examined_loops=len(iterators))
    for pattern in iterators:
        if pattern is None:
            continue
        init_range = _initial_range(
            graph, pattern.compare, pattern.iterator, pattern.increment, initial_range_of
        )
        if init_range is None:
            continue
        body_range = _body_range(
            pattern.stay_op, pattern.bound_side_left, pattern.bound, pattern.step, init_range
        )
        if body_range is None:
            continue
        uid, step = pattern.increment.uid, pattern.step
        pins.def_ranges[uid] = ValueRange(body_range.lo + step, body_range.hi + step)
        pins.use_ranges[(uid, pattern.iterator)] = body_range
        pins.bounded_loops += 1
    return pins


def _match_loop(function: Function, loop: Loop, graph: DependenceGraph) -> Optional[LoopIterator]:
    header = function.blocks[loop.header]
    terminator = header.terminator
    if terminator is None or terminator.op not in (Opcode.BEQ, Opcode.BNE):
        return None

    compare = _compare_feeding(graph, terminator)
    if compare is None:
        return None
    iterator, bound, register_on_left = _split_compare(compare)
    if iterator is None or bound is None:
        return None

    stays = _stay_predicate(function, loop, terminator, compare, register_on_left)
    if stays is None:
        return None
    stay_op, bound_side_left = stays

    increment = _find_increment(function, loop, iterator)
    if increment is None:
        return None
    step = _step_of(increment)
    if step is None or step == 0:
        return None
    return LoopIterator(compare, iterator, bound, stay_op, bound_side_left, increment, step)


# ----------------------------------------------------------------------
# Pattern matching helpers
# ----------------------------------------------------------------------
def _compare_feeding(graph: DependenceGraph, branch: Instruction) -> Optional[Instruction]:
    sources = branch.source_registers()
    if len(sources) != 1:
        return None
    defs = graph.reaching_definitions(branch, sources[0])
    if len(defs) != 1:
        return None
    inst = graph.definition_instruction(next(iter(defs)))
    if inst is None or inst.op not in (Opcode.CMPLT, Opcode.CMPLE):
        return None
    return inst


def _split_compare(compare: Instruction) -> tuple[Optional[Reg], Optional[int], bool]:
    """Return (iterator register, constant bound, register_on_left)."""
    left, right = compare.srcs
    if isinstance(left, Reg) and isinstance(right, Imm):
        return left, right.value, True
    if isinstance(left, Imm) and isinstance(right, Reg):
        return right, left.value, False
    return None, None, True


def _stay_predicate(
    function: Function,
    loop: Loop,
    branch: Instruction,
    compare: Instruction,
    register_on_left: bool,
) -> Optional[tuple[Opcode, bool]]:
    """Determine under which comparison outcome control stays in the loop.

    Returns (compare opcode, bound_side_left) where ``bound_side_left`` is
    True when the constant is on the *right* of the comparison (i.e. the
    pattern is ``iterator < bound``), matching :func:`_header_range`.
    """
    header_block = function.blocks[loop.header]
    taken = branch.target
    fallthrough = [s for s in header_block.successors if s != taken]
    if not fallthrough:
        return None
    taken_in_loop = taken in loop.blocks
    fallthrough_in_loop = fallthrough[0] in loop.blocks
    if taken_in_loop == fallthrough_in_loop:
        return None

    # The comparison result is non-zero when the predicate holds; BNE takes
    # the branch in that case, BEQ takes it when the predicate fails.
    predicate_holds_stays = (
        taken_in_loop if branch.op is Opcode.BNE else fallthrough_in_loop
    )
    if not predicate_holds_stays:
        # Control stays in the loop when the predicate FAILS.  The negation
        # of ``a < b`` is ``b <= a`` and of ``a <= b`` is ``b < a``: the
        # comparison flips strictness and the bound changes sides.
        negated_op = Opcode.CMPLE if compare.op is Opcode.CMPLT else Opcode.CMPLT
        return negated_op, not register_on_left
    return compare.op, register_on_left


def _find_increment(function: Function, loop: Loop, iterator: Reg) -> Optional[Instruction]:
    """The unique in-loop definition ``iterator = iterator ± constant``."""
    found: Optional[Instruction] = None
    for label in loop.blocks:
        for inst in function.blocks[label].instructions:
            if iterator not in inst.defs():
                if inst.is_call and not iterator.is_zero:
                    if iterator in call_defined_registers(None):
                        return None
                continue
            if found is not None:
                return None
            if inst.op not in (Opcode.ADD, Opcode.SUB, Opcode.LDA):
                return None
            if not (isinstance(inst.srcs[0], Reg) and inst.srcs[0] == iterator):
                return None
            if not isinstance(inst.srcs[1], Imm):
                return None
            found = inst
    return found


def _step_of(increment: Instruction) -> Optional[int]:
    amount = increment.srcs[1]
    if not isinstance(amount, Imm):
        return None
    if increment.op is Opcode.SUB:
        return -amount.value
    return amount.value


def _initial_range(
    graph: DependenceGraph,
    compare: Instruction,
    iterator: Reg,
    increment: Instruction,
    initial_range_of: RangeOracle,
) -> Optional[ValueRange]:
    """Join of the iterator ranges flowing into the loop from outside."""
    defs = graph.reaching_definitions(compare, iterator)
    result: Optional[ValueRange] = None
    for definition in defs:
        if definition.kind == "inst" and definition.uid == increment.uid:
            continue
        known = initial_range_of(definition)
        if known is None or known.is_full:
            return None
        result = known if result is None else result.union(known)
    return result


def _body_range(
    op: Opcode, register_on_left: bool, bound: int, step: int, init: ValueRange
) -> Optional[ValueRange]:
    """Range of the iterator values for which the loop body executes."""
    if register_on_left:
        # iterator < bound (or <=) with a positive step counts upwards.
        if step <= 0:
            return None
        upper = bound - 1 if op is Opcode.CMPLT else bound
        if init.lo > upper:
            return None
        return ValueRange(init.lo, upper)
    # bound < iterator (or <=) with a negative step counts downwards.
    if step >= 0:
        return None
    lower = bound + 1 if op is Opcode.CMPLT else bound
    if init.hi < lower:
        return None
    return ValueRange(lower, init.hi)
