"""Reaching definitions, def-use chains and the data-dependence graph.

The value range propagation of §2.2 walks the program's *data-dependence
graph*: each instruction's input operand is connected to every definition
that may reach it, and each definition is connected to all of its uses.
This module builds that graph with a classic reaching-definitions dataflow
analysis over the CFG (inter-basic-block, as the paper's extended Alto
use-def algorithm) with conservative modelling of calls and function entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..isa import ARG_REGISTERS, RETURN_VALUE, Reg, TEMP_REGISTERS, Instruction
from .cfg import reverse_postorder
from .function import Function
from .program import Program

__all__ = [
    "Definition",
    "DependenceGraph",
    "build_dependence_graph",
    "call_defined_registers",
    "call_used_registers",
]

#: Registers conservatively treated as clobbered by a call (Alpha-like
#: caller-saved set: the return value, the temporaries and the argument
#: registers).
CALL_CLOBBERED: tuple[Reg, ...] = (RETURN_VALUE,) + TEMP_REGISTERS + ARG_REGISTERS


@dataclass(frozen=True)
class Definition:
    """One definition site of a register.

    ``kind`` is one of:
      * ``"inst"``  — a normal instruction writing ``reg`` (uid set).
      * ``"entry"`` — the value the register holds on function entry
        (parameters or values live across the call boundary).
      * ``"call"``  — a register clobbered by a call instruction; for the
        return-value register this carries the callee name so the
        interprocedural analysis can substitute the callee's return range.
    """

    kind: str
    reg: Reg
    uid: Optional[int] = None
    callee: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == "inst":
            return f"Def(inst#{self.uid} -> {self.reg})"
        if self.kind == "call":
            return f"Def(call#{self.uid}:{self.callee} -> {self.reg})"
        return f"Def(entry -> {self.reg})"


def call_defined_registers(callee: Optional[Function]) -> tuple[Reg, ...]:
    """Registers a call may redefine (conservative caller-saved set)."""
    del callee  # The clobber set does not currently depend on the callee.
    return CALL_CLOBBERED


def call_used_registers(callee: Optional[Function]) -> tuple[Reg, ...]:
    """Argument registers a call reads (all six when the callee is unknown)."""
    if callee is None:
        return ARG_REGISTERS
    return ARG_REGISTERS[: callee.num_params]


class DependenceGraph:
    """Def-use and use-def chains for one function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        #: use-def: (instruction uid, source register) -> reaching definitions.
        self.use_def: dict[tuple[int, Reg], frozenset[Definition]] = {}
        #: def-use: definition -> set of (instruction uid, source register).
        self.def_use: dict[Definition, set[tuple[int, Reg]]] = {}
        #: map from uid to instruction for convenience.
        self.instructions: dict[int, Instruction] = {
            inst.uid: inst for inst in function.instructions()
        }
        #: definitions reaching the end of each exit block, per register
        #: (used by interprocedural analysis for return values).
        self.exit_definitions: dict[Reg, set[Definition]] = {}
        #: the value of every register on function entry, by register index.
        self.entry_definitions: tuple[Definition, ...] = tuple(
            Definition("entry", Reg(i)) for i in range(32)
        )
        #: definitions generated by each instruction, by uid.
        self.definitions_by_uid: dict[int, tuple[Definition, ...]] = {}

    def reaching_definitions(self, inst: Instruction, reg: Reg) -> frozenset[Definition]:
        """Definitions that may produce the value ``inst`` reads from ``reg``."""
        return self.use_def.get((inst.uid, reg), frozenset())

    def uses_of(self, definition: Definition) -> set[tuple[int, Reg]]:
        """All (instruction uid, register) pairs that may read ``definition``."""
        return self.def_use.get(definition, set())

    def uses_of_instruction(self, inst: Instruction) -> set[tuple[int, Reg]]:
        """All uses of the value produced by ``inst`` (its dest register)."""
        result: set[tuple[int, Reg]] = set()
        for reg in inst.defs():
            result |= self.uses_of(Definition("inst", reg, uid=inst.uid))
        return result

    def definition_instruction(self, definition: Definition) -> Optional[Instruction]:
        """The instruction behind a definition, when it has one."""
        if definition.kind == "inst" and definition.uid is not None:
            return self.instructions.get(definition.uid)
        return None


def _instruction_definitions(inst: Instruction, callee: Optional[Function]) -> list[Definition]:
    """Definitions generated by one instruction."""
    if inst.is_call:
        defs = [
            Definition("call", reg, uid=inst.uid, callee=inst.target)
            for reg in call_defined_registers(callee)
        ]
        return defs
    return [Definition("inst", reg, uid=inst.uid) for reg in inst.defs()]


def _instruction_uses(inst: Instruction, callee: Optional[Function]) -> list[Reg]:
    """Registers read by one instruction, including implicit call arguments."""
    if inst.is_call:
        return list(call_used_registers(callee))
    return list(inst.uses())


def build_dependence_graph(
    function: Function, program: Optional[Program] = None
) -> DependenceGraph:
    """Build the data-dependence graph of ``function``.

    ``program`` is used to resolve call targets so that argument-register
    uses can be limited to the callee's declared parameter count.
    """
    graph = DependenceGraph(function)

    def resolve(target: Optional[str]) -> Optional[Function]:
        if program is not None and target is not None:
            return program.functions.get(target)
        return None

    # GEN/KILL per block over register index -> set of definitions.  The
    # sets are immutable, so states share them instead of copying.
    gen: dict[str, dict[int, frozenset[Definition]]] = {}
    for block in function.iter_blocks():
        block_gen: dict[int, frozenset[Definition]] = {}
        for inst in block.instructions:
            definitions = tuple(_instruction_definitions(inst, resolve(inst.target)))
            graph.definitions_by_uid[inst.uid] = definitions
            for definition in definitions:
                block_gen[definition.reg.index] = frozenset((definition,))
        gen[block.label] = block_gen

    entry_state: dict[int, frozenset[Definition]] = {
        index: frozenset((definition,))
        for index, definition in enumerate(graph.entry_definitions)
    }

    in_state: dict[str, dict[int, frozenset[Definition]]] = {
        label: {} for label in function.layout()
    }
    in_state[function.entry_label] = entry_state
    # OUT = (IN - KILL) ∪ GEN, where KILL is implied by GEN's registers.
    out_state = {label: {**in_state[label], **gen[label]} for label in in_state}

    order = reverse_postorder(function)
    changed = True
    while changed:
        changed = False
        for label in order:
            block = function.blocks[label]
            if label == function.entry_label:
                state = entry_state
            else:
                state = {}
                for pred in block.predecessors:
                    for index, defs in out_state[pred].items():
                        known = state.get(index)
                        state[index] = defs if known is None or known is defs else known | defs
            if state != in_state[label]:
                in_state[label] = state
                out_state[label] = {**state, **gen[label]}
                changed = True

    # Final pass: walk each block recording use-def / def-use chains.
    for block in function.iter_blocks():
        state = dict(in_state[block.label])
        for inst in block.instructions:
            for reg in _instruction_uses(inst, resolve(inst.target)):
                if reg.is_zero:
                    continue
                defs = state.get(reg.index, entry_state[reg.index])
                graph.use_def[(inst.uid, reg)] = defs
                for definition in defs:
                    graph.def_use.setdefault(definition, set()).add((inst.uid, reg))
            for definition in graph.definitions_by_uid[inst.uid]:
                state[definition.reg.index] = frozenset((definition,))
        terminator = block.terminator
        if terminator is not None and terminator.is_return or not block.successors:
            for index, defs in state.items():
                graph.exit_definitions.setdefault(Reg(index), set()).update(defs)

    return graph

