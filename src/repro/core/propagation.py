"""Per-function value range propagation engine (§2.2).

The engine alternates forward sweeps over the data-dependence graph until
the ranges stabilise (or an iteration budget is reached, in which case the
still-changing definitions are conservatively widened).  It integrates:

* the forward transfer functions (:mod:`repro.core.transfer`),
* branch-condition refinement (:mod:`repro.core.refinement`),
* loop trip-count pinning (:mod:`repro.core.trip_count`),
* the backward useful-bits pass (:mod:`repro.core.useful`), and
* interprocedural parameter / return-value ranges supplied by the driver.

A :class:`FunctionVRP` splits the work by what it depends on.  Everything
that depends only on the code is computed once, when the engine is built:
the dependence graph, dominators, loop-iterator patterns, branch
constraints, useful bits (they read the graph and opcodes, never a range)
and a *plan* of the forward pass.  The plan numbers every definition and
every use of the function, and records per instruction its uses with their
reaching definitions and branch bounds, its source operands (a constant
range or a use) and its result definition, so the range state is two
lists and a pass makes no reaching-definition query and hashes no
``Definition``.  :meth:`FunctionVRP.run` holds only the range state.  Its
inputs are exactly the parameter ranges and the return ranges of the
callees, and it is deterministic in them, so a run with the inputs of the
previous run returns the previous analysis.

Every pass visits the blocks in reverse postorder and every instruction of
a block in order, as a dense sweep: the number of passes before widening
(``max_iterations``) and which definitions get widened depend on that
order, so a sparse worklist would change the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..isa import ARG_REGISTERS, Imm, Instruction, OpKind, RETURN_VALUE, Reg
from ..ir import (
    Definition,
    DependenceGraph,
    Function,
    Program,
    build_dependence_graph,
    compute_dominators,
    find_loops,
    reverse_postorder,
)
from .refinement import BranchConstraints, compute_branch_constraints
from .transfer import forward_transfer, transfer_range
from .trip_count import LoopPins, find_loop_iterators, pin_loop_iterators
from .useful import UsefulBitsConfig, compute_useful_bits
from .value_range import FULL_RANGE, ValueRange

__all__ = ["VRPConfig", "FunctionAnalysis", "FunctionVRP"]


@dataclass(frozen=True)
class VRPConfig:
    """Configuration of the value range propagation analysis.

    The defaults correspond to the paper's *proposed* VRP; switching
    ``useful_propagation`` off yields the *conventional* VRP used as the
    comparison point in Figure 2.
    """

    useful_propagation: bool = True
    useful_through_arithmetic: bool = True
    loop_trip_count: bool = True
    branch_refinement: bool = True
    interprocedural: bool = True
    max_iterations: int = 8
    global_iterations: int = 3

    def conventional(self) -> "VRPConfig":
        """The conventional-VRP variant of this configuration."""
        return VRPConfig(
            useful_propagation=False,
            useful_through_arithmetic=False,
            loop_trip_count=self.loop_trip_count,
            branch_refinement=self.branch_refinement,
            interprocedural=self.interprocedural,
            max_iterations=self.max_iterations,
            global_iterations=self.global_iterations,
        )


@dataclass
class FunctionAnalysis:
    """Result of value range propagation over one function."""

    function: Function
    graph: DependenceGraph
    def_range: dict[Definition, ValueRange] = field(default_factory=dict)
    use_range: dict[tuple[int, Reg], ValueRange] = field(default_factory=dict)
    useful_bits: dict[Definition, int] = field(default_factory=dict)
    return_range: ValueRange = FULL_RANGE
    pins: LoopPins = field(default_factory=LoopPins)

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------
    def output_range(self, inst: Instruction) -> Optional[ValueRange]:
        """Range of the value produced by ``inst`` (None when no result)."""
        for reg in inst.defs():
            return self.def_range.get(Definition("inst", reg, uid=inst.uid))
        return None

    def operand_range(self, inst: Instruction, reg: Reg) -> ValueRange:
        """Range of the value ``inst`` reads from ``reg``."""
        return self.use_range.get((inst.uid, reg), FULL_RANGE)

    def output_useful_bits(self, inst: Instruction) -> int:
        """Useful low bits of the value produced by ``inst`` (64 if unknown)."""
        bits = 0
        for reg in inst.defs():
            bits = max(bits, self.useful_bits.get(Definition("inst", reg, uid=inst.uid), 0))
        return bits if bits > 0 else 64


class FunctionVRP:
    """Runs value range propagation over a single function.

    Build it once per whole-program analysis; :meth:`run` may then be
    called once per global round with that round's interprocedural inputs.
    """

    def __init__(self, function: Function, program: Program, config: VRPConfig) -> None:
        self.function = function
        self.config = config
        self.graph = graph = build_dependence_graph(function, program)
        dom = compute_dominators(function)
        self.loop_iterators = (
            find_loop_iterators(function, find_loops(function, dom), graph)
            if config.loop_trip_count
            else []
        )
        constraints = (
            compute_branch_constraints(function, dom, graph) if config.branch_refinement else None
        )
        self.useful_bits: dict[Definition, int] = {}
        if config.useful_propagation:
            self.useful_bits = compute_useful_bits(
                function,
                graph,
                UsefulBitsConfig(through_arithmetic=config.useful_through_arithmetic),
            )

        self._number_definitions()
        self._plan_pass(constraints)
        self._last_inputs: Optional[tuple] = None
        self._last_analysis: Optional[FunctionAnalysis] = None

    # ------------------------------------------------------------------
    # Static facts
    # ------------------------------------------------------------------
    def _number_definitions(self) -> None:
        """Number every definition: the 32 entry values (by register index)
        first, then the definitions of each instruction.  A call defines
        every clobbered register; its return value takes the callee's
        return range."""
        graph = self.graph
        self._definitions: list[Definition] = list(graph.entry_definitions)
        self._params = ARG_REGISTERS[: self.function.num_params]
        self._call_defs: list[tuple[int, Optional[str]]] = []
        self._callees: set[str] = set()
        for inst in self.function.instructions():
            for definition in graph.definitions_by_uid[inst.uid]:
                if definition.kind == "call":
                    callee = inst.target if definition.reg == RETURN_VALUE else None
                    self._call_defs.append((len(self._definitions), callee))
                    if callee is not None:
                        self._callees.add(callee)
                self._definitions.append(definition)
        self._number = {definition: index for index, definition in enumerate(self._definitions)}
        self._return_defs = [
            self._number[d] for d in graph.exit_definitions.get(RETURN_VALUE, ())
        ]

    def _plan_pass(self, constraints: Optional[BranchConstraints]) -> None:
        """Record what one forward pass reads and writes, in visiting order.

        Every use gets a value slot; constant operands (immediates and the
        zero register) get prefilled slots after the uses.  A plan entry is
        ``(instruction, (kind, opcode, width), uses, sources, result_def,
        cmov_slot)``:

        * each use is ``(slot, reaching definition numbers, branch bounds)``;
        * ``sources`` are the value slots of the operands, or None when the
          instruction produces no register value;
        * ``result_def`` is the number of its result definition and
          ``cmov_slot`` the slot of a conditional move's old value.
        """
        function, graph, number = self.function, self.graph, self._number
        order = reverse_postorder(function)
        uses_by_inst: dict[int, list[Reg]] = {}
        for (uid, reg) in graph.use_def:
            uses_by_inst.setdefault(uid, []).append(reg)
        self._use_keys: list[tuple[int, Reg]] = [
            (inst.uid, reg)
            for label in order
            for inst in function.blocks[label].instructions
            for reg in uses_by_inst.get(inst.uid, ())
        ]
        self._use_slot = {key: slot for slot, key in enumerate(self._use_keys)}
        self._constants: list[ValueRange] = []
        self._plan = []
        for label in order:
            for inst in function.blocks[label].instructions:
                uses = tuple(
                    (
                        self._use_slot[(inst.uid, reg)],
                        tuple(number[d] for d in graph.use_def[(inst.uid, reg)]),
                        constraints.ranges_for(label, reg) if constraints else (),
                    )
                    for reg in uses_by_inst.get(inst.uid, ())
                )
                sources = result_def = cmov_slot = None
                kind = inst.kind
                if inst.dest is not None and not inst.dest.is_zero and kind is not OpKind.CALL:
                    sources = tuple(self._source_slot(inst, operand) for operand in inst.srcs)
                    result_def = number[Definition("inst", inst.dest, uid=inst.uid)]
                    if kind is OpKind.CMOV:
                        cmov_slot = self._use_slot[(inst.uid, inst.dest)]
                decoded = (kind, inst.op, inst.width)
                self._plan.append((inst, decoded, uses, sources, result_def, cmov_slot))

    def _source_slot(self, inst: Instruction, operand) -> int:
        """Value slot of one source operand of ``inst``."""
        if isinstance(operand, Reg) and not operand.is_zero:
            return self._use_slot[(inst.uid, operand)]
        value = operand.value if isinstance(operand, Imm) else 0
        self._constants.append(ValueRange.constant(value))
        return len(self._use_keys) + len(self._constants) - 1

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(
        self, param_ranges: dict[Reg, ValueRange], return_ranges: dict[str, ValueRange]
    ) -> FunctionAnalysis:
        """Analyse the function under the given interprocedural inputs.

        ``param_ranges`` seeds the parameter registers and ``return_ranges``
        the return values of calls (a missing entry means unknown).  The
        analysis reads nothing else that can change, so when the parameters
        and every callee's return range equal those of the previous run, the
        previous analysis is returned as it is.
        """
        inputs = (
            tuple(param_ranges.get(reg) for reg in self._params),
            {callee: return_ranges.get(callee) for callee in self._callees},
        )
        if inputs == self._last_inputs:
            return self._last_analysis
        analysis = self._analyse(param_ranges, return_ranges)
        self._last_inputs, self._last_analysis = inputs, analysis
        return analysis

    def _analyse(
        self, param_ranges: dict[Reg, ValueRange], return_ranges: dict[str, ValueRange]
    ) -> FunctionAnalysis:
        # Range state: one entry per definition, then per value slot.
        self._def_values: list[Optional[ValueRange]] = [None] * len(self._definitions)
        self._values: list[Optional[ValueRange]] = [None] * len(self._use_keys) + self._constants
        self._pins = LoopPins()
        self._seed_external_definitions(param_ranges, return_ranges)

        converged = False
        for _ in range(self.config.max_iterations):
            if not self._forward_pass(widen=False):
                converged = True
                break
        if not converged:
            # Widen whatever is still in flux, then settle.
            for _ in range(4):
                if not self._forward_pass(widen=True):
                    break

        definitions, use_keys = self._definitions, self._use_keys
        def_values, values = self._def_values, self._values
        return FunctionAnalysis(
            function=self.function,
            graph=self.graph,
            def_range={
                definitions[index]: value
                for index, value in enumerate(def_values)
                if value is not None
            },
            use_range={
                use_keys[slot]: values[slot]
                for slot in range(len(use_keys))
                if values[slot] is not None
            },
            useful_bits=self.useful_bits,
            return_range=self._return_range(),
            pins=self._pins,
        )

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def _seed_external_definitions(
        self, param_ranges: dict[Reg, ValueRange], return_ranges: dict[str, ValueRange]
    ) -> None:
        def_values = self._def_values
        for index in range(32):
            def_values[index] = FULL_RANGE
        for reg in self._params:
            def_values[reg.index] = param_ranges.get(reg, FULL_RANGE)
        for index, callee in self._call_defs:
            def_values[index] = (
                FULL_RANGE if callee is None else return_ranges.get(callee, FULL_RANGE)
            )

    # ------------------------------------------------------------------
    # Forward sweeps
    # ------------------------------------------------------------------
    def _forward_pass(self, widen: bool) -> bool:
        def_values = self._def_values
        values = self._values
        if self.config.loop_trip_count:
            number = self._number
            self._pins = pin_loop_iterators(
                self.loop_iterators, self.graph, lambda d: def_values[number[d]]
            )
        use_slot = self._use_slot
        pinned_uses = {
            use_slot[key]: value
            for key, value in self._pins.use_ranges.items()
            if key in use_slot
        }
        pinned_defs = self._pins.def_ranges
        changed = False
        for inst, decoded, uses, sources, result_def, cmov_slot in self._plan:
            # 1. Ranges of every register this instruction reads.
            for slot, reaching, bounds in uses:
                value = None
                for index in reaching:
                    reached = def_values[index]
                    if reached is not None:
                        value = reached if value is None else value.union(reached)
                if value is None:
                    continue
                pinned = pinned_uses.get(slot)
                if pinned is not None:
                    value = pinned
                else:
                    for bound in bounds:
                        refined = value.intersect(bound)
                        if refined is not None:
                            value = refined
                if values[slot] != value:
                    values[slot] = value
                    changed = True

            # 2. Range of the produced value.
            if result_def is None:
                continue
            src_ranges = [values[slot] for slot in sources]
            # A use without any known reaching range is None (falsy).
            if not all(src_ranges):
                continue
            dest_old = values[cmov_slot] if cmov_slot is not None else None
            result = transfer_range(*decoded, src_ranges, dest_old)
            if result is None:
                continue
            pinned = pinned_defs.get(inst.uid)
            if pinned is not None:
                result = pinned
            previous = def_values[result_def]
            if widen and previous is not None and result != previous:
                result = self._worst_case(inst)
            if previous != result:
                def_values[result_def] = result
                changed = True
        return changed

    def _worst_case(self, inst: Instruction) -> ValueRange:
        """A stable, always-sound range for ``inst`` (all inputs unknown)."""
        src_ranges = [FULL_RANGE for _ in inst.srcs]
        result = forward_transfer(inst, src_ranges, FULL_RANGE)
        return result if result is not None else FULL_RANGE

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def _return_range(self) -> ValueRange:
        joined: Optional[ValueRange] = None
        for index in self._return_defs:
            value = self._def_values[index] or FULL_RANGE
            joined = value if joined is None else joined.union(value)
        return joined if joined is not None else FULL_RANGE
