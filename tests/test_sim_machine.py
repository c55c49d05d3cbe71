"""Tests for the functional simulator: memory, execution, traces, profiling."""

import gc
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.asm import assemble_program
from repro.isa import Width
from repro.sim import Machine, Memory, SimulationLimitExceeded, ValueProfiler
from repro.workloads import SUITE_NAMES, workload_by_name


class TestMemory:
    def test_roundtrip_widths(self):
        memory = Memory()
        memory.store(0x1000, -2, Width.QUAD)
        assert memory.load(0x1000, Width.QUAD, signed=True) == -2
        memory.store(0x2000, 0xABCD, Width.HALF)
        assert memory.load(0x2000, Width.HALF, signed=False) == 0xABCD
        assert memory.load(0x2000, Width.BYTE, signed=False) == 0xCD  # little endian

    @given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_word_roundtrip_signed(self, address, value):
        memory = Memory()
        memory.store(address, value, Width.WORD)
        assert memory.load(address, Width.WORD, signed=True) == value

    def test_cross_page_access(self):
        memory = Memory()
        memory.write_bytes(4094, b"abcdef")
        assert memory.read_bytes(4094, 6) == b"abcdef"


def _run(asm: str):
    program = assemble_program(asm)
    return Machine(program).run(collect_trace=True)


class TestExecution:
    def test_arithmetic_width_wrapping(self):
        result = _run(
            """
.func main 0
entry:
    li r1, 127
    add.8 r2, r1, 1
    add r3, r1, 1
    print r2
    print r3
    halt
.endfunc
"""
        )
        assert result.output == [-128, 128]

    def test_call_and_return(self):
        result = _run(
            """
.func double 1
entry:
    add v0, a0, a0
    ret
.endfunc
.func main 0
entry:
    li a0, 21
    jsr double
    print v0
    halt
.endfunc
"""
        )
        assert result.output == [42]

    def test_conditional_branches_and_cmov(self):
        result = _run(
            """
.func main 0
entry:
    li r1, 5
    cmplt r2, r1, 10
    cmoveq r3, r2, r1
    cmovne r4, r2, r1
    print r3
    print r4
    halt
.endfunc
"""
        )
        assert result.output == [0, 5]

    def test_block_counts_and_instruction_counts(self):
        result = _run(
            """
.func main 0
entry:
    li r1, 0
loop:
    add r1, r1, 1
    cmplt r2, r1, 5
    bne r2, loop
done:
    print r1
    halt
.endfunc
"""
        )
        assert result.output == [5]
        assert result.block_counts[("main", "loop")] == 5
        assert result.block_counts[("main", "done")] == 1

    def test_trace_records_memory_and_branches(self):
        result = _run(
            """
.data buf 8 64
.func main 0
entry:
    li r1, =buf
    li r2, 77
    stq r2, 0(r1)
    ldq r3, 0(r1)
    print r3
    halt
.endfunc
"""
        )
        assert result.output == [77]
        memory_records = [r for r in result.trace.records if r.mem_address is not None]
        assert len(memory_records) == 2
        assert memory_records[0].mem_address == memory_records[1].mem_address

    def test_instruction_limit(self):
        program = assemble_program(
            """
.func main 0
entry:
    br entry
.endfunc
"""
        )
        with pytest.raises(SimulationLimitExceeded):
            Machine(program, max_instructions=100).run()

    def test_value_observer_hook(self):
        program = assemble_program(
            """
.func main 0
entry:
    li r1, 3
    add r2, r1, 4
    print r2
    halt
.endfunc
"""
        )
        add = [i for i in program.functions["main"].instructions() if i.op.value == "add"][0]
        profiler = ValueProfiler({add.uid})
        Machine(program).run(value_observer=profiler)
        assert profiler.table(add.uid).entries == {7: 1}


def _uids(program):
    return {inst.uid for function in program.iter_functions() for inst in function.instructions()}


class TestFastDispatch:
    """The fast value-profiling path: the block tier with ``observe`` hooks
    compiled in must be indistinguishable from the reference loop — down to
    the individual trace records and observed values.  (The class keeps its
    name so its test ids stay stable.)"""

    def _observed_runs(self, program, watched=None, **kwargs):
        runs = {}
        for tier in ("reference", "block"):
            profiler = ValueProfiler(_uids(program) if watched is None else watched)
            run = Machine(program).run(
                collect_trace=True, dispatch=tier, value_observer=profiler, **kwargs
            )
            runs[tier] = (run, {uid: vars(table) for uid, table in profiler.tables.items()})
        return runs

    @pytest.mark.parametrize("name", ("ijpeg", "li"))
    def test_traces_are_bit_identical_on_workloads(self, name):
        workload = workload_by_name(name)
        program = workload.build()
        workload.apply_input(program, "ref")
        runs = self._observed_runs(program)
        (reference, ref_tables), (block, block_tables) = runs["reference"], runs["block"]
        assert block.instructions == reference.instructions
        assert block.output == reference.output
        assert block.block_counts == reference.block_counts
        assert block.call_counts == reference.call_counts
        assert block.halted == reference.halted
        assert block.trace.records == reference.trace.records
        assert block_tables == ref_tables
        assert block_tables

    def test_value_observer_equivalence(self):
        program = assemble_program(
            """
.func main 0
entry:
    li r1, 0
loop:
    add r1, r1, 3
    cmplt r2, r1, 12
    bne r2, loop
done:
    print r1
    halt
.endfunc
"""
        )
        add = [i for i in program.functions["main"].instructions() if i.op.value == "add"][0]
        tables = []
        for tier in ("reference", "block"):
            profiler = ValueProfiler({add.uid})
            Machine(program).run(value_observer=profiler, dispatch=tier)
            tables.append(profiler.table(add.uid).entries)
        assert tables[0] == tables[1] == {3: 1, 6: 1, 9: 1, 12: 1}

    def test_mov_out_of_range_immediate_matches_reference(self):
        program = assemble_program(
            """
.func main 0
entry:
    li r1, 1
    mov r2, r1
    print r2
    halt
.endfunc
"""
        )
        # Force the edge a transform could produce: a raw unsigned 64-bit
        # bit pattern as a MOV immediate.  The register write normalizes to
        # signed (-1) while the trace and the observer see the raw value.
        from repro.isa import Imm

        mov = [i for i in program.functions["main"].instructions() if i.op.value == "mov"][0]
        mov.srcs = (Imm(2**64 - 1),)
        runs = self._observed_runs(program, watched={mov.uid})
        (reference, ref_tables), (block, block_tables) = runs["reference"], runs["block"]
        assert reference.output == block.output == [-1]
        assert reference.trace.records == block.trace.records
        assert ref_tables == block_tables
        assert block_tables[mov.uid]["entries"] == {2**64 - 1: 1}

    def test_dead_branch_to_pruned_label_matches_reference(self):
        program = assemble_program(
            """
.func main 0
entry:
    li r1, 1
    beq r1, done
next:
    print r1
    br done
done:
    print r1
    halt
.endfunc
"""
        )
        # Prune the (never-taken) branch's target after validation, as a
        # transform dropping a dead block would; compiling the observed
        # units must not choke on it, and execution must match.
        beq = [i for i in program.functions["main"].instructions() if i.op.value == "beq"][0]
        beq.target = "ghost"
        runs = self._observed_runs(program)
        (reference, ref_tables), (block, block_tables) = runs["reference"], runs["block"]
        assert block.output == reference.output == [1, 1]
        assert block.trace.records == reference.trace.records
        assert block_tables == ref_tables

        # Taken variant: both tiers fail identically (same KeyError key).
        li = [i for i in program.functions["main"].instructions() if i.op.value == "li"][0]
        li.srcs = (type(li.srcs[0])(0),)  # cond == 0 -> beq taken
        errors = {}
        for tier in ("reference", "block"):
            with pytest.raises(KeyError) as excinfo:
                Machine(program).run(dispatch=tier, value_observer=ValueProfiler(_uids(program)))
            errors[tier] = excinfo.value.args
        assert errors["block"] == errors["reference"]

    def test_instruction_limit_enforced(self):
        program = assemble_program(
            """
.func main 0
entry:
    br entry
.endfunc
"""
        )
        profiler = ValueProfiler(_uids(program))
        with pytest.raises(SimulationLimitExceeded):
            Machine(program, max_instructions=100).run(dispatch="block", value_observer=profiler)

    def test_environment_opt_out(self, monkeypatch):
        program = assemble_program(
            """
.func main 0
entry:
    halt
.endfunc
"""
        )
        monkeypatch.setenv("REPRO_SIM_DISPATCH", "reference")
        assert Machine(program).dispatch == "reference"
        monkeypatch.delenv("REPRO_SIM_DISPATCH")
        assert Machine(program).dispatch == "block"
        assert Machine(program, dispatch="reference").dispatch == "reference"
        # The retired tier name no longer selects anything.
        monkeypatch.setenv("REPRO_SIM_DISPATCH", "fast")
        with pytest.raises(ValueError):
            Machine(program)


class TestBlockDispatch:
    """The block-compiled tier must be indistinguishable from the reference
    loop — records, counters, outputs, observed values, failure modes."""

    def _run_both_tiers(self, program, **kwargs):
        machine = Machine(program)
        return {
            tier: machine.run(collect_trace=True, dispatch=tier, **kwargs)
            for tier in ("reference", "block")
        }

    def _assert_runs_match(self, runs):
        reference, block = runs["reference"], runs["block"]
        assert block.instructions == reference.instructions
        assert block.output == reference.output
        assert block.block_counts == reference.block_counts
        assert block.call_counts == reference.call_counts
        assert block.halted == reference.halted
        assert block.trace.records == reference.trace.records

    @pytest.mark.parametrize("name", ("ijpeg", "li"))
    def test_traces_are_bit_identical_on_workloads(self, name, assert_tiers_agree):
        workload = workload_by_name(name)
        program = workload.build()
        workload.apply_input(program, "ref")
        # Lockstep first: a bit-exactness failure reports the exact first
        # diverging step/uid instead of a summary mismatch.
        assert_tiers_agree(program, tiers=("reference", "block"))
        self._assert_runs_match(self._run_both_tiers(program))

    def test_dispatch_tier_resolution(self, monkeypatch):
        program = assemble_program(
            """
.func main 0
entry:
    halt
.endfunc
"""
        )
        monkeypatch.delenv("REPRO_SIM_DISPATCH", raising=False)
        assert Machine(program).dispatch == "block"
        monkeypatch.setenv("REPRO_SIM_DISPATCH", "block")
        assert Machine(program).dispatch == "block"
        # The reference opt-out vocabulary is shared with
        # REPRO_TIMING_KERNEL and REPRO_RESULT_STORE.
        for alias in ("reference", "ref", "slow", "off", "0", "false", "disabled", "none", " Off "):
            monkeypatch.setenv("REPRO_SIM_DISPATCH", alias)
            assert Machine(program).dispatch == "reference", alias
        # A retired tier name or a typo is rejected, naming what is accepted.
        for bad in ("fast", "blok", "turbo"):
            monkeypatch.setenv("REPRO_SIM_DISPATCH", bad)
            with pytest.raises(ValueError, match="'block'.*'reference'"):
                Machine(program)
        # An explicit tier beats the environment (even a broken one);
        # unknown explicit tiers fail fast.
        assert Machine(program, dispatch="block").dispatch == "block"
        monkeypatch.setenv("REPRO_SIM_DISPATCH", "reference")
        assert Machine(program, dispatch="block").dispatch == "block"
        assert Machine(program).run(dispatch="block").halted
        for bad in ("fast", "turbo"):
            with pytest.raises(ValueError, match="block, reference"):
                Machine(program, dispatch=bad)
            with pytest.raises(ValueError, match="block, reference"):
                Machine(program).run(dispatch=bad)

    def test_limit_boundaries_exact_across_tiers(self):
        """SimulationLimitExceeded must fire at the same dynamic
        instruction count in both tiers, including limits landing in the
        middle of a basic block (the block tier hoists its limit check to
        block granularity)."""
        program = assemble_program(
            """
.data buf 8 64
.func main 0
entry:
    li r1, 0
    li r2, =buf
loop:
    add r1, r1, 1
    stq r1, 0(r2)
    ldq r3, 0(r2)
    xor r4, r3, 85
    cmplt r5, r1, 3
    bne r5, loop
done:
    print r1
    halt
.endfunc
"""
        )
        machine = Machine(program)
        total = machine.run(dispatch="reference").instructions
        assert total > 10
        for limit in range(1, total + 1):
            bounded = Machine(program, max_instructions=limit)
            outcomes = {}
            for tier in ("reference", "block"):
                try:
                    bounded.run(dispatch=tier)
                    outcomes[tier] = "completed"
                except SimulationLimitExceeded as error:
                    outcomes[tier] = str(error)
            assert outcomes["block"] == outcomes["reference"], limit
        assert Machine(program, max_instructions=total).run().halted

    def test_value_observer_falls_back_bit_exact(self):
        """Profiling runs stay on the block tier, with ``observe`` calls
        compiled into the units; the observed value stream must match the
        reference loop exactly, across loops, calls (the return address
        is a CALL's result) and raw 64-bit MOV immediates."""
        from repro.isa import Imm

        program = assemble_program(
            """
.func helper 1
entry:
    mov v0, a0
    ret
.endfunc
.func main 0
entry:
    li r1, 0
loop:
    add r1, r1, 7
    mov a0, r1
    jsr helper
    cmplt r2, r1, 21
    bne r2, loop
done:
    print r1
    print v0
    halt
.endfunc
"""
        )
        add = [i for i in program.functions["main"].instructions() if i.op.value == "add"][0]
        mov = [i for i in program.functions["main"].instructions() if i.op.value == "mov"][0]
        mov.srcs = (Imm(2**64 - 1),)
        tables = {}
        for tier in ("reference", "block"):
            profiler = ValueProfiler(_uids(program))
            machine = Machine(program, dispatch=tier)
            run = machine.run(collect_trace=True, value_observer=profiler)
            tables[tier] = (
                {uid: vars(table) for uid, table in profiler.tables.items()},
                run.output,
                run.trace.records,
            )
        assert tables["block"] == tables["reference"]
        assert profiler.table(add.uid).entries == {7: 1, 14: 1, 21: 1}
        assert profiler.table(mov.uid).entries == {2**64 - 1: 3}

    def test_observer_run_never_enters_reference_steps(self, monkeypatch):
        """The block tier profiles values itself: a value-observer run on
        a program without mid-block landings never touches the reference
        stepper."""
        workload = workload_by_name("li")
        program = workload.build()
        workload.apply_input(program, "train")

        def probe(*args, **kwargs):
            raise AssertionError("observer run entered the reference stepper")

        monkeypatch.setattr(Machine, "_reference_steps", probe)
        watched = _uids(program)
        profiler = ValueProfiler(watched)
        machine = Machine(program, dispatch="block")
        run = machine.run(value_observer=profiler)
        assert run.halted
        assert profiler.profiled_points() > 0
        assert list(machine._block_programs) == [(False, frozenset(watched))]

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_value_profiles_match_reference_on_train_inputs(self, name):
        """Every instruction watched, on every suite workload's VRS train
        input: the block tier's profiler tables equal the reference loop's."""
        workload = workload_by_name(name)
        program = workload.build()
        workload.apply_input(program, "train")
        tables = {}
        for tier in ("reference", "block"):
            profiler = ValueProfiler(_uids(program))
            run = Machine(program, dispatch=tier).run(value_observer=profiler)
            tables[tier] = (
                {uid: vars(table) for uid, table in profiler.tables.items()},
                run.instructions,
                run.output,
            )
        assert tables["block"] == tables["reference"]

    def test_computed_return_mid_block_matches_reference(self):
        """A return address nobody's call produced lands mid-block; the
        block tier finishes on the resumed reference stepper with
        identical results, observed values included."""
        program = assemble_program(
            """
.func helper 0
entry:
    add ra, ra, 4
    ret
.endfunc
.func main 0
entry:
    li r1, 7
    jsr helper
    add r1, r1, 100
    sub r1, r1, 1
    print r1
    halt
.endfunc
"""
        )
        observed = {}
        runs = {}
        for tier in ("reference", "block"):
            profiler = ValueProfiler(_uids(program))
            runs[tier] = Machine(program).run(
                collect_trace=True, dispatch=tier, value_observer=profiler
            )
            observed[tier] = {uid: vars(table) for uid, table in profiler.tables.items()}
        assert runs["reference"].output == [6]  # the tampered return skips the add
        self._assert_runs_match(runs)
        assert observed["block"] == observed["reference"]

    def test_mid_block_landing_keeps_the_instruction_limit(self, monkeypatch):
        """The resumed reference stepper counts from the landing point, so
        the limit fires at the same dynamic instruction as the reference."""
        program = assemble_program(
            """
.func helper 0
entry:
    add ra, ra, 4
    ret
.endfunc
.func main 0
entry:
    li r1, 0
    jsr helper
    add r1, r1, 100
    add r1, r1, 200
spin:
    add r1, r1, 1
    br spin
.endfunc
"""
        )
        landings = []
        real_steps = Machine._reference_steps

        def spy(self, *args, **kwargs):
            landings.append(args[8])  # the resume instruction count
            return real_steps(self, *args, **kwargs)

        errors = {}
        for limit in (3, 4, 5, 6, 1000):
            for tier in ("reference", "block"):
                with pytest.raises(SimulationLimitExceeded) as excinfo:
                    Machine(program, max_instructions=limit).run(dispatch=tier)
                errors[tier] = str(excinfo.value)
            assert errors["block"] == errors["reference"], limit
        monkeypatch.setattr(Machine, "_reference_steps", spy)
        with pytest.raises(SimulationLimitExceeded):
            Machine(program, max_instructions=1000).run(dispatch="block")
        assert landings == [4]  # li, jsr, add ra, ret — then the landing

    def test_mov_out_of_range_immediate_matches_reference(self):
        """Raw 64-bit immediates overflow the batched arena extend; the
        block tier's spill path must keep them exact."""
        from repro.isa import Imm

        program = assemble_program(
            """
.func main 0
entry:
    li r1, 1
    mov r2, r1
    add r3, r2, 1
    print r3
    halt
.endfunc
"""
        )
        mov = [i for i in program.functions["main"].instructions() if i.op.value == "mov"][0]
        mov.srcs = (Imm(2**64 - 1),)
        runs = self._run_both_tiers(program)
        assert runs["block"].output == runs["reference"].output == [0]
        assert runs["block"].trace.records == runs["reference"].trace.records
        assert runs["block"].trace.has_overflow_values

    def test_dead_branch_and_dead_call_match_reference(self):
        program = assemble_program(
            """
.func main 0
entry:
    li r1, 1
    beq r1, next
next:
    print r1
    halt
.endfunc
"""
        )
        # Prune the branch's target after validation, as a transform
        # dropping a dead block would; compilation must not choke on it.
        beq = [i for i in program.functions["main"].instructions() if i.op.value == "beq"][0]
        beq.target = "ghost"
        # Never taken: both tiers run to completion identically.
        runs = self._run_both_tiers(program)
        assert runs["reference"].output == [1]
        self._assert_runs_match(runs)

        # Taken: both tiers fail identically (same KeyError key).
        li = [i for i in program.functions["main"].instructions() if i.op.value == "li"][0]
        li.srcs = (type(li.srcs[0])(0),)  # cond == 0 -> beq taken
        errors = {}
        for tier in ("reference", "block"):
            with pytest.raises(KeyError) as excinfo:
                Machine(program).run(dispatch=tier)
            errors[tier] = excinfo.value.args
        assert errors["block"] == errors["reference"] == (("main", "ghost"),)

        # Dead call: a jsr whose callee was removed must raise the same
        # KeyError in both tiers (after the return-address write, before
        # any call counting, observation or emission).
        call_program = assemble_program(
            """
.func helper 0
entry:
    ret
.endfunc
.func main 0
entry:
    li r1, 1
    jsr helper
    print r1
    halt
.endfunc
"""
        )
        jsr = [
            i for i in call_program.functions["main"].instructions() if i.op.value == "jsr"
        ][0]
        jsr.target = "removed"
        call_errors = {}
        for tier in ("reference", "block"):
            profiler = ValueProfiler({jsr.uid})
            with pytest.raises(KeyError) as excinfo:
                Machine(call_program).run(dispatch=tier, value_observer=profiler)
            call_errors[tier] = excinfo.value.args
            assert profiler.table(jsr.uid) is None, tier
        assert call_errors["block"] == call_errors["reference"] == ("removed",)

    def test_instruction_limit_enforced(self):
        program = assemble_program(
            """
.func main 0
entry:
    br entry
.endfunc
"""
        )
        with pytest.raises(SimulationLimitExceeded):
            Machine(program, max_instructions=100).run(dispatch="block")

    @pytest.mark.slow
    def test_speedup_over_reference_loop(self):
        """The block tier must stay well ahead of the reference loop on a
        trace-collecting run (the configuration the headline benchmark
        exercises); ``benchmarks/bench_sim.py`` holds the tighter bar."""
        workload = workload_by_name("go")
        program = workload.build()
        workload.apply_input(program, "ref")
        machine = Machine(program)

        def timed(tier):
            # The cyclic collector fires on allocation volume and its pauses
            # depend on how much unrelated live heap the test session has
            # accumulated; keep it out of the measured region.
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                machine.run(collect_trace=True, dispatch=tier)
                return time.perf_counter() - start
            finally:
                gc.enable()

        def measured_ratio():
            # Interleave the two tiers and keep the best of five rounds
            # each, so one background hiccup cannot skew either side.
            reference_seconds = []
            block_seconds = []
            for _ in range(5):
                reference_seconds.append(timed("reference"))
                block_seconds.append(timed("block"))
            return min(reference_seconds) / min(block_seconds)

        ratio = measured_ratio()
        if ratio < 4.0:
            # One remeasure before failing: a loaded shared runner can
            # depress a single sample set, and this bar guards a property
            # (typically 8-10x locally), not a scheduler.
            ratio = max(ratio, measured_ratio())
        assert ratio >= 4.0
