"""Tests for value range propagation: ranges, loops, useful bits, widths."""

from collections import Counter

from repro.core import VRPConfig, ValueRange, apply_widths, propagation, run_vrp
from repro.isa import Instruction, Opcode, Width
from repro.minic import compile_source
from repro.sim import Machine


def _analyse(source: str, config: VRPConfig | None = None):
    program = compile_source(source)
    result = run_vrp(program, config or VRPConfig())
    return program, result


def _instruction(program, function: str, opcode: Opcode, index: int = 0):
    matches = [i for i in program.functions[function].instructions() if i.op is opcode]
    return matches[index]


class TestInitialAndPropagatedRanges:
    def test_constant_assignment(self):
        program, result = _analyse("int main() { int a; a = 42; print(a); return 0; }")
        li = _instruction(program, "main", Opcode.LI)
        analysis = result.analysis_for("main")
        assert analysis.output_range(li).is_constant
        assert analysis.output_range(li).lo == 42

    def test_byte_load_bounds_result(self):
        source = "char buf[8]; int main() { print(buf[3]); return 0; }"
        program, result = _analyse(source)
        load = _instruction(program, "main", Opcode.LDB)
        rng = result.analysis_for("main").output_range(load)
        assert rng.lo == 0 and rng.hi == 255

    def test_loop_trip_count_bounds_iterator(self):
        source = """
        int sink;
        int main() {
            int i;
            for (i = 0; i < 100; i = i + 1) { sink = i; }
            return 0;
        }
        """
        program, result = _analyse(source)
        add = [
            inst
            for inst in program.functions["main"].instructions()
            if inst.op is Opcode.ADD and inst.dest in inst.source_registers()
        ][0]
        rng = result.analysis_for("main").output_range(add)
        # The paper's example: the incremented iterator spans <1, 100>.
        assert rng.lo == 1
        assert rng.hi == 100
        assert result.width_of(add.uid) is Width.BYTE

    def test_branch_condition_refines_range(self):
        source = """
        int sink;
        int main(){
            int a;
            a = sink;
            if (a <= 100) { if (a > 5) { sink = a; } }
            return 0;
        }
        """
        program, result = _analyse(source)
        # The store inside the nested if writes a value known to be in [6, 100].
        store = _instruction(program, "main", Opcode.STW, index=0)
        analysis = result.analysis_for("main")
        value_reg = store.srcs[0]
        rng = analysis.operand_range(store, value_reg)
        assert rng.lo >= 6
        assert rng.hi <= 100

    def test_interprocedural_return_range(self):
        source = """
        int small() { return 7; }
        int main() { print(small() + 1); return 0; }
        """
        program, result = _analyse(source)
        assert result.return_ranges["small"].is_constant
        assert result.return_ranges["small"].lo == 7


class TestUsefulRanges:
    SOURCE = """
    long wide;
    int main() {
        long x;
        x = wide;
        x = x + 12345678;
        x = x * 3;
        print(x & 0xff);
        return 0;
    }
    """

    def test_useful_bits_narrow_chain_feeding_mask(self):
        program, result = _analyse(self.SOURCE)
        add = _instruction(program, "main", Opcode.ADD)
        mul = _instruction(program, "main", Opcode.MUL)
        # Only the low byte of the chain is useful; MUL has no byte variant
        # so it falls back to its narrowest (32-bit) encoding.
        assert result.width_of(add.uid) is Width.BYTE
        assert result.width_of(mul.uid) is Width.WORD

    def test_conventional_vrp_keeps_chain_wide(self):
        program, result = _analyse(self.SOURCE, VRPConfig().conventional())
        add = _instruction(program, "main", Opcode.ADD)
        assert result.width_of(add.uid) is Width.QUAD

    def test_wider_use_elsewhere_blocks_narrowing(self):
        source = """
        long wide;
        int main() {
            long x;
            x = wide + 5;
            print(x & 0xff);
            print(x);
            return 0;
        }
        """
        program, result = _analyse(source)
        add = _instruction(program, "main", Opcode.ADD)
        # x is also printed in full, so the add may not be narrowed.
        assert result.width_of(add.uid) is Width.QUAD


class TestWidthAssignmentAndCorrectness:
    def test_widths_never_widen(self):
        source = "int main() { int a; a = 1000000; print(a + a); return 0; }"
        program, result = _analyse(source)
        for inst in program.instructions():
            assert result.width_of(inst.uid) <= inst.width

    def test_apply_widths_preserves_semantics(self):
        source = """
        char data[64];
        int histogram[16];
        int main() {
            int i;
            long total;
            total = 0;
            for (i = 0; i < 64; i = i + 1) { data[i] = (i * 37) & 255; }
            for (i = 0; i < 64; i = i + 1) {
                histogram[data[i] & 15] = histogram[data[i] & 15] + 1;
                total = total + data[i];
            }
            for (i = 0; i < 16; i = i + 1) { print(histogram[i]); }
            print(total);
            return 0;
        }
        """
        program = compile_source(source)
        baseline = Machine(program).run().output
        result = run_vrp(program)
        changed = apply_widths(program, result)
        assert changed > 0
        assert Machine(program).run().output == baseline

    def test_analysis_reports_narrowed_instructions(self):
        source = "char c[4]; int main() { print(c[0] & 7); return 0; }"
        program, result = _analyse(source)
        assert result.narrowed_instructions() > 0
        distribution = result.static_width_distribution()
        assert sum(distribution.values()) == len(result.widths)


class TestInterproceduralRounds:
    """The per-round skip rule: a function is re-analysed exactly when its
    parameter ranges or a callee's return range changed since its last
    analysis, and its static facts are built once per ``run_vrp``."""

    def test_constant_argument_narrows_callee_parameter(self):
        source = """
        int sink;
        int bump(int x) { return x + 1; }
        int main() { sink = bump(7); return 0; }
        """
        program, result = _analyse(source)
        # Round 1 sees ``x`` unknown; round 2 seeds it with the caller's 7.
        assert result.global_rounds == 2
        add = _instruction(program, "bump", Opcode.ADD)
        analysis = result.analysis_for("bump")
        assert analysis.operand_range(add, add.srcs[0]) == ValueRange.constant(7)
        assert analysis.output_range(add) == ValueRange.constant(8)
        assert result.return_ranges["bump"] == ValueRange.constant(8)
        assert result.width_of(add.uid) is Width.BYTE

    def test_self_recursive_function_sees_its_own_return_range(self):
        source = """
        int left;
        int half() { if (left <= 0) return 1; left = left - 1; return half() >> 1; }
        int twice(int x) { return x + x; }
        int main() { left = 10; print(half() + twice(3)); return 0; }
        """
        program = compile_source(source)
        baseline = Machine(program).run().output
        result = run_vrp(program)
        # ``twice``'s parameter forces a second round.  ``half`` has no
        # parameters, but it calls itself: round 1 shifts an unknown int
        # (2^31 >> 1), round 2 shifts round 1's range again.
        assert result.global_rounds == 2
        assert result.return_ranges["half"] == ValueRange(-(1 << 29), (1 << 29) - 1)
        apply_widths(program, result)
        assert Machine(program).run().output == baseline

    def test_static_facts_built_once_and_unchanged_inputs_not_reanalysed(self, monkeypatch):
        graphs: Counter[str] = Counter()
        analyses: Counter[str] = Counter()
        build_graph = propagation.build_dependence_graph
        analyse = propagation.FunctionVRP._analyse

        def counting_build(function, program=None):
            graphs[function.name] += 1
            return build_graph(function, program)

        def counting_analyse(engine, *args):
            analyses[engine.function.name] += 1
            return analyse(engine, *args)

        monkeypatch.setattr(propagation, "build_dependence_graph", counting_build)
        monkeypatch.setattr(propagation.FunctionVRP, "_analyse", counting_analyse)
        source = """
        int leaf() { return 5; }
        int mid(int x) { return x + leaf(); }
        int main() { print(mid(3)); return 0; }
        """
        program, result = _analyse(source)
        assert result.global_rounds == 2
        assert graphs == {name: 1 for name in program.functions}
        # Round 2: ``mid`` gets x = 3 and ``main`` sees mid's new return
        # range; ``leaf`` has the same (empty) inputs and keeps round 1.
        assert analyses["leaf"] == 1
        assert analyses["mid"] == 2
        assert analyses["main"] == 2
        assert result.return_ranges["mid"] == ValueRange.constant(8)

    def test_run_vrp_allocates_no_instructions(self):
        # ``a > 5`` compiles to ``li t, 5; cmplt t2, t, a``: constraint
        # derivation folds the ``li`` into the comparison.
        source = """
        int sink;
        int main() { int a; a = sink; if (a > 5) { sink = a; } return 0; }
        """
        program = compile_source(source)
        before = Instruction(op=Opcode.NOP).uid
        run_vrp(program)
        assert Instruction(op=Opcode.NOP).uid == before + 1
