"""Quickstart: compile a small program, run VRP, and measure the energy effect.

Run with::

    python examples/quickstart.py
"""

from repro.core import VRPConfig, apply_widths, run_vrp
from repro.hardware import gating
from repro.ir import format_program
from repro.minic import compile_source
from repro.power import EnergyAccountant
from repro.sim import Machine
from repro.uarch import OutOfOrderModel

SOURCE = """
char message[64];
int histogram[16];

int classify(int byte) {
    return (byte * 13) & 15;
}

int main() {
    int i;
    long checksum;
    checksum = 0;
    for (i = 0; i < 64; i = i + 1) {
        message[i] = (i * 37) & 255;
    }
    for (i = 0; i < 64; i = i + 1) {
        histogram[classify(message[i])] = histogram[classify(message[i])] + 1;
        checksum = checksum + message[i];
    }
    print(checksum);
    return 0;
}
"""


def simulate(program, policy: str):
    """Simulate once, time the trace and account its energy under ``policy``."""
    run = Machine(program).run(collect_trace=True)
    timing = OutOfOrderModel().run(run.trace)
    energy = EnergyAccountant(gating.get(policy)).account(run.trace, timing)
    return run, timing, energy


def main() -> None:
    # 1. Compile the mini-C program to the Alpha-like binary IR.
    program = compile_source(SOURCE)
    print("=== Generated code (before VRP) ===")
    print(format_program(program))

    # 2. Baseline simulation: no operand gating.
    base_run, base_timing, base_energy = simulate(program, "baseline")
    print(f"baseline: {base_timing.instructions} instructions, "
          f"{base_timing.cycles} cycles, energy {base_energy.total:.1f}")

    # 3. Run value range propagation and re-encode the opcodes.
    result = run_vrp(program, VRPConfig())
    changed = apply_widths(program, result)
    print(f"VRP re-encoded {changed} instructions "
          f"({result.narrowed_instructions()} narrowed) in {result.analysis_seconds * 1000:.1f} ms")

    # 4. Simulate again with software operand gating.
    run, _, energy = simulate(program, "software")
    print(f"with VRP: energy {energy.total:.1f} "
          f"({(1 - energy.total / base_energy.total) * 100:.1f}% saved), "
          f"output unchanged: {run.output == base_run.output}")

    print("=== Re-encoded code (after VRP) ===")
    print(format_program(program))


if __name__ == "__main__":
    main()
