"""Value Range Specialization on an interpreter-style workload.

The m88ksim-analogue workload carries a processor-mode flag that is almost
always zero.  This example shows the full VRS pipeline on it: profiling on
the train input, candidate selection, region cloning behind range guards,
and the effect on the reference run.

Run with::

    python examples/specialize_interpreter.py
"""

from repro.core import VRSConfig, run_vrs
from repro.hardware import gating
from repro.power import EnergyAccountant
from repro.sim import Machine
from repro.uarch import OutOfOrderModel
from repro.workloads import workload_by_name


def simulate(program, policy: str):
    """Simulate once, time the trace and account its energy under ``policy``."""
    run = Machine(program).run(collect_trace=True)
    timing = OutOfOrderModel().run(run.trace)
    energy = EnergyAccountant(gating.get(policy)).account(run.trace, timing)
    return run, timing, energy


def main() -> None:
    workload = workload_by_name("m88ksim")

    # Reference behaviour of the untouched binary.
    baseline_program = workload.build()
    workload.apply_input(baseline_program, "ref")
    base_run, base_timing, base_energy = simulate(baseline_program, "baseline")
    base_ed2 = base_energy.energy_delay_squared()
    print(f"baseline: {base_timing.instructions} instructions, "
          f"{base_timing.cycles} cycles, ED2 {base_ed2:.3e}")

    # Profile on the *train* input and specialize.
    program = workload.build()
    workload.apply_input(program, "train")
    result = run_vrs(program, VRSConfig(threshold_nj=50.0))
    print(f"profiled {result.points_profiled} candidate points, "
          f"specialized {result.points_specialized}, "
          f"{result.points_no_benefit} had no benefit, "
          f"{result.points_dependent} were covered by another point")
    print(f"static instructions: +{result.static_specialized_instructions} specialized copies, "
          f"-{result.static_eliminated_instructions} eliminated by constant propagation")

    # Evaluate the specialized binary on the *reference* input.
    workload.apply_input(program, "ref")
    run, timing, energy = simulate(program, "software")
    assert run.output == base_run.output
    energy_saving = 1 - energy.total / base_energy.total
    ed2_saving = 1 - energy.energy_delay_squared() / base_ed2
    print(f"with VRS: {timing.instructions} instructions, "
          f"{timing.cycles} cycles")
    print(f"energy saving {energy_saving * 100:.1f}%, energy-delay^2 saving {ed2_saving * 100:.1f}%")

    for record in result.records:
        print(f"  specialized {record.function}: register range {record.value_range}, "
              f"{record.cloned_instructions} cloned instructions, "
              f"{record.fold_stats.instructions_removed} removed")


if __name__ == "__main__":
    main()
