"""Integration tests over the workload suite.

The central soundness property of the whole reproduction is checked here:
VRP and VRS are *semantics preserving* — the transformed binaries must print
exactly what the baseline binaries print, on every workload.
"""

import sys
import threading

import pytest

from repro.core import VRPConfig, VRSConfig, apply_widths, run_vrp, run_vrs
from repro.sim import Machine
from repro.workloads import SUITE_NAMES, load_suite, workload_by_name


def _reference_output(workload, which="ref"):
    program = workload.build()
    workload.apply_input(program, which)
    return Machine(program).run().output


class TestSuiteDefinition:
    def test_suite_has_the_eight_specint_analogues(self):
        names = [w.name for w in load_suite()]
        assert names == list(SUITE_NAMES)

    def test_inputs_differ_between_train_and_ref(self):
        for workload in load_suite():
            assert workload.train_data != workload.ref_data

    def test_unknown_input_set_rejected(self):
        workload = workload_by_name("compress")
        program = workload.build()
        with pytest.raises(ValueError):
            workload.apply_input(program, "bogus")


@pytest.fixture
def fresh_registry(monkeypatch):
    """An empty, not-yet-loaded workload registry (restored afterwards)."""
    from repro.workloads import suite

    monkeypatch.setattr(suite, "_REGISTRY", {})
    monkeypatch.setattr(suite, "_LOADED", False, raising=False)
    # Force the program modules to re-execute (and re-register).
    for name in [m for m in sys.modules if m.startswith("repro.workloads.programs")]:
        monkeypatch.delitem(sys.modules, name)
    return suite


class TestRegistryLoading:
    def test_racing_lookup_waits_for_the_full_registry(self, fresh_registry, monkeypatch):
        """A lookup racing another thread's first import of the program
        modules must see the whole registry, never a partial one.

        Thread A starts the import; its first ``register`` call parks
        until thread B has attempted ``workload_by_name`` (or half a
        second has passed, which is how long B is given to block on the
        load instead).  A registry that reports itself loaded as soon as
        it is non-empty hands B a one-entry registry and a KeyError.
        """
        suite = fresh_registry
        first_registered = threading.Event()
        b_started = threading.Event()
        b_done = threading.Event()
        real_register = suite.register

        def slow_register(name):
            wrapper = real_register(name)

            def parked(factory):
                result = wrapper(factory)
                if not first_registered.is_set():
                    first_registered.set()
                    b_started.wait(5.0)
                    b_done.wait(0.5)
                return result

            return parked

        monkeypatch.setattr(suite, "register", slow_register)
        outcome = {}

        def racer():
            first_registered.wait(5.0)
            b_started.set()
            try:
                outcome["workload"] = workload_by_name("vortex")
            except Exception as error:  # the race's symptom
                outcome["error"] = error
            finally:
                b_done.set()

        thread_b = threading.Thread(target=racer)
        thread_b.start()
        names = [workload.name for workload in suite.load_suite()]
        thread_b.join(10.0)
        assert not thread_b.is_alive()
        assert names == list(SUITE_NAMES)
        assert "error" not in outcome, repr(outcome.get("error"))
        assert outcome["workload"].name == "vortex"

    def test_concurrent_first_lookups_stress(self, fresh_registry):
        """More threads than cores race the first load with a tiny switch
        interval; every lookup must find its workload."""
        names = SUITE_NAMES * 2
        barrier = threading.Barrier(len(names))
        found, errors = [], []

        def lookup(name):
            barrier.wait(5.0)
            try:
                found.append(workload_by_name(name).name)
            except Exception as error:  # the race's symptom
                errors.append(error)

        threads = [threading.Thread(target=lookup, args=(name,)) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(found) == sorted(names)


@pytest.mark.suite
@pytest.mark.parametrize("name", SUITE_NAMES)
class TestWorkloadExecution:
    def test_runs_and_is_deterministic(self, name):
        workload = workload_by_name(name)
        first = _reference_output(workload)
        second = _reference_output(workload)
        assert first == second
        assert len(first) >= 1

    def test_train_and_ref_produce_different_work(self, name):
        workload = workload_by_name(name)
        program_ref = workload.build()
        workload.apply_input(program_ref, "ref")
        program_train = workload.build()
        workload.apply_input(program_train, "train")
        ref_instructions = Machine(program_ref).run().instructions
        train_instructions = Machine(program_train).run().instructions
        assert ref_instructions > train_instructions


@pytest.mark.suite
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_vrp_preserves_output(name):
    workload = workload_by_name(name)
    expected = _reference_output(workload)
    program = workload.build()
    workload.apply_input(program, "ref")
    result = run_vrp(program, VRPConfig())
    apply_widths(program, result)
    assert Machine(program).run().output == expected
    assert result.narrowed_instructions() > 0


@pytest.mark.slow
@pytest.mark.parametrize("name", ("m88ksim", "vortex", "gcc"))
def test_vrs_preserves_output(name):
    workload = workload_by_name(name)
    expected = _reference_output(workload)
    program = workload.build()
    workload.apply_input(program, "train")
    run_vrs(program, VRSConfig(threshold_nj=50.0))
    workload.apply_input(program, "ref")
    assert Machine(program).run().output == expected
