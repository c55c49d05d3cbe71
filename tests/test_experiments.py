"""Tests for the experiment harness plumbing (kept light: one workload)."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.experiments import (
    POLICY_NAMES,
    EvaluationSummary,
    ExperimentConfig,
    WorkloadEvaluation,
    default_engine,
    format_percent,
    format_table,
    table1_alu_energy_matrix,
)
from repro.hardware import gating
from repro.isa import Width
from repro.workloads import workload_by_name


def _evaluate(workload, mechanism):
    config = ExperimentConfig(workload=workload.name, mechanism=mechanism)
    return default_engine().evaluate(config, workload=workload)


class TestReportFormatting:
    def test_format_percent(self):
        assert format_percent(0.1375) == "13.8%"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["long-name", 2.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-name" in text
        assert "2.500" in text


class TestRunner:
    def test_policy_names(self):
        for name in ("baseline", "software", "hw-size", "hw-significance", "sw+hw-significance"):
            assert gating.get(name) is gating.get(name)

    def test_unknown_policy_lists_valid_names(self):
        with pytest.raises(KeyError) as excinfo:
            gating.get("hw-compression")
        message = str(excinfo.value)
        assert "hw-compression" in message
        assert "valid policies" in message
        assert "sw+hw-significance" in message

    def test_evaluate_workload_caches_and_reuses_trace(self):
        workload = workload_by_name("ijpeg")
        first = _evaluate(workload, mechanism="none")
        second = _evaluate(workload, mechanism="none")
        assert first is second
        baseline = first.outcome("baseline")
        hardware = first.outcome("hw-significance")
        assert baseline.timing is hardware.timing
        assert hardware.energy.total < baseline.energy.total

    def test_vrp_narrows_dynamic_widths(self):
        workload = workload_by_name("ijpeg")
        baseline = _evaluate(workload, mechanism="none")
        vrp = _evaluate(workload, mechanism="vrp")
        base_widths = baseline.dynamic_width_distribution()
        vrp_widths = vrp.dynamic_width_distribution()
        assert vrp_widths[Width.QUAD] <= base_widths[Width.QUAD]
        assert sum(vrp_widths.values()) == vrp.total_dynamic_instructions

    def test_width_distribution_matches_between_outcome_and_evaluation(self):
        # The once copy-pasted aggregation now has a single implementation
        # on Trace; both public entry points must agree exactly.  Computed
        # directly (not through the engine) so a prior in-process
        # suite evaluation cannot hand back a restored, trace-less object.
        evaluation = default_engine().compute(ExperimentConfig(workload="ijpeg"))
        outcome = evaluation.outcome("baseline")
        assert (
            outcome.dynamic_width_distribution(evaluation.trace)
            == evaluation.dynamic_width_distribution()
        )


class TestRestoredOutcomes:
    """A ``from_summary()`` evaluation answers every energy query the live
    evaluation can, without a trace — the point of materializing all
    gating policies in one fused walk."""

    @pytest.fixture(scope="class")
    def live(self):
        return default_engine().compute(ExperimentConfig(workload="ijpeg"))

    @pytest.fixture(scope="class")
    def restored(self, live):
        # Round-trip through actual JSON so the comparison covers the wire
        # format, not just in-memory object sharing.
        payload = json.loads(json.dumps(live.summarize().to_json_dict()))
        summary = EvaluationSummary.from_json_dict(payload)
        return WorkloadEvaluation.from_summary(live.workload, summary)

    def test_restored_answers_all_policies_without_a_trace(self, live, restored):
        assert restored.is_restored
        assert restored.trace is None
        for name in POLICY_NAMES:
            outcome = restored.outcome(name)
            assert outcome.energy.by_structure == live.outcome(name).energy.by_structure
            assert outcome.energy.policy == live.outcome(name).energy.policy
            assert outcome.timing.cycles == live.timing.cycles

    def test_restored_unknown_policy_raises_improved_keyerror(self, restored):
        with pytest.raises(KeyError) as excinfo:
            restored.outcome("hw-compression")
        message = str(excinfo.value)
        assert "hw-compression" in message
        assert "not part of the stored summary" in message
        assert "baseline" in message  # the available policies are listed

    def test_live_unknown_policy_raises_improved_keyerror(self, live):
        with pytest.raises(KeyError) as excinfo:
            live.outcome("hw-compression")
        message = str(excinfo.value)
        assert "hw-compression" in message
        assert "valid policies" in message

    def test_savings_agree_between_live_and_restored(self, live, restored):
        live_base = live.outcome("baseline").energy
        restored_base = restored.outcome("baseline").energy
        for name in POLICY_NAMES:
            live_energy = live.outcome(name).energy
            restored_energy = restored.outcome(name).energy
            assert live_energy.savings_vs(live_base) == restored_energy.savings_vs(
                restored_base
            ), name
            assert live_energy.ed2_savings_vs(live_base) == restored_energy.ed2_savings_vs(
                restored_base
            ), name


class TestTable1:
    def test_matrix_shape(self):
        matrix = table1_alu_energy_matrix()
        assert set(matrix) == set(Width.all_widths())
        for row in matrix.values():
            assert set(row) == set(Width.all_widths())


class TestStoreCorruptionRecovery:
    """Corrupted on-disk entries must read as misses — logged, evicted,
    and recomputed — never as crashes."""

    @staticmethod
    def _fresh(tmp_path):
        from repro.experiments.engine import ExperimentConfig, ExperimentEngine
        from repro.experiments.store import ResultStore

        store = ResultStore(tmp_path / "store")
        engine = ExperimentEngine(store=store, jobs=1)
        return engine, ExperimentConfig(workload="li"), store

    def test_corrupt_summary_entry_is_evicted(self, tmp_path, caplog):
        engine, config, store = self._fresh(tmp_path)
        engine.evaluate(config)
        key = engine.key_for(config)
        path = store.path_for(key)
        assert path.is_file()
        path.write_text("{ this is not json", encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.experiments.store"):
            assert store.load(key) is None
        assert not path.exists()
        assert any("evicting corrupt result entry" in line for line in caplog.messages)

    def test_decodable_entry_with_broken_summary_is_evicted(self, tmp_path, caplog):
        engine, config, store = self._fresh(tmp_path)
        engine.evaluate(config)
        key = engine.key_for(config)
        path = store.path_for(key)
        path.write_text(json.dumps({"summary": {"bogus": 1}}), encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.experiments.store"):
            assert store.load(key) is None
        assert not path.exists()
        assert any("evicting corrupt result entry" in line for line in caplog.messages)

    @pytest.mark.parametrize(
        "cut",
        [
            pytest.param(lambda blob: blob[:16], id="header"),
            pytest.param(lambda blob: blob[: len(blob) // 2], id="middle"),
            pytest.param(lambda blob: blob[: len(blob) - 8], id="tail"),
        ],
    )
    def test_truncated_trace_snapshot_falls_back_to_simulation(
        self, tmp_path, caplog, cut
    ):
        from repro.experiments.engine import _snapshot_key
        from repro.sim.machine import Machine
        from repro.workloads import workload_by_name as by_name

        engine, config, store = self._fresh(tmp_path)
        engine.evaluate(config)
        snapshot = store.trace_path_for(_snapshot_key(config, by_name("li")))
        assert snapshot.is_file()
        # Truncate the snapshot in place: the decoder must reject it, the
        # store must quarantine it, and evaluation must re-simulate.
        blob = snapshot.read_bytes()
        corrupt = cut(blob)
        assert corrupt != blob
        snapshot.write_bytes(corrupt)
        # Drop the summary entry so resolution reaches the snapshot layer.
        store.path_for(engine.key_for(config)).unlink()

        simulations = []
        original_run = Machine.run

        def counting_run(self, *args, **kwargs):
            simulations.append(1)
            return original_run(self, *args, **kwargs)

        engine2, config2, _ = self._fresh(tmp_path)
        Machine.run = counting_run
        try:
            with caplog.at_level("WARNING", logger="repro.experiments.store"):
                evaluation = engine2.evaluate(config2)
        finally:
            Machine.run = original_run
        assert simulations, "corrupt snapshot did not fall back to simulation"
        assert not evaluation.is_restored
        assert any(
            "evicting corrupt trace snapshot" in line
            or "evicting unreplayable trace snapshot" in line
            for line in caplog.messages
        )
        # The recompute replaced the truncated snapshot with a fresh,
        # decodable one at the same path.
        from repro.sim.snapshot import decode_artifact

        assert snapshot.read_bytes() != corrupt
        assert decode_artifact(snapshot.read_bytes()) is not None
        # The corrupt bytes were quarantined, not destroyed: a reason
        # manifest names the original path and the corrupt payload is
        # preserved verbatim for post-mortem analysis.
        quarantined = store.quarantined()
        assert quarantined, "truncated snapshot was not quarantined"
        matches = [
            (path, manifest)
            for path, manifest in quarantined
            if manifest.get("original_path") == str(snapshot)
        ]
        assert matches, f"no quarantine manifest names {snapshot}"
        qpath, manifest = matches[0]
        assert qpath.read_bytes() == corrupt
        assert manifest["reason"]

    def test_garbage_trace_snapshot_reads_as_miss(self, tmp_path, caplog):
        engine, config, store = self._fresh(tmp_path)
        engine.evaluate(config)
        from repro.experiments.engine import _snapshot_key
        from repro.workloads import workload_by_name as by_name

        key = _snapshot_key(config, by_name("li"))
        snapshot = store.trace_path_for(key)
        snapshot.write_bytes(b"\x00garbage\xff" * 64)
        with caplog.at_level("WARNING", logger="repro.experiments.store"):
            assert store.load_trace(key) is None
        assert not snapshot.exists()
        assert any("evicting corrupt trace snapshot" in line for line in caplog.messages)


@pytest.mark.suite
@pytest.mark.slow
def test_second_suite_evaluation_runs_zero_simulations(tmp_path):
    """A fresh process re-running ``map_suite`` is served from the
    on-disk store and never enters ``Machine.run``."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    store = tmp_path / "store"
    env = dict(os.environ)
    env["REPRO_RESULT_STORE"] = str(store)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")

    warm_script = textwrap.dedent(
        """
        import json
        from repro.experiments import default_engine
        evaluations = default_engine().map_suite(mechanism="none")
        print(json.dumps({n: e.timing.cycles for n, e in evaluations.items()}))
        """
    )
    warm = subprocess.run(
        [sys.executable, "-c", warm_script], env=env, capture_output=True, text=True, timeout=900
    )
    assert warm.returncode == 0, warm.stderr
    warm_cycles = json.loads(warm.stdout.strip().splitlines()[-1])

    cold_script = textwrap.dedent(
        """
        import json
        from repro.sim.machine import Machine

        def _forbidden(self, *args, **kwargs):
            raise AssertionError("Machine.run called despite a warm result store")

        Machine.run = _forbidden
        from repro.experiments import default_engine
        evaluations = default_engine().map_suite(mechanism="none")
        assert all(e.is_restored for e in evaluations.values())
        baseline = {n: e.outcome("baseline").energy.total for n, e in evaluations.items()}
        assert all(total > 0 for total in baseline.values())
        print(json.dumps({n: e.timing.cycles for n, e in evaluations.items()}))
        """
    )
    served = subprocess.run(
        [sys.executable, "-c", cold_script], env=env, capture_output=True, text=True, timeout=300
    )
    assert served.returncode == 0, served.stderr
    served_cycles = json.loads(served.stdout.strip().splitlines()[-1])
    assert served_cycles == warm_cycles
