"""Benchmark setup code runs in tier 1, not only in CI bench-smoke.

The ``benchmarks/`` files are only executed by the bench-smoke job, so an
API change they depend on (for example the store's key validation) could
break them without any tier-1 failure.  These tests run the benchmarks'
store-prefill setup on one small workload against a scratch store.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.experiments.store import ResultStore

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_benchmark(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_benchmark_{name}", _BENCHMARKS / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_fused():
    return _load_benchmark("bench_fused")


def test_bench_fused_prefill_round_trips_through_the_store(bench_fused, tmp_path):
    store = ResultStore(tmp_path / "store")
    workloads, instructions = bench_fused.prefill_store(store, ("li",))
    (workload,) = workloads
    assert instructions["li"] > 0

    fused_key = bench_fused._store_key("fused", workload)
    materialized_key = bench_fused._store_key("materialized", workload)
    assert fused_key != materialized_key
    fused = store.load(fused_key)
    materialized = store.load(materialized_key)
    assert fused is not None and materialized is not None
    assert fused.to_json_dict() == materialized.to_json_dict()
    assert store.load_trace(materialized_key) is not None
