"""§4.1: VRP analysis overhead relative to program execution."""

from repro.experiments import vrp_analysis_overhead
from repro.workloads import SUITE_NAMES


def test_vrp_analysis_overhead(benchmark, run_once):
    data = run_once(vrp_analysis_overhead)
    # Report where the analysis time goes (not a bar: timings vary by host).
    benchmark.extra_info["total_analysis_seconds"] = round(data["total_analysis_seconds"], 4)
    for name in SUITE_NAMES:
        key = f"{name}_analysis_seconds"
        benchmark.extra_info[key] = round(data[key], 4)
    assert data["total_analysis_seconds"] > 0.0
    # The binary-level analysis is a small fraction of even a simulated run
    # (the paper reports 0.02%-0.08% of native execution time).
    assert data["average_ratio"] < 2.0
