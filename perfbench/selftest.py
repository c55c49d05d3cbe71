"""Self-test of the benchmark harness (short mode).

    python3 perfbench/run.py --self-test

Checks that:

1. the output check fires — perturbed copies of reference statistics (one
   cycle more, one energy total one ulp off, a sweep group with a changed
   row, a service row with a changed energy) each count as a failed
   operation and a digest mismatch, while the reference itself passes;
2. every workload, in both trace modes, prints a result line with exactly
   the keys the contract names and every metric of ``BENCHMARK.json`` with
   its unit (short mode: two suite workloads, a dozen service jobs);
3. the benchmark refuses to run without the program source: in a
   directory holding only ``BENCHMARK.json`` and ``perfbench/`` it exits
   non-zero and prints no result.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile

import digest
import run as bench


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_digest_check_fires() -> None:
    run = bench.Run(seed=0, seconds=0.0, trace=False, short=True)
    try:
        reference = run.digest["points"]["li/vrs"]
        run.check_points({"li/vrs": {"record": copy.deepcopy(reference), "fresh": True}}, True)
        check(run.failed == 0, "the reference record itself must pass")

        more_cycles = copy.deepcopy(reference)
        more_cycles["cycles"] += 1
        one_ulp = copy.deepcopy(reference)
        one_ulp["energy_nj"]["software"] = math.nextafter(
            one_ulp["energy_nj"]["software"], math.inf
        )
        for record in (more_cycles, one_ulp):
            run.check_points({"li/vrs": {"record": record, "fresh": True}}, True)

        row = {"config": "table2", "policy": "baseline", "instructions": 1, "cycles": 2,
               "energy_nj": 3.0, "ed2": 12.0}
        run.check_group("li", "vrs", {"hash": digest.rows_hash([row]), "sources": ["replayed"],
                                      "errors": 0})

        service_row = {"workload": "li", "instructions": reference["instructions"],
                       "cycles": reference["cycles"],
                       "energy_nj": {"baseline": reference["energy_nj"]["baseline"] * 1.000001}}
        service_row["ed2"] = {"baseline": service_row["energy_nj"]["baseline"]
                              * float(service_row["cycles"]) ** 2}
        bench.check_job(run, {"kind": "hit", "mechanism": "vrs"},
                        {"state": "done", "rows": [service_row], "cold_rows": 0})

        check(run.attempted == 5, f"expected 5 attempted operations, got {run.attempted}")
        check(run.failed == 4 and run.mismatches == 4,
              f"expected 4 failed digest checks, got {run.failed} ({dict(run.failures)})")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def test_metrics_emitted() -> None:
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(bench.BENCH / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--short"],
                cwd=bench.ROOT, capture_output=True, text=True, timeout=180,
            )
            label = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{label} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{label}: outputs did not match the digest")
            check(result["attempted"] >= 1, f"{label}: nothing attempted")
            table = declared["per_layer" if trace else "end_to_end"]
            expected = {entry["name"]: entry["unit"] for entry in table}
            emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
            check(emitted == expected, f"{label}: metrics {emitted} != declared {expected}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                check(isinstance(value, (int, float)) and not isinstance(value, bool)
                      and math.isfinite(value), f"{label}: {name} = {value!r}")
            print(f"ok  {label}: {len(emitted)} metrics", flush=True)


def test_refuses_without_source() -> None:
    scratch = bench.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(bench.BENCH, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cold-suite", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0, "a checkout without src/ must fail")
        check('"metrics"' not in proc.stdout, "a checkout without src/ must print no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for test in (test_digest_check_fires, test_refuses_without_source, test_metrics_emitted):
        test()
        print(f"ok  {test.__name__}", flush=True)
    print("self-test passed")
    return 0
