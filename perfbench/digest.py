"""Reference digest of the simulated statistics the benchmark checks.

The simulator is deterministic, so every simulated statistic must repeat
bit for bit on every run and every commit that does not change the model.
``digest.json`` pins, for each suite workload × mechanism (default VRS
threshold): dynamic instructions, cycles, per-policy energy totals and the
dynamic width distribution; and, for each (workload, mechanism) group of
the default sweep matrix, a SHA-256 over its 48 rows' cycles, energy and
ED².  A run that produces anything else counts the operation as failed.

The model is unvalidated: the repository holds no reference results from
the paper, so these figures pin the model against itself and the
benchmark reports no accuracy error.

Regenerate (only after an intended model change)::

    python3 perfbench/digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

DIGEST_PATH = Path(__file__).with_name("digest.json")
MECHANISMS = ("none", "vrp", "vrs")


def point_key(workload: str, mechanism: str) -> str:
    return f"{workload}/{mechanism}"


def point_record(summary) -> dict:
    """The checked statistics of one :class:`EvaluationSummary` (JSON-ready)."""
    return {
        "instructions": summary.instructions,
        "cycles": summary.timing.cycles,
        "energy_nj": {name: breakdown.total for name, breakdown in summary.energies.items()},
        "widths": {str(int(width)): count for width, count in summary.width_distribution.items()},
    }


def rows_hash(rows: list[dict]) -> str:
    """Order-independent SHA-256 over sweep rows' checked fields."""
    material = sorted(
        (row["config"], row["policy"], row["instructions"], row["cycles"],
         repr(row["energy_nj"]), repr(row["ed2"]))
        for row in rows
    )
    return hashlib.sha256(json.dumps(material).encode("utf-8")).hexdigest()


def load() -> dict:
    return json.loads(DIGEST_PATH.read_text())


def check_point(digest: dict, workload: str, mechanism: str, record: dict) -> bool:
    """True when a suite point's statistics match the digest exactly.

    JSON round-trips floats exactly, so equality here is bit equality.
    """
    expected = digest["points"].get(point_key(workload, mechanism))
    return expected is not None and json.loads(json.dumps(record)) == expected


def check_service_row(digest: dict, mechanism: str, row: dict) -> bool:
    """A service ``run`` row (subset of policies) against the digest."""
    expected = digest["points"].get(point_key(row["workload"], mechanism))
    if expected is None:
        return False
    return (
        row["instructions"] == expected["instructions"]
        and row["cycles"] == expected["cycles"]
        and all(
            expected["energy_nj"].get(policy) == energy
            for policy, energy in row["energy_nj"].items()
        )
        and consistent_run_row(row)
    )


def check_group(digest: dict, workload: str, mechanism: str, hashed: str) -> bool:
    """A sweep group's :func:`rows_hash` against the digest."""
    return digest["groups"].get(point_key(workload, mechanism)) == hashed


def consistent_run_row(row: dict) -> bool:
    """Self-consistency of a run row whose key the digest cannot know."""
    return (
        row["instructions"] > 0
        and row["cycles"] > 0
        and all(
            row["ed2"][policy] == energy * float(row["cycles"]) ** 2
            for policy, energy in row["energy_nj"].items()
        )
    )


def consistent_sweep_row(row: dict) -> bool:
    return (
        row.get("error") is None
        and row["instructions"] > 0
        and row["cycles"] > 0
        and row["ed2"] == row["energy_nj"] * float(row["cycles"]) ** 2
    )


def compute(store_root: str) -> dict:
    """Simulate the suite and the default sweep from scratch; return the digest."""
    from repro.experiments import ExperimentConfig, ExperimentEngine, ResultStore, SweepSpec
    from repro.workloads import SUITE_NAMES

    engine = ExperimentEngine(ResultStore(store_root), jobs=1)
    points = {}
    groups = {}
    for mechanism in MECHANISMS:
        for name in SUITE_NAMES:
            evaluation = engine.evaluate(ExperimentConfig(workload=name, mechanism=mechanism))
            points[point_key(name, mechanism)] = point_record(evaluation.summarize())
        rows: dict[str, list[dict]] = {}
        for row in engine.sweep(SweepSpec.cartesian(mechanism=mechanism), on_error="raise"):
            rows.setdefault(row.workload, []).append(row.to_json_dict())
        for name, group in rows.items():
            groups[point_key(name, mechanism)] = rows_hash(group)
    return {
        "note": "simulated statistics of the unvalidated model; no paper reference data exists",
        "points": points,
        "groups": groups,
    }


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print("usage: python3 perfbench/digest.py --write", file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digest-", dir=root / ".perfbench_work"))
    try:
        digest = compute(str(work / "store"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DIGEST_PATH.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_PATH} ({len(digest['points'])} points, {len(digest['groups'])} groups)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
