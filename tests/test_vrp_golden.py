"""Golden digest of VRP/VRS analysis output over the whole suite.

For every suite workload this pins one SHA-256 per analysis configuration
over the *position-canonical* output of :func:`repro.core.run_vrp`: every
def and use range, useful bits, loop pins, return ranges, the width chosen
for every instruction and the number of global rounds.  Instruction uids
depend on how many instructions the process built before, so each uid is
replaced by ``function:index`` (its position in the function when the
dependence graph was built).  The VRS entries pin ``vrp_before``,
``vrp_after`` and the final specialized program at the default 50 nJ
threshold; specialization labels carry a process-wide counter, so block
labels are replaced by their layout position too.

A refactor of the analysis must leave every digest unchanged.  Regenerate
(only after an intended change of the analysis results)::

    PYTHONPATH=src python tests/test_vrp_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.core import VRPConfig, VRSConfig, run_vrp, run_vrs
from repro.isa import Imm
from repro.workloads import load_suite

GOLDEN_PATH = Path(__file__).parent / "golden" / "vrp_suite.json"

VRP_CONFIGS = {
    "default": VRPConfig(),
    "conventional": VRPConfig().conventional(),
    "max_iterations=1": VRPConfig(max_iterations=1),
}


def _sha(material) -> str:
    return hashlib.sha256(json.dumps(material).encode("utf-8")).hexdigest()


def _range(value) -> list[int]:
    return [value.lo, value.hi]


def vrp_material(result) -> dict:
    """JSON-ready, uid-free view of one :class:`VRPResult`."""
    position: dict[int, str] = {}
    for name, analysis in result.analyses.items():
        for index, uid in enumerate(analysis.graph.instructions):
            position[uid] = f"{name}:{index}"

    def definition(d) -> list:
        return [d.kind, d.reg.index, position[d.uid] if d.uid is not None else "", d.callee or ""]

    def rows(items) -> list[str]:
        return sorted(json.dumps(row) for row in items)

    functions = {}
    for name, analysis in sorted(result.analyses.items()):
        pins = analysis.pins
        functions[name] = {
            "def_range": rows([definition(d), _range(r)] for d, r in analysis.def_range.items()),
            "use_range": rows(
                [position[uid], reg.index, _range(r)]
                for (uid, reg), r in analysis.use_range.items()
            ),
            "useful_bits": rows([definition(d), bits] for d, bits in analysis.useful_bits.items()),
            "return_range": _range(analysis.return_range),
            "pin_defs": rows([position[uid], _range(r)] for uid, r in pins.def_ranges.items()),
            "pin_uses": rows(
                [position[uid], reg.index, _range(r)] for (uid, reg), r in pins.use_ranges.items()
            ),
            "loops": [pins.bounded_loops, pins.examined_loops],
        }
    return {
        "functions": functions,
        "widths": rows([position[uid], int(w)] for uid, w in result.widths.items()),
        "original_widths": rows(
            [position[uid], int(w)] for uid, w in result.original_widths.items()
        ),
        "return_ranges": {name: _range(r) for name, r in sorted(result.return_ranges.items())},
        "global_rounds": result.global_rounds,
    }


def program_material(program) -> dict:
    """JSON-ready, uid- and label-free view of a program's code."""
    functions = {}
    for name, function in program.functions.items():
        position = {label: index for index, label in enumerate(function.layout())}
        functions[name] = [
            [
                position[block.label],
                inst.op.value,
                int(inst.width),
                inst.dest.index if inst.dest is not None else None,
                [["imm", s.value] if isinstance(s, Imm) else ["reg", s.index] for s in inst.srcs],
                position.get(inst.target, inst.target),
                inst.is_guard,
            ]
            for block in function.iter_blocks()
            for inst in block.instructions
        ]
    return functions


def suite_digests() -> dict[str, str]:
    """``workload/config`` → SHA-256 for the whole suite."""
    digests: dict[str, str] = {}
    for workload in load_suite():
        for label, config in VRP_CONFIGS.items():
            program = workload.build()
            workload.apply_input(program, "ref")
            digests[f"{workload.name}/{label}"] = _sha(vrp_material(run_vrp(program, config)))
        program = workload.build()
        workload.apply_input(program, "train")
        vrs = run_vrs(program, VRSConfig(threshold_nj=50.0))
        digests[f"{workload.name}/vrs_before"] = _sha(vrp_material(vrs.vrp_before))
        digests[f"{workload.name}/vrs_after"] = _sha(vrp_material(vrs.vrp_after))
        digests[f"{workload.name}/vrs_program"] = _sha(program_material(program))
    return digests


def test_vrp_suite_matches_golden():
    expected = json.loads(GOLDEN_PATH.read_text())
    actual = suite_digests()
    mismatched = sorted(key for key in expected if actual.get(key) != expected[key])
    assert actual.keys() == expected.keys()
    assert not mismatched, f"VRP output drifted for: {', '.join(mismatched)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_vrp_golden.py --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(suite_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
