"""One process under test, launched fresh by ``run.py``.

Modes (each prints one JSON line on stdout when done, except ``serve``)::

    child.py suite   --store DIR --mechanism M,M,... --order W,W,... [--trace]
    child.py sweep   --store DIR --mechanism M --order W,W,... [--trace]
    child.py prefill --store DIR --order W,W,...
    child.py serve   --trace-out FILE SERVE-ARGS...

``suite`` evaluates each listed workload under each listed mechanism
through ``ExperimentEngine(jobs=1)`` with default settings; ``sweep``
runs ``engine.sweep`` over the default 8 configs × 6 policies for the
listed workloads; ``prefill`` fills a store with the default summaries
and trace snapshots of the listed workloads (two worker processes; never
timed); ``serve`` installs the layer wrappers and then hands over to
``python -m repro.experiments serve``, writing the span aggregate to FILE
once the service has drained.

Timestamps are ``time.perf_counter()``, which on Linux is the system-wide
monotonic clock, so the parent can subtract its own launch time from
``ready_at`` to get set-up time.  ``suite`` and ``sweep`` time a
calibration pass (``speed.py``) after ready and after every point or
group, outside the latencies they report.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import digest
import speed
import tracer


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_engine() -> float:
    start = time.perf_counter()
    import repro.experiments  # noqa: F401

    return time.perf_counter() - start


def _start(args) -> tuple[float, "tracer.Recorder | None"]:
    import_s = _import_engine()
    recorder = None
    if args.trace:
        recorder = tracer.Recorder()
        tracer.install(recorder)
    return import_s, recorder


def _finish(payload: dict, recorder) -> None:
    payload["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        payload["trace"] = tracer.aggregate(recorder.spans)
    print(json.dumps(payload), flush=True)


def run_suite(args) -> None:
    import_s, recorder = _start(args)
    from repro.experiments import ExperimentConfig, ExperimentEngine, ResultStore

    engine = ExperimentEngine(ResultStore(args.store), jobs=1)
    ready_at = time.perf_counter()
    latencies = []
    calibration = [speed.calibration_pass()]
    evaluations = []
    for mechanism in args.mechanism.split(","):
        for name in args.order.split(","):
            if recorder is not None:
                recorder.request = digest.point_key(name, mechanism)
            start = time.perf_counter()
            evaluations.append(
                engine.evaluate(ExperimentConfig(workload=name, mechanism=mechanism))
            )
            latencies.append(time.perf_counter() - start)
            calibration.append(speed.calibration_pass())
    points = {}
    for evaluation in evaluations:
        summary = evaluation.summarize()
        points[digest.point_key(summary.workload, summary.mechanism)] = {
            "record": digest.point_record(summary),
            "fresh": bool(evaluation.freshly_computed),
        }
    _finish(
        {
            "import_s": import_s,
            "ready_at": ready_at,
            "latencies": latencies,
            "calibration": calibration,
            "points": points,
        },
        recorder,
    )


def run_sweep(args) -> None:
    import_s, recorder = _start(args)
    from repro.experiments import ExperimentEngine, ResultStore, SweepSpec

    engine = ExperimentEngine(ResultStore(args.store), jobs=1)
    spec = SweepSpec.cartesian(workloads=args.order.split(","), mechanism=args.mechanism)
    ready_at = time.perf_counter()
    groups: dict[str, list[dict]] = {}
    latencies = []
    calibration = [speed.calibration_pass()]
    mark = time.perf_counter()
    for row in engine.sweep(spec, on_error="keep"):
        if row.workload not in groups:
            # Rows stream group by group: a group's work happens before
            # its first row is yielded.
            latencies.append(time.perf_counter() - mark)
            calibration.append(speed.calibration_pass())
            mark = time.perf_counter()
            groups[row.workload] = []
        groups[row.workload].append(row.to_json_dict())
    _finish(
        {
            "import_s": import_s,
            "ready_at": ready_at,
            "latencies": latencies,
            "calibration": calibration,
            "groups": {
                name: {
                    "hash": digest.rows_hash(rows),
                    "rows": len(rows),
                    "sources": sorted({row["source"] for row in rows}),
                    "errors": sum(1 for row in rows if row["error"] is not None),
                }
                for name, rows in groups.items()
            },
        },
        recorder,
    )


def run_prefill(args) -> None:
    from repro.experiments import ExperimentConfig, ExperimentEngine, ResultStore

    engine = ExperimentEngine(ResultStore(args.store), jobs=2)
    configs = [
        ExperimentConfig(workload=name, mechanism=mechanism)
        for mechanism in digest.MECHANISMS
        for name in args.order.split(",")
    ]
    engine.map(configs)
    print(json.dumps({"prefilled": len(configs)}), flush=True)


def run_serve(args) -> int:
    import_s = _import_engine()
    recorder = tracer.Recorder()
    tracer.install(recorder)
    from repro.experiments.__main__ import main as cli_main

    code = cli_main(["serve", *args.serve_args])
    with open(args.trace_out, "w") as handle:
        json.dump({"import_s": import_s, "trace": tracer.aggregate(recorder.spans)}, handle)
    return code


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("suite", "sweep", "prefill", "serve"))
    parser.add_argument("--store")
    parser.add_argument("--mechanism", default="none")
    parser.add_argument("--order", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out")
    # Whatever this parser does not know is passed on to ``serve``.
    args, args.serve_args = parser.parse_known_args(argv)
    if args.mode == "serve":
        return run_serve(args)
    if args.serve_args:
        parser.error(f"unrecognized arguments: {' '.join(args.serve_args)}")
    {"suite": run_suite, "sweep": run_sweep, "prefill": run_prefill}[args.mode](args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
