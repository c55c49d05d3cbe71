"""Benchmark of the operand-gating evaluation pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads (``perfbench/README.md`` says why each exists and what it moves):

``cold-suite``
    Per round: each mechanism (none, vrp, vrs) evaluates the 8 suite
    workloads in a fresh process against an empty store, then one more
    fresh process re-serves all 24 from that store.
``sweep-replay``
    The store is prefilled with trace snapshots (untimed); then, per unit,
    one fresh process per mechanism runs ``engine.sweep`` over the default
    8 configs × 6 policies × 8 workloads — 1152 replayed points.
``service-mixed``
    ``python -m repro.experiments serve --workers 2 --jobs 1`` on a warm
    store, driven by two closed-loop clients with a seeded job mix.

Every process under test is started from scratch; the seed only orders and
draws the inputs.  With ``--trace 0`` the run measures for ``--seconds``
and reports the end-to-end metrics of ``BENCHMARK.json`` (work timed in
``suite`` and ``sweep`` processes in reference seconds, see ``speed.py``); with
``--trace 1`` it runs one untraced and one traced unit and reports the
per-layer metrics.  Every simulated statistic is checked against
``perfbench/digest.json``; a mismatch counts as a failed operation.

Output: a ``{"report": ...}`` line (provenance, the per-workload metrics
named after what they measure, failure reasons), then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import digest
import speed
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: A run must end within this many seconds of starting, whatever it measures.
RUN_BUDGET_S = 170.0
#: Closed-loop clients and service workers: the host has two CPUs.
CLIENTS = 2
#: Fewest jobs a service-mixed session measures, so that the 90th
#: percentile has at least ten samples beyond it.
MIN_JOBS = 100
#: A service session stops here even if it has not reached MIN_JOBS.
SESSION_CAP_S = 75.0
#: Service launches per measuring run; set-up time is their median.
SETUP_LAUNCHES = 5

KNOWN_DEFECTS = [
    "repro.workloads.suite._ensure_loaded returns as soon as _REGISTRY is non-empty, so a "
    "thread racing another thread's first import of the workload programs can see a partial "
    "registry (KeyError). In the service this surfaces as HTTP 500 on the first concurrent "
    "submits; service-mixed counts those submissions as failed and does not pre-warm around it.",
]
MODEL_NOTE = (
    "unvalidated model: the repository holds no reference results from the paper, so "
    "simulated statistics are pinned against perfbench/digest.json and no accuracy error "
    "is reported"
)


class BenchError(Exception):
    """The benchmark could not complete a measurement."""


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Run:
    """State of one benchmark run: inputs, processes, samples and checks."""

    def __init__(self, seed: int, seconds: float, trace: bool, short: bool) -> None:
        from repro.workloads import SUITE_NAMES

        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.short = short
        self.rng = random.Random(seed)
        self.suite = tuple(SUITE_NAMES[:2] if short else SUITE_NAMES)
        self.digest = digest.load()
        self.started = time.perf_counter()
        self.work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True)
        self._dirs = 0
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.failures: Counter = Counter()
        # Timings are (host seconds, reference seconds) pairs; see speed.py.
        self.setup: list[tuple[float, float]] = []
        self.latencies: list[tuple[float, float]] = []
        self.units: list[tuple[float, float]] = []
        self.rss: list[float] = []
        self.named: dict[str, list[float]] = {}
        # Per-layer material, from the traced unit only.
        self.imports: list[float] = []
        self.layers: dict[str, dict] = {}
        self.measured_s = 0.0
        self.spans = 0
        self.client_side: dict[str, list[float]] = {"submit": [], "queue": [], "exec": []}
        self.dedup_ratio = 0.0

    # -- bookkeeping ---------------------------------------------------
    def count(self, ok: bool, reason: str = "", mismatch: bool = False) -> None:
        """Record one attempted operation; a failed one is counted under ``reason``."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures[reason] += 1
                if mismatch:
                    self.mismatches += 1

    def note(self, name: str, value: float) -> None:
        self.named.setdefault(name, []).append(value)

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.work / f"{label}-{self._dirs}"
        path.mkdir()
        return path

    def shuffled(self, items) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items

    def remaining(self) -> float:
        left = RUN_BUDGET_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
        return left

    def env(self, store: Path) -> dict:
        env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_RESULT_STORE"] = str(store)
        return env

    def merge_trace(self, import_s: float, trace: dict) -> None:
        self.imports.append(import_s)
        self.spans += trace["spans"]
        for name, entry in trace["layers"].items():
            total = self.layers.setdefault(name, dict.fromkeys(entry, 0.0))
            for field, value in entry.items():
                total[field] += value

    # -- processes -----------------------------------------------------
    def child(self, store: Path, *args: str, traced: bool = False) -> dict:
        """Run one ``child.py`` process to completion; returns its JSON line."""
        command = [sys.executable, str(BENCH / "child.py"), *args, "--store", str(store)]
        if traced:
            command.append("--trace")
        launched = time.perf_counter()
        try:
            proc = subprocess.run(
                command,
                cwd=ROOT,
                env=self.env(store),
                capture_output=True,
                text=True,
                timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{args[0]} process did not finish within the run budget")
        if proc.returncode != 0:
            raise BenchError(f"{args[0]} process failed:\n{proc.stderr[-3000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if "ready_at" not in out:
            return out
        out["scale"] = speed.scale(out["calibration"])
        if traced:
            self.measured_s += sum(out["latencies"])
            self.merge_trace(out["import_s"], out["trace"])
        else:
            setup = out["ready_at"] - launched
            self.setup.append((setup, setup * out["scale"]))
            self.rss.append(out["peak_rss_mb"])
        return out

    def prefill(self, store: Path) -> None:
        self.child(store, "prefill", "--order", ",".join(self.suite))

    # -- output checks -------------------------------------------------
    def check_points(self, points: dict, fresh: bool) -> None:
        for key, point in points.items():
            workload, mechanism = key.split("/")
            if not digest.check_point(self.digest, workload, mechanism, point["record"]):
                self.count(False, "digest mismatch", mismatch=True)
            elif point["fresh"] != fresh:
                reason = "warm re-serve computed" if point["fresh"] else "not computed cold"
                self.count(False, reason)
            else:
                self.count(True)

    def check_group(self, workload: str, mechanism: str, group: dict) -> None:
        if not digest.check_group(self.digest, workload, mechanism, group["hash"]):
            self.count(False, "digest mismatch", mismatch=True)
        elif group["sources"] != ["replayed"] or group["errors"]:
            self.count(False, f"sweep rows {group['sources']} with {group['errors']} errors")
        else:
            self.count(True)


# ----------------------------------------------------------------------
# cold-suite
# ----------------------------------------------------------------------
def cold_suite_unit(run: Run, traced: bool) -> tuple[float, float]:
    """One round: three cold mechanism suites, then the warm re-serve of all 24."""
    store = run.fresh_dir("cold")
    order = ",".join(run.shuffled(run.suite))
    mechanisms = run.shuffled(digest.MECHANISMS)
    total = (0.0, 0.0)
    for mechanism in [*mechanisms, ",".join(mechanisms)]:
        warm = "," in mechanism
        out = run.child(store, "suite", "--mechanism", mechanism, "--order", order, traced=traced)
        run.check_points(out["points"], fresh=not warm)
        work = sum(out["latencies"])
        if not traced:
            run.note("warm_suite_s" if warm else f"cold_{mechanism}_s", work)
            if not warm:
                run.latencies.extend(
                    (latency, latency * out["scale"]) for latency in out["latencies"]
                )
        total = (total[0] + work, total[1] + work * out["scale"])
    return total


def cold_suite(run: Run):
    return lambda traced: cold_suite_unit(run, traced)


# ----------------------------------------------------------------------
# sweep-replay
# ----------------------------------------------------------------------
def sweep_replay(run: Run):
    store = run.fresh_dir("sweep")
    run.prefill(store)
    points = [0, 0.0]  # rows, seconds

    def unit(traced: bool) -> tuple[float, float]:
        total = (0.0, 0.0)
        for mechanism in run.shuffled(digest.MECHANISMS):
            order = ",".join(run.shuffled(run.suite))
            out = run.child(
                store, "sweep", "--mechanism", mechanism, "--order", order, traced=traced
            )
            for workload, group in out["groups"].items():
                run.check_group(workload, mechanism, group)
            work = sum(out["latencies"])
            if not traced:
                run.latencies.extend(
                    (latency, latency * out["scale"]) for latency in out["latencies"]
                )
                points[0] += sum(group["rows"] for group in out["groups"].values())
                points[1] += work
                run.named["sweep_points_per_min"] = [60.0 * points[0] / points[1]]
            total = (total[0] + work, total[1] + work * out["scale"])
        return total

    return unit


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
#: One block of the job mix, in submissions: 26 store hits, 3 novel VRS
#: thresholds, one novel threshold drawn three times while in flight (the
#: original, an identical resubmission that attaches to it, and a policy
#: subset with the same store key that meets it at the store lock),
#: 4 single-config sweeps at novel thresholds (fused pipeline) and
#: 4 eight-config sweeps on warm signatures (snapshot replay).  Hits are
#: 65% so that the median falls well inside their population rather than
#: on the gap between hits and computes, where it would swing between runs.
BLOCK = ("hit",) * 26 + ("novel",) * 3 + ("dup",) + ("fused",) * 4 + ("replay",) * 4
BLOCK_SUBMISSIONS = len(BLOCK) + 2 * BLOCK.count("dup")


class JobStream:
    """Seeded, thread-safe sequence of job groups (one group per client turn).

    Workloads, mechanisms and configs are dealt from shuffled decks, so
    every seed draws each of them about equally often, and the stream ends
    only at a block boundary, so every session runs the mix in exact
    proportion.
    """

    def __init__(self, run: Run, finished) -> None:
        from repro.experiments import default_sweep_configs

        self.rng = run.rng
        self.finished = finished
        self.options = {
            "workload": run.suite,
            "mechanism": digest.MECHANISMS,
            "config": [name for name, _ in default_sweep_configs()],
        }
        self.decks: dict[tuple, list] = {}
        self.used = {50.0}
        self.pending: list[str] = []
        self.blocks = 0
        self.closed = False
        self._lock = threading.Lock()

    def _deal(self, kind: str, what: str):
        deck = self.decks.setdefault((kind, what), [])
        if not deck:
            deck.extend(self.options[what])
            self.rng.shuffle(deck)
        return deck.pop()

    def _threshold(self) -> float:
        # Novel keys near the default threshold: new work of the usual size.
        while True:
            value = round(self.rng.uniform(30.0, 70.0), 2)
            if value not in self.used:
                self.used.add(value)
                return value

    def next(self) -> "list[dict] | None":
        with self._lock:
            if not self.pending:
                if self.closed or self.finished(self.blocks * BLOCK_SUBMISSIONS):
                    self.closed = True
                    return None
                self.pending = list(BLOCK)
                self.rng.shuffle(self.pending)
                self.blocks += 1
            kind = self.pending.pop()
            workload = self._deal(kind, "workload")
            if kind in ("hit", "replay"):
                mechanism = self._deal(kind, "mechanism")
                payload = {"kind": "run", "workload": workload, "mechanism": mechanism}
                if kind == "replay":
                    payload = {"kind": "sweep", "workloads": [workload], "mechanism": mechanism}
                return [{"kind": kind, "mechanism": mechanism, "workload": workload,
                         "payload": payload}]
            threshold = self._threshold()
            if kind == "fused":
                return [{"kind": "fused",
                         "payload": {"kind": "sweep", "workloads": [workload],
                                     "configs": [self._deal(kind, "config")],
                                     "mechanism": "vrs", "threshold_nj": threshold}}]
            payload = {"kind": "run", "workload": workload, "mechanism": "vrs",
                       "threshold_nj": threshold}
            group = [{"kind": "novel", "payload": payload}]
            if kind == "dup":
                group.append({"kind": "novel", "payload": dict(payload)})
                group.append({"kind": "novel",
                              "payload": dict(payload, policies=["baseline", "software"])})
            return group


def check_job(run: Run, spec: dict, record: dict) -> None:
    if record["state"] != "done":
        run.count(False, f"job {record['state']}: {record.get('error')}")
        return
    rows = record["rows"]
    if any("error" in row and row["error"] for row in rows):
        run.count(False, "error row")
        return
    kind = spec["kind"]
    if kind == "hit":
        ok = len(rows) == 1 and digest.check_service_row(run.digest, spec["mechanism"], rows[0])
        if not ok:
            run.count(False, "digest mismatch", mismatch=True)
        elif record["cold_rows"]:
            run.count(False, "store hit computed")
        else:
            run.count(True)
    elif kind == "replay":
        if len(rows) != 48 or not digest.check_group(
            run.digest, spec["workload"], spec["mechanism"], digest.rows_hash(rows)
        ):
            run.count(False, "digest mismatch", mismatch=True)
        elif {row["source"] for row in rows} != {"replayed"}:
            run.count(False, "replay sweep not replayed")
        else:
            run.count(True)
    elif kind == "fused":
        if len(rows) != 6 or not all(digest.consistent_sweep_row(row) for row in rows):
            run.count(False, "inconsistent sweep row", mismatch=True)
        elif {row["source"] for row in rows} != {"fused"}:
            run.count(False, "novel single-config sweep not fused")
        else:
            run.count(True)
    else:
        ok = len(rows) == 1 and digest.consistent_run_row(rows[0])
        run.count(ok, "inconsistent run row", mismatch=not ok)


class Service:
    """One ``serve`` process: launch, ready line, peak RSS, drain."""

    def __init__(self, run: Run, store: Path, traced: bool) -> None:
        serve_args = ["--port", "0", "--workers", "2", "--jobs", "1"]
        self.trace_out = run.fresh_dir("service-trace") / "trace.json" if traced else None
        if traced:
            command = [sys.executable, str(BENCH / "child.py"), "serve",
                       "--trace-out", str(self.trace_out), *serve_args]
        else:
            command = [sys.executable, "-m", "repro.experiments", "serve", *serve_args]
        self.stderr = open(run.fresh_dir("service-log") / "stderr.txt", "w")
        launched = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=run.env(store), stdout=subprocess.PIPE,
            stderr=self.stderr, text=True,
        )
        try:
            readable, _, _ = select.select([self.proc.stdout], [], [], min(60.0, run.remaining()))
            line = self.proc.stdout.readline() if readable else ""
            ready = json.loads(line) if line.startswith("{") else {}
            if ready.get("event") != "ready":
                raise BenchError(f"service did not become ready (got {line!r})")
        except BaseException:
            self.stop()
            raise
        if not traced:
            setup = time.perf_counter() - launched
            run.setup.append((setup, setup))
        self.port = ready["port"]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        if self.proc.returncode != 0:
            raise BenchError(f"service exited with code {self.proc.returncode}")


def service_session(
    run: Run, store: Path, traced: bool, min_jobs: int
) -> tuple[float, float]:
    """Drive one service with two closed-loop clients; returns seconds per 100 jobs."""
    from repro.service import ServiceClient, ServiceClientError

    service = Service(run, store, traced)
    try:
        client = ServiceClient("127.0.0.1", service.port, timeout=60.0)
        barrier = threading.Barrier(CLIENTS)
        lock = threading.Lock()
        done = [0]
        first_submit = [None]
        last_done = [0.0]
        jobs: dict[str, dict] = {}
        latencies: list[float] = []
        submits: list[float] = []
        errors: list[BaseException] = []
        opened = time.perf_counter()

        def finished(submissions: int) -> bool:
            elapsed = time.perf_counter() - opened
            if elapsed >= SESSION_CAP_S or run.remaining() < 30.0:
                return True
            return elapsed >= run.seconds and submissions >= min_jobs

        stream = JobStream(run, finished)

        def client_loop() -> None:
            try:
                # Both clients start together: the first submits race, as
                # they do when a freshly started service takes traffic.
                barrier.wait()
                while (group := stream.next()) is not None:
                    submitted = []
                    for spec in group:
                        wall = time.time()
                        start = time.perf_counter()
                        try:
                            response = client.submit(spec["payload"])
                        except ServiceClientError as exc:
                            run.count(False, f"HTTP {exc.status} on submit")
                            continue
                        submits.append(time.perf_counter() - start)
                        with lock:
                            if first_submit[0] is None:
                                first_submit[0] = wall
                        submitted.append((spec, response["job"], wall))
                    for spec, job_id, wall in submitted:
                        record = client.wait(job_id, timeout_s=60.0, poll_s=0.02)
                        check_job(run, spec, record)
                        with lock:
                            done[0] += 1
                            last_done[0] = max(last_done[0], record["finished"])
                            jobs[job_id] = record
                            if record["state"] == "done":
                                latencies.append(record["finished"] - wall)
            except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise BenchError(f"client failed: {errors[0]!r}")
        if not latencies:
            raise BenchError("no job completed")
        stats = client.stats()["jobs"]
        if not traced:
            run.rss.append(service.peak_rss_mb())
    finally:
        service.stop()
    jobs_per_s = done[0] / (last_done[0] - first_submit[0])
    # The service process cannot time calibration passes without slowing
    # its own jobs, so its times stay in host seconds.
    if not traced:
        run.latencies.extend((latency, latency) for latency in latencies)
        run.note("jobs_per_s", jobs_per_s)
    else:
        with open(service.trace_out) as handle:
            traced_out = json.load(handle)
        run.merge_trace(traced_out["import_s"], traced_out["trace"])
        run.measured_s += run.layers.get("service.job", {}).get("total", 0.0)
        run.client_side["submit"] = submits
        run.client_side["queue"] = [job["started"] - job["created"] for job in jobs.values()]
        run.client_side["exec"] = [job["finished"] - job["started"] for job in jobs.values()]
        run.dedup_ratio = stats["deduplicated"] / (stats["submitted"] + stats["deduplicated"])
    return 100.0 / jobs_per_s, 100.0 / jobs_per_s


def service_mixed(run: Run):
    store = run.fresh_dir("service")
    run.prefill(store)
    if not run.trace:
        # Extra launches only sample set-up time; the serving one is last.
        for _ in range(SETUP_LAUNCHES - 1):
            Service(run, store, traced=False).stop()
    min_jobs = 12 if run.short else MIN_JOBS
    return lambda traced: service_session(run, store, traced, min_jobs)


WORKLOADS = {
    "cold-suite": cold_suite,
    "sweep-replay": sweep_replay,
    "service-mixed": service_mixed,
}

#: Span names that group work but are not a layer of their own.
NON_LAYER_SPANS = ("sweep.group", "sweep.row", "service.job")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run: Run, reference: bool = True) -> dict[str, float]:
    """The end-to-end metrics, in reference seconds where measured (default) or host seconds."""
    pick = 1 if reference else 0

    def values(samples: list[tuple[float, float]]) -> list[float]:
        return [sample[pick] for sample in samples]

    return {
        "setup_s": statistics.median(values(run.setup)),
        "work_s": statistics.median(values(run.units)),
        "op_p50_s": percentile(values(run.latencies), 50),
        "op_p90_s": percentile(values(run.latencies), 90),
        "peak_rss_mb": max(run.rss),
    }


def per_layer(run: Run, overhead_s: float) -> dict[str, float]:
    layers = run.layers

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self", 0.0)

    def calls(name: str) -> float:
        return float(layers.get(name, {}).get("calls", 0))

    def amount(name: str) -> float:
        return layers.get(name, {}).get("amount", 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    codegen = [f"codegen.{bucket}" for _, bucket in tracer.CODEGEN_BUCKETS]
    attributed = sum(
        entry["self"] for name, entry in layers.items() if name not in NON_LAYER_SPANS
    )
    return {
        "experiments.import_s": statistics.median(run.imports),
        "minic.build_s": self_s("minic.build"),
        "minic.builds": calls("minic.build"),
        "core.vrp_s": self_s("core.vrp"),
        "core.vrp_calls": calls("core.vrp"),
        "core.vrs_s": self_s("core.vrs"),
        "codegen.compile_s.blockc": self_s("codegen.blockc"),
        "codegen.compile_s.fusedc": self_s("codegen.fusedc"),
        "codegen.compile_s.tkernel": self_s("codegen.tkernel"),
        "codegen.compile_calls": sum(calls(name) for name in codegen),
        "codegen.source_kb": sum(amount(name) for name in codegen) / 1024.0,
        "sim.build_s": self_s("sim.build"),
        "sim.run_s": self_s("sim.run"),
        "sim.instructions": amount("sim.run"),
        "sim.minstr_per_s": ratio(amount("sim.run"), self_s("sim.run")) / 1e6,
        "uarch.timing_s": self_s("uarch.timing"),
        "uarch.records": amount("uarch.timing"),
        "power.account_s": self_s("power.account"),
        "power.walks": calls("power.account"),
        "snapshot.encode_s": self_s("snapshot.encode"),
        "snapshot.bytes": amount("snapshot.encode"),
        "snapshot.decode_s": self_s("snapshot.decode"),
        "store.load_s": self_s("store.load"),
        "store.loads": calls("store.load"),
        "store.hit_ratio": ratio(amount("store.load"), calls("store.load")),
        "store.save_s": self_s("store.save"),
        "store.save_trace_s": self_s("store.save_trace"),
        "store.saves": calls("store.save") + calls("store.save_trace"),
        "store.load_trace_s": self_s("store.load_trace"),
        "store.trace_hit_ratio": ratio(amount("store.load_trace"), calls("store.load_trace")),
        "store.lock_wait_s": self_s("store.lock_wait"),
        "store.flights_shared": amount("store.lock_wait"),
        "sweep.groups": calls("sweep.group"),
        "sweep.rows": calls("sweep.row"),
        "service.submit_s": mean(run.client_side["submit"]),
        "service.queue_wait_s": mean(run.client_side["queue"]),
        "service.exec_s": mean(run.client_side["exec"]),
        "service.dedup_ratio": run.dedup_ratio,
        "trace.unattributed_s": run.measured_s - attributed,
        "trace.overhead_s": overhead_s,
    }


def source_fingerprint() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return {"commit": commit, "src_sha256": sha.hexdigest()}


def named_metrics(run: Run, workload: str) -> dict:
    """The workload's metrics under the names that say what they measure, in host seconds."""
    units = {"jobs_per_s": "1/s", "sweep_points_per_min": "1/min"}
    named = {
        name: {"value": statistics.median(values), "unit": units.get(name, "s"),
               "samples": len(values)}
        for name, values in run.named.items()
    }
    if workload == "service-mixed" and not run.trace:
        for pct in (50, 90):
            host = [sample[0] for sample in run.latencies]
            named[f"job_p{pct}_s"] = {"value": percentile(host, pct), "unit": "s",
                                     "samples": len(host)}
    named["error_rate"] = {"value": run.failed / run.attempted, "unit": "ratio",
                           "samples": run.attempted}
    return named


def measure(args) -> int:
    run = Run(args.seed, args.seconds, bool(args.trace), args.short)
    try:
        unit = WORKLOADS[args.workload](run)
        if run.trace:
            untraced = unit(False)
            traced = unit(True)
            metrics = per_layer(run, traced[0] - untraced[0])
        else:
            # Start another unit only while it is expected to end within
            # --seconds, judged by the unit just measured.
            opened = time.perf_counter()
            while True:
                began = time.perf_counter()
                run.units.append(unit(False))
                now = time.perf_counter()
                if now - opened + (now - began) > run.seconds:
                    break
            metrics = end_to_end(run)
            host_metrics = end_to_end(run, reference=False)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = declared["per_layer" if run.trace else "end_to_end"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "machine": platform.machine()},
        **source_fingerprint(),
        "attempted": run.attempted,
        "failed": run.failed,
        "digest_mismatches": run.mismatches,
        "failures": dict(run.failures),
        "samples": {"setup_s": len(run.setup), "work_s": len(run.units),
                    "op_latencies": len(run.latencies), "spans": run.spans},
        "named_metrics": named_metrics(run, args.workload),
        "host_seconds": None if run.trace else host_metrics,
        "model": MODEL_NOTE,
        "known_defects": KNOWN_DEFECTS,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run.mismatches == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
                    for entry in table},
    }))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the operand-gating pipeline.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="two suite workloads and a dozen jobs (self-test)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The build step: byte-compile once, untimed, so no process under test
    # pays for compiling the package on its first import.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1)
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
