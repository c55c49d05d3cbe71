"""Parallel experiment engine over the persistent result store.

The engine resolves every requested configuration through four layers:

1. an in-process memo (same object returned for repeated requests, so a
   pytest/benchmark session never simulates a configuration twice),
2. the content-addressed on-disk :class:`ResultStore` (a fresh process
   serves previously simulated configurations without touching the
   simulator at all),
3. the binary trace-snapshot layer of the same store: when only analysis
   code or the machine configuration changed, the summary key misses but
   the simulator-side snapshot key still hits, and the evaluation is
   *replayed* — timing model + fused accounting over the stored columnar
   trace, zero simulator steps,
4. a ``multiprocessing`` fan-out that computes the remaining
   configurations in worker processes — with a graceful single-process
   fallback when only one CPU is available, ``REPRO_JOBS=1`` is set, or
   pool creation fails (restricted sandboxes).

Workers return plain JSON-serializable summaries; the parent persists them
and hands out *restored* :class:`WorkloadEvaluation` objects, so parallel
and serial evaluation are observationally equivalent for every figure and
table of the paper.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from typing import TYPE_CHECKING

from ..sim.fusedc import check_pipeline, default_pipeline
from ..uarch import MachineConfig
from ..workloads import Workload, load_suite, workload_by_name
from .chaos import chaos_probe
from .resilience import (
    EvaluationError,
    RetryPolicy,
    classify_failure,
    supervised_map,
)
from .runner import (
    WorkloadEvaluation,
    _compute_evaluation,
    artifact_from_evaluation,
    replay_summary,
)
from .store import ResultStore, config_key, trace_key
from .summary import EvaluationSummary

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from typing import Iterator, Mapping

    from ..sim.snapshot import SimulationArtifact
    from .sweep import SweepRow, SweepSpec

__all__ = [
    "ExperimentConfig",
    "ExperimentEngine",
    "default_engine",
    "reset_default_engine",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    """One independent (workload, mechanism, threshold, policy-set) point."""

    workload: str
    mechanism: str = "none"
    threshold_nj: float = 50.0
    conventional_vrp: bool = False
    machine_config: Optional[MachineConfig] = None


def _resolve_jobs(jobs: Optional[int]) -> int:
    """Worker-process count: explicit argument > ``REPRO_JOBS`` > CPU count."""
    if jobs is not None:
        return max(1, jobs)
    configured = os.environ.get("REPRO_JOBS", "")
    if configured:
        try:
            return max(1, int(configured))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def _resolve_pipeline(pipeline: str, store: Optional[ResultStore]) -> str:
    """Resolve a pipeline request to ``"fused"`` or ``"materialized"``.

    Explicit requests win; ``"auto"`` consults ``REPRO_PIPELINE`` (via
    :func:`repro.sim.fusedc.default_pipeline`) and, when that is also
    ``auto``, picks by what the evaluation needs: trace snapshots can only
    be persisted from a materialized trace, so the materialized pipeline
    runs when the store's snapshot layer is enabled — and the fused
    pipeline (one streaming pass, **no trace ever built**) runs for
    summary-only evaluations (store disabled or ``REPRO_TRACE_STORE=off``).
    """
    if pipeline == "auto":
        pipeline = default_pipeline()
    if pipeline == "auto":
        snapshots = store is not None and store.enabled and store.trace_enabled
        return "materialized" if snapshots else "fused"
    return check_pipeline(pipeline)


def _task_timeout_s() -> Optional[float]:
    """Per-task deadline for the pool fan-out (``REPRO_TASK_TIMEOUT_S``)."""
    value = os.environ.get("REPRO_TASK_TIMEOUT_S", "")
    if not value:
        return None
    try:
        parsed = float(value)
    except ValueError:
        return None
    return parsed if parsed > 0 else None


def _failure_evaluation(
    config: ExperimentConfig, workload: Workload, error: EvaluationError
) -> WorkloadEvaluation:
    """An error-carrying evaluation for ``on_error="keep"`` degradation.

    Never memoized and never persisted: the zero-filled summary exists so
    a partially failed sweep can report *which* points failed and why
    instead of aborting wholesale.
    """
    summary = EvaluationSummary.from_failure(
        workload=config.workload,
        mechanism=config.mechanism,
        threshold_nj=config.threshold_nj,
        conventional_vrp=config.conventional_vrp,
        kind=error.kind,
        message=str(error),
    )
    return WorkloadEvaluation.from_summary(workload, summary)


def _compute_summary_for(
    config: ExperimentConfig,
    store_root: Optional[str] = None,
    pipeline: str = "auto",
) -> tuple[str, dict, str]:
    """Worker entry point: resolve one configuration, return its summary.

    Returns ``(store key, JSON-ready summary dict, provenance)`` — plain
    data, so the result crosses the process boundary cheaply; see
    :func:`_resolve_cold` for the provenance values.  When the parent's
    store is enabled its root is passed through and the worker publishes
    the result itself, inside the single-flight lock.

    Workers inherit the simulator dispatch tier (``REPRO_SIM_DISPATCH``)
    through the process environment.  The tier is deliberately **not**
    part of any store key: all tiers produce bit-identical traces and
    summaries (enforced by the differential tests), so results computed
    under different tiers are interchangeable.
    """
    chaos_probe("worker-task")
    workload = workload_by_name(config.workload)
    key = config_key(
        workload,
        config.mechanism,
        config.threshold_nj,
        config.conventional_vrp,
        config.machine_config,
    )
    store = ResultStore(store_root) if store_root is not None else None
    summary, provenance, _ = _resolve_cold(store, key, config, workload, pipeline)
    return key, summary.to_json_dict(), provenance


def _resolve_cold(
    store: Optional[ResultStore],
    key: str,
    config: ExperimentConfig,
    workload: Workload,
    pipeline: str,
) -> tuple[EvaluationSummary, str, Optional[WorkloadEvaluation]]:
    """Resolve a memo miss: single-flight → shared entry → replay → compute.

    The one cold path behind :meth:`ExperimentEngine.evaluate`, the serial
    loop of :meth:`ExperimentEngine.map` and the pool worker
    :func:`_compute_summary_for`.  Returns ``(summary, provenance, live
    evaluation or None)``; provenance is ``"shared"`` (another flight
    published the entry first), ``"replayed"`` (rebuilt from a trace
    snapshot, zero simulator steps) or ``"computed"`` (simulated here; the
    live evaluation is returned too).

    Under the store's cross-process single-flight lock, concurrent
    identical evaluations — other sweeps, service replicas, CI shards on
    a shared cache — collapse to one simulation, and every loser reads
    the winner's entry.  Results are published *inside* the flight, so
    waiters are released only once the entry is readable.  With no store
    the configuration is simply computed.  Compute failures are raised as
    a classified :class:`~repro.experiments.resilience.EvaluationError`
    (each caller applies its own ``on_error`` semantics); store-side
    errors propagate unclassified.
    """
    if store is None:
        evaluation = _classified_compute(config, workload, pipeline, None)
        return evaluation.summarize(), "computed", evaluation
    with store.single_flight(key) as flight:
        if flight.summary is not None:
            return flight.summary, "shared", None
        summary = _replay_from_snapshot(store, config, workload)
        if summary is not None:
            store.save(key, summary)
            return summary, "replayed", None
        evaluation = _classified_compute(config, workload, pipeline, store)
        _publish(store, key, config, workload, evaluation)
        return evaluation.summarize(), "computed", evaluation


def _classified_compute(
    config: ExperimentConfig,
    workload: Workload,
    pipeline: str,
    store: Optional[ResultStore],
) -> WorkloadEvaluation:
    try:
        return _compute(config, workload, _resolve_pipeline(pipeline, store))
    except Exception as exc:
        raise classify_failure(exc) from exc


def _compute(
    config: ExperimentConfig, workload: Workload, pipeline: str
) -> WorkloadEvaluation:
    return _compute_evaluation(
        workload,
        mechanism=config.mechanism,
        threshold_nj=config.threshold_nj,
        conventional_vrp=config.conventional_vrp,
        machine_config=config.machine_config,
        pipeline=pipeline,
    )


# ----------------------------------------------------------------------
# Trace snapshots: the only place that knows the snapshot key and the
# publish order
# ----------------------------------------------------------------------
def _snapshot_key(config: ExperimentConfig, workload: Workload) -> str:
    return trace_key(
        workload, config.mechanism, config.threshold_nj, config.conventional_vrp
    )


def _load_snapshot(
    store: ResultStore, config: ExperimentConfig, workload: Workload
) -> Optional["SimulationArtifact"]:
    """The stored trace snapshot for ``config``'s trace signature, or None."""
    return store.load_trace(_snapshot_key(config, workload))


def _replay_from_snapshot(
    store: ResultStore, config: ExperimentConfig, workload: Workload
) -> Optional[EvaluationSummary]:
    """Rebuild a summary from a stored trace snapshot, or None on miss.

    When only the *analysis* side changed (a gating policy, an energy
    coefficient, the machine configuration), the summary key misses but
    the simulator-side snapshot key still hits, and the evaluation is
    rebuilt without a single simulator step.
    """
    artifact = _load_snapshot(store, config, workload)
    if artifact is None:
        return None
    try:
        return replay_summary(
            workload,
            artifact,
            mechanism=config.mechanism,
            threshold_nj=config.threshold_nj,
            conventional_vrp=config.conventional_vrp,
            machine_config=config.machine_config,
        )
    except Exception as exc:
        # The snapshot decoded but its contents don't replay — e.g. a
        # truncated-then-padded file whose trace is internally
        # inconsistent.  A broken cache entry must never fail an
        # evaluate(): drop it and fall back to simulation.
        path = store.trace_path_for(_snapshot_key(config, workload))
        _log.warning(
            "evicting unreplayable trace snapshot %s (%s: %s)", path, type(exc).__name__, exc
        )
        store.quarantine(path, f"unreplayable: {type(exc).__name__}: {exc}")
        return None


def _publish(
    store: ResultStore,
    key: str,
    config: ExperimentConfig,
    workload: Workload,
    evaluation: WorkloadEvaluation,
) -> None:
    """Persist a freshly computed evaluation: snapshot first, summary last.

    The order is the contract: a visible summary always means its
    snapshot is already written.  A fused evaluation has no trace to
    snapshot — its ``trace`` slot holds the streaming shape aggregate
    (see docs/fused.md).  Both writes are best-effort no-ops on a
    disabled store.
    """
    if store.trace_enabled and evaluation.trace is not None and evaluation.pipeline != "fused":
        store.save_trace(_snapshot_key(config, workload), artifact_from_evaluation(evaluation))
    store.save(key, evaluation.summarize())


class ExperimentEngine:
    """Memoizing, store-backed, process-parallel experiment evaluator."""

    def __init__(
        self, store: Optional[ResultStore] = None, jobs: Optional[int] = None
    ) -> None:
        self.store = store if store is not None else ResultStore()
        self.jobs = _resolve_jobs(jobs)
        self._memo: dict[str, WorkloadEvaluation] = {}

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def key_for(self, config: ExperimentConfig, workload: Optional[Workload] = None) -> str:
        """Content-hash store key of ``config``."""
        if workload is None:
            workload = workload_by_name(config.workload)
        return config_key(
            workload,
            config.mechanism,
            config.threshold_nj,
            config.conventional_vrp,
            config.machine_config,
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        config: ExperimentConfig,
        workload: Optional[Workload] = None,
        pipeline: str = "auto",
        on_error: str = "raise",
    ) -> WorkloadEvaluation:
        """Resolve one configuration: memo → store → replay → compute.

        ``workload`` lets callers evaluate a hand-modified workload object;
        its content hash (not just its name) keys the result, so a modified
        workload never aliases the registry entry.

        ``on_error`` selects the partial-failure semantics: ``"raise"``
        (the default) propagates the classified
        :class:`~repro.experiments.resilience.EvaluationError`;
        ``"keep"`` returns an error-carrying evaluation instead (its
        ``summary.failure`` holds the kind and message; nothing is
        memoized or persisted for the failed point).

        ``pipeline`` selects the live path for a cold compute (see
        :func:`_resolve_pipeline`): ``"auto"`` runs the fused streaming
        pipeline whenever the evaluation is summary-only (no trace
        snapshot will be persisted), so the trace is never even built.
        The choice cannot affect results — the pipelines are bit-exact —
        and is deliberately not part of the store key.

        The returned evaluation is *live* (trace/program attached) only when
        this call actually simulated; memo, store and snapshot-replay hits
        are restored, summary-only objects.  Callers that require a live
        trace should use :meth:`compute`.
        """
        if on_error not in ("raise", "keep"):
            raise ValueError(f"unknown on_error mode {on_error!r}; expected 'raise' or 'keep'")
        if workload is None:
            workload = workload_by_name(config.workload)
        key = self.key_for(config, workload)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        summary = self.store.load(key)
        if summary is not None:
            evaluation = WorkloadEvaluation.from_summary(workload, summary)
        else:
            try:
                summary, provenance, live = _resolve_cold(
                    self.store, key, config, workload, pipeline
                )
            except EvaluationError as failure:
                if on_error == "raise":
                    raise
                _log.warning(
                    "evaluate(%s/%s): keeping failure %s",
                    config.workload,
                    config.mechanism,
                    failure.describe(),
                )
                return _failure_evaluation(config, workload, failure)
            evaluation = live
            if evaluation is None:
                evaluation = WorkloadEvaluation.from_summary(workload, summary)
            evaluation.freshly_computed = provenance == "computed"
            evaluation.replayed_from_store = provenance == "replayed"
        self._memo[key] = evaluation
        return evaluation

    def compute(
        self,
        config: ExperimentConfig,
        workload: Optional[Workload] = None,
        pipeline: str = "materialized",
    ) -> WorkloadEvaluation:
        """Run the live pipeline for one point, bypassing every cache layer.

        Always builds, transforms and simulates, and always returns a
        *live* evaluation — the one entry point for callers that genuinely
        need the trace, so the pipeline defaults to ``"materialized"``
        (the environment is not consulted).  An explicit
        ``pipeline="fused"`` returns a live evaluation whose ``trace``
        slot holds the streaming shape aggregate instead of a trace; any
        other name (``"auto"`` included) raises ``ValueError``.
        Nothing is memoized or persisted; use :meth:`evaluate` for
        cached, store-backed resolution.
        """
        if workload is None:
            workload = workload_by_name(config.workload)
        return _compute(config, workload, pipeline)

    def map(
        self,
        configs: Sequence[ExperimentConfig],
        jobs: Optional[int] = None,
        pipeline: str = "auto",
        on_error: str = "raise",
        on_result: Optional[Callable[[int, WorkloadEvaluation], None]] = None,
    ) -> list[WorkloadEvaluation]:
        """Evaluate many independent configurations, in parallel when possible.

        Memo/store hits are resolved inline; the remaining configurations
        are computed by a process pool (or serially as a fallback) and their
        summaries persisted, so a crashed or interrupted sweep loses at most
        the configurations still in flight.  ``pipeline`` is resolved once
        against this engine's store (see :func:`_resolve_pipeline`) and
        applied to every cold compute, in the pool and in the serial
        fallback alike.

        Cold configurations always come back *restored* (summary-backed,
        ``trace is None``) — regardless of whether the pool or the serial
        fallback computed them — so the result shape never depends on the
        machine's CPU count.  Use :meth:`compute` when a live trace is
        genuinely required (:meth:`evaluate` returns a live object only
        when it computes; store hits are restored there too).

        The fan-out runs under :func:`~repro.experiments.resilience.supervised_map`:
        transient worker failures are retried with backoff, hung workers
        are reaped when ``REPRO_TASK_TIMEOUT_S`` is set, and pool
        collapses degrade in stages down to in-process serial evaluation
        — each stage logged.  ``on_error`` picks the partial-failure
        semantics for *permanent* per-task failures: ``"raise"`` (the
        default) propagates the first classified
        :class:`~repro.experiments.resilience.EvaluationError`; ``"keep"``
        returns error-carrying evaluations (``summary.failure`` set,
        nothing persisted) in the failed slots so the healthy points
        survive.

        ``on_result`` streams per-point progress: it is called once per
        *input index* — ``on_result(index, evaluation)`` — as each point
        resolves, in arrival order (memo/store hits first, then pool or
        serial completions; a deduplicated key fires once per index that
        requested it).  It runs in the calling thread, so a slow callback
        slows delivery, not the workers.  The evaluation service uses
        this for its NDJSON progress streams.
        """
        if on_error not in ("raise", "keep"):
            raise ValueError(f"unknown on_error mode {on_error!r}; expected 'raise' or 'keep'")
        results: list[Optional[WorkloadEvaluation]] = [None] * len(configs)

        def deliver(index: int, evaluation: WorkloadEvaluation) -> None:
            results[index] = evaluation
            if on_result is not None:
                on_result(index, evaluation)

        # Deduplicate misses by key: the same configuration requested twice
        # in one call must be simulated once.
        missing: dict[str, tuple[ExperimentConfig, Workload]] = {}
        missing_indices: dict[str, list[int]] = {}
        for index, config in enumerate(configs):
            workload = workload_by_name(config.workload)
            key = self.key_for(config, workload)
            cached = self._memo.get(key)
            if cached is not None:
                deliver(index, cached)
                continue
            if key in missing:
                missing_indices[key].append(index)
                continue
            summary = self.store.load(key)
            if summary is not None:
                evaluation = WorkloadEvaluation.from_summary(workload, summary)
                self._memo[key] = evaluation
                deliver(index, evaluation)
                continue
            # Trace-snapshot replays are deliberately *not* resolved inline
            # here: they run the timing model and the fused accountant over
            # a full trace, so an analysis-only sweep benefits from the
            # worker pool exactly like a cold compute.  Both the workers
            # and the serial fallback consult the snapshot layer.
            missing[key] = (config, workload)
            missing_indices[key] = [index]

        if missing:
            resolved_pipeline = _resolve_pipeline(pipeline, self.store)
            order = list(missing.items())

            def ready(key: str, summary: EvaluationSummary, provenance: str) -> None:
                """Memoize + stream one resolved miss (pool or serial)."""
                _, miss_workload = missing[key]
                evaluation = WorkloadEvaluation.from_summary(miss_workload, summary)
                evaluation.freshly_computed = provenance == "computed"
                evaluation.replayed_from_store = provenance == "replayed"
                self._memo[key] = evaluation
                for index in missing_indices[key]:
                    deliver(index, evaluation)

            worker_count = min(_resolve_jobs(jobs) if jobs is not None else self.jobs, len(order))
            errors = (
                self._map_parallel(
                    [config for _, (config, _) in order],
                    worker_count,
                    resolved_pipeline,
                    on_ready=lambda position, summary, provenance: ready(
                        order[position][0], summary, provenance
                    ),
                )
                if worker_count > 1
                else None
            )
            if errors is None:
                errors = {}
                for position, (key, (config, workload)) in enumerate(order):
                    if results[missing_indices[key][0]] is not None:
                        # Streamed by a pool attempt that later collapsed.
                        # Call-local on purpose: the memo is shared with
                        # other threads and reentrant callbacks, whose
                        # entries this call has not delivered yet.
                        continue
                    try:
                        summary, provenance, _ = _resolve_cold(
                            self.store, key, config, workload, resolved_pipeline
                        )
                    except EvaluationError as error:
                        errors[position] = error
                        continue
                    ready(key, summary, provenance)
            for position, error in errors.items():
                key, (config, workload) = order[position]
                if on_error == "raise":
                    raise error
                _log.warning(
                    "map(%s/%s): keeping failure %s",
                    config.workload,
                    config.mechanism,
                    error.describe(),
                )
                evaluation = _failure_evaluation(config, workload, error)
                # Failed points are never memoized: a later request
                # must get a fresh chance at a healthy evaluation.
                for index in missing_indices[key]:
                    deliver(index, evaluation)
        return results  # type: ignore[return-value]

    def map_suite(
        self,
        mechanism: str = "none",
        threshold_nj: float = 50.0,
        conventional_vrp: bool = False,
        machine_config: Optional[MachineConfig] = None,
        jobs: Optional[int] = None,
        pipeline: str = "auto",
        on_error: str = "raise",
    ) -> dict[str, WorkloadEvaluation]:
        """Evaluate every workload of the SpecInt95-analogue suite.

        Convenience over :meth:`map`: one configuration per suite
        workload, results keyed by workload name.  This is what the
        figure/table modules call.
        """
        configs = [
            ExperimentConfig(
                workload=workload.name,
                mechanism=mechanism,
                threshold_nj=threshold_nj,
                conventional_vrp=conventional_vrp,
                machine_config=machine_config,
            )
            for workload in load_suite()
        ]
        evaluations = self.map(configs, jobs=jobs, pipeline=pipeline, on_error=on_error)
        return {evaluation.workload.name: evaluation for evaluation in evaluations}

    def sweep(
        self,
        spec: "SweepSpec",
        workloads: Optional["Mapping[str, Workload]"] = None,
        pipeline: str = "auto",
        on_error: str = "keep",
    ) -> "Iterator[SweepRow]":
        """Stream one :class:`~repro.experiments.sweep.SweepRow` per spec point.

        The batched design-space path (see ``docs/sweeps.md``): one
        simulation or snapshot replay per distinct trace signature, one
        multi-config timing-kernel walk per machine-config shape group,
        one fused accounting walk per trace — instead of a full
        :meth:`evaluate` round-trip per point.  Rows are bit-identical
        to what per-point evaluation reports for the same cells.  From a
        warm store (snapshots present) a sweep performs **zero**
        simulator calls.
        """
        from .sweep import run_sweep

        return run_sweep(
            self, spec, workloads=workloads, pipeline=pipeline, on_error=on_error
        )

    def _map_parallel(
        self,
        configs: Sequence[ExperimentConfig],
        worker_count: int,
        pipeline: str,
        on_ready: Callable[[int, EvaluationSummary, str], None],
    ) -> Optional[dict[int, EvaluationError]]:
        """Fan the missing configurations out under supervision.

        Every worker publishes its summary (and snapshot) to the store
        *inside its single-flight lock* before returning, so an
        interrupted sweep loses at most the configurations still in
        flight — and concurrent processes racing on the same keys wait
        instead of duplicating the simulation.  Transient worker failures
        are retried with deterministic backoff; a hung worker is reaped
        when ``REPRO_TASK_TIMEOUT_S`` is set; pool collapses escalate
        through the degradation stages (replace-worker → fresh-pool →
        serial), each logged — see
        :func:`repro.experiments.resilience.supervised_map`.

        ``on_ready(position, summary, provenance)`` fires in the calling
        thread for every success as it arrives (the supervisor's
        ``on_result`` hook), letting :meth:`map` stream completions.

        Returns the permanent per-task failures by position, so ``map``
        can apply its ``on_error`` semantics — or None when the pool
        infrastructure cannot be created at all (restricted sandboxes);
        the caller's serial fallback then picks up any partial progress.
        """
        store_root = str(self.store.root) if self.store.enabled else None
        tasks = [(config, store_root, pipeline) for config in configs]

        def collect(position: int, value) -> None:
            _, summary_dict, provenance = value
            on_ready(position, EvaluationSummary.from_json_dict(summary_dict), provenance)

        try:
            outcomes = supervised_map(
                _compute_summary_for,
                tasks,
                worker_count,
                task_timeout_s=_task_timeout_s(),
                retry=RetryPolicy(),
                on_result=collect,
                logger=_log,
            )
        except (OSError, ValueError, RuntimeError, ImportError) as exc:
            # The silent `return None` this replaces hid real environment
            # problems; name the failure and the degradation stage so a
            # slow sandboxed run is explainable from its logs.
            _log.warning(
                "experiment engine: process-pool fan-out unavailable (%s: %s); "
                "degradation stage 'serial': evaluating %d configuration(s) in-process",
                type(exc).__name__,
                exc,
                len(configs),
            )
            return None
        return {
            position: outcome.error
            for position, outcome in enumerate(outcomes)
            if not outcome.ok
        }

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear_memory(self) -> None:
        """Drop the in-process memo (the on-disk store is untouched)."""
        self._memo.clear()


# ----------------------------------------------------------------------
# Process-wide default engine
# ----------------------------------------------------------------------
_DEFAULT_ENGINE: Optional[ExperimentEngine] = None


def default_engine() -> ExperimentEngine:
    """The process-wide engine: the session the blessed API acts on.

    The CLI, the service and the figure/table modules all share this
    engine (and therefore its memo and store).
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExperimentEngine()
    return _DEFAULT_ENGINE


def reset_default_engine() -> None:
    """Forget the default engine (re-reads environment configuration)."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = None
