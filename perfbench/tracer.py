"""Layer spans recorded from outside the program.

:func:`install` wraps the layer entry points of the ``repro`` package (and
``builtins.compile``, for the code generators) in the process that runs
them.  Every call becomes a span — name, start, end, parent span, request
id and thread — kept in memory until :func:`aggregate` folds them into
per-layer busy time (self time: a span's duration minus its direct
children) and counts.  Nothing inside ``src/`` is edited; the wrappers
replace module and class attributes at run time, so the program under
test is byte-for-byte the one being benchmarked.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import sys
import threading
import time

#: Generated-source filenames of the three code generators, and the
#: metric suffix each one is reported under.
CODEGEN_BUCKETS = (
    ("<repro.sim.blockc>", "blockc"),
    ("<repro.sim.fusedc>", "fusedc"),
    ("<timing-kernel", "tkernel"),  # also matches <timing-kernel-multi>
)


class Recorder:
    """Append-only span log shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, request, thread, amount)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self):
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value) -> None:
        self._local.request = value

    def begin(self) -> tuple[int, int]:
        """Reserve a span slot; returns (index, parent index or -1)."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            self.spans.append(())
            index = len(self.spans) - 1
        stack.append(index)
        return index, parent

    def end(self, index: int, parent: int, name: str, start: float, amount: float) -> None:
        self._stack().pop()
        self.spans[index] = (
            name,
            start,
            time.perf_counter(),
            parent,
            self.request,
            threading.get_ident(),
            amount,
        )

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block; yields a one-slot amount box."""
        index, parent = self.begin()
        start = time.perf_counter()
        box = [0.0]
        try:
            yield box
        finally:
            self.end(index, parent, name, start, box[0])


def _replace_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module attribute bound to ``original`` at ``replacement``.

    Modules import layer functions by name (``from ..core import run_vrp``),
    so patching the defining module alone would miss those call sites.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _spanned(recorder: Recorder, original, name: str, amount=None):
    """``original`` inside a span; ``amount(args, result)`` sets the span's amount."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as box:
            result = original(*args, **kwargs)
            if amount is not None:
                box[0] = amount(args, result)
            return result

    return wrapper


def _wrap_function(recorder: Recorder, module, attr: str, name: str, amount=None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, _spanned(recorder, original, name, amount))


def _wrap_method(recorder: Recorder, cls, attr: str, name: str, amount=None) -> None:
    setattr(cls, attr, _spanned(recorder, getattr(cls, attr), name, amount))


def _wrap_generator(recorder: Recorder, module, attr: str, name: str) -> None:
    """Count the items a generator yields; its time is spent in its children."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        for item in original(*args, **kwargs):
            with recorder.span(name) as box:
                box[0] = 1.0
            yield item

    _replace_everywhere(original, wrapper)


def _length(value) -> float:
    try:
        return float(len(value))
    except TypeError:
        return 0.0


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point named in the benchmark's per-layer table.

    Must run after ``repro.experiments`` is imported and before any
    workload program module is: it imports nothing from
    ``repro.workloads.programs``, so the suite registry stays as lazy as
    it is in production.
    """
    import repro.core.vrp as vrp_module
    import repro.core.vrs as vrs_module
    import repro.experiments.store as store_module
    import repro.experiments.sweep as sweep_module
    import repro.power.model as power_module
    import repro.service.server as server_module
    import repro.sim.blockc as blockc_module
    import repro.sim.fusedc as fusedc_module
    import repro.sim.machine as machine_module
    import repro.sim.snapshot as snapshot_module
    import repro.uarch.ooo as ooo_module
    import repro.uarch.tkernel as tkernel_module
    import repro.workloads.suite as suite_module

    _wrap_method(recorder, suite_module.Workload, "build", "minic.build", lambda a, r: 1.0)
    _wrap_function(recorder, vrp_module, "run_vrp", "core.vrp", lambda a, r: 1.0)
    _wrap_function(recorder, vrs_module, "run_vrs", "core.vrs", lambda a, r: 1.0)
    _wrap_function(recorder, blockc_module, "compile_blocks", "sim.build")
    _wrap_function(recorder, fusedc_module, "compile_fused", "sim.build")
    _wrap_method(
        recorder, machine_module.Machine, "run", "sim.run", lambda a, r: float(r.instructions)
    )
    _wrap_method(
        recorder, ooo_module.OutOfOrderModel, "run", "uarch.timing", lambda a, r: _length(a[1])
    )
    _wrap_function(
        recorder,
        tkernel_module,
        "run_compiled_many",
        "uarch.timing",
        lambda a, r: _length(a[0]) * len(r),
    )
    accountant = power_module.MultiPolicyEnergyAccountant
    _wrap_method(recorder, accountant, "account", "power.account", lambda a, r: 1.0)
    _wrap_method(recorder, accountant, "account_many", "power.account", lambda a, r: 1.0)
    _wrap_function(
        recorder, snapshot_module, "encode_artifact", "snapshot.encode", lambda a, r: float(len(r))
    )
    _wrap_function(recorder, snapshot_module, "decode_artifact", "snapshot.decode")

    store = store_module.ResultStore
    _wrap_method(recorder, store, "load", "store.load", lambda a, r: float(r is not None))
    _wrap_method(recorder, store, "save", "store.save", lambda a, r: 1.0)
    _wrap_method(recorder, store, "save_trace", "store.save_trace", lambda a, r: 1.0)
    _wrap_method(
        recorder, store, "load_trace", "store.load_trace", lambda a, r: float(r is not None)
    )
    single_flight = store.single_flight

    @functools.wraps(single_flight)
    @contextlib.contextmanager
    def traced_single_flight(self, key, *args, **kwargs):
        # Only the entry is timed: that is where a caller waits for the
        # cross-process lock (or for a concurrent winner to publish).
        manager = single_flight(self, key, *args, **kwargs)
        with recorder.span("store.lock_wait") as box:
            flight = manager.__enter__()
            box[0] = float(flight.shared)
        try:
            yield flight
        except BaseException:
            if not manager.__exit__(*sys.exc_info()):
                raise
        else:
            manager.__exit__(None, None, None)

    store.single_flight = traced_single_flight

    _wrap_function(recorder, sweep_module, "_score_group", "sweep.group", lambda a, r: 1.0)
    _wrap_generator(recorder, sweep_module, "run_sweep", "sweep.row")

    service = server_module.EvaluationService
    execute_job = service._execute_job

    @functools.wraps(execute_job)
    def traced_execute_job(self, job):
        recorder.request = job.id
        try:
            with recorder.span("service.job"):
                return execute_job(self, job)
        finally:
            recorder.request = None

    service._execute_job = traced_execute_job

    original_compile = builtins.compile

    @functools.wraps(original_compile)
    def traced_compile(source, filename, *args, **kwargs):
        for prefix, bucket in CODEGEN_BUCKETS:
            if isinstance(filename, str) and filename.startswith(prefix):
                with recorder.span("codegen." + bucket) as box:
                    box[0] = float(len(source))
                    return original_compile(source, filename, *args, **kwargs)
        return original_compile(source, filename, *args, **kwargs)

    builtins.compile = traced_compile


def aggregate(spans: list[tuple]) -> dict:
    """Fold a span log into per-name self time, inclusive time, calls and amount.

    Slots of spans still open when the log is read are empty tuples and
    are skipped.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    totals: dict[str, dict] = {}
    for index, span in enumerate(spans):
        if not span:
            continue
        name, start, end, _parent, _request, _thread, amount = span
        entry = totals.setdefault(name, {"self": 0.0, "total": 0.0, "calls": 0, "amount": 0.0})
        duration = end - start
        entry["self"] += duration - child_time[index]
        entry["total"] += duration
        entry["calls"] += 1
        entry["amount"] += amount
    return {"layers": totals, "spans": sum(1 for span in spans if span)}
