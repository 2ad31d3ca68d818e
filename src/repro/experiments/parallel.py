"""Sweep execution engine: persistent worker pool, cost-modeled dispatch.

A figure regeneration is a long list of independent simulations, each a
pure function of ``(scale, config, policy, workload)``.  This module fans
those simulations out over a **persistent** process pool and merges the
results back through :class:`ExperimentRunner`'s cache, so the serial code
paths (and their results) are untouched — the parallel layer only
*prefetches* cache entries.

The engine has three moving parts:

* **Persistent, lazily-spawned worker pool.**  One
  :class:`~concurrent.futures.ProcessPoolExecutor` is shared by every
  ``run_items`` call of the process — across sweeps, figure drivers and
  benchmark rounds — so workers keep their memoized traces.  The pool
  grows on demand (a larger ``jobs=`` respawns it bigger; a smaller one
  reuses it) and is torn down by :func:`shutdown` or at interpreter exit.
* **Traces from the trace cache.**  A work item carries only the seed-level
  :class:`TraceSpec` of its traces; the worker rebuilds each one through
  :func:`repro.trace.synthesis.generate_trace`, which maps the entry the
  parent wrote to the on-disk trace cache when it built its pool.  Only
  with that cache disabled or unwritable does a worker re-synthesize from
  the seed (bit-identical, just slower).
* **Cost-modeled scheduling** (:mod:`repro.experiments.costmodel`).
  Cache-missing items are dispatched longest-expected-first (LPT) through
  a bounded in-flight window: idle workers pull the next-longest pending
  item the moment they free up, which eliminates the tail-straggler idle
  time of FIFO submission.  Completed-item timings are fed back into the
  model, so estimates calibrate to the host over the life of the process.

The result cache is the only checkpoint: :func:`split_items` skips every
key :meth:`ExperimentRunner.completed_record` reports as done, so
re-running an interrupted sweep executes exactly the missing keys.

This module is the **local executor**; :mod:`repro.fabric` generalizes it
into a pluggable layer whose ``tcp`` executor leases the same
:class:`WorkItem` units to remote workers over a socket protocol.  Every
dispatcher — local pool, tcp hub and the HTTP service — shares this
module's dedup (:func:`split_items`), worker entry point
(:func:`_run_item`) and result merge (:func:`merge_result`); the local
pool and the tcp hub also share the per-sweep bookkeeping (:class:`_Sweep`).

Scheduling and pooling never affect *what* is computed: workers run the
same ``run``/``run_single`` entry points the serial path uses, and the
final sweep assembly reads everything back from the cache, so a parallel
run is bit-identical to a serial one at any ``jobs=``, with telemetry on
or off (asserted by ``tests/experiments/test_parallel.py`` and
``tests/telemetry/test_parallel_telemetry.py``).

Worker counts resolve as ``jobs=`` argument > ``REPRO_JOBS`` environment
variable > default (``os.cpu_count()`` for the benchmark/figure drivers,
1 for a bare :class:`ExperimentRunner`).

Every completed item also leaves a timing record (predicted vs measured
seconds, worker PID, queue wait) in ``runner.sweep_log`` and — when the
runner has a ``cache_dir`` — appended to ``<cache_dir>/sweep_trace.jsonl``,
so sweep behaviour is observable after the fact.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.config import ProcessorConfig
from repro.experiments import costmodel
from repro.telemetry import TelemetryConfig
from repro.trace.categories import WorkloadType, category_profile
from repro.trace.synthesis import generate_trace
from repro.trace.trace import Trace
from repro.trace.workloads import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import ExperimentRunner, RunKey, RunRecord, Scale


def resolve_jobs(jobs: int | None = None, default: int | None = None) -> int:
    """Worker count: explicit ``jobs`` > ``REPRO_JOBS`` > ``default``.

    ``default=None`` means "all cores" (the right default for the figure
    and benchmark drivers); library entry points pass ``default=1`` so an
    :class:`ExperimentRunner` never forks unless asked to.

    Malformed values fail *here*, before any pool is spawned, with a clear
    message — never as an uncaught ``ValueError`` mid-sweep — and
    non-positive counts clamp to 1.
    """
    if jobs is not None:
        try:
            return max(1, int(jobs))
        except (TypeError, ValueError):
            raise ValueError(
                f"jobs={jobs!r} is not a worker count; pass an integer >= 1"
            ) from None
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS={env!r} is not a worker count; set an integer "
                "like REPRO_JOBS=4 (values < 1 clamp to 1), or unset it"
            ) from None
    if default is not None:
        return max(1, int(default))
    return os.cpu_count() or 1


# --------------------------------------------------------------------------- #
# Work items: everything a worker needs, nothing it can rebuild               #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class TraceSpec:
    """Seed-level identity of a generated trace (a few ints and strings)."""

    name: str
    category: str
    kind: str
    seed: int
    n_uops: int

    @classmethod
    def of(cls, trace: Trace) -> "TraceSpec":
        return cls(trace.name, trace.category, trace.kind, trace.seed, len(trace))

    def build(self) -> Trace:
        """Regenerate the trace; bit-identical to the original."""
        return generate_trace(
            category_profile(self.category, self.kind),
            seed=self.seed,
            n_uops=self.n_uops,
            name=self.name,
            category=self.category,
            kind=self.kind,
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Seed-level identity of a 2-thread workload."""

    name: str
    category: str
    wtype: str  # WorkloadType value
    traces: tuple[TraceSpec, ...]

    @classmethod
    def of(cls, workload: Workload) -> "WorkloadSpec | None":
        """Spec for ``workload``, or None if its traces cannot be
        regenerated from seeds (hand-built test traces) — those run
        serially in the parent instead."""
        specs = []
        for tr in workload.traces:
            try:
                category_profile(tr.category, tr.kind)
            except KeyError:
                return None
            specs.append(TraceSpec.of(tr))
        return cls(
            workload.name, workload.category, workload.wtype.value, tuple(specs)
        )


@dataclass(frozen=True)
class WorkItem:
    """One simulation to run in a worker.

    Exactly one of ``workload`` (2-thread run) / ``single`` (single-thread
    reference run) is set.  ``key`` is computed by the parent so cache
    identity cannot drift between parent and worker.  When the parent
    collects telemetry, the item carries the telemetry configuration and
    base directory; the worker writes the same per-key export directory
    (and, since telemetry is deterministic, the same bytes) the serial
    path would.
    """

    key: "RunKey"
    scale: "Scale"
    config: ProcessorConfig
    policy: str
    stop: str
    workload: WorkloadSpec | None = None
    single: TraceSpec | None = None
    telemetry: TelemetryConfig | None = None
    telemetry_dir: str | None = None
    #: tri-state like ExperimentRunner.fast_forward: None defers to the
    #: worker's REPRO_FF environment (results are identical either way)
    fast_forward: bool | None = None
    #: cycle engine the worker must use; the parent fills in its resolved
    #: backend name so a sweep never mixes engines because of divergent
    #: worker environments.  None (old items, hand-built tests) lets the
    #: worker's own resolution stand.  Backends are bit-identical, so this
    #: affects scheduling records and wall-clock only, never results.
    backend: str | None = None


# --------------------------------------------------------------------------- #
# Worker side                                                                 #
# --------------------------------------------------------------------------- #

_worker_traces: dict[TraceSpec, Trace] = {}


def _worker_trace(spec: TraceSpec) -> Trace:
    """The trace for ``spec``, memoized for the life of the process.

    :meth:`TraceSpec.build` maps the trace-cache entry the parent wrote
    when it built its pool; it re-synthesizes from the seed only when the
    cache is disabled or unwritable.
    """
    tr = _worker_traces.get(spec)
    if tr is None:
        tr = _worker_traces[spec] = spec.build()
    return tr


def _run_item(item: WorkItem):
    """Worker entry point: run one simulation.

    The runner is built from the item's fields on every call and has no
    cache directory, so a long-lived worker keeps no records between
    items.  Returns ``(key, record, seconds, worker_pid)`` — the timing
    feeds the parent's cost model, the PID its scheduling log.
    """
    from repro.experiments.runner import ExperimentRunner

    t0 = time.perf_counter()
    runner = ExperimentRunner(
        item.scale,
        jobs=1,
        telemetry_dir=item.telemetry_dir,
        telemetry=item.telemetry,
        fast_forward=item.fast_forward,
        backend=item.backend,
        executor="local",
    )
    if item.single is not None:
        rec = runner.run_single(item.config, _worker_trace(item.single))
    else:
        assert item.workload is not None
        spec = item.workload
        workload = Workload(
            name=spec.name,
            category=spec.category,
            wtype=WorkloadType(spec.wtype),
            traces=tuple(_worker_trace(s) for s in spec.traces),
        )
        rec = runner.run(item.config, item.policy, workload, stop=item.stop)
    return item.key, rec, time.perf_counter() - t0, os.getpid()


# --------------------------------------------------------------------------- #
# Parent side: persistent executor, scheduler, progress, cache merge          #
# --------------------------------------------------------------------------- #

_executor: ProcessPoolExecutor | None = None
_executor_jobs = 0
_cost_model: costmodel.CostModel | None = None
_atexit_registered = False


def _get_cost_model() -> costmodel.CostModel:
    global _cost_model
    if _cost_model is None:
        _cost_model = costmodel.CostModel()
    return _cost_model


def _get_executor(jobs: int) -> ProcessPoolExecutor:
    """The persistent pool, grown (never shrunk) to at least ``jobs``.

    Workers are spawned lazily by the executor as items are submitted, so
    asking for a large pool costs nothing until the work arrives; keeping
    a larger-than-needed pool alive costs idle processes but preserves
    their warm trace memos, which is the point.
    """
    global _executor, _executor_jobs, _atexit_registered
    if _executor is not None and jobs > _executor_jobs:
        shutdown()
    if _executor is None:
        _executor = ProcessPoolExecutor(max_workers=jobs)
        _executor_jobs = jobs
        if not _atexit_registered:
            atexit.register(shutdown)
            _atexit_registered = True
    return _executor


def shutdown() -> None:
    """Tear down the worker pool.

    Safe to call repeatedly; also runs at interpreter exit.  The next
    ``run_items`` call simply builds a fresh pool.
    """
    global _executor, _executor_jobs
    if _executor is not None:
        _executor.shutdown(wait=True)
        _executor = None
        _executor_jobs = 0


class _Progress:
    """Live ``hit/ran/total`` line on stderr.

    Cache-hit items are reported separately from executed ones, so a
    mostly-cached rerun shows how much real work remains instead of a
    misleading grand total.  Written to stderr only (never stdout, so
    ``repro-sim ... | jq`` style pipelines stay clean) and suppressed
    entirely when neither stdout nor stderr is a terminal — a redirected
    batch run gets no progress spam in its logs.
    """

    def __init__(self, to_run: int, hits: int, jobs: int, label: str) -> None:
        self.to_run = to_run
        self.hits = hits
        self.total = to_run + hits
        self.jobs = jobs
        self.done = 0
        self.label = label
        try:
            interactive = sys.stderr.isatty() and sys.stdout.isatty()
        except (AttributeError, ValueError):
            interactive = False
        self._tty = interactive
        if self._tty:
            print(self.header(), file=sys.stderr, flush=True)

    def header(self) -> str:
        return (
            f"[repro] {self.label}: {self.total} sims "
            f"({self.hits} cached, {self.to_run} to run) on {self.jobs} workers"
        )

    def line(self, key: "RunKey") -> str:
        return (
            f"[repro] {self.hits} hit + {self.done}/{self.to_run} ran "
            f"of {self.total} {key.policy}/{key.workload}"
        )

    def tick(self, key: "RunKey") -> None:
        self.done += 1
        if self._tty:
            print(f"\r{self.line(key)}\x1b[K", end="", file=sys.stderr, flush=True)

    def close(self) -> None:
        if self._tty:
            print(file=sys.stderr, flush=True)


def split_items(
    runner: "ExperimentRunner", items: Sequence[WorkItem]
) -> tuple[list[WorkItem], int]:
    """Deduplicate ``items`` and split them into (to-run, cache-hit count).

    The shared front half of every executor — local pool and fabric
    coordinator alike — so "what still needs running" is decided exactly
    once, by the process that owns the cache.
    """
    todo: list[WorkItem] = []
    hits = 0
    seen: set["RunKey"] = set()
    for item in items:
        if item.key in seen:
            continue
        seen.add(item.key)
        if runner.completed_record(item.key) is not None:
            hits += 1
        else:
            todo.append(item)
    return todo, hits


def merge_result(
    runner: "ExperimentRunner",
    item: WorkItem,
    rec: "RunRecord",
    seconds: float,
    worker_pid: int,
    *,
    label: str,
    predicted_s: float,
    t_submit: float,
    **extra: Any,
) -> None:
    """Land one executed item — the one merge path of every dispatcher.

    Caches the record, counts the simulation, calibrates the
    cost model and appends the item's timing record to ``runner.sweep_log``
    and ``<cache_dir>/sweep_trace.jsonl``.  ``wait_s`` is the time since
    ``t_submit`` (a :func:`time.perf_counter` reading) not spent
    simulating, clamped at 0; ``extra`` keys (the tcp hub's ``worker`` and
    ``executor``) extend the record.
    """
    key = item.key
    runner._cache_put(key, rec)
    runner.sims_run += 1
    _get_cost_model().observe(item, seconds)
    timing = {
        "label": label,
        "scale": key.scale,
        "policy": key.policy,
        "workload": key.workload,
        "backend": item.backend or runner.backend,
        "predicted_s": round(predicted_s, 6),
        "elapsed_s": round(seconds, 6),
        "wait_s": round(max(0.0, time.perf_counter() - t_submit - seconds), 6),
        "worker_pid": worker_pid,
        **extra,
    }
    runner.sweep_log.append(timing)
    if runner.cache_dir is None:
        return
    try:
        with open(runner.cache_dir / "sweep_trace.jsonl", "a") as fh:
            fh.write(json.dumps(timing) + "\n")
    except OSError:  # pragma: no cover - observability must never fail a run
        pass


class _Sweep:
    """One ``run_items`` call of the local pool or the tcp hub.

    Owns what both dispatchers do around their transport: the LPT order
    (``todo``/``estimates``), the progress line, the ``sweep_start`` /
    ``item`` / ``sweep_end`` events and the ``abort_cb`` poll after each
    completed item.  ``executor`` names a non-local dispatcher in the
    events, the progress label and each timing record.
    """

    def __init__(
        self,
        runner: "ExperimentRunner",
        label: str,
        todo: list[WorkItem],
        hits: int,
        jobs: int,
        executor: str | None = None,
    ) -> None:
        self.runner = runner
        self.label = label
        self.hits = hits
        self.estimates, self.todo = _get_cost_model().lpt_order(todo)
        self.tag = {"executor": executor} if executor else {}
        self.progress = _Progress(
            len(todo), hits, jobs, f"{label} [{executor}]" if executor else label
        )
        self.executed = 0
        self.aborted = False
        runner._notify(
            {
                "event": "sweep_start",
                "label": label,
                **self.tag,
                "total": len(todo) + hits,
                "hits": hits,
                "to_run": len(todo),
                "jobs": jobs,
            }
        )

    def done(
        self,
        item: WorkItem,
        rec: "RunRecord",
        seconds: float,
        worker_pid: int,
        t_submit: float,
        **extra: Any,
    ) -> None:
        """Merge one executed item, tick progress, notify, poll abort."""
        runner = self.runner
        merge_result(
            runner, item, rec, seconds, worker_pid,
            label=self.label,
            predicted_s=self.estimates[id(item)],
            t_submit=t_submit,
            **extra,
            **self.tag,
        )
        self.executed += 1
        key = item.key
        self.progress.tick(key)
        runner._notify(
            {
                "event": "item",
                "label": self.label,
                "scale": key.scale,
                "policy": key.policy,
                "workload": key.workload,
                "cached": False,
                "elapsed_s": round(seconds, 6),
                "worker_pid": worker_pid,
                **extra,
                "done": self.progress.done,
                "to_run": self.progress.to_run,
                "hits": self.hits,
            }
        )
        if not self.aborted and runner.abort_cb is not None:
            try:
                self.aborted = bool(runner.abort_cb())
            except Exception:  # noqa: BLE001 - treat a broken
                self.aborted = True  # callback as an abort request

    def close(self) -> None:
        self.progress.close()
        self.runner._notify(
            {
                "event": "sweep_end",
                "label": self.label,
                **self.tag,
                "executed": self.executed,
                "hits": self.hits,
                "aborted": self.aborted,
            }
        )

    def raise_if_aborted(self) -> None:
        if self.aborted:
            from repro.experiments.runner import SweepAborted

            raise SweepAborted(
                f"sweep {self.label!r} aborted after {self.executed} of "
                f"{len(self.todo)} simulations; completed work is cached"
            )


def run_items(
    runner: "ExperimentRunner",
    items: Sequence[WorkItem],
    jobs: int,
    label: str = "sweep",
) -> int:
    """Run the cache-missing ``items`` on the pool; merge results back.

    Returns the number of simulations actually executed.  With
    ``jobs <= 1`` this is a no-op — the caller's serial loop does the
    work — so the serial path never pays pool overhead.

    Dispatch is longest-expected-first through a bounded in-flight window
    (``jobs + 1`` futures): when any worker finishes, it immediately pulls
    the longest remaining item, so no worker idles while work is pending
    and the longest items never strand the tail of the sweep.
    """
    if jobs <= 1:
        return 0
    runner._check_abort()
    todo, hits = split_items(runner, items)
    if not todo:
        return 0

    executor = _get_executor(jobs)
    sweep = _Sweep(runner, label, todo, hits, min(jobs, len(todo)))
    queue: deque[WorkItem] = deque(sweep.todo)
    inflight: dict = {}

    def _submit_next() -> None:
        item = queue.popleft()
        inflight[executor.submit(_run_item, item)] = (item, time.perf_counter())

    try:
        for _ in range(min(jobs + 1, len(queue))):
            _submit_next()
        while inflight:
            done, _pending = wait(list(inflight), return_when=FIRST_COMPLETED)
            for fut in done:
                item, t_submit = inflight.pop(fut)
                _key, rec, seconds, worker_pid = fut.result()
                sweep.done(item, rec, seconds, worker_pid, t_submit)
                if queue and not sweep.aborted:
                    _submit_next()
    except BrokenProcessPool:
        shutdown()  # reset so the next call gets a healthy pool
        raise RuntimeError(
            "sweep worker pool died mid-run (worker killed or crashed); "
            "the pool has been reset — re-run"
        ) from None
    finally:
        for fut in inflight:
            fut.cancel()
        sweep.close()
    sweep.raise_if_aborted()
    return sweep.executed


def sweep_items(
    runner: "ExperimentRunner",
    config: ProcessorConfig,
    policies: Iterable[str],
    workloads: Iterable[Workload],
    stop: str = "first_done",
) -> list[WorkItem]:
    """Work items for every (policy, workload) pair of a sweep.

    Workloads whose traces cannot be regenerated from seeds are skipped
    (the serial pass after the prefetch still runs them in-parent).
    """
    items: list[WorkItem] = []
    tel_cfg, tel_dir = _telemetry_fields(runner)
    for wl in workloads:
        spec = WorkloadSpec.of(wl)
        if spec is None:
            continue
        for policy in policies:
            items.append(
                WorkItem(
                    key=runner.key_for(config, policy, wl, stop=stop),
                    scale=runner.scale,
                    config=config,
                    policy=policy,
                    stop=stop,
                    workload=spec,
                    telemetry=tel_cfg,
                    telemetry_dir=tel_dir,
                    fast_forward=runner.fast_forward,
                    backend=runner.backend,
                )
            )
    return items


def single_items(
    runner: "ExperimentRunner",
    config: ProcessorConfig,
    traces: Iterable[Trace],
) -> list[WorkItem]:
    """Work items for single-thread reference runs (fairness baselines)."""
    items: list[WorkItem] = []
    tel_cfg, tel_dir = _telemetry_fields(runner)
    for tr in traces:
        try:
            category_profile(tr.category, tr.kind)
        except KeyError:
            continue
        items.append(
            WorkItem(
                key=runner.key_for_single(config, tr),
                scale=runner.scale,
                config=config,
                policy="icount",
                stop="all_done",
                single=TraceSpec.of(tr),
                telemetry=tel_cfg,
                telemetry_dir=tel_dir,
                fast_forward=runner.fast_forward,
                backend=runner.backend,
            )
        )
    return items


def _telemetry_fields(
    runner: "ExperimentRunner",
) -> tuple[TelemetryConfig | None, str | None]:
    """The runner's telemetry settings in WorkItem (picklable) form."""
    if runner.telemetry_dir is None:
        return None, None
    return runner.telemetry_config, str(runner.telemetry_dir)
