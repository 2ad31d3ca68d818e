"""Sweep execution engine: pool lifecycle, cost model, traces, progress.

``test_parallel.py`` pins the correctness contract (parallel == serial,
bit for bit); this file pins the *engine* around it — the persistent
executor, worker trace loading (trace cache, or re-synthesis when it is
disabled), the cost-model calibration that drives LPT dispatch, the
hit/ran/total progress reporting and the timing records every dispatcher
leaves in ``sweep_trace.jsonl``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.fabric as fabric
from repro.experiments import costmodel, parallel
from repro.experiments.parallel import TraceSpec, WorkItem, _Progress, resolve_jobs
from repro.experiments.runner import ExperimentRunner, RunKey, figure2_config
from repro.fabric.coordinator import FabricSettings
from repro.fabric.worker import Worker
from repro.service import BackgroundService, ServiceClient, ServiceSettings
from repro.trace import cache
from repro.trace.workloads import build_pool

POOL_KW = dict(
    n_uops=2500, n_ilp=1, n_mem=1, n_mix=0, n_mixes_category=0,
    categories=("ISPEC00",),
)


@pytest.fixture(scope="module")
def pool():
    return build_pool(**POOL_KW)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    parallel.shutdown()


# -- resolve_jobs hardening (REPRO_JOBS misconfiguration) -------------------


def test_resolve_jobs_rejects_malformed_env(monkeypatch):
    for bad in ("four", "3.5", "1e2", "2 workers"):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()


def test_resolve_jobs_clamps_nonpositive(monkeypatch):
    for low in ("0", "-2"):
        monkeypatch.setenv("REPRO_JOBS", low)
        assert resolve_jobs() == 1
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs(0) == 1
    assert resolve_jobs(-3) == 1


def test_resolve_jobs_rejects_malformed_argument(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    with pytest.raises(ValueError, match="jobs="):
        resolve_jobs("many")  # type: ignore[arg-type]


def test_resolve_jobs_whitespace_env_ignored(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "   ")
    assert resolve_jobs(None, default=1) == 1


# -- cost model -------------------------------------------------------------


def _item(pool, policy="icount", wl_idx=0, key_suffix=""):
    wl = pool.workloads[wl_idx]
    spec = parallel.WorkloadSpec.of(wl)
    assert spec is not None
    return WorkItem(
        key=RunKey("smoke", "cfg" + key_suffix, policy, wl.name, "first_done"),
        scale=None,  # never dispatched in these tests
        config=None,
        policy=policy,
        stop="first_done",
        workload=spec,
    )


def test_cost_model_prior_ordering(pool):
    model = costmodel.CostModel()
    # MEM-bound runs are slower than ILP; adaptive policies slower than
    # static ones; fast-forward discounts memory-stalled runs
    assert model.rate("icount", "mem", False) > model.rate("icount", "ilp", False)
    assert model.rate("cdprf", "ilp", False) > model.rate("icount", "ilp", False)
    assert model.rate("icount", "mem", True) < model.rate("icount", "mem", False)
    # estimates scale with trace size through item features
    mem_item = _item(pool, wl_idx=next(
        i for i, w in enumerate(pool.workloads) if w.wtype.value == "mem"
    ))
    ilp_item = _item(pool, wl_idx=next(
        i for i, w in enumerate(pool.workloads) if w.wtype.value == "ilp"
    ))
    assert model.estimate(mem_item) > model.estimate(ilp_item)


def test_cost_model_observe_calibrates(pool):
    model = costmodel.CostModel()
    item = _item(pool)
    prior = model.estimate(item)
    # feed consistent observations 3x the prior: EWMA should move the
    # estimate decisively toward the observed runtime
    for _ in range(8):
        model.observe(item, prior * 3)
    assert model.estimate(item) > prior * 2


# -- progress reporting -----------------------------------------------------


def test_progress_reports_hits_distinctly():
    prog = _Progress(to_run=3, hits=7, jobs=2, label="fig9 CDPRF")
    assert "10 sims" in prog.header()
    assert "7 cached" in prog.header()
    assert "3 to run" in prog.header()
    assert "fig9 CDPRF" in prog.header()
    key = RunKey("smoke", "cfg", "cdprf", "ISPEC00/mem.2.1", "first_done")
    prog.done = 2
    line = prog.line(key)
    assert "7 hit" in line and "2/3 ran" in line and "of 10" in line
    assert "cdprf/ISPEC00/mem.2.1" in line


# -- persistent executor ----------------------------------------------------


def test_executor_persists_across_sweeps(pool, tmp_path):
    """Two sweeps reuse one pool (warm workers), and the scheduling log
    records which worker ran each item."""
    parallel.shutdown()
    config = figure2_config(32)
    runner = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path, jobs=2)
    runner.sweep(config, ["icount"], label="first")
    first_exec = parallel._executor
    assert first_exec is not None
    runner.sweep(config, ["cssp"], label="second")
    assert parallel._executor is first_exec  # reused, not respawned

    assert len(runner.sweep_log) == 2 * len(pool.workloads)
    for rec in runner.sweep_log:
        assert rec["label"] in ("first", "second")
        assert rec["worker_pid"] > 0
        assert rec["elapsed_s"] > 0
        assert rec["predicted_s"] > 0
    # scheduling records are also persisted next to the cache
    trace_file = tmp_path / "sweep_trace.jsonl"
    lines = [json.loads(x) for x in trace_file.read_text().splitlines()]
    assert len(lines) == len(runner.sweep_log)


def test_executor_grows_on_demand(pool):
    parallel.shutdown()
    parallel._get_executor(1)
    assert parallel._executor_jobs == 1
    parallel._get_executor(3)
    assert parallel._executor_jobs == 3  # grew
    big = parallel._executor
    parallel._get_executor(2)
    assert parallel._executor is big  # smaller request reuses the big pool
    parallel.shutdown()
    assert parallel._executor is None


def test_fully_cached_sweep_skips_pool(pool, tmp_path):
    """A 100%-hit sweep never touches (or spawns) the executor."""
    config = figure2_config(32)
    warm = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path)
    warm.sweep(config, ["icount"])
    parallel.shutdown()
    cached = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path, jobs=4)
    cached.sweep(config, ["icount"])
    assert cached.sims_run == 0
    assert parallel._executor is None  # run_items returned before _get_executor


# -- worker trace loading ---------------------------------------------------


def test_worker_trace_is_a_trace_cache_hit(pool, monkeypatch):
    """A worker maps the trace-cache entry the parent wrote when it built
    its pool: one hit, no miss, no re-synthesis, the parent's records."""
    monkeypatch.setattr(parallel, "_worker_traces", {})
    tr = pool.workloads[0].traces[0]
    before = dict(cache.stats)
    got = parallel._worker_trace(TraceSpec.of(tr))
    assert cache.stats["hits"] == before["hits"] + 1
    assert cache.stats["misses"] == before["misses"]
    assert cache.stats["stores"] == before["stores"]
    assert np.array_equal(got.records, tr.records)


def test_sweep_without_trace_cache_matches_serial(pool, monkeypatch):
    """REPRO_TRACE_CACHE=0 exercises the workers' re-synthesize-from-seed
    path end to end (forked workers start with an empty trace memo)."""
    parallel.shutdown()
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    monkeypatch.setattr(parallel, "_worker_traces", {})
    config = figure2_config(32)
    serial = ExperimentRunner("smoke", pool=pool)
    par = ExperimentRunner("smoke", pool=pool, jobs=2)
    rs = serial.sweep(config, ["icount"])
    rp = par.sweep(config, ["icount"])
    assert rs.keys() == rp.keys()
    for key in rs:
        assert dataclasses.asdict(rs[key]) == dataclasses.asdict(rp[key]), key
    parallel.shutdown()


# -- one merge path: timing records of every dispatcher ---------------------

BASE_KEYS = {
    "label", "scale", "policy", "workload", "backend",
    "predicted_s", "elapsed_s", "wait_s", "worker_pid",
}


def _sweep_on(dispatcher: str, pool, cache_dir) -> ExperimentRunner:
    """Run a 2-policy ISPEC00 sweep on ``dispatcher``; return its runner."""
    policies = ["icount", "cssp"]
    if dispatcher == "local":
        runner = ExperimentRunner("smoke", pool=pool, cache_dir=cache_dir, jobs=2)
        runner.sweep(figure2_config(32), policies)
        return runner
    if dispatcher == "tcp":
        settings = FabricSettings(port=0)
        runner = ExperimentRunner(
            "smoke", pool=pool, cache_dir=cache_dir,
            executor="tcp", fabric=settings,
        )
        try:
            hub = fabric.get_hub(settings)
            for _ in range(2):
                worker = Worker("127.0.0.1", hub.port, heartbeat=0.1)
                threading.Thread(target=worker.run, daemon=True).start()
            runner.sweep(figure2_config(32), policies)
        finally:
            fabric.shutdown()
        return runner
    settings = ServiceSettings(
        port=0, cache_dir=cache_dir, slots=2, executor="thread",
        default_scale="smoke", rate=None,
    )
    with BackgroundService(settings) as bg:
        client = ServiceClient(port=bg.port)
        job = client.submit_sweep({
            "scale": "smoke", "policies": policies,
            "categories": ["ISPEC00"], "iq_entries": 32,
            "unbounded_regs": True, "unbounded_rob": True,
        })
        assert client.wait(job["id"], timeout=600)["state"] == "done"
        return bg.service._runners["smoke"]


@pytest.mark.parametrize("dispatcher", ["local", "tcp", "service"])
def test_sweep_trace_rows_share_base_keys(dispatcher, pool, tmp_path):
    """Local pool, tcp hub and service all land results through one merge:
    every sweep_trace.jsonl row has the same base keys (the hub adds its
    ``worker``/``executor``), and each row is one counted simulation."""
    runner = _sweep_on(dispatcher, pool, tmp_path)
    rows = [
        json.loads(line)
        for line in (tmp_path / "sweep_trace.jsonl").read_text().splitlines()
    ]
    extra = {"worker", "executor"} if dispatcher == "tcp" else set()
    assert rows
    for row in rows:
        assert set(row) == BASE_KEYS | extra, row
        assert row["wait_s"] >= 0
        assert isinstance(row["worker_pid"], int)
    assert runner.sims_run == len(rows)
    assert runner.sweep_log == rows


# -- interpreter-exit hygiene -----------------------------------------------


def test_clean_shutdown_at_interpreter_exit(tmp_path):
    """A process that sweeps on the pool and just exits leaks nothing:
    no shared-memory warnings, no orphan /dev/shm segments."""
    code = """
import repro.experiments.parallel as parallel
from repro.experiments.runner import ExperimentRunner, figure2_config
from repro.trace.workloads import build_pool

pool = build_pool(n_uops=2500, n_ilp=1, n_mem=1, n_mix=0,
                  n_mixes_category=0, categories=("ISPEC00",))
runner = ExperimentRunner("smoke", pool=pool, jobs=2)
runner.sweep(figure2_config(32), ["icount"])
print("RAN", runner.sims_run)
# no parallel.shutdown(): the atexit hook must handle teardown
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env["REPRO_TRACE_CACHE"] = str(tmp_path / "traces")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RAN 2" in proc.stdout
    assert "leaked" not in proc.stderr  # resource_tracker leak warnings
    assert "Traceback" not in proc.stderr
    shm_dir = Path("/dev/shm")
    if shm_dir.is_dir():
        assert not list(shm_dir.glob("repro_*"))
