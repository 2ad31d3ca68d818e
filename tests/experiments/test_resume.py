"""Re-running a sweep resumes it: the result cache is the only checkpoint.

A cache entry is written atomically, after the run's telemetry exports
(when enabled), so a rerun of the same sweep executes exactly the keys
that never finished; a killed writer leaves at worst a stray temp file,
never a torn entry.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import parallel
from repro.experiments.runner import ExperimentRunner, figure2_config
from repro.trace.workloads import build_pool

POOL_KW = dict(
    n_uops=2500, n_ilp=1, n_mem=1, n_mix=0, n_mixes_category=0,
    categories=("ISPEC00",),
)
POLICIES = ["icount", "cssp"]


@pytest.fixture(scope="module")
def pool():
    return build_pool(**POOL_KW)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    parallel.shutdown()


def test_resume_runs_only_missing(pool, tmp_path):
    """A partial run leaves a partial cache; a plain rerun executes the rest."""
    config = figure2_config(32)
    first = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path)
    first.run(config, "icount", pool.workloads[0])  # 1 of 4 done

    rerun = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path)
    rerun.sweep(config, POLICIES)
    assert rerun.sims_run == len(POLICIES) * len(pool.workloads) - 1
    assert rerun.cache_hits == 1


def test_rerun_regenerates_pruned_telemetry(pool, tmp_path):
    """With telemetry on, a cached record counts as complete only when its
    export is on disk too: a rerun re-simulates a key whose export was
    pruned, rewriting the export and an identical cache entry."""
    config = figure2_config(32)
    cache_dir, tel_dir = tmp_path / "cache", tmp_path / "telemetry"
    wl = pool.workloads[0]
    writer = ExperimentRunner(
        "smoke", pool=pool, cache_dir=cache_dir, telemetry_dir=tel_dir
    )
    writer.run(config, "icount", wl)
    key = writer.key_for(config, "icount", wl)
    entry = cache_dir / key.filename()
    before = entry.read_bytes()
    teldir = writer.telemetry_path(key)
    assert teldir is not None and teldir.is_dir()
    exported = sorted(p.name for p in teldir.iterdir())
    for f in teldir.iterdir():  # simulate lost/pruned telemetry exports
        f.unlink()

    rerun = ExperimentRunner(
        "smoke", pool=pool, cache_dir=cache_dir, telemetry_dir=tel_dir
    )
    assert rerun.completed_record(key) is None
    rerun.run(config, "icount", wl)
    assert rerun.sims_run == 1
    assert sorted(p.name for p in teldir.iterdir()) == exported
    assert entry.read_bytes() == before
    assert rerun.completed_record(key) is not None


def test_parallel_resume_matches_serial(pool, tmp_path):
    """Re-running on the worker pool completes the sweep bit-identically."""
    import dataclasses

    config = figure2_config(32)
    ref = ExperimentRunner("smoke", pool=pool)
    expected = ref.sweep(config, POLICIES)

    partial = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path)
    partial.run(config, POLICIES[0], pool.workloads[0])
    rerun = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path, jobs=2)
    got = rerun.sweep(config, POLICIES)
    assert rerun.sims_run == len(expected) - 1
    assert got.keys() == expected.keys()
    for key in expected:
        assert dataclasses.asdict(got[key]) == dataclasses.asdict(expected[key]), key


def test_pooled_sweep_counts_its_own_results_as_runs(pool, tmp_path):
    """A cold pooled sweep reads every merged result back to assemble
    its answer; those reads are not cache hits.  A warm rerun is all
    hits, each key counted once."""
    config = figure2_config(32)
    n = len(POLICIES) * len(pool.workloads)
    cold = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path, jobs=2)
    cold.sweep(config, POLICIES)
    assert (cold.sims_run, cold.cache_hits) == (n, 0)
    warm = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path, jobs=2)
    warm.sweep(config, POLICIES)
    assert (warm.sims_run, warm.cache_hits) == (0, n)


def test_sweep_leaves_only_cache_entries_and_trace(pool, tmp_path, monkeypatch):
    """A pooled sweep writes its cache entries and ``sweep_trace.jsonl``
    into ``cache_dir`` and persists nothing else anywhere — no journal,
    no cost-model calibration file."""
    from repro.core import ckernel

    # keep reusing the built kernel; only the rest of $HOME moves
    monkeypatch.setenv("REPRO_CKERNEL_CACHE", ckernel._cache_dir())
    home = tmp_path / "home"
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home / ".cache"))
    parallel.shutdown()  # workers fork with the redirected environment
    config = figure2_config(32)
    cache_dir = tmp_path / "cache"
    runner = ExperimentRunner("smoke", pool=pool, cache_dir=cache_dir, jobs=2)
    runner.sweep(config, POLICIES)
    parallel.shutdown()
    expected = {
        runner.key_for(config, p, wl).filename()
        for p in POLICIES
        for wl in pool.workloads
    }
    names = {p.name for p in cache_dir.iterdir()}
    assert names == expected | {"sweep_trace.jsonl"}
    assert not list(tmp_path.rglob("cost_model.json"))


# -- kill/resume smoke ------------------------------------------------------


def test_kill_and_resume_smoke(tmp_path):
    """SIGKILL a sweep mid-run; a plain rerun completes exactly the rest
    (scripts/resume_smoke.py, also exercised by CI)."""
    repo = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "resume_smoke.py"),
         "--cache-dir", str(tmp_path / "cache")],
        capture_output=True, text=True, timeout=300,
        env={**__import__("os").environ,
             "PYTHONPATH": str(repo / "src"),
             "REPRO_TRACE_CACHE": str(tmp_path / "traces")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["resumed_sims"] == summary["total"] - summary["cached_before"]
    assert summary["complete"] is True
