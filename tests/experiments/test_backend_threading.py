"""Backend selection threaded through the experiment layer.

The cycle engine is chosen once per :class:`ExperimentRunner` (argument >
``REPRO_BACKEND`` > default) and travels with every
:class:`~repro.experiments.parallel.WorkItem`, so a sweep's worker
processes always run the engine the parent resolved — and the cost model
and scheduling records know which engine produced each timing.  Because
backends are bit-identical by contract, cache identity (RunKey) does not
include the backend; the byte-diff test at the bottom pins that contract
at the sweep level, on the actual cache files a figure would consume.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.backends import DEFAULT_BACKEND
from repro.experiments import costmodel, parallel
from repro.experiments.runner import SCALES, ExperimentRunner, figure2_config
from repro.policies import POLICY_NAMES
from repro.trace.workloads import build_pool


def _mini_runner(tmp_path=None, backend=None, name="mini"):
    scale = dataclasses.replace(
        SCALES["smoke"], name=name, n_uops=1200, warmup_frac=0.2
    )
    pool = build_pool(
        n_uops=1200,
        n_ilp=1,
        n_mem=1,
        n_mix=0,
        n_mixes_category=0,
        categories=("DH", "server"),
    )
    return ExperimentRunner(
        scale, pool=pool, cache_dir=tmp_path, backend=backend
    )


# -- resolution -------------------------------------------------------------


def test_runner_resolves_backend_eagerly(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert _mini_runner().backend == DEFAULT_BACKEND
    assert _mini_runner(backend="reference").backend == "reference"
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    assert _mini_runner().backend == "reference"
    # explicit argument wins over the environment
    assert _mini_runner(backend="vectorized").backend == "vectorized"


def test_runner_rejects_unknown_backend_at_construction():
    with pytest.raises(ValueError, match="valid backends"):
        _mini_runner(backend="cython")


# -- work items -------------------------------------------------------------


def test_work_items_carry_the_runner_backend():
    runner = _mini_runner(backend="reference")
    config = figure2_config(32)
    items = parallel.sweep_items(runner, config, ["icount"], list(runner.pool))
    items += parallel.single_items(
        runner, config, [runner.pool.workloads[0].traces[0]]
    )
    assert items
    assert all(item.backend == "reference" for item in items)


# -- cost model -------------------------------------------------------------


def test_cost_model_buckets_split_by_backend():
    model = costmodel.CostModel()
    # prior: the vectorized engine is faster than the reference
    assert model.rate("icount", "mem", True, "vectorized") < model.rate(
        "icount", "mem", True, "reference"
    )
    # observations calibrate one engine's bucket without touching the other
    runner = _mini_runner(backend="vectorized")
    item = parallel.sweep_items(
        runner, figure2_config(32), ["icount"], list(runner.pool)
    )[0]
    ref_before = model.rate("icount", item.workload.wtype, True, "reference")
    vec_before = model.rate("icount", item.workload.wtype, True, "vectorized")
    for _ in range(8):
        model.observe(item, 123.0)
    assert model.rate("icount", item.workload.wtype, True, "vectorized") > (
        vec_before * 100
    )
    assert model.rate(
        "icount", item.workload.wtype, True, "reference"
    ) == pytest.approx(ref_before)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("no_kernel", [False, True], ids=["kernel", "no-kernel"])
def test_cost_model_prices_cloop_by_engine_that_runs(policy, no_kernel, monkeypatch):
    """Under ``cloop`` only the C-table policies run in C, and only when
    the kernel is available; the rest run on vectorized and are priced at
    its prior, not the kernel's."""
    from repro.core.ckernel import kernel_unavailable_reason
    from repro.core.cloop import in_c_table

    if no_kernel:
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    model = costmodel.CostModel()
    cloop = model.rate(policy, "mem", True, "cloop")
    vec = model.rate(policy, "mem", True, "vectorized")
    if in_c_table(policy) and kernel_unavailable_reason() is None:
        assert cloop < vec
    else:
        assert cloop == vec


# -- sweep-level bit-identity (the contract that keeps RunKey backend-free) --


@pytest.mark.slow
def test_sweep_cache_files_byte_identical_across_backends(tmp_path):
    ref_dir = tmp_path / "ref"
    vec_dir = tmp_path / "vec"
    config = figure2_config(32)
    for backend, cache_dir in (("reference", ref_dir), ("vectorized", vec_dir)):
        runner = _mini_runner(cache_dir, backend=backend)
        runner.sweep(config, ["icount", "flush+"], label=f"bd-{backend}")
        runner.run_singles(config, [w.traces[0] for w in runner.pool])
    ref_files = sorted(p.name for p in ref_dir.glob("*.json"))
    vec_files = sorted(p.name for p in vec_dir.glob("*.json"))
    assert ref_files == vec_files and ref_files
    for name in ref_files:
        assert (ref_dir / name).read_bytes() == (vec_dir / name).read_bytes(), name
