"""Region API of the whole-loop compiled backend (``cloop``).

The C kernel runs *bounded regions* and re-enters Python only at
observable-event boundaries; :meth:`CloopProcessor.run_cycles` is the
public face of that contract.  These tests pin the contract itself —
typed exit reasons, exact cycle bounds, exit tallies, observable-state
export at every boundary, sticky mid-run fallback — independent of the
cross-backend identity suite (which pins *what* the regions compute).

Everything here must hold with and without the toolchain: the
``vectorized`` fallback implements the same region API through the
inherited engine, so each test also runs under ``REPRO_NO_CKERNEL``.
"""

from __future__ import annotations

import pytest

from repro.core.backends import make_processor
from repro.core import ckernel
from repro.core.cloop import (
    REGION_DONE,
    REGION_LIMIT,
    CloopProcessor,
    _CloopContext,
    in_c_table,
)
from repro.policies import POLICY_NAMES, make_policy


def _proc(config, traces, policy="icount", **kw):
    return make_processor("cloop", config, make_policy(policy), list(traces), **kw)


def _require_kernel():
    # only a missing toolchain (or the env override) skips: a kernel that
    # fails to build must fail the kernel leg, not hide behind the
    # bit-identical fallback
    reason = ckernel._toolchain_reason()
    if reason is not None:
        pytest.skip(f"C kernel unavailable: {reason}")


@pytest.fixture(params=["kernel", "fallback"])
def mode(request, monkeypatch):
    """Run each test twice: resident C kernel and pure fallback."""
    if request.param == "fallback":
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    else:
        _require_kernel()
    return request.param


def test_run_cycles_limit(config, ilp_trace, mem_trace, mode):
    """A bounded region advances exactly ``n`` cycles and reports it."""
    proc = _proc(config, [ilp_trace, mem_trace])
    reason = proc.run_cycles(50, use_ff=False)
    assert reason == REGION_LIMIT
    assert proc.cycle == 50
    assert proc.stats.cycles == 50
    assert proc.region_exits[REGION_LIMIT] == 1
    assert proc.region_exits[REGION_DONE] == 0


def test_run_cycles_done(config, ilp_trace, mem_trace, mode):
    """A generous region with a stop condition exits ``done`` early."""
    proc = _proc(config, [ilp_trace, mem_trace])
    reason = proc.run_cycles(200_000, stop="first_done")
    assert reason == REGION_DONE
    assert proc.cycle < 200_000
    assert proc.finished_count > 0
    assert proc.region_exits[REGION_DONE] == 1


def test_run_cycles_rejects_unknown_stop(config, ilp_trace, mem_trace, mode):
    proc = _proc(config, [ilp_trace, mem_trace])
    with pytest.raises(ValueError):
        proc.run_cycles(10, stop="until_bored")


def test_chunked_regions_identical_to_one_shot(config, ilp_trace, mem_trace, mode):
    """Driving the machine in many small regions is bit-identical to one
    big region — the export/resume boundary is lossless for every
    observable counter."""
    one = _proc(config, [ilp_trace, mem_trace])
    one.run_loop(60_000)
    chunked = _proc(config, [ilp_trace, mem_trace])
    while chunked.finished_count == 0 and chunked.cycle < 60_000:
        chunked.run_cycles(257, stop="first_done")
    assert chunked.finalize_stats().as_dict() == one.finalize_stats().as_dict()
    assert chunked.region_exits[REGION_DONE] == 1
    assert chunked.region_exits[REGION_LIMIT] > 1


def test_observable_state_exported_between_regions(config, ilp_trace, mem_trace,
                                                   mode):
    """Between regions, arbitrary Python may inspect the machine: the
    counters the figures read advance monotonically at each boundary."""
    proc = _proc(config, [ilp_trace, mem_trace])
    last_committed = -1
    for _ in range(4):
        proc.run_cycles(300)
        assert proc.stats.committed >= last_committed
        last_committed = proc.stats.committed
        assert proc.stats.cycles == proc.cycle
    assert last_committed > 0


def test_mid_run_fallback_is_sticky(config, ilp_trace, mem_trace, monkeypatch):
    """A machine that already ran on the pure engine must never adopt the
    C kernel mid-flight (one instance never mixes machine state)."""
    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    proc = _proc(config, [ilp_trace, mem_trace])
    proc.run_cycles(100)
    monkeypatch.delenv("REPRO_NO_CKERNEL")
    assert proc._ensure_ctx() is False  # sticky: mid-run state is Python's
    proc.run_cycles(100)
    assert proc.cycle == 200


def test_fallback_reports_reason(config, ilp_trace, mem_trace, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    proc = _proc(config, [ilp_trace, mem_trace])
    proc.run_cycles(10)
    assert proc._cl is None
    assert proc._cl_error is not None
    assert "REPRO_NO_CKERNEL" in proc._cl_error


def test_fallback_names_the_failed_envelope_condition(config, ilp_trace,
                                                     mem_trace):
    """A machine outside the C envelope says why, before it runs."""
    from repro.telemetry import Telemetry, TelemetryConfig

    proc = _proc(config, [ilp_trace, mem_trace], policy="cdprf")
    assert proc._cl_error == "policy cdprf is outside the C policy table"
    proc = _proc(
        config, [ilp_trace, mem_trace],
        telemetry=Telemetry(TelemetryConfig(sample_interval=64)),
    )
    assert proc._cl_error == "telemetry attached"
    assert proc.kernel_active() is False
    assert _proc(config, [ilp_trace, mem_trace])._cl_error is None


def test_non_c_policy_delegates(config, ilp_trace, mem_trace):
    """Policies outside the C table run on the inherited ``vectorized``
    engine; the region API still honours its contract there."""
    proc = _proc(config, [ilp_trace, mem_trace], policy="cdprf")
    assert isinstance(proc, CloopProcessor)
    assert not proc._cloop_ok
    reason = proc.run_cycles(64, use_ff=False)
    assert reason == REGION_LIMIT
    assert proc.cycle == 64
    assert proc._cl is None


def test_region_exit_tallies_accumulate(config, ilp_trace, mem_trace, mode):
    proc = _proc(config, [ilp_trace, mem_trace])
    for _ in range(3):
        proc.run_cycles(100)
    proc.run_cycles(500_000, stop="all_done")
    assert proc.region_exits[REGION_LIMIT] == 3
    assert proc.region_exits[REGION_DONE] == 1
    assert proc.region_exits["watchdog"] == 0


def test_kernel_active_reflects_mode(config, ilp_trace, mem_trace, mode):
    proc = _proc(config, [ilp_trace, mem_trace])
    active = proc.kernel_active()
    if mode == "kernel":
        assert active
        assert proc._cl is not None
    else:
        assert active is False
        assert proc._cl is None


#: the policies the C policy table implements
_C_TABLE = {"icount", "cisp", "cssp", "cspsp", "pc", "stall", "flush+"}


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_kernel_active_exactly_for_c_table(config, ilp_trace, mem_trace, mode,
                                           policy):
    """``kernel_active()`` attributes a simulation to C exactly when its
    policy is in the C policy table (and the kernel is available)."""
    proc = _proc(config, [ilp_trace, mem_trace], policy=policy)
    assert proc.kernel_active() is (mode == "kernel" and policy in _C_TABLE)
    assert in_c_table(policy) is (policy in _C_TABLE)


def test_failed_build_is_remembered(config, ilp_trace, mem_trace, monkeypatch):
    """A failed kernel build runs the compiler once per process: later
    machines fall back without retrying, and the availability notes name
    the reason."""
    from repro.core.backends import optional_backend_notes

    monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
    reason = ckernel._toolchain_reason()
    if reason is not None:
        pytest.skip(f"the probe never reaches the build: {reason}")
    monkeypatch.setattr(ckernel, "_loaded", None)
    monkeypatch.setattr(ckernel, "_load_failure", None)
    attempts = []

    def failing_build():
        attempts.append(1)
        raise RuntimeError("compiler exploded")

    monkeypatch.setattr(ckernel, "build_shared_lib", failing_build)
    for _ in range(3):
        proc = _proc(config, [ilp_trace, mem_trace])
        assert proc.kernel_active() is False
        assert "compiler exploded" in proc._cl_error
    assert attempts == [1]
    assert "compiler exploded" in ckernel.kernel_unavailable_reason()
    assert "compiler exploded" in optional_backend_notes()["cloop"]


def test_config_names_every_struct_field(config, ilp_trace, mem_trace, monkeypatch):
    """The Python config fills ``struct cloop_cfg`` by name, field for
    field; a missing or unknown field stops adoption with an error that
    names it (cffi alone would zero-fill the missing one)."""
    _require_kernel()
    _, ffi = ckernel.load_shared_lib()
    fields = {name for name, _ in ffi.typeof("struct cloop_cfg").fields}
    proc = _proc(config, [ilp_trace, mem_trace])
    assert set(_CloopContext._config(proc)) == fields

    build = _CloopContext._config

    def skewed(proc):
        cfg = build(proc)
        del cfg["l2_lat"]
        cfg["l3_lat"] = 40
        return cfg

    monkeypatch.setattr(_CloopContext, "_config", staticmethod(skewed))
    proc = _proc(config, [ilp_trace, mem_trace])
    assert proc.kernel_active() is False
    assert "missing ['l2_lat']" in proc._cl_error
    assert "unknown ['l3_lat']" in proc._cl_error


def test_kernel_tag_covers_source_and_header(tmp_path):
    """Editing either kernel file changes the build tag, so a library
    built against an older header is never loaded."""
    src = tmp_path / "cloop.c"
    hdr = tmp_path / "cloop.h"
    src.write_bytes(ckernel.KERNEL_SOURCE.read_bytes())
    hdr.write_bytes(ckernel.KERNEL_SOURCE.with_suffix(".h").read_bytes())
    tag = ckernel.kernel_tag(src)
    assert tag == ckernel.kernel_tag(ckernel.KERNEL_SOURCE)
    hdr.write_text(hdr.read_text() + "/* edited */\n")
    header_tag = ckernel.kernel_tag(src)
    assert header_tag != tag
    src.write_text(src.read_text() + "/* edited */\n")
    assert ckernel.kernel_tag(src) not in (tag, header_tag)


# -- the L2-miss-reaction axis (Stall, Flush+) in the kernel ------------ #


def _measured(backend, config, policy, traces, use_ff=True):
    """The identity suite's run (prewarm, 300-uop warmup, measured
    region to the first finished thread), returning the machine."""
    proc = make_processor(backend, config, make_policy(policy), list(traces))
    proc.prewarm_caches()
    proc.run_loop(60_000, use_ff=use_ff, commit_target=300)
    proc.reset_measurement()
    proc.run_loop(60_000, use_ff=use_ff)
    return proc


def _observables(proc):
    s = proc.finalize_stats()
    return (
        s.as_dict(),
        s.stalled_thread_cycles,
        [(t.gated, t.flushed, t.l2_pending) for t in proc.threads],
    )


@pytest.mark.parametrize(
    "policy, counter", [("stall", "stalled_thread_cycles"), ("flush+", "flushes")]
)
def test_identity_fixtures_reach_the_miss_reaction_paths(
    config, ilp_trace, mem_trace, policy, counter
):
    """The identity suite's machines really gate (Stall) and flush
    (Flush+) inside the kernel, so its bit-identity gate compares live
    counters, not zeros; the gate count, which the stats dict omits, is
    compared here."""
    _require_kernel()
    traces = [ilp_trace, mem_trace]
    for use_ff in (False, True):
        got = _measured("cloop", config, policy, traces, use_ff)
        assert got.kernel_active()
        assert getattr(got.stats, counter) > 0
        want = _measured("vectorized", config, policy, traces, use_ff)
        assert _observables(got) == _observables(want)


def test_flushplus_earliest_misser_continues(config, mem_trace, mem_trace_b,
                                             monkeypatch):
    """Two memory-bound threads miss together: Flush+ lets the earliest
    misser continue and flushes the other, identically in the kernel."""
    from repro.policies.flushplus import FlushPlusPolicy

    _require_kernel()
    traces = [mem_trace, mem_trace_b]
    got = _measured("cloop", config, "flush+", traces)
    assert got.kernel_active()

    # count the multi-misser branch on the Python engine (patching the
    # class keeps the exact type, so this is the same C-table policy)
    arbitrations = []
    miss = FlushPlusPolicy.on_l2_miss

    def counting(self, uop):
        if sum(t.l2_pending > 0 for t in self.proc.threads) > 1:
            arbitrations.append(uop.tid)
        miss(self, uop)

    monkeypatch.setattr(FlushPlusPolicy, "on_l2_miss", counting)
    want = _measured("vectorized", config, "flush+", traces)
    assert arbitrations
    assert got.stats.flushes > 0
    assert _observables(got) == _observables(want)


def _drive(proc, how, limit, use_ff):
    if how == "run_loop":
        proc.run_loop(limit, stop="cycles", use_ff=use_ff)
    elif how == "step":
        while proc.cycle < limit:
            if use_ff:
                proc.step_fast(limit)
            else:
                proc.step()
    else:
        while proc.cycle < limit:
            proc.run_cycles(min(how, limit - proc.cycle), use_ff=use_ff)


@pytest.mark.parametrize("use_ff", [False, True], ids=["step", "ff"])
@pytest.mark.parametrize("policy", ["stall", "flush+"])
def test_miss_reaction_regions_identical_to_one_shot(
    config, mem_trace, mem_trace_b, mode, policy, use_ff
):
    """Regions of 1, 7 and 64 cycles and single steps export and resume
    the gate/flush state losslessly: every observable equals one
    ``run_loop`` over the same cycles."""
    limit = 4_000
    one = _proc(config, [mem_trace, mem_trace_b], policy=policy)
    _drive(one, "run_loop", limit, use_ff)
    want = _observables(one)
    assert want[0]["flushes"] > 0 or want[1] > 0
    for how in (1, 7, 64, "step"):
        proc = _proc(config, [mem_trace, mem_trace_b], policy=policy)
        _drive(proc, how, limit, use_ff)
        assert proc.cycle == limit
        assert _observables(proc) == want, how

