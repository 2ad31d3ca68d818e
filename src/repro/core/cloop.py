"""Whole-loop compiled cycle engine (the ``cloop`` backend, the default).

A *per-phase* C kernel breaks even: the per-cycle FFI call costs what
the scan it replaces costs.  This backend moves the **entire cycle
loop** across the C boundary so the call cost amortizes over thousands
of cycles: fetch, rename, issue, writeback, commit, copy generation, the
inter-cluster interconnect queues, the event wheel and the Tier-A/Tier-B
fast-forward jump all execute in one resident C kernel, and Python is
re-entered only at *observable-event boundaries* — region exit (limit /
stop condition), the deadlock watchdog, and any configuration the C
policy table cannot express.

The kernel is the C file ``cloop.c`` beside this module.  ``cloop.h``
declares its interface once, for the compiler and for cffi alike:
``struct cloop_cfg`` (filled by field name from :meth:`_CloopContext._config`),
the ``cloop_out``/``cloop_thread_out`` export structs, the exit and
error codes, and the ``cloop_*`` functions.  This module is the Python
side of that seam.

Identity is by construction, the same way every other backend earns it:
the C kernel is an operation-for-operation transcription of the
vectorized loop (:mod:`repro.core.vectorized`), which transcribes the
reference interpreter, over a slot-pool representation of in-flight
uops.  The transcription preserves

* the exact phase order (commit, writeback, fills, copy delivery,
  issue, imbalance probe, rename, fetch, watchdog, jump) and every
  intra-phase visitation order;
* the lazy-deletion discipline on packed ``(age << SLOT_BITS) | slot``
  keys — ages are globally unique, so any correct binary min-heap pops
  the same key sequence as CPython's ``heapq``;
* the memory-system transcriptions (list-LRU caches, bus arbitration,
  fill coalescing, gshare/indirect predictors) down to counter order;
* every stats/epoch/memo update, including the rename-stall memo and
  the Tier-B replay bookkeeping the fast-forward jump depends on.

The *C policy table* (:data:`_C_POLICY_AXES`) covers every scheme of
the paper's Figures 2–5: Icount, Stall, Flush+ and the static IQ
partitions (CISP, CSSP, CSPSP, PC).  Each is a point on two axes that
the kernel implements, ``cloop_cfg.iq_scheme`` (none, CISP, CSSP,
CSPSP, PC: the transcribed ``may_dispatch_group``) and
``cloop_cfg.miss_reaction`` (none, Stall, Flush+: the transcribed
``on_l2_miss``/``on_l2_fill``/``on_cycle``/``ff_cycles`` hooks and
``flush_thread``).  These policies never cross the FFI boundary
mid-region, and their rename selection is the inlined ICOUNT scan.
Everything else — telemetry runs, the RF schemes and adaptive
policies, steering ablations — runs on the inherited ``vectorized``
engine, so one instance never mixes C-resident and Python-resident
machine state; ``CloopProcessor._cl_error`` names the reason.

Region API: :meth:`CloopProcessor.run_cycles` runs a bounded region and
returns a typed exit reason (``"limit"`` or ``"done"``); exit counts are
tallied in :attr:`CloopProcessor.region_exits`.  The kernel is a soft
dependency: ``cloop.c`` is compiled on demand into a content-hashed
persistent cache and loaded with cffi (:mod:`repro.core.ckernel`), and
``REPRO_NO_CKERNEL`` / no cffi / no C compiler / a failed build runs
``vectorized`` instead, bit-identical, with the reason surfaced by
:func:`repro.core.ckernel.kernel_unavailable_reason`.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.ckernel import kernel_unavailable_reason, load_shared_lib
from repro.core.processor import _WATCHDOG_CYCLES, DeadlockError
from repro.core.soa import SLOT_BITS, kernel_columns
from repro.core.vectorized import _BRANCH, _COPY, _LOAD, _STORE, VectorizedProcessor
from repro.isa import NUM_ARCH_INT, NUM_ARCH_REGS
from repro.isa.uops import PORT_CLASS_TABLE
from repro.policies import make_policy
from repro.policies.flushplus import FlushPlusPolicy
from repro.policies.icount import IcountPolicy
from repro.policies.stall import StallPolicy
from repro.policies.static_partition import (
    CISPPolicy,
    CSPSPPolicy,
    CSSPPolicy,
    PrivateClustersPolicy,
)

#: region exit reasons returned by :meth:`CloopProcessor.run_cycles`
REGION_LIMIT = "limit"
REGION_DONE = "done"

#: the C policy table: policy class -> (IQ scheme, L2-miss reaction),
#: the suffixes of ``enum cloop_iq_scheme`` / ``enum cloop_miss_reaction``
#: in cloop.h.  Exact type match: a subclass may override admission or a
#: hook and must take the delegation path.
_C_POLICY_AXES = {
    IcountPolicy: ("NONE", "NONE"),
    CISPPolicy: ("CISP", "NONE"),
    CSSPPolicy: ("CSSP", "NONE"),
    CSPSPPolicy: ("CSPSP", "NONE"),
    PrivateClustersPolicy: ("PC", "NONE"),
    StallPolicy: ("NONE", "STALL"),
    FlushPlusPolicy: ("NONE", "FLUSHPLUS"),
}


@lru_cache(maxsize=None)
def in_c_table(policy: str) -> bool:
    """Whether the named policy runs in the C policy table.

    Under ``cloop`` every other policy runs on ``vectorized``; the sweep
    cost model prices it accordingly.
    """
    try:
        return type(make_policy(policy)) in _C_POLICY_AXES
    except KeyError:
        return False


_STOP_CODES = {"first_done": 0, "all_done": 1, "cycles": 2}

#: rename-stall causes, in the kernel's integer encoding
_CAUSES = ("iq", "rf_int", "rf_fp", "rob", "mob")


class _CloopContext:
    """Owns one resident C machine and the marshal layer around it.

    Created only on a *fresh* processor (cycle 0, zero stats, post
    cache-prewarm), so construction seeds the kernel from Python state
    — trace columns, warm cache contents, predictor tables — and from
    then on the C side owns every piece of machine state.  ``export``
    copies the observable counters back into the Python objects at each
    region boundary; unobservable internals (heaps, fetch queues, ROB
    contents, rename tables, cache contents) stay C-resident, which is
    exactly the region contract documented on :class:`CloopProcessor`.
    """

    @staticmethod
    def _pool_capacity(proc) -> int:
        """Initial slot-pool size: an upper bound on simultaneously live
        uops.

        Fetch queues + ROB partitions bound the non-copy uops; issue
        queues plus total register capacity bound the copies (an
        undelivered copy always holds a replica register).  Unbounded
        ROB/register configs start from their initial capacity and the
        kernel doubles the pool when it runs out.
        """
        cap = 64
        fq_cap = proc._fetch_queue_entries
        for t in proc.threads:
            cap += fq_cap + t.rob.capacity
        for cl in proc.clusters:
            cap += cl.iq.capacity
            for f in cl.regs.files:
                cap += f.capacity
        return cap

    @staticmethod
    def _lru_stores(proc) -> tuple:
        """The LRU arrays in the kernel's order (``cloop_out.lru``)."""
        mem, tc = proc.mem, proc.tc
        return (mem.l1, mem.l2, mem.dtlb._store, tc._itlb._store, tc._lines)

    @staticmethod
    def _config(proc) -> dict:
        """The machine configuration, keyed by ``struct cloop_cfg`` field."""
        lib, _ = load_shared_lib()
        iq_scheme, miss_reaction = _C_POLICY_AXES[type(proc.policy)]
        mem = proc.mem
        tc = proc.tc
        return {
            "n_threads": proc._n_threads,
            "fetch_width": proc._fetch_width,
            "rename_width": proc._rename_width,
            "commit_width": proc._commit_width,
            "fq_cap": proc._fetch_queue_entries,
            "misp_pipe": proc._mispredict_pipeline,
            "mrom_lat": proc._mrom_latency,
            "model_wp": int(proc.config.model_wrong_path),
            "iq_cap": [cl.iq.capacity for cl in proc.clusters],
            "max_scan": list(proc._max_scan),
            "rob_cap": proc.threads[0].rob.capacity,
            "rob_unbounded": int(proc.threads[0].rob.unbounded),
            "mob_cap": proc.mob.capacity,
            "icn_links": proc.icn.num_links,
            "icn_lat": proc.icn.latency,
            "num_int": NUM_ARCH_INT,
            "num_arch": NUM_ARCH_REGS,
            "imb_threshold": proc.steering.imbalance_threshold,
            "iq_scheme": getattr(lib, "CLOOP_IQ_" + iq_scheme),
            "miss_reaction": getattr(lib, "CLOOP_MISS_" + miss_reaction),
            "dispatch_trivial": int(proc._dispatch_trivial),
            "memo_on": int(proc._memo_on),
            "forced_mode": int(proc._forced_cluster is not None),
            "slot_bits": SLOT_BITS,
            "watchdog": _WATCHDOG_CYCLES,
            "latency": list(proc._latency),
            "copy_pcls": PORT_CLASS_TABLE[_COPY],
            "OP_LOAD": _LOAD,
            "OP_STORE": _STORE,
            "OP_BRANCH": _BRANCH,
            "OP_COPY": _COPY,
            "l1_sets": mem.l1.num_sets,
            "l1_ways": mem.l1.assoc,
            "l1_lat": mem.config.l1.hit_latency,
            "l2_sets": mem.l2.num_sets,
            "l2_ways": mem.l2.assoc,
            "l2_lat": mem.config.l2.hit_latency,
            "mem_lat": mem.config.memory_latency,
            "dtlb_sets": mem.dtlb._store.num_sets,
            "dtlb_ways": mem.dtlb._store.assoc,
            "d_lpp": mem.dtlb._lines_per_page,
            "d_miss": mem.dtlb.miss_latency,
            "nbuses": len(mem._bus_free),
            "itlb_sets": tc._itlb._store.num_sets,
            "itlb_ways": tc._itlb._store.assoc,
            "i_lpp": tc._itlb._lines_per_page,
            "i_miss": tc._itlb.miss_latency,
            "tc_sets": tc._lines.num_sets,
            "tc_ways": tc._lines.assoc,
            "tc_line_uops": tc.line_uops,
            "tc_fill_lat": tc.fill_latency,
            "bp_entries": proc.predictor.size,
            "bp_hist_bits": proc.predictor._hist_bits,
            "ip_entries": proc.ipredictor.size,
            "rf_cap": [[f.capacity for f in cl.regs.files] for cl in proc.clusters],
            "rf_unbounded": int(proc.clusters[0].regs.files[0].unbounded),
            "pool_cap": _CloopContext._pool_capacity(proc),
            "policy_rr_start": proc.policy._rr,
        }

    def __init__(self, proc) -> None:
        lib, ffi = load_shared_lib()
        self._lib = lib
        self._ffi = ffi
        #: the last export; ``out.err``/``out.erra`` name a kernel error
        self.out = ffi.new("struct cloop_out *")
        self._threads = ffi.new("struct cloop_thread_out[]", proc._n_threads)
        #: (fq_len, inflight_len, rob_len) per thread from the last
        #: export — feeds the deadlock report, mirroring the Python
        #: engines' ``repr(thread)`` dump
        self.last_queues: list[tuple[int, int, int]] = []

        # cffi zero-fills a field the dict lacks, so check the names
        cfg = self._config(proc)
        fields = {name for name, _ in ffi.typeof("struct cloop_cfg").fields}
        if cfg.keys() != fields:
            raise ValueError(
                f"struct cloop_cfg mismatch: missing {sorted(fields - cfg.keys())}, "
                f"unknown {sorted(cfg.keys() - fields)}"
            )
        cfg_struct = ffi.new("struct cloop_cfg *", cfg)
        self.c = ffi.gc(lib.cloop_new(cfg_struct), lib.cloop_free)

        # static trace columns, zero-copy: each row of the contiguous
        # int64 block is one column, which the kernel memcpy's (so no
        # keepalive)
        for tid, t in enumerate(proc.threads):
            cols = kernel_columns(t.trace, t.mem_offset, proc._latency)
            lib.cloop_set_trace(
                self.c,
                tid,
                t.n_records,
                *[ffi.from_buffer("long long[]", col) for col in cols],
            )

        # warm state: cache contents (L2 prewarm!), predictor tables
        for which, store in enumerate(self._lru_stores(proc)):
            self._seed_lru(which, store)
        pred = proc.predictor
        lib.cloop_seed_pred(
            self.c,
            ffi.new("unsigned char[]", bytes(pred._table)),
            pred.size,
            ffi.new("long long[]", [int(h) for h in pred._history]),
            proc._n_threads,
        )
        ip = proc.ipredictor
        lib.cloop_seed_ipred(
            self.c,
            ffi.new("long long[]", [int(t) for t in ip._targets]),
            ip.size,
        )

    def _seed_lru(self, which: int, store) -> None:
        nsets, assoc = store.num_sets, store.assoc
        cnt = [len(s) for s in store._sets]
        keys = [0] * (nsets * assoc)
        for si, s in enumerate(store._sets):
            base = si * assoc
            for j, line in enumerate(s):
                keys[base + j] = int(line)
        ffi = self._ffi
        self._lib.cloop_seed_cache(
            self.c,
            which,
            ffi.new("long long[]", cnt),
            ffi.new("long long[]", keys),
        )

    # -- region execution ---------------------------------------------- #

    def run(self, limit, stop_code, commit_target, use_ff, single) -> int:
        return self._lib.cloop_run(
            self.c,
            int(limit),
            int(stop_code),
            -1 if commit_target is None else int(commit_target),
            1 if use_ff else 0,
            1 if single else 0,
        )

    def reset_stats(self) -> None:
        self._lib.cloop_reset_stats(self.c)

    def export(self, proc) -> None:
        """Copy every observable counter back into the Python objects.

        The per-thread queue lengths land in :attr:`last_queues` for
        deadlock reports.
        """
        o = self.out
        self._lib.cloop_export(self.c, o, self._threads)
        proc.cycle = o.cycle
        proc._age = o.age
        proc._commit_rr = o.commit_rr
        proc._last_commit_cycle = o.last_commit
        proc._epoch = o.epoch
        proc.finished_count = o.finished_count
        proc.policy._rr = o.policy_rr
        proc.ff_jumps = o.ff_jumps
        proc.ff_skipped_cycles = o.ff_skipped
        proc._rename_attempted = bool(o.rename_attempted)
        proc._fresh_cycle = o.fresh_cycle
        proc._replay_cycle = o.replay_cycle
        proc._sum_cycle = -1  # any cached idle-sum predates the region

        s, st = proc.stats, o.stats
        s.cycles = st.cycles
        s.committed = st.committed
        s.renamed = st.renamed
        s.fetched = st.fetched
        s.issued = st.issued
        s.copies_renamed = st.copies_renamed
        s.copies_arrived = st.copies_arrived
        s.iq_stalls = st.iq_stalls
        s.iq_block_stalls = st.iq_block_stalls
        for name, v in zip(_CAUSES, st.rename_stall):
            s.rename_stall_cycles[name] = v
        s.reg_stall_events[0], s.reg_stall_events[1] = st.reg_stall_events
        s.mispredicts = st.mispredicts
        s.squashed_uops = st.squashed
        s.wrong_path_fetched = st.wp_fetched
        s.wrong_path_renamed = st.wp_renamed
        for pcls in range(3):
            s.imbalance[pcls][0], s.imbalance[pcls][1] = st.imbalance[pcls]
        s.imbalance_cycles = st.imbalance_cycles
        s.issue_cycles = st.issue_cycles
        s.flushes = st.flushes
        s.stalled_thread_cycles = st.stalled_thread_cycles

        for store, lru in zip(self._lru_stores(proc), o.lru):
            store.hits, store.misses = lru.hits, lru.misses
            store.evictions = lru.evictions
        mem, tc = proc.mem, proc.tc
        tc.hits, tc.misses = o.tc_hits, o.tc_misses
        mem.bus_wait_cycles, mem.coalesced_misses = o.bus_wait, o.coalesced
        proc.predictor.lookups, proc.predictor.correct = o.bp_lookups, o.bp_correct
        proc.ipredictor.lookups, proc.ipredictor.correct = o.ip_lookups, o.ip_correct
        proc.icn.transfers, proc.icn.queue_wait_cycles = o.icn_transfers, o.icn_qwait
        mob = proc.mob
        mob.occupancy, mob.peak, mob.forwards = o.mob_occ, o.mob_peak, o.mob_forwards
        for ci, cl in enumerate(proc.clusters):
            cl.iq.occupancy, cl.iq.peak = o.iq_occ[ci], o.iq_peak[ci]
            for f, r in zip(cl.regs.files, o.rf[ci]):
                f.in_use, f.peak_in_use = r.in_use, r.peak
                f.alloc_count, f.capacity = r.alloc_count, r.cap

        self.last_queues = []
        iq0, iq1 = (cl.iq.per_thread for cl in proc.clusters)
        for ti, (t, th) in enumerate(zip(proc.threads, self._threads)):
            s.committed_per_thread[ti] = th.committed_stat
            t.committed = th.committed
            t.cursor = th.cursor
            t.fetched_right_path = th.fetched_right_path
            t.icount = th.icount
            t.l2_pending = th.l2_pending
            t.first_l2_miss_cycle = th.first_l2_miss
            t.fetch_blocked_until = th.fetch_blocked_until
            t.rename_blocked_until = th.rename_blocked_until
            t.wrong_path = bool(th.wrong_path)
            t.gated = bool(th.gated)
            t.flushed = bool(th.flushed)
            t.rob.peak = th.rob_peak
            iq0[ti], iq1[ti] = th.iq
            mob.per_thread[ti] = th.mob
            self.last_queues.append((th.fq_len, th.inflight_len, th.rob_len))


class CloopProcessor(VectorizedProcessor):
    """The whole-cycle-loop compiled backend (``cloop``).

    Inside the C envelope — no telemetry, an exactly-matched C-table
    policy, inlinable or forced steering, the inlined ICOUNT rename scan
    and two clusters — the entire simulation runs as
    bounded regions inside one resident kernel, and Python re-enters
    only at region boundaries.  Outside the envelope, or without the
    kernel, every entry point runs the inherited ``vectorized`` engine,
    so ablation subclasses, telemetry runs and adaptive policies remain
    bit-identical through the proven engine.

    Mid-run fallback is sticky by construction: the C context can only
    be adopted on a completely fresh machine (cycle 0, zero stats), so
    an instance that ever starts in Python finishes in Python — one
    instance never mixes C-resident and Python-resident machine state.
    """

    backend_name = "cloop"

    def __init__(self, config, policy, traces, steering=None, telemetry=None):
        super().__init__(
            config, policy, traces, steering=steering, telemetry=telemetry
        )
        #: why this machine runs on ``vectorized`` (None while C may own it)
        self._cl_error: str | None = self._envelope_miss()
        self._cloop_ok = self._cl_error is None
        self._cl = None
        self._cl_failed = False
        #: region exit tallies: {"limit": n, "done": n, "watchdog": n}
        self.region_exits = {REGION_LIMIT: 0, REGION_DONE: 0, "watchdog": 0}

    def _envelope_miss(self) -> str | None:
        """The first C-envelope condition this machine fails, or None."""
        if self.tel is not None:
            return "telemetry attached"
        if type(self.policy) not in _C_POLICY_AXES:
            return f"policy {self.policy.name} is outside the C policy table"
        if not (self._steer_inline or self._forced_cluster is not None):
            return "steering is neither inlinable nor forced"
        if not self._icount_select:
            return "rename selection is not the inlined ICOUNT scan"
        if len(self.clusters) != 2:
            return f"{len(self.clusters)} clusters (the kernel models 2)"
        return None

    # -- kernel lifecycle ---------------------------------------------- #

    def _ensure_ctx(self) -> bool:
        """Adopt (or reuse) the resident C machine; False = fall back."""
        if self._cl is not None:
            return True
        if self._cl_failed:
            return False
        reason = kernel_unavailable_reason()
        if reason is not None:
            self._cl_failed = True
            self._cl_error = reason
            return False
        if self.cycle != 0 or self.stats.cycles != 0:
            # the machine already ran in Python; importing that state
            # mid-flight is not supported — stay on vectorized
            self._cl_failed = True
            self._cl_error = "machine already running on the pure engine"
            return False
        try:
            self._cl = _CloopContext(self)
        except Exception as exc:  # soft dependency: never fail the run
            self._cl_failed = True
            self._cl_error = str(exc)
            return False
        return True

    def kernel_active(self) -> bool:
        """True when the C kernel owns this machine."""
        return self._cloop_ok and self._ensure_ctx()

    # -- entry points (the backend seam) -------------------------------- #

    def run_loop(self, limit, stop="first_done", use_ff=True, commit_target=None):
        if not self.kernel_active():
            return super().run_loop(
                limit, stop=stop, use_ff=use_ff, commit_target=commit_target
            )
        self._region(limit, _STOP_CODES[stop], use_ff, commit_target, False)

    def step(self) -> None:
        if not self.kernel_active():
            return super().step()
        self._region(self.cycle + 1, _STOP_CODES["cycles"], False, None, True)

    def step_fast(self, limit: int) -> None:
        if not self.kernel_active():
            return super().step_fast(limit)
        self._region(limit, _STOP_CODES["cycles"], True, None, True)

    def reset_measurement(self) -> None:
        if self._cl is not None:
            self._cl.reset_stats()
        super().reset_measurement()

    # -- bounded-region API --------------------------------------------- #

    def run_cycles(self, n: int, stop: str = "cycles", use_ff: bool = True) -> str:
        """Run a bounded region of at most ``n`` cycles.

        Returns the typed exit reason: :data:`REGION_DONE` when the
        ``stop`` condition (``"first_done"``/``"all_done"``) fired, else
        :data:`REGION_LIMIT`.  This is the boundary non-C policies and
        telemetry drivers use: observable state is fully exported at
        return, so arbitrary Python may inspect the machine between
        regions.  Works identically (reason included) on the
        ``vectorized`` fallback.
        """
        if stop not in _STOP_CODES:
            raise ValueError(f"unknown stop mode {stop!r}")
        limit = self.cycle + n
        if self.kernel_active():
            return self._region(limit, _STOP_CODES[stop], use_ff, None, False)
        super().run_loop(limit, stop=stop, use_ff=use_ff)
        done = (stop == "first_done" and self.finished_count > 0) or (
            stop == "all_done" and self.finished_count >= self._n_threads
        )
        reason = REGION_DONE if done else REGION_LIMIT
        self.region_exits[reason] += 1
        return reason

    # -- region driver --------------------------------------------------- #

    def _region(self, limit, stop_code, use_ff, commit_target, single) -> str:
        cl = self._cl
        lib = cl._lib
        rc = cl.run(limit, stop_code, commit_target, use_ff, single)
        cl.export(self)  # always: errors must leave observable state, too
        if rc == lib.CLOOP_WATCHDOG:
            self.region_exits["watchdog"] += 1
            parts = []
            for t, (fq_len, infl_len, rob_len) in zip(
                self.threads, cl.last_queues
            ):
                parts.append(
                    f"<T{t.tid} cur={t.cursor}/{len(t.trace)} "
                    f"fq={fq_len} ic={t.icount} rob={rob_len} "
                    f"com={t.committed}>"
                )
            raise DeadlockError(
                f"no commit for {_WATCHDOG_CYCLES} cycles at cycle "
                f"{self.cycle}: " + "; ".join(parts)
            )
        if rc == lib.CLOOP_POOL_FULL:
            raise RuntimeError(
                f"slot pool cannot grow past {1 << SLOT_BITS} slots "
                "(SLOT_BITS key packing limit)"
            )
        if rc == lib.CLOOP_ERROR:
            err, erra = cl.out.err, cl.out.erra
            if err == lib.CLOOP_ERR_IQ_OVERFLOW:
                raise RuntimeError(f"issue queue {erra} overflow")
            if err == lib.CLOOP_ERR_LIVE_WAITERS:
                raise RuntimeError(
                    f"freeing phys reg {erra} with live waiters"
                )
            if err == lib.CLOOP_ERR_MOB_UNDERFLOW:
                raise RuntimeError("MOB occupancy underflow")
            if err == lib.CLOOP_ERR_RF_EXHAUSTED:
                raise RuntimeError("register file exhausted mid-rename")
            if err == lib.CLOOP_ERR_RIGHT_PATH_SQUASH:
                raise AssertionError(
                    "right-path uops squashed by a branch resolution"
                )
            raise RuntimeError(f"cloop kernel error {err} (arg {erra})")
        reason = REGION_DONE if rc == lib.CLOOP_DONE else REGION_LIMIT
        self.region_exits[reason] += 1
        return reason
