"""One child process of the benchmark.

``run.py`` starts a fresh process per step, so every timed pass begins from
the same state: no result memoized in a worker, a fresh process pool and a
cost model starting from its priors (persistence is off).  Usage::

    python3 perfbench/child.py <mode> --workload W --state DIR [options]

Modes: ``setup`` (one set-up, then exit), ``pass`` (one timed pass),
``traced`` (the per-layer run) and ``reference`` (record reference digests
with the ``reference`` engine).  The last line on stdout is one JSON
document.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

from common import (
    BACKEND,
    IQ_FIGURES,
    REFERENCE_FILE,
    SCALE,
    SERVICE_CATEGORIES,
    SERVICE_IQ,
    SERVICE_POLICIES,
    digest,
    iq_items,
    load_pool,
    load_reference,
    service_items,
    service_record_id,
    service_spec,
)
from spans import NoSpans, Spans, percentile

from repro.core.backends import optional_backend_notes, processor_class
from repro.core.simulator import SimResult, fast_forward_default
from repro.experiments import parallel
from repro.experiments.runner import ExperimentRunner, RunRecord, figure2_config
from repro.policies.registry import make_policy
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import BackgroundService, ServiceSettings
from repro.service.spec import JobSpec

#: Repeated jobs per service client and pass (of 44 fresh ones).
SERVICE_REPEATS = 11
TERMINAL = ("done", "failed", "cancelled")


class Outcome:
    """Operations attempted and failed in one child, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.errors.append(what)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors[:20]}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def runner_for(pool, cache_dir=None, jobs=1) -> ExperimentRunner:
    return ExperimentRunner(SCALE, cache_dir=cache_dir, pool=pool, jobs=jobs,
                            backend=BACKEND)


# --------------------------------------------------------------------------- #
# Set-up                                                                      #
# --------------------------------------------------------------------------- #

def kernel_note() -> str | None:
    """Why the C kernel cannot run here (None when it is available)."""
    return optional_backend_notes().get(BACKEND)


def build_kernel(pool) -> bool:
    """Build (or load) the C kernel by adopting one machine."""
    cls = processor_class(BACKEND)
    proc = cls(figure2_config(32), make_policy("icount"),
               list(pool.workloads[0].traces))
    return proc.kernel_active()


def setup(pool_seed: int, spans=NoSpans()):
    """The pool and the C kernel every workload needs before timing."""
    with spans.span("trace.pool_load"):
        pool = load_pool(pool_seed)
    with spans.span("core.kernel_build"):
        kernel_ok = kernel_note() is None and build_kernel(pool)
    return pool, kernel_ok


class ServiceSession:
    """A background service with ``jobs`` worker slots, warmed by one job."""

    def __init__(self, state: Path, jobs: int) -> None:
        self.settings = ServiceSettings(
            host="127.0.0.1", port=0, cache_dir=state / "service",
            slots=jobs, rate=None, executor="process", default_scale=SCALE.name,
        )
        self.bg = BackgroundService(self.settings)

    def __enter__(self) -> "ServiceSession":
        self.bg.__enter__()
        try:
            # a job outside the measured universe (IQ 40) spawns both
            # workers and loads the service's pool before timing starts
            warm = run_job(self.client("warmup"),
                           service_spec("icount", "DH", 40))
            if warm["state"] != "done":
                raise RuntimeError(f"service warm-up job ended {warm['state']}")
            log = Path(self.settings.cache_dir) / "sweep_trace.jsonl"
            self.warmup_items = len(log.read_text().splitlines())
            self.warmup_stats = self.client("warmup").stats()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.bg.__exit__(*exc)
        parallel.shutdown()

    def client(self, tenant: str) -> ServiceClient:
        return ServiceClient(port=self.bg.port, tenant=tenant, timeout=120.0)


def run_job(client: ServiceClient, body: dict) -> dict:
    """POST one sweep job and follow its event stream to the terminal event.

    Turnaround is timed from the POST to the terminal event's arrival on
    the NDJSON stream (polling would quantise it).
    """
    t0 = time.perf_counter()
    try:
        doc = client.submit_sweep(body)
    except ServiceError as exc:
        return {"body": body, "state": "refused", "error": str(exc)}
    t1 = time.perf_counter()
    state = None
    for event in client.stream(doc["id"], timeout=120.0):
        if event.get("event") in TERMINAL:
            state = event["event"]
            break
    t2 = time.perf_counter()
    return {"id": doc["id"], "body": body, "state": state,
            "submit_s": t1 - t0, "turnaround_s": t2 - t0}


# --------------------------------------------------------------------------- #
# Timed passes                                                                #
# --------------------------------------------------------------------------- #

def check_tables(out: Outcome, tables: dict, ref: dict | None) -> None:
    for name, fig in tables.items():
        want = ref["tables"].get(name) if ref else None
        out.check(want is not None and digest(fig.as_dict()) == want,
                  f"{name} table differs from the reference engine's")


def iq_totals(runner: ExperimentRunner, pool) -> list[int]:
    """Summed simulated cycles and committed uops of Figures 2-5."""
    recs = [runner.run(cfg, pol, wl) for cfg, pol, wl in iq_items(pool)]
    return [sum(r.cycles for r in recs), sum(r.committed for r in recs)]


def pass_fig2(args, pool, ref, out: Outcome) -> dict:
    runner = runner_for(pool, args.state / "results", args.jobs)
    t0 = time.perf_counter()
    tables = {name: fn(runner) for name, fn in IQ_FIGURES.items()}
    pass_s = time.perf_counter() - t0
    parallel.shutdown()
    expected = len(iq_items(pool))
    out.check(runner.sims_run == expected,
              f"ran {runner.sims_run} sims, expected {expected}", n=expected)
    check_tables(out, tables, ref)
    totals = iq_totals(runner, pool)
    out.check(ref is not None and totals == ref["iq_totals"],
              f"IQ-study totals {totals} differ from the reference")
    return {
        "pass_s": pass_s,
        "turnaround_s": [r["elapsed_s"] + r["wait_s"] for r in runner.sweep_log],
        "totals": totals,
        "sweep_log": runner.sweep_log,
    }


def service_plan(seed: int, pass_index: int) -> list[list[dict]]:
    """Two clients' job lists for one pass.

    Every (policy, category, IQ size) job appears once, so every pass
    does the same work whatever the seed.  The seed orders the jobs,
    splits them between the clients and picks the repeats of each
    client's own earlier jobs (which the result cache serves).
    """
    rng = random.Random(f"{seed}:{pass_index}")
    fresh = [
        service_spec(p, c, iq)
        for p in SERVICE_POLICIES
        for c in SERVICE_CATEGORIES
        for iq in SERVICE_IQ
    ]
    rng.shuffle(fresh)
    plans = []
    for own in (fresh[0::2], fresh[1::2]):
        plan = list(own)
        for _ in range(SERVICE_REPEATS):
            pos = rng.randrange(2, len(plan) + 1)
            plan.insert(pos, dict(rng.choice(plan[:pos])))
        plans.append(plan)
    return plans


def pass_service(args, session: ServiceSession, ref, out: Outcome) -> dict:
    plans = service_plan(args.seed, args.pass_index)
    results: list[list[dict]] = [[] for _ in plans]
    errors: list[str] = []

    def client_loop(i: int) -> None:
        client = session.client(f"tenant{i}")
        try:
            for body in plans[i]:
                results[i].append(run_job(client, body))
        except Exception as exc:  # noqa: BLE001 - reported as failed jobs
            errors.append(f"client {i}: {exc!r}")

    threads = [threading.Thread(target=client_loop, args=(i,))
               for i in range(len(plans))]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    pass_s = time.perf_counter() - t0

    client = session.client("checker")
    stats = client.stats()
    jobs = [r for rs in results for r in rs]
    missing = sum(len(p) for p in plans) - len(jobs)
    out.check(not errors and not missing, f"clients stopped early: {errors}",
              n=max(missing, 1))
    docs = []
    for r in jobs:
        doc = client.job(r["id"]) if r["state"] == "done" else None
        ok = doc is not None and doc.get("state") == "done"
        if ok:
            recs = doc["result"]["records"]
            want = ref["service"] if ref else {}
            ok = bool(recs) and all(
                digest(rec) == want.get(
                    service_record_id(r["body"]["iq_entries"], name))
                for name, rec in recs.items()
            )
            docs.append(doc)
        out.check(ok, f"job {r['body']} ended {r['state']} or returned "
                      "records that differ from the reference")
    return {
        "pass_s": pass_s,
        "turnaround_s": [r["turnaround_s"] for r in jobs if "turnaround_s" in r],
        "submit_s": [r["submit_s"] for r in jobs if "submit_s" in r],
        "queue_wait_s": [d["queue_wait_s"] for d in docs],
        "run_s": [d["run_s"] for d in docs],
        "stats": stats,
        "items_requested": sum(d["total"] for d in docs),
        "jobs": [r["body"] for r in jobs],
    }


def mode_setup(args) -> dict:
    pool, kernel_ok = setup(args.pool_seed)
    if args.workload == "service-mixed":
        with ServiceSession(args.state, args.jobs):
            pass
    return {"kernel_ok": kernel_ok, "kernel_note": kernel_note()}


def mode_pass(args) -> dict:
    out = Outcome()
    pool, kernel_ok = setup(args.pool_seed)
    out.check(kernel_ok, f"C kernel unavailable: {kernel_note()}")
    ref = load_reference(args.pool_seed)
    out.check(ref is not None, f"no reference digests for pool seed "
                               f"{args.pool_seed} in {REFERENCE_FILE.name}")
    if args.workload == "fig2-iq-cold":
        res = pass_fig2(args, pool, ref, out)
    else:
        with ServiceSession(args.state, args.jobs) as session:
            res = pass_service(args, session, ref, out)
    return {"pass_s": res["pass_s"], "turnaround_s": res["turnaround_s"],
            "totals": res.get("totals"), "rss_mb": peak_rss_mb(),
            **out.as_dict()}


# --------------------------------------------------------------------------- #
# Traced run                                                                  #
# --------------------------------------------------------------------------- #

class Tally:
    """Engine attribution of replayed simulations, tallied from outside:
    ``kernel_active()`` per simulation and policy, plus the measured
    loop's committed uops and seconds per engine."""

    def __init__(self) -> None:
        self.per_policy: dict[str, dict[str, int]] = {}
        self.uops = {"c": 0, "py": 0}
        self.loop_s = {"c": 0.0, "py": 0.0}

    def add(self, policy: str, in_c: bool, uops: int, loop_s: float) -> None:
        engine = "c" if in_c else "py"
        self.per_policy.setdefault(policy, {"c": 0, "py": 0})[engine] += 1
        self.uops[engine] += uops
        self.loop_s[engine] += loop_s

    def sims(self, engine: str) -> int:
        return sum(n[engine] for n in self.per_policy.values())

    def kuops_per_s(self, engine: str) -> float:
        s = self.loop_s[engine]
        return self.uops[engine] / 1e3 / s if s else 0.0


def replay(items, spans, tally: Tally) -> list[RunRecord]:
    """Run ``items`` serially through the engine's public calls.

    The same sequence :func:`repro.core.simulator.run_simulation` makes for
    an :class:`ExperimentRunner` item, split at each layer boundary.
    """
    cls = processor_class(BACKEND)
    use_ff = fast_forward_default()
    policies = ExperimentRunner(SCALE)  # builds policies as a runner would
    records = []
    for i, (config, policy, wl) in enumerate(items):
        with spans.span("core.construct", i):
            proc = cls(config, policies._make_policy(policy), list(wl.traces))
        with spans.span("core.prewarm", i):
            proc.prewarm_caches()
        with spans.span("core.adopt", i):
            in_c = proc.kernel_active()
        with spans.span("core.loop_c" if in_c else "core.loop_py", i):
            if SCALE.warmup_uops > 0:
                proc.run_loop(SCALE.max_cycles, use_ff=use_ff,
                              commit_target=SCALE.warmup_uops)
                proc.reset_measurement()
            t = time.perf_counter()
            proc.run_loop(SCALE.max_cycles, stop="first_done", use_ff=use_ff)
            measured_s = time.perf_counter() - t
        with spans.span("core.finalize", i):
            stats = proc.finalize_stats()
            records.append(RunRecord.from_result(SimResult(
                policy=proc.policy.name,
                workload=f"{wl.category}/{wl.name}",
                cycles=stats.cycles,
                committed=stats.committed,
                committed_per_thread=tuple(stats.committed_per_thread),
                ipc=stats.ipc,
                stats=stats.as_dict(),
            )))
        tally.add(policy, in_c, stats.committed, measured_s)
    return records


def sweep_log_metrics(log: list[dict], wall_s: float, slots: int) -> dict:
    """Scheduling metrics of the executed items of one timed pass."""
    busy = [r["elapsed_s"] for r in log]
    rel = [abs(r["predicted_s"] - r["elapsed_s"]) / r["elapsed_s"]
           for r in log if r["elapsed_s"] > 0]
    return {
        "experiments.item_busy_s": sum(busy),
        "experiments.item_wait_s": sum(r["wait_s"] for r in log),
        "experiments.item_p50_ms": percentile(busy, 50) * 1e3 if log else 0.0,
        "experiments.item_p90_ms": percentile(busy, 90) * 1e3 if log else 0.0,
        "experiments.worker_util": sum(busy) / (slots * wall_s) if log else 0.0,
        "experiments.lpt_rel_err": statistics.median(rel) if rel else 0.0,
    }


def cache_metrics(pool, cache_dir, items, renders) -> dict:
    """Cache-hit cost on a warm disk cache, then figure assembly on a hot
    in-memory cache (each figure renders once untimed to load every record)."""
    runner = runner_for(pool, cache_dir)
    hits = []
    for cfg, pol, wl in items:
        t = time.perf_counter()
        runner.run(cfg, pol, wl)
        hits.append(time.perf_counter() - t)
    for fn in renders:
        fn(runner)
    t = time.perf_counter()
    for fn in renders:
        fn(runner)
    assemble_s = time.perf_counter() - t if renders else 0.0
    return runner, {
        "experiments.cache_hit_ms": statistics.median(hits) * 1e3,
        "experiments.assemble_s": assemble_s,
    }


def mode_traced(args) -> dict:
    out = Outcome()
    spans = Spans()
    pool, kernel_ok = setup(args.pool_seed, spans)
    out.check(kernel_ok, f"C kernel unavailable: {kernel_note()}")
    ref = load_reference(args.pool_seed)
    out.check(ref is not None, f"no reference digests for pool seed "
                               f"{args.pool_seed}")
    metrics = {"trace.pool_load_s": spans.total("trace.pool_load")}
    metrics.update({
        "service.submit_ms": 0.0, "service.queue_wait_ms": 0.0,
        "service.run_ms": 0.0, "service.items_executed": 0,
        "service.items_cached": 0, "service.items_coalesced": 0,
        "service.dedup_ratio": 0.0,
    })

    # one untraced pass as in the timed runs; the replay must equal the
    # records it cached
    if args.workload == "fig2-iq-cold":
        res = pass_fig2(args, pool, ref, out)
        items = iq_items(pool)
        metrics.update(sweep_log_metrics(res["sweep_log"], res["pass_s"],
                                         args.jobs))
        cache_dir, renders = args.state / "results", list(IQ_FIGURES.values())
    else:
        with ServiceSession(args.state, args.jobs) as session:
            res = pass_service(args, session, ref, out)
        items = service_items(pool, res["jobs"])
        cache_dir, renders = session.settings.cache_dir, []
        lines = (cache_dir / "sweep_trace.jsonl").read_text().splitlines()
        log = [json.loads(line) for line in lines[session.warmup_items:]]
        metrics.update(sweep_log_metrics(log, res["pass_s"], args.jobs))
        before, st = session.warmup_stats, res["stats"]
        executed = st["executed_items"] - before["executed_items"]
        requested = res["items_requested"]
        metrics.update({
            "service.submit_ms": statistics.median(res["submit_s"]) * 1e3,
            "service.queue_wait_ms": statistics.median(res["queue_wait_s"]) * 1e3,
            "service.run_ms": statistics.median(res["run_s"]) * 1e3,
            "service.items_executed": executed,
            "service.items_cached": st["cache_hits"] - before["cache_hits"],
            "service.items_coalesced": (st["coalesced_items"]
                                        - before["coalesced_items"]),
            "service.dedup_ratio": 1.0 - executed / requested,
        })
    runner, cm = cache_metrics(pool, cache_dir, items, renders)
    metrics.update(cm)
    expected = [runner.run(cfg, pol, wl) for cfg, pol, wl in items]
    out.check(runner.sims_run == 0, "pass records missing from the cache")

    # the traced replay between two untraced ones: their mean is the
    # tracing-overhead baseline, free of any steady drift over the run
    def untraced() -> float:
        gc.collect()
        t = time.perf_counter()
        replay(items, NoSpans(), Tally())
        return time.perf_counter() - t

    before_s = untraced()
    tally = Tally()
    gc.collect()
    t0 = time.perf_counter()
    got = replay(items, spans, tally)
    traced_s = time.perf_counter() - t0
    untraced_s = [before_s, untraced()]
    for i, (rec, want) in enumerate(zip(got, expected)):
        out.check(rec == want, f"traced replay of {items[i][1]} on "
                               f"{items[i][2].name} differs from its pass")

    covered = spans.covered(t0, t0 + traced_s)
    metrics.update({
        "core.construct_s": spans.total("core.construct"),
        "core.adopt_s": spans.total("core.adopt"),
        "core.prewarm_s": spans.total("core.prewarm"),
        "core.finalize_s": spans.total("core.finalize"),
        "core.loop_c_s": spans.total("core.loop_c"),
        "core.loop_py_s": spans.total("core.loop_py"),
        "core.c_sims": tally.sims("c"),
        "core.py_sims": tally.sims("py"),
        "core.c_kuops_per_s": tally.kuops_per_s("c"),
        "core.py_kuops_per_s": tally.kuops_per_s("py"),
        "core.sim_cycles": sum(r.cycles for r in expected),
        "core.committed_uops": sum(r.committed for r in expected),
        "unattributed_s": traced_s - covered,
    })
    spans.dump(args.state / "spans.jsonl")
    return {
        "metrics": metrics,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "named_share": covered / traced_s,
        "per_policy": tally.per_policy,
        **out.as_dict(),
    }


# --------------------------------------------------------------------------- #
# Reference digests                                                           #
# --------------------------------------------------------------------------- #

def mode_reference(args) -> dict:
    """Digests of the Figure 2-5 tables, the IQ-study totals and every
    service record, computed on the ``reference`` engine (the oracle)."""
    pool = load_pool(args.pool_seed)
    runner = ExperimentRunner(SCALE, cache_dir=args.state / "reference",
                              pool=pool, jobs=args.jobs, backend="reference")
    tables = {name: digest(fn(runner).as_dict())
              for name, fn in IQ_FIGURES.items()}
    totals = iq_totals(runner, pool)
    bodies = [service_spec(p, c, iq) for p in SERVICE_POLICIES
              for c in SERVICE_CATEGORIES for iq in SERVICE_IQ]
    service = {}
    for body in bodies:
        spec = JobSpec.from_json("sweep", body)
        recs = runner.sweep(spec.config(), spec.policies, spec.workloads(pool))
        for (pol, cat, name), rec in recs.items():
            service[service_record_id(body["iq_entries"],
                                      f"{pol}|{cat}|{name}")] = digest(
                json.loads(json.dumps(dataclasses.asdict(rec))))
    parallel.shutdown()
    data = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    data[str(args.pool_seed)] = {"tables": tables, "iq_totals": totals,
                                 "service": service}
    REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return {"sims": runner.sims_run}


MODES = {"setup": mode_setup, "pass": mode_pass, "traced": mode_traced,
         "reference": mode_reference}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=sorted(MODES))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--state", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pool-seed", type=int, default=2008)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--pass-index", type=int, default=0)
    args = ap.parse_args()
    args.state.mkdir(parents=True, exist_ok=True)
    result = MODES[args.mode](args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
