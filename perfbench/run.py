"""Benchmark: regenerate paper figures and serve requests, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2-iq-cold --seed 1 --seconds 40 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``fig2-iq-cold`` -- Figures 2-5's issue-queue study from an empty result
  cache on two workers (fewer if the host has fewer cores);
* ``service-mixed`` -- a background service with two worker slots driven in
  a closed loop by two clients (one tenant each) submitting one-policy x
  one-category sweep jobs, a seeded share of which repeat earlier ones.

All simulations run at smoke scale on the ``cloop`` engine.  Every step runs
in a fresh child process (``child.py``) against hermetic state under
``.perfbench-state/<workload>/``: its own trace cache, C-kernel cache and
result caches, and a cost model that is never persisted.  Set-up is done
three times from empty caches and its median reported.  Timed passes repeat
while the next is expected to end within ``--seconds`` (at least two); each
is checked against digests recorded from the ``reference`` engine
(``reference.json``).

``--trace 1`` instead makes the per-layer run: one untraced pass, then a
serial replay of its simulations through the engine's public calls with
spans around each layer, checked record by record against the pass and
timed against untraced replays of the same items (the tracing overhead).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or per-layer ones with
``--trace 1``).  The lines before it give the host fingerprint and every
metric by name with its unit.  ``--record-reference`` re-records the
reference digests for ``--pool-seed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import percentile

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("fig2-iq-cold", "service-mixed")
SETUP_REPEATS = 3
MIN_PASSES = 2
#: Hard wall-clock limit of one invocation, seconds.
DEADLINE_S = 170.0
#: Environment variables that would change what the program runs.
_CLEARED_ENV = ("REPRO_BACKEND", "REPRO_JOBS", "REPRO_FF", "REPRO_SHM",
                "REPRO_NO_CKERNEL", "REPRO_EXECUTOR", "REPRO_SCALE",
                "REPRO_COST_MODEL", "REPRO_TRACE_CACHE", "REPRO_CKERNEL_CACHE")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "turnaround_p50_ms": "ms",
    "turnaround_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A step of the benchmark could not produce a result."""


def child_env(caches: Path) -> dict[str, str]:
    """Environment of a child: the program from ``src/`` with hermetic caches."""
    env = {k: v for k, v in os.environ.items() if k not in _CLEARED_ENV}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "REPRO_TRACE_CACHE": str(caches / "traces"),
        "REPRO_CKERNEL_CACHE": str(caches / "ckernel"),
        "REPRO_COST_MODEL": "0",  # never read or write a persisted model
        "REPRO_BACKEND": "cloop",  # the service's runners resolve it here
        "TMPDIR": str(caches / "tmp"),
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    (caches / "tmp").mkdir(parents=True, exist_ok=True)
    return env


class Children:
    """Runs child steps under one deadline; kills a step's whole process
    group if it overruns, so no worker outlives the benchmark."""

    def __init__(self, args, state: Path, limit_s: float = DEADLINE_S) -> None:
        self.args = args
        self.state = state
        self.limit_s = limit_s
        self.deadline = time.monotonic() + limit_s

    def run(self, mode: str, step: str, caches: Path, pass_index: int = 0):
        """Run one step; returns ``(wall seconds, result document)``."""
        a = self.args
        cmd = [sys.executable, str(HERE / "child.py"), mode,
               "--workload", a.workload, "--state", str(self.state / step),
               "--seed", str(a.seed), "--pool-seed", str(a.pool_seed),
               "--jobs", str(a.jobs), "--pass-index", str(pass_index)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(caches), cwd=ROOT,
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{step} overran the {self.limit_s:.0f}s limit")
        finally:
            try:  # reap any worker the child left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        wall = time.perf_counter() - t0
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{step} exited with code {proc.returncode}")
        return wall, json.loads(lines[-1])


def fingerprint(args) -> dict:
    """What the absolute times depend on."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def first_line(cmd):
        try:
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        out = res.stdout.strip().splitlines()
        return out[0] if res.returncode == 0 and out else None

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode())
            src.update(path.read_bytes())
    cffi = first_line([sys.executable, "-c",
                       "import cffi; print(cffi.__version__)"])
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cffi": cffi or "absent",
        "cc": first_line(["cc", "--version"]) or "absent",
        "git_rev": (first_line(["git", "rev-parse", "HEAD"])
                    if first_line(["git", "rev-parse", "--show-toplevel"])
                    == str(ROOT) else None) or "unknown",
        "src_sha256": src.hexdigest()[:16],
        "scale": "smoke",
        "backend": "cloop",
        "workload": args.workload,
        "seed": args.seed,
        "pool_seed": args.pool_seed,
        "jobs": args.jobs,
    }


def timed_run(args, kids: Children, state: Path) -> tuple[dict, int, int]:
    """Set-up three times, then timed passes; returns (metrics, attempted,
    failed)."""
    setups, attempted, failed = [], 0, 0
    for i in range(SETUP_REPEATS):
        wall, res = kids.run("setup", f"setup{i}", state / f"caches{i}")
        setups.append(wall)
        attempted += 1
        if not res["kernel_ok"]:
            failed += 1
            print(f"perfbench: C kernel unavailable: {res['kernel_note']}",
                  file=sys.stderr)
    caches = state / "caches0"  # warm from here on

    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        _, res = kids.run("pass", f"pass{len(passes)}", caches, len(passes))
        passes.append(res)
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and (
            elapsed * (len(passes) + 1) / len(passes) > args.seconds
        ):
            break
    for res in passes:
        attempted += res["attempted"]
        failed += res["failed"]
        for err in res["errors"]:
            print(f"perfbench: check failed: {err}", file=sys.stderr)
    totals = {json.dumps(res["totals"]) for res in passes}
    attempted += 1
    if len(totals) != 1:
        failed += 1
        print(f"perfbench: simulated totals vary across passes: {totals}",
              file=sys.stderr)
    turnaround = [t for res in passes for t in res["turnaround_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(res["pass_s"] for res in passes),
        "turnaround_p50_ms": percentile(turnaround, 50) * 1e3,
        "turnaround_p90_ms": percentile(turnaround, 90) * 1e3,
        "peak_rss_mb": max(res["rss_mb"] for res in passes),
    }
    print(f"perfbench: set-ups {[round(s, 3) for s in setups]} s, passes "
          f"{[round(res['pass_s'], 3) for res in passes]} s, "
          f"{len(turnaround)} turnaround samples", file=sys.stderr)
    return ({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            attempted, failed)


PER_LAYER_UNITS = {
    "trace.pool_load_s": "s",
    "core.construct_s": "s",
    "core.adopt_s": "s",
    "core.prewarm_s": "s",
    "core.finalize_s": "s",
    "core.loop_c_s": "s",
    "core.loop_py_s": "s",
    "core.c_sims": "count",
    "core.py_sims": "count",
    "core.c_kuops_per_s": "kuops/s",
    "core.py_kuops_per_s": "kuops/s",
    "core.sim_cycles": "count",
    "core.committed_uops": "count",
    "experiments.item_busy_s": "s",
    "experiments.item_wait_s": "s",
    "experiments.item_p50_ms": "ms",
    "experiments.item_p90_ms": "ms",
    "experiments.worker_util": "ratio",
    "experiments.lpt_rel_err": "ratio",
    "experiments.cache_hit_ms": "ms",
    "experiments.assemble_s": "s",
    "service.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.run_ms": "ms",
    "service.items_executed": "count",
    "service.items_cached": "count",
    "service.items_coalesced": "count",
    "service.dedup_ratio": "ratio",
    "unattributed_s": "s",
}


def traced_run(args, kids: Children, state: Path) -> tuple[dict, int, int]:
    _, res = kids.run("traced", "traced", state / "caches0")
    for err in res["errors"]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    before, after = res["untraced_s"]
    overhead = 2 * res["traced_s"] / (before + after) - 1.0
    print(f"perfbench: traced replay {res['traced_s']:.3f}s between untraced "
          f"replays of {before:.3f}s and {after:.3f}s (tracing overhead "
          f"{overhead:+.1%} against their mean); "
          f"{res['named_share']:.1%} of traced wall time in named spans",
          file=sys.stderr)
    for policy, n in sorted(res["per_policy"].items()):
        print(f"perfbench: engine {policy}: {n['c']} C kernel, "
              f"{n['py']} Python fallback", file=sys.stderr)
    metrics = {k: (res["metrics"][k], u) for k, u in PER_LAYER_UNITS.items()}
    return metrics, res["attempted"], res["failed"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="seeds the service job order, split and repeats "
                         "(the cold sweep's input is the pool alone)")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="how long the timed passes run (at least two passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool-seed", type=int, default=2008,
                    help="workload-pool seed (2008 = the paper pool)")
    ap.add_argument("--record-reference", action="store_true",
                    help="record reference digests for --pool-seed and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    args.jobs = min(2, os.cpu_count() or 1)  # workers / service slots
    if args.record_reference:
        args.workload = "reference"
    elif args.workload is None:
        ap.error("--workload is required")
    if args.workload == "service-mixed" and args.pool_seed != 2008:
        ap.error("service-mixed serves the paper pool (--pool-seed 2008)")

    state = ROOT / ".perfbench-state" / args.workload
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    kids = Children(args, state, 3600.0 if args.record_reference else DEADLINE_S)
    try:
        if args.record_reference:
            wall, res = kids.run("reference", "reference", state / "caches0")
            print(f"perfbench: recorded reference digests in {wall:.0f}s "
                  f"({res['sims']} simulations)", file=sys.stderr)
            return 0
        host = fingerprint(args)
        if args.trace:
            metrics, attempted, failed = traced_run(args, kids, state)
        else:
            metrics, attempted, failed = timed_run(args, kids, state)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print("perfbench host " + json.dumps(host, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"perfbench {args.workload} {name} = {value:.6g} {unit}")
    print(f"perfbench {args.workload} failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
