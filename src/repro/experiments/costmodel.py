"""Per-item runtime estimation for the sweep scheduler.

A sweep is a bag of independent simulations with wildly different costs:
a MEM-bound pair under CDPRF runs several times longer than an ILP pair
under Icount, and fast-forward eligibility cuts stall-heavy runs further.
FIFO dispatch therefore routinely strands one long item at the tail of a
sweep while every other worker idles.  The scheduler in
:mod:`repro.experiments.parallel` instead dispatches
**longest-expected-first** (the classic LPT heuristic), which needs a cost
estimate per item — that estimate lives here.

The model is deliberately simple and self-correcting:

* the estimated runtime of an item is ``rate × total trace uops``, where
  ``rate`` (seconds per uop) is looked up in a bucket keyed by
  ``(policy, workload kind, cycle engine, fast-forward on/off)``;
* buckets start from static priors (MEM > MIX > ILP, adaptive policies
  above static ones, the vectorized engine discounted against the
  reference, fast-forward discounting stall-heavy runs) and are
  **calibrated** with an exponential moving average of observed per-item
  timings reported back by the pool;
* calibration lives in the process that dispatches (one model per
  process, shared by every sweep it runs) and is never written to disk —
  LPT only needs the *relative* order of items, so a cold model degrades
  throughput, never correctness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.simulator import fast_forward_default

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import WorkItem

#: Conservative prior: seconds of simulation per trace uop on one core.
#: Only relative magnitudes matter for LPT ordering.
BASE_RATE = 4e-5

#: Workload-kind multipliers ("st" = single-thread reference run).
KIND_FACTOR = {"ilp": 1.0, "mix": 1.45, "mem": 2.0, "st": 0.7}

#: Policy multipliers (default 1.0): adaptive schemes do per-cycle or
#: per-interval bookkeeping, gating schemes lengthen runs.
POLICY_FACTOR = {
    "cdprf": 1.35,
    "dcra": 1.25,
    "hillclimb": 1.2,
    "stall": 1.15,
    "flush+": 1.25,
}

#: Fast-forward discount for the kinds it helps (idle-window jumping pays
#: off on memory-stalled runs, barely at all on ILP runs).
FF_FACTOR = {"mem": 0.75, "mix": 0.85, "st": 0.95, "ilp": 1.0}

#: Cycle-engine multipliers: the flattened SoA engine runs the same
#: simulation in roughly half the time of the reference interpreter
#: (see benchmarks/results/engine_speed.json); the whole-loop kernel
#: ("cloop") amortizes the FFI boundary over the whole run and lands
#: well under it (construction/marshal is most of what remains).
#: Policies outside the C policy table run on vectorized under cloop
#: and are priced at its rate.  Calibration refines this per bucket;
#: only the relative order matters for LPT.
BACKEND_FACTOR = {
    "reference": 1.0,
    "vectorized": 0.55,
    "cloop": 0.15,
}

#: Prior for engines registered after this table was written: assume the
#: modern default's rate, not the reference interpreter's — a new engine
#: is always at least as fast as vectorized, and a 2x-pessimistic prior
#: would push its items to the front of every LPT schedule.
_UNKNOWN_BACKEND_FACTOR = BACKEND_FACTOR["vectorized"]

#: EWMA weight of a new observation against the bucket's current rate.
ALPHA = 0.4


def item_features(item: "WorkItem") -> tuple[str, str, bool, str, int]:
    """``(policy, kind, fast_forward, backend, total_uops)`` of one item."""
    from repro.core.backends import resolve_backend

    if item.single is not None:
        kind = "st"
        uops = item.single.n_uops
    else:
        assert item.workload is not None
        kind = item.workload.wtype
        uops = sum(t.n_uops for t in item.workload.traces)
    ff = (
        fast_forward_default()
        if item.fast_forward is None
        else bool(item.fast_forward)
    )
    backend = item.backend if item.backend is not None else resolve_backend()
    return item.policy, kind, ff, backend, uops


class CostModel:
    """Bucketed seconds-per-uop rates with EWMA calibration."""

    def __init__(self) -> None:
        #: ``bucket -> calibrated seconds per uop``
        self._rates: dict[str, float] = {}

    # -- estimation ---------------------------------------------------------

    @staticmethod
    def _bucket(policy: str, kind: str, ff: bool, backend: str) -> str:
        return f"{policy}|{kind}|{backend}|{'ff' if ff else 'step'}"

    @staticmethod
    def _prior(policy: str, kind: str, ff: bool, backend: str) -> float:
        if backend == "cloop":
            from repro.core.ckernel import kernel_unavailable_reason
            from repro.core.cloop import in_c_table

            # cloop runs on vectorized outside the C table or without C
            if not in_c_table(policy) or kernel_unavailable_reason() is not None:
                backend = "vectorized"
        rate = (
            BASE_RATE
            * KIND_FACTOR.get(kind, 1.2)
            * POLICY_FACTOR.get(policy, 1.0)
            * BACKEND_FACTOR.get(backend, _UNKNOWN_BACKEND_FACTOR)
        )
        if ff:
            rate *= FF_FACTOR.get(kind, 1.0)
        return rate

    def rate(self, policy: str, kind: str, ff: bool, backend: str | None = None) -> float:
        if backend is None:
            from repro.core.backends import resolve_backend

            backend = resolve_backend()
        got = self._rates.get(self._bucket(policy, kind, ff, backend))
        return got if got is not None else self._prior(policy, kind, ff, backend)

    def estimate(self, item: "WorkItem") -> float:
        """Expected wall-clock seconds for ``item``."""
        policy, kind, ff, backend, uops = item_features(item)
        return self.rate(policy, kind, ff, backend) * uops

    def lpt_order(
        self, items: list["WorkItem"]
    ) -> tuple[dict[int, float], list["WorkItem"]]:
        """``(estimates by id(item), items longest-expected-first)``.

        The shared dispatch order of every executor: the local pool's
        bounded in-flight window and the fabric coordinator's cross-host
        leases both hand out work from the front of this list, so a
        remote sweep schedules exactly like a local one.
        """
        estimates = {id(item): self.estimate(item) for item in items}
        ordered = sorted(
            items, key=lambda it: estimates[id(it)], reverse=True
        )
        return estimates, ordered

    def observe(self, item: "WorkItem", seconds: float) -> None:
        """Fold one completed item's measured runtime into its bucket."""
        policy, kind, ff, backend, uops = item_features(item)
        if uops <= 0 or seconds <= 0:
            return
        observed = seconds / uops
        bucket = self._bucket(policy, kind, ff, backend)
        got = self._rates.get(bucket)
        self._rates[bucket] = (
            observed if got is None else got + ALPHA * (observed - got)
        )
