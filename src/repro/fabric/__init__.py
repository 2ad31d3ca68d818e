"""repro.fabric — pluggable sweep executors: local pool or TCP scale-out.

The sweep engine (:mod:`repro.experiments.parallel`) made work units
idempotent and resumable: every simulation is a pure function of its
:class:`WorkItem`, and results are content-addressed in the disk cache,
which is the sweep's only checkpoint.  This package adds the missing
piece for multi-host scale-out — a **transport** — behind one switch:

* ``executor="local"`` (default): today's persistent shared process pool,
  byte-identical behaviour, zero new overhead;
* ``executor="tcp"``: a :class:`~repro.fabric.coordinator.FabricHub`
  serves items over a length-prefixed JSON protocol to remote workers
  started with ``repro-sim worker --connect host:port``.

Either way the caller is :meth:`ExperimentRunner.sweep`, workers run
:func:`repro.experiments.parallel._run_item` on traces loaded from the
trace cache, and every result lands through
:func:`repro.experiments.parallel.merge_result` in the same cache,
so a distributed sweep is bit-identical to a serial one and re-running
it after a coordinator restart executes only the missing keys.  Executor
resolution mirrors the engine's other knobs: explicit argument >
``REPRO_EXECUTOR`` environment > ``local``, failing fast on unknown
names.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Sequence

from repro.fabric.coordinator import FabricSettings, get_hub, shutdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import WorkItem
    from repro.experiments.runner import ExperimentRunner

#: Known executors, in documentation order.
EXECUTORS = ("local", "tcp")

_ENV_VAR = "REPRO_EXECUTOR"


def resolve_executor(name: str | None = None) -> str:
    """Executor name: explicit ``name`` > ``REPRO_EXECUTOR`` > ``local``.

    Unknown names fail here — before a hub binds a port or a sweep
    starts — with a message listing what exists.
    """
    got = name if name is not None else os.environ.get(_ENV_VAR, "").strip()
    if not got:
        return "local"
    if got not in EXECUTORS:
        source = "executor" if name is not None else _ENV_VAR
        raise ValueError(
            f"{source}={got!r} is not a sweep executor; "
            f"known executors: {', '.join(EXECUTORS)}"
        )
    return got


def run_items(
    runner: "ExperimentRunner",
    items: Sequence["WorkItem"],
    jobs: int,
    label: str = "sweep",
) -> int:
    """Dispatch ``items`` through the runner's executor; returns how many
    simulations were executed (the rest were cache hits).

    ``local`` defers to :func:`repro.experiments.parallel.run_items`
    verbatim (including its ``jobs <= 1`` serial no-op).  ``tcp`` ignores
    ``jobs`` — capacity is whatever workers dial in — and blocks until the
    connected workers have completed every cache-missing item.
    """
    executor = getattr(runner, "executor", "local")
    if executor == "local":
        from repro.experiments import parallel

        return parallel.run_items(runner, items, jobs, label=label)
    hub = get_hub(getattr(runner, "fabric", None))
    return hub.run_items(runner, items, label=label)


__all__ = [
    "EXECUTORS",
    "FabricSettings",
    "get_hub",
    "resolve_executor",
    "run_items",
    "shutdown",
]
