"""Structure-of-arrays trace columns for the fast engines.

The reference interpreter derives everything about a uop from the
:class:`~repro.isa.Uop` object at the moment each stage touches it —
port class from ``PORT_CLASS_TABLE[uop.opclass]``, register class from
``dest < NUM_ARCH_INT``, fetch-group breaks from ``opclass``/flag
fields.  All of that is a pure function of the *trace record*, so the
fast engines precompute it once per trace with bulk NumPy column
operations and read flat arrays (plain lists, the fastest random-access
container in CPython) inside their cycle loops.

:class:`TraceSoA` holds that immutable per-record static metadata,
indexed by trace sequence number and cached on the
:class:`~repro.trace.trace.Trace` so repeated simulations (sweeps,
benchmarks) build it once.  It covers only the right path; wrong-path
uops are synthesized on the fly.

The ``vectorized`` engine reads these columns at fetch.  The whole-loop
compiled engine (:mod:`repro.core.cloop`) copies them into C arrays once
per context and runs the cycle loop over a slot pool of in-flight uops
whose age-ordered structures hold packed ``(age << SLOT_BITS) | slot``
keys, so a recycled slot can never be mistaken for its previous
occupant.
"""

from __future__ import annotations

import numpy as np

from repro.isa import NUM_ARCH_INT, UopClass
from repro.isa.uops import PORT_CLASS_TABLE
from repro.trace.trace import Trace

_BRANCH = int(UopClass.BRANCH)

#: bits of a packed reference key reserved for the slot index; the high
#: bits carry the uop age, so keys sort by age and decode to (age, slot)
SLOT_BITS = 20


class TraceSoA:
    """Per-record static metadata columns of one trace.

    ``plain``
        True where fetch needs none of its slow paths: not a branch, not
        an MROM complex op, not an indirect target — the fetch loop
        appends these uops with zero per-record control flow.
    ``next_slow``
        for each index, the first index at or after it whose record is
        *not* plain (``n`` when no such record exists).  Lets the C
        kernel's fetch append a whole plain run to the fetch queue at
        once instead of a per-record loop.
    ``dest_class``
        register class the destination would allocate (0=int, 1=fp;
        meaningless where ``dest`` is ``NO_REG``).
    ``port_class``
        issue-port class per record (``PORT_CLASS_TABLE`` applied in
        bulk).
    """

    __slots__ = ("n", "plain", "next_slow", "dest_class", "port_class")

    def __init__(self, trace: Trace) -> None:
        rec = trace.records
        self.n = len(rec)
        n = self.n
        opclass = rec["opclass"]
        slow = (
            (opclass == _BRANCH)
            | (rec["complex_op"] != 0)
            | (rec["indirect"] != 0)
        )
        self.plain = (~slow).tolist()
        idx = np.where(slow, np.arange(n, dtype=np.int64), n)
        self.next_slow = np.minimum.accumulate(idx[::-1])[::-1].tolist()
        self.dest_class = (rec["dest"] >= NUM_ARCH_INT).astype(np.uint8).tolist()
        self.port_class = (
            np.asarray(PORT_CLASS_TABLE, dtype=np.uint8)[opclass].tolist()
        )


def trace_soa(trace: Trace) -> TraceSoA:
    """The (cached) :class:`TraceSoA` of ``trace``."""
    soa = getattr(trace, "_soa", None)
    if soa is None:
        soa = TraceSoA(trace)
        trace._soa = soa
    return soa


def thread_mem_lines(trace: Trace, mem_offset: int) -> list[int]:
    """Per-record effective cache-line addresses for one hardware thread.

    The reference fetch path computes ``mem_line + (tid << 33)`` per
    fetched uop; this folds the thread's address-space offset in bulk.
    Not cached on the trace: the offset is per *thread*, and the same
    trace may back several threads.
    """
    return (trace.records["mem_line"] + mem_offset).tolist()


def trace_latencies(trace: Trace, latency_table) -> list[int]:
    """Per-record base execution latency (``latency_table[opclass]`` in
    bulk).  Config-dependent, so computed per machine, not cached on the
    trace."""
    return (
        np.asarray(latency_table, dtype=np.int64)[trace.records["opclass"]]
        .tolist()
    )
