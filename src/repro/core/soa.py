"""Structure-of-arrays trace columns for the fast engines.

The reference interpreter derives everything about a uop from the
:class:`~repro.isa.Uop` object at the moment each stage touches it —
port class from ``PORT_CLASS_TABLE[uop.opclass]``, register class from
``dest < NUM_ARCH_INT``, fetch-group breaks from ``opclass``/flag
fields.  All of that is a pure function of the *trace record*, so the
fast engines precompute it once per trace with bulk NumPy column
operations and read flat arrays inside their cycle loops (a plain list
for the Python engine, the fastest random-access container in CPython).

:class:`TraceSoA` holds that immutable per-record static metadata,
indexed by trace sequence number and cached on the
:class:`~repro.trace.trace.Trace` so repeated simulations (sweeps,
benchmarks) build it once.  It covers only the right path; wrong-path
uops are synthesized on the fly.

The ``vectorized`` engine reads ``plain`` at fetch.  The whole-loop
compiled engine (:mod:`repro.core.cloop`) takes every column as one
contiguous ``int64`` block (:func:`kernel_columns`), which the kernel
copies once per context, and runs the cycle loop over a slot pool of
in-flight uops whose age-ordered structures hold packed
``(age << SLOT_BITS) | slot`` keys, so a recycled slot can never be
mistaken for its previous occupant.
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
        appends these uops with zero per-record control flow.  A plain
        list, for the ``vectorized`` fetch loop; the other columns feed
        only the C kernel's marshal (:func:`kernel_columns`) and stay
        compact NumPy arrays (``plain_mask`` is ``plain`` as one).
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

    __slots__ = (
        "n", "plain", "plain_mask", "next_slow", "dest_class", "port_class"
    )

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
        self.plain_mask = ~slow
        self.plain = self.plain_mask.tolist()
        idx = np.where(slow, np.arange(n, dtype=np.int64), n)
        self.next_slow = np.minimum.accumulate(idx[::-1])[::-1]
        self.dest_class = (rec["dest"] >= NUM_ARCH_INT).astype(np.uint8)
        self.port_class = np.asarray(PORT_CLASS_TABLE, dtype=np.uint8)[opclass]


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


#: the record fields that are the first ten ``cloop_set_trace`` columns
_KERNEL_FIELDS = (
    "opclass", "dest", "src1", "src2", "pc", "taken", "mem_line",
    "indirect", "target", "complex_op",
)


def kernel_columns(trace: Trace, mem_offset: int, latency_table) -> np.ndarray:
    """One thread's trace columns for the C kernel: a C-contiguous
    ``(15, n)`` int64 array whose rows are the ``cloop_set_trace``
    columns, in order.

    Row for row, the values equal the ``vectorized`` engine's fetch
    columns (memory lines offset by ``mem_offset``, flags as 0/1), then
    the :class:`TraceSoA` port class, destination class, the base
    latency ``latency_table[opclass]`` and ``next_slow``.  The
    trace-invariant inputs are the records and the cached
    :class:`TraceSoA` arrays, at their natural widths; the int64 block
    is built per call because the kernel copies it, so it need not
    outlive the call that hands it over.
    """
    rec = trace.records
    soa = trace_soa(trace)
    cols = np.empty((15, len(rec)), dtype=np.int64)
    for row, field in enumerate(_KERNEL_FIELDS):
        cols[row] = rec[field]
    for row in (5, 7, 9):  # taken, indirect, complex_op: flags
        cols[row] = cols[row] != 0
    cols[6] += mem_offset
    cols[10] = soa.plain_mask
    cols[11] = soa.port_class
    cols[12] = soa.dest_class
    cols[13] = np.asarray(latency_table, dtype=np.int64)[rec["opclass"]]
    cols[14] = soa.next_slow
    return cols
