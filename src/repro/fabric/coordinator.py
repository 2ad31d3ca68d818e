"""Fabric coordinator: serve work items to remote workers over TCP.

The coordinator is the multi-host analogue of the persistent local pool in
:mod:`repro.experiments.parallel`: one process owns the result cache and the
cost model, and *leases* cache-missing work
items to however many workers dial in (``repro-sim worker --connect``).
Workers are stateless executors — each item carries everything needed to
rebuild its traces from seeds (hitting the worker's local trace-synthesis
cache), so the only bytes on the wire are specs out and records back.

Scheduling mirrors the local engine exactly:

* items are dispatched **longest-expected-first** (the same EWMA/LPT cost
  model, calibrated by measured remote timings);
* each worker advertises a bounded in-flight **window** (its ``hello``),
  so a fast worker streams items back-to-back while a slow one is never
  buried — cross-host work stealing without a shared queue;
* every completed item lands in the coordinator's cache through
  :func:`repro.experiments.parallel.merge_result`, the merge the local
  pool and the service use, so re-running the sweep after a coordinator
  restart executes only the keys that never landed.

Failure model: a worker is alive while its socket speaks (results or the
heartbeat thread's beacons).  A closed socket or a silent
``lease_timeout`` drops the worker and **re-queues its leased items** for
the survivors.  Because items are deterministic and cache writes
atomic, a lease that was actually completed twice (worker died after
computing, before the result landed) is byte-identical both times — the
first result wins, duplicates are discarded, and the sweep completes each
key exactly once (``scripts/fabric_smoke.py`` SIGKILLs a worker mid-sweep
and byte-diffs the final cache tree against a local run).

One :class:`FabricHub` persists across ``run_items`` calls, exactly like
the local pool persists across sweeps: workers connect once and serve
every sweep of the process (a figure driver's sweep + singles phases, a
benchmark's rounds) until the coordinator exits or sends ``shutdown``.
"""

from __future__ import annotations

import atexit
import selectors
import socket
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.experiments import parallel
from repro.fabric import protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import WorkItem
    from repro.experiments.runner import ExperimentRunner, RunKey


@dataclass(frozen=True)
class FabricSettings:
    """How a coordinator listens and when it gives up on a worker."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port (announced on stderr)
    #: drop a worker whose socket has been silent this long (heartbeats
    #: arrive every few seconds, so this tolerates several missed beacons)
    lease_timeout: float = 30.0
    #: cap any worker's advertised in-flight window
    max_window: int = 8


class _Conn:
    """One worker connection and its lease table."""

    __slots__ = (
        "sock", "addr", "decoder", "outbox", "registered",
        "pid", "host", "window", "last_seen", "leases",
    )

    def __init__(self, sock: socket.socket, addr: Any) -> None:
        self.sock = sock
        self.addr = addr
        self.decoder = protocol.FrameDecoder()
        self.outbox = bytearray()
        self.registered = False
        self.pid = 0
        self.host = ""
        self.window = 1
        self.last_seen = time.monotonic()
        #: key -> leased item
        self.leases: dict["RunKey", "WorkItem"] = {}

    @property
    def name(self) -> str:
        return f"{self.host or self.addr[0]}:{self.pid or '?'}"


class FabricHub:
    """Listening socket + worker connections, persistent across sweeps."""

    def __init__(self, settings: FabricSettings) -> None:
        self.settings = settings
        self.selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((settings.host, settings.port))
        self._listener.listen(64)
        self._listener.setblocking(False)
        self.selector.register(self._listener, selectors.EVENT_READ, None)
        self.host, self.port = self._listener.getsockname()[:2]
        self.conns: list[_Conn] = []
        self.workers_seen = 0
        self.drops = 0
        self.requeued = 0
        self._closed = False
        print(
            f"[repro] fabric: coordinator listening on "
            f"{self.host}:{self.port}",
            file=sys.stderr,
            flush=True,
        )

    # -- connection plumbing ---------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock, addr)
        self.conns.append(conn)
        self.selector.register(sock, selectors.EVENT_READ, conn)

    def _events_for(self, conn: _Conn) -> int:
        return selectors.EVENT_READ | (
            selectors.EVENT_WRITE if conn.outbox else 0
        )

    def _queue(self, conn: _Conn, msg: dict[str, Any]) -> None:
        conn.outbox.extend(protocol.pack(msg))
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        try:
            while conn.outbox:
                sent = conn.sock.send(conn.outbox)
                if sent <= 0:
                    break
                del conn.outbox[:sent]
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            # detected on the next read event / expiry scan as well; the
            # read path owns dropping so leases are re-queued exactly once
            return
        try:
            self.selector.modify(conn.sock, self._events_for(conn), conn)
        except (KeyError, ValueError, OSError):
            pass

    def _drop(self, conn: _Conn, reason: str) -> list["WorkItem"]:
        """Close a connection; return its leased items for re-queuing."""
        try:
            self.selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        if conn in self.conns:
            self.conns.remove(conn)
        self.drops += 1
        lost = list(conn.leases.values())
        if conn.registered:
            print(
                f"[repro] fabric: worker {conn.name} dropped ({reason}); "
                f"re-queuing {len(lost)} leased items",
                file=sys.stderr,
                flush=True,
            )
        conn.leases.clear()
        return lost

    def close(self) -> None:
        """Send ``shutdown`` to every worker and tear the hub down."""
        if self._closed:
            return
        self._closed = True
        for conn in list(self.conns):
            try:
                conn.sock.setblocking(True)
                conn.sock.settimeout(2.0)
                conn.sock.sendall(bytes(conn.outbox) + protocol.pack(protocol.SHUTDOWN))
            except OSError:
                pass
            try:
                self.selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        self.conns.clear()
        try:
            self.selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self.selector.close()

    # -- one sweep ---------------------------------------------------------------

    def run_items(
        self,
        runner: "ExperimentRunner",
        items: Sequence["WorkItem"],
        label: str = "sweep",
    ) -> int:
        """Serve the cache-missing ``items`` to connected workers.

        Blocks until every item is completed (results merged into the
        runner's cache, cost model calibrated) and returns the
        number executed — the remote counterpart of
        :func:`repro.experiments.parallel.run_items`.
        """
        runner._check_abort()
        todo, hits = parallel.split_items(runner, items)
        if not todo:
            return 0
        sweep = parallel._Sweep(
            runner, label, todo, hits, max(1, len(self.conns)), executor="tcp"
        )
        # stored reversed (ascending) so list.pop() hands out the longest
        pending = sweep.todo[::-1]
        # key -> (item, perf_counter dispatch time) of every leased item
        # whose result has not landed yet
        sent: dict["RunKey", tuple["WorkItem", float]] = {}
        failure: str | None = None

        now = time.monotonic()
        for conn in self.conns:
            # idle-between-sweeps workers were not being read; their silence
            # was ours, not theirs — reset liveness before the expiry scan
            conn.last_seen = now

        def leased() -> int:
            return sum(len(c.leases) for c in self.conns)

        def fill(conn: _Conn) -> None:
            if not conn.registered or sweep.aborted or failure:
                return
            while pending and len(conn.leases) < conn.window:
                item = pending.pop()
                conn.leases[item.key] = item
                sent[item.key] = (item, time.perf_counter())
                self._queue(conn, protocol.item_msg(item))

        def requeue(lost: list["WorkItem"]) -> None:
            fresh = [it for it in lost if it.key in sent]
            if not fresh:
                return
            self.requeued += len(fresh)
            pending.extend(fresh)
            pending.sort(key=lambda it: sweep.estimates[id(it)])
            for conn in self.conns:
                fill(conn)

        def on_result(conn: _Conn, msg: dict[str, Any]) -> None:
            key = protocol.decode_key(msg["key"])
            conn.leases.pop(key, None)
            lease = sent.pop(key, None)
            if lease is None:
                return  # duplicate after a re-queue; first result won
            item, t_submit = lease
            sweep.done(
                item,
                protocol.decode_record(msg["record"]),
                float(msg["seconds"]),
                int(msg.get("pid", conn.pid)),
                t_submit,
                worker=conn.name,
            )
            if sweep.aborted:
                pending.clear()

        def on_message(conn: _Conn, msg: dict[str, Any]) -> None:
            nonlocal failure
            conn.last_seen = time.monotonic()
            kind = msg.get("type")
            if kind == "heartbeat":
                return
            if kind == "hello":
                if msg.get("version") != protocol.VERSION:
                    self._queue(
                        conn,
                        protocol.error_msg(
                            None,
                            f"protocol version {msg.get('version')} != "
                            f"{protocol.VERSION}",
                        ),
                    )
                    requeue(self._drop(conn, "version mismatch"))
                    return
                conn.registered = True
                conn.pid = int(msg.get("pid", 0))
                conn.host = str(msg.get("host", conn.addr[0]))
                conn.window = max(
                    1, min(int(msg.get("window", 1)), self.settings.max_window)
                )
                self.workers_seen += 1
                fill(conn)
                return
            if kind == "result":
                on_result(conn, msg)
                fill(conn)
                return
            if kind == "error":
                failure = (
                    f"worker {conn.name} failed on "
                    f"{msg.get('key')}: {msg.get('error')}"
                )
                return
            failure = f"worker {conn.name} sent unknown message {kind!r}"

        try:
            while (sweep.executed < len(todo) and not failure
                   and not (sweep.aborted and leased() == 0)):
                for sel_key, _mask in self.selector.select(timeout=0.25):
                    if sel_key.data is None:
                        self._accept()
                        continue
                    conn = sel_key.data
                    if _mask & selectors.EVENT_WRITE:
                        self._flush(conn)
                    if not (_mask & selectors.EVENT_READ):
                        continue
                    try:
                        data = conn.sock.recv(1 << 20)
                    except (BlockingIOError, InterruptedError):
                        continue
                    except OSError as exc:
                        requeue(self._drop(conn, f"socket error: {exc}"))
                        continue
                    if not data:
                        requeue(self._drop(conn, "connection closed"))
                        continue
                    try:
                        messages = conn.decoder.feed(data)
                    except protocol.ProtocolError as exc:
                        requeue(self._drop(conn, f"protocol error: {exc}"))
                        continue
                    for msg in messages:
                        on_message(conn, msg)
                # liveness scan: silent workers lose their leases
                deadline = time.monotonic() - self.settings.lease_timeout
                for conn in [
                    c for c in self.conns if c.last_seen < deadline
                ]:
                    requeue(self._drop(conn, "lease timeout"))
        finally:
            sweep.close()
        if failure:
            raise RuntimeError(
                f"fabric sweep {label!r} failed: {failure}; completed work "
                "is cached — re-run"
            )
        sweep.raise_if_aborted()
        return sweep.executed


# --------------------------------------------------------------------------- #
# Module-level persistent hub (mirrors parallel's persistent pool)             #
# --------------------------------------------------------------------------- #

_hub: FabricHub | None = None
_atexit_registered = False


def get_hub(settings: FabricSettings | None = None) -> FabricHub:
    """The process-wide hub, created on first use (grown never — a new
    endpoint tears the old hub down first, like the local pool's resize)."""
    global _hub, _atexit_registered
    settings = settings or FabricSettings()
    if _hub is not None and (
        (_hub.settings.host, _hub.settings.port) != (settings.host, settings.port)
        and not (settings.port == 0 and _hub.settings.host == settings.host)
    ):
        shutdown()
    if _hub is None:
        _hub = FabricHub(settings)
        if not _atexit_registered:
            atexit.register(shutdown)
            _atexit_registered = True
    return _hub


def shutdown() -> None:
    """Close the hub; connected workers receive ``shutdown`` and exit."""
    global _hub
    if _hub is not None:
        _hub.close()
        _hub = None
