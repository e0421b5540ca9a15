"""The asyncio daemon: ``repro serve``.

:class:`ServeServer` listens on a unix socket (the default -- local API,
filesystem permissions) or a TCP port, speaks the newline-delimited JSON
protocol of :mod:`repro.daemon.protocol`, and multiplexes every accepted
job through the :class:`~repro.daemon.scheduler.Scheduler`'s worker pool
and the shared content-addressed result cache.

Lifecycle
---------
``SIGINT``/``SIGTERM`` begin a *graceful drain*: new submissions are
rejected with the typed ``shutting_down`` error, every already-admitted
job (queued and running) finishes, and the process exits 0.  A second
signal *force-cancels*: queued jobs are marked cancelled, running worker
processes are terminated, and the daemon still exits cleanly.  The
``shutdown`` op does the same over the wire.
"""

from __future__ import annotations

import asyncio
import os
import signal
from pathlib import Path
from typing import Any, Dict, Optional

from .protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    JobNotFoundError,
    MalformedRequestError,
    ServeError,
    decode_message,
    encode_message,
    error_payload,
)
from .scheduler import Scheduler
from .state import ServerState
from .wire import spec_from_payload

__all__ = ["ServeServer", "default_socket_path"]


def default_socket_path() -> str:
    """``$REPRO_SERVE_SOCKET`` if set, else ``.repro-serve.sock`` in cwd."""
    return os.environ.get("REPRO_SERVE_SOCKET", ".repro-serve.sock")


class ServeServer:
    """Long-running job daemon over a local JSON API.

    Parameters
    ----------
    socket_path / host+port:
        Where to listen: a unix socket path (default) or a TCP endpoint
        (pass ``host``; ``socket_path`` is then ignored).
    workers:
        Worker-process pool size -- the maximum number of jobs executing
        concurrently.
    queue_size:
        Bounded queue capacity; submissions past it are rejected with the
        typed ``queue_full`` error (backpressure, not buffering).
    cache_dir / use_cache:
        The content-addressed result cache shared with the batch harness.
        Warm hits complete at submission time without consuming a worker
        slot; fresh results are stored by the workers (atomic writes).
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        workers: int = 2,
        queue_size: int = 16,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
    ) -> None:
        self.socket_path = socket_path if host is None else None
        if self.socket_path is None and host is None:
            self.socket_path = default_socket_path()
        self.host = host
        self.port = port
        self.state = ServerState(workers=workers, queue_capacity=queue_size)
        cache = None
        resolved_dir: Optional[str] = None
        if use_cache:
            from ..exec import ResultCache

            cache = ResultCache(cache_dir)
            resolved_dir = str(cache.cache_dir)
        self.scheduler = Scheduler(self.state, workers=workers,
                                   queue_size=queue_size, cache=cache,
                                   cache_dir=resolved_dir)
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown_requested = asyncio.Event()
        self._force = False
        self._signals_seen = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> str:
        """Bind and start serving; returns the printable address."""
        if self.host is not None:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port, limit=MAX_MESSAGE_BYTES)
            addr = self._server.sockets[0].getsockname()
            self.address = f"{addr[0]}:{addr[1]}"
            self.port = addr[1]
        else:
            path = Path(self.socket_path)
            if path.exists():  # stale socket from a dead daemon
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle, path=str(path), limit=MAX_MESSAGE_BYTES)
            self.address = str(path)
        return self.address

    def install_signal_handlers(self) -> bool:
        """SIGINT/SIGTERM -> graceful drain; a second signal -> force.

        Returns ``False`` when the loop cannot own signals (not the main
        thread -- e.g. the in-process test harness), which is fine: tests
        drive shutdown over the wire instead.
        """
        loop = asyncio.get_running_loop()
        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, self._on_signal)
        except (NotImplementedError, RuntimeError, ValueError):
            return False
        return True

    def _on_signal(self) -> None:
        self._signals_seen += 1
        self.request_shutdown(force=self._signals_seen > 1)

    def request_shutdown(self, force: bool = False) -> None:
        if force:
            self._force = True
        self._shutdown_requested.set()

    async def serve_until_shutdown(self) -> None:
        """Serve until a shutdown is requested, then drain and clean up."""
        await self._shutdown_requested.wait()
        forced = self._force
        await self.scheduler.begin_drain(force=forced)
        while self.scheduler.state.in_flight() or self.scheduler.running_count():
            if self._force and not forced:
                # a second signal arrived mid-drain: cancel what remains
                forced = True
                await self.scheduler.begin_drain(force=True)
            await asyncio.sleep(0.05)
        await self.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.socket_path is not None:
            try:
                Path(self.socket_path).unlink()
            except OSError:
                pass

    async def run(self) -> int:
        """``repro serve``'s body: bind, announce, serve, drain; exit 0."""
        address = await self.start()
        self.install_signal_handlers()
        kind = "unix socket" if self.host is None else "tcp"
        print(f"repro serve: listening on {kind} {address} "
              f"(workers={self.scheduler.workers}, "
              f"queue={self.scheduler.queue.maxsize})", flush=True)
        await self.serve_until_shutdown()
        print("repro serve: drained, exiting", flush=True)
        return 0

    # -- connection handling -----------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter,
                    message: Dict[str, Any]) -> None:
        writer.write(encode_message(message))
        await writer.drain()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, {
                        "event": "error",
                        "error": {"code": "malformed",
                                  "message": "message exceeds size limit"},
                    })
                    break
                if not line:
                    break
                try:
                    await self._dispatch(line, writer)
                except ConnectionError:
                    break
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, line: bytes, writer: asyncio.StreamWriter) -> None:
        """Handle one request line; malformed input answers, never kills."""
        try:
            message = decode_message(line)
            op = message.get("op")
            if op == "submit":
                await self._op_submit(message, writer)
            elif op == "wait":
                await self._op_wait(message, writer)
            elif op == "cancel":
                await self._op_cancel(message, writer)
            elif op == "jobs":
                await self._send(writer, {"event": "jobs",
                                          "jobs": self.state.jobs_payload()})
            elif op == "state":
                await self._send(writer, {
                    "event": "state",
                    **self.state.state_payload(
                        queued=len(self.scheduler.queue),
                        running=self.scheduler.running_count()),
                })
            elif op == "spans":
                await self._send(writer, {"event": "spans",
                                          "trace": self.state.spans_payload()})
            elif op == "shutdown":
                await self._send(writer, {"event": "shutting-down",
                                          "force": bool(message.get("force"))})
                self.request_shutdown(force=bool(message.get("force")))
            else:
                raise MalformedRequestError(f"unknown op {op!r}")
        except ServeError as err:
            await self._send(writer, {"event": "error",
                                      "error": error_payload(err)})

    async def _op_submit(self, message: Dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        client = str(message.get("client") or "anonymous")
        try:
            spec = spec_from_payload(message.get("job"))
            job = await self.scheduler.submit(spec, client)
        except ServeError as err:
            await self._send(writer, {"event": "rejected",
                                      "error": error_payload(err)})
            return
        await self._send(writer, {
            "event": "accepted",
            "job_id": job.job_id,
            "protocol": PROTOCOL_VERSION,
            "queued": len(self.scheduler.queue),
        })
        if message.get("wait", True):
            await self._stream_job(job, writer)

    async def _op_wait(self, message: Dict[str, Any],
                       writer: asyncio.StreamWriter) -> None:
        job = self._find_job(message)
        await self._stream_job(job, writer)

    async def _op_cancel(self, message: Dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        job = self._find_job(message)
        status = await self.scheduler.cancel(job)
        await self._send(writer, {"event": "cancelled", "job_id": job.job_id,
                                  "status": status})

    def _find_job(self, message: Dict[str, Any]):
        job_id = message.get("job_id")
        job = self.state.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise JobNotFoundError(f"unknown job id {job_id!r}")
        return job

    async def _stream_job(self, job, writer: asyncio.StreamWriter) -> None:
        """Send the job's event stream through its terminal ``done`` event.

        Late attachments replay the backlog first, so a ``wait`` after
        completion still yields the full ``started``/``partial``/``done``
        history.
        """
        seen = 0
        while True:
            if len(job.updates) > seen:
                new = job.updates[seen:]
            else:
                # every terminal transition appends a "done" event, so
                # waiting is safe even if the job just went terminal
                new = await job.wait_updates(seen)
            for event in new:
                await self._send(writer, event)
                seen += 1
                if event.get("event") == "done":
                    return
