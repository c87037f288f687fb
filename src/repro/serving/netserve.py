"""Plain-socket line-protocol front-end and asyncio client for the gateway.

One JSON object per line, newline-terminated, over a TCP stream.  Request
fields: ``id`` (client-chosen, echoed back), ``tokens`` (int list),
``n_output``, and optionally ``tier``, ``temperature``, ``seed``.
Response fields: ``id`` plus either the served payload (``output``,
``hit_tokens``, ``prefilled_tokens``, ``from_response_cache``,
``ttft_seconds``) or an ``error`` object (``type``, ``reason``/
``message``).  Requests on one connection are served concurrently and
responses may arrive out of order — the ``id`` is the correlation key,
which is what lets a single connection keep many requests in flight.

This is deliberately a line protocol rather than HTTP: it keeps the
transport dependency-free (pure ``asyncio`` streams) while exercising the
same front-door semantics — admission rejections travel to the client as
typed errors, not dropped connections.  So does a line longer than
:data:`MAX_LINE_BYTES`: where the next request starts is lost with it, so
the server finishes what the connection already asked for, answers with an
id-less ``line_too_long`` error and closes; the client fails every request
still waiting with that error.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional

import numpy as np

from repro.serving.engine import DecodeParams
from repro.serving.gateway import AdmissionRejected, Gateway, GatewayError


#: Longest request or response line either end reads.  asyncio's default of
#: 64 KiB is about 9 000 tokens; the agent traces' requests run past 100 000,
#: at up to 8 bytes each as JSON.
MAX_LINE_BYTES = 8 * 1024 * 1024


async def _next_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """``reader.readline()``, except that a line over the stream's limit is
    read to its end, dropped and reported as ``None`` — closing on bytes
    still arriving would reset the connection under the error reply."""
    skipped = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as eof:
            line = eof.partial
        except asyncio.LimitOverrunError as over:
            await reader.readexactly(over.consumed)
            skipped = True
            continue
        return None if skipped else line


class GatewayServer:
    """Serves a :class:`Gateway` over a TCP line protocol."""

    def __init__(self, gateway: Gateway, host: str = "127.0.0.1", port: int = 0):
        self.gateway = gateway
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)`` (port 0 picks
        a free one)."""
        await self.gateway.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "GatewayServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close()
        return False

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                line = await _next_line(reader)
                if not line:  # end of stream, or None for an over-long line
                    break
                task = asyncio.create_task(
                    self._dispatch(line, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            if line is None:
                error = {
                    "type": "line_too_long",
                    "message": f"request line exceeds {MAX_LINE_BYTES} bytes",
                }
                await self._send({"id": None, "error": error}, writer, write_lock)
        finally:
            for task in pending:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _dispatch(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        request_id: Any = None
        try:
            request = json.loads(line)
            request_id = request.get("id")
            tokens = np.asarray(request["tokens"], dtype=np.int32)
            params = DecodeParams(
                temperature=float(request.get("temperature", 0.0)),
                seed=request.get("seed"),
            )
            result = await self.gateway.submit(
                tokens,
                int(request.get("n_output", 0)),
                tier=request.get("tier", "interactive"),
                params=params,
            )
            payload = {
                "id": request_id,
                "output": result.output_tokens.tolist(),
                "hit_tokens": result.hit_tokens,
                "prefilled_tokens": result.prefilled_tokens,
                "from_response_cache": result.from_response_cache,
                "ttft_seconds": result.ttft_seconds,
            }
        except AdmissionRejected as rejection:
            payload = {
                "id": request_id,
                "error": {
                    "type": "admission_rejected",
                    "reason": rejection.reason,
                    "tier": rejection.tier,
                },
            }
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            payload = {
                "id": request_id,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
        await self._send(payload, writer, write_lock)

    @staticmethod
    async def _send(
        payload: dict, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        data = (json.dumps(payload) + "\n").encode()
        async with write_lock:
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionError, OSError):  # pragma: no cover - client gone
                pass


class GatewayClientError(GatewayError):
    """Raised when the server answered a request with an error payload."""

    def __init__(self, error: dict):
        self.error = dict(error)
        super().__init__(
            f"{error.get('type', 'error')}: "
            f"{error.get('reason') or error.get('message') or ''}"
        )


class GatewayClient:
    """Asyncio client: multiplexes concurrent requests over one connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed: Optional[Exception] = None  # why the read loop ended
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "GatewayClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close()
        return False

    async def _read_loop(self) -> None:
        closed: Exception = ConnectionError("connection closed")
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = json.loads(line)
                if response.get("id") is None and "error" in response:
                    # The server gave up on the connection, not on one request.
                    closed = GatewayClientError(response["error"])
                    break
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except asyncio.CancelledError:
            pass
        finally:
            self._closed = closed
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(closed)
            self._pending.clear()

    async def request(
        self,
        tokens: Any,
        n_output: int,
        *,
        tier: str = "interactive",
        temperature: float = 0.0,
        seed: Optional[int] = None,
    ) -> dict:
        """Submit one request; resolves to the decoded response payload.

        Raises :class:`GatewayClientError` on a server-side error reply
        (admission rejections included — ``error["reason"]`` carries the
        typed shed reason).  The returned dict's ``output`` is an int32
        array.
        """
        if self._closed is not None:
            raise self._closed  # nobody is left to read the reply
        self._next_id += 1
        request_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        payload: dict[str, Any] = {
            "id": request_id,
            "tokens": np.asarray(tokens, dtype=np.int32).tolist(),
            "n_output": int(n_output),
            "tier": tier,
        }
        if temperature:
            payload["temperature"] = temperature
        if seed is not None:
            payload["seed"] = seed
        self._writer.write((json.dumps(payload) + "\n").encode())
        await self._writer.drain()
        response = await future
        if "error" in response:
            raise GatewayClientError(response["error"])
        response["output"] = np.asarray(response["output"], dtype=np.int32)
        return response

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
