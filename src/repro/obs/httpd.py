"""A tiny asyncio HTTP/1.1 server for the observability endpoints.

Serves ``GET`` only, from a route table of callables returning
``(content_type, body)`` — enough for ``/metrics`` (Prometheus text),
``/healthz`` (JSON liveness) and ``/trace`` (the span ring buffer as
JSONL).  Deliberately stdlib-only and separate from the protocol
transport: an operator's scrape must never contend with, or be able to
confuse, the RPC frame parser.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Callable, Dict, Optional, Tuple

logger = logging.getLogger("repro.obs.httpd")

#: A route handler: () -> (content type, body text).
RouteHandler = Callable[[], Tuple[str, str]]

#: Request lines above this size are abuse, not scrapes.
_MAX_REQUEST_BYTES = 8192


class ObsHttpServer:
    """Serve a route table over HTTP on a dedicated port."""

    def __init__(self, routes: Dict[str, RouteHandler]) -> None:
        self.routes = dict(routes)
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        self._server = await asyncio.start_server(self._serve, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:  # pragma: no cover - close is best effort
                pass
            self._server = None

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            request_line = await reader.readline()
            if len(request_line) > _MAX_REQUEST_BYTES:
                return
            # Drain headers; scrapes are one-shot, connection: close.
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                if len(line) > _MAX_REQUEST_BYTES:
                    return
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, path = parts[0], parts[1].split("?", 1)[0]
            if method != "GET":
                writer.write(_response(405, "text/plain; charset=utf-8",
                                       "method not allowed\n"))
            else:
                handler = self.routes.get(path)
                if handler is None:
                    writer.write(_response(
                        404, "text/plain; charset=utf-8",
                        f"no such endpoint: {path}\n"))
                else:
                    try:
                        content_type, body = handler()
                        writer.write(_response(200, content_type, body))
                    except Exception:
                        logger.exception("handler for %s failed", path)
                        writer.write(_response(
                            500, "text/plain; charset=utf-8",
                            "internal error\n"))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            # ValueError: a line past the stream's 64 KiB limit — abuse,
            # dropped like any other oversized request.
            pass
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover
                pass


_REASONS = {200: "OK", 404: "Not Found", 405: "Method Not Allowed",
            500: "Internal Server Error"}


def _response(status: int, content_type: str, body: str) -> bytes:
    payload = body.encode("utf-8")
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1") + payload


async def fetch(host: str, port: int, path: str,
                timeout: float = 5.0) -> Tuple[int, str]:
    """Minimal HTTP GET for tests and the CLI: ``(status, body)``."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout)
    try:
        writer.write((f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                      "Connection: close\r\n\r\n").encode("latin-1"))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:  # pragma: no cover
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    parts = status_line.split()
    status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
    return status, body.decode("utf-8", errors="replace")
