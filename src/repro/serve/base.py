"""Shared HTTP/JSON server plumbing for the serve layer.

Two servers speak the same minimal HTTP dialect: the single-engine
:class:`~repro.serve.server.SeedQueryServer` and the sharded
:class:`~repro.serve.cluster.frontend.ClusterFrontend`.  Everything
protocol-shaped lives here so they cannot drift apart:

* :class:`JsonHTTPServer` — listener lifecycle (``port=0`` resolution,
  graceful listener close), the per-connection keep-alive loop, and
  response rendering for JSON payloads, :class:`TextResponse` bodies,
  and per-response extra headers (``Retry-After`` on 503s).
* :func:`parse_query_params` — the one validator for the seed-query
  request shape ``{k, bound, alpha_target | epsilon, rr_budget}``,
  used by ``POST /query`` and the cluster's ``POST /jobs`` alike.

Subclasses implement ``_dispatch(request)`` returning
``(status, payload)`` or ``(status, payload, headers)``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.opim import BOUND_VARIANTS
from repro.exceptions import ParameterError
from repro.obs import resolve_registry
from repro.sampling.hop import DEFAULT_HOPS
from repro.serve.engine import SeedQueryEngine
from repro.serve.http import (
    ProtocolError,
    Request,
    TextResponse,
    read_request,
    render_response,
    render_text_response,
)

#: A dispatch result payload: JSON dict or verbatim text.
Payload = Union[Dict[str, Any], TextResponse]

#: What ``_dispatch`` may return: with or without extra headers.
DispatchResult = Union[
    Tuple[int, Payload], Tuple[int, Payload, Optional[Dict[str, str]]]
]


def parse_query_params(
    params: Dict[str, Any], extra_fields: Tuple[str, ...] = ()
) -> Dict[str, Any]:
    """Validate one seed-query request body into canonical fields.

    Returns ``{"k", "bound", "target", "rr_budget"}`` with the target
    already normalized through
    :meth:`SeedQueryEngine.resolve_target`.  ``extra_fields`` names
    additional keys the caller accepts (the cluster adds ``graph``);
    anything else is a :class:`ParameterError`.
    """
    known = {"k", "bound", "alpha_target", "epsilon", "rr_budget"}
    known.update(extra_fields)
    unknown = set(params) - known
    if unknown:
        raise ParameterError(f"unknown query fields: {sorted(unknown)}")
    try:
        k = int(params["k"])
    except KeyError:
        raise ParameterError("missing required field: k")
    except (TypeError, ValueError):
        raise ParameterError(f"k must be an integer, got {params['k']!r}")
    bound = str(params.get("bound", "greedy"))
    if bound not in BOUND_VARIANTS:
        raise ParameterError(
            f"bound must be one of {BOUND_VARIANTS}, got {bound!r}"
        )
    alpha_target = params.get("alpha_target")
    epsilon = params.get("epsilon")
    rr_budget = params.get("rr_budget")
    target = SeedQueryEngine.resolve_target(
        None if alpha_target is None else float(alpha_target),
        None if epsilon is None else float(epsilon),
    )
    return {
        "k": k,
        "bound": bound,
        "target": target,
        "rr_budget": None if rr_budget is None else int(rr_budget),
    }


def parse_hop_params(
    params: Dict[str, Any], extra_fields: Tuple[str, ...] = ()
) -> Dict[str, Any]:
    """Validate a ``precision="hop"`` preview-query request body.

    Returns ``{"k", "seeds", "hops"}`` with exactly one of ``k`` /
    ``seeds`` set: ``k`` asks for a hop-scored seed preview, ``seeds``
    for a what-if spread evaluation of the given node list.  Used by
    the single-engine server and the cluster front end alike, so the
    no-guarantee fast path has one request shape.
    """
    known = {"precision", "k", "seeds", "hops"}
    known.update(extra_fields)
    unknown = set(params) - known
    if unknown:
        raise ParameterError(f"unknown hop-query fields: {sorted(unknown)}")
    k = params.get("k")
    seeds = params.get("seeds")
    if (k is None) == (seeds is None):
        raise ParameterError(
            "hop queries take exactly one of k (seed preview) and "
            "seeds (what-if evaluation)"
        )
    if k is not None:
        try:
            k = int(k)
        except (TypeError, ValueError):
            raise ParameterError(f"k must be an integer, got {k!r}")
    if seeds is not None:
        if not isinstance(seeds, (list, tuple)) or not seeds:
            raise ParameterError("seeds must be a non-empty list of node ids")
        try:
            seeds = [int(s) for s in seeds]
        except (TypeError, ValueError):
            raise ParameterError(f"seeds must be integers, got {seeds!r}")
    hops = params.get("hops", DEFAULT_HOPS)
    try:
        hops = int(hops)
    except (TypeError, ValueError):
        raise ParameterError(f"hops must be an integer, got {hops!r}")
    return {"k": k, "seeds": seeds, "hops": hops}


def split_path(path: str) -> Tuple[Tuple[str, ...], Dict[str, str]]:
    """Split a request path into segments and flat query parameters.

    ``/jobs/ab12/result?wait=2`` -> ``(("jobs", "ab12", "result"),
    {"wait": "2"})``.  Duplicate query keys keep the last value; no
    percent-decoding (ids and numbers only on this internal API).
    """
    path, _, query_text = path.partition("?")
    segments = tuple(part for part in path.split("/") if part)
    query: Dict[str, str] = {}
    if query_text:
        for item in query_text.split("&"):
            name, _, value = item.partition("=")
            if name:
                query[name] = value
    return segments, query


class JsonHTTPServer:
    """Listener lifecycle + connection loop shared by both servers."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[object] = None,
    ) -> None:
        self.host = host
        self._requested_port = int(port)
        self.obs = resolve_registry(registry)
        self._server: Optional[asyncio.base_events.Server] = None
        self._bound_port: Optional[int] = None
        self._draining = False
        self._closed = False
        # Keep-alive connections waiting in read_request: handler task
        # -> its writer.
        self._idle: Dict["asyncio.Task[None]", asyncio.StreamWriter] = {}

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0``)."""
        if self._bound_port is None:
            return self._requested_port
        return self._bound_port

    async def _start_listener(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]

    async def _stop_listener(self) -> None:
        """Stop accepting; open keep-alive connections stay served.

        No ``wait_closed``: on Python 3.12+ it waits for every open
        connection, which would hold the drain until clients hang up.
        """
        if self._server is not None:
            self._server.close()

    async def _close_connections(self) -> None:
        """Close every keep-alive connection idle in ``read_request`` and
        wait for those handlers to return; call once ``_closed`` is set.

        Left open, an idle handler would be cancelled at loop teardown,
        which asyncio logs as an "Exception in callback" on Python 3.11.
        Closing its connection ends the read at EOF instead, so the
        handler returns normally.  A handler busy with a request
        answers it with ``Connection: close`` and then closes.
        """
        idle = dict(self._idle)
        for writer in idle.values():
            writer.close()
        await asyncio.gather(*idle, return_exceptions=True)

    async def _dispatch(self, request: Request) -> DispatchResult:
        raise NotImplementedError

    async def _next_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Request]:
        """``read_request``, with this connection listed as idle while
        it waits, so that :meth:`_close_connections` can close it."""
        task = asyncio.current_task()
        assert task is not None
        self._idle[task] = writer
        try:
            return await read_request(reader)
        finally:
            del self._idle[task]

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._closed:
                try:
                    request = await self._next_request(reader, writer)
                except ProtocolError as exc:
                    writer.write(
                        render_response(
                            400, {"error": str(exc)}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                result = await self._dispatch(request)
                status, payload = result[0], result[1]
                headers = result[2] if len(result) > 2 else None
                keep_alive = request.keep_alive and not self._closed
                if isinstance(payload, TextResponse):
                    writer.write(
                        render_text_response(
                            status,
                            payload.text,
                            payload.content_type,
                            keep_alive,
                            headers,
                        )
                    )
                else:
                    writer.write(
                        render_response(
                            status, payload, keep_alive, headers
                        )
                    )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, OSError):  # pragma: no cover - client vanished
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
