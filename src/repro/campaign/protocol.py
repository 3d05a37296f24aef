"""Wire protocol shared by the campaign coordinator and its workers.

Everything on the wire is JSON over HTTP/1.1 (stdlib only: ``http.server``
on the coordinator, ``http.client`` here).  Configurations never travel:
a campaign is identified by a small **spec descriptor** — the figure name
plus the CLI downsizing knobs — and both sides expand it independently
through :func:`repro.sweep.cli.build_spec` and prepare it with
:func:`repro.sweep.runner.prepare_cases`.  The deterministic grids make
both expansions identical, which the worker verifies case by case against
the ``(label, config_hash)`` identities the coordinator leases out; a
mismatch (version skew between hosts) aborts loudly instead of corrupting
the store.

Endpoints (all responses are JSON bodies with HTTP 200):

===========  ======  ====================================================
``/spec``    GET     descriptor + execution knobs for joining workers
``/status``  GET     board snapshot, store path, worker census
``/lease``   POST    ``{worker}`` -> a shard lease, ``wait`` or ``complete``
``/heartbeat``  POST ``{worker, lease_id}`` -> ``{ok}`` (``false`` = abandon)
``/results`` POST    ``{worker, lease_id, records, done}`` -> merge ack
===========  ======  ====================================================

The wire is built for many small round trips:

* **Persistent connections.**  A :class:`CoordinatorClient` keeps one
  keep-alive connection per calling thread (a worker's main loop and its
  heartbeat pump each hold one), and both ends turn Nagle's algorithm off,
  so a round trip costs no handshake and no delayed-ACK stall.
* **Severed on stop.**  ``CoordinatorServer.stop()`` shuts every open
  connection down.  A client whose *reused* connection fails reconnects
  once before the call counts as :class:`CoordinatorUnreachable`, so it
  finds a coordinator restarted on the same port instead of a dead one.
* **``done`` on the last record.**  A worker streams records one per
  ``/results`` POST, so a killed worker loses at most its in-flight case,
  and retires a finished shard by setting ``done`` on its last record's
  POST: a shard of *n* cases costs *n* POSTs.
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
from typing import Dict, List, Optional
from urllib.parse import urlsplit

__all__ = [
    "CoordinatorClient",
    "CoordinatorUnreachable",
    "DESCRIPTOR_KNOBS",
    "PROTOCOL_VERSION",
    "campaign_cases",
    "resolve_spec",
    "spec_descriptor",
]

#: Bumped on incompatible wire or sharding changes; both sides check it.
PROTOCOL_VERSION = 1

#: Descriptor knobs and their defaults — mirrors the ``repro.sweep`` CLI
#: parser so a descriptor names the same grid a local sweep would run.
DESCRIPTOR_KNOBS: Dict[str, object] = {
    "steps": 4,
    "steps_cap": 64,
    "sim_ranks": 4,
    "data_mib": 32,
    "cores": "",
}


def spec_descriptor(figure: str, **knobs: object) -> Dict[str, object]:
    """A self-contained, JSON-safe description of one figure sweep.

    ``figure`` must be one of :data:`repro.sweep.cli.FIGURES`; ``knobs``
    may override any :data:`DESCRIPTOR_KNOBS` entry (unknown knobs are
    rejected so typos cannot silently shard a different grid).
    """
    from repro.sweep.cli import FIGURES

    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; known: {list(FIGURES)}")
    unknown = sorted(set(knobs) - set(DESCRIPTOR_KNOBS))
    if unknown:
        raise ValueError(f"unknown descriptor knob(s) {unknown}; known: {sorted(DESCRIPTOR_KNOBS)}")
    descriptor: Dict[str, object] = {"version": PROTOCOL_VERSION, "figure": figure}
    descriptor.update(DESCRIPTOR_KNOBS)
    descriptor.update(knobs)
    return descriptor


def resolve_spec(descriptor: Dict[str, object]):
    """Expand a descriptor into the :class:`~repro.sweep.spec.SweepSpec` it names."""
    from repro.sweep.cli import build_spec

    version = descriptor.get("version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ValueError(
            f"campaign protocol version mismatch: descriptor has {version}, "
            f"this host speaks {PROTOCOL_VERSION}"
        )
    namespace = argparse.Namespace(figure=descriptor["figure"])
    for knob, default in DESCRIPTOR_KNOBS.items():
        setattr(namespace, knob, descriptor.get(knob, default))
    return build_spec(namespace)


def campaign_cases(descriptor: Dict[str, object]):
    """The prepared, shard-addressable case list both sides agree on.

    Preparation matches a plain ``python -m repro.sweep`` run (label-derived
    reseeding, traces off), so the records a campaign merges are the records
    a single-host sweep of the same descriptor would write.
    """
    from repro.sweep.runner import prepare_cases

    return prepare_cases(resolve_spec(descriptor), reseed=True, trace=False)


class CoordinatorUnreachable(RuntimeError):
    """The coordinator did not answer (down, restarting, or unreachable)."""


class _ThreadConnection(threading.local):
    """The calling thread's persistent connection (``None`` until first use)."""

    connection: Optional[http.client.HTTPConnection] = None


def request_json(
    keepalive: _ThreadConnection,
    url: str,
    payload: Optional[Dict[str, object]] = None,
    timeout: float = 10.0,
) -> Dict[str, object]:
    """One JSON round trip: GET (``payload=None``) or POST ``payload``.

    The round trip uses the calling thread's connection held in
    ``keepalive`` (opened on first use, so every call sharing one
    ``keepalive`` must go to the same host) and leaves it open for the next
    call.  A failure on a connection that already carried a request earns
    one fresh connect: the coordinator may have closed it since, by
    stopping or restarting.

    Transport-level failures raise :class:`CoordinatorUnreachable` (callers
    retry those — the coordinator may simply be restarting); an HTTP error
    status or a non-object body raises ``RuntimeError`` (a protocol bug, not
    worth retrying).
    """
    parts = urlsplit(url)
    if parts.scheme != "http" or not parts.hostname:
        raise ValueError(f"not an http:// URL: {url!r}")
    method, data, headers = "GET", None, {}
    if payload is not None:
        method = "POST"
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    connection = keepalive.connection
    if connection is None:
        connection = keepalive.connection = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=timeout
        )
    tries = 2 if connection.sock is not None else 1
    for attempt in range(tries):
        try:
            connection.request(method, parts.path or "/", body=data, headers=headers)
            response = connection.getresponse()
            body = response.read()
            break
        except (http.client.HTTPException, OSError) as exc:
            connection.close()  # the next request reconnects
            if attempt == tries - 1:
                raise CoordinatorUnreachable(f"{url}: {exc}") from exc
    if response.status >= 400:
        raise RuntimeError(f"{url}: HTTP {response.status} {response.reason}")
    decoded = json.loads(body.decode("utf-8"))
    if not isinstance(decoded, dict):
        raise RuntimeError(f"{url}: expected a JSON object, got {type(decoded).__name__}")
    return decoded


class CoordinatorClient:
    """Typed JSON client for the coordinator's endpoints.

    Each calling thread keeps one persistent connection, because a worker's
    heartbeat pump shares the client from its own thread.  A thread that is
    done with the client calls :meth:`close` (or leaves a ``with`` block),
    so its connection does not outlive it.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._keepalive = _ThreadConnection()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CoordinatorClient {self.base_url!r}>"

    def __enter__(self) -> "CoordinatorClient":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the calling thread's connection (a later call reconnects)."""
        if self._keepalive.connection is not None:
            self._keepalive.connection.close()

    def _request(
        self, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        return request_json(self._keepalive, f"{self.base_url}{path}", payload, self.timeout)

    def spec(self) -> Dict[str, object]:
        """The campaign's descriptor and execution knobs."""
        return self._request("/spec")

    def status(self) -> Dict[str, object]:
        """The coordinator's live status snapshot."""
        return self._request("/status")

    def lease(self, worker: str) -> Dict[str, object]:
        """Request the next shard lease for ``worker``."""
        return self._request("/lease", {"worker": worker})

    def heartbeat(self, worker: str, lease_id: str) -> Dict[str, object]:
        """Keep a lease alive; ``{"ok": false}`` means it was reclaimed."""
        return self._request("/heartbeat", {"worker": worker, "lease_id": lease_id})

    def results(
        self,
        worker: str,
        lease_id: str,
        records: List[Dict[str, object]],
        done: bool = False,
    ) -> Dict[str, object]:
        """Stream a batch of record payloads back; ``done`` retires the lease."""
        return self._request(
            "/results",
            {"worker": worker, "lease_id": lease_id, "records": records, "done": done},
        )
