"""The wire protocol: JSON objects, one per line, over a byte stream.

A connection carries any number of requests; the server answers each
with exactly one response line, in request order per connection (the
synthesis itself runs concurrently across connections). Both sides are
plain ``\\n``-terminated UTF-8 JSON — debuggable with ``nc``.

Request::

    {"id": 7, "op": "synthesize", "program": "<lasy source>",
     "timeout_s": 10.0, "schedule": "adaptive"}

``op`` is one of ``synthesize``, ``ping``, ``stats``, ``shutdown``.
``id`` is echoed back verbatim (any JSON value); omitted means null.
``schedule`` (optional) picks the example scheduler for this request —
``fifo`` (default) or ``adaptive`` (see docs/scheduling.md); an
unknown name is a ``bad-request``.

Response::

    {"id": 7, "ok": true, ...op-specific fields...}
    {"id": 7, "ok": false, "error": {"code": "overloaded",
     "message": "..."}}

Error codes: ``bad-request`` (malformed JSON / unknown op / missing
field), ``parse-error`` (LaSy source didn't parse), ``overloaded``
(admission control: queue full — retry later), ``internal``. A
*synthesis timeout* is not an error: the run truncates cooperatively
and the response reports ``ok: true`` with ``success: false`` and the
per-function ``timeout_reason`` (docs/service.md).
"""

from __future__ import annotations

import json
from typing import Any, Dict

PROTOCOL_VERSION = 1

# Refuse absurd lines before json.loads allocates; a LaSy program of
# this size is far beyond anything the engine can synthesize anyway.
MAX_LINE_BYTES = 4 * 1024 * 1024


class ProtocolError(Exception):
    """A malformed frame (not valid JSON, not an object, too large)."""


def encode(message: Dict[str, Any]) -> bytes:
    """One response/request as a newline-terminated JSON line."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON frame: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError("frame must be a JSON object")
    return message


def ok_response(request_id: Any, **fields: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {"id": request_id, "ok": True}
    out.update(fields)
    return out


def error_response(
    request_id: Any, code: str, message: str, **fields: Any
) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    out.update(fields)
    return out
