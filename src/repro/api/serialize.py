"""Versioned JSON (de)serialization contract for the public api.

A payload's body is the record codec's (:mod:`repro.utils.records`):
the type's ``compare=True`` fields in declaration order, with every
unknown key rejected.  This module adds the header every request,
result and job-status payload carries:

- :func:`stamp` adds the ``schema_version`` and ``type`` fields,
- :func:`check` validates them on the way back in, raising
  :class:`~repro.errors.RequestError` on a missing/unsupported version
  or a mismatched type tag.

``from_dict(to_dict(x)) == x`` is the round-trip contract the test
suite pins for every record type; bump :data:`SCHEMA_VERSION` whenever
a serialized shape changes incompatibly.
"""

from __future__ import annotations

from repro.errors import RequestError

#: Version of the request/result JSON contract.  Readers accept
#: payloads stamped with any version up to their own and reject newer
#: ones (forward compatibility is explicit, never silent).
SCHEMA_VERSION = 1


def stamp(type_tag: str, payload: dict) -> dict:
    """``payload`` with the contract's ``schema_version``/``type`` header."""
    out = {"schema_version": SCHEMA_VERSION, "type": type_tag}
    out.update(payload)
    return out


def check(d: dict, type_tag: str) -> dict:
    """Validate a serialized payload's header; returns ``d`` unchanged."""
    if not isinstance(d, dict):
        raise RequestError(f"expected a dict payload, got {type(d).__name__}")
    version = d.get("schema_version")
    if version is None:
        raise RequestError(f"payload for {type_tag!r} lacks schema_version")
    if not isinstance(version, int) or not 1 <= version <= SCHEMA_VERSION:
        raise RequestError(
            f"unsupported schema_version {version!r} for {type_tag!r} "
            f"(this library reads versions 1..{SCHEMA_VERSION})"
        )
    tag = d.get("type")
    if tag is not None and tag != type_tag:
        raise RequestError(
            f"payload type {tag!r} does not match expected {type_tag!r}"
        )
    return d
