"""One JSON codec for every record the program writes or reads.

A record is a dataclass: an api request or result, a sweep, area or
yield row, an execution config, a job status or an artifact-retention
entry.  Its payload is its ``compare=True`` fields in declaration
order, so each field list is written once, in the class:

- on the way out, tuples become lists, the nested ``execution`` record
  goes through the same walk, and an optional block holding its "off"
  value (:data:`_OMIT_WHEN`) is left out;
- on the way in, fields named in the class's ``_TUPLE_FIELDS`` become
  tuples, ``execution: null`` reads as the default config, absent
  fields take their defaults, and a key that is neither a field nor a
  header key raises :class:`~repro.errors.RequestError` naming it.

The ``schema_version``/``type`` header is the api's
(:mod:`repro.api.serialize`); this module only skips it.  It imports
nothing from the rest of the program but :mod:`repro.errors`, so the
row modules under ``analysis`` and ``reliability`` can use it without
an import cycle through :mod:`repro.api`.
"""

from __future__ import annotations

from dataclasses import fields

from repro.errors import RequestError

#: Optional blocks left out of a payload while they hold this value:
#: payloads (and the artifact store's resume keys hashed from them)
#: stay byte-identical with telemetry and profiling off.
_OMIT_WHEN = {"metrics": None, "profile": None, "telemetry": False}

#: Header keys a payload may carry besides its fields.
_HEADER = ("schema_version", "type")


def to_dict(record) -> dict:
    """``record``'s JSON-ready payload, keys in field order."""
    out = {}
    for f in fields(record):
        if not f.compare:
            continue
        v = getattr(record, f.name)
        if f.name in _OMIT_WHEN and v is _OMIT_WHEN[f.name]:
            continue
        if f.name == "execution":
            v = to_dict(v)
        elif isinstance(v, tuple):
            v = list(v)
        out[f.name] = v
    return out


def from_dict(cls, d: dict, rows: dict | None = None):
    """The ``cls`` record ``d`` is the payload of (inverse of
    :func:`to_dict`).

    ``rows`` maps a field holding nested records to the function that
    reads one of them; that field comes back as a tuple.  Payloads
    arrive from outside the process, so an unknown key, a missing
    required field or a mistyped value raises
    :class:`~repro.errors.RequestError`.  ``TYPE_TAG`` (the class name
    when unset) names the record in the message.
    """
    label = getattr(cls, "TYPE_TAG", "") or cls.__name__
    if not isinstance(d, dict):
        raise RequestError(
            f"{label} payload must be a dict, got {type(d).__name__}"
        )
    known = {f.name: f for f in fields(cls) if f.compare}
    unknown = d.keys() - known.keys() - set(_HEADER)
    if unknown:
        # a typo'd key must not silently run with defaults
        raise RequestError(
            f"unknown {label} keys {sorted(unknown)} "
            f"(known: {', '.join(known)})"
        )
    tuples = getattr(cls, "_TUPLE_FIELDS", ())
    kwargs = {}
    try:
        for name, v in d.items():
            if name in _HEADER:
                continue
            if name == "execution":
                config = known[name].default_factory
                v = config() if v is None else from_dict(config, v)
            elif rows and name in rows:
                v = tuple(rows[name](row) for row in v)
            elif name in tuples and v is not None:
                v = tuple(v)
            kwargs[name] = v
        return cls(**kwargs)
    except RequestError:
        raise
    except (TypeError, KeyError) as exc:
        raise RequestError(f"malformed {label} payload: {exc}") from exc


class Record:
    """Mixin: a dataclass whose ``to_dict``/``from_dict`` are the codec's."""

    to_dict = to_dict
    from_dict = classmethod(from_dict)
