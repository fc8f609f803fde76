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

#: The omit value of a field that is always written: no value is it.
_KEEP = object()


class _Plan:
    """What the codec reads of one record class, computed once: the
    ``compare=True`` fields in declaration order, each with its omit
    value (:data:`_KEEP` when it is always written) and whether it is
    the nested ``execution`` record, the known-key set, the tuple
    fields, the ``execution`` default and the label of messages."""

    __slots__ = ("out", "names", "accepted", "tuples", "config", "label")

    def __init__(self, cls) -> None:
        known = [f for f in fields(cls) if f.compare]
        self.out = tuple((f.name, _OMIT_WHEN.get(f.name, _KEEP),
                          f.name == "execution") for f in known)
        self.names = tuple(f.name for f in known)
        self.accepted = frozenset(self.names) | frozenset(_HEADER)
        self.tuples = frozenset(getattr(cls, "_TUPLE_FIELDS", ()))
        self.config = next((f.default_factory for f in known
                            if f.name == "execution"), None)
        self.label = getattr(cls, "TYPE_TAG", "") or cls.__name__


_PLANS: dict[type, _Plan] = {}


def _plan(cls) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = _Plan(cls)
    return plan


def to_dict(record) -> dict:
    """``record``'s JSON-ready payload, keys in field order."""
    out = {}
    for name, omit, nested in _plan(type(record)).out:
        v = getattr(record, name)
        if v is omit:
            continue
        if nested:
            v = to_dict(v)
        elif isinstance(v, tuple):
            v = list(v)
        out[name] = v
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
    plan = _plan(cls)
    label = plan.label
    if not isinstance(d, dict):
        raise RequestError(
            f"{label} payload must be a dict, got {type(d).__name__}"
        )
    unknown = d.keys() - plan.accepted
    if unknown:
        # a typo'd key must not silently run with defaults
        raise RequestError(
            f"unknown {label} keys {sorted(unknown)} "
            f"(known: {', '.join(plan.names)})"
        )
    tuples = plan.tuples
    kwargs = {}
    try:
        for name, v in d.items():
            if name in _HEADER:
                continue
            if name == "execution":
                config = plan.config
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
