"""The campaign store's cell codec, driven by the result types themselves.

Every store cell is one result dataclass (or a ``Dict[str, ...]`` of them)
rendered as JSON.  Rather than a hand-written encode/decode pair per type,
:func:`encode` and :func:`decode` read the type's ``dataclasses.fields`` and
``typing.get_type_hints`` and compile one converter per type, cached for
the life of the process.  Adding or changing a result field therefore needs
no codec edit: the field list *is* the codec.

Supported field shapes — exactly what the registered result types use:

* ``str``, ``int``, ``float``, ``bool``;
* ``Optional[X]``, ``List[X]``, fixed-length ``Tuple[X, Y, ...]`` and
  ``Dict[str, X]``;
* nested dataclasses, encoded as a mapping of field name to value.

Encoding writes one key per field, in field order, scalars as they are
and every sequence as a JSON list.  Decoding coerces each scalar with its
type (``float()``, ``int()``, ``bool()``, ``str()``), passes ``None``
through ``Optional`` and restores tuples, so ``decode(tp, encode(tp, x))
== x`` field for field even after a trip through JSON.  A type outside
these shapes raises ``TypeError`` when its converter is compiled; a
payload missing a field raises ``KeyError`` and a tuple of the wrong
length ``ValueError``.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Callable

__all__ = ["encode", "decode"]

_SCALARS = (str, int, float, bool)
_NONE = type(None)


def encode(tp: Any, value: Any) -> Any:
    """Render ``value`` of type ``tp`` as JSON-compatible data."""
    return _encoder(tp)(value)


def decode(tp: Any, payload: Any) -> Any:
    """Rebuild a value of type ``tp`` from what :func:`encode` wrote."""
    return _decoder(tp)(payload)


def _identity(value: Any) -> Any:
    return value


def _shape(tp: Any) -> tuple:
    """``(kind, argument types)`` of one supported type; ``TypeError`` otherwise."""
    if tp in _SCALARS:
        return "scalar", ()
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return "dataclass", tuple((f.name, hints[f.name]) for f in dataclasses.fields(tp))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and len(args) == 2 and _NONE in args:
        return "optional", tuple(arg for arg in args if arg is not _NONE)
    if origin is list and len(args) == 1:
        return "list", args
    if origin is tuple and args and Ellipsis not in args:
        return "tuple", args
    if origin is dict and len(args) == 2 and args[0] is str:
        return "dict", args[1:]
    raise TypeError(f"no store codec for type {tp!r}")


@functools.lru_cache(maxsize=None)
def _encoder(tp: Any) -> Callable[[Any], Any]:
    kind, args = _shape(tp)
    if kind == "scalar":
        return _identity
    if kind == "dataclass":
        fields = [(name, _encoder(hint)) for name, hint in args]
        return lambda value: {name: enc(getattr(value, name)) for name, enc in fields}
    encs = [_encoder(arg) for arg in args]
    if all(enc is _identity for enc in encs):
        # Scalars inside: copying into a JSON list or dict is the whole job.
        return {"optional": _identity, "list": list, "tuple": list, "dict": dict}[kind]
    enc = encs[0]
    if kind == "optional":
        return lambda value: None if value is None else enc(value)
    if kind == "tuple":
        return lambda value: [item_enc(item) for item_enc, item in zip(encs, value)]
    if kind == "list":
        return lambda value: [enc(item) for item in value]
    return lambda value: {key: enc(item) for key, item in value.items()}


@functools.lru_cache(maxsize=None)
def _decoder(tp: Any) -> Callable[[Any], Any]:
    kind, args = _shape(tp)
    if kind == "scalar":
        return tp
    if kind == "dataclass":
        fields = [(name, _decoder(hint)) for name, hint in args]
        return lambda payload: tp(**{name: dec(payload[name]) for name, dec in fields})
    decs = [_decoder(arg) for arg in args]
    dec = decs[0]
    if kind == "optional":
        return lambda payload: None if payload is None else dec(payload)
    if kind == "tuple":
        def restore_tuple(payload: Any) -> tuple:
            if len(payload) != len(decs):
                raise ValueError(f"expected {len(decs)} items for {tp!r}, got {len(payload)}")
            return tuple(item_dec(item) for item_dec, item in zip(decs, payload))

        return restore_tuple
    if kind == "list":
        return lambda payload: [dec(item) for item in payload]
    return lambda payload: {key: dec(item) for key, item in payload.items()}
