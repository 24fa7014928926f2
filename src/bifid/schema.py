"""Parse JSON documents into dataclasses, driven by their field declarations.

A field's type annotation is its JSON type, a default makes its key optional,
and ``field(metadata=...)`` adds constraints:

- ``ge`` / ``gt``: inclusive / strict minimum of a number, or of each entry
  of a list of numbers;
- ``choices``: the allowed values of a string, or of each entry of a list;
- ``ordered``: a ``[lower, upper]`` pair must have lower <= upper;
- ``shape``: the lengths of a nested list, as sizes or dimension names; one
  name takes one size throughout a parsed document.

A nested object takes the keys it leaves out from its field's default
instance, not from its class's defaults.  Numbers must be finite, booleans
are never numbers, and unknown keys are rejected.  Every error is a
``ConfigurationError`` that starts with the path of the offending key.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

from .errors import ConfigurationError

_SCALARS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
_ENTRY_CONSTRAINTS = ("ge", "gt", "choices")


def parse(cls, obj, path: str, hooks: dict | None = None, dims: dict | None = None,
          base=None):
    """Build ``cls`` from the JSON object ``obj``.

    ``hooks`` maps a type to the ``(value, path)`` function that parses it;
    ``dims`` holds the sizes bound so far by ``shape`` constraints; ``base``,
    an instance of ``cls``, gives the keys ``obj`` leaves out.
    """
    hooks = {} if hooks is None else hooks
    dims = {} if dims is None else dims
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: expected an object")
    declared = fields(cls)
    unknown = sorted(set(obj) - {f.name for f in declared})
    if unknown:
        raise ConfigurationError(f"{path}: unknown key {unknown[0]!r}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in declared:
        key = f"{path}.{f.name}"
        if f.name in obj:
            kwargs[f.name] = _value(hints[f.name], obj[f.name], key, f.metadata, hooks, dims,
                                    _default(f))
        elif base is not None:
            kwargs[f.name] = getattr(base, f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigurationError(f"{key}: required")
    try:
        return cls(**kwargs)
    except ConfigurationError as e:
        raise ConfigurationError(f"{path}: {e}") from e


def _default(f):
    if f.default_factory is not MISSING:
        return f.default_factory()
    return None if f.default is MISSING else f.default


def _value(hint, value, path, meta, hooks, dims, default=None):
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        options = typing.get_args(hint)
        if value is None and type(None) in options:
            return None
        hint = next(t for t in options if t is not type(None))
    if hint in hooks:
        return hooks[hint](value, path)
    if is_dataclass(hint):
        return parse(hint, value, path, hooks, dims, default)
    if typing.get_origin(hint) is tuple:
        return _sequence(hint, value, path, meta, hooks, dims)
    return _scalar(hint, value, path, meta)


def _sequence(hint, value, path, meta, hooks, dims):
    if not isinstance(value, list):
        raise ConfigurationError(f"{path}: expected a list")
    types_ = typing.get_args(hint)
    if types_[-1] is Ellipsis:
        types_ = (types_[0],) * len(value)
    elif len(value) != len(types_):
        raise ConfigurationError(f"{path}: expected {len(types_)} entries, got {len(value)}")
    inner = {k: v for k, v in meta.items() if k in _ENTRY_CONSTRAINTS}
    out = tuple(_value(t, v, f"{path}[{i}]", inner, hooks, dims)
                for i, (t, v) in enumerate(zip(types_, value)))
    if meta.get("ordered") and out[0] > out[1]:
        raise ConfigurationError(f"{path}: lower bound {out[0]} exceeds upper bound {out[1]}")
    if "shape" in meta:
        _check_shape(out, meta["shape"], path, dims)
    return out


def _check_shape(value, shape, path, dims) -> None:
    name = shape[0]
    want = name if isinstance(name, int) else dims.setdefault(name, len(value))
    if len(value) != want:
        raise ConfigurationError(f"{path}: has {len(value)} entries, expected {want} ({name})")
    if len(shape) > 1:
        for i, entry in enumerate(value):
            _check_shape(entry, shape[1:], f"{path}[{i}]", dims)


def _scalar(hint, value, path, meta):
    if hint not in _SCALARS:
        raise TypeError(f"{path}: no JSON form for {hint!r}")
    ok = isinstance(value, (int, float) if hint is float else hint)
    if not ok or (hint is not bool and isinstance(value, bool)):
        raise ConfigurationError(f"{path}: expected {_SCALARS[hint]}")
    if hint is float:
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigurationError(f"{path}: must be finite")
    if "ge" in meta and not value >= meta["ge"]:
        raise ConfigurationError(f"{path}: must be >= {meta['ge']}")
    if "gt" in meta and not value > meta["gt"]:
        raise ConfigurationError(f"{path}: must be > {meta['gt']}")
    if "choices" in meta and value not in meta["choices"]:
        raise ConfigurationError(
            f"{path}: {value!r} is not one of {', '.join(map(repr, meta['choices']))}")
    return value
