"""Versioned on-disk model format.

A model file is a deterministic zip archive of one model dataclass's
fields.  Each ``np.ndarray`` field is the .npy member of its name, a field
holding a dataclass (``GbdtParams``, ``LossSpec``) is a JSON object in the
header ``meta.json``, and every other field is a header value, beside
``format_version`` and ``kind``.  Arrays round-trip bit-exactly, so save ->
load -> predict is bit-identical to the in-memory model.  Loading checks
each header value, a dataclass's fields too, by the config file's type
rule (``util.coerce``: no bool, string or fraction passes for a number or
an integer), and rebuilds the model through its constructor, which checks
the arrays; a file that lacks a field, holds a key or member that is not
one, holds a value of the wrong type, or that the constructor refuses
raises ``InputError`` naming it.
"""

from __future__ import annotations

from dataclasses import asdict, fields, is_dataclass
from typing import get_type_hints

import numpy as np

from ..errors import ConfigError, InputError
from ..util import coerce, load_arrays, save_arrays
from .gbdt import GbdtModel
from .ridge import RidgeModel
from .svr import SvrModel

FORMAT_VERSION = 2
KINDS = {"ridge": RidgeModel, "gbdt": GbdtModel, "svr": SvrModel}


def save_model(path, model) -> None:
    kind = next((k for k, cls in KINDS.items() if type(model) is cls), None)
    if kind is None:
        raise InputError(f"cannot serialize model of type {type(model).__name__}")
    values = {f.name: getattr(model, f.name) for f in fields(model)}
    meta = {k: asdict(v) if is_dataclass(v) else v for k, v in values.items() if not isinstance(v, np.ndarray)}
    arrays = {k: v for k, v in values.items() if isinstance(v, np.ndarray)}
    save_arrays(path, {"format_version": FORMAT_VERSION, "kind": kind, **meta}, arrays)


def load_model(path):
    """Read a model file; a malformed one raises ``InputError`` naming it."""
    meta, arrays = load_arrays(path)
    version = meta.pop("format_version", None)
    if type(version) is not int or version != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported model format version {version}")
    try:
        return _model_from(meta, arrays)
    except KeyError as exc:
        raise InputError(f"{path}: model file lacks {exc}") from None
    except (ConfigError, InputError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed model file ({exc})") from None


def _model_from(meta: dict, arrays: dict):
    """The ``kind`` model of the members and the rest of the header: an array
    field is its member, and any other field its header value."""
    cls = KINDS.get(kind := meta.pop("kind", None))
    if cls is None:
        raise ValueError(f"unknown model kind {kind!r}")
    types = _field_types(cls)
    members = {name for name, t in types.items() if t is np.ndarray}
    unknown = sorted(meta.keys() - (types.keys() - members)) + sorted(f"{a}.npy" for a in arrays.keys() - members)
    if unknown:
        raise ValueError(f"unknown {kind} key(s) or member(s) {', '.join(unknown)}")
    return cls(**{
        name: arrays[name] if t is np.ndarray else _value(meta[name], t, name) for name, t in types.items()
    })


def _field_types(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _value(value, t, where: str):
    """A header value checked against its declared type ``t`` by the config
    file's rule and kept as written, so that a loaded model saves to the
    same bytes; a dataclass is built from a JSON object of its fields."""
    if not is_dataclass(t):
        coerce(value, t.__name__, where, InputError)
        return value
    types = _field_types(t)
    if unknown := sorted(coerce(value, "dict", where, InputError).keys() - types.keys()):
        raise ValueError(f"unknown {where} key(s) {', '.join(unknown)}")
    return t(**{name: _value(value[name], u, f"{where}.{name}") for name, u in types.items()})
