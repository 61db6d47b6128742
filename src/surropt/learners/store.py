"""Versioned on-disk model format.

A model file is a deterministic zip archive of one model dataclass's
fields.  Each ``np.ndarray`` field is the .npy member of its name, a field
holding a dataclass (``GbdtParams``, ``LossSpec``) is a JSON object in the
header ``meta.json``, and every other field is a header value, beside
``format_version`` and ``kind``.  Arrays round-trip bit-exactly, so save ->
load -> predict is bit-identical to the in-memory model.  The header is
read by ``util.read_fields``, as the config file is: each value, a
dataclass's fields too, passes ``util.coerce``'s type rule and is kept as
coerced, and a key whose field has a default may be left out.  A file that
lacks a field, holds a key or member that is not one, holds a value of the
wrong type, or that the model's constructor (which checks the arrays)
refuses raises ``InputError`` naming it.
"""

from __future__ import annotations

from dataclasses import asdict, fields, is_dataclass

import numpy as np

from ..errors import ConfigError, InputError
from ..util import load_arrays, read_fields, save_arrays
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
    """The ``kind`` model: each array field is its member, the header the rest."""
    kind = meta.pop("kind", None)
    cls = KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown model kind {kind!r:.60}")
    members = [f.name for f in fields(cls) if f.type == "np.ndarray"]
    if unknown := sorted(f"{a}.npy" for a in arrays.keys() - set(members)):
        raise ValueError(f"unknown {kind} member(s) {', '.join(unknown)}")
    return read_fields(cls, meta, kind, InputError, **{name: arrays[name] for name in members})
