"""Shared plumbing: seeded RNG streams, deterministic archives, typed JSON
values and the one reader of dataclass trees, config digests.

All randomness in the package flows through :func:`stream` so that every
consumer owns an independent, reproducible generator derived from a single
master seed.  Streams are keyed by a short ASCII tag plus optional integer
indices; the same (seed, tag, indices) always yields the same PCG64 state.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import zipfile
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, InputError

# Stream tags used across the package. Kept in one place so seeds never
# collide between subsystems.
TAG_DATASET_DEMAND = 1  # realized demand during dataset generation
TAG_SAA_SCENARIO = 2    # the oracle's daily scenario draws
TAG_ROLLOUT_DEMAND = 3  # fresh demand during surrogate evaluation
TAG_LEARNER = 4         # subsampling inside learners


def stream(seed: int, tag: int, *indices: int) -> np.random.Generator:
    """Return a PCG64 generator for the (seed, tag, indices) stream.

    Independent streams are derived through ``SeedSequence`` spawn keys, so
    workers can draw concurrently without sharing state.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(tag, *map(int, indices)))
    return np.random.default_rng(ss)


def save_arrays(path, meta: dict, arrays: dict) -> None:
    """Write a deterministic zip archive of .npy members plus a JSON header.

    Unlike ``np.savez`` the member timestamps are pinned, so identical inputs
    produce byte-identical files.
    """
    order = sorted(arrays)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        info = zipfile.ZipInfo("meta.json", date_time=(1980, 1, 1, 0, 0, 0))
        zf.writestr(info, json.dumps(meta, sort_keys=True, indent=1))
        for name in order:
            buf = io.BytesIO()
            np.save(buf, np.ascontiguousarray(arrays[name]))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def load_arrays(path):
    """Read back an archive written by :func:`save_arrays`.

    A file that is not such an archive raises ``InputError`` naming it."""
    arrays = {}
    try:
        with zipfile.ZipFile(path, "r") as zf:
            meta = json.loads(zf.read("meta.json").decode("utf-8"))
            for name in zf.namelist():
                if name.endswith(".npy"):
                    arrays[name[:-4]] = np.load(io.BytesIO(zf.read(name)), allow_pickle=False)
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
        raise InputError(f"{path}: not a readable archive ({type(exc).__name__}: {exc})") from None
    if not isinstance(meta, dict):
        raise InputError(f"{path}: meta.json must hold a JSON object")
    return meta, arrays


_EXPECTED = {"int": "an integer", "float": "a finite number", "str": "a string", "dict": "a JSON object"}


def coerce(value, kind: str, where: str, error: type):
    """A JSON ``value`` checked against a declared field type such as
    ``"int"`` or ``"float | None"``, or ``error`` naming ``where``: an int
    takes a JSON integer (not a bool), a float a finite number, a str a
    string, a dict an object, a tuple a nonempty list of finite numbers."""
    options = kind.split(" | ")
    if value is None and "None" in options:
        return None
    if "tuple" in options and (isinstance(value, list) or options == ["tuple"]):
        if not isinstance(value, list) or not value:
            raise error(f"{where}: expected a nonempty list of numbers, got {value!r:.60}")
        return tuple(coerce(v, "float", f"{where}[{k}]", error) for k, v in enumerate(value))
    kind = options[0]
    if not isinstance(value, bool):
        if kind == "int" and isinstance(value, int):
            return value
        if kind == "float" and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
            return float(value)
        if kind == "str" and isinstance(value, str):
            return value
        if kind == "dict" and isinstance(value, dict):
            return value
    raise error(f"{where}: expected {_EXPECTED[kind]}, got {value!r:.60}")


def read_fields(cls, obj, where: str, error: type, **given):
    """``cls`` built from the JSON object ``obj``, whose keys name the fields
    of ``cls`` less those in ``given``: a dataclass-typed field is a nested
    object, any other value is checked by :func:`coerce` against the field's
    type, and an absent key takes the field's default.  Errors name the
    field; a constructor's ``ConfigError``/``InputError`` gets ``where`` in
    front.  It reads both the config file and the model file headers."""
    obj = coerce(obj, "dict", where, error)
    hints = get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    if unknown := sorted(obj.keys() - {f.name for f in fields}):
        raise error(f"{where}: unknown key(s) {', '.join(unknown)}")
    for f in fields:
        if f.name not in obj:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise error(f"{where}: missing required field '{f.name}'")
        elif dataclasses.is_dataclass(hints[f.name]):
            given[f.name] = read_fields(hints[f.name], obj[f.name], f"{where}.{f.name}", error)
        else:
            given[f.name] = coerce(obj[f.name], f.type, f"{where}.{f.name}", error)
    try:
        return cls(**given)
    except (ConfigError, InputError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def config_digest(obj) -> str:
    """SHA-256 of the canonical JSON form; stable under key reordering."""
    import hashlib

    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
