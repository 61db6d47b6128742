"""Experiment configuration: a single versioned JSON file.

The schema is the dataclass fields.  Each JSON section is read by
:func:`_fields`, which takes the allowed keys from ``dataclasses.fields`` and
checks every value against its field's declared type, so a typo in a
hyperparameter name or a value of the wrong type fails loudly instead of
silently using a default.  Only the few places where the JSON layout and the
dataclasses differ are mapped by hand: ``learner.loss`` and
``learner.delta``, ``learner.svr``, the top-level ``seed`` that also seeds
the SAA scenarios, and ``initial_inventory``.  ``hospitals`` is a list of
``ZinbParams`` objects; a hospital may also give an ``id``, which must equal
its 1-based position and is not written back.  Every error is a
``ConfigError`` (or an ``InputError`` from a constructor) naming the
offending field.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

from .demand import ZinbParams
from .errors import ConfigError, InputError
from .learners.gbdt import GbdtParams
from .losses import LossSpec
from .pipeline import ExperimentConfig, LearnerSpec
from .simulate import CostParams, InventoryState
from .two_stage import SaaConfig

CONFIG_VERSION = 1

_EXPECTED = {"int": "an integer", "float": "a finite number", "str": "a string"}


def _coerce(value, kind: str, where: str):
    """``value`` checked against a declared field type such as ``"int"`` or
    ``"float | None"``: an int takes a JSON integer (not a bool), a float a
    finite number, a str a string, a tuple a nonempty list of finite numbers."""
    options = kind.split(" | ")
    if value is None and "None" in options:
        return None
    if "tuple" in options and (isinstance(value, list) or options == ["tuple"]):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where}: expected a nonempty list of numbers, got {value!r:.60}")
        return tuple(_coerce(v, "float", f"{where}[{k}]") for k, v in enumerate(value))
    kind = options[0]
    if not isinstance(value, bool):
        if kind == "int" and isinstance(value, int):
            return value
        if kind == "float" and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
            return float(value)
        if kind == "str" and isinstance(value, str):
            return value
    raise ConfigError(f"{where}: expected {_EXPECTED[kind]}, got {value!r:.60}")


def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    return dict(obj)


def _fields(cls, obj, where: str, given=(), prefix: str = "") -> dict:
    """Keyword arguments for ``cls`` read from the JSON object ``obj``.

    The JSON keys are the names of the fields of ``cls`` that start with
    ``prefix`` (which the key drops), less those in ``given``.  An absent key
    takes the field's default; a field without one is required."""
    obj = _object(obj, where)
    fields = {
        f.name[len(prefix) :]: f
        for f in dataclasses.fields(cls)
        if f.name.startswith(prefix) and f.name not in given
    }
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")
    kwargs = {}
    for key, f in fields.items():
        if key in obj:
            kwargs[f.name] = _coerce(obj[key], f.type, f"{where}.{key}")
        elif f.default is not dataclasses.MISSING:
            kwargs[f.name] = f.default
        else:
            raise ConfigError(f"{where}: missing required field '{key}'")
    return kwargs


def _construct(cls, where: str, *args, **kwargs):
    """``cls(*args, **kwargs)``, with the location put in front of its errors."""
    try:
        return cls(*args, **kwargs)
    except (ConfigError, InputError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _build(cls, obj, where: str, **given):
    return _construct(cls, where, **given, **_fields(cls, obj, where, given))


def _hospital(entry, k: int, where: str) -> ZinbParams:
    """Hospital ``k + 1``'s demand; an optional ``id`` must be that number."""
    entry = _object(entry, where)
    hospital_id = _coerce(entry.pop("id", k + 1), "int", f"{where}.id")
    if hospital_id != k + 1:
        raise ConfigError(f"{where}.id: must equal the hospital's position {k + 1}, got {hospital_id}")
    return _build(ZinbParams, entry, where)


def _learner(obj, where: str) -> LearnerSpec:
    obj = _object(obj, where)
    kind = _coerce(obj.pop("loss", "mse"), "str", f"{where}.loss")
    delta = _coerce(obj.pop("delta", 1.0), "float", f"{where}.delta")
    loss = _construct(LossSpec, f"{where}.loss", kind, delta)
    gbdt = _build(GbdtParams, obj.pop("gbdt", {}), f"{where}.gbdt")
    svr = _fields(LearnerSpec, obj.pop("svr", {}), f"{where}.svr", prefix="svr_")
    return _build(LearnerSpec, obj, where, loss=loss, gbdt=gbdt, **svr)


def _inventory(grid, where: str) -> InventoryState:
    """A per-hospital list of per-age unit counts."""
    if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
        raise ConfigError(f"{where}: expected \"empty\" or a list of per-hospital lists")
    if len({len(row) for row in grid}) > 1:
        raise ConfigError(f"{where}: hospital rows differ in length")
    rows = [
        [_coerce(v, "int", f"{where}[{i}][{a}]") for a, v in enumerate(row)]
        for i, row in enumerate(grid)
    ]
    if any(not 0 <= v < 2**63 for row in rows for v in row):
        raise ConfigError(f"{where}: unit counts must be in [0, 2**63)")
    return _construct(InventoryState, where, np.array(rows, dtype=np.int64))


def parse_config(obj, where: str = "config") -> ExperimentConfig:
    obj = _object(obj, where)
    version = _coerce(obj.pop("version", CONFIG_VERSION), "int", f"{where}.version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"{where}.version: unsupported version {version}")
    if "hospitals" not in obj:
        raise ConfigError(f"{where}: missing required field 'hospitals'")
    hospitals = obj.pop("hospitals")
    if not isinstance(hospitals, list) or not hospitals:
        raise ConfigError(f"{where}.hospitals: must be a nonempty list")
    hospitals = tuple(
        _hospital(entry, k, f"{where}.hospitals[{k}]") for k, entry in enumerate(hospitals)
    )
    costs = _build(CostParams, obj.pop("costs", {}), f"{where}.costs")
    seed = _coerce(obj.get("seed", 0), "int", f"{where}.seed")
    saa = _build(SaaConfig, obj.pop("saa", {}), f"{where}.saa", seed=seed)
    learner = _learner(obj.pop("learner", {}), f"{where}.learner")
    initial = obj.pop("initial_inventory", "empty")
    config = _build(
        ExperimentConfig,
        obj,
        where,
        hospitals=hospitals,
        costs=costs,
        saa=saa,
        learner=learner,
        initial_state=None,
    )
    if initial == "empty":
        return config
    where = f"{where}.initial_inventory"
    return _construct(dataclasses.replace, where, config, initial_state=_inventory(initial, where))


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    return parse_config(obj, where=str(path))


def _json_object(pairs) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in pairs}


def config_to_dict(config: ExperimentConfig) -> dict:
    """Canonical dict form, round-trippable through parse_config."""
    out = dataclasses.asdict(config, dict_factory=_json_object)
    learner = out.pop("learner")
    loss = learner.pop("loss")
    svr = {name[4:]: learner.pop(name) for name in list(learner) if name.startswith("svr_")}
    learner.update(loss=loss["kind"], delta=loss["delta"], svr=svr)
    del out["saa"]["seed"]
    del out["initial_state"]
    state = config.initial_state
    return {
        "version": CONFIG_VERSION,
        **out,
        "learner": learner,
        "initial_inventory": "empty" if state.total() == 0 else state.units.tolist(),
    }
