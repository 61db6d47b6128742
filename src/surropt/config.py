"""Experiment configuration: a single versioned JSON file.

The JSON layout is the ``ExperimentConfig`` dataclass tree, read by
``util.read_fields`` as the model file headers are.  Each key names a field
and is checked against its declared type, so a typo in a hyperparameter
name or a value of the wrong type fails loudly instead of silently using a
default.  A dataclass-typed field is a nested object of that class
(``costs``, ``learner``, ``learner.loss``, ``learner.gbdt``), and an absent
key takes the field's default.  Three fields are read by hand:
``hospitals`` is a nonempty list of ``ZinbParams`` objects, hospital 1
first; ``initial_state`` is ``"empty"`` or a per-hospital list of per-age
unit counts; and ``saa`` leaves out ``SaaConfig.seed``, which nothing reads
and which stays at its default.  A file without ``version`` is read as the
current one.  Every error is a ``ConfigError`` (or an ``InputError`` from a
constructor) naming the offending field.

An example file; every key it leaves out takes its default::

    {
      "version": 2,
      "seed": 20240803,
      "horizon_days": 500,
      "rollout_days": 200,
      "hospitals": [
        {"pi": 0.6, "r": 4, "p": 0.6},
        {"pi": 0.6, "r": 3, "p": 0.57},
        {"pi": 0.25, "r": 15, "p": 0.57},
        {"pi": 0.25, "r": 15, "p": 0.48}
      ],
      "saa": {"scenario_count": 50},
      "learner": {
        "kind": "gbdt",
        "loss": {"kind": "huber", "delta": 1.0},
        "gbdt": {"eta": 0.1, "max_depth": 4, "n_iterations": 120}
      }
    }

A ridge learner takes ``ridge_lambdas`` and an SVR ``svr_C``, ``svr_gamma``
and ``svr_epsilon``, all inside ``learner``.
"""

from __future__ import annotations

import dataclasses
import json

from .demand import ZinbParams
from .errors import ConfigError
from .pipeline import ExperimentConfig
from .simulate import InventoryState
from .two_stage import SaaConfig
from .util import coerce, read_fields

CONFIG_VERSION = 2


def _inventory(grid, where: str) -> InventoryState:
    """A per-hospital list of per-age unit counts."""
    if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
        raise ConfigError(f"{where}: expected \"empty\" or a list of per-hospital lists")
    if len({len(row) for row in grid}) > 1:
        raise ConfigError(f"{where}: hospital rows differ in length")
    rows = [
        [coerce(v, "int", f"{where}[{i}][{a}]", ConfigError) for a, v in enumerate(row)]
        for i, row in enumerate(grid)
    ]
    # the state's one count rule judges them, its errors named by read_fields:
    # from 2**63 up, numpy reads a count as uint64, float or object, and none passes
    return read_fields(InventoryState, {}, where, ConfigError, units=rows)


def parse_config(obj, where: str = "config") -> ExperimentConfig:
    obj = dict(coerce(obj, "dict", where, ConfigError))
    version = coerce(obj.pop("version", CONFIG_VERSION), "int", f"{where}.version", ConfigError)
    if version != CONFIG_VERSION:
        raise ConfigError(f"{where}.version: unsupported version {version}")
    entries = obj.pop("hospitals", None)
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{where}.hospitals: required, a nonempty list of hospital objects")
    hospitals = tuple(
        read_fields(ZinbParams, e, f"{where}.hospitals[{k}]", ConfigError) for k, e in enumerate(entries)
    )
    saa = read_fields(SaaConfig, obj.pop("saa", {}), f"{where}.saa", ConfigError, seed=SaaConfig.seed)
    initial = obj.pop("initial_state", "empty")
    state = None if initial == "empty" else _inventory(initial, f"{where}.initial_state")
    return read_fields(ExperimentConfig, obj, where, ConfigError, hospitals=hospitals, saa=saa, initial_state=state)


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
    del out["saa"]["seed"]
    state = config.initial_state
    out["initial_state"] = "empty" if state.total() == 0 else state.units.tolist()
    return {"version": CONFIG_VERSION, **out}
