"""``util.read_fields`` is the one reader of the config file and of the
model file headers: the same bad value fails the same way in both, and every
field it can reach has a type that ``util.coerce`` knows."""

import dataclasses
from typing import get_type_hints

import numpy as np
import pytest

from surropt.config import parse_config
from surropt.demand import ZinbParams
from surropt.errors import ConfigError, InputError
from surropt.learners import GbdtModel, RidgeModel, SvrModel, load_model
from surropt.pipeline import ExperimentConfig
from surropt.util import coerce, load_arrays, save_arrays

from test_cli import GBDT_MODEL
from test_config import FULL_CONFIG, with_node

# the fields that the callers of read_fields pass in ``given``: the
# hospitals (each entry is read as a ZinbParams), the initial state grid and
# the inert saa.seed; array fields are model file members
GIVEN = {"ExperimentConfig.hospitals", "ExperimentConfig.initial_state", "SaaConfig.seed"}
ROOTS = [ExperimentConfig, ZinbParams, RidgeModel, SvrModel, GbdtModel]


def reachable_fields(cls):
    """(``owner.name``, field, type hint) of every field of ``cls`` and of
    the dataclasses nested in it, less the given ones."""
    hints = get_type_hints(cls)
    for f in dataclasses.fields(cls):
        name = f"{cls.__name__}.{f.name}"
        if name not in GIVEN:
            yield name, f, hints[f.name]
            if dataclasses.is_dataclass(hints[f.name]):
                yield from reachable_fields(hints[f.name])


def test_every_reachable_field_has_a_type_coerce_knows():
    """An option that coerce does not know would raise a bare ``KeyError``:
    exit 4 from a config file, and a false "model file lacks" from a model
    file."""
    checked = set()
    for root in ROOTS:
        for name, f, hint in reachable_fields(root):
            checked.add(name)
            if dataclasses.is_dataclass(hint) or hint is np.ndarray:
                continue
            assert isinstance(f.type, str), name
            for option in f.type.split(" | "):
                if option != "None":
                    with pytest.raises(ConfigError):
                        coerce(object(), option, name, ConfigError)
    # the walk reached every nested object
    assert {"LearnerSpec.loss", "LossSpec.delta", "GbdtParams.max_bins", "SaaConfig.scenario_count",
            "CostParams.outdate", "ZinbParams.r", "GbdtModel.params", "SvrModel.cv_mse"} <= checked


# (path below ``learner`` in a config file, path in a GBDT model header, bad
# value, what each error must name): the GBDT settings are ``learner.gbdt``
# and ``learner.loss`` in a config file and ``params`` and ``loss`` in a
# GBDT model header
BAD_VALUES = [
    (("gbdt", "max_depth"), ("params", "max_depth"), True, "gbdt.max_depth:", "params.max_depth:"),
    (("gbdt", "n_iterations"), ("params", "n_iterations"), 2.5, "gbdt.n_iterations:", "params.n_iterations:"),
    (("gbdt", "eta"), ("params", "eta"), "0.1", "gbdt.eta:", "params.eta:"),
    (("loss", "delta"), ("loss", "delta"), float("nan"), "loss.delta:", "loss.delta:"),
    (("gbdt",), ("params",), [1], "gbdt:", "params:"),
    (("loss", "width"), ("loss", "width"), 1.0, "loss: unknown key(s) width", "loss: unknown key(s) width"),
]


@pytest.mark.parametrize(
    "config_path, model_path, value, config_named, model_named", BAD_VALUES,
    ids=["bool-for-int", "fraction-for-int", "string-for-float", "nan", "list-for-object", "unknown-nested-key"],
)
def test_same_bad_value_fails_in_both_files(tmp_path, config_path, model_path, value, config_named, model_named):
    with pytest.raises(ConfigError) as err:
        parse_config(with_node(FULL_CONFIG, ("learner",) + config_path, value))
    assert str(err.value).startswith(f"config.learner.{config_named}")
    meta, arrays = load_arrays(GBDT_MODEL)
    model = tmp_path / "model-gbdt.surropt"
    save_arrays(model, with_node(meta, model_path, value), arrays)
    with pytest.raises(InputError) as err:
        load_model(model)
    assert str(err.value).startswith(f"{model}: malformed model file (gbdt.{model_named}")


def test_header_key_with_a_default_may_be_left_out(tmp_path):
    meta, arrays = load_arrays(GBDT_MODEL)
    assert meta["diagnostics"]
    model = tmp_path / "model.surropt"
    save_arrays(model, {k: v for k, v in meta.items() if k != "diagnostics"}, arrays)
    assert load_model(model).diagnostics == {}
    save_arrays(model, {k: v for k, v in meta.items() if k != "seed"}, arrays)
    with pytest.raises(InputError, match="gbdt: missing required field 'seed'"):
        load_model(model)
