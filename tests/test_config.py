"""Config parsing: the dataclass fields are the schema, and every malformed
value ends in a ConfigError (or an InputError from a constructor) that names
its field."""

import copy
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surropt import cli, config as config_module
from surropt.config import config_to_dict, parse_config
from surropt.errors import ConfigError, InputError

from test_cli import BASE_CONFIG

# Every section and every key filled in, none at its default.
FULL_CONFIG = {
    "version": 2,
    "seed": 9,
    "horizon_days": 12,
    "rollout_days": 3,
    "train_fraction": 0.75,
    "max_age": 3,
    "hospitals": [
        {"pi": 0.5, "r": 2, "p": 0.5},
        {"pi": 0.25, "r": 3, "p": 0.4},
    ],
    "costs": {"holding": 0.5, "ordering": 4.0, "transship_unit": 2.0, "shortage": 30.0, "outdate": 12.0},
    "saa": {"scenario_count": 7},
    "learner": {
        "kind": "svr",
        "loss": {"kind": "huber", "delta": 0.5},
        "folds": 3,
        "gbdt": {
            "eta": 0.2,
            "max_depth": 3,
            "min_child_weight": 1.5,
            "subsample": 0.8,
            "colsample_bytree": 0.9,
            "n_iterations": 20,
            "l1": 0.0,
            "l2": 2.0,
            "max_bins": 16,
        },
        "ridge_lambdas": [0.1, 1.0, 10.0],
        "svr_C": [0.5, 5.0],
        "svr_gamma": 0.25,
        "svr_epsilon": 0.05,
    },
    "initial_state": [[1, 0, 2], [0, 3, 0]],
}

# config_to_dict of BASE_CONFIG: the given keys plus every default.
BASE_DICT = {
    "version": 2,
    "seed": 5,
    "horizon_days": 10,
    "rollout_days": 4,
    "train_fraction": 0.8,
    "max_age": 11,
    "hospitals": BASE_CONFIG["hospitals"],
    "costs": {"holding": 1.0, "ordering": 10.0, "transship_unit": 7.0, "shortage": 40.0, "outdate": 35.0},
    "saa": {"scenario_count": 4},
    "learner": {
        "kind": "ridge",
        "loss": {"kind": "mse", "delta": 1.0},
        "folds": 5,
        "gbdt": {
            "eta": 0.01,
            "max_depth": 15,
            "min_child_weight": 5.0,
            "subsample": 0.7,
            "colsample_bytree": 1.0,
            "n_iterations": 1000,
            "l1": 0.1,
            "l2": 1.0,
            "max_bins": 64,
        },
        "ridge_lambdas": [1.0],
        "svr_C": 1.0,
        "svr_gamma": None,
        "svr_epsilon": 0.1,
    },
    "initial_state": "empty",
}


def with_node(base, path, value):
    cfg = copy.deepcopy(base)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


# (path, value, the field the error must name)
MALFORMED = [
    (("costs",), [1], "config.costs"),
    (("saa", "scenario_count"), "5", "config.saa.scenario_count"),
    (("learner",), 5, "config.learner"),
    (("learner", "gbdt"), {"max_depth": "3"}, "config.learner.gbdt.max_depth"),
    (("learner", "svr_C"), {}, "config.learner.svr_C"),
    (("learner", "svr_C"), [], "config.learner.svr_C"),
    (("hospitals", 0, "pi"), None, "config.hospitals[0].pi"),
    (("horizon_days",), "x", "config.horizon_days"),
    (("initial_state",), [[0] * 11] * 3 + [[0] * 10], "config.initial_state"),
    (("initial_state",), [[0] * 11] * 3, "config: initial_state is 3x11, expected 4x11"),
    (("learner", "loss"), {"kind": "huber", "delta": "a"}, "config.learner.loss.delta"),
    (("horizon_days",), json.loads("1e999"), "config.horizon_days"),
    (("costs",), {"holding": math.nan}, "config.costs.holding"),
    (("train_fraction",), 10**400, "config.train_fraction"),
    (("hospitals", 0, "r"), 3.7, "config.hospitals[0].r"),
    (("seed",), 1.9, "config.seed"),
    (("seed",), True, "config.seed"),
    (("seed",), -1, "seed must be >= 0"),
    (("max_age",), 10**12, "max_age must be in"),
    (("version",), True, "config.version"),
    (("saa", "form"), "compact", "config.saa: unknown key(s) form"),
    (("issuing",), "fifo", "config: unknown key(s) issuing"),
    (("saa", "rounding"), "nearest", "config.saa: unknown key(s) rounding"),
    # keys of the version-1 layout
    (("hospitals", 0, "id"), 2, "config.hospitals[0]: unknown key(s) id"),
    (("hospitals", 1, "id"), "2", "config.hospitals[1]: unknown key(s) id"),
    (("learner", "loss"), "huber", "config.learner.loss: expected a JSON object"),
    (("learner", "delta"), 0.5, "config.learner: unknown key(s) delta"),
    (("learner", "svr"), {"C": 1.0}, "config.learner: unknown key(s) svr"),
    (("saa", "seed"), 5, "config.saa: unknown key(s) seed"),
    (("initial_inventory",), "empty", "config: unknown key(s) initial_inventory"),
    (("version",), 1, "config.version: unsupported version 1"),
]


@pytest.mark.parametrize("path, value, field", MALFORMED)
def test_malformed_value_names_its_field(path, value, field):
    with pytest.raises(ConfigError) as err:
        parse_config(with_node(BASE_CONFIG, path, value))
    assert field in str(err.value)


def test_negative_cost_is_an_input_error_naming_the_field():
    with pytest.raises(InputError) as err:
        parse_config(with_node(BASE_CONFIG, ("costs",), {"shortage": -1}))
    assert "config.costs" in str(err.value) and "shortage" in str(err.value)


@pytest.mark.parametrize("count", [-1, 2**63, 2**64])
def test_initial_count_out_of_range_exits_2(count, tmp_path, capsys):
    # the state's one count rule judges the grid read from the file
    grid = [[0] * 11 for _ in range(4)]
    grid[2][5] = count
    cfg = with_node(BASE_CONFIG, ("initial_state",), grid)
    with pytest.raises(InputError, match=r"^config\.initial_state: units must be whole numbers"):
        parse_config(cfg)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    code = cli.main(["generate", "--config", str(config), "--out", str(tmp_path / "g")])
    assert code == 2
    assert f"{config}.initial_state" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("path, value, field", MALFORMED)
def test_malformed_config_exits_2(path, value, field, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(with_node(BASE_CONFIG, path, value)))
    code = cli.main(["generate", "--config", str(config), "--out", str(tmp_path / "g")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field.replace("config", str(config), 1) in err
    assert not (tmp_path / "g").exists()


def test_round_trip_of_base_config():
    d = config_to_dict(parse_config(BASE_CONFIG))
    assert d == BASE_DICT
    assert config_to_dict(parse_config(d)) == d


def test_round_trip_of_full_config():
    d = config_to_dict(parse_config(FULL_CONFIG))
    assert d == FULL_CONFIG
    assert config_to_dict(parse_config(d)) == d
    assert json.loads(json.dumps(d)) == d


def test_every_key_is_a_field_name():
    # no hand-mapped key: each dict node's keys name fields of the dataclass
    # it was written from, at every level; top-level "version" is the only
    # extra key
    config = parse_config(FULL_CONFIG)
    d = config_to_dict(config)
    assert d.pop("version") == config_module.CONFIG_VERSION

    def check(node, obj, where):
        names = {f.name for f in dataclasses.fields(obj)}
        assert set(node) <= names, f"{where}: {sorted(set(node) - names)}"
        for key, value in node.items():
            child = getattr(obj, key)
            if isinstance(value, dict):
                check(value, child, f"{where}.{key}")
            elif isinstance(value, list) and all(isinstance(v, dict) for v in value):
                for k, (v, c) in enumerate(zip(value, child, strict=True)):
                    check(v, c, f"{where}.{key}[{k}]")

    check(d, config, "config")


def test_float_fields_take_integers_and_saa_seed_stays_default():
    config = parse_config(with_node(BASE_CONFIG, ("costs",), {"holding": 2}))
    assert config.costs.holding == 2.0 and isinstance(config.costs.holding, float)
    assert config.seed == 5 and config.saa.seed == 0


def test_docstring_example_parses():
    example = config_module.__doc__.split("::\n", 1)[1].split("\n\n", 1)[0]
    config = parse_config(json.loads(example))
    assert config.learner.loss.kind == "huber" and config.learner.gbdt.n_iterations == 120


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def node_paths(node, path=()):
    """Paths to every value below the root, containers included."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


NODES = [(base, path) for base in (BASE_CONFIG, FULL_CONFIG) for path in node_paths(base)]


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_any_json_value_parses_or_raises_config_error(value):
    try:
        parse_config(value)
    except (ConfigError, InputError):
        pass


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(NODES), JSON_VALUES)
def test_one_replaced_value_parses_or_raises_config_error(node, value):
    base, path = node
    try:
        config = parse_config(with_node(base, path, value))
    except (ConfigError, InputError):
        return
    assert config_to_dict(parse_config(config_to_dict(config))) == config_to_dict(config)
