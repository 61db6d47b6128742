import importlib
import json
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from surropt import cli
from surropt.learners import load_model
from surropt.report import read_dataset_csv
from surropt.simulate import trajectory_columns
from surropt.util import load_arrays, save_arrays

GBDT_MODEL = Path(__file__).parent / "data" / "gbdt-mae-v1.surropt"

BASE_CONFIG = {
    "version": 2,
    "seed": 5,
    "horizon_days": 10,
    "rollout_days": 4,
    "train_fraction": 0.8,
    "max_age": 11,
    "hospitals": [
        {"pi": 0.6, "r": 4, "p": 0.6},
        {"pi": 0.6, "r": 3, "p": 0.57},
        {"pi": 0.25, "r": 15, "p": 0.57},
        {"pi": 0.25, "r": 15, "p": 0.48},
    ],
    "saa": {"scenario_count": 4},
    "learner": {"kind": "ridge", "ridge_lambdas": [1.0], "folds": 5},
}


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    # the subprocess does not see pytest's pythonpath setting, so put src first
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "surropt.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def write_config(tmp_path, overrides=None, drop=None, name="config.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if overrides:
        for key, value in overrides.items():
            node = cfg
            parts = key.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
    if drop:
        for key in drop:
            cfg.pop(key, None)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """One 70-day generation shared by the train/rollout CLI tests."""
    tmp = tmp_path_factory.mktemp("cli")
    config = write_config(tmp, overrides={"horizon_days": 70})
    out = tmp / "run"
    result = run_cli("generate", "--config", config, "--out", out)
    assert result.returncode == 0, result.stderr
    return config, out


class TestGenerate:
    def test_row_count_and_exit(self, tmp_path):
        config = write_config(tmp_path)
        result = run_cli("generate", "--config", config, "--out", tmp_path / "g")
        assert result.returncode == 0
        lines = (tmp_path / "g" / "dataset.csv").read_text().splitlines()
        assert len(lines) == 11  # header + 10 days
        manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
        assert manifest["oracle_violations"] == 0
        assert manifest["command"] == "generate"

    def test_missing_demand_params_exit_2(self, tmp_path):
        config = write_config(tmp_path, drop=["hospitals"])
        result = run_cli("generate", "--config", config, "--out", tmp_path / "g")
        assert result.returncode == 2
        assert "hospitals" in result.stderr

    def test_missing_hospital_field_named(self, tmp_path):
        config = write_config(tmp_path, overrides={"hospitals": [{"pi": 0.5, "r": 2}]})
        result = run_cli("generate", "--config", config, "--out", tmp_path / "g")
        assert result.returncode == 2
        assert "'p'" in result.stderr and "hospitals[0]" in result.stderr

    def test_unknown_key_exit_2(self, tmp_path):
        config = write_config(tmp_path, overrides={"horizon": 9})
        result = run_cli("generate", "--config", config, "--out", tmp_path / "g")
        assert result.returncode == 2
        assert "horizon" in result.stderr

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path)
        for name in ("a", "b"):
            assert run_cli("generate", "--config", config, "--out", tmp_path / name).returncode == 0
        a = (tmp_path / "a" / "dataset.csv").read_bytes()
        b = (tmp_path / "b" / "dataset.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize(
        "command, key",
        [("generate", "horizon_days"), ("rollout", "rollout_days"), ("generate", "saa.scenario_count")],
    )
    def test_huge_count_exit_2(self, tmp_path, capsys, monkeypatch, command, key):
        # 10**12 days or scenarios would be a 29 TiB demand block: the config
        # must fail before any demand is drawn or any output written
        from surropt.demand import DemandModel

        def never(*args, **kwargs):
            raise AssertionError("a demand block was drawn")

        monkeypatch.setattr(DemandModel, "sample_day", never)
        config = write_config(tmp_path, overrides={key: 10**12})
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--out", str(out)]
        if command == "rollout":
            argv += ["--model", str(tmp_path / "nope.surropt")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert key.split(".")[-1] in err and f"got {10**12}" in err
        assert not out.exists()

    @pytest.mark.parametrize("params", [{"pi": 0.0, "r": 1, "p": 1e-6}, {"pi": 0.0, "r": 2000, "p": 0.5}])
    def test_demand_table_cap_exit_2(self, tmp_path, capsys, params):
        # a demand table that misses 1 - 1e-12 within its cap (a mean of
        # 999,999, or p**r underflowing) fails before any day is simulated
        config = write_config(tmp_path, overrides={"hospitals": BASE_CONFIG["hospitals"][:3] + [params]})
        out = tmp_path / "out"
        assert cli.main(["generate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: hospital 4: ZinbParams(") and err.count("\n") == 1
        assert not (out / "dataset.csv").exists()

    def test_overflowing_inventory_exit_2(self, tmp_path, capsys):
        # 3 * 2**62 units would wrap int64 in the first day's sums
        config = write_config(tmp_path, overrides={
            "hospitals": BASE_CONFIG["hospitals"][:1], "max_age": 3,
            "initial_state": [[2**62, 2**62, 2**62]],
        })
        out = tmp_path / "out"
        assert cli.main(["generate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "overflow the int64 range" in err
        assert not (out / "dataset.csv").exists()

    def test_learner_out_of_range_exit_2_before_labelling(self, tmp_path, capsys):
        # a negative SVR penalty used to pass generate and fail only in train
        config = write_config(tmp_path, overrides={"learner.kind": "svr", "learner.svr_C": -1})
        out = tmp_path / "out"
        assert cli.main(["generate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "learner" in err and "C must be finite and positive" in err
        assert not (out / "dataset.csv").exists()

    def test_unwritable_out_exit_3(self, tmp_path):
        config = write_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        result = run_cli("generate", "--config", config, "--out", blocker / "sub")
        assert result.returncode == 3


class TestTrain:
    def test_ridge_round_trip(self, generated, tmp_path):
        config, out = generated
        result = run_cli("train", "--config", config, "--data", out / "dataset.csv", "--out", tmp_path)
        assert result.returncode == 0, result.stderr
        model_path = tmp_path / "model-ridge.surropt"
        model = load_model(model_path)
        data = read_dataset_csv(out / "dataset.csv", 4, 11)
        a = model.predict(data.X)
        b = load_model(model_path).predict(data.X)
        assert np.array_equal(a, b)
        diag = json.loads((tmp_path / "train_diagnostics.json").read_text())
        assert diag["learner"] == "ridge"
        assert "lambda" in diag

    def test_gbdt_metadata_records_loss(self, generated, tmp_path):
        config_path, out = generated
        cfg = json.loads(config_path.read_text())
        cfg["learner"] = {
            "kind": "gbdt",
            "loss": {"kind": "mae"},
            "gbdt": {"n_iterations": 4, "max_depth": 2, "min_child_weight": 1},
        }
        config2 = tmp_path / "gbdt.json"
        config2.write_text(json.dumps(cfg))
        result = run_cli("train", "--config", config2, "--data", out / "dataset.csv", "--out", tmp_path)
        assert result.returncode == 0, result.stderr
        model = load_model(tmp_path / "model-gbdt-mae.surropt")
        assert model.loss.kind == "mae"

    def test_unknown_loss_lists_kinds(self, generated, tmp_path):
        config_path, out = generated
        cfg = json.loads(config_path.read_text())
        cfg["learner"] = {"kind": "gbdt", "loss": {"kind": "pinball"}}
        config2 = tmp_path / "bad.json"
        config2.write_text(json.dumps(cfg))
        result = run_cli("train", "--config", config2, "--data", out / "dataset.csv", "--out", tmp_path)
        assert result.returncode == 2
        for kind in ("mse", "mae", "huber"):
            assert kind in result.stderr

    def test_schema_mismatch_exit_2(self, generated, tmp_path):
        config_path, _ = generated
        bad = tmp_path / "bad.csv"
        bad.write_text("day,foo\n0,1\n")
        result = run_cli("train", "--config", config_path, "--data", bad, "--out", tmp_path)
        assert result.returncode == 2


class TestRollout:
    def test_reports(self, generated, tmp_path):
        config, out = generated
        train_dir = tmp_path / "t"
        assert run_cli("train", "--config", config, "--data", out / "dataset.csv", "--out", train_dir).returncode == 0
        roll_dir = tmp_path / "r"
        result = run_cli(
            "rollout",
            "--config", write_config(tmp_path, overrides={"rollout_days": 3}),
            "--model", train_dir / "model-ridge.surropt",
            "--out", roll_dir,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads((roll_dir / "manifest.json").read_text())["days"] == 3
        comparison = (roll_dir / "comparison.csv").read_text().splitlines()
        assert len(comparison) == 3  # header + ridge + oracle
        assert comparison[0].startswith("policy,holding,transshipment,outdate,ordering,shortage,total")
        inventory = (roll_dir / "inventory.csv").read_text().splitlines()
        assert len(inventory) == 1 + 2 * 44  # two policies, 44 slots each
        text = (roll_dir / "comparison.txt").read_text()
        for col in ("Holding", "Transshipment", "Outdate", "Ordering", "Shortage", "Total"):
            assert col in text

    def test_rollout_without_model_exit_2(self, generated, tmp_path):
        config, _ = generated
        result = run_cli("rollout", "--config", config, "--out", tmp_path)
        assert result.returncode == 2

    @pytest.mark.parametrize("days", [0, -1])
    def test_nonpositive_days_exit_2(self, generated, tmp_path, days):
        config, out = generated
        train_dir = tmp_path / "t"
        assert run_cli("train", "--config", config, "--data", out / "dataset.csv", "--out", train_dir).returncode == 0
        result = run_cli(
            "rollout",
            "--config", write_config(tmp_path, overrides={"rollout_days": days}),
            "--model", train_dir / "model-ridge.surropt",
            "--out", tmp_path / "r",
        )
        assert result.returncode == 2
        assert "error:" in result.stderr and "rollout_days" in result.stderr

    @pytest.mark.parametrize(
        "names, named",
        [
            (["a/model-ridge.surropt", "b/model-ridge.surropt", "a/oracle.surropt"],
             ["a/model-ridge.surropt", "b/model-ridge.surropt", "'ridge'"]),
            (["a/oracle.surropt"], ["the oracle policy", "a/oracle.surropt", "'oracle'"]),
        ],
        ids=["same-stem", "oracle-stem"],
    )
    def test_clashing_policy_labels_exit_2(self, tmp_path, capsys, names, named):
        # each model's row is labelled by its file stem, so two models with one
        # stem, or one named like the oracle, would give indistinguishable rows
        meta, arrays = TestMalformedFiles.fitted_arrays("ridge")
        argv = ["rollout", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "r")]
        for name in names:
            (tmp_path / name).parent.mkdir(exist_ok=True)
            save_arrays(tmp_path / name, meta, arrays)
            argv += ["--model", str(tmp_path / name)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        for text in named:
            assert (str(tmp_path / text) if text.endswith(".surropt") else text) in err
        assert not (tmp_path / "r").exists()

    def test_missing_model_file_exit_3(self, generated, tmp_path):
        config, _ = generated
        result = run_cli(
            "rollout", "--config", config, "--model", tmp_path / "nope.surropt", "--out", tmp_path
        )
        assert result.returncode == 3


class TestMalformedFiles:
    """A malformed dataset or model file is the user's error: exit 2, naming it."""

    @staticmethod
    def dataset(tmp_path, row):
        header = trajectory_columns(4, 11)
        good = ["0"] * len(header)
        path = tmp_path / "dataset.csv"
        path.write_text("\n".join([",".join(header), ",".join(good), row(good)]) + "\n")
        return path

    @pytest.mark.parametrize(
        "row",
        [
            lambda good: ",".join(good[:40]),  # short row
            lambda good: ",".join(good[:5] + ["x0"] + good[6:]),  # non-numeric field
        ],
        ids=["short-row", "non-numeric"],
    )
    def test_malformed_dataset_exit_2(self, tmp_path, capsys, row):
        config = write_config(tmp_path)
        data = self.dataset(tmp_path, row)
        code = cli.main(
            ["train", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "t")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{data}: line 3" in err

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xff\xfe" + write_config(tmp_path, name="good.json").read_bytes())
        code = cli.main(["generate", "--config", str(config), "--out", str(tmp_path / "g")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {config}: not UTF-8 text\n"

    @pytest.mark.parametrize("where", ["start", "row"])
    def test_non_utf8_dataset_exit_2(self, tmp_path, capsys, where):
        config = write_config(tmp_path)
        data = self.dataset(tmp_path, lambda good: ",".join(good))
        text = data.read_bytes()
        if where == "start":
            data.write_bytes(b"\xff\xfe" + text)
        else:
            data.write_bytes(text + b"\xff" + text.splitlines(keepends=True)[-1])
        code = cli.main(
            ["train", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "t")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {data}: not UTF-8 text\n"

    @pytest.mark.parametrize(
        "members",
        [
            None,  # not a zip archive
            {"coef.npy": b""},  # no meta.json
            {"meta.json": b"{not json"},
            {"meta.json": json.dumps({"format_version": 1, "kind": "ridge", "lambda": 1.0})},
        ],
        ids=["not-zip", "no-meta", "bad-json", "missing-array"],
    )
    def test_malformed_model_exit_2(self, tmp_path, capsys, members):
        config = write_config(tmp_path)
        model = tmp_path / "model-ridge.surropt"
        if members is None:
            model.write_text("not a zip archive")
        else:
            with zipfile.ZipFile(model, "w") as zf:
                for name, payload in members.items():
                    zf.writestr(name, payload)
        code = cli.main(
            ["rollout", "--config", str(config), "--model", str(model), "--out", str(tmp_path / "r")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(model) in err

    @pytest.mark.parametrize(
        "name, value",
        [
            ("left", 0),  # the first root is a split whose left child is itself
            ("feature", 4),  # the model has 4 features
            ("right", 9),  # the first tree has 9 nodes
            ("node_counts", 10),  # one more node than the arrays hold
        ],
        ids=["cyclic-node", "feature-out-of-range", "child-out-of-range", "count-mismatch"],
    )
    def test_malformed_gbdt_model_exit_2(self, tmp_path, capsys, name, value):
        meta, arrays = load_arrays(GBDT_MODEL)
        assert arrays["feature"][0] >= 0 and arrays["node_counts"][0] == 9
        arrays[name][0] = value
        model = tmp_path / "model-gbdt.surropt"
        save_arrays(model, meta, arrays)
        config = write_config(tmp_path)
        code = cli.main(
            ["rollout", "--config", str(config), "--model", str(model), "--out", str(tmp_path / "r")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: malformed model file")

    @staticmethod
    def fitted_arrays(kind, n_in=44, n_out=136):
        """The meta and arrays of a well-formed model file for BASE_CONFIG."""
        rng = np.random.default_rng(3)
        if kind == "ridge":
            meta = {"format_version": 1, "kind": "ridge", "lambda": 1.0, "cv_mse": {}}
            return meta, {"coef": rng.normal(size=(n_out, n_in + 1))}
        meta = {"format_version": 1, "kind": "svr", "gamma": 0.02, "epsilon": 0.1, "C": 1.0,
                "n_features": n_in, "cv_mse": {}}
        arrays = {"bias": rng.normal(size=n_out), "sv_counts": np.full(n_out, 2, dtype=np.int64)}
        for j in range(n_out):
            arrays[f"sv_{j:04d}"] = rng.normal(size=(2, n_in))
            arrays[f"coef_{j:04d}"] = rng.normal(size=2)
        return meta, arrays

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("ridge", lambda a: {"coef": a["coef"][0]}),  # 1-D coef
            ("svr", lambda a: {"coef_0000": np.append(a["coef_0000"], 1.0)}),  # one coef too many
            ("svr", lambda a: {"sv_0000": a["sv_0000"][:, :40]}),  # 40 of 44 features
            ("svr", lambda a: {"bias": a["bias"][:-1]}),  # shorter than sv_counts
        ],
        ids=["ridge-1d-coef", "svr-long-coef", "svr-narrow-sv", "svr-short-bias"],
    )
    def test_malformed_ridge_svr_model_exit_2(self, tmp_path, capsys, kind, edit):
        meta, arrays = self.fitted_arrays(kind)
        model = tmp_path / f"model-{kind}.surropt"
        save_arrays(model, meta, arrays)
        assert load_model(model).n_outputs == 136
        save_arrays(model, meta, {**arrays, **edit(arrays)})
        config = write_config(tmp_path)
        code = cli.main(
            ["rollout", "--config", str(config), "--model", str(model), "--out", str(tmp_path / "r")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: malformed model file")


class TestSurface:
    """The console script, the subcommands ``--help`` lists and the module
    doc describe one command-line surface."""

    def test_console_script_is_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((SRC_DIR.parent / "pyproject.toml").read_text())
        module, _, attr = pyproject["project"]["scripts"]["surropt"].partition(":")
        assert getattr(importlib.import_module(module), attr) is cli.main

    def test_help_lists_the_documented_subcommands(self, capsys):
        doc = cli.__doc__.split("Subcommands\n", 1)[1].split("\n\n", 1)[0]
        documented = [line.split()[0] for line in doc.splitlines()]
        with pytest.raises(SystemExit) as stop:
            cli.main(["--help"])
        assert stop.value.code == 0
        listed = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1).split(",")
        assert listed == documented

    def test_help_lists_the_documented_options(self, capsys):
        doc = cli.__doc__.split("Options\n", 1)[1].split("\n\n", 1)[0]
        documented = {line.split()[0]: set(line.split()[1:]) for line in doc.splitlines()}
        assert list(documented) == ["generate", "train", "rollout"]
        for command, options in documented.items():
            with pytest.raises(SystemExit) as stop:
                cli.main([command, "--help"])
            assert stop.value.code == 0
            listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
            assert listed == options, command

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["selftest"], "invalid choice: 'selftest'"),
            (["train", "--config", "c.json", "--data", "d.csv", "--days", "5"], "unrecognized arguments"),
            (["generate", "--config", "c.json", "--seed", "3"], "unrecognized arguments: --seed 3"),
            (["generate", "--config", "c.json", "--days", "5"], "unrecognized arguments: --days 5"),
            (["rollout", "--config", "c.json", "--model", "m.surropt", "--days", "5"],
             "unrecognized arguments: --days 5"),
            (["compare", "--config", "c.json", "--model", "m.surropt"], "invalid choice: 'compare'"),
        ],
        ids=["selftest", "train-days", "seed", "days", "rollout-days", "compare"],
    )
    def test_removed_surface_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 2
        assert message in capsys.readouterr().err
